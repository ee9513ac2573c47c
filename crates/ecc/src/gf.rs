//! Arithmetic in GF(2^m), the field underlying BCH codes.
//!
//! Elements are represented as polynomials over GF(2) packed into a `u32`
//! (degree < m). Multiplication uses log/antilog tables built from a
//! primitive polynomial, so all operations are O(1) after construction.

/// A finite field GF(2^m), 2 ≤ m ≤ 16.
#[derive(Debug, Clone)]
pub struct GF2m {
    m: u32,
    /// Field size minus one (order of the multiplicative group).
    n: u32,
    /// exp[i] = α^i for i in 0..n (and wrapped copy for convenience).
    exp: Vec<u32>,
    /// log[x] = i such that α^i = x, for x in 1..=n.
    log: Vec<u32>,
}

/// Default primitive polynomials (bit i = coefficient of x^i), indexed by m.
const PRIMITIVE_POLY: [u32; 17] = [
    0,
    0,
    0b111,
    0b1011,
    0b10011,
    0b100101,
    0b1000011,
    0b10001001,
    0b100011101,
    0b1000010001,
    0b10000001001,
    0b100000000101,
    0b1000001010011,
    0b10000000011011,
    0b100010000000011,
    0b1000000000000011,
    0b10001000000001011,
];

impl GF2m {
    /// Constructs GF(2^m) with the standard primitive polynomial for `m`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= m <= 16`.
    #[must_use]
    pub fn new(m: u32) -> Self {
        assert!((2..=16).contains(&m), "m must be in 2..=16");
        let poly = PRIMITIVE_POLY[m as usize];
        let n = (1u32 << m) - 1;
        let mut exp = vec![0u32; 2 * n as usize];
        let mut log = vec![0u32; (n + 1) as usize];
        let mut x = 1u32;
        for i in 0..n {
            exp[i as usize] = x;
            log[x as usize] = i;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        for i in n..2 * n {
            exp[i as usize] = exp[(i - n) as usize];
        }
        Self { m, n, exp, log }
    }

    /// Field extension degree m.
    #[must_use]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Order of the multiplicative group (2^m − 1).
    #[must_use]
    pub fn order(&self) -> u32 {
        self.n
    }

    /// α^i (exponents taken mod 2^m − 1).
    #[must_use]
    pub fn alpha_pow(&self, i: u32) -> u32 {
        self.exp[(i % self.n) as usize]
    }

    /// Discrete log base α of a non-zero element.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero or out of range.
    #[must_use]
    pub fn log(&self, x: u32) -> u32 {
        assert!(x != 0 && x <= self.n, "log of zero/out-of-range element");
        self.log[x as usize]
    }

    /// Field addition (= XOR).
    #[must_use]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[must_use]
    pub fn inv(&self, a: u32) -> u32 {
        assert!(a != 0, "zero has no inverse");
        self.exp[(self.n - self.log[a as usize]) as usize]
    }

    /// Field division a / b.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn div(&self, a: u32, b: u32) -> u32 {
        self.mul(a, self.inv(b))
    }

    /// a raised to an integer power.
    #[must_use]
    pub fn pow(&self, a: u32, e: u32) -> u32 {
        if a == 0 {
            return u32::from(e == 0);
        }
        let l = (u64::from(self.log[a as usize]) * u64::from(e)) % u64::from(self.n);
        self.exp[l as usize]
    }

    /// Evaluates a polynomial (coefficients low-degree first, elements of
    /// the field) at point `x` via Horner's rule.
    #[must_use]
    pub fn poly_eval(&self, coeffs: &[u32], x: u32) -> u32 {
        let mut acc = 0u32;
        for &c in coeffs.iter().rev() {
            acc = self.add(self.mul(acc, x), c);
        }
        acc
    }

    /// Minimal polynomial of α^i over GF(2), as a bitmask over GF(2)
    /// coefficients (bit k = coefficient of x^k).
    #[must_use]
    pub fn minimal_poly(&self, i: u32) -> u64 {
        // Collect the cyclotomic coset {i, 2i, 4i, ...} mod n.
        let mut coset = Vec::new();
        let mut c = i % self.n;
        loop {
            if coset.contains(&c) {
                break;
            }
            coset.push(c);
            c = (c * 2) % self.n;
        }
        // Product over the coset of (x - α^c): coefficients in GF(2^m),
        // but the result has GF(2) coefficients.
        let mut poly: Vec<u32> = vec![1]; // constant 1
        for &c in &coset {
            let root = self.alpha_pow(c);
            // poly *= (x + root)
            let mut next = vec![0u32; poly.len() + 1];
            for (k, &pk) in poly.iter().enumerate() {
                next[k + 1] ^= pk; // x * pk
                next[k] ^= self.mul(pk, root);
            }
            poly = next;
        }
        let mut bits = 0u64;
        for (k, &pk) in poly.iter().enumerate() {
            assert!(pk <= 1, "minimal polynomial must have GF(2) coefficients");
            if pk == 1 {
                bits |= 1 << k;
            }
        }
        bits
    }
}

/// Multiplies two GF(2)\[x\] polynomials given as bitmasks.
#[must_use]
pub fn gf2_poly_mul(a: u64, b: u64) -> u64 {
    let mut r = 0u64;
    let mut a = a;
    let mut shift = 0;
    while a != 0 {
        if a & 1 != 0 {
            r ^= b << shift;
        }
        a >>= 1;
        shift += 1;
    }
    r
}

/// Degree of a GF(2)\[x\] polynomial bitmask (0 for the zero polynomial).
#[must_use]
pub fn gf2_poly_deg(p: u64) -> u32 {
    if p == 0 {
        0
    } else {
        63 - p.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf16_tables() {
        let f = GF2m::new(4);
        assert_eq!(f.order(), 15);
        // alpha^4 = alpha + 1 for x^4 + x + 1.
        assert_eq!(f.alpha_pow(4), 0b0011);
        // Every nonzero element has an inverse.
        for x in 1..=15 {
            assert_eq!(f.mul(x, f.inv(x)), 1);
        }
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        let f = GF2m::new(5);
        for a in 0..32u32 {
            for b in 0..32u32 {
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in [3u32, 17, 29] {
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = GF2m::new(6);
        let a = 0b100101 & 0x3f;
        let mut acc = 1;
        for e in 0..10 {
            assert_eq!(f.pow(a, e), acc);
            acc = f.mul(acc, a);
        }
    }

    #[test]
    fn minimal_poly_of_alpha_is_primitive_poly() {
        for m in [3u32, 4, 5, 7, 8] {
            let f = GF2m::new(m);
            assert_eq!(f.minimal_poly(1), u64::from(PRIMITIVE_POLY[m as usize]));
        }
    }

    #[test]
    fn minimal_poly_annihilates_its_roots() {
        let f = GF2m::new(4);
        for i in 1..15 {
            let mp = f.minimal_poly(i);
            // Evaluate the GF(2)-coefficient polynomial at alpha^i.
            let coeffs: Vec<u32> = (0..=gf2_poly_deg(mp))
                .map(|k| ((mp >> k) & 1) as u32)
                .collect();
            assert_eq!(f.poly_eval(&coeffs, f.alpha_pow(i)), 0, "i={i}");
        }
    }

    #[test]
    fn poly_helpers() {
        // (x+1)(x+1) = x^2+1 over GF(2)
        assert_eq!(gf2_poly_mul(0b11, 0b11), 0b101);
        assert_eq!(gf2_poly_deg(0b101), 2);
    }
}
