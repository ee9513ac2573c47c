//! Reed–Solomon codes over GF(2^8).
//!
//! §6.1 lists Reed–Solomon among the "commercially used ECCs …
//! homomorphic over XOR": RS codes are linear over their symbol field,
//! and since addition in GF(2^8) *is* bytewise XOR, the check symbols of
//! `a ⊕ b` equal the XOR of the check symbols of `a` and `b` — exactly
//! the property the CIM protection scheme needs. RS additionally
//! corrects *symbol* errors, so a burst of up to eight adjacent bit
//! flips (e.g. a column cluster hit by one bad TRA) costs only one unit
//! of correction capability.
//!
//! [`ReedSolomon`] is the symbol-level code (encode / syndromes /
//! Berlekamp–Massey / Chien / Forney); [`RsLinear`] adapts it to the
//! bit-level [`LinearCode`] trait used by the protection scheme.

use crate::code::LinearCode;
use crate::gf::GF2m;

/// A systematic Reed–Solomon code RS(n, k) over GF(2^8) with
/// `n = k + 2t ≤ 255`, correcting up to `t` symbol errors.
///
/// # Examples
///
/// ```
/// use c2m_ecc::ReedSolomon;
///
/// let rs = ReedSolomon::new(16, 2); // RS(20, 16), corrects 2 symbols
/// let data: Vec<u8> = (0..16).collect();
/// let mut cw = rs.encode(&data);
/// cw[3] ^= 0xFF; // an 8-bit burst is still just one symbol error
/// cw[12] ^= 0x01;
/// assert_eq!(rs.correct(&mut cw), Some(2));
/// assert_eq!(&cw[..16], &data[..]);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    gf: GF2m,
    k: usize,
    t: usize,
    /// Generator polynomial, lowest degree first, degree = 2t.
    gen: Vec<u32>,
}

impl ReedSolomon {
    /// Creates an RS code with `k` data symbols correcting `t` symbol
    /// errors (codeword length `k + 2t`).
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `k == 0` or `k + 2t > 255`.
    #[must_use]
    pub fn new(k: usize, t: usize) -> Self {
        assert!(t > 0, "t must be positive");
        assert!(k > 0, "k must be positive");
        assert!(k + 2 * t <= 255, "codeword exceeds GF(2^8) length");
        let gf = GF2m::new(8);
        // g(x) = Π_{i=1..2t} (x − α^i); build lowest-degree-first.
        let mut gen = vec![1u32];
        for i in 1..=(2 * t) as u32 {
            let root = gf.alpha_pow(i);
            let mut next = vec![0u32; gen.len() + 1];
            for (d, &c) in gen.iter().enumerate() {
                // Multiply by (x + root): c·x^{d+1} + c·root·x^d.
                next[d + 1] ^= c;
                next[d] ^= gf.mul(c, root);
            }
            gen = next;
        }
        Self { gf, k, t, gen }
    }

    /// Codeword length in symbols.
    #[must_use]
    pub fn n(&self) -> usize {
        self.k + 2 * self.t
    }

    /// Data symbols per codeword.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Symbol-error correction capability.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Computes the `2t` parity symbols for `data` (one byte per
    /// symbol, `data[0]` is the highest-degree coefficient).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    #[must_use]
    pub fn parity(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "expected {} data symbols", self.k);
        // Synthetic division of m(x)·x^{2t} by g(x); remainder is the
        // parity. Work highest-degree-first.
        let r = 2 * self.t;
        let mut rem = vec![0u32; r];
        for &d in data {
            let lead = u32::from(d) ^ rem[0];
            rem.rotate_left(1);
            rem[r - 1] = 0;
            if lead != 0 {
                for (j, slot) in rem.iter_mut().enumerate() {
                    // gen has degree r; gen[r] == 1. Coefficient of
                    // x^{r−1−j} in g is gen[r−1−j].
                    *slot ^= self.gf.mul(lead, self.gen[r - 1 - j]);
                }
            }
        }
        rem.iter().map(|&s| s as u8).collect()
    }

    /// Builds the full systematic codeword `data ‖ parity`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    #[must_use]
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = data.to_vec();
        cw.extend(self.parity(data));
        cw
    }

    /// Computes the `2t` syndromes of a received codeword. All zero
    /// means consistent.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != n`.
    #[must_use]
    pub fn syndromes(&self, received: &[u8]) -> Vec<u32> {
        assert_eq!(received.len(), self.n(), "expected {} symbols", self.n());
        (1..=(2 * self.t) as u32)
            .map(|i| {
                let x = self.gf.alpha_pow(i);
                // Horner over highest-degree-first coefficients.
                received
                    .iter()
                    .fold(0u32, |acc, &c| self.gf.mul(acc, x) ^ u32::from(c))
            })
            .collect()
    }

    /// Decodes in place. Returns the number of symbols corrected, or
    /// `None` if more than `t` symbol errors were detected.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != n`.
    pub fn correct(&self, received: &mut [u8]) -> Option<usize> {
        let syn = self.syndromes(received);
        if syn.iter().all(|&s| s == 0) {
            return Some(0);
        }
        let lambda = self.berlekamp_massey(&syn);
        let errors = lambda.len() - 1;
        if errors > self.t {
            return None;
        }
        let positions = self.chien(&lambda);
        if positions.len() != errors {
            return None; // locator polynomial has non-field roots
        }
        let omega = self.error_evaluator(&syn, &lambda);
        for &pos in &positions {
            let magnitude = self.forney(&lambda, &omega, pos);
            received[pos] ^= magnitude as u8;
        }
        // A consistent result confirms the correction.
        if self.syndromes(received).iter().all(|&s| s == 0) {
            Some(positions.len())
        } else {
            None
        }
    }

    /// Berlekamp–Massey: the minimal error-locator polynomial Λ(x)
    /// (lowest degree first, Λ(0) = 1).
    fn berlekamp_massey(&self, syn: &[u32]) -> Vec<u32> {
        let mut lambda = vec![1u32];
        let mut prev = vec![1u32];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u32;
        for n in 0..syn.len() {
            let mut delta = syn[n];
            for i in 1..=l {
                if i < lambda.len() {
                    delta ^= self.gf.mul(lambda[i], syn[n - i]);
                }
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= n {
                let tmp = lambda.clone();
                let scale = self.gf.div(delta, b);
                lambda = self.poly_sub_scaled(&lambda, &prev, scale, m);
                l = n + 1 - l;
                prev = tmp;
                b = delta;
                m = 1;
            } else {
                let scale = self.gf.div(delta, b);
                lambda = self.poly_sub_scaled(&lambda, &prev, scale, m);
                m += 1;
            }
        }
        lambda.truncate(l + 1);
        lambda
    }

    /// `lambda − scale·x^shift·prev` (over GF(2^8), subtraction = XOR).
    fn poly_sub_scaled(&self, lambda: &[u32], prev: &[u32], scale: u32, shift: usize) -> Vec<u32> {
        let mut out = lambda.to_vec();
        if out.len() < prev.len() + shift {
            out.resize(prev.len() + shift, 0);
        }
        for (i, &p) in prev.iter().enumerate() {
            out[i + shift] ^= self.gf.mul(scale, p);
        }
        out
    }

    /// Chien search: positions (codeword indices) whose locators are
    /// roots of Λ.
    fn chien(&self, lambda: &[u32]) -> Vec<usize> {
        let n = self.n();
        let mut positions = Vec::new();
        for pos in 0..n {
            // Symbol at index `pos` has locator X = α^{n−1−pos}; it is
            // in error iff Λ(X^{-1}) = 0.
            let exp = (n - 1 - pos) as u32;
            let x_inv = self.gf.inv(self.gf.alpha_pow(exp));
            if self.gf.poly_eval(lambda, x_inv) == 0 {
                positions.push(pos);
            }
        }
        positions
    }

    /// Error-evaluator Ω(x) = S(x)·Λ(x) mod x^{2t}.
    fn error_evaluator(&self, syn: &[u32], lambda: &[u32]) -> Vec<u32> {
        let r = 2 * self.t;
        let mut omega = vec![0u32; r];
        for (i, &s) in syn.iter().enumerate() {
            for (j, &l) in lambda.iter().enumerate() {
                if i + j < r {
                    omega[i + j] ^= self.gf.mul(s, l);
                }
            }
        }
        omega
    }

    /// Forney's formula for the error magnitude at codeword index `pos`.
    fn forney(&self, lambda: &[u32], omega: &[u32], pos: usize) -> u32 {
        let n = self.n();
        let exp = (n - 1 - pos) as u32;
        let x_inv = self.gf.inv(self.gf.alpha_pow(exp));
        // Λ'(x): formal derivative — odd-degree terms shifted down.
        let mut deriv = 0u32;
        let mut i = 1;
        while i < lambda.len() {
            deriv ^= self.gf.mul(lambda[i], self.gf.pow(x_inv, (i - 1) as u32));
            i += 2;
        }
        let num = self.gf.poly_eval(omega, x_inv);
        // With the first consecutive root at b = 1 and S(x) = Σ S_{i+1}·xⁱ,
        // the magnitude is Ω(X^{-1}) / Λ'(X^{-1}) (no X^{1−b} factor).
        self.gf.div(num, deriv)
    }
}

/// Bit-level [`LinearCode`] adapter around [`ReedSolomon`]: `k` data
/// symbols become `8k` data bits, `2t` parity symbols become `16t`
/// check bits.
#[derive(Debug, Clone)]
pub struct RsLinear {
    rs: ReedSolomon,
}

impl RsLinear {
    /// Wraps RS(k + 2t, k) over GF(2^8) as a bit-level code.
    #[must_use]
    pub fn new(k_symbols: usize, t: usize) -> Self {
        Self {
            rs: ReedSolomon::new(k_symbols, t),
        }
    }

    /// The underlying symbol-level code.
    #[must_use]
    pub fn inner(&self) -> &ReedSolomon {
        &self.rs
    }

    fn pack(bits: &[bool]) -> Vec<u8> {
        bits.chunks(8)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i))
            })
            .collect()
    }

    fn unpack(bytes: &[u8], bits: &mut [bool]) {
        for (i, b) in bits.iter_mut().enumerate() {
            *b = (bytes[i / 8] >> (i % 8)) & 1 == 1;
        }
    }
}

impl LinearCode for RsLinear {
    fn data_bits(&self) -> usize {
        self.rs.k() * 8
    }

    fn check_bits(&self) -> usize {
        self.rs.t() * 16
    }

    fn checks(&self, data: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits(), "wrong data length");
        let parity = self.rs.parity(&Self::pack(data));
        let mut out = vec![false; self.check_bits()];
        Self::unpack(&parity, &mut out);
        out
    }

    fn syndrome(&self, data: &[bool], checks: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits(), "wrong data length");
        assert_eq!(checks.len(), self.check_bits(), "wrong check length");
        let mut cw = Self::pack(data);
        cw.extend(Self::pack(checks));
        let syn = self.rs.syndromes(&cw);
        let mut out = vec![false; self.check_bits()];
        for (i, &s) in syn.iter().enumerate() {
            for b in 0..8 {
                out[i * 8 + b] = (s >> b) & 1 == 1;
            }
        }
        out
    }

    fn correct(&self, data: &mut [bool], checks: &mut [bool]) -> Option<usize> {
        let mut cw = Self::pack(data);
        cw.extend(Self::pack(checks));
        let fixed = self.rs.correct(&mut cw)?;
        Self::unpack(&cw[..self.rs.k()], data);
        Self::unpack(&cw[self.rs.k()..], checks);
        Some(fixed)
    }

    fn correct_capability(&self) -> usize {
        // Per-symbol capability: a single bit error always falls within
        // one symbol, so bit-level capability is at least t.
        self.rs.t()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::xor_bits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(k: usize, rng: &mut StdRng) -> Vec<u8> {
        (0..k).map(|_| rng.gen()).collect()
    }

    #[test]
    fn roundtrip_without_errors() {
        let rs = ReedSolomon::new(16, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let data = random_data(16, &mut rng);
            let mut cw = rs.encode(&data);
            assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
            assert_eq!(rs.correct(&mut cw), Some(0));
            assert_eq!(&cw[..16], &data[..]);
        }
    }

    #[test]
    fn corrects_up_to_t_symbol_errors() {
        let rs = ReedSolomon::new(20, 3);
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..100 {
            let data = random_data(20, &mut rng);
            let clean = rs.encode(&data);
            let mut cw = clean.clone();
            let n_err = rng.gen_range(1..=3);
            let mut hit = std::collections::BTreeSet::new();
            for _ in 0..n_err {
                let pos = loop {
                    let p = rng.gen_range(0..cw.len());
                    if hit.insert(p) {
                        break p;
                    }
                };
                let flip: u8 = rng.gen_range(1..=255);
                cw[pos] ^= flip;
            }
            let fixed = rs.correct(&mut cw);
            assert_eq!(fixed, Some(n_err), "trial {trial}");
            assert_eq!(cw, clean, "trial {trial}");
        }
    }

    #[test]
    fn burst_of_bit_errors_in_one_symbol_costs_one() {
        let rs = ReedSolomon::new(16, 1);
        let data: Vec<u8> = (0..16).collect();
        let clean = rs.encode(&data);
        let mut cw = clean.clone();
        cw[5] ^= 0xFF; // all eight bits of one symbol
        assert_eq!(rs.correct(&mut cw), Some(1));
        assert_eq!(cw, clean);
    }

    #[test]
    fn more_than_t_errors_not_silently_miscorrected_to_wrong_data() {
        // With > t errors RS may fail (None) or, rarely, decode to a
        // *valid* codeword; it must never return Some with an
        // inconsistent word.
        let rs = ReedSolomon::new(10, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let data = random_data(10, &mut rng);
            let mut cw = rs.encode(&data);
            for _ in 0..5 {
                let pos = rng.gen_range(0..cw.len());
                cw[pos] ^= rng.gen_range(1..=255u8);
            }
            if rs.correct(&mut cw).is_some() {
                assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
            }
        }
    }

    #[test]
    fn parity_is_xor_homomorphic() {
        // GF(2^8) addition is XOR, so parity(a ⊕ b) = parity(a) ⊕ parity(b).
        let rs = ReedSolomon::new(32, 2);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let a = random_data(32, &mut rng);
            let b = random_data(32, &mut rng);
            let ab: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
            let pa = rs.parity(&a);
            let pb = rs.parity(&b);
            let pab = rs.parity(&ab);
            let expect: Vec<u8> = pa.iter().zip(&pb).map(|(&x, &y)| x ^ y).collect();
            assert_eq!(pab, expect);
        }
    }

    #[test]
    fn linear_adapter_roundtrip_and_homomorphism() {
        let code = RsLinear::new(8, 2);
        assert_eq!(code.data_bits(), 64);
        assert_eq!(code.check_bits(), 32);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let a: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
            let b: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
            let ca = code.checks(&a);
            let cb = code.checks(&b);
            let cab = code.checks(&xor_bits(&a, &b));
            assert_eq!(cab, xor_bits(&ca, &cb));
            assert!(code.is_consistent(&a, &ca));
        }
    }

    #[test]
    fn linear_adapter_corrects_bit_errors() {
        let code = RsLinear::new(8, 2);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let data: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
            let checks = code.checks(&data);
            let mut d = data.clone();
            let mut c = checks.clone();
            // Two bit errors in different symbols.
            d[3] = !d[3];
            d[40] = !d[40];
            let fixed = code.correct(&mut d, &mut c);
            assert_eq!(fixed, Some(2));
            assert_eq!(d, data);
            assert_eq!(c, checks);
        }
    }

    #[test]
    fn syndrome_detects_any_single_bit_error() {
        let code = RsLinear::new(4, 1);
        let data: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let checks = code.checks(&data);
        for i in 0..32 {
            let mut d = data.clone();
            d[i] = !d[i];
            assert!(!code.is_consistent(&d, &checks), "bit {i} undetected");
        }
    }

    #[test]
    #[should_panic(expected = "codeword exceeds")]
    fn oversized_code_panics() {
        let _ = ReedSolomon::new(250, 4);
    }

    #[test]
    fn generator_has_expected_degree_and_roots() {
        let rs = ReedSolomon::new(16, 3);
        // g has degree 2t and α^1..α^2t as roots.
        let gf = GF2m::new(8);
        for i in 1..=6u32 {
            let x = gf.alpha_pow(i);
            let val = rs.gen.iter().rev().fold(0u32, |acc, &c| gf.mul(acc, x) ^ c);
            assert_eq!(val, 0, "α^{i} is not a root");
        }
    }
}
