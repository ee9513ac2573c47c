//! Binary BCH codes with Berlekamp–Massey decoding.
//!
//! BCH codes are among the XOR-homomorphic codes the paper lists as usable
//! for its protection scheme (§6.1, abstract). This module implements
//! systematic binary BCH over GF(2^m): the generator polynomial is the LCM
//! of the minimal polynomials of α…α^{2t}; decoding computes syndromes,
//! runs Berlekamp–Massey to obtain the error-locator polynomial, and
//! locates errors by Chien search. Shortening to an arbitrary data length
//! is supported (leading data bits fixed to zero).

use crate::code::LinearCode;
use crate::gf::{gf2_poly_deg, gf2_poly_mul, GF2m};

/// A (possibly shortened) binary BCH code correcting up to `t` errors.
#[derive(Debug, Clone)]
pub struct Bch {
    field: GF2m,
    t: usize,
    /// Full code length n = 2^m − 1.
    n: usize,
    /// Check bit count = deg(g).
    n_minus_k: usize,
    /// Data bits after shortening.
    data_bits: usize,
    /// Generator polynomial as a GF(2) bitmask.
    gen: u64,
}

impl Bch {
    /// Constructs a BCH code over GF(2^m) correcting `t` errors, shortened
    /// to `data_bits` data bits.
    ///
    /// # Panics
    ///
    /// Panics if the requested `data_bits` exceeds the code dimension k,
    /// if `t` is zero, or if parameters produce deg(g) ≥ 64 (unsupported
    /// by the bitmask representation).
    #[must_use]
    pub fn new(m: u32, t: usize, data_bits: usize) -> Self {
        assert!(t >= 1, "t must be at least 1");
        let field = GF2m::new(m);
        let n = field.order() as usize;
        // g(x) = lcm of minimal polynomials of alpha^1 .. alpha^{2t}.
        let mut gen: u64 = 1;
        let mut included: Vec<u64> = Vec::new();
        for i in 1..=(2 * t as u32) {
            let mp = field.minimal_poly(i);
            if !included.contains(&mp) {
                included.push(mp);
                assert!(
                    gf2_poly_deg(gen) + gf2_poly_deg(mp) < 64,
                    "generator polynomial too large for u64 representation"
                );
                gen = gf2_poly_mul(gen, mp);
            }
        }
        let n_minus_k = gf2_poly_deg(gen) as usize;
        let k = n - n_minus_k;
        assert!(
            data_bits >= 1 && data_bits <= k,
            "data_bits {data_bits} out of range 1..={k} for BCH(n={n}, t={t})"
        );
        Self {
            field,
            t,
            n,
            n_minus_k,
            data_bits,
            gen,
        }
    }

    /// A DIMM-scale double-error-correcting code: BCH over GF(2^7)
    /// (n = 127), t = 2, shortened to 64 data bits.
    #[must_use]
    pub fn bch_127_t2_64() -> Self {
        Self::new(7, 2, 64)
    }

    /// Error-correction capability t.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Packs `(data, checks)` into the unshortened codeword polynomial
    /// bit-vector of length n: data occupies the high positions
    /// (systematic), checks the low `n_minus_k` positions, shortened
    /// positions are zero.
    fn assemble(&self, data: &[bool], checks: &[bool]) -> Vec<bool> {
        let mut cw = vec![false; self.n];
        for (i, &c) in checks.iter().enumerate() {
            cw[i] = c;
        }
        for (i, &d) in data.iter().enumerate() {
            cw[self.n_minus_k + i] = d;
        }
        cw
    }

    /// Computes the 2t syndromes S_j = r(α^j).
    fn syndromes(&self, cw: &[bool]) -> Vec<u32> {
        (1..=2 * self.t as u32)
            .map(|j| {
                let mut s = 0u32;
                for (pos, &bit) in cw.iter().enumerate() {
                    if bit {
                        s ^= self.field.alpha_pow(j * pos as u32);
                    }
                }
                s
            })
            .collect()
    }

    /// Berlekamp–Massey: returns the error-locator polynomial σ
    /// (coefficients in GF(2^m), low-degree first, σ[0] = 1).
    fn berlekamp_massey(&self, syn: &[u32]) -> Vec<u32> {
        let f = &self.field;
        let mut sigma = vec![1u32];
        let mut b = vec![1u32];
        let mut l = 0usize;
        let mut m_gap = 1usize;
        let mut bb = 1u32;
        for (i, _) in syn.iter().enumerate() {
            // Discrepancy d = S_i + sum sigma[j] * S_{i-j}.
            let mut d = syn[i];
            for j in 1..=l {
                if j < sigma.len() && i >= j {
                    d = f.add(d, f.mul(sigma[j], syn[i - j]));
                }
            }
            if d == 0 {
                m_gap += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                let coef = f.div(d, bb);
                let shift = m_gap;
                if sigma.len() < b.len() + shift {
                    sigma.resize(b.len() + shift, 0);
                }
                for (j, &bj) in b.iter().enumerate() {
                    sigma[j + shift] = f.add(sigma[j + shift], f.mul(coef, bj));
                }
                l = i + 1 - l;
                b = temp;
                bb = d;
                m_gap = 1;
            } else {
                let coef = f.div(d, bb);
                let shift = m_gap;
                if sigma.len() < b.len() + shift {
                    sigma.resize(b.len() + shift, 0);
                }
                for (j, &bj) in b.iter().enumerate() {
                    sigma[j + shift] = f.add(sigma[j + shift], f.mul(coef, bj));
                }
                m_gap += 1;
            }
        }
        while sigma.last() == Some(&0) && sigma.len() > 1 {
            sigma.pop();
        }
        sigma
    }

    /// Chien search: positions p (0-based codeword indices) where the
    /// locator has a root α^{-p}.
    fn chien(&self, sigma: &[u32]) -> Vec<usize> {
        let f = &self.field;
        let mut out = Vec::new();
        for p in 0..self.n as u32 {
            // Evaluate sigma at alpha^{-p}.
            let x = f.alpha_pow(f.order() - (p % f.order()));
            if f.poly_eval(sigma, x) == 0 {
                out.push(p as usize);
            }
        }
        out
    }
}

impl LinearCode for Bch {
    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn check_bits(&self) -> usize {
        self.n_minus_k
    }

    fn checks(&self, data: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits, "data length mismatch");
        // Systematic encoding: remainder of x^{n-k} d(x) mod g(x).
        // Data bit i sits at codeword position n_minus_k + i.
        let mut rem = 0u64;
        // Compute remainder by summing x^{pos} mod g for set bits; since
        // positions can exceed 63, reduce incrementally: process data from
        // high position down with Horner-like shifting.
        // Simpler: polynomial long division on the bit vector.
        let deg_g = self.n_minus_k;
        let mut acc = vec![false; self.data_bits + deg_g];
        for (i, &d) in data.iter().enumerate() {
            acc[deg_g + i] = d;
        }
        for pos in (deg_g..acc.len()).rev() {
            if acc[pos] {
                for j in 0..=deg_g {
                    if (self.gen >> j) & 1 == 1 {
                        acc[pos - deg_g + j] ^= true;
                    }
                }
            }
        }
        for (j, a) in acc.iter().take(deg_g).enumerate() {
            if *a {
                rem |= 1 << j;
            }
        }
        (0..deg_g).map(|j| (rem >> j) & 1 == 1).collect()
    }

    fn syndrome(&self, data: &[bool], checks: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits, "data length mismatch");
        assert_eq!(checks.len(), self.n_minus_k, "checks length mismatch");
        let cw = self.assemble(data, checks);
        let syn = self.syndromes(&cw);
        // Flatten field-element syndromes to a bit vector (m bits each).
        let m = self.field.m();
        let mut bits = Vec::with_capacity(syn.len() * m as usize);
        for s in syn {
            for j in 0..m {
                bits.push((s >> j) & 1 == 1);
            }
        }
        bits
    }

    fn correct(&self, data: &mut [bool], checks: &mut [bool]) -> Option<usize> {
        let cw = self.assemble(data, checks);
        let syn = self.syndromes(&cw);
        if syn.iter().all(|&s| s == 0) {
            return Some(0);
        }
        let sigma = self.berlekamp_massey(&syn);
        let errors = sigma.len() - 1;
        if errors == 0 || errors > self.t {
            return None;
        }
        let roots = self.chien(&sigma);
        if roots.len() != errors {
            return None; // locator does not split: > t errors
        }
        let mut corrected = 0usize;
        for p in roots {
            if p < self.n_minus_k {
                checks[p] = !checks[p];
            } else if p - self.n_minus_k < self.data_bits {
                data[p - self.n_minus_k] = !data[p - self.n_minus_k];
            } else {
                return None; // error located in a shortened (zero) position
            }
            corrected += 1;
        }
        // Verify.
        let cw2 = self.assemble(data, checks);
        if self.syndromes(&cw2).iter().all(|&s| s == 0) {
            Some(corrected)
        } else {
            None
        }
    }

    fn correct_capability(&self) -> usize {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, stride: usize) -> Vec<bool> {
        (0..n).map(|i| i % stride == 0).collect()
    }

    #[test]
    fn bch_15_7_parameters() {
        let c = Bch::new(4, 2, 7);
        assert_eq!(c.n, 15);
        assert_eq!(c.check_bits(), 8);
        assert_eq!(c.t(), 2);
    }

    #[test]
    fn roundtrip_no_errors() {
        let c = Bch::new(4, 2, 7);
        let data = pattern(7, 2);
        let checks = c.checks(&data);
        assert!(c.is_consistent(&data, &checks));
    }

    #[test]
    fn corrects_all_single_and_double_errors_bch15() {
        let c = Bch::new(4, 2, 7);
        let data = pattern(7, 3);
        let checks = c.checks(&data);
        let n_total = 7 + c.check_bits();
        for i in 0..n_total {
            for j in (i + 1)..=n_total {
                let mut d = data.clone();
                let mut ch = checks.clone();
                let flip = |pos: usize, d: &mut Vec<bool>, ch: &mut Vec<bool>| {
                    if pos < 7 {
                        d[pos] = !d[pos];
                    } else {
                        ch[pos - 7] = !ch[pos - 7];
                    }
                };
                flip(i, &mut d, &mut ch);
                let expect = if j == n_total { 1 } else { 2 }; // j==n_total: single
                if j < n_total {
                    flip(j, &mut d, &mut ch);
                }
                let got = c.correct(&mut d, &mut ch);
                assert_eq!(got, Some(expect), "errors at {i},{j}");
                assert_eq!(d, data);
                assert_eq!(ch, checks);
            }
        }
    }

    #[test]
    fn triple_errors_not_miscorrected_silently() {
        // A t=2 code given 3 errors must either report failure or at least
        // not claim success with wrong data... BCH can miscorrect to a
        // different codeword; we only require it never panics and that a
        // returned Some() leaves a consistent codeword.
        let c = Bch::new(4, 2, 7);
        let data = pattern(7, 2);
        let checks = c.checks(&data);
        let mut d = data.clone();
        let mut ch = checks.clone();
        d[0] = !d[0];
        d[3] = !d[3];
        ch[2] = !ch[2];
        if c.correct(&mut d, &mut ch).is_some() {
            assert!(c.is_consistent(&d, &ch));
        }
    }

    #[test]
    fn bch_127_t2_corrects_double_errors_in_64_data_bits() {
        let c = Bch::bch_127_t2_64();
        assert_eq!(c.data_bits(), 64);
        let data = pattern(64, 5);
        let checks = c.checks(&data);
        for (i, j) in [(0usize, 1usize), (10, 50), (62, 63), (5, 40)] {
            let mut d = data.clone();
            let mut ch = checks.clone();
            d[i] = !d[i];
            d[j] = !d[j];
            assert_eq!(c.correct(&mut d, &mut ch), Some(2), "pair {i},{j}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn bch_t3_corrects_triple_errors() {
        // A t=3 code over GF(2^7): 21 check bits, shortened to 32 data.
        let c = Bch::new(7, 3, 32);
        assert_eq!(c.correct_capability(), 3);
        let data = pattern(32, 3);
        let checks = c.checks(&data);
        for (i, j, k) in [(0usize, 5usize, 20usize), (1, 2, 31), (10, 11, 12)] {
            let mut d = data.clone();
            let mut ch = checks.clone();
            d[i] = !d[i];
            d[j] = !d[j];
            d[k] = !d[k];
            assert_eq!(c.correct(&mut d, &mut ch), Some(3), "triple {i},{j},{k}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn xor_homomorphism_bch() {
        let c = Bch::bch_127_t2_64();
        let a = pattern(64, 3);
        let b = pattern(64, 7);
        let ab = crate::code::xor_bits(&a, &b);
        assert_eq!(
            c.checks(&ab),
            crate::code::xor_bits(&c.checks(&a), &c.checks(&b))
        );
    }

    #[test]
    fn shortened_code_rejects_out_of_range_data_bits() {
        // BCH(15, k=7): asking for more than 7 data bits must panic.
        let result = std::panic::catch_unwind(|| Bch::new(4, 2, 8));
        assert!(result.is_err());
    }
}
