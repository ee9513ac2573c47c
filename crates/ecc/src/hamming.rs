//! Hamming SEC and SECDED (extended Hamming) codes.
//!
//! [`Hamming`] corrects one bit error per codeword; [`Secded`] adds an
//! overall parity bit to additionally *detect* double errors — the
//! configuration used on commodity ECC DIMMs, e.g. (72,64) on the Table 2
//! rank's ninth chip. Both are linear, hence XOR-homomorphic, which is the
//! property §6.1 builds on.

use crate::code::LinearCode;

/// A shortened Hamming single-error-correcting code over `data_bits` data
/// bits with `r` check bits, where `2^r >= data_bits + r + 1`.
///
/// Check bit `j` covers every data position whose (1-based, check-skipping)
/// codeword index has bit `j` set — the classic Hamming construction,
/// shortened to the requested data length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hamming {
    data_bits: usize,
    r: usize,
    /// For each data bit, its (1-based) position in the unshortened
    /// codeword (positions that are powers of two hold check bits).
    data_pos: Vec<usize>,
}

impl Hamming {
    /// Creates a Hamming SEC code for `data_bits` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is zero.
    #[must_use]
    pub fn new(data_bits: usize) -> Self {
        assert!(data_bits > 0, "data_bits must be positive");
        let mut r = 2;
        while (1usize << r) < data_bits + r + 1 {
            r += 1;
        }
        let mut data_pos = Vec::with_capacity(data_bits);
        let mut pos = 1usize;
        while data_pos.len() < data_bits {
            if !pos.is_power_of_two() {
                data_pos.push(pos);
            }
            pos += 1;
        }
        Self {
            data_bits,
            r,
            data_pos,
        }
    }

    fn syndrome_value(&self, data: &[bool], checks: &[bool]) -> usize {
        let mut syn = 0usize;
        for (i, &d) in data.iter().enumerate() {
            if d {
                syn ^= self.data_pos[i];
            }
        }
        for (j, &c) in checks.iter().enumerate() {
            if c {
                syn ^= 1 << j;
            }
        }
        syn
    }
}

impl LinearCode for Hamming {
    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn check_bits(&self) -> usize {
        self.r
    }

    fn checks(&self, data: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits, "data length mismatch");
        let mut syn = 0usize;
        for (i, &d) in data.iter().enumerate() {
            if d {
                syn ^= self.data_pos[i];
            }
        }
        (0..self.r).map(|j| (syn >> j) & 1 == 1).collect()
    }

    fn syndrome(&self, data: &[bool], checks: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits, "data length mismatch");
        assert_eq!(checks.len(), self.r, "checks length mismatch");
        let syn = self.syndrome_value(data, checks);
        (0..self.r).map(|j| (syn >> j) & 1 == 1).collect()
    }

    fn correct(&self, data: &mut [bool], checks: &mut [bool]) -> Option<usize> {
        let syn = self.syndrome_value(data, checks);
        if syn == 0 {
            return Some(0);
        }
        if syn.is_power_of_two() {
            // Error in a check bit.
            let j = syn.trailing_zeros() as usize;
            checks[j] = !checks[j];
            return Some(1);
        }
        match self.data_pos.iter().position(|&p| p == syn) {
            Some(i) => {
                data[i] = !data[i];
                Some(1)
            }
            None => None, // syndrome points outside the shortened code
        }
    }

    fn correct_capability(&self) -> usize {
        1
    }
}

/// SECDED: Hamming plus one overall parity bit. Corrects single errors and
/// detects (without miscorrecting) double errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Secded {
    inner: Hamming,
}

impl Secded {
    /// Creates a SECDED code for `data_bits` data bits.
    #[must_use]
    pub fn new(data_bits: usize) -> Self {
        Self {
            inner: Hamming::new(data_bits),
        }
    }

    /// The canonical (72,64) DIMM code: 64 data bits, 8 check bits.
    #[must_use]
    pub fn secded_72_64() -> Self {
        let c = Self::new(64);
        debug_assert_eq!(c.check_bits(), 8);
        c
    }
}

impl LinearCode for Secded {
    fn data_bits(&self) -> usize {
        self.inner.data_bits()
    }

    fn check_bits(&self) -> usize {
        self.inner.check_bits() + 1
    }

    fn checks(&self, data: &[bool]) -> Vec<bool> {
        let mut ch = self.inner.checks(data);
        let total_parity = data.iter().chain(ch.iter()).fold(false, |a, &b| a ^ b);
        ch.push(total_parity);
        ch
    }

    fn syndrome(&self, data: &[bool], checks: &[bool]) -> Vec<bool> {
        assert_eq!(checks.len(), self.check_bits(), "checks length mismatch");
        let (h_checks, p) = checks.split_at(self.inner.check_bits());
        let mut syn = self.inner.syndrome(data, h_checks);
        let parity_all = data
            .iter()
            .chain(h_checks.iter())
            .fold(false, |a, &b| a ^ b)
            ^ p[0];
        syn.push(parity_all);
        syn
    }

    fn correct(&self, data: &mut [bool], checks: &mut [bool]) -> Option<usize> {
        let syn = self.syndrome(data, checks);
        let h_nonzero = syn[..syn.len() - 1].iter().any(|&s| s);
        let parity_fail = syn[syn.len() - 1];
        match (h_nonzero, parity_fail) {
            (false, false) => Some(0),
            (false, true) => {
                // Error in the overall parity bit itself.
                let last = checks.len() - 1;
                checks[last] = !checks[last];
                Some(1)
            }
            (true, true) => {
                // Single error: let the inner code fix it.
                let n = checks.len() - 1;
                self.inner.correct(data, &mut checks[..n])
            }
            (true, false) => None, // double error: detected, uncorrectable
        }
    }

    fn correct_capability(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h64_parameters() {
        let h = Hamming::new(64);
        assert_eq!(h.data_bits(), 64);
        assert_eq!(h.check_bits(), 7);
        let s = Secded::secded_72_64();
        assert_eq!(s.codeword_bits(), 72);
    }

    fn pattern(n: usize, stride: usize) -> Vec<bool> {
        (0..n).map(|i| i % stride == 0).collect()
    }

    #[test]
    fn corrects_every_single_data_error() {
        let h = Hamming::new(32);
        let data = pattern(32, 3);
        let checks = h.checks(&data);
        for i in 0..32 {
            let mut d = data.clone();
            let mut c = checks.clone();
            d[i] = !d[i];
            assert_eq!(h.correct(&mut d, &mut c), Some(1), "bit {i}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn corrects_every_single_check_error() {
        let h = Hamming::new(32);
        let data = pattern(32, 5);
        let checks = h.checks(&data);
        for j in 0..h.check_bits() {
            let mut d = data.clone();
            let mut c = checks.clone();
            c[j] = !c[j];
            assert_eq!(h.correct(&mut d, &mut c), Some(1), "check {j}");
            assert_eq!(c, checks);
        }
    }

    #[test]
    fn secded_detects_double_errors() {
        let s = Secded::new(64);
        let data = pattern(64, 7);
        let checks = s.checks(&data);
        for (i, j) in [(0usize, 1usize), (5, 40), (62, 63)] {
            let mut d = data.clone();
            let mut c = checks.clone();
            d[i] = !d[i];
            d[j] = !d[j];
            assert_eq!(s.correct(&mut d, &mut c), None, "pair {i},{j}");
        }
    }

    #[test]
    fn secded_corrects_single_and_parity_errors() {
        let s = Secded::new(16);
        let data = pattern(16, 2);
        let checks = s.checks(&data);
        // Data error.
        let mut d = data.clone();
        let mut c = checks.clone();
        d[9] = !d[9];
        assert_eq!(s.correct(&mut d, &mut c), Some(1));
        assert_eq!(d, data);
        // Overall-parity-bit error.
        let mut d = data.clone();
        let mut c = checks.clone();
        let last = c.len() - 1;
        c[last] = !c[last];
        assert_eq!(s.correct(&mut d, &mut c), Some(1));
        assert_eq!(c, checks);
    }

    #[test]
    fn xor_homomorphism_hamming() {
        let h = Hamming::new(24);
        let a = pattern(24, 3);
        let b = pattern(24, 4);
        let ab = crate::code::xor_bits(&a, &b);
        assert_eq!(
            h.checks(&ab),
            crate::code::xor_bits(&h.checks(&a), &h.checks(&b))
        );
    }

    #[test]
    fn xor_homomorphism_secded() {
        let s = Secded::secded_72_64();
        let a = pattern(64, 5);
        let b = pattern(64, 9);
        let ab = crate::code::xor_bits(&a, &b);
        assert_eq!(
            s.checks(&ab),
            crate::code::xor_bits(&s.checks(&a), &s.checks(&b))
        );
    }
}
