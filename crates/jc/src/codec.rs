//! Johnson-counter state encoding and arithmetic (§2.4).
//!
//! An n-bit Johnson counter cycles through 2n states with single-bit
//! transitions. With bit 0 the LSB, the paper's 5-bit example runs
//! `10000(1) → 11000(2) → … → 11111(5) → 01111(6) → … → 00001(9) →
//! 00000(0)`: values 1..=n fill ones from the LSB; values n+1..2n−1 drain
//! ones from the LSB; the all-zero state is value 0.

use serde::{Deserialize, Serialize};

/// Codec for an n-bit Johnson counter representing one radix-2n digit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JohnsonCode {
    n: usize,
}

impl JohnsonCode {
    /// The largest supported radix: a 32-bit counter.
    pub const MAX_RADIX: usize = 64;

    /// Creates a codec for `n`-bit counters (radix `2n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 32.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=Self::MAX_RADIX / 2).contains(&n),
            "JC width must be 1..=32 bits"
        );
        Self { n }
    }

    /// Codec for the radix `r` digit (`r` must be even; `n = r/2`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is odd or out of range.
    #[must_use]
    pub fn for_radix(r: usize) -> Self {
        assert!(
            r >= 2 && r.is_multiple_of(2),
            "JC radix must be even and >= 2"
        );
        Self::new(r / 2)
    }

    /// Bits per digit.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.n
    }

    /// The radix (2n distinct states).
    #[must_use]
    pub fn radix(&self) -> usize {
        2 * self.n
    }

    /// Encodes `value` (reduced mod the radix) as a bit pattern; bit `i`
    /// of the result is counter bit `i` (LSB = bit 0).
    #[must_use]
    pub fn encode(&self, value: usize) -> u64 {
        let v = value % self.radix();
        let mut bits = 0u64;
        for i in 0..self.n {
            if self.bit(v, i) {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// Value of bit `i` in the encoding of `v` (no reduction).
    #[must_use]
    pub fn bit(&self, v: usize, i: usize) -> bool {
        debug_assert!(v < self.radix() && i < self.n);
        if v == 0 {
            false
        } else if v <= self.n {
            i < v
        } else {
            i >= v - self.n
        }
    }

    /// Decodes a bit pattern back to its value, or `None` if the pattern
    /// is not a valid Johnson state (e.g. after an uncorrected fault).
    #[must_use]
    pub fn decode(&self, bits: u64) -> Option<usize> {
        let masked = bits & ((1u64 << self.n) - 1);
        (0..self.radix()).find(|&v| self.encode(v) == masked)
    }

    /// Decodes a possibly-corrupt pattern to the *nearest* valid state by
    /// Hamming distance (used to quantify fault impact: a single bitflip
    /// in a JC decodes within two states of the original — the "minimal
    /// transitional error" property of §2.4, versus an unbounded
    /// positional error for a binary counter).
    #[must_use]
    pub fn decode_nearest(&self, bits: u64) -> usize {
        let mask = (1u64 << self.n) - 1;
        let bits = bits & mask;
        (0..self.radix())
            .min_by_key(|&v| (self.encode(v) ^ bits).count_ones())
            .expect("radix is positive")
    }

    /// The MSB (bit n−1) of the encoding of `v` — set for values in
    /// `n..2n`, clear for `0..n`. Overflow is an MSB 1→0 transition.
    #[must_use]
    pub fn msb(&self, v: usize) -> bool {
        self.bit(v, self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_sequence_radix10() {
        // §2.4: 10000(1) → 11000(2) → 11111(5) → 01111(6) → 00001(9) → 0.
        let c = JohnsonCode::new(5);
        assert_eq!(c.encode(0), 0b00000);
        assert_eq!(c.encode(1), 0b00001); // LSB-first: "10000" in paper order
        assert_eq!(c.encode(2), 0b00011);
        assert_eq!(c.encode(5), 0b11111);
        assert_eq!(c.encode(6), 0b11110);
        assert_eq!(c.encode(9), 0b10000);
    }

    #[test]
    fn single_bit_transitions() {
        for n in 1..=8 {
            let c = JohnsonCode::new(n);
            for v in 0..c.radix() {
                let next = (v + 1) % c.radix();
                let d = (c.encode(v) ^ c.encode(next)).count_ones();
                assert_eq!(d, 1, "n={n}, {v}->{next} is not a 1-bit transition");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for n in 1..=10 {
            let c = JohnsonCode::new(n);
            for v in 0..c.radix() {
                assert_eq!(c.decode(c.encode(v)), Some(v), "n={n}, v={v}");
            }
        }
    }

    #[test]
    fn invalid_patterns_decode_to_none() {
        let c = JohnsonCode::new(5);
        // 10100 (gap in the ones run) is not a Johnson state.
        assert_eq!(c.decode(0b00101), None);
        assert_eq!(c.decode(0b01001), None);
    }

    #[test]
    fn msb_tracks_upper_half() {
        let c = JohnsonCode::new(5);
        for v in 0..10 {
            assert_eq!(c.msb(v), (5..10).contains(&v), "v={v}");
        }
    }

    #[test]
    fn nearest_decode_of_single_fault_stays_local() {
        // §2.4's minimal-transitional-error property: a single bitflip
        // decodes to a state at most two positions away (boundary flips
        // land one away; interior flips create a tie between the original
        // and a state two away).
        let c = JohnsonCode::new(5);
        for v in 0..10usize {
            for bit in 0..5 {
                let corrupt = c.encode(v) ^ (1 << bit);
                let near = c.decode_nearest(corrupt);
                let dist = (v as i64 - near as i64)
                    .rem_euclid(10)
                    .min((near as i64 - v as i64).rem_euclid(10));
                assert!(dist <= 2, "v={v} bit={bit} near={near}");
            }
        }
    }

    #[test]
    fn for_radix_constructor() {
        assert_eq!(JohnsonCode::for_radix(10).bits(), 5);
        assert_eq!(JohnsonCode::for_radix(4).bits(), 2);
        assert_eq!(JohnsonCode::for_radix(4).radix(), 4);
    }

    proptest! {
        #[test]
        fn decode_nearest_is_identity_on_valid_states(
            n in 1usize..=12, v in 0usize..64
        ) {
            let c = JohnsonCode::new(n);
            let v = v % c.radix();
            prop_assert_eq!(c.decode_nearest(c.encode(v)), v);
        }
    }
}
