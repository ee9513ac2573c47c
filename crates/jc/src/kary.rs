//! Variable-step (k-ary) Johnson-counter transitions — Algorithm 1.
//!
//! §4.5.1: an increment by any `k` in `1..2n` costs the same number of
//! CIM steps as a unit increment; only the shift pattern differs (Fig. 7).
//! Every output bit is produced by the masked selection
//! `b'_i = (m̄ ∧ b_i) ∨ (m ∧ s_i)` where the source `s_i` is some counter
//! bit, possibly inverted — forward shifts take it upright, inverted
//! feedback takes the complement. Decrements reuse the machinery with the
//! complementary step (`2n − k`) and the underflow rule of §4.4.

use serde::{Deserialize, Serialize};

/// Where output bit `i` of a transition takes its value from (in masked
/// columns): counter bit `src`, inverted if `invert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSource {
    /// Source bit index (0 = LSB).
    pub src: usize,
    /// Whether the source passes through the inverted feedback path.
    pub invert: bool,
}

/// How the overflow/underflow flag is computed for a transition
/// (Algorithm 1 lines 6 and 13 and their decrement duals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlagRule {
    /// Increment with `k ≤ n`: `O' = O ∨ (MSB ∧ ¬MSB')`
    /// (MSB falling edge; unmasked columns never fire).
    IncSmall,
    /// Increment with `k > n`: `O' = O ∨ ((MSB ∨ ¬MSB') ∧ m)`.
    IncLarge,
    /// Decrement with `k ≤ n`: `O' = O ∨ (¬MSB ∧ MSB')` (rising edge).
    DecSmall,
    /// Decrement with `k > n`: `O' = O ∨ ((¬MSB ∨ MSB') ∧ m)`.
    DecLarge,
}

/// A complete k-ary transition: per-bit sources plus the flag rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionPattern {
    n: usize,
    k: usize,
    decrement: bool,
    sources: Vec<BitSource>,
    flag: FlagRule,
}

impl TransitionPattern {
    /// Builds the increment-by-`k` pattern for an `n`-bit JC
    /// (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k < 2n`.
    #[must_use]
    pub fn increment(n: usize, k: usize) -> Self {
        assert!(n >= 1, "counter width must be positive");
        assert!((1..2 * n).contains(&k), "k must be in 1..2n");
        let (sources, flag) = Self::build(n, k);
        Self {
            n,
            k,
            decrement: false,
            sources,
            flag,
        }
    }

    /// Builds the decrement-by-`k` pattern: bit movement of an increment
    /// by `2n − k` with the underflow flag rule of §4.4.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k < 2n`.
    #[must_use]
    pub fn decrement(n: usize, k: usize) -> Self {
        assert!((1..2 * n).contains(&k), "k must be in 1..2n");
        let (sources, _) = Self::build(n, 2 * n - k);
        let flag = if k <= n {
            FlagRule::DecSmall
        } else {
            FlagRule::DecLarge
        };
        Self {
            n,
            k,
            decrement: true,
            sources,
            flag,
        }
    }

    fn build(n: usize, k: usize) -> (Vec<BitSource>, FlagRule) {
        let mut sources = vec![
            BitSource {
                src: 0,
                invert: false
            };
            n
        ];
        if k <= n {
            // Forward shifts (Alg. 1 line 3): b'_i <- b_{i-k}, i = n-1..k.
            for (i, source) in sources.iter_mut().enumerate().take(n).skip(k) {
                *source = BitSource {
                    src: i - k,
                    invert: false,
                };
            }
            // Inverted feedback (line 5): b'_i <- !b_{n-k+i}, i = 0..k.
            for (i, source) in sources.iter_mut().enumerate().take(k) {
                *source = BitSource {
                    src: n - k + i,
                    invert: true,
                };
            }
            (sources, FlagRule::IncSmall)
        } else {
            let kk = k - n; // line 8
                            // Inverted feedback (line 10): b'_i <- !b_{i-kk}, i = n-1..kk.
            for (i, source) in sources.iter_mut().enumerate().take(n).skip(kk) {
                *source = BitSource {
                    src: i - kk,
                    invert: true,
                };
            }
            // Forward shifts (line 12): b'_i <- b_{n-kk+i}, i = 0..kk.
            for (i, source) in sources.iter_mut().enumerate().take(kk) {
                *source = BitSource {
                    src: n - kk + i,
                    invert: false,
                };
            }
            (sources, FlagRule::IncLarge)
        }
    }

    /// Counter width in bits.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The step amount.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-bit sources (index = destination bit).
    #[must_use]
    pub fn sources(&self) -> &[BitSource] {
        &self.sources
    }

    /// The flag (overflow/underflow) rule.
    #[must_use]
    pub fn flag_rule(&self) -> FlagRule {
        self.flag
    }

    /// Applies the pattern to a bit-packed JC state (all columns masked).
    #[must_use]
    pub fn apply_bits(&self, bits: u64) -> u64 {
        let mut out = 0u64;
        for (i, s) in self.sources.iter().enumerate() {
            let mut b = (bits >> s.src) & 1 == 1;
            if s.invert {
                b = !b;
            }
            if b {
                out |= 1 << i;
            }
        }
        out
    }

    /// Whether the flag fires for an `old → new` masked transition.
    #[cfg(test)]
    fn flag_fires(&self, old_bits: u64, new_bits: u64) -> bool {
        let msb = |b: u64| (b >> (self.n - 1)) & 1 == 1;
        match self.flag {
            FlagRule::IncSmall => msb(old_bits) && !msb(new_bits),
            FlagRule::IncLarge => msb(old_bits) || !msb(new_bits),
            FlagRule::DecSmall => !msb(old_bits) && msb(new_bits),
            FlagRule::DecLarge => !msb(old_bits) || msb(new_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::JohnsonCode;
    use proptest::prelude::*;

    #[test]
    fn fig7_radix10_all_steps_match_modular_arithmetic() {
        // Fig. 7: every k in 1..=9 must realise v -> (v+k) mod 10.
        let c = JohnsonCode::new(5);
        for k in 1..10usize {
            let p = TransitionPattern::increment(5, k);
            for v in 0..10usize {
                let got = p.apply_bits(c.encode(v));
                let want = c.encode((v + k) % 10);
                assert_eq!(got, want, "k={k}, v={v}");
            }
        }
    }

    #[test]
    fn paper_example_direct_transitions() {
        // §4.5.1: 10000(1) -> 00111(7) and 00111(7) -> 11100(3) for k=6.
        let c = JohnsonCode::new(5);
        let p = TransitionPattern::increment(5, 6);
        assert_eq!(p.apply_bits(c.encode(1)), c.encode(7));
        assert_eq!(p.apply_bits(c.encode(7)), c.encode(3));
    }

    #[test]
    fn increments_match_for_all_widths() {
        for n in 1..=10usize {
            let c = JohnsonCode::new(n);
            for k in 1..2 * n {
                let p = TransitionPattern::increment(n, k);
                for v in 0..2 * n {
                    assert_eq!(
                        p.apply_bits(c.encode(v)),
                        c.encode((v + k) % (2 * n)),
                        "n={n} k={k} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn decrements_match_for_all_widths() {
        for n in 1..=10usize {
            let c = JohnsonCode::new(n);
            for k in 1..2 * n {
                let p = TransitionPattern::decrement(n, k);
                assert!(p.decrement);
                for v in 0..2 * n {
                    assert_eq!(
                        p.apply_bits(c.encode(v)),
                        c.encode((v + 2 * n - k) % (2 * n)),
                        "n={n} k={k} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn overflow_flag_fires_exactly_on_wraparound() {
        for n in 1..=8usize {
            let c = JohnsonCode::new(n);
            for k in 1..2 * n {
                let p = TransitionPattern::increment(n, k);
                for v in 0..2 * n {
                    let new = p.apply_bits(c.encode(v));
                    let wrapped = v + k >= 2 * n;
                    assert_eq!(p.flag_fires(c.encode(v), new), wrapped, "n={n} k={k} v={v}");
                }
            }
        }
    }

    #[test]
    fn underflow_flag_fires_exactly_on_borrow() {
        for n in 1..=8usize {
            let c = JohnsonCode::new(n);
            for k in 1..2 * n {
                let p = TransitionPattern::decrement(n, k);
                for v in 0..2 * n {
                    let new = p.apply_bits(c.encode(v));
                    let borrow = v < k;
                    assert_eq!(p.flag_fires(c.encode(v), new), borrow, "n={n} k={k} v={v}");
                }
            }
        }
    }

    #[test]
    fn step_count_is_k_independent() {
        // §4.5.1: all k-ary increments use exactly n bit-update steps
        // (forward shifts + inverted feedbacks), same as a unit increment.
        for n in 2..=10 {
            for k in 1..2 * n {
                let p = TransitionPattern::increment(n, k);
                assert_eq!(p.sources().len(), n);
                // Inverted feedbacks: Fig. 7's lower arrows.
                let inv = p.sources().iter().filter(|s| s.invert).count();
                // Increment by k <= n has exactly k inverted feedbacks
                // (Fig. 7's lower arrows); k > n has n - (k - n).
                let expect = if k <= n { k } else { 2 * n - k };
                assert_eq!(inv, expect, "n={n} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be in 1..2n")]
    fn k_zero_rejected() {
        let _ = TransitionPattern::increment(5, 0);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..2n")]
    fn k_full_cycle_rejected() {
        let _ = TransitionPattern::increment(5, 10);
    }

    proptest! {
        #[test]
        fn composition_of_two_increments(
            n in 1usize..=9,
            a in 1usize..=17,
            b in 1usize..=17,
            v in 0usize..64,
        ) {
            let radix = 2 * n;
            let a = 1 + a % (radix - 1);
            let b = 1 + b % (radix - 1);
            let v = v % radix;
            let c = JohnsonCode::new(n);
            let pa = TransitionPattern::increment(n, a);
            let pb = TransitionPattern::increment(n, b);
            let step = pb.apply_bits(pa.apply_bits(c.encode(v)));
            prop_assert_eq!(step, c.encode((v + a + b) % radix));
        }
    }
}
