//! Canonical signed-digit (CSD) recoding (§5.2.3).
//!
//! Integer-integer matrix multiplication bit-slices the weight matrix Z:
//! each weight decomposes into power-of-two-weighted ±1 terms, each term
//! becoming one binary mask plane in memory. CSD form guarantees no two
//! adjacent non-zero digits, so a p-bit weight needs at most ⌈(p+1)/2⌉
//! planes touched — the host scales the input by the plane's
//! power-of-two (a shift, no CPU multiplier needed) and chooses
//! increment or decrement commands by the plane's sign.

use serde::{Deserialize, Serialize};

/// One CSD term: `sign * 2^exponent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CsdTerm {
    /// Power-of-two weight.
    pub exponent: u32,
    /// True for a negative term.
    pub negative: bool,
}

/// Recodes `value` into canonical signed-digit form (least-significant
/// term first). The encoding is unique and has no two adjacent non-zero
/// digits.
#[must_use]
pub fn recode(value: i64) -> Vec<CsdTerm> {
    let mut terms = Vec::new();
    let mut v = i128::from(value);
    let mut e = 0u32;
    while v != 0 {
        if v & 1 != 0 {
            // Choose digit in {-1, +1} so the remainder is divisible
            // by 4 where possible (canonical rule: look at the next bit).
            let digit: i128 = if (v & 3) == 3 { -1 } else { 1 };
            terms.push(CsdTerm {
                exponent: e,
                negative: digit < 0,
            });
            v -= digit;
        }
        v >>= 1;
        e += 1;
    }
    terms
}

/// Reconstructs the integer a CSD term list encodes.
#[must_use]
pub fn decode(terms: &[CsdTerm]) -> i64 {
    terms
        .iter()
        .map(|t| {
            let mag = 1i64 << t.exponent;
            if t.negative {
                -mag
            } else {
                mag
            }
        })
        .sum()
}

/// Number of mask planes a `p`-bit signed weight matrix needs in the
/// worst case: `2(p − 1)` (§5.2.3) — one positive and one negative plane
/// per usable power of two.
#[cfg(test)]
fn planes_for_precision(p: u32) -> u32 {
    2 * (p - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        // 7 = 8 - 1.
        let t = recode(7);
        assert_eq!(decode(&t), 7);
        assert_eq!(t.len(), 2);
        // 15 = 16 - 1.
        assert_eq!(recode(15).len(), 2);
        // 5 = 4 + 1 (already sparse).
        assert_eq!(recode(5).len(), 2);
        assert_eq!(recode(0).len(), 0);
    }

    #[test]
    fn no_adjacent_nonzero_digits() {
        for v in -300i64..=300 {
            let t = recode(v);
            for w in t.windows(2) {
                assert!(
                    w[1].exponent > w[0].exponent + 1,
                    "adjacent digits in CSD of {v}: {t:?}"
                );
            }
        }
    }

    #[test]
    fn nonzero_count_bound() {
        // CSD of a p-bit value has at most ceil((p+1)/2) nonzeros.
        for v in -128i64..=127 {
            let t = recode(v);
            assert!(t.len() <= 5, "v={v} has {} terms", t.len());
        }
    }

    #[test]
    fn negative_values() {
        assert_eq!(decode(&recode(-1)), -1);
        assert_eq!(decode(&recode(-100)), -100);
        assert_eq!(decode(&recode(i64::from(i32::MIN))), i64::from(i32::MIN));
    }

    #[test]
    fn plane_budget() {
        assert_eq!(planes_for_precision(8), 14);
        assert_eq!(planes_for_precision(4), 6);
    }

    proptest! {
        #[test]
        fn roundtrip(v in -1_000_000i64..1_000_000) {
            prop_assert_eq!(decode(&recode(v)), v);
        }

        #[test]
        fn csd_is_sparser_than_binary(v in 1i64..1_000_000) {
            let csd_nonzeros = recode(v).len();
            let bin_nonzeros = v.count_ones() as usize;
            prop_assert!(csd_nonzeros <= bin_nonzeros + 1);
        }
    }
}
