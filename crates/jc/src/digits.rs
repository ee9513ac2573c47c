//! Base-r digit walking: the one place a value is split into Johnson
//! digits.
//!
//! Every host-side routine that feeds a counter — the IARM planner, the
//! full-ripple bank paths, the Fig. 8 cost models and the engine's
//! sequence counts — splits its input into base-`radix` digits, least
//! significant first. [`Digits`] does that for all of them. It ends
//! after the most significant non-zero digit, so an int8 input in radix
//! 4 costs at most four steps however many digits the counter has.
//! Each caller keeps its own position bound: [`Iterator::take`] stops a
//! fixed-capacity counter at its digit count, and a walk left unbounded
//! yields every digit of the value.

/// The base-`radix` digits of a value, least significant first, ending
/// after the most significant non-zero digit (zero has no digits).
///
/// A power-of-two radix shifts and masks. Any other radix divides, on
/// `u64` while the remaining value fits and on `u128` above that.
///
/// ```
/// use c2m_jc::digits::Digits;
///
/// assert_eq!(Digits::new(4095, 10).collect::<Vec<_>>(), [5, 9, 0, 4]);
/// // A 2-digit counter keeps the low two; `next` shows what is left.
/// let mut walk = Digits::new(4095, 10);
/// assert_eq!(walk.by_ref().take(2).collect::<Vec<_>>(), [5, 9]);
/// assert_eq!(walk.next(), Some(0));
/// assert_eq!(Digits::new(0, 4).next(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Digits {
    rest: u128,
    radix: u64,
    /// `log2(radix)` when the radix is a power of two, else 0.
    shift: u32,
}

impl Digits {
    /// Walks the digits of `value` in base `radix`.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is below 2.
    #[must_use]
    pub fn new(value: u128, radix: usize) -> Self {
        assert!(radix >= 2, "radix must be at least 2");
        let radix = radix as u64;
        let shift = if radix.is_power_of_two() {
            radix.trailing_zeros()
        } else {
            0
        };
        Self {
            rest: value,
            radix,
            shift,
        }
    }
}

impl Iterator for Digits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.rest == 0 {
            return None;
        }
        let digit = if self.shift > 0 {
            let digit = self.rest as u64 & (self.radix - 1);
            self.rest >>= self.shift;
            digit
        } else if let Ok(rest) = u64::try_from(self.rest) {
            self.rest = u128::from(rest / self.radix);
            rest % self.radix
        } else {
            let radix = u128::from(self.radix);
            let digit = (self.rest % radix) as u64;
            self.rest /= radix;
            digit
        };
        Some(digit as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::iter;

    /// The `%`/`/` loop every caller used before [`Digits`], kept as its
    /// oracle: exactly `digits` positions, and what the value has left
    /// after them.
    fn division_loop(value: u128, radix: usize, digits: usize) -> (Vec<usize>, u128) {
        let r = radix as u128;
        let mut v = value;
        let out = (0..digits)
            .map(|_| {
                let d = (v % r) as usize;
                v /= r;
                d
            })
            .collect();
        (out, v)
    }

    /// Checks every way a caller bounds the walk against the oracle.
    fn check(value: u128, radix: usize, digits: usize) {
        let (expect, rest) = division_loop(value, radix, digits);
        let ctx = format!("value={value} radix={radix} digits={digits}");
        // Padded to the counter width, as `CounterBank::set` writes it.
        let padded: Vec<usize> = Digits::new(value, radix)
            .chain(iter::repeat(0))
            .take(digits)
            .collect();
        assert_eq!(padded, expect, "{ctx}");
        // Truncated at the counter width, as IARM plans it: the oracle,
        // without its zero tail when the value fits, and `next` tells
        // whether anything was cut off.
        let mut walk = Digits::new(value, radix);
        let bounded: Vec<usize> = walk.by_ref().take(digits).collect();
        let significant = if rest == 0 {
            expect.iter().rposition(|&d| d != 0).map_or(0, |i| i + 1)
        } else {
            digits
        };
        assert_eq!(bounded, expect[..significant], "{ctx}");
        assert_eq!(walk.next().is_some(), rest != 0, "{ctx}");
        // Unbounded, as the full-ripple count walks it: every digit,
        // the last one non-zero.
        let mut all = Vec::new();
        let mut v = value;
        while v != 0 {
            all.push((v % radix as u128) as usize);
            v /= radix as u128;
        }
        assert_eq!(Digits::new(value, radix).collect::<Vec<_>>(), all, "{ctx}");
    }

    /// The values at a counter's edges: empty, full, one past full, and
    /// the two word boundaries the walker switches arithmetic at.
    fn edge_values(radix: usize, digits: usize) -> Vec<u128> {
        let mut values = vec![0, u128::from(u64::MAX), u128::from(u64::MAX) + 1, u128::MAX];
        if let Some(capacity) = (radix as u128).checked_pow(digits as u32) {
            values.extend([capacity - 1, capacity]);
        }
        values
    }

    #[test]
    fn walker_matches_the_division_loop_at_capacity_edges() {
        let padded: Vec<usize> = Digits::new(4095, 10)
            .chain(iter::repeat(0))
            .take(5)
            .collect();
        assert_eq!(padded, [5, 9, 0, 4, 0]);
        for radix in (2..=64).step_by(2) {
            for digits in 1..=64 {
                for value in edge_values(radix, digits) {
                    check(value, radix, digits);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn walker_matches_the_division_loop(
            half in 1usize..=32,
            digits in 1usize..=64,
            hi in any::<u64>(),
            lo in any::<u64>(),
            kind in 0usize..10,
        ) {
            let radix = 2 * half;
            let value = match kind {
                0 => (u128::from(hi) << 64) | u128::from(lo),
                1 => u128::from(lo),
                // Any bit length, so every digit count gets exercised.
                2 => u128::from(lo) >> (hi % 64),
                3 => u128::from(lo % 1000),
                other => edge_values(radix, digits)
                    .get(other - 4)
                    .copied()
                    .unwrap_or(u128::MAX),
            };
            check(value, radix, digits);
        }
    }
}
