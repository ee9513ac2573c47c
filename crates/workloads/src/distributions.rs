//! Input-value distributions of Fig. 3.
//!
//! The §3 motivation: accumulated values in real workloads are *narrow*
//! (4–8 bits), which is what makes high-radix counting beat worst-case
//! ripple-carry addition. Fig. 3a shows k-mer repetition counts in DNA
//! short reads (geometric-tailed, almost all mass below 18); Fig. 3b
//! shows 8-bit quantised BERT embeddings (zero-centred bell).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A histogram over integer values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Smallest bin value.
    pub min: i64,
    /// Per-value counts, index 0 = `min`.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram of `values` over their full range.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn build(values: &[i64]) -> Self {
        assert!(!values.is_empty(), "cannot histogram nothing");
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let mut counts = vec![0u64; (max - min + 1) as usize];
        for &v in values {
            counts[(v - min) as usize] += 1;
        }
        Self { min, counts }
    }

    /// Count of a specific value (0 if outside range).
    #[must_use]
    pub fn count(&self, v: i64) -> u64 {
        let idx = v - self.min;
        if idx < 0 || idx as usize >= self.counts.len() {
            0
        } else {
            self.counts[idx as usize]
        }
    }

    /// Fraction of mass with |value| representable in `bits` bits.
    #[must_use]
    pub fn mass_within_bits(&self, bits: u32) -> f64 {
        let limit = 1i64 << bits;
        let total: u64 = self.counts.iter().sum();
        let inside: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let v = self.min + *i as i64;
                v.abs() < limit
            })
            .map(|(_, &c)| c)
            .sum();
        inside as f64 / total as f64
    }
}

/// Samples Fig. 3a-style k-mer repetition counts: geometric with the
/// bulk at 1 and a tail reaching ~18 (matching short-read token
/// statistics).
#[must_use]
pub fn token_repetitions(samples: usize, seed: u64) -> Vec<i64> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..samples)
        .map(|_| {
            let mut v = 1i64;
            while rng.gen_bool(0.45) && v < 18 {
                v += 1;
            }
            v
        })
        .collect()
}

/// Samples Fig. 3b-style 8-bit embedding values, the law V = round(14·S)
/// with S the sum of 12 independent uniforms on [−½, ½): a zero-centred
/// bell, the Irwin–Hall law of 12 terms shifted to mean 0 (its variance
/// is 1), scaled to a standard deviation of 14 and rounded half away
/// from zero. |S| < 6, so |V| ≤ 84 and every value fits an `i8` with
/// room to spare.
///
/// Each value is built from 12 `f64` draws, and the figures' committed
/// inputs are this stream. Serving draws the same law from one 64-bit
/// word per value through its exact inverse CDF, [`int8_embedding_of`].
#[must_use]
pub fn int8_embeddings(samples: usize, seed: u64) -> Vec<i64> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..samples)
        .map(|_| {
            let s: f64 = (0..12).map(|_| rng.gen_range(-0.5..0.5)).sum();
            (s * 14.0).round() as i64
        })
        .collect()
}

/// The inverse CDF of the Fig. 3b law in 64-bit fixed point: entry `i`
/// is ⌊2⁶⁴ · P(V ≤ i − 84)⌋, where V = round(14·S) and S is the sum of
/// 12 independent uniforms on [−½, ½) (the law [`int8_embeddings`]
/// samples). V ranges over −84..=84, and P(V ≤ 84) = 1 needs no entry.
///
/// V ≤ v exactly when T = S + 6, an Irwin–Hall variable of 12 terms,
/// lies below a/28 with a = 2v + 169 (ties have probability 0). So
/// 12!·28¹²·P(V ≤ v) = Σ_{k ≤ a/28} (−1)^k·C(12,k)·(a − 28k)¹², which
/// [`int8_cdf`] sums in exact `i128` arithmetic at compile time.
const INT8_CDF: [u64; 168] = int8_cdf();

/// Builds [`INT8_CDF`]. Every term of the sum is below 2¹¹¹ and the
/// denominator 12!·28¹² is below 2⁸⁷, so the quotient ⌊2⁶⁴·N/D⌋ takes
/// two 32-bit long-division steps without overflow: ⌊(N≪32)/D⌋ gives
/// the high half, and the same step on its remainder the low half.
const fn int8_cdf() -> [u64; 168] {
    let mut den: i128 = 1;
    let mut j = 1;
    while j <= 12 {
        den *= 28 * j;
        j += 1;
    }
    let mut table = [0u64; 168];
    let mut i = 0;
    while i < 168 {
        let v = i as i128 - 84;
        let a = 2 * v + 169;
        let mut num: i128 = 0;
        // C(12, k), stepped along with k.
        let mut binom: i128 = 1;
        let mut k: i128 = 0;
        while 28 * k <= a {
            let term = binom * (a - 28 * k).pow(12);
            num += if k % 2 == 0 { term } else { -term };
            binom = binom * (12 - k) / (k + 1);
            k += 1;
        }
        let hi = (num << 32) / den;
        let lo = (((num << 32) % den) << 32) / den;
        table[i] = ((hi << 32) | lo) as u64;
        i += 1;
    }
    table
}

/// One value of the Fig. 3b law from one uniform 64-bit word, by
/// inverse transform through [`INT8_CDF`]: the number of thresholds at
/// or below `word`, less 84.
///
/// A uniform word draws each value v with probability within 2⁻⁶⁴ of
/// P(V = v). The values whose true mass is below 2⁻⁶⁴ (|v| ≥ 83) are
/// drawn with probability at most 2⁻⁶⁴: −84, −83 and 83 own no word, and
/// 84 owns `u64::MAX` alone.
#[must_use]
pub fn int8_embedding_of(word: u64) -> i64 {
    INT8_CDF.partition_point(|&t| t <= word) as i64 - 84
}

/// Uniform unsigned 8-bit inputs (the Fig. 8 sweep distribution).
#[must_use]
pub fn uniform_u8(samples: usize, seed: u64) -> Vec<i64> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..samples).map(|_| rng.gen_range(0i64..256)).collect()
}

/// Samples `samples` exponential inter-arrival gaps with the given mean
/// (ns) — the open-loop Poisson traffic model used by the serving
/// runtime's ingest layer. Gaps are strictly positive.
///
/// # Panics
///
/// Panics if `mean_ns` is not positive and finite.
#[must_use]
pub fn exp_interarrivals(samples: usize, mean_ns: f64, seed: u64) -> Vec<f64> {
    assert!(
        mean_ns.is_finite() && mean_ns > 0.0,
        "mean inter-arrival must be positive: {mean_ns}"
    );
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..samples)
        .map(|_| {
            // Inverse-CDF sampling; the uniform draw is kept away from 0
            // so the log stays finite.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            -mean_ns * u.ln()
        })
        .collect()
}

/// Cumulative arrival instants (ns) of a Poisson process with the given
/// mean inter-arrival gap, starting after the first gap.
#[must_use]
pub fn poisson_arrivals(samples: usize, mean_ns: f64, seed: u64) -> Vec<f64> {
    let mut t = 0.0;
    exp_interarrivals(samples, mean_ns, seed)
        .into_iter()
        .map(|gap| {
            t += gap;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_repetitions_are_narrow() {
        // Fig. 3a: values in 1..=18, monotone-decreasing frequency.
        let v = token_repetitions(200_000, 1);
        let h = Histogram::build(&v);
        assert!(h.min >= 1);
        assert!(v.iter().all(|&x| (1..=18).contains(&x)));
        assert!(h.count(1) > h.count(5));
        assert!(h.count(5) > h.count(12));
        // §3: representable in 4-8 bits.
        assert_eq!(h.mass_within_bits(5), 1.0);
    }

    #[test]
    fn embeddings_are_zero_centred_and_8bit() {
        let v = int8_embeddings(100_000, 2);
        let h = Histogram::build(&v);
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 1.0, "mean {mean}");
        assert!(h.count(0) > h.count(40));
        // Fig. 3b / §3: circa 4-8 bit values.
        assert!(h.mass_within_bits(8) >= 1.0 - 1e-9);
        assert!(h.mass_within_bits(6) > 0.95);
    }

    /// P(T ≤ x) for T the sum of `n` uniforms on [0, 1), in `f64`, by
    /// the recurrence F_n(x) = (x·F_{n−1}(x) + (n − x)·F_{n−1}(x − 1)) / n
    /// (no alternating sum, so no cancellation).
    fn irwin_hall_cdf(n: u32, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= f64::from(n) {
            1.0
        } else {
            (x * irwin_hall_cdf(n - 1, x) + (f64::from(n) - x) * irwin_hall_cdf(n - 1, x - 1.0))
                / f64::from(n)
        }
    }

    #[test]
    fn the_inverse_cdf_table_matches_irwin_hall() {
        let two64 = 2f64.powi(64);
        for (i, &t) in INT8_CDF.iter().enumerate() {
            // V ≤ v exactly when 14·S < v + ½, i.e. S + 6 < 6 + (v + ½)/14.
            let v = i as f64 - 84.0;
            let want = irwin_hall_cdf(12, 6.0 + (v + 0.5) / 14.0);
            let got = t as f64 / two64;
            assert!((got - want).abs() < 1e-9, "entry {i}: {got} vs {want}");
        }
    }

    #[test]
    fn the_inverse_cdf_table_is_monotone_and_symmetric() {
        assert!(INT8_CDF.windows(2).all(|w| w[0] <= w[1]));
        // Exact quotients, from an independent rational evaluation.
        assert_eq!(INT8_CDF[..4], [0, 0, 40, 2295]);
        assert_eq!(INT8_CDF[84], 9_482_842_593_842_234_004);
        assert_eq!(
            [164, 165, 166, 167].map(|i| u64::MAX - INT8_CDF[i]),
            [2295, 40, 0, 0]
        );
        // P(V ≤ v) + P(V ≤ −v − 1) = 1, and each entry is floored.
        for i in 0..168 {
            let sum = u128::from(INT8_CDF[i]) + u128::from(INT8_CDF[167 - i]);
            assert!((1u128 << 64) - sum <= 2, "entries {i} and {}", 167 - i);
        }
    }

    #[test]
    fn each_cell_starts_at_its_threshold() {
        // Value v = i − 84 owns the words [INT8_CDF[i − 1], INT8_CDF[i]),
        // counting from 0 below the first entry and to 2⁶⁴ above the last.
        let lower = |i: usize| if i == 0 { 0 } else { INT8_CDF[i - 1] };
        let upper = |i: usize| INT8_CDF.get(i).map_or(1u128 << 64, |&t| u128::from(t));
        let mut beneath = None;
        for i in 0..=168 {
            let v = i as i64 - 84;
            let size = upper(i) - u128::from(lower(i));
            if v.abs() >= 83 {
                assert!(size <= 1, "{v} owns {size} words");
            }
            if size == 0 {
                continue;
            }
            assert_eq!(int8_embedding_of(lower(i)), v);
            assert_eq!(int8_embedding_of((upper(i) - 1) as u64), v);
            match beneath {
                Some(b) => assert_eq!(int8_embedding_of(lower(i) - 1), b, "below {v}"),
                None => assert_eq!(lower(i), 0, "{v} is the lowest drawable value"),
            }
            beneath = Some(v);
        }
        assert_eq!(beneath, Some(84), "u64::MAX alone draws 84");
        // −84 and −83 own no word, so the lowest drawable value is −82.
        assert_eq!(int8_embedding_of(0), -82);
        assert_eq!(int8_embedding_of(u64::MAX), 84);
    }

    #[test]
    fn histogram_basics() {
        let h = Histogram::build(&[1, 1, 2, 5]);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(7), 0);
    }

    #[test]
    fn uniform_covers_range() {
        let v = uniform_u8(50_000, 3);
        assert!(v.iter().any(|&x| x < 16));
        assert!(v.iter().any(|&x| x > 240));
    }

    #[test]
    fn exp_interarrivals_match_the_mean_and_stay_positive() {
        let gaps = exp_interarrivals(100_000, 250.0, 4);
        assert!(gaps.iter().all(|&g| g > 0.0));
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.02, "mean {mean}");
        // Exponential: ~63% of mass below the mean.
        let below = gaps.iter().filter(|&&g| g < 250.0).count() as f64 / gaps.len() as f64;
        assert!((below - 0.632).abs() < 0.01, "CDF(mean) {below}");
    }

    #[test]
    fn poisson_arrivals_are_strictly_increasing() {
        let t = poisson_arrivals(1000, 100.0, 5);
        assert_eq!(t.len(), 1000);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        assert!(t[0] > 0.0);
    }
}
