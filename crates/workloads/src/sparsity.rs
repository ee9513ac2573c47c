//! Sparse input generation for the Fig. 16 sparsity sweep.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Generates a signed 8-bit input stream with exactly
/// `round(len · sparsity)` zeros placed uniformly at random.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
#[must_use]
pub fn sparse_int8_stream(len: usize, sparsity: f64, seed: u64) -> Vec<i64> {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let zeros = (len as f64 * sparsity).round() as usize;
    let mut v: Vec<i64> = (0..len)
        .map(|i| {
            if i < zeros {
                0
            } else {
                // Non-zero int8 value drawn from the Fig. 3b embedding
                // distribution (zero-centred, narrow) — the values LLM
                // activations actually take.
                loop {
                    let s: f64 = (0..12).map(|_| rng.gen_range(-0.5..0.5)).sum();
                    let x = ((s * 14.0).round() as i64).clamp(-127, 127);
                    if x != 0 {
                        break x;
                    }
                }
            }
        })
        .collect();
    // Fisher-Yates shuffle for uniform zero placement.
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// Measured sparsity of a stream: the reference the generator is held to.
#[cfg(test)]
fn measured_sparsity(v: &[i64]) -> f64 {
    v.iter().filter(|&&x| x == 0).count() as f64 / v.len() as f64
}

/// The sparsity sweep points of Fig. 16 (0 % … 99.9 %).
#[must_use]
pub fn fig16_sweep() -> Vec<f64> {
    vec![
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.996, 0.999,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsity_is_exact() {
        for s in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let v = sparse_int8_stream(1000, s, 1);
            assert!((measured_sparsity(&v) - s).abs() < 1e-3, "target {s}");
        }
    }

    #[test]
    fn nonzeros_are_int8() {
        let v = sparse_int8_stream(500, 0.5, 2);
        assert!(v.iter().all(|&x| x.abs() < 128));
        assert!(v.iter().any(|&x| x < 0));
        assert!(v.iter().any(|&x| x > 0));
    }

    #[test]
    fn sweep_covers_paper_range() {
        let s = fig16_sweep();
        assert_eq!(s[0], 0.0);
        assert_eq!(*s.last().unwrap(), 0.999);
    }
}
