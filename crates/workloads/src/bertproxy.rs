//! BERT workload: attention GEMM shapes + accuracy-under-fault proxy.
//!
//! Performance runs (Fig. 18) use the real BERT-base attention GEMM
//! shapes. For the accuracy study (Fig. 17b) the paper fine-tunes BERT
//! on MNLI; with no GPU or GLUE data available, we substitute a ternary
//! multi-layer perceptron classifier whose matmuls run through the
//! (faulty) CIM kernels — preserving the claims under test: accuracy
//! collapses sharply once faults exceed a threshold, JC degrades later
//! than RCA, and ECC beats TMR.

use c2m_core::kernels::{ternary_gemv, KernelConfig};
use c2m_core::matrix::TernaryMatrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// BERT-base attention-layer GEMM shapes (per head-block, seq len 512):
/// QKV projections, attention scores, context, output projection.
#[must_use]
pub fn bert_attention_gemms() -> Vec<(&'static str, usize, usize, usize)> {
    vec![
        ("QKV-proj", 512, 3 * 768, 768),
        ("scores", 512, 512, 64),
        ("context", 512, 64, 512),
        ("out-proj", 512, 768, 768),
    ]
}

/// A 3-layer ternary MLP used as the classification proxy.
pub struct TernaryMlp {
    w1: TernaryMatrix,
    w2: TernaryMatrix,
    w3: TernaryMatrix,
}

/// Classifier dimensions: 64 → 48 → 24 → 4 classes.
const D_IN: usize = 64;
const D_H1: usize = 48;
const D_H2: usize = 24;
const D_OUT: usize = 4;

impl TernaryMlp {
    /// Builds a random ternary network from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        Self {
            w1: TernaryMatrix::random(D_IN, D_H1, 0.6, &mut rng),
            w2: TernaryMatrix::random(D_H1, D_H2, 0.6, &mut rng),
            w3: TernaryMatrix::random(D_H2, D_OUT, 0.6, &mut rng),
        }
    }

    /// Forward pass through the given kernel configuration (the matmuls
    /// execute on the simulated CIM substrate — faults and all).
    #[must_use]
    pub fn forward(&self, cfg: &KernelConfig, x: &[i64]) -> usize {
        self.layers(x, |x, w| ternary_gemv(cfg, x, w).y)
    }

    /// The fault-free forward pass in host arithmetic: the same layers as
    /// [`TernaryMlp::forward`], each matmul a
    /// [`TernaryMatrix::reference_gemv`].
    #[must_use]
    pub fn forward_reference(&self, x: &[i64]) -> usize {
        self.layers(x, |x, w| {
            w.reference_gemv(x).into_iter().map(i128::from).collect()
        })
    }

    /// The three layers, with `gemv` computing each matmul.
    fn layers(&self, x: &[i64], gemv: impl Fn(&[i64], &TernaryMatrix) -> Vec<i128>) -> usize {
        let h1 = relu_scale(gemv(x, &self.w1));
        let h2 = relu_scale(gemv(&h1, &self.w2));
        argmax(&gemv(&h2, &self.w3))
    }

    /// Samples an input vector (Fig. 3b-style int8 embeddings).
    pub fn sample_input(rng: &mut impl Rng) -> Vec<i64> {
        (0..D_IN)
            .map(|_| {
                let s: f64 = (0..12).map(|_| rng.gen_range(-0.5..0.5)).sum();
                ((s * 14.0).round() as i64).clamp(-128, 127)
            })
            .collect()
    }

    /// Classification accuracy of a (possibly faulty) configuration
    /// against the fault-free reference labels.
    ///
    /// The labels come from [`TernaryMlp::forward_reference`]. That is
    /// the label a rate-0 [`TernaryMlp::forward`] computes whenever the
    /// counters' signed range holds `±64 · 128`, as the compact ones do
    /// (±2²³ at radix 2, ±5·10⁷ at radix 10): a fault-free counter bank
    /// is exact, and every pre-activation here is at most `64 · 128` in
    /// magnitude.
    #[must_use]
    pub fn accuracy(&self, faulty: &KernelConfig, samples: usize, seed: u64) -> f64 {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut agree = 0usize;
        for _ in 0..samples {
            let x = Self::sample_input(&mut rng);
            let label = self.forward_reference(&x);
            let predicted = self.forward(faulty, &x);
            if predicted == label {
                agree += 1;
            }
        }
        agree as f64 / samples as f64
    }
}

/// ReLU + rescale to int8 range (quantised activation).
fn relu_scale(v: Vec<i128>) -> Vec<i64> {
    let max = v.iter().copied().max().unwrap_or(1).max(1);
    v.into_iter()
        .map(|x| {
            let x = x.max(0);
            ((x * 127) / max) as i64
        })
        .collect()
}

fn argmax(v: &[i128]) -> usize {
    v.iter()
        .enumerate()
        .max_by_key(|(_, &x)| x)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_shapes_are_bert_base() {
        let g = bert_attention_gemms();
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].3, 768); // hidden size
    }

    #[test]
    fn fault_free_accuracy_is_perfect() {
        let mlp = TernaryMlp::new(1);
        let cfg = KernelConfig::compact();
        let acc = mlp.accuracy(&cfg, 10, 2);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn the_reference_labels_are_the_rate_0_banks_labels() {
        // fig17(b)'s two kernel configurations at rate 0: JC at radix 10
        // and the RCA proxy's binary counters.
        let mlp = TernaryMlp::new(7);
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        for radix in [10, 2] {
            let cfg = KernelConfig {
                radix,
                ..KernelConfig::compact()
            };
            for sample in 0..64 {
                let x = TernaryMlp::sample_input(&mut rng);
                assert_eq!(
                    mlp.forward(&cfg, &x),
                    mlp.forward_reference(&x),
                    "radix {radix}, sample {sample}"
                );
            }
        }
    }

    #[test]
    fn forward_is_deterministic_without_faults() {
        let mlp = TernaryMlp::new(3);
        let cfg = KernelConfig::compact();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let x = TernaryMlp::sample_input(&mut rng);
        assert_eq!(mlp.forward(&cfg, &x), mlp.forward(&cfg, &x));
    }

    #[test]
    fn heavy_faults_destroy_accuracy() {
        let mlp = TernaryMlp::new(5);
        let cfg = KernelConfig {
            fault_rate: 0.2,
            ..KernelConfig::compact()
        };
        let acc = mlp.accuracy(&cfg, 12, 6);
        assert!(acc < 0.9, "accuracy {acc} should collapse at 20% faults");
    }

    #[test]
    fn classes_are_distributed() {
        // The random network should not map everything to one class.
        let mlp = TernaryMlp::new(7);
        let cfg = KernelConfig::compact();
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..24 {
            let x = TernaryMlp::sample_input(&mut rng);
            seen.insert(mlp.forward(&cfg, &x));
        }
        assert!(seen.len() >= 2, "only classes {seen:?} predicted");
    }
}
