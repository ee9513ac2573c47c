//! Neural-network kernels on top of the Count2Multiply primitives.
//!
//! The paper's full-application results (Fig. 18) cover ternary-weight
//! convolutional networks (LeNet, VGG-13/16) and BERT's attention
//! layer. Both reduce to the matrix kernels of §5.2:
//!
//! * **Convolution** lowers to GEMM through *im2col*: each output
//!   position becomes a row of unrolled input patches, so a ternary
//!   conv layer is `im2col(x) · W` with `W` the `(C·kh·kw) × C_out`
//!   ternary weight matrix stored as ±mask rows in memory.
//! * **Attention** is a pipeline of five GEMMs — the Q/K/V projections
//!   (ternary weights), `Q·Kᵀ`, and `P·V`. The paper evaluates "all
//!   GEMM operations in the attention layer"; the softmax between
//!   `Q·Kᵀ` and `P·V` runs host-side (it is not a counting workload)
//!   and is approximated here with an integer shift-normalisation so
//!   the whole pipeline stays in integer arithmetic and is bit-exactly
//!   reproducible.

use crate::kernels::{int_int_gemm, ternary_gemm, KernelConfig};
use crate::matrix::TernaryMatrix;
use c2m_jc::bank::BankStats;

/// Geometry of a 2-D convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height and width (square kernels in all paper models).
    pub kernel: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Stride (both dimensions).
    pub stride: usize,
    /// Zero padding (both dimensions).
    pub padding: usize,
}

impl ConvShape {
    /// Output height.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero-size output).
    #[must_use]
    pub fn out_h(&self) -> usize {
        let span = self.in_h + 2 * self.padding;
        assert!(span + 1 > self.kernel, "kernel taller than padded input");
        (span - self.kernel) / self.stride + 1
    }

    /// Output width.
    #[must_use]
    pub fn out_w(&self) -> usize {
        let span = self.in_w + 2 * self.padding;
        assert!(span + 1 > self.kernel, "kernel wider than padded input");
        (span - self.kernel) / self.stride + 1
    }

    /// GEMM reduction dimension: `C·kh·kw`.
    #[must_use]
    pub fn gemm_k(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// GEMM row count: output positions per image.
    #[must_use]
    pub fn gemm_m(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Multiply-accumulates per image.
    #[must_use]
    pub fn macs(&self) -> u64 {
        (self.gemm_m() * self.gemm_k() * self.out_channels) as u64
    }
}

/// A channels-first integer image: `data[c][y][x]`.
pub type Image = Vec<Vec<Vec<i64>>>;

/// Unrolls `input` into the im2col matrix: one row per output position,
/// `C·kh·kw` columns ordered channel-major then row-major within the
/// kernel window. Out-of-bounds taps (padding) contribute zero.
///
/// # Panics
///
/// Panics if the image does not match `shape`.
#[must_use]
pub fn im2col(input: &Image, shape: &ConvShape) -> Vec<Vec<i64>> {
    assert_eq!(input.len(), shape.in_channels, "channel count mismatch");
    for c in input {
        assert_eq!(c.len(), shape.in_h, "height mismatch");
        for row in c {
            assert_eq!(row.len(), shape.in_w, "width mismatch");
        }
    }
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut out = Vec::with_capacity(oh * ow);
    for oy in 0..oh {
        for ox in 0..ow {
            let mut patch = Vec::with_capacity(shape.gemm_k());
            for channel in input.iter().take(shape.in_channels) {
                for ky in 0..shape.kernel {
                    for kx in 0..shape.kernel {
                        let y = (oy * shape.stride + ky) as isize - shape.padding as isize;
                        let x = (ox * shape.stride + kx) as isize - shape.padding as isize;
                        let v = if y >= 0
                            && x >= 0
                            && (y as usize) < shape.in_h
                            && (x as usize) < shape.in_w
                        {
                            channel[y as usize][x as usize]
                        } else {
                            0
                        };
                        patch.push(v);
                    }
                }
            }
            out.push(patch);
        }
    }
    out
}

/// Result of a convolution through the counting path.
#[derive(Debug, Clone)]
pub struct ConvResult {
    /// Output feature map, `out[c][y][x]`.
    pub output: Vec<Vec<Vec<i128>>>,
    /// Aggregated counter-bank statistics.
    pub stats: BankStats,
}

/// Ternary-weight 2-D convolution executed as a Count2Multiply GEMM.
///
/// `weights` must be `gemm_k() × out_channels` (each column is one
/// output filter, CSD-free: ternary entries map to ±masks directly).
///
/// # Panics
///
/// Panics if image or weight dimensions do not match `shape`.
#[must_use]
pub fn conv2d_ternary(
    cfg: &KernelConfig,
    input: &Image,
    weights: &TernaryMatrix,
    shape: &ConvShape,
) -> ConvResult {
    assert_eq!(weights.k(), shape.gemm_k(), "weight rows != C·kh·kw");
    assert_eq!(weights.n(), shape.out_channels, "weight cols != C_out");
    let x = im2col(input, shape);
    let (y, stats) = ternary_gemm(cfg, &x, weights);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut output = vec![vec![vec![0i128; ow]; oh]; shape.out_channels];
    for (pos, row) in y.iter().enumerate() {
        let (oy, ox) = (pos / ow, pos % ow);
        for (c, &v) in row.iter().enumerate() {
            output[c][oy][ox] = v;
        }
    }
    ConvResult { output, stats }
}

/// Plain-integer reference convolution for validating the CIM path.
///
/// # Panics
///
/// Panics on dimension mismatches (same contract as
/// [`conv2d_ternary`]).
#[must_use]
pub fn reference_conv2d(
    input: &Image,
    weights: &TernaryMatrix,
    shape: &ConvShape,
) -> Vec<Vec<Vec<i128>>> {
    let x = im2col(input, shape);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut output = vec![vec![vec![0i128; ow]; oh]; shape.out_channels];
    for (pos, patch) in x.iter().enumerate() {
        let want = weights.reference_gemv(patch);
        let (oy, ox) = (pos / ow, pos % ow);
        for (c, &v) in want.iter().enumerate() {
            output[c][oy][ox] = i128::from(v);
        }
    }
    output
}

/// Attention-layer geometry (BERT-base per head group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionShape {
    /// Sequence length.
    pub seq_len: usize,
    /// Model (embedding) width.
    pub d_model: usize,
}

/// Per-stage statistics of the attention pipeline.
#[derive(Debug, Clone, Default)]
pub struct AttentionReport {
    /// Q/K/V projection GEMMs (ternary weights).
    pub projections: BankStats,
    /// `Q·Kᵀ` score GEMM (integer × integer via CSD).
    pub scores: BankStats,
    /// `P·V` context GEMM (integer × integer via CSD).
    pub context: BankStats,
}

fn add_stats(into: &mut BankStats, from: &BankStats) {
    into.increments += from.increments;
    into.ambit_ops += from.ambit_ops;
    into.resolves += from.resolves;
}

/// Requantises a matrix of wide accumulator outputs back to a narrow
/// integer range by an arithmetic right shift (the standard integer
/// inference trick; keeps the pipeline bit-exact and host-cheap).
fn requantize(m: &[Vec<i128>], shift: u32, clamp: i64) -> Vec<Vec<i64>> {
    m.iter()
        .map(|row| {
            row.iter()
                .map(|&v| {
                    i64::try_from(v >> shift)
                        .unwrap_or(clamp)
                        .clamp(-clamp, clamp)
                })
                .collect()
        })
        .collect()
}

/// Integer softmax proxy: shifts scores to non-negative and normalises
/// each row so the (integer) weights sum to ~`2^6`. Matches the paper's
/// treatment of softmax as host-side glue between the in-memory GEMMs.
fn shift_normalize(scores: &[Vec<i64>]) -> Vec<Vec<i64>> {
    scores
        .iter()
        .map(|row| {
            let max = row.iter().copied().max().unwrap_or(0);
            // exp proxy: x - max clamped into [-16, 0], then 2^(x/4).
            let weights: Vec<i64> = row
                .iter()
                .map(|&v| {
                    let d = ((v - max) / 4).max(-15);
                    1i64 << (15 + d).clamp(0, 15)
                })
                .collect();
            let sum: i64 = weights.iter().sum::<i64>().max(1);
            weights.iter().map(|&w| (w * 64 / sum).min(64)).collect()
        })
        .collect()
}

/// Runs one attention block: Q/K/V ternary projections, integer `Q·Kᵀ`,
/// host-side shift-softmax, and integer `P·V`.
///
/// Returns the context matrix (`seq_len × d_model`) and per-stage
/// statistics.
///
/// # Panics
///
/// Panics if `x` is not `seq_len × d_model` or the weight matrices are
/// not `d_model × d_model`.
#[must_use]
pub fn attention_block(
    cfg: &KernelConfig,
    x: &[Vec<i64>],
    wq: &TernaryMatrix,
    wk: &TernaryMatrix,
    wv: &TernaryMatrix,
    shape: &AttentionShape,
) -> (Vec<Vec<i128>>, AttentionReport) {
    assert_eq!(x.len(), shape.seq_len, "sequence length mismatch");
    for row in x {
        assert_eq!(row.len(), shape.d_model, "embedding width mismatch");
    }
    for w in [wq, wk, wv] {
        assert_eq!(w.k(), shape.d_model, "weight height mismatch");
        assert_eq!(w.n(), shape.d_model, "weight width mismatch");
    }
    let mut report = AttentionReport::default();

    // Q/K/V projections: ternary GEMMs over the shared input.
    let (q_wide, s1) = ternary_gemm(cfg, x, wq);
    let (k_wide, s2) = ternary_gemm(cfg, x, wk);
    let (v_wide, s3) = ternary_gemm(cfg, x, wv);
    add_stats(&mut report.projections, &s1);
    add_stats(&mut report.projections, &s2);
    add_stats(&mut report.projections, &s3);

    // Requantise to 8-bit activations (shift by log2(d_model)-ish).
    let shift = (shape.d_model as f64).log2() as u32;
    let q = requantize(&q_wide, shift, 127);
    let k = requantize(&k_wide, shift, 127);
    let v = requantize(&v_wide, shift, 127);

    // Scores = Q · Kᵀ (integer×integer: Kᵀ is the in-memory operand).
    let kt: Vec<Vec<i64>> = (0..shape.d_model)
        .map(|j| k.iter().map(|row| row[j]).collect())
        .collect();
    let (scores_wide, s4) = int_int_gemm(cfg, &q, &kt);
    add_stats(&mut report.scores, &s4);
    let scores = requantize(&scores_wide, shift, 255);

    // Host-side softmax proxy, then context = P · V.
    let probs = shift_normalize(&scores);
    let (context, s5) = int_int_gemm(cfg, &probs, &v);
    add_stats(&mut report.context, &s5);

    (context, report)
}

/// Bit-exact host reference of [`attention_block`] (same quantisation
/// and softmax proxy, plain integer arithmetic).
///
/// # Panics
///
/// Panics on the same dimension mismatches as [`attention_block`].
#[cfg(test)]
fn reference_attention(
    x: &[Vec<i64>],
    wq: &TernaryMatrix,
    wk: &TernaryMatrix,
    wv: &TernaryMatrix,
    shape: &AttentionShape,
) -> Vec<Vec<i128>> {
    let project = |w: &TernaryMatrix| -> Vec<Vec<i128>> {
        x.iter()
            .map(|row| {
                w.reference_gemv(row)
                    .iter()
                    .map(|&v| i128::from(v))
                    .collect()
            })
            .collect()
    };
    let shift = (shape.d_model as f64).log2() as u32;
    let q = requantize(&project(wq), shift, 127);
    let k = requantize(&project(wk), shift, 127);
    let v = requantize(&project(wv), shift, 127);
    let matmul = |a: &[Vec<i64>], b: &[Vec<i64>]| -> Vec<Vec<i128>> {
        let n = b[0].len();
        a.iter()
            .map(|row| {
                (0..n)
                    .map(|j| {
                        row.iter()
                            .zip(b)
                            .map(|(&ai, brow)| i128::from(ai) * i128::from(brow[j]))
                            .sum()
                    })
                    .collect()
            })
            .collect()
    };
    let kt: Vec<Vec<i64>> = (0..shape.d_model)
        .map(|j| k.iter().map(|row| row[j]).collect())
        .collect();
    let scores = requantize(&matmul(&q, &kt), shift, 255);
    let probs = shift_normalize(&scores);
    matmul(&probs, &v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn cfg() -> KernelConfig {
        KernelConfig::compact()
    }

    fn random_image(shape: &ConvShape, rng: &mut ChaCha12Rng) -> Image {
        (0..shape.in_channels)
            .map(|_| {
                (0..shape.in_h)
                    .map(|_| (0..shape.in_w).map(|_| rng.gen_range(0..16)).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn conv_shape_geometry() {
        let s = ConvShape {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            in_h: 8,
            in_w: 8,
            stride: 1,
            padding: 1,
        };
        assert_eq!(s.out_h(), 8);
        assert_eq!(s.out_w(), 8);
        assert_eq!(s.gemm_k(), 27);
        assert_eq!(s.gemm_m(), 64);
        assert_eq!(s.macs(), 64 * 27 * 8);
    }

    #[test]
    fn strided_valid_convolution_geometry() {
        let s = ConvShape {
            in_channels: 1,
            out_channels: 1,
            kernel: 5,
            in_h: 32,
            in_w: 32,
            stride: 2,
            padding: 0,
        };
        assert_eq!(s.out_h(), 14);
        assert_eq!(s.out_w(), 14);
    }

    #[test]
    fn im2col_unit_kernel_is_identity() {
        let s = ConvShape {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            in_h: 2,
            in_w: 3,
            stride: 1,
            padding: 0,
        };
        let img: Image = vec![vec![vec![1, 2, 3], vec![4, 5, 6]]];
        let x = im2col(&img, &s);
        assert_eq!(
            x,
            vec![vec![1], vec![2], vec![3], vec![4], vec![5], vec![6]]
        );
    }

    #[test]
    fn im2col_padding_contributes_zeros() {
        let s = ConvShape {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            in_h: 2,
            in_w: 2,
            stride: 1,
            padding: 1,
        };
        let img: Image = vec![vec![vec![1, 2], vec![3, 4]]];
        let x = im2col(&img, &s);
        // Top-left position: only the bottom-right 2x2 of the window is
        // in bounds.
        assert_eq!(x[0], vec![0, 0, 0, 0, 1, 2, 0, 3, 4]);
        assert_eq!(x.len(), 4);
    }

    #[test]
    fn conv2d_matches_reference() {
        let mut rng = ChaCha12Rng::seed_from_u64(31);
        let shape = ConvShape {
            in_channels: 2,
            out_channels: 4,
            kernel: 3,
            in_h: 6,
            in_w: 6,
            stride: 1,
            padding: 1,
        };
        let img = random_image(&shape, &mut rng);
        let w = TernaryMatrix::random(shape.gemm_k(), shape.out_channels, 0.6, &mut rng);
        let got = conv2d_ternary(&cfg(), &img, &w, &shape);
        let want = reference_conv2d(&img, &w, &shape);
        assert_eq!(got.output, want);
        assert!(got.stats.ambit_ops > 0);
    }

    #[test]
    fn conv2d_strided_matches_reference() {
        let mut rng = ChaCha12Rng::seed_from_u64(37);
        let shape = ConvShape {
            in_channels: 1,
            out_channels: 3,
            kernel: 5,
            in_h: 12,
            in_w: 12,
            stride: 2,
            padding: 0,
        };
        let img = random_image(&shape, &mut rng);
        let w = TernaryMatrix::random(shape.gemm_k(), shape.out_channels, 0.5, &mut rng);
        let got = conv2d_ternary(&cfg(), &img, &w, &shape);
        assert_eq!(got.output, reference_conv2d(&img, &w, &shape));
    }

    #[test]
    fn sparse_images_cost_fewer_ops() {
        let mut rng = ChaCha12Rng::seed_from_u64(41);
        let shape = ConvShape {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            in_h: 8,
            in_w: 8,
            stride: 1,
            padding: 0,
        };
        let dense = random_image(&shape, &mut rng);
        let mut sparse = dense.clone();
        for row in &mut sparse[0] {
            for (i, v) in row.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0;
                }
            }
        }
        let w = TernaryMatrix::random(shape.gemm_k(), shape.out_channels, 0.6, &mut rng);
        let d = conv2d_ternary(&cfg(), &dense, &w, &shape);
        let s = conv2d_ternary(&cfg(), &sparse, &w, &shape);
        assert!(s.stats.ambit_ops < d.stats.ambit_ops);
    }

    #[test]
    fn attention_block_matches_reference() {
        let mut rng = ChaCha12Rng::seed_from_u64(43);
        let shape = AttentionShape {
            seq_len: 6,
            d_model: 8,
        };
        let x: Vec<Vec<i64>> = (0..shape.seq_len)
            .map(|_| (0..shape.d_model).map(|_| rng.gen_range(-8..8)).collect())
            .collect();
        let wq = TernaryMatrix::random(8, 8, 0.7, &mut rng);
        let wk = TernaryMatrix::random(8, 8, 0.7, &mut rng);
        let wv = TernaryMatrix::random(8, 8, 0.7, &mut rng);
        let (got, report) = attention_block(&cfg(), &x, &wq, &wk, &wv, &shape);
        let want = reference_attention(&x, &wq, &wk, &wv, &shape);
        assert_eq!(got, want);
        assert!(report.projections.ambit_ops > 0);
    }

    #[test]
    fn attention_probabilities_are_bounded() {
        let scores = vec![vec![100i64, 50, 0], vec![5, 5, 5]];
        let probs = shift_normalize(&scores);
        for row in &probs {
            for &p in row {
                assert!((0..=64).contains(&p));
            }
            assert!(row.iter().sum::<i64>() <= 64 * 3);
        }
    }

    #[test]
    #[should_panic(expected = "weight rows")]
    fn conv_dimension_mismatch_panics() {
        let shape = ConvShape {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            in_h: 4,
            in_w: 4,
            stride: 1,
            padding: 0,
        };
        let img: Image = vec![vec![vec![0; 4]; 4]];
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let w = TernaryMatrix::random(5, 1, 0.5, &mut rng);
        let _ = conv2d_ternary(&KernelConfig::compact(), &img, &w, &shape);
    }
}
