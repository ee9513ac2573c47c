//! Bit-accurate Count2Multiply kernels (§5.2).
//!
//! These kernels run on real [`CounterBank`] row state (every mask, every
//! k-ary increment, optional fault injection), so they are the ground
//! truth for correctness tests, the examples, and the fault-accuracy
//! studies of Figs. 4 and 17. Performance projections for paper-scale
//! shapes come from [`crate::engine`] instead.
//!
//! Sign handling: counters wrap modulo their capacity, so negative
//! accumulations decode two's-complement-style (values above half the
//! capacity are negative). To keep IARM's pending flags coherent, the
//! host reorders work into an addition pass followed by a subtraction
//! pass per output row — a legal reordering since accumulation commutes
//! (§5.1's host-side routine is free to schedule commands).

use crate::csd;
use crate::matrix::{BinaryMatrix, TernaryMatrix};
use c2m_cim::{FaultModel, Row};
use c2m_ecc::protect::ProtectionKind;
use c2m_jc::bank::{BankStats, CounterBank};
use c2m_jc::cost::digits_for_capacity;
use c2m_jc::iarm::{apply_plan, IarmPlanner};

/// Configuration shared by the functional kernels.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Johnson-digit radix (even; the paper's evaluation uses 4).
    pub radix: usize,
    /// Binary capacity of each accumulator (the paper uses 64-bit).
    pub capacity_bits: u32,
    /// Fault-tolerance scheme.
    pub protection: ProtectionKind,
    /// Per-op CIM fault rate (0 for exact runs).
    pub fault_rate: f64,
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Use IARM (delayed rippling) rather than full rippling.
    pub iarm: bool,
}

impl KernelConfig {
    /// The paper's evaluation configuration: radix 4, 64-bit capacity,
    /// no protection, fault-free, IARM on.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            radix: 4,
            capacity_bits: 64,
            protection: ProtectionKind::None,
            fault_rate: 0.0,
            seed: 0x5EED,
            iarm: true,
        }
    }

    /// Smaller counters for quick tests/examples.
    #[must_use]
    pub fn compact() -> Self {
        Self {
            capacity_bits: 24,
            ..Self::paper_default()
        }
    }

    fn digits(&self) -> usize {
        digits_for_capacity(self.radix, self.capacity_bits)
    }

    fn bank(&self, width: usize) -> CounterBank {
        CounterBank::with_faults(
            self.radix,
            self.digits(),
            width,
            FaultModel::new(self.fault_rate, self.seed),
            self.protection,
        )
    }
}

/// Result of a GEMV kernel: signed outputs plus execution statistics.
#[derive(Debug, Clone)]
pub struct GemvResult {
    /// Output vector (length N), decoded from the counters.
    pub y: Vec<i128>,
    /// Counter-bank statistics (increments, AAP ops, resolves).
    pub stats: BankStats,
}

/// One signed accumulation job: add `value` (may be negative) under
/// `mask`.
struct Job<'a> {
    value: i128,
    mask: &'a Row,
}

/// Runs a set of signed accumulation jobs on a fresh bank: additions
/// first, then subtractions (IARM-friendly ordering), then a flush.
fn run_jobs(cfg: &KernelConfig, width: usize, jobs: &[Job<'_>]) -> (CounterBank, BankStats) {
    let mut bank = cfg.bank(width);
    let capacity = bank.capacity();
    let clamp = |v: i128| -> u128 { (v.unsigned_abs()) % capacity };
    if cfg.iarm {
        let mut planner = IarmPlanner::new(cfg.radix, bank.digits());
        planner.assume_zero();
        for job in jobs.iter().filter(|j| j.value > 0) {
            let actions = planner.plan_add(clamp(job.value));
            apply_plan(&mut bank, &actions, job.mask);
        }
        for job in jobs.iter().filter(|j| j.value < 0) {
            let actions = planner.plan_sub(clamp(job.value));
            apply_plan(&mut bank, &actions, job.mask);
        }
        let actions = planner.flush();
        // The flush is mask-independent (it consumes O_next rows).
        let all = Row::ones(width);
        apply_plan(&mut bank, &actions, &all);
    } else {
        for job in jobs.iter().filter(|j| j.value > 0) {
            bank.accumulate_ripple(clamp(job.value), job.mask);
        }
        for job in jobs.iter().filter(|j| j.value < 0) {
            bank.subtract_ripple(clamp(job.value), job.mask);
        }
    }
    let stats = *bank.stats();
    (bank, stats)
}

/// Decodes a bank column as a signed value (two's-complement-style wrap).
fn decode_signed(bank: &CounterBank, col: usize) -> i128 {
    let cap = bank.capacity();
    let v = bank.get_nearest(col);
    if v > cap / 2 {
        v as i128 - cap as i128
    } else {
        v as i128
    }
}

fn collect(bank: &CounterBank, stats: BankStats) -> GemvResult {
    let y = (0..bank.width()).map(|c| decode_signed(bank, c)).collect();
    GemvResult { y, stats }
}

/// Integer-vector × binary-matrix GEMV (§5.2.1): `y = x · Z`.
///
/// # Panics
///
/// Panics if `x.len() != z.k()`.
#[must_use]
pub fn int_binary_gemv(cfg: &KernelConfig, x: &[i64], z: &BinaryMatrix) -> GemvResult {
    assert_eq!(x.len(), z.k(), "x length mismatch");
    let jobs: Vec<Job<'_>> = x
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &v)| Job {
            value: i128::from(v),
            mask: z.mask(i),
        })
        .collect();
    let (bank, stats) = run_jobs(cfg, z.n(), &jobs);
    collect(&bank, stats)
}

/// Integer-vector × ternary-matrix GEMV: +1 entries accumulate `x_i`,
/// −1 entries accumulate `−x_i` (§5.2.3 with ternary weights).
///
/// # Panics
///
/// Panics if `x.len() != t.k()`.
#[must_use]
pub fn ternary_gemv(cfg: &KernelConfig, x: &[i64], t: &TernaryMatrix) -> GemvResult {
    assert_eq!(x.len(), t.k(), "x length mismatch");
    let mut jobs = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        if v == 0 {
            continue;
        }
        jobs.push(Job {
            value: i128::from(v),
            mask: t.plus.mask(i),
        });
        jobs.push(Job {
            value: -i128::from(v),
            mask: t.minus.mask(i),
        });
    }
    let (bank, stats) = run_jobs(cfg, t.n(), &jobs);
    collect(&bank, stats)
}

/// Integer-vector × integer-matrix GEMV through CSD bit-slicing
/// (§5.2.3): each weight entry decomposes into ±2^e terms; each (e,
/// sign) plane is a binary mask; the host shifts the input by `e` and
/// picks increments or decrements by the sign.
///
/// # Panics
///
/// Panics if `x.len()` doesn't match the weight matrix height, or the
/// weight rows are ragged.
#[must_use]
pub fn int_int_gemv(cfg: &KernelConfig, x: &[i64], weights: &[Vec<i64>]) -> GemvResult {
    let k = weights.len();
    assert_eq!(x.len(), k, "x length mismatch");
    let n = weights[0].len();
    // Build the CSD mask planes: map (exponent, negative) -> BinaryMatrix.
    let mut planes: std::collections::BTreeMap<(u32, bool), BinaryMatrix> =
        std::collections::BTreeMap::new();
    for (r, row) in weights.iter().enumerate() {
        assert_eq!(row.len(), n, "ragged weight matrix");
        for (c, &w) in row.iter().enumerate() {
            for term in csd::recode(w) {
                planes
                    .entry((term.exponent, term.negative))
                    .or_insert_with(|| BinaryMatrix::zeros(k, n))
                    .set(r, c, true);
            }
        }
    }
    let mut jobs = Vec::new();
    for ((e, neg), plane) in &planes {
        for (i, &v) in x.iter().enumerate() {
            if v == 0 || plane.mask(i).count_ones() == 0 {
                continue;
            }
            let scaled = i128::from(v) << e;
            let value = if *neg { -scaled } else { scaled };
            jobs.push(Job {
                value,
                mask: plane.mask(i),
            });
        }
    }
    // The planes borrow from the map; materialise jobs before running.
    let (bank, stats) = run_jobs(cfg, n, &jobs);
    collect(&bank, stats)
}

/// Integer-matrix × binary-matrix GEMM (§5.2.2): rows of Y computed
/// sequentially, reusing the mask matrix Z.
#[cfg(test)]
fn int_binary_gemm(
    cfg: &KernelConfig,
    x: &[Vec<i64>],
    z: &BinaryMatrix,
) -> (Vec<Vec<i128>>, BankStats) {
    let mut out = Vec::with_capacity(x.len());
    let mut total = BankStats::default();
    for row in x {
        let r = int_binary_gemv(cfg, row, z);
        total.increments += r.stats.increments;
        total.ambit_ops += r.stats.ambit_ops;
        total.resolves += r.stats.resolves;
        out.push(r.y);
    }
    (out, total)
}

/// Integer-matrix × integer-matrix GEMM via CSD bit-slicing, row by
/// row (§5.2.3 applied per §5.2.2).
///
/// # Panics
///
/// Panics if a row of `x` doesn't match the weight matrix height.
#[must_use]
pub fn int_int_gemm(
    cfg: &KernelConfig,
    x: &[Vec<i64>],
    weights: &[Vec<i64>],
) -> (Vec<Vec<i128>>, BankStats) {
    let mut out = Vec::with_capacity(x.len());
    let mut total = BankStats::default();
    for row in x {
        let r = int_int_gemv(cfg, row, weights);
        total.increments += r.stats.increments;
        total.ambit_ops += r.stats.ambit_ops;
        total.resolves += r.stats.resolves;
        out.push(r.y);
    }
    (out, total)
}

/// Integer-matrix × ternary-matrix GEMM.
#[must_use]
pub fn ternary_gemm(
    cfg: &KernelConfig,
    x: &[Vec<i64>],
    t: &TernaryMatrix,
) -> (Vec<Vec<i128>>, BankStats) {
    let mut out = Vec::with_capacity(x.len());
    let mut total = BankStats::default();
    for row in x {
        let r = ternary_gemv(cfg, row, t);
        total.increments += r.stats.increments;
        total.ambit_ops += r.stats.ambit_ops;
        total.resolves += r.stats.resolves;
        out.push(r.y);
    }
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn cfg() -> KernelConfig {
        KernelConfig::compact()
    }

    #[test]
    fn int_binary_gemv_matches_reference() {
        let z = BinaryMatrix::from_rows(&[
            vec![true, false, true, true],
            vec![false, true, true, false],
            vec![true, true, false, false],
        ]);
        let x = vec![5i64, 200, 17];
        let got = int_binary_gemv(&cfg(), &x, &z);
        let want = z.reference_gemv(&x);
        for (g, w) in got.y.iter().zip(&want) {
            assert_eq!(*g, i128::from(*w));
        }
    }

    #[test]
    fn int_binary_gemv_random_matches_reference() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for trial in 0..5 {
            let k = 16;
            let n = 32;
            let z = BinaryMatrix::random(k, n, 0.4, &mut rng);
            let x: Vec<i64> = (0..k).map(|_| rng.gen_range(0..256)).collect();
            let got = int_binary_gemv(&cfg(), &x, &z);
            let want = z.reference_gemv(&x);
            for (c, (g, w)) in got.y.iter().zip(&want).enumerate() {
                assert_eq!(*g, i128::from(*w), "trial {trial} col {c}");
            }
        }
    }

    #[test]
    fn ternary_gemv_matches_reference_with_negatives() {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let k = 24;
        let n = 16;
        let t = TernaryMatrix::random(k, n, 0.7, &mut rng);
        let x: Vec<i64> = (0..k).map(|_| rng.gen_range(-128..128)).collect();
        let got = ternary_gemv(&cfg(), &x, &t);
        let want = t.reference_gemv(&x);
        for (c, (g, w)) in got.y.iter().zip(&want).enumerate() {
            assert_eq!(*g, i128::from(*w), "col {c}");
        }
    }

    #[test]
    fn int_int_gemv_matches_reference() {
        let mut rng = ChaCha12Rng::seed_from_u64(13);
        let k = 8;
        let n = 12;
        let weights: Vec<Vec<i64>> = (0..k)
            .map(|_| (0..n).map(|_| rng.gen_range(-128..128)).collect())
            .collect();
        let x: Vec<i64> = (0..k).map(|_| rng.gen_range(0..64)).collect();
        let got = int_int_gemv(&cfg(), &x, &weights);
        for (c, &yc) in got.y.iter().enumerate().take(n) {
            let want: i128 = (0..k)
                .map(|r| i128::from(x[r]) * i128::from(weights[r][c]))
                .sum();
            assert_eq!(yc, want, "col {c}");
        }
    }

    #[test]
    fn gemm_matches_row_by_row_reference() {
        let mut rng = ChaCha12Rng::seed_from_u64(17);
        let z = BinaryMatrix::random(8, 10, 0.5, &mut rng);
        let x: Vec<Vec<i64>> = (0..3)
            .map(|_| (0..8).map(|_| rng.gen_range(0..100)).collect())
            .collect();
        let (y, stats) = int_binary_gemm(&cfg(), &x, &z);
        assert!(stats.ambit_ops > 0);
        for (r, row) in x.iter().enumerate() {
            let want = z.reference_gemv(row);
            for c in 0..10 {
                assert_eq!(y[r][c], i128::from(want[c]), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn zero_inputs_cost_nothing() {
        // §7.2.3: Count2Multiply skips zero-value inputs entirely.
        let z = BinaryMatrix::from_rows(&[vec![true; 8], vec![true; 8]]);
        let r = int_binary_gemv(&cfg(), &[0, 0], &z);
        assert_eq!(r.stats.increments, 0);
        assert!(r.y.iter().all(|&v| v == 0));
    }

    #[test]
    fn sparser_input_costs_less() {
        let mut rng = ChaCha12Rng::seed_from_u64(23);
        let z = BinaryMatrix::random(64, 16, 0.5, &mut rng);
        let dense: Vec<i64> = (0..64).map(|_| rng.gen_range(1..256)).collect();
        let mut sparse = dense.clone();
        for v in sparse.iter_mut().step_by(2) {
            *v = 0;
        }
        let d = int_binary_gemv(&cfg(), &dense, &z);
        let s = int_binary_gemv(&cfg(), &sparse, &z);
        assert!(s.stats.ambit_ops < d.stats.ambit_ops);
    }

    #[test]
    fn iarm_config_is_cheaper_than_full_ripple() {
        let mut rng = ChaCha12Rng::seed_from_u64(29);
        let z = BinaryMatrix::random(64, 8, 0.5, &mut rng);
        let x: Vec<i64> = (0..64).map(|_| rng.gen_range(1..256)).collect();
        let with = int_binary_gemv(
            &KernelConfig {
                iarm: true,
                ..cfg()
            },
            &x,
            &z,
        );
        let without = int_binary_gemv(
            &KernelConfig {
                iarm: false,
                ..cfg()
            },
            &x,
            &z,
        );
        assert_eq!(with.y, without.y, "results must agree");
        assert!(
            with.stats.ambit_ops < without.stats.ambit_ops,
            "IARM {} should beat full ripple {}",
            with.stats.ambit_ops,
            without.stats.ambit_ops
        );
    }

    #[test]
    fn protected_kernel_costs_more_ops() {
        let z = BinaryMatrix::from_rows(&vec![vec![true; 4]; 8]);
        let x = vec![9i64; 8];
        let plain = int_binary_gemv(&cfg(), &x, &z);
        let prot = int_binary_gemv(
            &KernelConfig {
                protection: ProtectionKind::ecc_default(),
                ..cfg()
            },
            &x,
            &z,
        );
        assert_eq!(plain.y, prot.y);
        assert!(prot.stats.ambit_ops > plain.stats.ambit_ops);
    }
}
