//! Bit-serial MAJ-based ripple-carry accumulation (the SIMDRAM primitive).
//!
//! State-of-the-art bit-serial CIM designs add element-parallel vectors
//! through a ripple-carry adder built from majority gates: per bit,
//! `carry' = MAJ(a, b, carry)` and `sum = MAJ(¬carry', MAJ(a, b, ¬carry),
//! carry)`. The accumulator is stored bit-sliced: bit `i` of every lane
//! lives in row `i`. Unlike the Johnson-counter path, *every* addition
//! processes the full accumulator width — the long carry chains §3 of
//! the paper blames for both latency and fault amplification.

use c2m_cim::{Backend, FaultModel, LogicMachine, Row};

/// Row-parallel W-bit binary accumulator with MAJ-based ripple-carry
/// addition and fault injection.
#[derive(Debug, Clone)]
pub struct RcaAccumulator {
    width_bits: usize,
    lanes: usize,
    machine: LogicMachine,
}

/// Row-register layout inside the machine:
///   0..W               accumulator bit rows
///   W..2W              addend bit rows (broadcast value or masked value)
///   2W                 carry row
///   2W+1..2W+5         scratch
const SCRATCH: usize = 5;

impl RcaAccumulator {
    /// Creates a fault-free accumulator: `lanes` parallel `width_bits`-bit
    /// binary counters.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is 0 or > 127, or `lanes` is 0.
    #[must_use]
    pub fn new(width_bits: usize, lanes: usize) -> Self {
        Self::with_faults(width_bits, lanes, FaultModel::fault_free())
    }

    /// Creates an accumulator whose MAJ operations fault at the model's
    /// rate.
    #[must_use]
    pub fn with_faults(width_bits: usize, lanes: usize, faults: FaultModel) -> Self {
        assert!((1..=127).contains(&width_bits), "width must be 1..=127");
        assert!(lanes > 0, "need at least one lane");
        let rows = 2 * width_bits + 1 + SCRATCH;
        Self {
            width_bits,
            lanes,
            machine: LogicMachine::with_faults(Backend::Ambit, lanes, rows, faults),
        }
    }

    /// Accumulator width in bits.
    #[must_use]
    pub fn width_bits(&self) -> usize {
        self.width_bits
    }

    /// Number of parallel lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Device operations (Ambit AAP-equivalents) charged so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.machine.ops()
    }

    /// Host-writes lane `l` to `value` (truncated to the width).
    pub fn set(&mut self, l: usize, value: u128) {
        for i in 0..self.width_bits {
            let mut row = self.machine.read(i).clone();
            row.set(l, (value >> i) & 1 == 1);
            self.machine.write(i, &row);
        }
    }

    /// Reads lane `l`.
    #[must_use]
    pub fn get(&self, l: usize) -> u128 {
        let mut v = 0u128;
        for i in 0..self.width_bits {
            if self.machine.read(i).get(l) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Adds `value` to every lane selected by `mask` (masked broadcast
    /// addition — the SIMDRAM analogue of a masked counter accumulate).
    ///
    /// # Panics
    ///
    /// Panics if the mask width differs from the lane count.
    pub fn add_masked(&mut self, value: u128, mask: &Row) {
        assert_eq!(mask.width(), self.lanes, "mask width mismatch");
        let w = self.width_bits;
        // Stage the masked addend rows: row W+i = mask if bit i of value.
        for i in 0..w {
            if (value >> i) & 1 == 1 {
                self.machine.write(w + i, mask);
            } else {
                self.machine.clear(w + i);
            }
        }
        self.ripple_add();
    }

    /// Adds a per-lane bit-sliced addend already staged in rows `W..2W`
    /// through the ripple-carry chain. Exposed for vector+vector tests.
    pub fn ripple_add(&mut self) {
        let w = self.width_bits;
        let carry = 2 * w;
        let s0 = 2 * w + 1; // not carry'
        let s1 = 2 * w + 2; // not carry_in
        let s2 = 2 * w + 3; // maj(a, b, !carry_in)
        let s3 = 2 * w + 4; // new carry before commit
        self.machine.clear(carry);
        for i in 0..w {
            let a = i;
            let b = w + i;
            // carry' = MAJ(a, b, carry)
            self.machine.maj3(a, b, carry, s3);
            // sum = MAJ(!carry', MAJ(a, b, !carry), carry)
            self.machine.not(s3, s0);
            self.machine.not(carry, s1);
            self.machine.maj3(a, b, s1, s2);
            self.machine.maj3(s0, s2, carry, a);
            // commit carry
            self.machine.copy(s3, carry);
        }
        // Final carry out is dropped (fixed-width accumulator).
    }

    /// Root-mean-squared error of the lanes against expected values.
    ///
    /// # Panics
    ///
    /// Panics if `expected.len() != lanes`.
    #[must_use]
    pub fn rmse(&self, expected: &[u128]) -> f64 {
        assert_eq!(expected.len(), self.lanes, "expected length mismatch");
        let mut acc = 0.0f64;
        for (l, &e) in expected.iter().enumerate() {
            let d = self.get(l) as f64 - e as f64;
            acc += d * d;
        }
        (acc / self.lanes as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2m_cim::{CostModel, LogicOp};
    use proptest::prelude::*;

    #[test]
    fn addition_is_exact_when_fault_free() {
        let mut acc = RcaAccumulator::new(16, 8);
        let mask = Row::ones(8);
        let values = [3u128, 1000, 65000, 7, 12, 99, 0, 535];
        let mut expect = 0u128;
        for &v in &values {
            acc.add_masked(v, &mask);
            expect = (expect + v) % (1 << 16);
        }
        for l in 0..8 {
            assert_eq!(acc.get(l), expect, "lane {l}");
        }
    }

    #[test]
    fn masked_addition_skips_unmasked_lanes() {
        let mut acc = RcaAccumulator::new(8, 4);
        let mask = Row::from_bits([true, false, true, false]);
        acc.add_masked(10, &mask);
        assert_eq!(acc.get(0), 10);
        assert_eq!(acc.get(1), 0);
        assert_eq!(acc.get(2), 10);
        assert_eq!(acc.get(3), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut acc = RcaAccumulator::new(32, 4);
        acc.set(2, 0xDEAD_BEEF);
        assert_eq!(acc.get(2), 0xDEAD_BEEF);
        assert_eq!(acc.get(0), 0);
    }

    #[test]
    fn wraps_at_width() {
        let mut acc = RcaAccumulator::new(8, 1);
        acc.set(0, 250);
        acc.add_masked(10, &Row::ones(1));
        assert_eq!(acc.get(0), (250 + 10) % 256);
    }

    #[test]
    fn op_cost_scales_with_width_not_value() {
        let mut a = RcaAccumulator::new(32, 4);
        let mask = Row::ones(4);
        a.add_masked(1, &mask);
        let one = a.ops();
        a.add_masked(u32::MAX as u128, &mask);
        assert_eq!(a.ops(), 2 * one, "RCA cost must be value-independent");

        let mut b = RcaAccumulator::new(64, 4);
        b.add_masked(1, &mask);
        assert!(b.ops() > one, "wider accumulator costs more per add");
    }

    #[test]
    fn faults_corrupt_high_order_bits() {
        // §3: RCA faults can perturb high-order bits of the accumulated
        // value because every addition exercises the full carry chain.
        let mut acc = RcaAccumulator::with_faults(32, 256, FaultModel::new(1e-3, 3));
        let mask = Row::ones(256);
        for _ in 0..50 {
            acc.add_masked(9, &mask);
        }
        let rmse = acc.rmse(&vec![450u128; 256]);
        assert!(rmse > 0.0, "faults must perturb some lane");
        // Some lane should be off by more than a JC single-digit slip.
        let max_err = (0..256)
            .map(|l| (acc.get(l) as i128 - 450).unsigned_abs())
            .max()
            .unwrap();
        assert!(
            max_err > 10,
            "expected high-order corruption, max {max_err}"
        );
    }

    #[test]
    fn fault_free_rmse_is_zero() {
        let mut acc = RcaAccumulator::new(16, 4);
        acc.add_masked(7, &Row::ones(4));
        assert_eq!(acc.rmse(&[7u128; 4]), 0.0);
    }

    /// The allocating accumulator that `add_masked` replaced, on the
    /// allocating gate bodies: each gate returns a fresh row, compute
    /// results are perturbed, then assigned.
    struct Oracle {
        width_bits: usize,
        lanes: usize,
        rows: Vec<Row>,
        fault: FaultModel,
        cost: CostModel,
        ops: u64,
    }

    impl Oracle {
        fn new(width_bits: usize, lanes: usize, fault: FaultModel) -> Self {
            Self {
                width_bits,
                lanes,
                rows: vec![Row::zeros(lanes); 2 * width_bits + 1 + SCRATCH],
                fault,
                cost: Backend::Ambit.cost_model(),
                ops: 0,
            }
        }

        fn maj3(&mut self, a: usize, b: usize, c: usize, dst: usize) {
            let mut v = Row::maj3(&self.rows[a], &self.rows[b], &self.rows[c]);
            self.fault.perturb(&mut v);
            self.rows[dst] = v;
            self.ops += self.cost.cost(LogicOp::Maj3);
        }

        fn not(&mut self, src: usize, dst: usize) {
            self.rows[dst] = self.rows[src].not();
            self.ops += self.cost.cost(LogicOp::Not);
        }

        fn copy(&mut self, src: usize, dst: usize) {
            self.rows[dst] = self.rows[src].clone();
            self.ops += self.cost.cost(LogicOp::Copy);
        }

        fn add_masked(&mut self, value: u128, mask: &Row) {
            let w = self.width_bits;
            for i in 0..w {
                self.rows[w + i] = if (value >> i) & 1 == 1 {
                    mask.clone()
                } else {
                    Row::zeros(self.lanes)
                };
            }
            let (carry, s0, s1, s2, s3) = (2 * w, 2 * w + 1, 2 * w + 2, 2 * w + 3, 2 * w + 4);
            self.rows[carry] = Row::zeros(self.lanes);
            for i in 0..w {
                let (a, b) = (i, w + i);
                self.maj3(a, b, carry, s3);
                self.not(s3, s0);
                self.not(carry, s1);
                self.maj3(a, b, s1, s2);
                self.maj3(s0, s2, carry, a);
                self.copy(s3, carry);
            }
        }
    }

    /// A seeded lane mask: all ones for one seed in four.
    fn mask(lanes: usize, seed: u64) -> Row {
        if seed.is_multiple_of(4) {
            return Row::ones(lanes);
        }
        let mut m = Row::zeros(lanes);
        FaultModel::new(0.5, seed).perturb(&mut m);
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Masked adds leave the in-place accumulator exactly where the
        /// allocating one ends: same rows, op count and fault count.
        #[test]
        fn add_masked_matches_the_allocating_adder(
            width_bits in prop::sample::select(vec![8usize, 32]),
            (pick, any) in (0usize..8, 1usize..=300),
            rate in prop::sample::select(vec![0.0, 1e-3, 0.1, 1.0]),
            seed in 0u64..1000,
            adds in prop::collection::vec((0u64..u64::MAX, 0u64..1000), 1..12),
        ) {
            let lanes = [63, 64, 65, 128].get(pick).copied().unwrap_or(any);
            let mut got = RcaAccumulator::with_faults(width_bits, lanes, FaultModel::new(rate, seed));
            let mut want = Oracle::new(width_bits, lanes, FaultModel::new(rate, seed));
            for (value, mask_seed) in adds {
                let mask = mask(lanes, mask_seed);
                got.add_masked(u128::from(value), &mask);
                want.add_masked(u128::from(value), &mask);
                for (r, row) in want.rows.iter().enumerate() {
                    prop_assert_eq!(got.machine.read(r), row, "row {}", r);
                }
                prop_assert_eq!(got.ops(), want.ops);
                prop_assert_eq!(got.machine.faults_injected(), want.fault.injected());
            }
        }
    }
}
