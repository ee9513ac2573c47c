//! Backend-agnostic bulk-logic machine.
//!
//! [`LogicMachine`] is a register-file-of-rows abstraction used wherever
//! the exact Ambit row choreography is not the object of study: the
//! Pinatubo/MAGIC counting programs of §4.6 (Fig. 10), the generic
//! MAJ-based ripple-carry adder that Fig. 17 uses as the RCA proxy, and
//! the protected μPrograms of Fig. 13a (written in terms of `AND`, `OR`,
//! `CP`). Each gate updates row state bit-accurately, injects faults on
//! compute results, and charges the backend's [`CostModel`].
//!
//! A gate computes into one machine-owned scratch row, perturbs it and
//! swaps it into `dst`, so `dst` may be one of the gate's inputs and no
//! gate allocates.

use crate::backend::{Backend, CostModel};
use crate::fault::FaultModel;
use crate::row::Row;
use serde::{Deserialize, Serialize};

/// Identifier of a row register inside a [`LogicMachine`].
pub type RowId = usize;

/// Logic gates the machine can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogicOp {
    /// Copy a row.
    Copy,
    /// Bitwise NOT.
    Not,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise NOR.
    Nor,
    /// Bitwise XOR.
    Xor,
    /// Columnwise 3-input majority.
    Maj3,
}

/// A bulk-bitwise logic machine over named rows.
#[derive(Debug, Clone)]
pub struct LogicMachine {
    width: usize,
    rows: Vec<Row>,
    /// Where each gate computes its result before swapping it into `dst`.
    scratch: Row,
    cost: CostModel,
    fault: FaultModel,
    ops_charged: u64,
    gate_count: u64,
}

impl LogicMachine {
    /// Creates a machine with `rows` zeroed rows of `width` columns on the
    /// given backend, fault-free.
    #[must_use]
    pub fn new(backend: Backend, width: usize, rows: usize) -> Self {
        Self::with_faults(backend, width, rows, FaultModel::fault_free())
    }

    /// Creates a machine with fault injection on compute results.
    #[must_use]
    pub fn with_faults(backend: Backend, width: usize, rows: usize, fault: FaultModel) -> Self {
        Self {
            width,
            rows: vec![Row::zeros(width); rows],
            scratch: Row::zeros(width),
            cost: backend.cost_model(),
            fault,
            ops_charged: 0,
            gate_count: 0,
        }
    }

    /// Column count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The backend being modelled.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.cost.backend()
    }

    /// Device operations charged so far (the unit of Fig. 10 comparisons).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops_charged
    }

    /// Logic gates executed so far (backend-independent count).
    #[must_use]
    pub fn gates(&self) -> u64 {
        self.gate_count
    }

    /// Bit faults injected so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.fault.injected()
    }

    /// Resets op/gate counters (row contents are preserved).
    #[cfg(test)]
    fn reset_counters(&mut self) {
        self.ops_charged = 0;
        self.gate_count = 0;
    }

    /// Reads a row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn read(&self, r: RowId) -> &Row {
        &self.rows[r]
    }

    /// Host-writes a row (not charged as a CIM op).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the width differs.
    pub fn write(&mut self, r: RowId, v: &Row) {
        self.rows[r].copy_from(v);
    }

    /// Host-clears a row to all zeros (not charged as a CIM op).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn clear(&mut self, r: RowId) {
        self.rows[r].clear();
    }

    /// `dst ← src` (charged as a copy; copies are access-reliable, so no
    /// fault injection).
    pub fn copy(&mut self, src: RowId, dst: RowId) {
        self.scratch.copy_from(&self.rows[src]);
        self.commit(dst, LogicOp::Copy);
    }

    /// `dst ← !src` (DCC-mediated on DRAM; access-reliable, no faults).
    pub fn not(&mut self, src: RowId, dst: RowId) {
        self.scratch.set_not(&self.rows[src]);
        self.commit(dst, LogicOp::Not);
    }

    /// `dst ← a & b` with fault injection on the result.
    pub fn and(&mut self, a: RowId, b: RowId, dst: RowId) {
        self.scratch.set_and(&self.rows[a], &self.rows[b]);
        self.commit_faulty(dst, LogicOp::And);
    }

    /// `dst ← a | b` with fault injection on the result.
    pub fn or(&mut self, a: RowId, b: RowId, dst: RowId) {
        self.scratch.set_or(&self.rows[a], &self.rows[b]);
        self.commit_faulty(dst, LogicOp::Or);
    }

    /// `dst ← !(a | b)` with fault injection on the result.
    pub fn nor(&mut self, a: RowId, b: RowId, dst: RowId) {
        self.scratch.set_nor(&self.rows[a], &self.rows[b]);
        self.commit_faulty(dst, LogicOp::Nor);
    }

    /// `dst ← a ^ b` with fault injection on the result.
    pub fn xor(&mut self, a: RowId, b: RowId, dst: RowId) {
        self.scratch.set_xor(&self.rows[a], &self.rows[b]);
        self.commit_faulty(dst, LogicOp::Xor);
    }

    /// `dst ← MAJ3(a, b, c)` with fault injection on the result.
    pub fn maj3(&mut self, a: RowId, b: RowId, c: RowId, dst: RowId) {
        self.scratch
            .set_maj3(&self.rows[a], &self.rows[b], &self.rows[c]);
        self.commit_faulty(dst, LogicOp::Maj3);
    }

    /// Perturbs the scratch result, then commits it like [`Self::commit`].
    fn commit_faulty(&mut self, dst: RowId, op: LogicOp) {
        self.fault.perturb(&mut self.scratch);
        self.commit(dst, op);
    }

    /// Swaps the scratch result into `dst` and charges `op`.
    fn commit(&mut self, dst: RowId, op: LogicOp) {
        std::mem::swap(&mut self.scratch, &mut self.rows[dst]);
        self.charge(op);
    }

    fn charge(&mut self, op: LogicOp) {
        self.ops_charged += self.cost.cost(op);
        self.gate_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn machine(backend: Backend) -> LogicMachine {
        let mut m = LogicMachine::new(backend, 8, 6);
        m.write(
            0,
            &Row::from_bits([true, true, false, false, true, false, true, false]),
        );
        m.write(
            1,
            &Row::from_bits([true, false, true, false, false, true, true, false]),
        );
        m
    }

    #[test]
    fn gates_compute_correctly() {
        let mut m = machine(Backend::Pinatubo);
        let a = m.read(0).clone();
        let b = m.read(1).clone();
        m.and(0, 1, 2);
        m.or(0, 1, 3);
        m.xor(0, 1, 4);
        m.not(0, 5);
        assert_eq!(m.read(2), &a.and(&b));
        assert_eq!(m.read(3), &a.or(&b));
        assert_eq!(m.read(4), &a.xor(&b));
        assert_eq!(m.read(5), &a.not());
    }

    #[test]
    fn ops_charged_per_backend() {
        let mut p = machine(Backend::Pinatubo);
        p.and(0, 1, 2);
        p.or(0, 1, 3);
        assert_eq!(p.ops(), 2);

        let mut g = machine(Backend::Magic);
        g.and(0, 1, 2);
        assert_eq!(g.ops(), 3); // NOR network
        assert_eq!(g.gates(), 1);
    }

    #[test]
    fn faults_hit_compute_not_copies() {
        let mut m = LogicMachine::with_faults(Backend::Pinatubo, 1024, 4, FaultModel::new(1.0, 3));
        m.write(0, &Row::ones(1024));
        m.copy(0, 1);
        assert_eq!(m.read(1).count_ones(), 1024);
        assert_eq!(m.faults_injected(), 0);
        m.and(0, 1, 2);
        assert_eq!(m.read(2).count_ones(), 0); // rate-1 faults flip all
        assert_eq!(m.faults_injected(), 1024);
    }

    #[test]
    fn maj3_matches_row_maj3() {
        let mut m = machine(Backend::Ambit);
        m.write(2, &Row::from_bits([true; 8]));
        let expect = Row::maj3(m.read(0), m.read(1), m.read(2));
        m.maj3(0, 1, 2, 3);
        assert_eq!(m.read(3), &expect);
    }

    /// The allocating gate body the in-place gates replaced: compute a
    /// fresh row, perturb it if it is a compute result, assign, charge.
    fn oracle_gate(m: &mut LogicMachine, op: LogicOp, ins: [RowId; 3], dst: RowId) {
        let r = |i: usize| &m.rows[ins[i]];
        let mut v = match op {
            LogicOp::Copy => r(0).clone(),
            LogicOp::Not => r(0).not(),
            LogicOp::And => r(0).and(r(1)),
            LogicOp::Or => r(0).or(r(1)),
            LogicOp::Nor => r(0).nor(r(1)),
            LogicOp::Xor => r(0).xor(r(1)),
            LogicOp::Maj3 => Row::maj3(r(0), r(1), r(2)),
        };
        if !matches!(op, LogicOp::Copy | LogicOp::Not) {
            m.fault.perturb(&mut v);
        }
        m.rows[dst] = v;
        m.charge(op);
    }

    fn gate(m: &mut LogicMachine, op: LogicOp, [a, b, c]: [RowId; 3], dst: RowId) {
        match op {
            LogicOp::Copy => m.copy(a, dst),
            LogicOp::Not => m.not(a, dst),
            LogicOp::And => m.and(a, b, dst),
            LogicOp::Or => m.or(a, b, dst),
            LogicOp::Nor => m.nor(a, b, dst),
            LogicOp::Xor => m.xor(a, b, dst),
            LogicOp::Maj3 => m.maj3(a, b, c, dst),
        }
    }

    const OPS: [LogicOp; 7] = [
        LogicOp::Copy,
        LogicOp::Not,
        LogicOp::And,
        LogicOp::Or,
        LogicOp::Nor,
        LogicOp::Xor,
        LogicOp::Maj3,
    ];

    /// Twin machines, rows 0..4 filled with seeded random bits.
    fn twins(backend: Backend, width: usize, rate: f64, seed: u64) -> [LogicMachine; 2] {
        let mut m = LogicMachine::with_faults(backend, width, 5, FaultModel::new(rate, seed));
        let mut fill = FaultModel::new(0.5, seed ^ 0xF111);
        for r in 0..4 {
            let mut row = Row::zeros(width);
            fill.perturb(&mut row);
            m.write(r, &row);
        }
        [m.clone(), m]
    }

    fn assert_same(got: &LogicMachine, want: &LogicMachine, what: &str) {
        assert_eq!(got.rows, want.rows, "{what}: rows");
        assert_eq!(got.ops(), want.ops(), "{what}: ops");
        assert_eq!(got.gates(), want.gates(), "{what}: gates");
        assert_eq!(
            got.faults_injected(),
            want.faults_injected(),
            "{what}: faults"
        );
    }

    #[test]
    fn gates_writing_over_an_input_match_the_allocating_gates() {
        for width in [1, 63, 64, 65, 128, 300] {
            for rate in [0.0, 1e-3, 0.1, 1.0] {
                for op in OPS {
                    let arity = match op {
                        LogicOp::Copy | LogicOp::Not => 1,
                        LogicOp::Maj3 => 3,
                        _ => 2,
                    };
                    let ins = [0, 1, 2];
                    // dst is each input in turn, then a row of its own.
                    for dst in ins.into_iter().take(arity).chain([4]) {
                        let [mut got, mut want] = twins(Backend::Ambit, width, rate, 7);
                        gate(&mut got, op, ins, dst);
                        oracle_gate(&mut want, op, ins, dst);
                        let what = format!("{op:?} into row {dst}, width {width}, rate {rate}");
                        assert_same(&got, &want, &what);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random gate streams, inputs and outputs freely aliased, leave
        /// the in-place machine exactly where the allocating one ends.
        #[test]
        fn gate_streams_match_the_allocating_gates(
            width in prop::sample::select(vec![1usize, 7, 63, 64, 65, 128, 300]),
            rate in prop::sample::select(vec![0.0, 1e-3, 0.1, 1.0]),
            backend in prop::sample::select(Backend::ALL.to_vec()),
            seed in 0u64..1000,
            stream in prop::collection::vec(
                (0usize..7, 0usize..5, 0usize..5, 0usize..5, 0usize..5),
                1..40,
            ),
        ) {
            let [mut got, mut want] = twins(backend, width, rate, seed);
            for (op, a, b, c, dst) in stream {
                gate(&mut got, OPS[op], [a, b, c], dst);
                oracle_gate(&mut want, OPS[op], [a, b, c], dst);
            }
            assert_same(&got, &want, "gate stream");
        }
    }

    #[test]
    fn reset_counters_preserves_rows() {
        let mut m = machine(Backend::Ambit);
        m.and(0, 1, 2);
        let saved = m.read(2).clone();
        m.reset_counters();
        assert_eq!(m.ops(), 0);
        assert_eq!(m.read(2), &saved);
    }
}
