//! Per-technology cost models for bulk-bitwise logic.
//!
//! §4.6 of the paper extends in-memory counting beyond Ambit to any
//! functionally complete bulk-bitwise substrate, quoting per-increment op
//! counts of `7n+7` (Ambit, optimised μProgram of Fig. 6b), `3n+4` + 3
//! (Pinatubo-style non-stateful logic, Fig. 10a) and `6n+4` (MAGIC's
//! NOR-only logic, Fig. 10b). This module captures what one *logic gate*
//! costs on each technology so the generic [`crate::machine::LogicMachine`]
//! can count device operations for any program.

use crate::machine::LogicOp;
use serde::{Deserialize, Serialize};

/// The CIM technologies modelled in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Ambit-style DRAM: MAJ3 via triple-row activation, NOT via DCC.
    /// Costs below are for *generic* gate lowering; the optimised counting
    /// path uses hand-scheduled μPrograms (see `c2m-jc`) instead.
    Ambit,
    /// FCDRAM: AND/OR via APA with fractional reference rows in the
    /// neighbouring subarray; NOT by writing the negated value across
    /// subarrays plus the copy-back the paper requires (§2.2).
    Fcdram,
    /// Pinatubo-style non-stateful NVM logic: AND/OR/NOT/XOR computed in
    /// the sense amplifiers in a single read-like operation each.
    Pinatubo,
    /// MAGIC: stateful memristive logic with NOR as the only primitive.
    Magic,
}

impl Backend {
    /// All supported backends, for sweeps.
    pub const ALL: [Backend; 4] = [
        Backend::Ambit,
        Backend::Fcdram,
        Backend::Pinatubo,
        Backend::Magic,
    ];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ambit => "Ambit",
            Backend::Fcdram => "FCDRAM",
            Backend::Pinatubo => "Pinatubo",
            Backend::Magic => "MAGIC",
        }
    }

    /// The cost model for this backend.
    #[must_use]
    pub fn cost_model(self) -> CostModel {
        CostModel { backend: self }
    }

    /// Device operations for one generic masked unit increment (with
    /// overflow check) of an `n`-bit Johnson counter on this backend —
    /// the §4.6 ablation, measured by running the Fig. 10a gate program
    /// on a [`crate::machine::LogicMachine`] with this backend's
    /// [`CostModel`], after one `not` that stages the mask complement
    /// `!m` (so Pinatubo reads `3n + 6`: the program's `3n + 5` plus
    /// that staging op).
    ///
    /// This is the *generic* gate-network lowering. For Ambit the
    /// hand-scheduled Fig. 6b μProgram (`7n + 7`, see
    /// `c2m_jc::ambit_lower`) is cheaper; heterogeneous shard dispatch
    /// therefore prices a non-Ambit backend by the ratio of its generic
    /// increment cost to Ambit's optimised `7n + 7`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn increment_ops(self, n: usize) -> u64 {
        use crate::machine::LogicMachine;
        use crate::programs::{pinatubo_unit_increment, CountingLayout};
        use crate::row::Row;

        assert!(n > 0, "a counter needs at least one bit");
        let width = 1; // op counts are width-independent
        let lay = CountingLayout::dense(n, 0);
        let mut m = LogicMachine::new(self, width, CountingLayout::rows_needed(n));
        m.write(lay.mask, &Row::ones(width));
        // Stage the mask complement `!m`, charged to every increment.
        m.not(lay.mask, lay.not_mask);
        pinatubo_unit_increment(&mut m, &lay);
        m.ops()
    }
}

/// Device-operation cost of each logic gate on a given backend.
///
/// A "device operation" is the unit each technology's literature counts:
/// AAP/AP macro commands for DRAM designs, read-like sense operations for
/// Pinatubo, NOR pulses for MAGIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    backend: Backend,
}

impl CostModel {
    /// The backend this model describes.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Cost of one gate, in device operations.
    #[must_use]
    pub fn cost(&self, op: LogicOp) -> u64 {
        match self.backend {
            // Generic Ambit lowering: a 2-input gate needs three operand
            // AAPs into the B-group (two operands + control row) plus the
            // TRA and a result copy-out — 4 AAP + 1 AP when the result can
            // stay in the B-group, 5 otherwise. We charge the standard
            // 4-command sequence from the Ambit paper (operands + control
            // + TRA fused into AAP of the triple address).
            Backend::Ambit => match op {
                LogicOp::Copy => 1,
                LogicOp::Not => 2, // AAP src->B8 ; AAP DCC0->dst
                LogicOp::And | LogicOp::Or => 4,
                LogicOp::Maj3 => 4, // 3 operand AAPs + AAP(triple, dst)
                LogicOp::Nor => 6,  // OR + NOT
                LogicOp::Xor => 10, // 2 AND + 1 OR with negated operands
            },
            // FCDRAM: operands must sit in the subarray adjacent to the
            // reference rows, so a 2-input gate costs two operand copies
            // plus the APA; NOT is an APA plus the copy-back of §2.2.
            Backend::Fcdram => match op {
                LogicOp::Copy => 1,
                LogicOp::Not => 2,
                LogicOp::And | LogicOp::Or => 3,
                LogicOp::Maj3 => 7, // synthesised from AND/OR
                LogicOp::Nor => 5,  // OR + NOT
                LogicOp::Xor => 11,
            },
            // Pinatubo: every bulk gate is one sense-amplifier operation.
            Backend::Pinatubo => match op {
                LogicOp::Copy => 1,
                LogicOp::Not => 1,
                LogicOp::And | LogicOp::Or | LogicOp::Xor => 1,
                LogicOp::Nor => 1,
                LogicOp::Maj3 => 3,
            },
            // MAGIC: NOR is native; everything else is a NOR network.
            Backend::Magic => match op {
                LogicOp::Copy => 2, // NOR(a,a)=!a twice
                LogicOp::Not => 1,
                LogicOp::Nor => 1,
                LogicOp::Or => 2,  // NOR + NOT
                LogicOp::And => 3, // NOR(!a, !b)
                LogicOp::Xor => 5,
                LogicOp::Maj3 => 9,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinatubo_single_op_gates() {
        let m = Backend::Pinatubo.cost_model();
        assert_eq!(m.cost(LogicOp::And), 1);
        assert_eq!(m.cost(LogicOp::Or), 1);
        assert_eq!(m.cost(LogicOp::Not), 1);
    }

    #[test]
    fn magic_nor_is_cheapest() {
        let m = Backend::Magic.cost_model();
        assert_eq!(m.cost(LogicOp::Nor), 1);
        assert!(m.cost(LogicOp::And) > m.cost(LogicOp::Nor));
    }

    #[test]
    fn ambit_generic_gate_cost() {
        let m = Backend::Ambit.cost_model();
        assert_eq!(m.cost(LogicOp::And), 4);
        assert_eq!(m.cost(LogicOp::Copy), 1);
    }

    #[test]
    fn all_backends_have_names() {
        for b in Backend::ALL {
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn increment_ops_tracks_the_4_6_anchors() {
        // Pinatubo's non-stateful gates make the Fig. 10a program cost
        // ~3n+7 (3n+4 counting + 3 overflow); the generic Ambit network
        // is an upper bound well above the optimised 7n+7 μProgram.
        for n in [2usize, 5, 8] {
            // 3(n-1) shift ops + 3 feedback + 3 overflow + 3 setup = 3n+6
            // (the `!m` staging op is charged here but amortised in the
            // paper's 3n+4+3 quote).
            let pin = Backend::Pinatubo.increment_ops(n);
            assert_eq!(pin, 3 * n as u64 + 6, "pinatubo at n={n}");
            let ambit = Backend::Ambit.increment_ops(n);
            assert!(ambit > 7 * n as u64 + 7, "generic > optimised at n={n}");
        }
    }

    #[test]
    fn increment_ops_grows_with_n() {
        for b in Backend::ALL {
            assert!(b.increment_ops(8) > b.increment_ops(2), "{}", b.name());
        }
    }

    #[test]
    fn pinatubo_cheapest_generic_ambit_dearest() {
        // The ordering heterogeneous dispatch relies on: single-op
        // sense-amp gates beat everything, and generic Ambit lowering
        // (4-op AND/OR via B-group staging) is the dearest — FCDRAM's
        // 3-op gates sit between. Dispatch prices non-Ambit backends
        // against Ambit's *optimised* 7n+7 μProgram, which undercuts
        // both generic DRAM lowerings.
        let n = 5;
        let costs: Vec<u64> = Backend::ALL.iter().map(|b| b.increment_ops(n)).collect();
        let pin = Backend::Pinatubo.increment_ops(n);
        assert!(costs.iter().all(|&c| c >= pin));
        assert!(Backend::Fcdram.increment_ops(n) < Backend::Ambit.increment_ops(n));
        assert!(Backend::Fcdram.increment_ops(n) > 7 * n as u64 + 7);
    }
}
