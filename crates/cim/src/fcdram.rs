//! FCDRAM — functionally complete logic in off-the-shelf DRAM (§2.2).
//!
//! FCDRAM (Yuksel et al., HPCA 2024) performs Boolean functions in
//! unmodified DRAM chips with carefully timed command sequences. The key
//! sequence is **APA** (activate–precharge–activate), which activates
//! rows in *neighbouring subarrays that share sense amplifiers*. One
//! subarray holds two reference rows initialised to fractional values
//! (FracDRAM): `Vdd` + `Vdd/2` for AND, `Gnd` + `Vdd/2` for OR; the other
//! holds the operand rows A and B. Charge sharing across the four rows
//! biases the sense amplifier so that it latches `A AND B` or `A OR B`.
//!
//! NOT is obtained by writing the negated value of a source row into the
//! neighbouring subarray; Count2Multiply additionally requires copying
//! the inverted result *back* to the original subarray (§2.2), which this
//! model charges explicitly. Like all COTS multi-row operations, the
//! activated operand rows are destroyed (overwritten with the result).

use crate::fault::FaultModel;
use crate::row::Row;
use c2m_dram::{CommandKind, CommandStats};
use serde::{Deserialize, Serialize};

/// Reference-row charge configuration for an APA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefConfig {
    /// `Vdd` + `Vdd/2`: the sense amplifier latches AND.
    And,
    /// `Gnd` + `Vdd/2`: the sense amplifier latches OR.
    Or,
}

/// A pair of neighbouring subarrays sharing sense amplifiers, with the
/// FCDRAM command repertoire.
#[derive(Debug, Clone)]
pub struct FcdramPair {
    width: usize,
    /// "Compute" subarray rows (holds operands A/B during APA).
    upper: Vec<Row>,
    /// Neighbour subarray rows (holds reference rows / NOT destinations).
    lower: Vec<Row>,
    fault: FaultModel,
    stats: CommandStats,
}

impl FcdramPair {
    /// Creates a subarray pair with `rows` zeroed rows each.
    #[must_use]
    pub fn new(width: usize, rows: usize) -> Self {
        Self::with_faults(width, rows, FaultModel::fault_free())
    }

    /// Creates a pair with fault injection on APA results (§2.3: COTS
    /// multi-row activation is the least reliable CIM primitive, with
    /// experimentally observed error rates up to 10⁻¹).
    #[must_use]
    pub fn with_faults(width: usize, rows: usize, fault: FaultModel) -> Self {
        Self {
            width,
            upper: vec![Row::zeros(width); rows],
            lower: vec![Row::zeros(width); rows],
            fault,
            stats: CommandStats::default(),
        }
    }

    /// Column count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Commands issued so far.
    #[must_use]
    pub fn stats(&self) -> &CommandStats {
        &self.stats
    }

    /// Host write into the compute subarray.
    ///
    /// # Panics
    ///
    /// Panics on row/width mismatch.
    pub fn write_upper(&mut self, row: usize, v: &Row) {
        assert_eq!(v.width(), self.width, "row width mismatch");
        self.upper[row] = v.clone();
    }

    /// Reads a compute-subarray row.
    #[must_use]
    pub fn read_upper(&self, row: usize) -> &Row {
        &self.upper[row]
    }

    /// APA two-input logic: computes `a ⊙ b` (per `cfg`) between compute
    /// rows `a` and `b`, leaving the result in both operand rows
    /// (destructive) and returning a copy. One APA macro command.
    pub fn apa_logic(&mut self, cfg: RefConfig, a: usize, b: usize) -> Row {
        let mut r = match cfg {
            RefConfig::And => self.upper[a].and(&self.upper[b]),
            RefConfig::Or => self.upper[a].or(&self.upper[b]),
        };
        self.fault.perturb(&mut r);
        self.upper[a] = r.clone();
        self.upper[b] = r.clone();
        self.stats.record(CommandKind::Apa);
        r
    }

    /// NOT across subarrays: writes `!src` (a compute row) into neighbour
    /// row `dst`. One APA command. Only DRAMs built from true cells
    /// support this (paper footnote 1); we model such a device.
    pub fn not_across(&mut self, src: usize, dst: usize) {
        // The cross-subarray negation rides on the sense-amp inversion of
        // a normal access path, so it is access-reliable (no faults).
        self.lower[dst] = self.upper[src].not();
        self.stats.record(CommandKind::Apa);
    }

    /// Copies a neighbour row back into the compute subarray (the extra
    /// step Count2Multiply needs after a NOT, §2.2). One AAP command.
    pub fn copy_back(&mut self, src: usize, dst: usize) {
        self.upper[dst] = self.lower[src].clone();
        self.stats.record(CommandKind::Aap);
    }

    /// In-subarray RowClone copy. One AAP command.
    pub fn copy_upper(&mut self, src: usize, dst: usize) {
        self.upper[dst] = self.upper[src].clone();
        self.stats.record(CommandKind::Aap);
    }

    /// Full NOT with copy-back: `dst ← !src`, both in the compute
    /// subarray, costing 2 commands (APA + AAP).
    pub fn not_full(&mut self, src: usize, dst: usize) {
        self.not_across(src, 0);
        self.copy_back(0, dst);
    }

    /// The masked-update step of a Johnson counter bit on FCDRAM:
    /// `dst ← (keep ∧ !m) ∨ (take ∧ m)`, reading `keep`/`take`/`m` from
    /// compute rows and scratch rows `s0`/`s1`. Returns the command count
    /// consumed (6: one NOT+copy-back, two ANDs, one OR, plus an operand
    /// re-copy since APA destroys its inputs).
    pub fn masked_update(
        &mut self,
        keep: usize,
        take: usize,
        mask: usize,
        dst: usize,
        s0: usize,
        s1: usize,
    ) -> u64 {
        let before = self.stats.total();
        // s0 <- !m (2 cmds), preserving m: NOT reads non-destructively.
        self.not_full(mask, s0);
        // s0 <- keep & !m (destroys both: re-stage keep first).
        self.copy_upper(keep, s1);
        self.apa_logic(RefConfig::And, s1, s0);
        // s1 now holds keep&!m too (APA leaves result in both rows).
        // Stage take & m into (take_copy, mask_copy).
        self.copy_upper(take, dst);
        self.copy_upper(mask, s1);
        // Wait: s1 currently holds keep&!m; we must keep one copy — use
        // s0 as the surviving copy and s1 as mask staging.
        self.apa_logic(RefConfig::And, dst, s1);
        // OR the two partial products.
        self.apa_logic(RefConfig::Or, s0, dst);
        self.stats.total() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> FcdramPair {
        let mut p = FcdramPair::new(8, 8);
        p.write_upper(
            1,
            &Row::from_bits([true, true, false, false, true, false, true, false]),
        );
        p.write_upper(
            2,
            &Row::from_bits([true, false, true, false, false, true, true, false]),
        );
        p
    }

    #[test]
    fn apa_and_or() {
        let mut p = pair();
        let a = p.read_upper(1).clone();
        let b = p.read_upper(2).clone();
        let r = p.apa_logic(RefConfig::And, 1, 2);
        assert_eq!(r, a.and(&b));
        // Destructive: both operand rows now hold the result.
        assert_eq!(p.read_upper(1), &r);
        assert_eq!(p.read_upper(2), &r);

        let mut p = pair();
        let r = p.apa_logic(RefConfig::Or, 1, 2);
        assert_eq!(r, a.or(&b));
    }

    #[test]
    fn not_with_copy_back() {
        let mut p = pair();
        let a = p.read_upper(1).clone();
        p.not_full(1, 3);
        assert_eq!(p.read_upper(3), &a.not());
        // 2 commands: APA + AAP.
        assert_eq!(p.stats().count(c2m_dram::CommandKind::Apa), 1);
        assert_eq!(p.stats().count(c2m_dram::CommandKind::Aap), 1);
    }

    #[test]
    fn masked_update_computes_mux() {
        let mut p = FcdramPair::new(8, 10);
        let keep = Row::from_bits([true, true, false, false, true, true, false, false]);
        let take = Row::from_bits([false, true, true, false, false, true, true, false]);
        let mask = Row::from_bits([true, false, true, false, true, false, true, false]);
        p.write_upper(1, &keep);
        p.write_upper(2, &take);
        p.write_upper(3, &mask);
        let cmds = p.masked_update(1, 2, 3, 4, 5, 6);
        let expect = keep.and(&mask.not()).or(&take.and(&mask));
        assert_eq!(p.read_upper(4), &expect);
        assert!(cmds <= 8, "masked update took {cmds} commands");
    }

    #[test]
    fn faulty_apa_perturbs_results() {
        let mut p = FcdramPair::with_faults(1024, 4, FaultModel::new(1.0, 9));
        p.write_upper(1, &Row::ones(1024));
        p.write_upper(2, &Row::ones(1024));
        let r = p.apa_logic(RefConfig::And, 1, 2);
        assert_eq!(r.count_ones(), 0, "rate-1 faults flip everything");
    }

    #[test]
    fn command_accounting() {
        let mut p = pair();
        p.apa_logic(RefConfig::And, 1, 2);
        p.copy_upper(1, 3);
        assert_eq!(p.stats().macro_ops(), 2);
    }
}
