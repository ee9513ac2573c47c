//! Full-fidelity model of the Ambit in-DRAM compute substrate (§2.2).
//!
//! Ambit divides each subarray's row-address space into three groups
//! (Fig. 1b of the paper):
//!
//! * **B-group** — eight physical rows (T0–T3 compute rows and two
//!   dual-contact cells DCC0/DCC1, each with a true and a negated
//!   wordline) reachable through 16 addresses: eight single-row, two
//!   double-row and five triple-row combinations. Activating a triple-row
//!   address performs a triple-row activation (TRA) that *destructively*
//!   replaces all three rows with their bitwise majority (MAJ3).
//! * **C-group** — two control rows hard-wired to all-zeros (`C0`) and
//!   all-ones (`C1`).
//! * **D-group** — the remaining rows, used for data (masks, counters).
//!
//! Two macro commands drive computation:
//!
//! * [`MicroOp::Aap`]`(src, dst)` — activate `src`, then activate `dst`
//!   (RowClone-style copy of the sensed value into every row selected by
//!   `dst`), then precharge.
//! * [`MicroOp::Ap`]`(addr)` — activate a triple-row address and
//!   precharge, leaving MAJ3 in all three rows.
//!
//! Per the paper's footnote 2, address **B11** is remapped to activate
//! `{T0, T1, DCC0}` (it was unused in stock Ambit); this is what enables
//! the seven-command inverted-feedback sequence of Fig. 6b.
//!
//! Faults: TRA results are perturbed by the configured [`FaultModel`]
//! (§2.3 — compute is much less reliable than access); plain copies and
//! DCC-mediated NOT behave like normal accesses and are not perturbed.

use crate::fault::FaultModel;
use crate::row::Row;
use c2m_dram::{CommandKind, CommandStats};
use serde::{Deserialize, Serialize};

/// Row addresses understood by the Ambit subarray.
///
/// Single-row addresses name one wordline; `Pair*` and `Triple*` addresses
/// activate several wordlines simultaneously. The concrete `B<n>` numbers
/// from Fig. 6b of the paper are noted on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AmbitAddr {
    /// A D-group data row.
    Data(usize),
    /// Compute row T0..T3 (B0..B3).
    T(u8),
    /// True wordline of dual-contact cell 0 or 1 (B4 = DCC0, B6 = DCC1):
    /// reads/writes the cell value directly.
    Dcc(u8),
    /// Negated wordline of DCC 0 or 1 (B5 = !DCC0, B7 = !DCC1): reading
    /// yields the complement of the cell; writing stores the complement of
    /// the driven value.
    DccNeg(u8),
    /// Control row of zeros.
    C0,
    /// Control row of ones.
    C1,
    /// B8: activates T0 and !DCC0 together — an AAP into this address
    /// leaves `src` in T0 and `!src` readable at DCC0.
    PairT0Dcc0,
    /// B9: activates T1 and !DCC1 together (T1 ← src, DCC1 reads !src).
    PairT1Dcc1,
    /// B10: activates T2 and T3 together (double copy).
    PairT2T3,
    /// B11 (remapped, paper footnote 2): TRA over {T0, T1, DCC0}.
    TripleT0T1Dcc0,
    /// B12: TRA over {T0, T1, T2}.
    TripleT0T1T2,
    /// B13: TRA over {T1, T2, T3}.
    TripleT1T2T3,
    /// B14: TRA over {T1, T2, DCC0}.
    TripleT1T2Dcc0,
    /// B15: TRA over {T0, T3, DCC1}.
    TripleT0T3Dcc1,
}

impl AmbitAddr {
    /// True if this address triggers a triple-row activation.
    #[must_use]
    pub fn is_triple(self) -> bool {
        matches!(
            self,
            AmbitAddr::TripleT0T1Dcc0
                | AmbitAddr::TripleT0T1T2
                | AmbitAddr::TripleT1T2T3
                | AmbitAddr::TripleT1T2Dcc0
                | AmbitAddr::TripleT0T3Dcc1
        )
    }
}

/// One Ambit macro command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MicroOp {
    /// Activate–activate–precharge: copy the value sensed at `src` (which
    /// may itself be a TRA computing MAJ3) into every row selected by
    /// `dst`.
    Aap(AmbitAddr, AmbitAddr),
    /// Activate–precharge on a triple-row address: in-place MAJ3.
    Ap(AmbitAddr),
}

/// A sequence of Ambit macro commands (the paper's μProgram, Fig. 6b).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroProgram {
    ops: Vec<MicroOp>,
}

impl MicroProgram {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an AAP command.
    pub fn aap(&mut self, src: AmbitAddr, dst: AmbitAddr) -> &mut Self {
        self.ops.push(MicroOp::Aap(src, dst));
        self
    }

    /// Appends an AP command.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a triple-row address.
    pub fn ap(&mut self, addr: AmbitAddr) -> &mut Self {
        assert!(addr.is_triple(), "AP requires a triple-row address");
        self.ops.push(MicroOp::Ap(addr));
        self
    }

    /// The command list.
    #[must_use]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of macro commands (the paper's "AAP operations" unit).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Concatenates another program onto this one.
    pub fn extend(&mut self, other: &MicroProgram) {
        self.ops.extend_from_slice(&other.ops);
    }
}

impl FromIterator<MicroOp> for MicroProgram {
    fn from_iter<I: IntoIterator<Item = MicroOp>>(iter: I) -> Self {
        Self {
            ops: iter.into_iter().collect(),
        }
    }
}

/// Bit-accurate Ambit subarray: D-group data rows, B-group compute rows,
/// C-group constants, with AAP/AP execution, fault injection on TRA
/// results, and command accounting.
#[derive(Debug, Clone)]
pub struct AmbitSubarray {
    width: usize,
    data: Vec<Row>,
    t: [Row; 4],
    dcc: [Row; 2],
    fault: FaultModel,
    stats: CommandStats,
}

impl AmbitSubarray {
    /// Creates a subarray with `data_rows` zeroed D-group rows of `width`
    /// columns and a fault-free compute model.
    #[must_use]
    pub fn new(width: usize, data_rows: usize) -> Self {
        Self::with_faults(width, data_rows, FaultModel::fault_free())
    }

    /// Creates a subarray with the given fault model for TRA results.
    #[must_use]
    pub fn with_faults(width: usize, data_rows: usize, fault: FaultModel) -> Self {
        Self {
            width,
            data: vec![Row::zeros(width); data_rows],
            t: std::array::from_fn(|_| Row::zeros(width)),
            dcc: std::array::from_fn(|_| Row::zeros(width)),
            fault,
            stats: CommandStats::default(),
        }
    }

    /// Column count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of D-group rows.
    #[must_use]
    pub fn data_rows(&self) -> usize {
        self.data.len()
    }

    /// Commands executed so far.
    #[must_use]
    pub fn stats(&self) -> &CommandStats {
        &self.stats
    }

    /// Total bit faults injected so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.fault.injected()
    }

    /// Reads a data row directly (host access path, not a CIM op).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn read_data(&self, row: usize) -> &Row {
        &self.data[row]
    }

    /// Writes a data row directly (host access path, not a CIM op).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `value` has the wrong width.
    pub fn write_data(&mut self, row: usize, value: &Row) {
        assert_eq!(value.width(), self.width, "row width mismatch");
        self.data[row] = value.clone();
    }

    /// Executes one macro command.
    pub fn execute_op(&mut self, op: MicroOp) {
        match op {
            MicroOp::Aap(src, dst) => {
                let v = self.activate_read(src);
                self.write_addr(dst, &v);
                self.stats.record(CommandKind::Aap);
            }
            MicroOp::Ap(addr) => {
                assert!(addr.is_triple(), "AP requires a triple-row address");
                let _ = self.activate_read(addr); // destructive TRA
                self.stats.record(CommandKind::Ap);
            }
        }
    }

    /// Executes a whole μProgram.
    pub fn execute(&mut self, prog: &MicroProgram) {
        for &op in prog.ops() {
            self.execute_op(op);
        }
    }

    /// Sensed value when activating `addr`. Triple addresses perform the
    /// destructive MAJ3 (with fault injection) as a side effect.
    fn activate_read(&mut self, addr: AmbitAddr) -> Row {
        match addr {
            AmbitAddr::Data(i) => self.data[i].clone(),
            AmbitAddr::T(i) => self.t[usize::from(i)].clone(),
            AmbitAddr::Dcc(i) => self.dcc[usize::from(i)].clone(),
            AmbitAddr::DccNeg(i) => self.dcc[usize::from(i)].not(),
            AmbitAddr::C0 => Row::zeros(self.width),
            AmbitAddr::C1 => Row::ones(self.width),
            AmbitAddr::PairT0Dcc0 => {
                // Reading a pair assumes both cells hold the same logical
                // value (as left by a prior pair write).
                self.t[0].clone()
            }
            AmbitAddr::PairT1Dcc1 => self.t[1].clone(),
            AmbitAddr::PairT2T3 => self.t[2].clone(),
            triple => {
                let (a, b, c) = self.triple_rows(triple);
                let mut m = Row::maj3(&a, &b, &c);
                self.fault.perturb(&mut m);
                self.write_triple(triple, &m);
                m
            }
        }
    }

    fn triple_rows(&self, addr: AmbitAddr) -> (Row, Row, Row) {
        match addr {
            AmbitAddr::TripleT0T1Dcc0 => {
                (self.t[0].clone(), self.t[1].clone(), self.dcc[0].clone())
            }
            AmbitAddr::TripleT0T1T2 => (self.t[0].clone(), self.t[1].clone(), self.t[2].clone()),
            AmbitAddr::TripleT1T2T3 => (self.t[1].clone(), self.t[2].clone(), self.t[3].clone()),
            AmbitAddr::TripleT1T2Dcc0 => {
                (self.t[1].clone(), self.t[2].clone(), self.dcc[0].clone())
            }
            AmbitAddr::TripleT0T3Dcc1 => {
                (self.t[0].clone(), self.t[3].clone(), self.dcc[1].clone())
            }
            _ => unreachable!("not a triple address"),
        }
    }

    fn write_triple(&mut self, addr: AmbitAddr, v: &Row) {
        match addr {
            AmbitAddr::TripleT0T1Dcc0 => {
                self.t[0] = v.clone();
                self.t[1] = v.clone();
                self.dcc[0] = v.clone();
            }
            AmbitAddr::TripleT0T1T2 => {
                self.t[0] = v.clone();
                self.t[1] = v.clone();
                self.t[2] = v.clone();
            }
            AmbitAddr::TripleT1T2T3 => {
                self.t[1] = v.clone();
                self.t[2] = v.clone();
                self.t[3] = v.clone();
            }
            AmbitAddr::TripleT1T2Dcc0 => {
                self.t[1] = v.clone();
                self.t[2] = v.clone();
                self.dcc[0] = v.clone();
            }
            AmbitAddr::TripleT0T3Dcc1 => {
                self.t[0] = v.clone();
                self.t[3] = v.clone();
                self.dcc[1] = v.clone();
            }
            _ => unreachable!("not a triple address"),
        }
    }

    fn write_addr(&mut self, addr: AmbitAddr, v: &Row) {
        match addr {
            AmbitAddr::Data(i) => self.data[i] = v.clone(),
            AmbitAddr::T(i) => self.t[usize::from(i)] = v.clone(),
            // Writing through the true wordline stores the value; through
            // the negated wordline stores its complement (so a subsequent
            // true-wordline read yields the complement of what was driven).
            AmbitAddr::Dcc(i) => self.dcc[usize::from(i)] = v.clone(),
            AmbitAddr::DccNeg(i) => self.dcc[usize::from(i)] = v.not(),
            #[expect(
                clippy::panic,
                reason = "documented hardware contract: writing a C-group control row is a program bug"
            )]
            AmbitAddr::C0 | AmbitAddr::C1 => panic!("C-group control rows are read-only"),
            AmbitAddr::PairT0Dcc0 => {
                self.t[0] = v.clone();
                self.dcc[0] = v.not();
            }
            AmbitAddr::PairT1Dcc1 => {
                self.t[1] = v.clone();
                self.dcc[1] = v.not();
            }
            AmbitAddr::PairT2T3 => {
                self.t[2] = v.clone();
                self.t[3] = v.clone();
            }
            triple => self.write_triple(triple, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(width: usize) -> AmbitSubarray {
        AmbitSubarray::new(width, 8)
    }

    #[test]
    fn rowclone_copy() {
        let mut s = sub(8);
        let v = Row::from_bits([true, false, true, true, false, false, true, false]);
        s.write_data(0, &v);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::Data(1));
        s.execute(&p);
        assert_eq!(s.read_data(1), &v);
        assert_eq!(s.stats().count(CommandKind::Aap), 1);
    }

    #[test]
    fn tra_computes_majority_destructively() {
        let mut s = sub(4);
        let a = Row::from_bits([true, true, false, false]);
        let b = Row::from_bits([true, false, true, false]);
        let c = Row::from_bits([false, true, true, false]);
        s.write_data(0, &a);
        s.write_data(1, &b);
        s.write_data(2, &c);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::T(0))
            .aap(AmbitAddr::Data(1), AmbitAddr::T(1))
            .aap(AmbitAddr::Data(2), AmbitAddr::T(2))
            .ap(AmbitAddr::TripleT0T1T2)
            .aap(AmbitAddr::T(0), AmbitAddr::Data(3));
        s.execute(&p);
        let expect = Row::maj3(&a, &b, &c);
        assert_eq!(s.read_data(3), &expect);
        assert_eq!(s.stats().count(CommandKind::Ap), 1);
        assert_eq!(s.stats().count(CommandKind::Aap), 4);
    }

    #[test]
    fn and_via_maj_with_zero_control_row() {
        let mut s = sub(4);
        let a = Row::from_bits([true, true, false, false]);
        let b = Row::from_bits([true, false, true, false]);
        s.write_data(0, &a);
        s.write_data(1, &b);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::T(0))
            .aap(AmbitAddr::Data(1), AmbitAddr::T(1))
            .aap(AmbitAddr::C0, AmbitAddr::T(2))
            .ap(AmbitAddr::TripleT0T1T2)
            .aap(AmbitAddr::T(0), AmbitAddr::Data(2));
        s.execute(&p);
        assert_eq!(s.read_data(2), &a.and(&b));
    }

    #[test]
    fn or_via_maj_with_one_control_row() {
        let mut s = sub(4);
        let a = Row::from_bits([true, true, false, false]);
        let b = Row::from_bits([true, false, true, false]);
        s.write_data(0, &a);
        s.write_data(1, &b);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::T(0))
            .aap(AmbitAddr::Data(1), AmbitAddr::T(1))
            .aap(AmbitAddr::C1, AmbitAddr::T(2))
            .ap(AmbitAddr::TripleT0T1T2)
            .aap(AmbitAddr::T(0), AmbitAddr::Data(2));
        s.execute(&p);
        assert_eq!(s.read_data(2), &a.or(&b));
    }

    #[test]
    fn not_via_dcc_pair_write() {
        let mut s = sub(4);
        let m = Row::from_bits([true, false, true, false]);
        s.write_data(0, &m);
        // AAP m, B8 : T0 <- m, DCC0 cell <- !m.
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::PairT0Dcc0)
            .aap(AmbitAddr::Dcc(0), AmbitAddr::Data(1));
        s.execute(&p);
        assert_eq!(s.read_data(1), &m.not());
    }

    #[test]
    fn not_via_negated_wordline_write() {
        // AAP O0, B5 : !DCC0 <- O0 means a later DCC0 read yields !O0.
        let mut s = sub(4);
        let o = Row::from_bits([true, true, false, false]);
        s.write_data(0, &o);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::DccNeg(0))
            .aap(AmbitAddr::Dcc(0), AmbitAddr::Data(1));
        s.execute(&p);
        assert_eq!(s.read_data(1), &o.not());
    }

    #[test]
    fn dcc_neg_read_is_complement() {
        let mut s = sub(4);
        let v = Row::from_bits([true, false, false, true]);
        s.write_data(0, &v);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::Dcc(1))
            .aap(AmbitAddr::DccNeg(1), AmbitAddr::Data(1));
        s.execute(&p);
        assert_eq!(s.read_data(1), &v.not());
    }

    #[test]
    fn remapped_b11_computes_t0_and_dcc0() {
        // Footnote 2: B11 activates {T0, T1, DCC0}. With T1 = 0 this is
        // T0 AND DCC0.
        let mut s = sub(4);
        let a = Row::from_bits([true, true, false, false]);
        let d = Row::from_bits([true, false, true, false]);
        s.write_data(0, &a);
        s.write_data(1, &d);
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::T(0))
            .aap(AmbitAddr::C0, AmbitAddr::T(1))
            .aap(AmbitAddr::Data(1), AmbitAddr::Dcc(0))
            .ap(AmbitAddr::TripleT0T1Dcc0)
            .aap(AmbitAddr::T(0), AmbitAddr::Data(2));
        s.execute(&p);
        assert_eq!(s.read_data(2), &a.and(&d));
    }

    #[test]
    fn fault_injection_only_on_tra() {
        let mut s = AmbitSubarray::with_faults(1024, 4, FaultModel::new(1.0, 1));
        let v = Row::ones(1024);
        s.write_data(0, &v);
        // A copy is never perturbed...
        let mut p = MicroProgram::new();
        p.aap(AmbitAddr::Data(0), AmbitAddr::Data(1));
        s.execute(&p);
        assert_eq!(s.read_data(1), &v);
        assert_eq!(s.faults_injected(), 0);
        // ...but a TRA with rate 1.0 flips every result bit.
        let mut p2 = MicroProgram::new();
        p2.aap(AmbitAddr::C1, AmbitAddr::T(0))
            .aap(AmbitAddr::C1, AmbitAddr::T(1))
            .aap(AmbitAddr::C1, AmbitAddr::T(2))
            .ap(AmbitAddr::TripleT0T1T2);
        s.execute(&p2);
        assert_eq!(s.faults_injected(), 1024);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn writing_control_rows_panics() {
        let mut s = sub(4);
        s.execute_op(MicroOp::Aap(AmbitAddr::Data(0), AmbitAddr::C0));
    }

    #[test]
    #[should_panic(expected = "triple-row")]
    fn ap_on_single_row_panics() {
        let mut p = MicroProgram::new();
        p.ap(AmbitAddr::T(0));
    }

    #[test]
    fn microprogram_builder_and_extend() {
        let mut a = MicroProgram::new();
        a.aap(AmbitAddr::C0, AmbitAddr::T(0));
        let mut b = MicroProgram::new();
        b.ap(AmbitAddr::TripleT0T1T2);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
