//! SIMDRAM-style addition as explicit Ambit μPrograms.
//!
//! [`crate::rca::RcaAccumulator`] models the baseline functionally (row
//! logic with per-op costs). This module goes one level lower and
//! builds the *actual command sequence* a SIMDRAM-class design issues:
//! every full-adder stage becomes AAP/AP macro commands over Ambit's
//! B-group, executed bit-accurately on an
//! [`AmbitSubarray`] — the same substrate the
//! Count2Multiply counters run on, which makes the op-count comparison
//! apples-to-apples.
//!
//! The full adder uses the majority identities
//!
//! ```text
//! carry' = MAJ(a, b, c)
//! sum    = MAJ(!carry', MAJ(a, b, !c), c)
//! ```
//!
//! scheduled over the triple-row addresses so each stage costs 13 AAP +
//! 2 AP = 15 macro commands; a `W`-bit add costs `15·W + 1` (one AAP to
//! clear the carry). Count2Multiply's masked k-ary step costs `7n + 7`
//! *per digit* regardless of the accumulated value — the gap between
//! those two curves is Fig. 8's headline.

use c2m_cim::ambit::{AmbitAddr, AmbitSubarray, MicroProgram};
use c2m_cim::{FaultModel, Row};

/// Row layout of the in-memory adder within a subarray's D-group.
///
/// Rows `0..w` hold the accumulator (bit-sliced, LSB first), rows
/// `w..2w` the addend, row `2w` the carry, row `2w+1` scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderLayout {
    /// Accumulator width in bits.
    pub width_bits: usize,
}

impl AdderLayout {
    /// Accumulator bit row `i`.
    #[must_use]
    pub fn acc(self, i: usize) -> usize {
        debug_assert!(i < self.width_bits);
        i
    }

    /// Addend bit row `i`.
    #[must_use]
    pub fn addend(self, i: usize) -> usize {
        debug_assert!(i < self.width_bits);
        self.width_bits + i
    }

    /// Carry row.
    #[must_use]
    pub fn carry(self) -> usize {
        2 * self.width_bits
    }

    /// Scratch row (saves `MAJ(a, b, !c)` between stages).
    #[must_use]
    pub fn scratch(self) -> usize {
        2 * self.width_bits + 1
    }

    /// Total D-group rows needed.
    #[must_use]
    pub fn rows_needed(self) -> usize {
        2 * self.width_bits + 2
    }
}

/// Macro-command count of one `width`-bit ripple-carry addition: the
/// closed form the tests hold [`add_program`]'s length to.
#[cfg(test)]
fn add_command_count(width_bits: usize) -> usize {
    15 * width_bits + 1
}

/// Builds the μProgram performing `acc += addend` over the layout.
///
/// The addend rows are consumed read-only; the accumulator rows and the
/// carry row are rewritten. After execution the carry row holds the
/// final carry-out (overflow indicator).
#[must_use]
pub fn add_program(layout: AdderLayout) -> MicroProgram {
    let mut p = MicroProgram::new();
    let d = AmbitAddr::Data;
    // Clear carry-in.
    p.aap(AmbitAddr::C0, d(layout.carry()));
    for i in 0..layout.width_bits {
        let a = d(layout.acc(i));
        let b = d(layout.addend(i));
        let c = d(layout.carry());
        // M2 = MAJ(a, b, !c) via B15 {T0, T3, DCC1}.
        p.aap(c, AmbitAddr::PairT1Dcc1); // DCC1 <- !c
        p.aap(a, AmbitAddr::T(0));
        p.aap(b, AmbitAddr::T(3));
        p.ap(AmbitAddr::TripleT0T3Dcc1); // T0 = M2
        p.aap(AmbitAddr::T(0), d(layout.scratch()));
        // M = MAJ(a, b, c) via B13 {T1, T2, T3}.
        p.aap(a, AmbitAddr::T(1));
        p.aap(b, AmbitAddr::T(2));
        p.aap(c, AmbitAddr::T(3));
        p.ap(AmbitAddr::TripleT1T2T3); // T1 = M
                                       // Keep M in T0 and !M in DCC0.
        p.aap(AmbitAddr::T(1), AmbitAddr::PairT0Dcc0);
        // sum = MAJ(M2, c, !M) via B14 {T1, T2, DCC0}.
        p.aap(d(layout.scratch()), AmbitAddr::T(1));
        p.aap(c, AmbitAddr::T(2));
        p.ap(AmbitAddr::TripleT1T2Dcc0); // T1 = sum
        p.aap(AmbitAddr::T(1), a); // write back sum
        p.aap(AmbitAddr::T(0), c); // carry' = M
    }
    p
}

/// A bit-accurate SIMDRAM-style adder running on an Ambit subarray:
/// `lanes` independent `width_bits`-bit accumulators, one per column.
///
/// # Examples
///
/// ```
/// use c2m_baselines::AmbitRca;
///
/// let mut adder = AmbitRca::new(16, 4);
/// adder.set(0, 100);
/// adder.add(23); // every lane, via real AAP/AP commands
/// assert_eq!(adder.get(0), 123);
/// assert_eq!(adder.get(1), 23);
/// ```
#[derive(Debug, Clone)]
pub struct AmbitRca {
    layout: AdderLayout,
    lanes: usize,
    sub: AmbitSubarray,
    commands: u64,
}

impl AmbitRca {
    /// Creates a fault-free adder array.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is 0 or > 127, or `lanes` is 0.
    #[must_use]
    pub fn new(width_bits: usize, lanes: usize) -> Self {
        Self::with_faults(width_bits, lanes, FaultModel::fault_free())
    }

    /// Creates an adder array whose TRA results fault at the model's
    /// rate (§2.3).
    #[must_use]
    pub fn with_faults(width_bits: usize, lanes: usize, faults: FaultModel) -> Self {
        assert!((1..=127).contains(&width_bits), "width must be 1..=127");
        assert!(lanes > 0, "need at least one lane");
        let layout = AdderLayout { width_bits };
        Self {
            layout,
            lanes,
            sub: AmbitSubarray::with_faults(lanes, layout.rows_needed(), faults),
            commands: 0,
        }
    }

    /// Accumulator width in bits.
    #[must_use]
    pub fn width_bits(&self) -> usize {
        self.layout.width_bits
    }

    /// Number of parallel lanes (columns).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Macro commands issued so far.
    #[must_use]
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Faults injected by the substrate so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.sub.faults_injected()
    }

    /// Sets lane `l` of the accumulator to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range or the value does not fit.
    pub fn set(&mut self, l: usize, value: u128) {
        assert!(l < self.lanes, "lane {l} out of range");
        assert!(
            self.layout.width_bits == 128 || value < (1u128 << self.layout.width_bits),
            "value does not fit in {} bits",
            self.layout.width_bits
        );
        for i in 0..self.layout.width_bits {
            let mut row = self.sub.read_data(self.layout.acc(i)).clone();
            row.set(l, (value >> i) & 1 == 1);
            self.sub.write_data(self.layout.acc(i), &row);
        }
    }

    /// Reads lane `l` of the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn get(&self, l: usize) -> u128 {
        assert!(l < self.lanes, "lane {l} out of range");
        let mut v = 0u128;
        for i in 0..self.layout.width_bits {
            if self.sub.read_data(self.layout.acc(i)).get(l) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Adds `value` to every lane selected by `mask` (SIMDRAM stores
    /// operands in memory, so the masked addend is materialised into
    /// the addend rows through the host write path, then the in-memory
    /// ripple-carry μProgram runs).
    ///
    /// # Panics
    ///
    /// Panics if `mask` width differs from the lane count.
    pub fn add_masked(&mut self, value: u128, mask: &Row) {
        assert_eq!(mask.width(), self.lanes, "mask width mismatch");
        for i in 0..self.layout.width_bits {
            let bit = (value >> i) & 1 == 1;
            let row = if bit {
                mask.clone()
            } else {
                Row::zeros(self.lanes)
            };
            self.sub.write_data(self.layout.addend(i), &row);
        }
        let prog = add_program(self.layout);
        self.commands += prog.len() as u64;
        self.sub.execute(&prog);
    }

    /// Adds `value` to every lane.
    pub fn add(&mut self, value: u128) {
        let mask = Row::ones(self.lanes);
        self.add_masked(value, &mask);
    }

    /// Final carry-out of the last addition, per lane.
    #[cfg(test)]
    fn carry_out(&self, l: usize) -> bool {
        self.sub.read_data(self.layout.carry()).get(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_addition_matches_integer_arithmetic() {
        let mut adder = AmbitRca::new(16, 8);
        for l in 0..8 {
            adder.set(l, (l as u128) * 31);
        }
        adder.add(100);
        for l in 0..8 {
            assert_eq!(adder.get(l), (l as u128) * 31 + 100, "lane {l}");
        }
    }

    #[test]
    fn accumulation_sequence_matches_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let lanes = 16;
        let mut adder = AmbitRca::new(32, lanes);
        let mut reference = vec![0u128; lanes];
        for _ in 0..20 {
            let v = rng.gen_range(0..1000u128);
            adder.add(v);
            for r in &mut reference {
                *r += v;
            }
        }
        for (l, &r) in reference.iter().enumerate().take(lanes) {
            assert_eq!(adder.get(l), r, "lane {l}");
        }
    }

    #[test]
    fn masked_addition_only_touches_selected_lanes() {
        let lanes = 8;
        let mut adder = AmbitRca::new(16, lanes);
        let mask = Row::from_bits((0..lanes).map(|l| l % 2 == 0));
        adder.add_masked(7, &mask);
        for l in 0..lanes {
            let expect = if l % 2 == 0 { 7 } else { 0 };
            assert_eq!(adder.get(l), expect, "lane {l}");
        }
    }

    #[test]
    fn carry_chain_ripples_across_full_width() {
        let mut adder = AmbitRca::new(16, 2);
        adder.set(0, 0xFFFF - 1);
        adder.set(1, 0);
        adder.add(1);
        assert_eq!(adder.get(0), 0xFFFF);
        assert_eq!(adder.get(1), 1);
        adder.add(1);
        // Lane 0 wraps; carry-out records the overflow.
        assert_eq!(adder.get(0), 0);
        assert!(adder.carry_out(0));
        assert!(!adder.carry_out(1));
    }

    #[test]
    fn command_count_is_fifteen_per_bit_plus_one() {
        let layout = AdderLayout { width_bits: 32 };
        let prog = add_program(layout);
        assert_eq!(prog.len(), add_command_count(32));
        let mut adder = AmbitRca::new(32, 4);
        adder.add(5);
        assert_eq!(adder.commands(), add_command_count(32) as u64);
    }

    #[test]
    fn rca_cost_scales_with_width_not_value() {
        // Adding 1 to a 64-bit accumulator costs the same as adding a
        // huge value — the exact pathology §3 motivates against.
        let mut small = AmbitRca::new(64, 2);
        small.add(1);
        let mut large = AmbitRca::new(64, 2);
        large.add(u64::MAX as u128 / 2);
        assert_eq!(small.commands(), large.commands());
    }

    #[test]
    fn faulty_substrate_perturbs_results() {
        let mut adder = AmbitRca::with_faults(16, 256, FaultModel::new(0.05, 42));
        adder.add(1000);
        assert!(adder.faults_injected() > 0);
        // At 5 % per-bit TRA fault rate some lane must deviate.
        let wrong = (0..256).filter(|&l| adder.get(l) != 1000).count();
        assert!(wrong > 0, "expected at least one faulty lane");
    }

    #[test]
    fn fault_free_large_random_cross_check() {
        let mut rng = StdRng::seed_from_u64(77);
        let lanes = 64;
        let mut adder = AmbitRca::new(24, lanes);
        let mut reference = vec![0u128; lanes];
        for round in 0..10 {
            let v = rng.gen_range(0..5000u128);
            let mask = Row::from_bits((0..lanes).map(|_| rng.gen_bool(0.5)));
            adder.add_masked(v, &mask);
            for (l, r) in reference.iter_mut().enumerate() {
                if mask.get(l) {
                    *r = (*r + v) & 0xFF_FFFF;
                }
            }
            for (l, &r) in reference.iter().enumerate().take(lanes) {
                assert_eq!(adder.get(l), r, "round {round}, lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_lane_panics() {
        let adder = AmbitRca::new(8, 2);
        let _ = adder.get(5);
    }
}
