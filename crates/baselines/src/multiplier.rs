//! Bit-serial shift-and-add multiplication (the SIMDRAM-class int×int
//! primitive).
//!
//! Where Count2Multiply handles integer×integer through CSD bit-slicing
//! of the weight matrix (§5.2.3), bit-serial CIM designs multiply with a
//! shift-and-add network: for every set bit `j` of the multiplier, add
//! `multiplicand << j` into the product through a full-width ripple-carry
//! pass — `W` additions of `2W`-bit operands in the worst case, which is
//! the quadratic cost the paper's counting approach side-steps. No
//! figure runs it, so the module compiles only with its tests.

use crate::rca::RcaAccumulator;
use c2m_cim::{FaultModel, Row};

/// Row-parallel bit-serial multiplier: multiplies every lane's operand by
/// a broadcast constant via shift-and-add over an [`RcaAccumulator`].
#[derive(Debug, Clone)]
struct BitSerialMultiplier {
    product: RcaAccumulator,
    operand_bits: usize,
}

impl BitSerialMultiplier {
    /// Creates a multiplier producing `2 * operand_bits`-wide products
    /// across `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `operand_bits` is 0 or > 63.
    #[must_use]
    fn new(operand_bits: usize, lanes: usize) -> Self {
        Self::with_faults(operand_bits, lanes, FaultModel::fault_free())
    }

    /// Creates a multiplier with fault injection on its MAJ operations.
    #[must_use]
    fn with_faults(operand_bits: usize, lanes: usize, faults: FaultModel) -> Self {
        assert!((1..=63).contains(&operand_bits), "operand width 1..=63");
        Self {
            product: RcaAccumulator::with_faults(2 * operand_bits, lanes, faults),
            operand_bits,
        }
    }

    /// Device operations charged so far.
    #[must_use]
    fn ops(&self) -> u64 {
        self.product.ops()
    }

    /// Computes `value * multiplier` into every masked lane's product
    /// accumulator (shift-and-add; cost is one full-width RCA pass per
    /// set multiplier bit, *independent of the value's magnitude* — the
    /// contrast with §4's value-aware counting).
    ///
    /// # Panics
    ///
    /// Panics if either operand exceeds the configured width.
    fn mac_masked(&mut self, value: u64, multiplier: u64, mask: &Row) {
        assert!(value < (1 << self.operand_bits), "value too wide");
        assert!(multiplier < (1 << self.operand_bits), "multiplier too wide");
        for j in 0..self.operand_bits {
            if (multiplier >> j) & 1 == 1 {
                self.product.add_masked(u128::from(value) << j, mask);
            }
        }
    }

    /// Reads lane `l`'s accumulated product.
    #[must_use]
    fn get(&self, l: usize) -> u128 {
        self.product.get(l)
    }
}

/// Worst-case device-op cost of one W×W bit-serial multiply: W additions
/// of 2W-bit words.
#[must_use]
fn multiply_ops(operand_bits: usize) -> u64 {
    operand_bits as u64 * crate::rca::rca_add_ops(2 * operand_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplies_exactly() {
        let mut m = BitSerialMultiplier::new(8, 4);
        let mask = Row::ones(4);
        m.mac_masked(13, 11, &mask);
        for l in 0..4 {
            assert_eq!(m.get(l), 143);
        }
        // MAC accumulates.
        m.mac_masked(100, 7, &mask);
        assert_eq!(m.get(0), 143 + 700);
    }

    #[test]
    fn masked_lanes_only() {
        let mut m = BitSerialMultiplier::new(8, 4);
        let mask = Row::from_bits([true, false, true, false]);
        m.mac_masked(5, 6, &mask);
        assert_eq!(m.get(0), 30);
        assert_eq!(m.get(1), 0);
    }

    #[test]
    fn cost_scales_with_multiplier_popcount_not_value() {
        let mask = Row::ones(2);
        let mut a = BitSerialMultiplier::new(8, 2);
        a.mac_masked(255, 1, &mask); // 1 set bit
        let one_bit = a.ops();
        let mut b = BitSerialMultiplier::new(8, 2);
        b.mac_masked(1, 255, &mask); // 8 set bits
        assert_eq!(b.ops(), 8 * one_bit);
    }

    #[test]
    fn quadratic_worst_case_cost() {
        // The §5.2.3 contrast: bit-serial multiply is O(W²) in device
        // ops; 16-bit costs 4x the 8-bit worst case.
        assert_eq!(multiply_ops(16), 4 * multiply_ops(8));
    }
}
