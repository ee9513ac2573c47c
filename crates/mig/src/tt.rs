//! Bit-parallel truth tables over at most six variables.
//!
//! A [`TruthTable`] packs the output column of a boolean function of
//! `vars ≤ 6` inputs into one `u64` (row `i` of the table is bit `i`).
//! They are the workhorse for equivalence checking in [`crate::rewrite`]
//! and the MIG tests: two signals are functionally equal iff their
//! truth tables are equal.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of variables a [`TruthTable`] supports.
pub const MAX_VARS: usize = 6;

/// The projection masks for each variable: `PROJ[v]` has bit `i` set iff
/// variable `v` is 1 in input assignment `i`.
const PROJ: [u64; MAX_VARS] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Truth table of a boolean function of up to six variables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TruthTable {
    bits: u64,
    vars: usize,
}

impl TruthTable {
    /// The constant-false function of `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars > 6`.
    #[must_use]
    pub fn constant_false(vars: usize) -> Self {
        assert!(vars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        Self { bits: 0, vars }
    }

    /// The projection function of variable `v` among `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `v >= vars` or `vars > 6`.
    #[must_use]
    pub fn var(v: usize, vars: usize) -> Self {
        assert!(vars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        assert!(v < vars, "variable {v} out of range for {vars} vars");
        Self {
            bits: PROJ[v] & Self::mask(vars),
            vars,
        }
    }

    /// Builds a table from raw bits (rows above `2^vars` are ignored).
    #[must_use]
    pub fn from_bits(bits: u64, vars: usize) -> Self {
        assert!(vars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        Self {
            bits: bits & Self::mask(vars),
            vars,
        }
    }

    fn mask(vars: usize) -> u64 {
        if vars == MAX_VARS {
            u64::MAX
        } else {
            (1u64 << (1usize << vars)) - 1
        }
    }

    /// Raw packed output column.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Number of variables.
    #[must_use]
    pub fn vars(self) -> usize {
        self.vars
    }

    /// Output row for the input assignment encoded in `row` (variable
    /// `v` is bit `v` of `row`).
    ///
    /// # Panics
    ///
    /// Panics if `row >= 2^vars`.
    #[must_use]
    pub fn get(self, row: usize) -> bool {
        assert!(row < (1usize << self.vars), "row {row} out of range");
        (self.bits >> row) & 1 == 1
    }

    /// Conjunction.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Disjunction.
    #[must_use]
    pub fn or(self, other: Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Exclusive or.
    #[must_use]
    pub fn xor(self, other: Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Three-input majority — the MIG primitive.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    #[must_use]
    pub fn maj(a: Self, b: Self, c: Self) -> Self {
        assert!(
            a.vars == b.vars && b.vars == c.vars,
            "variable count mismatch"
        );
        Self {
            bits: (a.bits & b.bits) | (a.bits & c.bits) | (b.bits & c.bits),
            vars: a.vars,
        }
    }

    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.vars, other.vars, "variable count mismatch");
        Self {
            bits: f(self.bits, other.bits) & Self::mask(self.vars),
            vars: self.vars,
        }
    }
}

impl std::ops::Not for TruthTable {
    type Output = TruthTable;

    /// Complement.
    fn not(self) -> TruthTable {
        Self {
            bits: !self.bits & Self::mask(self.vars),
            vars: self.vars,
        }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, {:#x})", self.vars, self.bits)
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in (0..(1usize << self.vars)).rev() {
            write!(f, "{}", u8::from(self.get(row)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_match_bit_encoding() {
        for vars in 1..=MAX_VARS {
            for v in 0..vars {
                let t = TruthTable::var(v, vars);
                for row in 0..(1usize << vars) {
                    assert_eq!(t.get(row), (row >> v) & 1 == 1, "v={v} row={row}");
                }
            }
        }
    }

    #[test]
    fn constants() {
        let f = TruthTable::constant_false(3);
        let t = !f;
        assert_eq!(f.bits, 0);
        assert_eq!(t.bits, 0xFF);
    }

    #[test]
    fn majority_agrees_with_pointwise_definition() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let m = TruthTable::maj(a, b, c);
        for row in 0..8 {
            let (x, y, z) = (a.get(row), b.get(row), c.get(row));
            let expect = (u8::from(x) + u8::from(y) + u8::from(z)) >= 2;
            assert_eq!(m.get(row), expect);
        }
    }

    #[test]
    fn maj_with_constants_is_and_or() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = TruthTable::constant_false(2);
        let t = !f;
        assert_eq!(TruthTable::maj(a, b, f), a.and(b));
        assert_eq!(TruthTable::maj(a, b, t), a.or(b));
    }

    #[test]
    fn xor_via_or_of_ands() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        assert_eq!(a.xor(b), a.and(!b).or((!a).and(b)));
    }

    #[test]
    fn display_is_msb_first_binary() {
        let a = TruthTable::var(0, 2);
        assert_eq!(a.to_string(), "1010");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let _ = TruthTable::var(3, 3);
    }

    #[test]
    #[should_panic(expected = "variable count mismatch")]
    fn mixed_arity_panics() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(0, 3);
        let _ = a.and(b);
    }
}
