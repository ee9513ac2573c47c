//! Rank-level check-bit placement (Fig. 11's ECC chip).
//!
//! Table 2 configures "8 devices + ECC": a rank-wide access touches
//! eight data chips in lockstep plus one dedicated ECC chip holding the
//! check bits for the row slice. Count2Multiply relies on this layout
//! twice — ordinary row reads are protected as usual, and the §6 scheme
//! re-uses the *same* stored check bits to validate CIM-computed XOR
//! rows, because linear codes make the check bits of `a ⊕ b`
//! predictable from the operands' stored checks.
//!
//! [`EccRank`] models that placement: a logical row is split into
//! per-chip slices, each protected by a [`LinearCode`] codeword whose
//! data bits interleave *across* the data chips (symbol `i` of codeword
//! `j` lives on chip `i mod 8`). Interleaving converts a full-chip
//! failure into at most ⌈codeword/8⌉ symbols per codeword — within a
//! Reed–Solomon code's reach — which is exactly how chipkill-class DIMM
//! protection works. No figure runs this model, so the module compiles
//! only with its tests.

use crate::code::LinearCode;
use serde::{Deserialize, Serialize};

/// Layout constants of the Table 2 rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RankLayout {
    /// Data chips in lockstep.
    data_chips: usize,
    /// Bits each chip contributes per beat.
    bits_per_chip: usize,
}

impl RankLayout {
    /// Table 2: 8 data chips, 8 bits each (a 64-bit beat + 8 ECC bits).
    #[must_use]
    fn ddr5_8x8() -> Self {
        Self {
            data_chips: 8,
            bits_per_chip: 8,
        }
    }

    /// Logical beat width (data bits per transfer).
    #[must_use]
    fn beat_bits(&self) -> usize {
        self.data_chips * self.bits_per_chip
    }
}

/// A rank-wide stored row: data beats plus the ECC chip's check bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct StoredRow {
    /// Data bits, beat-major (`beat * beat_bits + position`).
    data: Vec<bool>,
    /// Check bits, one codeword's worth per beat group.
    checks: Vec<bool>,
}

/// Check-bit manager for one rank: encodes logical rows into
/// chip-interleaved codewords of the supplied linear code.
#[derive(Debug, Clone)]
struct EccRank<C: LinearCode> {
    layout: RankLayout,
    code: C,
}

impl<C: LinearCode> EccRank<C> {
    /// Creates a rank protected by `code`.
    ///
    /// # Panics
    ///
    /// Panics unless the code's data width is a whole number of beats.
    #[must_use]
    fn new(layout: RankLayout, code: C) -> Self {
        assert!(
            code.data_bits().is_multiple_of(layout.beat_bits()),
            "codeword data ({}) must be a whole number of {}-bit beats",
            code.data_bits(),
            layout.beat_bits()
        );
        Self { layout, code }
    }

    /// Beats covered by one codeword.
    #[must_use]
    fn beats_per_codeword(&self) -> usize {
        self.code.data_bits() / self.layout.beat_bits()
    }

    /// Chip that stores logical data bit `i` under interleaving: bits
    /// rotate across data chips byte by byte.
    #[must_use]
    fn chip_of_bit(&self, i: usize) -> usize {
        (i / self.layout.bits_per_chip) % self.layout.data_chips
    }

    /// Encodes a logical row (any whole number of codewords).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of codewords.
    #[must_use]
    fn encode(&self, data: &[bool]) -> StoredRow {
        assert!(
            data.len().is_multiple_of(self.code.data_bits()),
            "row must be a whole number of codewords"
        );
        let checks = data
            .chunks(self.code.data_bits())
            .flat_map(|cw| self.code.checks(cw))
            .collect();
        StoredRow {
            data: data.to_vec(),
            checks,
        }
    }

    /// Verifies and corrects a stored row in place. Returns the total
    /// corrected bit count, or `None` if any codeword is uncorrectable.
    fn scrub(&self, row: &mut StoredRow) -> Option<usize> {
        let dlen = self.code.data_bits();
        let clen = self.code.check_bits();
        let mut fixed = 0usize;
        for (d, c) in row.data.chunks_mut(dlen).zip(row.checks.chunks_mut(clen)) {
            fixed += self.code.correct(d, c)?;
        }
        Some(fixed)
    }

    /// Kills an entire data chip (stuck-at-zero), the chipkill fault
    /// model. Returns how many stored bits changed.
    fn fail_chip(&self, row: &mut StoredRow, chip: usize) -> usize {
        let mut flipped = 0;
        for (i, bit) in row.data.iter_mut().enumerate() {
            if self.chip_of_bit(i) == chip && *bit {
                *bit = false;
                flipped += 1;
            }
        }
        flipped
    }

    /// Worst-case symbols-per-codeword a single chip failure can touch
    /// when the code's symbols are `symbol_bits` wide.
    #[must_use]
    fn chip_failure_symbols(&self, symbol_bits: usize) -> usize {
        // A chip owns bits_per_chip bits of every beat; per codeword it
        // owns beats_per_codeword * bits_per_chip bits, grouped into
        // symbols of symbol_bits.
        (self.beats_per_codeword() * self.layout.bits_per_chip).div_ceil(symbol_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::RsLinear;
    use crate::Secded;

    #[test]
    fn layout_constants() {
        let l = RankLayout::ddr5_8x8();
        assert_eq!(l.beat_bits(), 64);
    }

    #[test]
    fn secded_rank_roundtrip_and_single_bit_scrub() {
        let rank = EccRank::new(RankLayout::ddr5_8x8(), Secded::new(64));
        let data: Vec<bool> = (0..256).map(|i| i % 5 == 0).collect();
        let mut row = rank.encode(&data);
        row.data[100] = !row.data[100];
        assert_eq!(rank.scrub(&mut row), Some(1));
        assert_eq!(row.data, data);
    }

    #[test]
    fn chip_interleaving_spreads_consecutive_bytes() {
        let rank = EccRank::new(RankLayout::ddr5_8x8(), Secded::new(64));
        // Bytes 0..8 land on chips 0..8; byte 8 wraps to chip 0.
        assert_eq!(rank.chip_of_bit(0), 0);
        assert_eq!(rank.chip_of_bit(8), 1);
        assert_eq!(rank.chip_of_bit(63), 7);
        assert_eq!(rank.chip_of_bit(64), 0);
    }

    #[test]
    fn rs_rank_survives_full_chip_failure() {
        // RS over GF(2^8) with t = 2: one chip owns exactly one 8-bit
        // symbol per 64-bit beat-codeword, so chipkill is correctable.
        let rank = EccRank::new(RankLayout::ddr5_8x8(), RsLinear::new(8, 2));
        assert_eq!(rank.beats_per_codeword(), 1);
        assert_eq!(rank.chip_failure_symbols(8), 1);
        let data: Vec<bool> = (0..64 * 4).map(|i| i % 3 == 0).collect();
        let mut row = rank.encode(&data);
        let flipped = rank.fail_chip(&mut row, 3);
        assert!(flipped > 0, "chip 3 must have held some ones");
        let fixed = rank.scrub(&mut row).expect("chipkill must be correctable");
        assert!(fixed >= 1);
        assert_eq!(row.data, data);
    }

    #[test]
    fn secded_rank_cannot_survive_chip_failure() {
        // SECDED corrects one bit per codeword; a chip failure flips up
        // to eight — detected (or miscorrected) but not recovered.
        let rank = EccRank::new(RankLayout::ddr5_8x8(), Secded::new(64));
        let data: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let mut row = rank.encode(&data);
        rank.fail_chip(&mut row, 0);
        match rank.scrub(&mut row) {
            None => {}                             // detected uncorrectable
            Some(_) => assert_ne!(row.data, data), // or silently wrong
        }
    }

    #[test]
    fn scrub_is_idempotent_on_clean_rows() {
        let rank = EccRank::new(RankLayout::ddr5_8x8(), RsLinear::new(8, 1));
        let data: Vec<bool> = (0..128).map(|i| (i * 7) % 4 == 1).collect();
        let mut row = rank.encode(&data);
        assert_eq!(rank.scrub(&mut row), Some(0));
        assert_eq!(rank.scrub(&mut row), Some(0));
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn misaligned_code_panics() {
        // 32 data bits is half a beat.
        let _ = EccRank::new(RankLayout::ddr5_8x8(), RsLinear::new(4, 1));
    }
}
