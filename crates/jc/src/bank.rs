//! Row-parallel multi-digit counter bank (§4.1–§4.4, Fig. 5).
//!
//! A [`CounterBank`] holds `width` independent counters, one per memory
//! column. Each counter has `digits` radix-2n digits; digit `d`, bit `i`
//! is memory row `bits[d][i]`, and each digit owns an `O_next` row that
//! latches pending overflow (or borrow, for decrements). A masked k-ary
//! increment updates **all** `width` counters in one broadcast command
//! sequence; columns where the mask is 0 are untouched.
//!
//! Fault behaviour: each destination-row update synthesises
//! `b'_i = (b_i ∧ m̄) ∨ (s_i ∧ m)` from three MAJ-class operations
//! (two ANDs and one OR, Fig. 6a), so the computed row is perturbed three
//! times at the *effective* per-op fault rate — the raw CIM rate for
//! unprotected execution, the TMR residual for [`ProtectionKind::Tmr`],
//! or the Table 1 undetected-error rate for [`ProtectionKind::Ecc`]
//! (detected faults are recomputed and show up as op-count overhead, not
//! as errors — see [`BankStats`]).
//!
//! A step computes into rows the bank sizes once, when it is built: a
//! copy of the digit's old bits, keep, take and flag rows, and one
//! spare flag row for carry resolution. So a step costs no row
//! allocation, and each faulted result is perturbed in the same order
//! as when every operation returned a fresh row.

use crate::codec::JohnsonCode;
use crate::digits::Digits;
use crate::kary::{FlagRule, TransitionPattern};
use c2m_cim::{FaultModel, Row};
use c2m_ecc::protect::{ProtectionAnalysis, ProtectionKind};
use c2m_ecc::TmrVoter;
use serde::{Deserialize, Serialize};
use std::{iter, mem};

/// Execution statistics of a counter bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankStats {
    /// k-ary increment/decrement command sequences issued (incl. carry
    /// resolution steps).
    pub increments: u64,
    /// Ambit AAP/AP macro commands, already including the protection
    /// scheme's extra operations (Tab. 1 costs).
    pub ambit_ops: u64,
    /// Carry/borrow resolution sequences issued.
    pub resolves: u64,
}

/// `width` parallel multi-digit Johnson counters stored in rows.
#[derive(Debug, Clone)]
pub struct CounterBank {
    code: JohnsonCode,
    digits: usize,
    width: usize,
    /// bits[d][i] = row holding bit i of digit d of every counter.
    bits: Vec<Vec<Row>>,
    /// onext[d] = pending overflow/borrow flag rows.
    onext: Vec<Row>,
    protection: ProtectionKind,
    faults: FaultModel,
    stats: BankStats,
    /// The rows a digit step computes into.
    step: StepRows,
    /// A resolve's mask: it swaps places with the flag row it consumes.
    spare_flag: Row,
}

/// Rows one masked digit step computes into, sized with the bank.
#[derive(Debug, Clone)]
struct StepRows {
    /// The digit's bits before the step.
    old: Vec<Row>,
    /// `b_i ∧ m̄`.
    keep: Row,
    /// `s_i ∧ m`.
    take: Row,
    /// The fired overflow/borrow flag.
    flag: Row,
}

impl StepRows {
    fn new(n: usize, width: usize) -> Self {
        Self {
            old: vec![Row::zeros(width); n],
            keep: Row::zeros(width),
            take: Row::zeros(width),
            flag: Row::zeros(width),
        }
    }

    /// Steps `digit` under `mask` and latches the fired flag into
    /// `onext`. Every MAJ-class result is perturbed as it is made:
    /// per bit keep, take and merge, then the flag, then `onext`.
    fn step(
        &mut self,
        digit: &mut [Row],
        onext: &mut Row,
        faults: &mut FaultModel,
        pattern: &TransitionPattern,
        mask: &Row,
    ) {
        let Self {
            old,
            keep,
            take,
            flag,
        } = self;
        for (o, b) in old.iter_mut().zip(digit.iter()) {
            o.copy_from(b);
        }
        for (i, srcspec) in pattern.sources().iter().enumerate() {
            // b'_i = (b_i & !m) | (src & m): two ANDs and an OR, each a
            // fault-exposed MAJ-class op.
            keep.set_and_not(&old[i], mask);
            faults.perturb(keep);
            let src = &old[srcspec.src];
            if srcspec.invert {
                take.set_and_not(mask, src);
            } else {
                take.set_and(src, mask);
            }
            faults.perturb(take);
            digit[i].set_or(keep, take);
            faults.perturb(&mut digit[i]);
        }
        let old_msb = &old[old.len() - 1];
        let new_msb = &digit[digit.len() - 1];
        // keep and take are free again: the large-step rules use keep
        // for their OR term.
        match pattern.flag_rule() {
            FlagRule::IncSmall => flag.set_and_not(old_msb, new_msb),
            FlagRule::IncLarge => {
                keep.set_not(new_msb);
                keep.or_assign(old_msb);
                flag.set_and(keep, mask);
            }
            FlagRule::DecSmall => flag.set_and_not(new_msb, old_msb),
            FlagRule::DecLarge => {
                keep.set_not(old_msb);
                keep.or_assign(new_msb);
                flag.set_and(keep, mask);
            }
        }
        faults.perturb(flag);
        onext.or_assign(flag);
        faults.perturb(onext);
    }
}

impl CounterBank {
    /// Creates a fault-free bank of `width` counters with `digits`
    /// radix-`radix` digits each.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is odd/zero, or `digits`/`width` are zero.
    #[must_use]
    pub fn new(radix: usize, digits: usize, width: usize) -> Self {
        Self::with_faults(
            radix,
            digits,
            width,
            FaultModel::fault_free(),
            ProtectionKind::None,
        )
    }

    /// Creates a bank with a CIM fault model and a protection scheme.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`CounterBank::new`]).
    #[must_use]
    pub fn with_faults(
        radix: usize,
        digits: usize,
        width: usize,
        faults: FaultModel,
        protection: ProtectionKind,
    ) -> Self {
        assert!(digits > 0, "need at least one digit");
        assert!(width > 0, "need at least one counter column");
        let code = JohnsonCode::for_radix(radix);
        let n = code.bits();
        let raw = faults.rate();
        let effective_rate = match protection {
            ProtectionKind::None => raw,
            ProtectionKind::Tmr => TmrVoter::effective_per_op_rate(raw),
            ProtectionKind::Ecc { fr_checks, .. } => ProtectionAnalysis {
                fault_rate: raw,
                fr_checks,
            }
            .undetected_error_rate()
            .min(1.0),
        };
        let effective = FaultModel::new(effective_rate.min(1.0), 0xC0DE ^ width as u64);
        let _ = faults; // raw model consumed into the effective rate
        Self {
            code,
            digits,
            width,
            bits: vec![vec![Row::zeros(width); n]; digits],
            onext: vec![Row::zeros(width); digits],
            protection,
            faults: effective,
            stats: BankStats::default(),
            step: StepRows::new(n, width),
            spare_flag: Row::zeros(width),
        }
    }

    /// The digit codec.
    #[must_use]
    pub fn code(&self) -> JohnsonCode {
        self.code
    }

    /// Digits per counter.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.digits
    }

    /// Number of parallel counters.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Maximum representable value + 1 (radix^digits).
    #[must_use]
    pub fn capacity(&self) -> u128 {
        (self.code.radix() as u128).pow(self.digits as u32)
    }

    /// Memory rows consumed per counter column: `digits · (n + 1)` (§4.4).
    #[must_use]
    pub fn rows_used(&self) -> usize {
        self.digits * (self.code.bits() + 1)
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Host-writes counter `col` to `value` (no pending flags).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or `value` exceeds the capacity.
    pub fn set(&mut self, col: usize, value: u128) {
        assert!(col < self.width, "column out of range");
        assert!(value < self.capacity(), "value exceeds counter capacity");
        let digits = Digits::new(value, self.code.radix()).chain(iter::repeat(0));
        for (d, digit) in digits.take(self.digits).enumerate() {
            let enc = self.code.encode(digit);
            for i in 0..self.code.bits() {
                self.bits[d][i].set(col, (enc >> i) & 1 == 1);
            }
            self.onext[d].set(col, false);
        }
    }

    /// Reads counter `col`, resolving pending flags arithmetically.
    /// Returns `None` if any digit holds an invalid (fault-corrupted)
    /// Johnson pattern.
    #[must_use]
    pub fn get(&self, col: usize) -> Option<u128> {
        let radix = self.code.radix() as u128;
        let mut total = 0u128;
        let mut scale = 1u128;
        for d in 0..self.digits {
            let v = self.code.decode(self.digit_bits(d, col))?;
            let pending = u128::from(self.onext[d].get(col));
            total += scale * (v as u128 + radix * pending);
            scale *= radix;
        }
        Some(total % (scale))
    }

    /// Reads counter `col` tolerantly: corrupt digits decode to the
    /// nearest valid Johnson state (how a downstream consumer would read
    /// a faulted counter — §2.4's minimal-transitional-error property).
    #[must_use]
    pub fn get_nearest(&self, col: usize) -> u128 {
        let radix = self.code.radix() as u128;
        let mut total = 0u128;
        let mut scale = 1u128;
        for d in 0..self.digits {
            let v = self.code.decode_nearest(self.digit_bits(d, col));
            let pending = u128::from(self.onext[d].get(col));
            total += scale * (v as u128 + radix * pending);
            scale *= radix;
        }
        total % scale
    }

    fn digit_bits(&self, d: usize, col: usize) -> u64 {
        let mut bits = 0u64;
        for i in 0..self.code.bits() {
            if self.bits[d][i].get(col) {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// Applies one masked k-ary step to digit `d`, latching the
    /// overflow/borrow flag into the digit's `O_next` row. This is the
    /// unit the μProgram of Fig. 6b implements; it costs
    /// `protection.ambit_increment_ops(n)` macro commands.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range, the pattern width differs from the
    /// digit width, or the mask width differs from the bank width.
    pub fn step_digit(&mut self, d: usize, pattern: &TransitionPattern, mask: &Row) {
        assert!(d < self.digits, "digit out of range");
        assert_eq!(pattern.n(), self.code.bits(), "pattern width mismatch");
        assert_eq!(mask.width(), self.width, "mask width mismatch");
        self.step.step(
            &mut self.bits[d],
            &mut self.onext[d],
            &mut self.faults,
            pattern,
            mask,
        );
        self.count_step();
    }

    fn count_step(&mut self) {
        self.stats.increments += 1;
        self.stats.ambit_ops += self.protection.ambit_increment_ops(self.code.bits());
    }

    /// Masked increment of digit `d` by `k` (`1..radix`).
    pub fn increment_digit(&mut self, d: usize, k: usize, mask: &Row) {
        let p = TransitionPattern::increment(self.code.bits(), k);
        self.step_digit(d, &p, mask);
    }

    /// Masked decrement of digit `d` by `k` (`1..radix`).
    pub fn decrement_digit(&mut self, d: usize, k: usize, mask: &Row) {
        let p = TransitionPattern::decrement(self.code.bits(), k);
        self.step_digit(d, &p, mask);
    }

    /// Digit-wise carry ripple (§4.4 footnote 3): unit-increments digit
    /// `d+1` using digit `d`'s `O_next` as the mask, then clears the flag.
    /// Overflow out of the most-significant digit wraps (is dropped), as
    /// in any fixed-capacity accumulator.
    pub fn resolve_carry(&mut self, d: usize) {
        self.resolve(d, TransitionPattern::increment);
    }

    /// Borrow ripple for decrements: unit-decrements digit `d+1` under
    /// digit `d`'s flag, then clears it.
    pub fn resolve_borrow(&mut self, d: usize) {
        self.resolve(d, TransitionPattern::decrement);
    }

    /// Steps digit `d+1` by the unit `pattern` under digit `d`'s flag
    /// row, which the spare flag row replaces, cleared.
    fn resolve(&mut self, d: usize, pattern: fn(usize, usize) -> TransitionPattern) {
        mem::swap(&mut self.onext[d], &mut self.spare_flag);
        self.onext[d].clear();
        if d + 1 < self.digits {
            let p = pattern(self.code.bits(), 1);
            self.step.step(
                &mut self.bits[d + 1],
                &mut self.onext[d + 1],
                &mut self.faults,
                &p,
                &self.spare_flag,
            );
            self.count_step();
        }
        self.stats.resolves += 1;
    }

    /// True if digit `d` has any pending flag set.
    #[must_use]
    pub fn has_pending(&self, d: usize) -> bool {
        self.onext[d].count_ones() > 0
    }

    /// Direct access to a digit's `O_next` flag row.
    #[must_use]
    pub fn onext(&self, d: usize) -> &Row {
        &self.onext[d]
    }

    /// Direct access to bit row `i` of digit `d` (for Algorithm 2 and the
    /// tensor ops in `ops`).
    #[must_use]
    pub fn bit_row(&self, d: usize, i: usize) -> &Row {
        &self.bits[d][i]
    }

    /// Accumulates `value` into every masked counter with **full carry
    /// rippling** after every digit (the "k-ary only" baseline of
    /// Fig. 8b): for each non-zero digit k_d of `value` in base 2n, issue
    /// one k-ary increment followed by a complete ripple chain. Digits
    /// past the counter's width are dropped.
    pub fn accumulate_ripple(&mut self, value: u128, mask: &Row) {
        let digits = Digits::new(value, self.code.radix()).take(self.digits);
        for (d, k) in digits.enumerate() {
            if k == 0 {
                continue;
            }
            self.increment_digit(d, k, mask);
            for dd in d..self.digits {
                if !self.has_pending(dd) {
                    break;
                }
                self.resolve_carry(dd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let b = CounterBank::new(10, 3, 64);
        assert_eq!(b.capacity(), 1000);
        assert_eq!(b.rows_used(), 3 * 6);
        assert_eq!(b.width(), 64);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = CounterBank::new(10, 3, 8);
        for (col, v) in [(0usize, 0u128), (1, 7), (2, 42), (3, 999), (4, 500)] {
            b.set(col, v);
            assert_eq!(b.get(col), Some(v), "col {col}");
        }
    }

    #[test]
    fn masked_increment_only_touches_masked_columns() {
        let mut b = CounterBank::new(10, 2, 8);
        for col in 0..8 {
            b.set(col, col as u128);
        }
        let mask = Row::from_bits((0..8).map(|i| i % 2 == 0));
        b.increment_digit(0, 3, &mask);
        for col in 0..8 {
            let expect = if col % 2 == 0 {
                col as u128 + 3
            } else {
                col as u128
            };
            assert_eq!(b.get(col), Some(expect % 100), "col {col}");
        }
    }

    #[test]
    fn single_digit_overflow_latches_onext() {
        let mut b = CounterBank::new(10, 2, 4);
        b.set(0, 8);
        b.set(1, 2);
        let mask = Row::ones(4);
        b.increment_digit(0, 5, &mask); // 8+5 = 13: digit0 -> 3, carry
        assert!(b.onext(0).get(0));
        assert!(!b.onext(0).get(1)); // 2+5 = 7: no carry
                                     // get() folds pending carries into the value.
        assert_eq!(b.get(0), Some(13));
        assert_eq!(b.get(1), Some(7));
        b.resolve_carry(0);
        assert_eq!(b.get(0), Some(13));
        assert!(!b.has_pending(0));
    }

    #[test]
    fn accumulate_ripple_matches_plain_addition() {
        let mut b = CounterBank::new(10, 4, 4);
        let mask = Row::ones(4);
        let inputs = [9u128, 999, 5, 123, 87, 1, 4000, 38];
        let mut expect = 0u128;
        for &x in &inputs {
            b.accumulate_ripple(x, &mask);
            expect = (expect + x) % b.capacity();
        }
        for col in 0..4 {
            assert_eq!(b.get(col), Some(expect), "col {col}");
        }
    }

    #[test]
    fn fig9_delayed_overflow_example() {
        // Fig. 9: counter at 9999 (radix 10), add 9 repeatedly; pending
        // flags let digits exceed 9 logically without immediate rippling.
        let mut b = CounterBank::new(10, 5, 1);
        b.set(0, 9999);
        let mask = Row::ones(1);
        b.increment_digit(0, 9, &mask); // 9999 + 9 = 10008 via pending flag
        assert_eq!(b.get(0), Some(10008));
        assert!(b.has_pending(0));
    }

    /// Subtracts `value` from every masked counter of a flag-free bank
    /// through an IARM subtraction plan and its flush, as the kernels
    /// do, but from the planner's pessimistic start: the counters are
    /// not zero.
    fn subtract(b: &mut CounterBank, value: u128, mask: &Row) {
        use crate::iarm::{apply_plan, IarmPlanner};
        let mut planner = IarmPlanner::new(b.code.radix(), b.digits());
        let mut plan = planner.plan_sub(value);
        plan.extend(planner.flush());
        apply_plan(b, &plan, mask);
    }

    #[test]
    fn subtract_undoes_accumulate() {
        let mut b = CounterBank::new(8, 4, 2);
        let mask = Row::ones(2);
        b.set(0, 100);
        b.set(1, 100);
        b.accumulate_ripple(77, &mask);
        subtract(&mut b, 77, &mask);
        assert_eq!(b.get(0), Some(100));
        assert_eq!(b.get(1), Some(100));
    }

    #[test]
    fn subtract_with_borrow_across_digits() {
        let mut b = CounterBank::new(10, 3, 1);
        b.set(0, 500);
        let mask = Row::ones(1);
        subtract(&mut b, 123, &mask);
        assert_eq!(b.get(0), Some(377));
        assert!(b.stats().resolves > 0, "500 − 123 borrows across digits");
    }

    #[test]
    fn op_accounting_unprotected() {
        let mut b = CounterBank::new(10, 1, 4);
        let mask = Row::ones(4);
        b.increment_digit(0, 4, &mask);
        // 7n+7 with n=5 -> 42.
        assert_eq!(b.stats().ambit_ops, 42);
        assert_eq!(b.stats().increments, 1);
    }

    #[test]
    fn op_accounting_protected() {
        let mut b = CounterBank::with_faults(
            10,
            1,
            4,
            FaultModel::fault_free(),
            ProtectionKind::Ecc {
                fr_checks: 2,
                fuse_inverted_feedback: false,
            },
        );
        let mask = Row::ones(4);
        b.increment_digit(0, 4, &mask);
        // 13n+16 with n=5 -> 81.
        assert_eq!(b.stats().ambit_ops, 81);
    }

    #[test]
    fn tmr_protection_reduces_error_vs_unprotected() {
        let rate = 0.02;
        let run = |prot: ProtectionKind| -> f64 {
            let mut b = CounterBank::with_faults(10, 4, 256, FaultModel::new(rate, 77), prot);
            let mask = Row::ones(256);
            for _ in 0..20 {
                b.accumulate_ripple(9, &mask);
            }
            let mut err = 0.0;
            for col in 0..256 {
                let got = b.get_nearest(col) as f64;
                err += (got - 180.0).abs();
            }
            err / 256.0
        };
        let raw = run(ProtectionKind::None);
        let tmr = run(ProtectionKind::Tmr);
        let ecc = run(ProtectionKind::ecc_default());
        assert!(tmr < raw, "TMR {tmr} should beat raw {raw}");
        assert!(ecc <= tmr, "ECC {ecc} should beat TMR {tmr}");
    }

    #[test]
    fn effective_rate_zero_when_fault_free() {
        let b = CounterBank::new(10, 2, 4);
        assert_eq!(b.faults.rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn set_rejects_overflowing_value() {
        let mut b = CounterBank::new(10, 2, 4);
        b.set(0, 100);
    }

    /// The allocating bodies that `step_digit` and `resolve_*` replaced:
    /// every operation returns a fresh row. The differential properties
    /// below drive them and the in-place bank from the same seed.
    mod oracle {
        use super::*;
        use crate::iarm::CounterAction;

        fn faulty(bank: &mut CounterBank, mut r: Row) -> Row {
            if bank.faults.rate() > 0.0 {
                bank.faults.perturb(&mut r);
            }
            r
        }

        pub fn step_digit(
            bank: &mut CounterBank,
            d: usize,
            pattern: &TransitionPattern,
            mask: &Row,
        ) {
            let n = bank.code.bits();
            let old: Vec<Row> = bank.bits[d].clone();
            let not_mask = mask.not();
            let old_msb = old[n - 1].clone();
            for (i, srcspec) in pattern.sources().iter().enumerate() {
                let src = if srcspec.invert {
                    old[srcspec.src].not()
                } else {
                    old[srcspec.src].clone()
                };
                let keep = faulty(bank, old[i].and(&not_mask));
                let take = faulty(bank, src.and(mask));
                let merged = faulty(bank, keep.or(&take));
                bank.bits[d][i] = merged;
            }
            let new_msb = &bank.bits[d][n - 1];
            let fired = match pattern.flag_rule() {
                FlagRule::IncSmall => old_msb.and(&new_msb.not()),
                FlagRule::IncLarge => old_msb.or(&new_msb.not()).and(mask),
                FlagRule::DecSmall => old_msb.not().and(new_msb),
                FlagRule::DecLarge => old_msb.not().or(new_msb).and(mask),
            };
            let fired = faulty(bank, fired);
            bank.onext[d] = faulty(bank, bank.onext[d].or(&fired));
            bank.stats.increments += 1;
            bank.stats.ambit_ops += bank.protection.ambit_increment_ops(n);
        }

        fn increment_digit(bank: &mut CounterBank, d: usize, k: usize, mask: &Row) {
            let p = TransitionPattern::increment(bank.code.bits(), k);
            step_digit(bank, d, &p, mask);
        }

        fn decrement_digit(bank: &mut CounterBank, d: usize, k: usize, mask: &Row) {
            let p = TransitionPattern::decrement(bank.code.bits(), k);
            step_digit(bank, d, &p, mask);
        }

        pub fn resolve_carry(bank: &mut CounterBank, d: usize) {
            let mask = bank.onext[d].clone();
            bank.onext[d] = Row::zeros(bank.width);
            if d + 1 < bank.digits {
                increment_digit(bank, d + 1, 1, &mask);
            }
            bank.stats.resolves += 1;
        }

        pub fn resolve_borrow(bank: &mut CounterBank, d: usize) {
            let mask = bank.onext[d].clone();
            bank.onext[d] = Row::zeros(bank.width);
            if d + 1 < bank.digits {
                decrement_digit(bank, d + 1, 1, &mask);
            }
            bank.stats.resolves += 1;
        }

        pub fn accumulate_ripple(bank: &mut CounterBank, value: u128, mask: &Row) {
            let digits = Digits::new(value, bank.code.radix()).take(bank.digits);
            for (d, k) in digits.enumerate() {
                if k == 0 {
                    continue;
                }
                increment_digit(bank, d, k, mask);
                for dd in d..bank.digits {
                    if !bank.has_pending(dd) {
                        break;
                    }
                    resolve_carry(bank, dd);
                }
            }
        }

        pub fn apply_plan(bank: &mut CounterBank, actions: &[CounterAction], mask: &Row) {
            for &a in actions {
                match a {
                    CounterAction::Increment { digit, k } => increment_digit(bank, digit, k, mask),
                    CounterAction::Decrement { digit, k } => decrement_digit(bank, digit, k, mask),
                    CounterAction::ResolveCarry { digit } => resolve_carry(bank, digit),
                    CounterAction::ResolveBorrow { digit } => resolve_borrow(bank, digit),
                }
            }
        }
    }

    mod differential {
        use super::*;
        use crate::iarm::{apply_plan, IarmPlanner};
        use proptest::prelude::*;

        const PROTECTIONS: [ProtectionKind; 3] = [
            ProtectionKind::None,
            ProtectionKind::Tmr,
            ProtectionKind::Ecc {
                fr_checks: 2,
                fuse_inverted_feedback: false,
            },
        ];

        /// Widths 1..=300, half of them the word-boundary ones.
        fn width(pick: usize, any: usize) -> usize {
            [63, 64, 65, 128].get(pick).copied().unwrap_or(any)
        }

        /// A seeded mask: all ones for one seed in four, else each
        /// column set with probability ½.
        fn mask(width: usize, seed: u64) -> Row {
            if seed.is_multiple_of(4) {
                return Row::ones(width);
            }
            let mut m = Row::zeros(width);
            FaultModel::new(0.5, seed).perturb(&mut m);
            m
        }

        /// Twin banks built from the same fault model.
        fn twins(
            radix: usize,
            digits: usize,
            width: usize,
            rate: f64,
            protection: usize,
            seed: u64,
        ) -> [CounterBank; 2] {
            let bank = CounterBank::with_faults(
                radix,
                digits,
                width,
                FaultModel::new(rate, seed),
                PROTECTIONS[protection],
            );
            [bank.clone(), bank]
        }

        fn assert_same(got: &CounterBank, want: &CounterBank) {
            assert_eq!(got.bits, want.bits, "bit rows");
            assert_eq!(got.onext, want.onext, "flag rows");
            assert_eq!(got.stats, want.stats, "stats");
            assert_eq!(got.faults.injected(), want.faults.injected(), "faults");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Digit steps, resolves and ripple accumulates in any order
            /// leave the in-place bank exactly where the allocating one
            /// ends: same bits, flags, stats and fault count.
            #[test]
            fn bank_ops_match_the_allocating_bank(
                radix in prop::sample::select(vec![2usize, 4, 10]),
                digits in 1usize..=4,
                (pick, any) in (0usize..8, 1usize..=300),
                (rate, protection) in (prop::sample::select(vec![0.0, 1e-3, 0.1, 1.0]), 0usize..3),
                seed in 0u64..1000,
                ops in prop::collection::vec(
                    (0usize..5, 0usize..4, 1usize..10, 0u64..100_000, 0u64..1000),
                    1..12,
                ),
            ) {
                let width = width(pick, any);
                let [mut got, mut want] = twins(radix, digits, width, rate, protection, seed);
                for (kind, d, k, value, mask_seed) in ops {
                    let (d, k) = (d % digits, 1 + (k - 1) % (radix - 1));
                    let mask = mask(width, mask_seed);
                    let value = u128::from(value);
                    match kind {
                        0 => {
                            got.increment_digit(d, k, &mask);
                            let p = TransitionPattern::increment(radix / 2, k);
                            oracle::step_digit(&mut want, d, &p, &mask);
                        }
                        1 => {
                            got.decrement_digit(d, k, &mask);
                            let p = TransitionPattern::decrement(radix / 2, k);
                            oracle::step_digit(&mut want, d, &p, &mask);
                        }
                        2 => {
                            got.resolve_carry(d);
                            oracle::resolve_carry(&mut want, d);
                        }
                        3 => {
                            got.resolve_borrow(d);
                            oracle::resolve_borrow(&mut want, d);
                        }
                        _ => {
                            got.accumulate_ripple(value, &mask);
                            oracle::accumulate_ripple(&mut want, value, &mask);
                        }
                    }
                    assert_same(&got, &want);
                }
            }

            /// An IARM stream of signed inputs and its flush, applied
            /// through `apply_plan`, matches the allocating bank.
            #[test]
            fn iarm_streams_match_the_allocating_bank(
                radix in prop::sample::select(vec![2usize, 4, 10]),
                digits in 1usize..=4,
                (pick, any) in (0usize..8, 1usize..=300),
                (rate, protection) in (prop::sample::select(vec![0.0, 1e-3, 0.1, 1.0]), 0usize..3),
                seed in 0u64..1000,
                inputs in prop::collection::vec((-10_000i64..10_000, 0u64..1000), 1..12),
            ) {
                let width = width(pick, any);
                let capacity = (radix as u128).pow(digits as u32);
                let [mut got, mut want] = twins(radix, digits, width, rate, protection, seed);
                let mut planner = IarmPlanner::new(radix, digits);
                planner.assume_zero();
                for (x, mask_seed) in inputs {
                    let mask = mask(width, mask_seed);
                    let value = u128::from(x.unsigned_abs()) % capacity;
                    let actions = if x >= 0 {
                        planner.plan_add(value)
                    } else {
                        planner.plan_sub(value)
                    };
                    apply_plan(&mut got, &actions, &mask);
                    oracle::apply_plan(&mut want, &actions, &mask);
                    assert_same(&got, &want);
                }
                let all = Row::ones(width);
                let actions = planner.flush();
                apply_plan(&mut got, &actions, &all);
                oracle::apply_plan(&mut want, &actions, &all);
                assert_same(&got, &want);
            }
        }
    }
}
