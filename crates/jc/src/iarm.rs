//! Input-Aware Rippling Minimization — IARM (§4.5.2, Fig. 9).
//!
//! Each digit's `O_next` flag extends its effective range from `2n − 1`
//! to `4n − 1`, so a detected overflow need not ripple immediately. IARM
//! is a host-side, mask-oblivious planner: it maintains a *virtual
//! counter* that is incremented with every input value (as if all masks
//! were ones — the worst case over all real counters) and issues a carry
//! resolution only when the next increment could push some digit past
//! `4n − 1`, i.e. when a second pending overflow could occur.
//!
//! The planner is symmetric for decrements (borrow flags, lower bound
//! `−2n`). Because a digit's flag row cannot distinguish a pending carry
//! from a pending borrow, all pending flags are flushed when the input
//! stream switches direction (§4.4 "Decrements").
//!
//! The planner runs once per input value, so it sets the host cost of
//! every request with a new input. It walks a value's digits only up to
//! the most significant non-zero one ([`Digits`]), and it hands each
//! action to an [`ActionSink`]: a `Vec` keeps the plan for execution,
//! an [`ActionCount`] only counts it for pricing. Both run the same
//! state machine, so a priced count is always the length of the plan
//! that would execute.

use crate::digits::Digits;
use serde::{Deserialize, Serialize};

/// One host-issued counter command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterAction {
    /// Masked k-ary increment of `digit` by `k`.
    Increment {
        /// Target digit index (0 = least significant).
        digit: usize,
        /// Step amount, `1..radix`.
        k: usize,
    },
    /// Masked k-ary decrement of `digit` by `k`.
    Decrement {
        /// Target digit index.
        digit: usize,
        /// Step amount, `1..radix`.
        k: usize,
    },
    /// Ripple `digit`'s pending carry into `digit + 1`.
    ResolveCarry {
        /// Digit whose flag is consumed.
        digit: usize,
    },
    /// Ripple `digit`'s pending borrow into `digit + 1`.
    ResolveBorrow {
        /// Digit whose flag is consumed.
        digit: usize,
    },
}

/// Where an [`IarmPlanner`] sends the actions it plans.
pub trait ActionSink {
    /// Receives the next action, in execution order.
    fn push(&mut self, action: CounterAction);
}

/// Keeps the plan, for [`apply_plan`].
impl ActionSink for Vec<CounterAction> {
    fn push(&mut self, action: CounterAction) {
        Vec::push(self, action);
    }
}

/// Counts the actions of a plan without storing them: the broadcast
/// command sequences a stream costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCount(pub u64);

impl ActionSink for ActionCount {
    #[inline]
    fn push(&mut self, _: CounterAction) {
        self.0 += 1;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Add,
    Sub,
}

/// Host-side IARM planner: one state machine behind both the
/// `Vec`-returning [`Self::plan_add`]/[`Self::plan_sub`]/[`Self::flush`]
/// and their `_into` forms, which feed any [`ActionSink`].
#[derive(Debug, Clone)]
pub struct IarmPlanner {
    radix: usize,
    digits: usize,
    /// Worst-case effective digit values. In Add mode these are upper
    /// bounds in `0..=4n−1`; in Sub mode lower bounds in `−2n..=2n−1`
    /// (stored as `i64`).
    virt: Vec<i64>,
    direction: Direction,
    /// Pending-flag possibility per digit (virtual counter says a flag
    /// *may* be set somewhere).
    maybe_pending: Vec<bool>,
}

impl IarmPlanner {
    /// Creates a planner for counters of `digits` radix-`radix` digits,
    /// assuming all counters start flag-free with digits anywhere in
    /// canonical range (the pessimistic, always-safe bound; use
    /// [`IarmPlanner::assume_zero`] to tighten it for zero-initialised
    /// counters).
    ///
    /// # Panics
    ///
    /// Panics if `radix` is odd or zero, or `digits` is zero.
    #[must_use]
    pub fn new(radix: usize, digits: usize) -> Self {
        assert!(radix >= 2 && radix.is_multiple_of(2), "radix must be even");
        assert!(digits > 0, "need at least one digit");
        Self {
            radix,
            digits,
            // Add-mode virtual digits are *upper* bounds: any canonical
            // digit can be as large as radix − 1.
            virt: vec![radix as i64 - 1; digits],
            direction: Direction::Add,
            maybe_pending: vec![false; digits],
        }
    }

    /// Declares that every counter is currently zero (flag-free, all
    /// digits zero), tightening the virtual bounds — Fig. 9's "virtual
    /// counter initialised to 9999" seeds the dual of this.
    pub fn assume_zero(&mut self) {
        self.virt.iter_mut().for_each(|v| *v = 0);
        self.maybe_pending.iter_mut().for_each(|p| *p = false);
    }

    /// Radix of each digit.
    #[must_use]
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Worst-case virtual digit values (for tests / introspection).
    #[must_use]
    pub fn virtual_digits(&self) -> &[i64] {
        &self.virt
    }

    /// Plans the accumulation of `value`, emitting resolutions only where
    /// a digit could otherwise need a second pending overflow.
    pub fn plan_add(&mut self, value: u128) -> Vec<CounterAction> {
        let mut out = Vec::new();
        self.plan_add_into(value, &mut out);
        out
    }

    /// Plans the subtraction of `value` (negative inputs, §4.4).
    pub fn plan_sub(&mut self, value: u128) -> Vec<CounterAction> {
        let mut out = Vec::new();
        self.plan_sub_into(value, &mut out);
        out
    }

    /// Flushes every pending flag (must run before counters are read out
    /// or before the input stream switches direction).
    pub fn flush(&mut self) -> Vec<CounterAction> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// [`Self::plan_add`] into `sink`. Digits of `value` at or above the
    /// counter's digit count are dropped (a debug build asserts there
    /// are none).
    pub fn plan_add_into(&mut self, value: u128, sink: &mut impl ActionSink) {
        self.enter(Direction::Add, sink);
        let extended = 2 * self.radix as i64 - 1; // 4n − 1
        let mut digits = Digits::new(value, self.radix);
        for (d, k) in digits.by_ref().take(self.digits).enumerate() {
            if k == 0 {
                continue;
            }
            // Make room: resolving may cascade upward first.
            if self.virt[d] + k as i64 > extended {
                self.resolve_add(d, sink);
            }
            sink.push(CounterAction::Increment { digit: d, k });
            self.virt[d] += k as i64;
            self.maybe_pending[d] |= self.virt[d] >= self.radix as i64;
        }
        debug_assert!(digits.next().is_none(), "value exceeds counter capacity");
    }

    /// [`Self::plan_sub`] into `sink`, dropping digits past the
    /// counter's digit count like [`Self::plan_add_into`].
    pub fn plan_sub_into(&mut self, value: u128, sink: &mut impl ActionSink) {
        self.enter(Direction::Sub, sink);
        let floor = -(self.radix as i64); // −2n
        let mut digits = Digits::new(value, self.radix);
        for (d, k) in digits.by_ref().take(self.digits).enumerate() {
            if k == 0 {
                continue;
            }
            if self.virt[d] - (k as i64) < floor {
                self.resolve_sub(d, sink);
            }
            sink.push(CounterAction::Decrement { digit: d, k });
            self.virt[d] -= k as i64;
            self.maybe_pending[d] |= self.virt[d] < 0;
        }
        debug_assert!(digits.next().is_none(), "value exceeds counter capacity");
    }

    /// [`Self::flush`] into `sink`.
    pub fn flush_into(&mut self, sink: &mut impl ActionSink) {
        for d in 0..self.digits {
            if self.maybe_pending[d] {
                match self.direction {
                    Direction::Add => self.resolve_add(d, sink),
                    Direction::Sub => self.resolve_sub(d, sink),
                }
            }
        }
        // After a full flush all digits are back in canonical range.
        for v in &mut self.virt {
            *v = (*v).clamp(0, self.radix as i64 - 1);
        }
    }

    /// Switches the stream to `direction`, first flushing the flags the
    /// other direction left pending (a flag row cannot tell a carry
    /// from a borrow).
    fn enter(&mut self, direction: Direction, sink: &mut impl ActionSink) {
        if self.direction != direction {
            self.flush_into(sink);
            self.direction = direction;
            self.reset_bounds();
        }
    }

    /// Re-seeds the virtual bounds for the current direction after a
    /// flush: Add mode tracks *upper* bounds (pessimistically radix − 1),
    /// Sub mode tracks *lower* bounds (pessimistically 0).
    fn reset_bounds(&mut self) {
        let fill = match self.direction {
            Direction::Add => self.radix as i64 - 1,
            Direction::Sub => 0,
        };
        self.virt.iter_mut().for_each(|v| *v = fill);
    }

    fn resolve_add(&mut self, d: usize, sink: &mut impl ActionSink) {
        if d + 1 < self.digits {
            // The +1 into d+1 must itself fit below 4n−1.
            if self.virt[d + 1] + 1 > 2 * self.radix as i64 - 1 {
                self.resolve_add(d + 1, sink);
            }
            self.virt[d + 1] += i64::from(self.virt[d] >= self.radix as i64);
            if self.virt[d + 1] >= self.radix as i64 {
                self.maybe_pending[d + 1] = true;
            }
        }
        sink.push(CounterAction::ResolveCarry { digit: d });
        // Flags cleared; the worst-case digit is back below the radix.
        self.virt[d] = self.virt[d].min(self.radix as i64 - 1);
        self.maybe_pending[d] = false;
    }

    fn resolve_sub(&mut self, d: usize, sink: &mut impl ActionSink) {
        if d + 1 < self.digits {
            if self.virt[d + 1] - 1 < -(self.radix as i64) {
                self.resolve_sub(d + 1, sink);
            }
            self.virt[d + 1] -= i64::from(self.virt[d] < 0);
            if self.virt[d + 1] < 0 {
                self.maybe_pending[d + 1] = true;
            }
        }
        sink.push(CounterAction::ResolveBorrow { digit: d });
        self.virt[d] = self.virt[d].max(0);
        self.maybe_pending[d] = false;
    }
}

/// Executes a plan on a [`crate::bank::CounterBank`] with the given mask.
pub fn apply_plan(
    bank: &mut crate::bank::CounterBank,
    actions: &[CounterAction],
    mask: &c2m_cim::Row,
) {
    for &a in actions {
        match a {
            CounterAction::Increment { digit, k } => bank.increment_digit(digit, k, mask),
            CounterAction::Decrement { digit, k } => bank.decrement_digit(digit, k, mask),
            CounterAction::ResolveCarry { digit } => bank.resolve_carry(digit),
            CounterAction::ResolveBorrow { digit } => bank.resolve_borrow(digit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::CounterBank;
    use c2m_cim::Row;
    use proptest::prelude::*;

    /// Accumulate a stream through IARM and check exact results.
    fn iarm_accumulate(radix: usize, digits: usize, inputs: &[i64]) {
        let mut bank = CounterBank::new(radix, digits, 4);
        let mut planner = IarmPlanner::new(radix, digits);
        let mask = Row::ones(4);
        let capacity = (radix as i128).pow(digits as u32);
        let mut expect = 0i128;
        for &x in inputs {
            let actions = if x >= 0 {
                planner.plan_add(x as u128)
            } else {
                planner.plan_sub((-x) as u128)
            };
            apply_plan(&mut bank, &actions, &mask);
            expect = (expect + i128::from(x)).rem_euclid(capacity);
        }
        let actions = planner.flush();
        apply_plan(&mut bank, &actions, &mask);
        for col in 0..4 {
            assert_eq!(
                bank.get(col),
                Some(expect as u128),
                "radix={radix} digits={digits} inputs={inputs:?}"
            );
        }
    }

    #[test]
    fn fig9_stream_of_nines() {
        // Fig. 9's running example: repeated +9 on a radix-10 counter.
        iarm_accumulate(10, 5, &[9999, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn mixed_values_and_radices() {
        iarm_accumulate(10, 4, &[123, 999, 1, 47, 1000, 888]);
        iarm_accumulate(4, 8, &[3, 17, 255, 63, 1, 2, 3, 4]);
        iarm_accumulate(8, 5, &[511, 7, 7, 7, 100, 4095]);
        iarm_accumulate(16, 4, &[15, 240, 4095, 1]);
    }

    #[test]
    fn negative_inputs_and_direction_switches() {
        iarm_accumulate(10, 4, &[500, -123, -377, 9, -8]);
        iarm_accumulate(10, 3, &[100, -1, -1, -1, 50, -148]);
        iarm_accumulate(8, 4, &[64, -65, 100, -99]);
    }

    #[test]
    fn iarm_issues_fewer_resolves_than_full_rippling() {
        // Accumulating many 9s: full rippling resolves on nearly every
        // input (Fig. 9's motivating pathology), IARM only occasionally.
        let radix = 10;
        let digits = 6;
        let inputs = vec![9u128; 200];

        let mut planner = IarmPlanner::new(radix, digits);
        let mut iarm_resolves = 0usize;
        let mut iarm_incs = 0usize;
        for &x in &inputs {
            for a in planner.plan_add(x) {
                match a {
                    CounterAction::ResolveCarry { .. } => iarm_resolves += 1,
                    CounterAction::Increment { .. } => iarm_incs += 1,
                    _ => {}
                }
            }
        }

        // Data-oblivious full-rippling baseline: the controller cannot
        // observe O_next, so each increment is followed by a ripple chain
        // through every higher digit (§4.5.2's motivating pathology).
        let ripple_total = inputs.len() * (1 + (digits - 1));

        let iarm_total = iarm_resolves + iarm_incs;
        assert!(
            iarm_total < ripple_total,
            "IARM {iarm_total} ops should beat oblivious rippling {ripple_total}"
        );
        // Even on the worst-case all-nines stream, resolves stay
        // single-digit affairs: far fewer total resolves than the
        // (digits−1)-long chains the oblivious baseline pays per input.
        assert!(iarm_resolves < 2 * inputs.len());
    }

    #[test]
    fn virtual_counter_never_exceeds_extended_range() {
        let radix = 10;
        let mut planner = IarmPlanner::new(radix, 5);
        for x in [9u128, 99, 999, 9999, 9, 9, 9, 99999, 9, 9] {
            let _ = planner.plan_add(x);
            for &v in planner.virtual_digits() {
                assert!(v < 2 * radix as i64, "virtual digit {v} overflow");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn counting_sink_totals_the_plan_length(
            half in 1usize..=16,
            digits in 1usize..=12,
            zeroed in any::<bool>(),
            stream in prop::collection::vec(-5000i64..5000, 0..48),
        ) {
            let radix = 2 * half;
            let capacity = (radix as u128).pow(digits as u32);
            let mut listed = IarmPlanner::new(radix, digits);
            if zeroed {
                listed.assume_zero();
            }
            let mut counted = listed.clone();
            let mut count = ActionCount::default();
            let mut len = 0;
            // Random signs switch direction often, and every switch
            // flushes into the sink before the next value.
            for &x in &stream {
                let v = u128::from(x.unsigned_abs()) % capacity;
                let plan = if x >= 0 {
                    counted.plan_add_into(v, &mut count);
                    listed.plan_add(v)
                } else {
                    counted.plan_sub_into(v, &mut count);
                    listed.plan_sub(v)
                };
                len += plan.len() as u64;
                prop_assert_eq!(count.0, len, "after {}", x);
                prop_assert_eq!(counted.virtual_digits(), listed.virtual_digits());
            }
            len += listed.flush().len() as u64;
            counted.flush_into(&mut count);
            prop_assert_eq!(count.0, len, "after the flush");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "value exceeds counter capacity")]
    fn plan_sub_asserts_the_value_fits() {
        let _ = IarmPlanner::new(10, 2).plan_sub(100);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut planner = IarmPlanner::new(10, 3);
        let _ = planner.plan_add(999);
        let first = planner.flush();
        let second = planner.flush();
        assert!(!first.is_empty(), "999 leaves pending carries to flush");
        assert!(second.is_empty(), "second flush must be a no-op");
    }
}
