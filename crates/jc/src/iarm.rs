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
//! [`IarmPlanner`] builds the plan a counter bank executes
//! ([`apply_plan`]). Pricing needs only the plan's length, once per
//! input value of every request with a new input, and [`count_actions`]
//! computes that length one digit column at a time, without building the
//! plan or walking it value by value.
//!
//! # Why a column pass is exact
//!
//! Write r = 2n for the radix and h for a column's *headroom*: its
//! virtual digit in an add pass, and `(r − 1) − virt` in a sub pass, so
//! both passes run the same update (the planner's sub rules are its add
//! rules on h). A column resolves when h would pass 2r − 1; a resolve
//! leaves h = r − 1 and sends one carry to the column above.
//!
//! * **At most one carry per value.** Within one pass, a column receives
//!   at most one carry per value, before its own digit of that value:
//!   digits are planned low to high, and resolves cascade only upward. A
//!   carry that finds the column full (h = 2r − 1) resolves it first,
//!   leaving h = r, and a digit k ≤ r − 1 then ends at ≤ 2r − 1. So each
//!   column resolves at most once per value, and a column's evolution
//!   depends only on its own (carry, digit) pairs in stream order.
//! * **The per-value update.** With carry bit c and digit k, let
//!   s = h + c + k. If s ≤ 2r − 1, then h′ = s. Otherwise the column
//!   resolves once, h′ = r − 1 + k + [h + c = 2r], and the column above
//!   gets the carry. The count grows by the resolves plus [k ≠ 0].
//! * **Columns above the top digit.** Above the stream's highest digit
//!   column a column sees only carries, so only their number matters.
//!   From headroom h₀ the first forced resolve comes at carry 2r − h₀,
//!   then one every r carries, so each such column costs O(1).
//! * **Flushes.** Each pass ends with the planner's own flush on the
//!   final headrooms: ascending, every column at h ≥ r resolves, and a
//!   resolve whose carry finds the column above full resolves that one
//!   first. The flush that ends the add pass is the one the switch to
//!   the sub pass forces, after which every sub-mode bound restarts at
//!   h = r − 1.

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Add,
    Sub,
}

/// Host-side IARM planner: the state machine whose plans a counter bank
/// executes, and the reference [`count_actions`] is tested against.
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
    /// a digit could otherwise need a second pending overflow. Digits of
    /// `value` at or above the counter's digit count are dropped (a debug
    /// build asserts there are none).
    pub fn plan_add(&mut self, value: u128) -> Vec<CounterAction> {
        let mut out = Vec::new();
        self.enter(Direction::Add, &mut out);
        let extended = 2 * self.radix as i64 - 1; // 4n − 1
        let mut digits = Digits::new(value, self.radix);
        for (d, k) in digits.by_ref().take(self.digits).enumerate() {
            if k == 0 {
                continue;
            }
            // Make room: resolving may cascade upward first.
            if self.virt[d] + k as i64 > extended {
                self.resolve_add(d, &mut out);
            }
            out.push(CounterAction::Increment { digit: d, k });
            self.virt[d] += k as i64;
            self.maybe_pending[d] |= self.virt[d] >= self.radix as i64;
        }
        debug_assert!(digits.next().is_none(), "value exceeds counter capacity");
        out
    }

    /// Plans the subtraction of `value` (negative inputs, §4.4), dropping
    /// digits past the counter's digit count like [`Self::plan_add`].
    pub fn plan_sub(&mut self, value: u128) -> Vec<CounterAction> {
        let mut out = Vec::new();
        self.enter(Direction::Sub, &mut out);
        let floor = -(self.radix as i64); // −2n
        let mut digits = Digits::new(value, self.radix);
        for (d, k) in digits.by_ref().take(self.digits).enumerate() {
            if k == 0 {
                continue;
            }
            if self.virt[d] - (k as i64) < floor {
                self.resolve_sub(d, &mut out);
            }
            out.push(CounterAction::Decrement { digit: d, k });
            self.virt[d] -= k as i64;
            self.maybe_pending[d] |= self.virt[d] < 0;
        }
        debug_assert!(digits.next().is_none(), "value exceeds counter capacity");
        out
    }

    /// Flushes every pending flag (must run before counters are read out
    /// or before the input stream switches direction).
    pub fn flush(&mut self) -> Vec<CounterAction> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    fn flush_into(&mut self, out: &mut Vec<CounterAction>) {
        for d in 0..self.digits {
            if self.maybe_pending[d] {
                match self.direction {
                    Direction::Add => self.resolve_add(d, out),
                    Direction::Sub => self.resolve_sub(d, out),
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
    fn enter(&mut self, direction: Direction, out: &mut Vec<CounterAction>) {
        if self.direction != direction {
            self.flush_into(out);
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

    fn resolve_add(&mut self, d: usize, out: &mut Vec<CounterAction>) {
        if d + 1 < self.digits {
            // The +1 into d+1 must itself fit below 4n−1.
            if self.virt[d + 1] + 1 > 2 * self.radix as i64 - 1 {
                self.resolve_add(d + 1, out);
            }
            self.virt[d + 1] += i64::from(self.virt[d] >= self.radix as i64);
            if self.virt[d + 1] >= self.radix as i64 {
                self.maybe_pending[d + 1] = true;
            }
        }
        out.push(CounterAction::ResolveCarry { digit: d });
        // Flags cleared; the worst-case digit is back below the radix.
        self.virt[d] = self.virt[d].min(self.radix as i64 - 1);
        self.maybe_pending[d] = false;
    }

    fn resolve_sub(&mut self, d: usize, out: &mut Vec<CounterAction>) {
        if d + 1 < self.digits {
            if self.virt[d + 1] - 1 < -(self.radix as i64) {
                self.resolve_sub(d + 1, out);
            }
            self.virt[d + 1] -= i64::from(self.virt[d] < 0);
            if self.virt[d + 1] < 0 {
                self.maybe_pending[d + 1] = true;
            }
        }
        out.push(CounterAction::ResolveBorrow { digit: d });
        self.virt[d] = self.virt[d].max(0);
        self.maybe_pending[d] = false;
    }
}

/// The number of actions an [`IarmPlanner`] emits for a stream the host
/// has reordered into an add pass and a sub pass: after
/// [`IarmPlanner::assume_zero`] when `zeroed` (else from the pessimistic
/// start of [`IarmPlanner::new`]), [`IarmPlanner::plan_add`] on every
/// value of `adds`, [`IarmPlanner::plan_sub`] on every value of `subs`,
/// then [`IarmPlanner::flush`]. Each pass is given as runs of values taken
/// in order, so a pass `x ++ y` needs no concatenated copy. Digits at or
/// above `digits` are dropped, as the planner drops them.
///
/// It counts one digit column at a time (see the [module docs](self)),
/// without building the plan.
///
/// ```
/// use c2m_jc::iarm::{count_actions, IarmPlanner};
///
/// let mut planner = IarmPlanner::new(10, 3);
/// planner.assume_zero();
/// let planned = planner.plan_add(999).len()
///     + planner.plan_add(5).len()
///     + planner.plan_sub(7).len()
///     + planner.flush().len();
/// assert_eq!(count_actions(10, 3, true, &[&[999], &[5]], &[&[7]]), planned as u64);
/// ```
///
/// # Panics
///
/// Panics if `radix` is odd or zero, or `digits` is zero.
#[must_use]
pub fn count_actions(
    radix: usize,
    digits: usize,
    zeroed: bool,
    adds: &[&[u64]],
    subs: &[&[u64]],
) -> u64 {
    assert!(radix >= 2 && radix.is_multiple_of(2), "radix must be even");
    assert!(digits > 0, "need at least one digit");
    let len = |runs: &[&[u64]]| runs.iter().map(|run| run.len()).sum::<usize>();
    let mut carries = vec![0; len(adds).max(len(subs))];
    let mut headroom = vec![0; digits];
    // A pass with no values leaves every column below the radix, so its
    // flush is empty too: a stream without subtractions never switches.
    let start = if zeroed { 0 } else { radix - 1 };
    [(adds, start), (subs, radix - 1)]
        .into_iter()
        .map(|(runs, start)| {
            headroom.fill(start);
            count_pass(radix, &mut headroom, runs, &mut carries[..len(runs)])
                + count_flush(radix, &mut headroom)
        })
        .sum()
}

/// The actions of one pass over `runs`, from the headrooms in
/// `headroom`: a dense pass per digit column up to the highest digit any
/// value has, then the carry-only columns above it in closed form.
fn count_pass(radix: usize, headroom: &mut [usize], runs: &[&[u64]], carries: &mut [u8]) -> u64 {
    carries.fill(0);
    // No value has more digits than the OR of all of them, which is at
    // least their maximum.
    let any = runs
        .iter()
        .flat_map(|run| run.iter())
        .fold(0, |acc, &v| acc | v);
    let top = Digits::new(u128::from(any), radix)
        .count()
        .min(headroom.len());
    let (dense, above) = headroom.split_at_mut(top);
    let r = radix as u64;
    let mut count = 0;
    for (j, h) in dense.iter_mut().enumerate() {
        // r^j ≤ any, so neither the shift nor the power overflows.
        count += if r.is_power_of_two() {
            let shift = r.trailing_zeros() * j as u32;
            count_column(radix, h, runs, carries, |v| (v >> shift & (r - 1)) as usize)
        } else {
            let place = r.pow(j as u32);
            count_column(radix, h, runs, carries, |v| (v / place % r) as usize)
        };
    }
    let mut carried = carries.iter().map(|&c| u64::from(c)).sum();
    for h in above {
        if carried == 0 {
            break;
        }
        carried = count_carries(radix, h, carried);
        count += carried;
    }
    count
}

/// One digit column over every value of a pass, in stream order.
/// `carries[i]` holds the carry value `i` brings from the column below,
/// and is left holding the carry it sends to the column above.
fn count_column(
    radix: usize,
    headroom: &mut usize,
    runs: &[&[u64]],
    carries: &mut [u8],
    digit: impl Fn(u64) -> usize,
) -> u64 {
    let full = 2 * radix - 1;
    let mut h = *headroom;
    let mut count = 0;
    let mut rest = carries;
    for run in runs {
        let (here, tail) = std::mem::take(&mut rest).split_at_mut(run.len());
        rest = tail;
        for (&v, carry) in run.iter().zip(here) {
            let k = digit(v);
            let t = h + usize::from(*carry);
            let over = t + k > full;
            h = if over {
                radix - 1 + k + usize::from(t > full)
            } else {
                t + k
            };
            *carry = u8::from(over);
            count += u64::from(over) + u64::from(k != 0);
        }
    }
    *headroom = h;
    count
}

/// `carried` carries into a column above the stream's highest digit,
/// where no value brings a digit: from headroom h the first carry to find
/// the column full is carry 2r − h, and then every r-th one, and each of
/// those resolves the column to r − 1 before taking its carry. Returns
/// the resolves, which are the carries the column sends up.
fn count_carries(radix: usize, headroom: &mut usize, carried: u64) -> u64 {
    let r = radix as u64;
    let first = 2 * r - *headroom as u64;
    if carried < first {
        *headroom += carried as usize;
        return 0;
    }
    let after = carried - first;
    *headroom = (r + after % r) as usize;
    1 + after / r
}

/// The planner's flush on the final headrooms, ascending: every column
/// at or above the radix resolves, and when its carry would find the
/// column above full, that one resolves first (and so on up), each then
/// taking the carry from below.
fn count_flush(radix: usize, headroom: &mut [usize]) -> u64 {
    let full = 2 * radix - 1;
    let mut count = 0;
    for d in 0..headroom.len() {
        if headroom[d] < radix {
            continue;
        }
        let mut top = d;
        while headroom.get(top + 1) == Some(&full) {
            top += 1;
        }
        count += (top - d + 1) as u64;
        headroom[d] = radix - 1;
        headroom[d + 1..=top].fill(radix);
        if let Some(next) = headroom.get_mut(top + 1) {
            *next += 1;
        }
    }
    count
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

    /// The planner's plan length for the same stream: `assume_zero`
    /// when `zeroed`, every add, every sub, then the flush.
    fn planned(radix: usize, digits: usize, zeroed: bool, adds: &[u64], subs: &[u64]) -> u64 {
        let mut planner = IarmPlanner::new(radix, digits);
        if zeroed {
            planner.assume_zero();
        }
        let mut len = 0;
        for &v in adds {
            len += planner.plan_add(u128::from(v)).len();
        }
        for &v in subs {
            len += planner.plan_sub(u128::from(v)).len();
        }
        (len + planner.flush().len()) as u64
    }

    /// A value the counter holds, from a random `seed`, shaped by `kind`:
    /// 0 any digits; 1 only the lowest one to three digits, so many
    /// carries reach the columns above the stream's top digit; 2 every
    /// digit r − 1 up to a random column, so carries run past the top
    /// column and the flush cascades through full columns; 3 one of these
    /// three, per value.
    fn value(radix: usize, digits: usize, kind: usize, seed: u64) -> u64 {
        // The counter's capacity as a number of digits that fits a u64.
        let fits = (1..=digits as u32)
            .take_while(|&m| (radix as u64).checked_pow(m).is_some())
            .last()
            .unwrap_or(0);
        let below = |m: u32| (radix as u64).pow(m.min(fits));
        let any = if digits as u32 > fits {
            u64::MAX
        } else {
            below(fits) - 1
        };
        match kind {
            0 => any.checked_add(1).map_or(seed, |capacity| seed % capacity),
            1 => seed % below(1 + (seed % 3) as u32),
            2 => below(1 + (seed % u64::from(fits.max(1))) as u32) - 1,
            _ => value(radix, digits, (seed % 3) as usize, seed / 3),
        }
    }

    /// The counter on a stream whose passes are each split into two runs
    /// at `cut`, against the planner on the whole stream.
    fn check(radix: usize, digits: usize, zeroed: bool, adds: &[u64], subs: &[u64], cut: usize) {
        let (a0, a1) = adds.split_at(cut % (adds.len() + 1));
        let (s0, s1) = subs.split_at(cut % (subs.len() + 1));
        assert_eq!(
            count_actions(radix, digits, zeroed, &[a0, a1], &[s0, s1]),
            planned(radix, digits, zeroed, adds, subs),
            "radix={radix} digits={digits} zeroed={zeroed} adds={adds:?} subs={subs:?}"
        );
    }

    #[test]
    fn column_count_matches_the_planner_on_every_shape() {
        // Every even radix to 32 with the engine's 4 × 32 among them,
        // both start states, empty and non-empty passes, and each shape
        // of value.
        for half in 1..=16 {
            let radix = 2 * half;
            for digits in [1, 2, 3, 5, 8, 13, 32] {
                for zeroed in [false, true] {
                    for kind in 0..4 {
                        let stream = |n: usize, salt: u64| -> Vec<u64> {
                            (0..n as u64)
                                .map(|i| {
                                    let seed = (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                                    value(radix, digits, kind, seed ^ (seed >> 29))
                                })
                                .collect()
                        };
                        let (adds, subs) = (stream(150, 1), stream(150, 7));
                        check(radix, digits, zeroed, &adds, &subs, 40);
                        check(radix, digits, zeroed, &adds, &[], 0);
                        check(radix, digits, zeroed, &[], &subs, 150);
                        check(radix, digits, zeroed, &[], &[], 0);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn column_count_matches_the_planner(
            (half, digits) in (1usize..=16, 1usize..=32),
            zeroed in any::<bool>(),
            kind in 0usize..4,
            adds in prop::collection::vec(any::<u64>(), 0..200),
            subs in prop::collection::vec(any::<u64>(), 0..200),
            cut in any::<usize>(),
        ) {
            let radix = 2 * half;
            let shape = |seeds: &[u64]| -> Vec<u64> {
                seeds.iter().map(|&s| value(radix, digits, kind, s)).collect()
            };
            check(radix, digits, zeroed, &shape(&adds), &shape(&subs), cut);
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
