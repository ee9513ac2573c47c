//! Closed-form operation-count models behind Fig. 8.
//!
//! All counts are in Ambit AAP/AP macro commands. The paper's cost anchors:
//!
//! * one masked k-ary increment including overflow check: `7n + 7` (§4.5.1,
//!   Tab. 1);
//! * unit counting of a multi-digit input repeats the increment
//!   `D + Σ d_i` times — digit-sum unit increments plus carry rippling
//!   (§4.4);
//! * k-ary counting with full carry propagation pays one increment per
//!   non-zero input digit plus the ripple chain through the remaining
//!   higher digits (§4.5.1, the capacity-dependent curves of Fig. 8b);
//! * IARM is input-dependent only (§4.5.2) — its expected cost is
//!   measured by counting the planner's actions on the inputs
//!   ([`count_actions`]), not by a closed form.

use crate::codec::JohnsonCode;
use crate::digits::Digits;
use crate::iarm::count_actions;

/// AAP/AP commands of one masked k-ary increment with overflow check on
/// an n-bit digit (the `7n + 7` anchor).
#[must_use]
pub fn increment_ops(n: usize) -> u64 {
    7 * n as u64 + 7
}

/// The widest counter capacity [`digits_for_capacity`] prices, in bits:
/// it compares against `2^capacity_bits` in `f64`, and 2^1023 is the
/// largest power of two an `f64` holds.
pub const MAX_CAPACITY_BITS: u32 = f64::MAX_EXP as u32 - 1;

/// Digits needed for a counter of `capacity_bits` binary capacity at the
/// given even `radix`.
///
/// The domain is `capacity_bits` in `1..=`[`MAX_CAPACITY_BITS`]. Outside
/// it the count is wrong, not an error: past 1023 bits `2^capacity_bits`
/// overflows to ∞ and the loop stops where the radix powers overflow
/// too (512 digits at radix 4, for any such capacity), and past 2³¹ the
/// exponent's cast to `i32` goes negative, so the result is 1 digit.
/// Callers validate first, as `C2mEngine`'s builder and `c2m plan` do.
///
/// # Panics
///
/// Panics if `radix` is odd or < 2.
#[must_use]
pub fn digits_for_capacity(radix: usize, capacity_bits: u32) -> usize {
    assert!(radix >= 2 && radix.is_multiple_of(2), "radix must be even");
    let need = 2f64.powi(capacity_bits as i32);
    let mut d = 1usize;
    let mut cap = radix as f64;
    while cap < need {
        cap *= radix as f64;
        d += 1;
    }
    d
}

/// Unit-counting cost of accumulating `value` into a `digits`-digit
/// radix-`2n` counter: `(Σ d_i + D) · (7n + 7)` — digit-sum unit
/// increments plus one rippling increment per digit (§4.4).
#[must_use]
pub fn unit_counting_ops(value: u128, radix: usize, digits: usize) -> u64 {
    let n = JohnsonCode::for_radix(radix).bits();
    let digit_sum: u64 = Digits::new(value, radix)
        .take(digits)
        .map(|d| d as u64)
        .sum();
    (digit_sum + digits as u64) * increment_ops(n)
}

/// k-ary counting cost with per-increment carry rippling: the paper's
/// `2·(7n+7)` per non-zero input digit (§4.5.1) — each k-ary increment is
/// followed by one carry-rippling command sequence.
#[must_use]
pub fn kary_full_ripple_ops(value: u128, radix: usize, digits: usize) -> u64 {
    let n = JohnsonCode::for_radix(radix).bits();
    let per = increment_ops(n);
    Digits::new(value, radix)
        .take(digits)
        .filter(|&k| k != 0)
        .map(|_| 2 * per)
        .sum()
}

/// Worst-case *data-oblivious* k-ary cost: the memory controller cannot
/// observe `O_next`, so without IARM it must issue the ripple chain all
/// the way to the most-significant digit after every increment. This is
/// the capacity-dependent family of k-ary curves in Fig. 8b
/// (`k-ary_i16/i32/i64`).
#[must_use]
pub fn kary_oblivious_chain_ops(value: u128, radix: usize, digits: usize) -> u64 {
    let n = JohnsonCode::for_radix(radix).bits();
    let per = increment_ops(n);
    Digits::new(value, radix)
        .take(digits)
        .enumerate()
        .filter(|&(_, k)| k != 0)
        .map(|(d, _)| per * (1 + (digits - 1 - d) as u64))
        .sum()
}

/// Measured IARM cost of accumulating an input stream: the actions the
/// planner emits for it from the pessimistic start (the additions, then
/// the final flush), counted column by column ([`count_actions`]), at
/// one increment each. Capacity-invariant in expectation, per §4.5.2.
#[must_use]
pub fn iarm_stream_ops(inputs: &[u64], radix: usize, digits: usize) -> u64 {
    let n = JohnsonCode::for_radix(radix).bits();
    count_actions(radix, digits, false, &[inputs], &[]) * increment_ops(n)
}

/// MAJ-based bit-serial ripple-carry addition cost on Ambit: adding one
/// operand into a `width`-bit accumulator costs ≈ 15 AAP/AP per bit
/// (operand staging, two MAJ3 for carry/sum, DCC inversions) — the flat
/// "RCA" reference levels of Fig. 8.
#[must_use]
pub fn rca_add_ops(width_bits: usize) -> u64 {
    15 * width_bits as u64
}

/// Average ops/input over a uniform 8-bit input distribution — the
/// quantity Fig. 8a/8b plot on the y axis.
#[must_use]
pub fn average_over_uniform_u8(f: impl Fn(u128) -> u64) -> f64 {
    let total: u64 = (0u128..256).map(f).sum();
    total as f64 / 256.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_formula() {
        assert_eq!(increment_ops(5), 42); // 7*5+7
        assert_eq!(increment_ops(2), 21);
    }

    #[test]
    fn digits_for_capacity_examples() {
        // 16-bit capacity in radix 10: 10^5 >= 65536 -> 5 digits.
        assert_eq!(digits_for_capacity(10, 16), 5);
        // 32-bit in radix 4: 4^16 = 2^32 -> 16 digits.
        assert_eq!(digits_for_capacity(4, 32), 16);
        assert_eq!(digits_for_capacity(2, 8), 8);
    }

    #[test]
    fn kary_beats_unit_counting() {
        // Fig. 8a: k-ary reduces ops by 2-6x over unit counting.
        for radix in [4usize, 6, 8, 10, 16, 20] {
            let digits = digits_for_capacity(radix, 32);
            let unit = average_over_uniform_u8(|v| unit_counting_ops(v, radix, digits));
            let kary = average_over_uniform_u8(|v| kary_full_ripple_ops(v, radix, digits));
            let gain = unit / kary;
            assert!(
                gain > 1.5,
                "radix {radix}: unit {unit:.0} vs kary {kary:.0} (gain {gain:.2})"
            );
        }
    }

    #[test]
    fn iarm_beats_kary_full_ripple() {
        // Fig. 8b: IARM provides the fewest operations, against both the
        // paper's 2-sequences-per-digit accounting and the data-oblivious
        // worst-case chain.
        let inputs: Vec<u64> = (0..256).collect();
        for radix in [4usize, 6, 8, 10] {
            let digits = digits_for_capacity(radix, 32);
            let kary: u64 = inputs
                .iter()
                .map(|&v| kary_full_ripple_ops(u128::from(v), radix, digits))
                .sum();
            let chain: u64 = inputs
                .iter()
                .map(|&v| kary_oblivious_chain_ops(u128::from(v), radix, digits))
                .sum();
            let iarm = iarm_stream_ops(&inputs, radix, digits);
            assert!(
                iarm < kary,
                "radix {radix}: IARM {iarm} should beat k-ary {kary}"
            );
            assert!(
                iarm < chain,
                "radix {radix}: IARM {iarm} should beat oblivious chain {chain}"
            );
        }
    }

    #[test]
    fn iarm_is_capacity_invariant() {
        // §4.5.2: the single IARM curve of Fig. 8b.
        let inputs: Vec<u64> = (1..256).collect();
        let d16 = digits_for_capacity(10, 16);
        let d64 = digits_for_capacity(10, 64);
        let a = iarm_stream_ops(&inputs, 10, d16);
        let b = iarm_stream_ops(&inputs, 10, d64);
        let ratio = b as f64 / a as f64;
        assert!(
            ratio < 1.05,
            "IARM cost must be (nearly) capacity invariant: {a} vs {b}"
        );
    }

    #[test]
    fn iarm_beats_rca_at_mid_radices() {
        // Fig. 8b: IARM wins over RCA particularly for radices 4-8.
        let inputs: Vec<u64> = (0..256).collect();
        for radix in [4usize, 6, 8] {
            let digits = digits_for_capacity(radix, 32);
            let iarm = iarm_stream_ops(&inputs, radix, digits) as f64 / 256.0;
            let rca = rca_add_ops(32) as f64;
            assert!(
                iarm < rca,
                "radix {radix}: IARM {iarm:.0} should beat RCA {rca:.0}"
            );
        }
    }

    #[test]
    fn rca_is_capacity_dependent() {
        assert!(rca_add_ops(64) > rca_add_ops(32));
        assert!(rca_add_ops(32) > rca_add_ops(16));
    }

    #[test]
    fn zero_input_costs_nothing_in_kary() {
        assert_eq!(kary_full_ripple_ops(0, 10, 5), 0);
        // But unit counting still pays the rippling allowance.
        assert!(unit_counting_ops(0, 10, 5) > 0);
    }
}
