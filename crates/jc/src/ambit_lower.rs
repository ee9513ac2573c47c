//! Exact Ambit μProgram lowering for masked k-ary increments (Fig. 6b).
//!
//! This module turns a [`TransitionPattern`] into the concrete AAP/AP
//! command sequence the memory controller broadcasts, using the Fig. 6b
//! schedule:
//!
//! * a **forward-shift** bit step costs 7 commands
//!   (`AAP m,B8; AAP C0,B9; AAP src,B2; AP B12; AAP dst,B2; AAP B14,B3;
//!   AAP B15,dst`);
//! * an **inverted-feedback** bit step costs 7 commands (Fig. 6b lines
//!   10–16, using the remapped B11 of footnote 2);
//! * overflow detection costs 6 commands for `k ≤ n` and 10 for the
//!   masked `k > n` rule;
//! * sources that are overwritten before they are consumed are first
//!   saved to θ rows (the generalisation of Fig. 6b's `AAP bn, O0`
//!   setup command). A unit increment saves exactly one row, giving the
//!   paper's `7n + 7` total; a k-step saves `min(k, 2n−k)` rows, so our
//!   lowering costs `7n + 6 + saves` (+4 for the masked overflow rule) —
//!   within `n − 1` commands of the paper's uniform-cost claim. Cost
//!   models (`crate::cost`) use the paper's `7n + 7` anchor throughout.

use crate::kary::{FlagRule, TransitionPattern};
use c2m_cim::ambit::{AmbitAddr, MicroProgram};

/// Where a counter digit lives inside an Ambit subarray's D-group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterLayout {
    /// Data-row index of each counter bit (LSB first), length n.
    pub bit_rows: Vec<usize>,
    /// Data row holding the mask m.
    pub mask_row: usize,
    /// Data row latching O_next.
    pub onext_row: usize,
    /// Scratch data rows for θ saves (need at least
    /// `min(k, 2n−k) + 1` rows available).
    pub theta_rows: Vec<usize>,
}

impl CounterLayout {
    /// A dense layout: bits at rows `base..base+n`, mask/O_next/θ after.
    #[must_use]
    pub fn dense(n: usize, base: usize) -> Self {
        Self {
            bit_rows: (base..base + n).collect(),
            mask_row: base + n,
            onext_row: base + n + 1,
            theta_rows: (base + n + 2..base + 2 * n + 3).collect(),
        }
    }

    /// Total data rows the layout needs beyond `base`.
    #[must_use]
    pub fn rows_needed(n: usize) -> usize {
        2 * n + 3
    }
}

/// Lowers one masked k-ary step (increment or decrement) plus its
/// overflow/underflow detection into an Ambit μProgram.
///
/// # Panics
///
/// Panics if the layout's geometry doesn't match the pattern width or if
/// too few θ rows are provided.
#[must_use]
pub fn lower_step(layout: &CounterLayout, pattern: &TransitionPattern) -> MicroProgram {
    let n = pattern.n();
    assert_eq!(layout.bit_rows.len(), n, "layout/pattern width mismatch");
    let mut prog = MicroProgram::new();
    let d = |r: usize| AmbitAddr::Data(r);

    // --- θ saves: any source read after its row is overwritten. We
    // process destinations in descending order, so dest j is written
    // before dest i whenever j > i; source s of dest i needs a save iff
    // s > i. The old MSB additionally always needs a save for the flag.
    let mut saves: Vec<usize> = Vec::new();
    for (i, s) in pattern.sources().iter().enumerate() {
        if s.src > i && !saves.contains(&s.src) {
            saves.push(s.src);
        }
    }
    if !saves.contains(&(n - 1)) {
        saves.push(n - 1); // old MSB for overflow detection
    }
    assert!(
        saves.len() <= layout.theta_rows.len(),
        "need {} θ rows, layout provides {}",
        saves.len(),
        layout.theta_rows.len()
    );
    let theta_of =
        |src: usize, saves: &[usize]| -> Option<usize> { saves.iter().position(|&s| s == src) };
    for (j, &src) in saves.iter().enumerate() {
        prog.aap(d(layout.bit_rows[src]), d(layout.theta_rows[j]));
    }

    // --- bit steps, MSB-first.
    for i in (0..n).rev() {
        let spec = pattern.sources()[i];
        // Row to read the source from: the live row if not yet
        // overwritten (spec.src <= i), else its θ save.
        let src_row = if spec.src > i {
            layout.theta_rows[theta_of(spec.src, &saves).expect("saved")]
        } else {
            layout.bit_rows[spec.src]
        };
        let dst_row = layout.bit_rows[i];
        if !spec.invert {
            // Forward shift (Fig. 6b lines 2-8).
            prog.aap(d(layout.mask_row), AmbitAddr::PairT0Dcc0); // T0<-m, DCC0<-!m
            prog.aap(AmbitAddr::C0, AmbitAddr::PairT1Dcc1); //      T1<-0, DCC1<-1
            prog.aap(d(src_row), AmbitAddr::T(2)); //               T2<-src
            prog.ap(AmbitAddr::TripleT0T1T2); //                    T0<-src&m
            prog.aap(d(dst_row), AmbitAddr::T(2)); //               T2<-old dst
            prog.aap(AmbitAddr::TripleT1T2Dcc0, AmbitAddr::T(3)); //T3<-maj(T1,dst,!m)
            prog.aap(AmbitAddr::TripleT0T3Dcc1, d(dst_row)); //     dst<-T0|T3
        } else {
            // Inverted feedback (Fig. 6b lines 10-16).
            prog.aap(d(dst_row), AmbitAddr::T(2)); //               T2<-old dst
            prog.aap(d(layout.mask_row), AmbitAddr::PairT0Dcc0); // T0<-m, DCC0<-!m
            prog.aap(AmbitAddr::C0, AmbitAddr::PairT1Dcc1); //      T1<-0, DCC1<-1
            prog.aap(AmbitAddr::TripleT1T2Dcc0, AmbitAddr::T(3)); //T3<-dst&!m
            prog.aap(d(src_row), AmbitAddr::DccNeg(0)); //          DCC0<-!src
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //                  T0<-m&!src
            prog.aap(AmbitAddr::TripleT0T3Dcc1, d(dst_row)); //     dst<-T0|T3
        }
    }

    // --- flag detection. The T1=0/DCC1=1 initialisation comes *first*
    // because the AP on B11 below destroys T1 (but leaves DCC1 intact for
    // the final OR), keeping the small-rule sequence at 6 commands.
    let old_msb = layout.theta_rows[theta_of(n - 1, &saves).expect("MSB saved")];
    let new_msb = layout.bit_rows[n - 1];
    match pattern.flag_rule() {
        FlagRule::IncSmall => {
            // O' = O | (oldMSB & !newMSB): 6 commands.
            prog.aap(AmbitAddr::C0, AmbitAddr::PairT1Dcc1); // T1<-0, DCC1<-1
            prog.aap(d(new_msb), AmbitAddr::DccNeg(0)); //     DCC0 <- !MSB'
            prog.aap(d(old_msb), AmbitAddr::T(0)); //          T0 <- old MSB
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //             T0 <- old & !new
            prog.aap(d(layout.onext_row), AmbitAddr::T(3)); // T3 <- O
            prog.aap(AmbitAddr::TripleT0T3Dcc1, d(layout.onext_row));
        }
        FlagRule::DecSmall => {
            // O' = O | (!oldMSB & newMSB): 6 commands.
            prog.aap(AmbitAddr::C0, AmbitAddr::PairT1Dcc1); // T1<-0, DCC1<-1
            prog.aap(d(old_msb), AmbitAddr::DccNeg(0)); //     DCC0 <- !old
            prog.aap(d(new_msb), AmbitAddr::T(0)); //          T0 <- MSB'
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //             T0 <- new & !old
            prog.aap(d(layout.onext_row), AmbitAddr::T(3));
            prog.aap(AmbitAddr::TripleT0T3Dcc1, d(layout.onext_row));
        }
        FlagRule::IncLarge => {
            // O' = O | ((oldMSB | !newMSB) & m)
            //    = O | (!(newMSB & !oldMSB) & m): 10 commands (T1 must be
            // re-zeroed after the first B11 AP destroys it).
            prog.aap(AmbitAddr::C0, AmbitAddr::PairT1Dcc1); // T1<-0, DCC1<-1
            prog.aap(d(old_msb), AmbitAddr::DccNeg(0)); //     DCC0 <- !old
            prog.aap(d(new_msb), AmbitAddr::T(0)); //          T0 <- MSB'
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //             T0 <- new & !old = u
            prog.aap(AmbitAddr::T(0), AmbitAddr::DccNeg(0)); //DCC0 <- !u
            prog.aap(AmbitAddr::C0, AmbitAddr::T(1)); //       T1 <- 0 (again)
            prog.aap(d(layout.mask_row), AmbitAddr::T(0)); //  T0 <- m
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //             T0 <- m & !u
            prog.aap(d(layout.onext_row), AmbitAddr::T(3));
            prog.aap(AmbitAddr::TripleT0T3Dcc1, d(layout.onext_row));
        }
        FlagRule::DecLarge => {
            // O' = O | ((!oldMSB | newMSB) & m)
            //    = O | (!(oldMSB & !newMSB) & m): 10 commands.
            prog.aap(AmbitAddr::C0, AmbitAddr::PairT1Dcc1); // T1<-0, DCC1<-1
            prog.aap(d(new_msb), AmbitAddr::DccNeg(0)); //     DCC0 <- !new
            prog.aap(d(old_msb), AmbitAddr::T(0)); //          T0 <- old
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //             T0 <- old & !new = u
            prog.aap(AmbitAddr::T(0), AmbitAddr::DccNeg(0)); //DCC0 <- !u
            prog.aap(AmbitAddr::C0, AmbitAddr::T(1)); //       T1 <- 0 (again)
            prog.aap(d(layout.mask_row), AmbitAddr::T(0)); //  T0 <- m
            prog.ap(AmbitAddr::TripleT0T1Dcc0); //             T0 <- m & !u
            prog.aap(d(layout.onext_row), AmbitAddr::T(3));
            prog.aap(AmbitAddr::TripleT0T3Dcc1, d(layout.onext_row));
        }
    }
    prog
}

/// Command count of [`lower_step`] for an increment by `k` on an n-bit
/// digit: `θ saves + 7n + (6 or 10)`. A unit increment saves one row and
/// uses the small flag rule, landing exactly on the paper's `7n + 7`.
#[cfg(test)]
fn lowered_ops(n: usize, k: usize) -> usize {
    // θ saves: sources consumed after their row is overwritten. For
    // k < n the inverted-feedback window {n−k..n−1} needs saving (k rows,
    // including the MSB); k = n maps every bit onto itself so only the
    // MSB (for the flag) is saved; k > n saves the k−n wrapped sources.
    let (saves, flag) = match k.cmp(&n) {
        std::cmp::Ordering::Less => (k, 6),
        std::cmp::Ordering::Equal => (1, 6),
        std::cmp::Ordering::Greater => (k - n, 10),
    };
    saves + 7 * n + flag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::JohnsonCode;
    use c2m_cim::ambit::AmbitSubarray;
    use c2m_cim::Row;

    /// Runs the lowered μProgram on a real Ambit subarray and compares
    /// against the software model for every (value, k, mask) combination.
    fn check_all(n: usize) {
        let code = JohnsonCode::new(n);
        let width = 2 * n * 2; // one column per (value, masked?) pair
        let layout = CounterLayout::dense(n, 0);
        for k in 1..2 * n {
            let pattern = TransitionPattern::increment(n, k);
            let prog = lower_step(&layout, &pattern);
            assert_eq!(prog.len(), lowered_ops(n, k), "ops n={n} k={k}");

            let mut sub = AmbitSubarray::new(width, CounterLayout::rows_needed(n));
            // Column 2v   = value v, masked;
            // column 2v+1 = value v, unmasked.
            let mut mask = Row::zeros(width);
            for v in 0..2 * n {
                mask.set(2 * v, true);
            }
            for i in 0..n {
                let mut row = Row::zeros(width);
                for v in 0..2 * n {
                    let bit = (code.encode(v) >> i) & 1 == 1;
                    row.set(2 * v, bit);
                    row.set(2 * v + 1, bit);
                }
                sub.write_data(layout.bit_rows[i], &row);
            }
            sub.write_data(layout.mask_row, &mask);
            sub.execute(&prog);

            for v in 0..2 * n {
                // Masked column advanced by k.
                let mut got = 0u64;
                for i in 0..n {
                    if sub.read_data(layout.bit_rows[i]).get(2 * v) {
                        got |= 1 << i;
                    }
                }
                assert_eq!(
                    got,
                    code.encode((v + k) % (2 * n)),
                    "n={n} k={k} v={v} (masked)"
                );
                // Unmasked column untouched.
                let mut keep = 0u64;
                for i in 0..n {
                    if sub.read_data(layout.bit_rows[i]).get(2 * v + 1) {
                        keep |= 1 << i;
                    }
                }
                assert_eq!(keep, code.encode(v), "n={n} k={k} v={v} (unmasked)");
                // Overflow flag.
                let fired = sub.read_data(layout.onext_row).get(2 * v);
                assert_eq!(fired, v + k >= 2 * n, "n={n} k={k} v={v} (flag)");
                let unmasked_fired = sub.read_data(layout.onext_row).get(2 * v + 1);
                assert!(!unmasked_fired, "n={n} k={k} v={v} unmasked flag");
            }
        }
    }

    #[test]
    fn lowered_increments_match_software_model_radix4() {
        check_all(2);
    }

    #[test]
    fn lowered_increments_match_software_model_radix10() {
        check_all(5);
    }

    #[test]
    fn lowered_increments_match_software_model_radix16() {
        check_all(8);
    }

    #[test]
    fn unit_increment_is_exactly_7n_plus_7() {
        // The Fig. 6b anchor: one θ save + 7n bit steps + 6 flag commands.
        for n in [2usize, 5, 8, 10] {
            assert_eq!(lowered_ops(n, 1), 7 * n + 7, "n={n}");
            let layout = CounterLayout::dense(n, 0);
            let prog = lower_step(&layout, &TransitionPattern::increment(n, 1));
            assert_eq!(prog.len(), 7 * n + 7, "emitted n={n}");
        }
    }

    #[test]
    fn decrement_lowering_matches_software_model() {
        let n = 5;
        let code = JohnsonCode::new(n);
        let layout = CounterLayout::dense(n, 0);
        for k in 1..2 * n {
            let pattern = TransitionPattern::decrement(n, k);
            let prog = lower_step(&layout, &pattern);
            let width = 2 * n;
            let mut sub = AmbitSubarray::new(width, CounterLayout::rows_needed(n));
            for i in 0..n {
                let mut row = Row::zeros(width);
                for v in 0..2 * n {
                    row.set(v, (code.encode(v) >> i) & 1 == 1);
                }
                sub.write_data(layout.bit_rows[i], &row);
            }
            sub.write_data(layout.mask_row, &Row::ones(width));
            sub.execute(&prog);
            for v in 0..2 * n {
                let mut got = 0u64;
                for i in 0..n {
                    if sub.read_data(layout.bit_rows[i]).get(v) {
                        got |= 1 << i;
                    }
                }
                assert_eq!(got, code.encode((v + 2 * n - k) % (2 * n)), "k={k} v={v}");
                // Borrow flag fires iff v < k.
                assert_eq!(
                    sub.read_data(layout.onext_row).get(v),
                    v < k,
                    "borrow k={k} v={v}"
                );
            }
        }
    }

    #[test]
    fn lowering_overhead_vs_paper_anchor_is_small() {
        // Our explicit-θ lowering is within n-1 commands of 7n+7 for
        // k <= n and within n+3 beyond (documented deviation).
        for n in [2usize, 5, 8] {
            for k in 1..2 * n {
                let anchor = 7 * n + 7;
                let ours = lowered_ops(n, k);
                assert!(ours >= anchor - 1);
                assert!(ours <= anchor + n + 3, "n={n} k={k}: {ours}");
            }
        }
    }
}
