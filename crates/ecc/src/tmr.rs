//! Triple modular redundancy — the fault-tolerance baseline.
//!
//! §3 of the paper: TMR repeats every CIM operation three times and takes
//! a majority vote, a ≈4× overhead in operation count (three computations
//! plus the vote, itself a CIM MAJ3 that can fault). Its residual error
//! rate is *worse* than single-error-detecting ECC because two coincident
//! faults out-vote the correct result, and the vote operation adds its own
//! exposure.

#[cfg(test)]
use c2m_cim::{FaultModel, Row};
use serde::{Deserialize, Serialize};

/// TMR cost model: the op-count multiplier and the residual error rate
/// of three replicas and a vote (its tests run the vote itself on rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TmrVoter;

impl TmrVoter {
    /// Operation-count multiplier of TMR relative to unprotected execution
    /// (three computations + one voting operation).
    pub const OP_OVERHEAD: f64 = 4.0;

    /// Executes `compute` three times and returns the columnwise majority.
    /// The vote itself is a CIM MAJ3 and is perturbed by `vote_faults`.
    #[cfg(test)]
    fn vote_rows(mut compute: impl FnMut() -> Row, vote_faults: &mut FaultModel) -> Row {
        let a = compute();
        let b = compute();
        let c = compute();
        let mut m = Row::maj3(&a, &b, &c);
        vote_faults.perturb(&mut m);
        m
    }

    /// Residual per-bit error probability when TMR protects a *chain* of
    /// `chain_ops` CIM operations: each replica accumulates error
    /// ≈ `chain_ops · p`, two coincident replica errors out-vote the
    /// majority, and the single vote operation (itself a CIM MAJ3) adds
    /// its own exposure. TMR only pays off because the vote is amortised
    /// over the chain — voting every single op would never beat
    /// unprotected execution.
    #[must_use]
    pub fn residual_error_rate_chain(p: f64, chain_ops: u32) -> f64 {
        let e = (f64::from(chain_ops) * p).min(1.0);
        let double = 3.0 * e * e * (1.0 - e);
        let triple = e * e * e;
        let vote = p * (1.0 - double - triple);
        (double + triple + vote).min(1.0)
    }

    /// Effective *per-operation* undetected error rate when TMR wraps the
    /// three-op masked-update sequence of a counter bit (two ANDs and an
    /// OR, §4.2): the chain residual spread back over its ops, so it can
    /// be compared against the raw per-op rate.
    #[must_use]
    pub fn effective_per_op_rate(p: f64) -> f64 {
        const CHAIN: u32 = 3;
        (Self::residual_error_rate_chain(p, CHAIN) / f64::from(CHAIN)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmr_masks_single_fault() {
        // Two good copies + one bad copy -> vote restores the value.
        let width = 256;
        let good = Row::ones(width);
        let mut call = 0usize;
        let mut faults = FaultModel::fault_free();
        let out = TmrVoter::vote_rows(
            || {
                call += 1;
                if call == 2 {
                    Row::zeros(width) // a fully faulty replica
                } else {
                    good.clone()
                }
            },
            &mut faults,
        );
        assert_eq!(out, Row::ones(width));
    }

    #[test]
    fn residual_error_exceeds_p_squared_due_to_vote() {
        let p = 1e-3;
        let r = TmrVoter::residual_error_rate_chain(p, 1);
        assert!(r > 3.0 * p * p * 0.9);
        // Dominated by the unprotected vote op at small p.
        assert!(r > 0.5 * p);
    }

    #[test]
    fn chain_amortisation_makes_tmr_profitable() {
        // Per-op, TMR beats unprotected only because the vote amortises
        // over the protected chain.
        let p = 1e-3;
        assert!(TmrVoter::effective_per_op_rate(p) < p);
        // But it is far worse than the ECC scheme's ~1.5 p^3 (§3, Fig. 4).
        assert!(TmrVoter::effective_per_op_rate(p) > 1.5 * p * p * p * 10.0);
    }

    #[test]
    fn monte_carlo_tmr_beats_unprotected_at_moderate_rates() {
        let p = 0.05;
        let width = 4096;
        let mut compute_faults = FaultModel::new(p, 11);
        let mut vote_faults = FaultModel::fault_free(); // isolate replica effect
        let truth = Row::ones(width);
        let out = TmrVoter::vote_rows(
            || {
                let mut r = truth.clone();
                compute_faults.perturb(&mut r);
                r
            },
            &mut vote_faults,
        );
        let err = out.xor(&truth).count_ones() as f64 / width as f64;
        assert!(err < p, "TMR error {err} should beat raw rate {p}");
    }
}
