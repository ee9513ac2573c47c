//! DDR5 timing parameters used by the command scheduler.

use serde::{Deserialize, Serialize};

/// DRAM timing parameters, all in nanoseconds.
///
/// The values reproduce a DDR5-4400 part consistent with Table 2 and the
/// scheduling analysis of §7.2.1: a bank can accept one AAP (activate-
/// activate-precharge) macro-operation every `tAAP + tRRD`, four banks
/// overlap AAPs separated by `tRRD`, and with 16 banks the issue rate is
/// bounded by the four-activation window `tFAW` (14.5 ns, the conservative
/// estimate the paper quotes in §7.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Clock period (ns). DDR5-4400 → 2200 MHz command clock.
    pub t_ck: f64,
    /// Row activate to column command delay (ns).
    pub t_rcd: f64,
    /// Minimum row active time (ns).
    pub t_ras: f64,
    /// Row precharge time (ns).
    pub t_rp: f64,
    /// Activate-to-activate delay, different banks (ns).
    pub t_rrd: f64,
    /// Four-activation window (ns): at most four ACTs per rank within it.
    pub t_faw: f64,
    /// Column-to-column delay (ns), used for RD/WR streaming.
    pub t_ccd: f64,
    /// Burst latency of one RD/WR (ns).
    pub t_burst: f64,
    /// Rank-to-rank switch penalty (ns): consecutive commands to
    /// different ranks on the same channel pay this bus-turnaround gap
    /// (`tCCD_S`/`tRTRS`-style). Interleaving ranks relaxes the per-rank
    /// `tRRD`/`tFAW` windows but can never beat this floor.
    pub t_rank_switch: f64,
    /// Shared-bank serialization window for subarray-level parallelism
    /// (ns): row activations in *distinct subarrays of the same bank*
    /// overlap (SALP — each subarray has its own local row buffer), but
    /// every activation still claims the bank's shared global-bitline /
    /// command-distribution slot for this long. Concurrent per-subarray
    /// AAP streams therefore serialize at one command per
    /// `t_subarray_gate`, the subarray analogue of
    /// [`TimingParams::t_rank_switch`].
    pub t_subarray_gate: f64,
}

impl TimingParams {
    /// DDR5-4400 timings (conservative, matching the paper's setup).
    #[must_use]
    pub fn ddr5_4400() -> Self {
        Self {
            t_ck: 1.0 / 2.2, // 2200 MHz
            t_rcd: 14.5,
            t_ras: 32.0,
            t_rp: 14.5,
            t_rrd: 3.6,  // 8 tCK
            t_faw: 14.5, // conservative estimate quoted in §7.2.2
            t_ccd: 2.5,
            t_burst: 3.6,               // BL16 @ 4400 MT/s
            t_rank_switch: 2.5,         // ~5.5 tCK bus turnaround between ranks
            t_subarray_gate: 0.5 / 2.2, // half-tCK subarray-select slot
        }
    }

    /// DDR4-2400 timings — the older commodity part most in-DRAM CIM
    /// prototypes (Ambit, ComputeDRAM, FCDRAM) were characterised on.
    /// Useful as an ablation axis: C2M's advantage is architectural, not
    /// a DDR5 artefact.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            t_ck: 1.0 / 1.2, // 1200 MHz
            t_rcd: 14.16,
            t_ras: 32.0,
            t_rp: 14.16,
            t_rrd: 4.9, // tRRD_L
            t_faw: 21.0,
            t_ccd: 5.0,
            t_burst: 6.67,              // BL8 @ 2400 MT/s
            t_rank_switch: 3.3,         // ~4 tCK bus turnaround between ranks
            t_subarray_gate: 0.5 / 1.2, // half-tCK subarray-select slot
        }
    }

    /// Latency of one AAP (activate–activate–precharge) macro-operation.
    ///
    /// Following RowClone/Ambit, an AAP keeps the bank busy for
    /// `tRAS + tRP` (the second activation rides inside the first's
    /// restore window).
    #[must_use]
    pub fn t_aap(&self) -> f64 {
        self.t_ras + self.t_rp
    }

    /// Latency of one AP (multi-row activate + precharge) operation.
    ///
    /// Identical bank occupancy to an AAP: the triple-row activation is a
    /// single (longer) activation followed by a precharge.
    #[must_use]
    pub fn t_ap(&self) -> f64 {
        self.t_ras + self.t_rp
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr5_4400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aap_is_ras_plus_rp() {
        let t = TimingParams::ddr5_4400();
        assert!((t.t_aap() - 46.5).abs() < 1e-9);
        assert!((t.t_ap() - t.t_aap()).abs() < 1e-12);
    }

    #[test]
    fn faw_is_tighter_than_four_rrd_times_aap() {
        // The 16-bank regime of §7.2.1 only helps because tFAW < tAAP.
        let t = TimingParams::ddr5_4400();
        assert!(t.t_faw < t.t_aap());
        assert!(t.t_faw >= 4.0 * t.t_rrd);
    }

    #[test]
    fn subarray_gate_is_shorter_than_every_other_window() {
        // SALP only pays off if the shared-bank slot is narrower than
        // the windows it bypasses; it is a sub-tCK command-bus slot.
        for t in [TimingParams::ddr5_4400(), TimingParams::ddr4_2400()] {
            assert!(t.t_subarray_gate > 0.0);
            assert!(t.t_subarray_gate < t.t_ck);
            assert!(t.t_subarray_gate < t.t_rrd);
            assert!(t.t_subarray_gate < t.t_rank_switch);
        }
    }

    #[test]
    fn rank_switch_is_a_short_bus_gap() {
        // Rank interleaving must be able to pay off: the switch penalty
        // has to be cheaper than a same-rank ACT-ACT window, otherwise
        // adding ranks could never improve the issue rate.
        for t in [TimingParams::ddr5_4400(), TimingParams::ddr4_2400()] {
            assert!(t.t_rank_switch > 0.0);
            assert!(t.t_rank_switch < t.t_faw / 4.0 + t.t_rrd);
        }
    }
}
