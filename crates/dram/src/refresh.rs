//! DRAM refresh modelling (tREFI / tRFC).
//!
//! Real DRAM must refresh every row periodically; the memory controller
//! issues an all-bank REF command every `tREFI`, which blocks the rank
//! for `tRFC`. CIM workloads run for milliseconds, so refresh steals a
//! fixed fraction of the command bandwidth and stretches every measured
//! latency by `1 / (1 − tRFC/tREFI)`. The paper's simulator (an NVMain
//! extension) accounts for this; [`RefreshModel`] reproduces it at the
//! same granularity.
//!
//! Count2Multiply has one extra wrinkle: a REF arriving mid-μProgram is
//! harmless (counter rows are plain DRAM rows and are refreshed like
//! any other), but the in-flight AAP must complete first. The figures
//! read only the bandwidth-loss fraction
//! ([`RefreshModel::overhead_fraction`]); the REF count and refresh
//! energy over an interval are test-only.

use serde::{Deserialize, Serialize};

/// Refresh parameters and derived overheads, all times in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefreshModel {
    /// Average refresh interval (REF-to-REF), ns.
    pub t_refi: f64,
    /// Refresh cycle time (rank blocked per REF), ns.
    pub t_rfc: f64,
    /// Energy per all-bank refresh, nanojoules.
    pub refresh_energy_nj: f64,
}

impl RefreshModel {
    /// DDR5 normal-temperature refresh: tREFI = 3.9 µs, tRFC = 195 ns
    /// (4 Gb device class, matching Table 2), ~24 nJ per REF.
    #[must_use]
    pub fn ddr5_4400() -> Self {
        Self {
            t_refi: 3900.0,
            t_rfc: 195.0,
            refresh_energy_nj: 24.0,
        }
    }

    /// DDR4 normal-temperature refresh: tREFI = 7.8 µs, tRFC = 260 ns.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            t_refi: 7800.0,
            t_rfc: 260.0,
            refresh_energy_nj: 30.0,
        }
    }

    /// Fine-granularity (2×) refresh: half the interval, ~60 % of the
    /// cycle time — the standard trade for lower worst-case blocking.
    #[cfg(test)]
    fn fine_granularity(self) -> Self {
        Self {
            t_refi: self.t_refi / 2.0,
            t_rfc: self.t_rfc * 0.6,
            refresh_energy_nj: self.refresh_energy_nj * 0.55,
        }
    }

    /// Fraction of time the rank is blocked by refresh.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        self.t_rfc / self.t_refi
    }

    /// Stretches a busy time to wall-clock time including refresh:
    /// `busy / (1 − overhead)`.
    ///
    /// # Panics
    ///
    /// Panics if the overhead fraction is ≥ 1 (non-physical parameters).
    #[must_use]
    pub fn effective_elapsed_ns(&self, busy_ns: f64) -> f64 {
        let f = self.overhead_fraction();
        assert!(f < 1.0, "refresh would consume the whole rank");
        busy_ns / (1.0 - f)
    }

    /// Number of REF commands issued during `elapsed_ns` of wall-clock
    /// time.
    #[cfg(test)]
    fn refreshes_during(&self, elapsed_ns: f64) -> u64 {
        (elapsed_ns / self.t_refi).floor() as u64
    }

    /// Refresh energy spent during `elapsed_ns` of wall-clock time, nJ.
    #[cfg(test)]
    fn refresh_energy_during_nj(&self, elapsed_ns: f64) -> f64 {
        self.refreshes_during(elapsed_ns) as f64 * self.refresh_energy_nj
    }
}

impl Default for RefreshModel {
    fn default() -> Self {
        Self::ddr5_4400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_overhead_is_about_five_percent() {
        let r = RefreshModel::ddr5_4400();
        let f = r.overhead_fraction();
        assert!(f > 0.03 && f < 0.07, "overhead {f}");
    }

    #[test]
    fn effective_elapsed_stretches_busy_time() {
        let r = RefreshModel::ddr5_4400();
        let busy = 1_000_000.0; // 1 ms
        let wall = r.effective_elapsed_ns(busy);
        assert!(wall > busy);
        // busy / wall must equal 1 − overhead.
        assert!((busy / wall - (1.0 - r.overhead_fraction())).abs() < 1e-12);
    }

    #[test]
    fn refresh_count_scales_linearly() {
        let r = RefreshModel::ddr5_4400();
        assert_eq!(r.refreshes_during(0.0), 0);
        assert_eq!(r.refreshes_during(3900.0 * 10.0), 10);
        let e = r.refresh_energy_during_nj(3900.0 * 10.0);
        assert!((e - 240.0).abs() < 1e-9);
    }

    #[test]
    fn fine_granularity_lowers_blocking_but_not_bandwidth() {
        let base = RefreshModel::ddr5_4400();
        let fgr = base.fine_granularity();
        // Shorter per-REF blocking...
        assert!(fgr.t_rfc < base.t_rfc);
        // ...while total overhead stays within ~1.5x of the base.
        assert!(fgr.overhead_fraction() < base.overhead_fraction() * 1.5);
    }

    #[test]
    fn ddr4_parameters_differ() {
        let a = RefreshModel::ddr4_2400();
        let b = RefreshModel::ddr5_4400();
        assert!(a.t_refi > b.t_refi);
        assert!(a.t_rfc > b.t_rfc);
    }
}
