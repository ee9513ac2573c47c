//! Per-command DRAM energy model.
//!
//! The reproduction does not have access to the authors' power traces, so
//! this module provides a transparent constant-per-command model in the
//! style of DRAMPower: each command kind costs a fixed energy per rank
//! (activation/restore energy dominates for CIM macro ops), plus static
//! background power integrated over elapsed time. Because the C2M-vs-
//! SIMDRAM comparison in the paper is driven by *operation counts* on the
//! same substrate, ratios (the quantity the paper reports) are insensitive
//! to the absolute constants; they are nonetheless chosen to be plausible
//! for a DDR5 x8 rank.
//!
//! A launch's energy is one formula,
//! [`EnergyModel::system_energy_nj`]: the dynamic energy of its
//! aggregate command counts plus static power on every rank of the
//! topology for the whole makespan. [`crate::ExecutionReport::from_run`]
//! stores that number as `energy_nj`.

use crate::command::CommandKind;
use crate::config::DramConfig;
use crate::stats::CommandStats;
use serde::{Deserialize, Serialize};

/// Energy model constants (all energies in nanojoules, power in watts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one single-row activation + precharge across the rank.
    pub e_act_pre_nj: f64,
    /// Energy of one AAP macro command (two activations + precharge);
    /// RowClone reports ≈2x the ACT/PRE energy minus shared precharge.
    pub e_aap_nj: f64,
    /// Energy of one (multi-row) AP macro command. Triple-row activation
    /// moves more charge than a single activation.
    pub e_ap_nj: f64,
    /// Energy of one column read burst.
    pub e_rd_nj: f64,
    /// Energy of one column write burst.
    pub e_wr_nj: f64,
    /// Static/background power of the rank (W).
    pub p_static_w: f64,
}

impl EnergyModel {
    /// Default constants for the Table 2 DDR5 rank (8+1 chips).
    #[must_use]
    pub fn ddr5_4400() -> Self {
        Self {
            e_act_pre_nj: 15.0,
            e_aap_nj: 27.0,
            e_ap_nj: 22.0,
            e_rd_nj: 4.0,
            e_wr_nj: 4.5,
            p_static_w: 0.35,
        }
    }

    /// Energy of a single command (nJ), excluding background power.
    #[must_use]
    pub fn command_energy_nj(&self, kind: CommandKind) -> f64 {
        match kind {
            CommandKind::Act => self.e_act_pre_nj * 0.65,
            CommandKind::Pre => self.e_act_pre_nj * 0.35,
            CommandKind::Aap => self.e_aap_nj,
            CommandKind::Ap | CommandKind::Apa => self.e_ap_nj,
            CommandKind::Rd => self.e_rd_nj,
            CommandKind::Wr => self.e_wr_nj,
        }
    }

    /// Total dynamic energy (nJ) for a batch of commands.
    #[must_use]
    pub fn dynamic_energy_nj(&self, stats: &CommandStats) -> f64 {
        stats
            .iter()
            .map(|(kind, n)| self.command_energy_nj(kind) * n as f64)
            .sum()
    }

    /// Total energy (nJ) for the whole system described by `cfg`:
    /// dynamic command energy plus background power for *every* rank on
    /// *every* channel — idle ranks still burn static power while one
    /// shard straggles.
    #[must_use]
    pub fn system_energy_nj(&self, stats: &CommandStats, elapsed_ns: f64, cfg: &DramConfig) -> f64 {
        let ranks_total = (cfg.channels * cfg.ranks) as f64;
        self.dynamic_energy_nj(stats) + self.p_static_w * ranks_total * elapsed_ns
    }

    /// Static background power (W) of the whole system described by
    /// `cfg`: every rank on every channel burns [`Self::p_static_w`]
    /// whether or not it computes — the floor any power-capped serving
    /// policy must budget above.
    #[must_use]
    pub fn system_background_power_w(&self, cfg: &DramConfig) -> f64 {
        self.p_static_w * (cfg.channels * cfg.ranks) as f64
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::ddr5_4400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aap_costs_more_than_single_act_pre() {
        let e = EnergyModel::ddr5_4400();
        assert!(e.e_aap_nj > e.e_act_pre_nj);
        assert!(e.e_ap_nj > e.e_act_pre_nj);
    }

    #[test]
    fn dynamic_energy_sums_commands() {
        let e = EnergyModel::ddr5_4400();
        let mut s = CommandStats::default();
        s.record(CommandKind::Aap);
        s.record(CommandKind::Aap);
        s.record(CommandKind::Ap);
        let expect = 2.0 * e.e_aap_nj + e.e_ap_nj;
        assert!((e.dynamic_energy_nj(&s) - expect).abs() < 1e-9);
    }

    #[test]
    fn average_power_includes_background() {
        let e = EnergyModel::ddr5_4400();
        let s = CommandStats::default();
        let cfg = DramConfig::ddr5_4400();
        // No commands: average power over an interval equals static power.
        assert!((e.system_energy_nj(&s, 1000.0, &cfg) / 1000.0 - e.p_static_w).abs() < 1e-9);
        assert_eq!(e.system_energy_nj(&s, 0.0, &cfg), 0.0);
    }

    #[test]
    fn system_average_power_scales_background_with_topology() {
        let e = EnergyModel::ddr5_4400();
        let s = CommandStats::default();
        let mut cfg = DramConfig::ddr5_4400();
        // 1x1: the system burns one rank's static power.
        assert_eq!(e.system_background_power_w(&cfg), e.p_static_w);
        cfg.channels = 4;
        cfg.ranks = 2;
        assert!((e.system_background_power_w(&cfg) - 8.0 * e.p_static_w).abs() < 1e-12);
        // Energy over an interval is the background power times it.
        assert_eq!(
            e.system_energy_nj(&s, 1000.0, &cfg),
            e.system_background_power_w(&cfg) * 1000.0
        );
        assert_eq!(e.system_energy_nj(&s, 0.0, &cfg), 0.0);
    }

    #[test]
    fn system_energy_scales_background_with_topology() {
        let e = EnergyModel::ddr5_4400();
        let mut s = CommandStats::default();
        s.record(CommandKind::Aap);
        let mut cfg = DramConfig::ddr5_4400();
        // 1x1: dynamic energy plus one rank's static power (bit-for-bit).
        assert_eq!(
            e.system_energy_nj(&s, 1000.0, &cfg),
            e.dynamic_energy_nj(&s) + e.p_static_w * 1000.0
        );
        cfg.channels = 4;
        cfg.ranks = 2;
        let sys = e.system_energy_nj(&s, 1000.0, &cfg);
        let expect = e.dynamic_energy_nj(&s) + e.p_static_w * 8.0 * 1000.0;
        assert!((sys - expect).abs() < 1e-9);
    }

    #[test]
    fn act_plus_pre_equals_act_pre_pair() {
        let e = EnergyModel::ddr5_4400();
        let pair = e.command_energy_nj(CommandKind::Act) + e.command_energy_nj(CommandKind::Pre);
        assert!((pair - e.e_act_pre_nj).abs() < 1e-9);
    }
}
