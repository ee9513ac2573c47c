//! Command counting and execution reports.

use crate::area::AreaModel;
use crate::command::CommandKind;
use crate::config::DramConfig;
use crate::energy::EnergyModel;
use serde::{Deserialize, Serialize};

/// Fraction `hits / total`, defined as `0.0` when `total` is zero.
///
/// The one hit-rate definition shared by every layer (row-buffer
/// schedule reports, engine cache counters, the serve runtime's host
/// and batch-cache rates, and the bench JSON emitters), so an idle
/// component always reports `0.0` rather than `NaN`.
#[must_use]
pub fn hit_fraction(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Running tally of issued commands by kind.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandStats {
    act: u64,
    pre: u64,
    aap: u64,
    ap: u64,
    apa: u64,
    rd: u64,
    wr: u64,
}

impl CommandStats {
    /// Records one command of `kind`.
    pub fn record(&mut self, kind: CommandKind) {
        self.record_n(kind, 1);
    }

    /// Records `n` commands of `kind`.
    pub fn record_n(&mut self, kind: CommandKind, n: u64) {
        match kind {
            CommandKind::Act => self.act += n,
            CommandKind::Pre => self.pre += n,
            CommandKind::Aap => self.aap += n,
            CommandKind::Ap => self.ap += n,
            CommandKind::Apa => self.apa += n,
            CommandKind::Rd => self.rd += n,
            CommandKind::Wr => self.wr += n,
        }
    }

    /// Count of commands of a given kind.
    #[must_use]
    pub fn count(&self, kind: CommandKind) -> u64 {
        match kind {
            CommandKind::Act => self.act,
            CommandKind::Pre => self.pre,
            CommandKind::Aap => self.aap,
            CommandKind::Ap => self.ap,
            CommandKind::Apa => self.apa,
            CommandKind::Rd => self.rd,
            CommandKind::Wr => self.wr,
        }
    }

    /// Total number of commands.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.act + self.pre + self.aap + self.ap + self.apa + self.rd + self.wr
    }

    /// Number of CIM macro operations (AAP + AP + APA) — the unit the paper
    /// plots on most op-count figures (e.g. Fig. 8 "AAP operations").
    #[must_use]
    pub fn macro_ops(&self) -> u64 {
        self.aap + self.ap + self.apa
    }

    /// Iterates over `(kind, count)` pairs with non-zero counts included.
    pub fn iter(&self) -> impl Iterator<Item = (CommandKind, u64)> + '_ {
        [
            (CommandKind::Act, self.act),
            (CommandKind::Pre, self.pre),
            (CommandKind::Aap, self.aap),
            (CommandKind::Ap, self.ap),
            (CommandKind::Apa, self.apa),
            (CommandKind::Rd, self.rd),
            (CommandKind::Wr, self.wr),
        ]
        .into_iter()
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &CommandStats) {
        self.act += other.act;
        self.pre += other.pre;
        self.aap += other.aap;
        self.ap += other.ap;
        self.apa += other.apa;
        self.rd += other.rd;
        self.wr += other.wr;
    }
}

/// Hit/miss tallies of the engine-side memoisation layers (plan cache,
/// stream-pricing cache and whole-report cache), snapshotted onto every
/// [`ExecutionReport`] so callers can audit cache effectiveness without
/// reaching into the engine. All-zero when the producing engine runs
/// uncached (or predates the caches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Shard-plan lookups served from the plan cache.
    pub plan_hits: u64,
    /// Shard-plan lookups that had to run the planner.
    pub plan_misses: u64,
    /// Command-stream pricings served from the stream cache.
    pub stream_hits: u64,
    /// Command-stream pricings that had to run the IARM planner.
    pub stream_misses: u64,
    /// Whole-launch lookups served from the report cache (a hit skips
    /// the entire plan/price/fold pipeline and clones a stored report).
    pub report_hits: u64,
    /// Whole-launch lookups that had to re-fold the kernel.
    pub report_misses: u64,
}

impl CacheCounters {
    /// Fraction of all lookups (all layers) that hit, `0.0` when no
    /// lookup happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.plan_hits + self.stream_hits + self.report_hits;
        hit_fraction(
            hits,
            hits + self.plan_misses + self.stream_misses + self.report_misses,
        )
    }

    /// Adds another snapshot's tallies into this one.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.stream_hits += other.stream_hits;
        self.stream_misses += other.stream_misses;
        self.report_hits += other.report_hits;
        self.report_misses += other.report_misses;
    }

    /// Tallies accumulated since `base` (a snapshot taken earlier on
    /// the same cache). Saturates to zero per field, so a cleared cache
    /// never yields an underflowed delta.
    #[must_use]
    pub fn delta_since(&self, base: &CacheCounters) -> CacheCounters {
        CacheCounters {
            plan_hits: self.plan_hits.saturating_sub(base.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(base.plan_misses),
            stream_hits: self.stream_hits.saturating_sub(base.stream_hits),
            stream_misses: self.stream_misses.saturating_sub(base.stream_misses),
            report_hits: self.report_hits.saturating_sub(base.report_hits),
            report_misses: self.report_misses.saturating_sub(base.report_misses),
        }
    }
}

/// A complete execution report: time, commands, energy, derived metrics.
///
/// Produced by the higher-level engines after running a kernel through the
/// scheduler; consumed by the benchmark harness to print the paper's
/// tables/figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Kernel wall-clock in the simulated memory system (ns).
    pub elapsed_ns: f64,
    /// Commands issued.
    pub stats: CommandStats,
    /// Total energy (nJ), dynamic + background.
    pub energy_nj: f64,
    /// Useful arithmetic operations performed (for GOPS metrics): one
    /// multiply-accumulate counts as two operations, following the paper's
    /// GOPS convention.
    pub useful_ops: u64,
    /// Accelerator silicon area used (mm²).
    pub area_mm2: f64,
    /// Cumulative engine cache hit/miss tallies at the time this report
    /// was produced (all-zero for uncached producers). Purely
    /// observational: two runs that differ only in `cache` priced the
    /// same work.
    pub cache: CacheCounters,
}

impl ExecutionReport {
    /// Builds a report from scheduler outputs and model constants.
    ///
    /// Energy and area aggregate over the full `cfg` topology
    /// (`channels × ranks`): background power burns on every rank for
    /// the whole makespan, and GOPS/mm² normalises by the system's
    /// silicon, not one rank's. For the paper's 1×1 Table 2 config both
    /// reduce to the per-rank figures bit-for-bit.
    ///
    /// `energy_nj` is [`EnergyModel::system_energy_nj`] over `stats`
    /// and `elapsed_ns`: the one energy formula every launch is priced
    /// with, sharded or not.
    #[must_use]
    pub fn from_run(
        elapsed_ns: f64,
        stats: CommandStats,
        useful_ops: u64,
        energy: &EnergyModel,
        area: &AreaModel,
        cfg: &DramConfig,
    ) -> Self {
        Self {
            elapsed_ns,
            energy_nj: energy.system_energy_nj(&stats, elapsed_ns, cfg),
            stats,
            useful_ops,
            area_mm2: area.total_area_mm2(cfg),
            cache: CacheCounters::default(),
        }
    }

    /// Throughput in giga-operations per second.
    #[must_use]
    pub fn gops(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.useful_ops as f64 / self.elapsed_ns
    }

    /// Average power in watts.
    #[must_use]
    pub fn power_w(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.energy_nj / self.elapsed_ns
    }

    /// GOPS per watt.
    #[must_use]
    pub fn gops_per_watt(&self) -> f64 {
        let p = self.power_w();
        if p <= 0.0 {
            return 0.0;
        }
        self.gops() / p
    }

    /// GOPS per mm² of silicon.
    #[must_use]
    pub fn gops_per_mm2(&self) -> f64 {
        if self.area_mm2 <= 0.0 {
            return 0.0;
        }
        self.gops() / self.area_mm2
    }

    /// Execution time in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_fraction_zero_over_zero_is_zero_not_nan() {
        assert_eq!(hit_fraction(0, 0), 0.0);
        assert_eq!(hit_fraction(3, 4), 0.75);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        assert!(!CacheCounters::default().hit_rate().is_nan());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = CommandStats::default();
        a.record_n(CommandKind::Aap, 5);
        let mut b = CommandStats::default();
        b.record_n(CommandKind::Aap, 3);
        b.record(CommandKind::Ap);
        a.merge(&b);
        assert_eq!(a.count(CommandKind::Aap), 8);
        assert_eq!(a.macro_ops(), 9);
    }

    #[test]
    fn gops_definition() {
        let r = ExecutionReport {
            elapsed_ns: 1000.0,
            stats: CommandStats::default(),
            energy_nj: 500.0,
            useful_ops: 2000,
            area_mm2: 100.0,
            cache: CacheCounters::default(),
        };
        assert!((r.gops() - 2.0).abs() < 1e-12); // 2000 ops / 1000 ns = 2 GOPS
        assert!((r.power_w() - 0.5).abs() < 1e-12);
        assert!((r.gops_per_watt() - 4.0).abs() < 1e-12);
        assert!((r.gops_per_mm2() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn zero_time_yields_zero_metrics() {
        let r = ExecutionReport {
            elapsed_ns: 0.0,
            stats: CommandStats::default(),
            energy_nj: 0.0,
            useful_ops: 10,
            area_mm2: 0.0,
            cache: CacheCounters::default(),
        };
        assert_eq!(r.gops(), 0.0);
        assert_eq!(r.power_w(), 0.0);
        assert_eq!(r.gops_per_mm2(), 0.0);
    }

    #[test]
    fn from_run_prices_energy_with_the_system_formula() {
        let mut stats = CommandStats::default();
        stats.record_n(CommandKind::Aap, 500);
        let energy = EnergyModel::ddr5_4400();
        let area = crate::area::AreaModel::ddr5_4400();
        let mut cfg = DramConfig::ddr5_4400();
        cfg.channels = 2;
        let r = ExecutionReport::from_run(2_000.0, stats.clone(), 10, &energy, &area, &cfg);
        assert_eq!(
            r.energy_nj.to_bits(),
            energy
                .system_energy_nj(&r.stats, r.elapsed_ns, &cfg)
                .to_bits()
        );
        assert_eq!(r.stats, stats);
        assert_eq!(r.area_mm2, area.total_area_mm2(&cfg));
    }
}
