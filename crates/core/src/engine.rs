//! Analytic performance engine for paper-scale workloads (§5.1, §7).
//!
//! The functional kernels in [`crate::kernels`] bit-simulate every row
//! operation, which is exact but cannot run the Table 3 shapes (tens of
//! billions of MACs). This engine projects performance the way the
//! paper's simulator does: the host-side routine (digit unpacking + IARM
//! planning) is executed *for real* over the input values to obtain the
//! exact broadcast-command count, and the command stream is then priced
//! through the `c2m-dram` scheduler's steady-state `tRRD`/`tFAW` model,
//! energy model and area model.
//!
//! Work partitioning (§5.2.2, §7.2.1): the inner dimension K is split
//! across the X banks, each bank accumulating partial sums into its own
//! counter slice; partial results merge with log₂(X) rounds of
//! counter-to-counter addition (Algorithm 2). Output rows of a GEMM are
//! computed sequentially, paying a counter copy-out per row.
//!
//! Beyond the paper's single-channel setup, the engine shards kernels
//! over the full channel×rank topology of the configured
//! [`DramConfig`] (see [`crate::shard`]): each shard's command stream is
//! projected independently (its own host-side planning pass), channels
//! run concurrently (elapsed = max over channels; commands and energy
//! sum), GEMV K-shards pay cross-unit partial-sum merge rounds, and
//! multi-unit GEMMs pay a host gather of the finished outputs. Shards
//! can dispatch to heterogeneous CIM backends (§4.6) via a
//! [`BackendPolicy`]. With `channels == 1 && ranks == 1` and the default
//! Ambit policy every path reduces bit-for-bit to the paper's
//! single-channel model.
//!
//! Each kernel entry point first looks its launch up in the report tier
//! of the engine's [`PlanCache`] and, on a miss, *folds* it: it plans
//! through the plan tier, counts each shard's sequences through the
//! stream tier, prices the shards in parallel and merges them into one
//! report. [`C2mEngine::fold_ternary_gemv`] and
//! [`C2mEngine::fold_ternary_gemv_batch`] return the same reports, bit
//! for bit, without the report tier, pricing the shards serially on the
//! calling thread: the serving runtime prices through them, because its
//! own priced-batch memo already returns repeated batches.

use crate::cache::{CacheConfig, PlanCache, PlanKey, StreamParams};
use crate::shard::{BackendPolicy, ShardAxis, ShardPlan, ShardPlanner, ShardSizing};
use crate::store::CacheStore;
use c2m_cim::Backend;
use c2m_dram::scheduler::{salp_stream_cap, steady_state_aap_interval};
use c2m_dram::{
    AreaModel, CacheCounters, CommandKind, CommandStats, DramConfig, EnergyModel, ExecutionReport,
    TimingParams, Topology,
};
use c2m_ecc::protect::{ProtectionAnalysis, ProtectionKind};
use c2m_jc::codec::JohnsonCode;
use c2m_jc::cost::{digits_for_capacity, MAX_CAPACITY_BITS};
use c2m_trace::{TraceEvent, TraceSink, Track};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Trace hook shared by an engine and its clones: the sink plus a
/// synthetic monotonic clock that tiles launch spans sequentially.
///
/// The engine prices kernels analytically — a launch has a *duration*
/// (`elapsed_ns`) but no wall-clock start — so the handle assigns each
/// launch the next free slot on a shared core timeline. Trace
/// timestamps are therefore launch-order, not aligned with any serving
/// timeline. The clock is `f64` bits in an atomic so concurrent clones
/// reserve disjoint slots without locking.
#[derive(Debug, Clone)]
struct TraceHandle {
    sink: Arc<dyn TraceSink>,
    clock: Arc<AtomicU64>,
}

impl TraceHandle {
    fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self {
            sink,
            clock: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }

    /// Reserves a `dur_ns`-long slot on the core timeline, returning
    /// its start instant.
    fn advance(&self, dur_ns: f64) -> f64 {
        loop {
            let cur = self.clock.load(Ordering::Relaxed);
            let t0 = f64::from_bits(cur);
            let next = (t0 + dur_ns).to_bits();
            if self
                .clock
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return t0;
            }
        }
    }

    /// The current frontier of the core timeline.
    fn now(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }
}

/// ECC recompute granularity in bits: §7.3.2 prices the detected-fault
/// recomputation per 512-bit row segment.
const ECC_ROW_BITS: usize = 512;

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Johnson-digit radix (the paper's evaluation uses 4).
    pub radix: usize,
    /// Accumulator capacity in bits (the paper uses 64).
    pub capacity_bits: u32,
    /// Banks computing in parallel (C2M:X).
    pub banks: usize,
    /// Concurrent SALP streams per bank the engine shards over
    /// (PRADA-style subarray-level parallelism). 1 — the default and the
    /// paper's setup — disables the subarray tier and reproduces the
    /// pre-SALP model bit for bit. Values above the part's
    /// serialization-floor cap
    /// ([`c2m_dram::scheduler::salp_stream_cap`]) or the config's
    /// `subarrays_per_bank` are clamped/rejected at build time.
    pub subarrays: usize,
    /// Fault-tolerance scheme (affects ops per increment and the
    /// recompute overhead).
    pub protection: ProtectionKind,
    /// Assumed inherent CIM fault rate (drives the detected-fault
    /// recompute overhead when protection is ECC; §7.3.2 uses 10⁻⁴).
    pub fault_rate: f64,
    /// DRAM geometry.
    pub dram: DramConfig,
    /// Timing parameters.
    pub timing: TimingParams,
    /// Energy model.
    pub energy: EnergyModel,
    /// Area model.
    pub area: AreaModel,
}

impl EngineConfig {
    /// The paper's C2M:X configuration: radix 4, 64-bit capacity,
    /// unprotected.
    #[must_use]
    pub fn c2m(banks: usize) -> Self {
        Self {
            radix: 4,
            capacity_bits: 64,
            banks,
            subarrays: 1,
            protection: ProtectionKind::None,
            fault_rate: 0.0,
            dram: DramConfig::ddr5_4400(),
            timing: TimingParams::ddr5_4400(),
            energy: EnergyModel::ddr5_4400(),
            area: AreaModel::ddr5_4400(),
        }
    }

    /// Protected configuration of §7.3.2: ECC with one extra FR round
    /// (2 FR checks) at an inherent fault rate of 10⁻⁴.
    #[must_use]
    pub fn c2m_protected(banks: usize) -> Self {
        Self {
            protection: ProtectionKind::Ecc {
                fr_checks: 2,
                fuse_inverted_feedback: false,
            },
            fault_rate: 1e-4,
            ..Self::c2m(banks)
        }
    }
}

/// A validation failure from [`EngineBuilder::try_build`].
///
/// Each variant carries a human-readable message naming the offending
/// value; [`EngineBuilder::build`] panics with the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineBuildError {
    /// The Johnson-digit radix is not an even number in
    /// `2..=`[`JohnsonCode::MAX_RADIX`].
    InvalidRadix(String),
    /// The DRAM geometry is degenerate (zero channels/ranks/banks, or
    /// more compute banks than the rank has).
    InvalidGeometry(String),
    /// The backend dispatch policy is unusable (empty per-channel list).
    InvalidBackends(String),
    /// The accumulator capacity is outside
    /// `1..=`[`MAX_CAPACITY_BITS`] bits,
    /// where [`digits_for_capacity`] would size the counters wrongly.
    InvalidCapacity(String),
}

impl fmt::Display for EngineBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRadix(m)
            | Self::InvalidGeometry(m)
            | Self::InvalidBackends(m)
            | Self::InvalidCapacity(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for EngineBuildError {}

/// Where a freshly built engine gets its plan/pricing cache from.
#[derive(Debug, Clone)]
enum CacheChoice {
    /// Build a private [`PlanCache`] with this configuration.
    Private(CacheConfig),
    /// Share an existing cache handle (e.g. across a sweep's engines).
    Shared(Arc<PlanCache>),
    /// No caching: every kernel call re-plans and re-prices from
    /// scratch (the seed behaviour).
    Disabled,
}

/// Typed builder for [`C2mEngine`] — the one construction path.
///
/// Collects the configuration, backend policy, shard sizing and cache
/// choice, then validates everything at [`Self::build`] /
/// [`Self::try_build`] so the kernel methods cannot fail later:
///
/// ```
/// use c2m_core::{C2mEngine, EngineConfig};
/// let engine = C2mEngine::builder(EngineConfig::c2m(16)).build();
/// assert_eq!(engine.config().banks, 16);
/// ```
///
/// Engines cache by default (a private [`PlanCache`] with
/// [`CacheConfig::default`]); pass [`Self::shared_cache`] to share one
/// cache across many engines (the fleet-sweep fast path) or
/// [`Self::no_cache`] to reproduce the seed's uncached execution.
/// Caching is observational only — cached and uncached engines produce
/// bit-for-bit identical reports.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    cfg: EngineConfig,
    backends: BackendPolicy,
    balanced: bool,
    cache: CacheChoice,
    cache_path: Option<PathBuf>,
}

impl EngineBuilder {
    /// Sets the per-shard backend dispatch policy (§4.6 heterogeneous
    /// execution). Default: uniform Ambit, the paper's substrate.
    #[must_use]
    pub fn backends(mut self, backends: BackendPolicy) -> Self {
        self.backends = backends;
        self
    }

    /// Derives the sizing from the backend policy at build time
    /// ([`C2mEngine::heterogeneity_weights`]): each channel receives
    /// work inversely proportional to its backend's per-increment cost,
    /// equalising per-channel makespan on mixed-backend modules.
    /// Default: [`ShardSizing::Even`], the seed behaviour.
    #[must_use]
    pub fn balanced_sizing(mut self) -> Self {
        self.balanced = true;
        self
    }

    /// Uses a private plan/pricing cache with the given configuration.
    #[must_use]
    pub fn cache(mut self, cfg: CacheConfig) -> Self {
        self.cache = CacheChoice::Private(cfg);
        self
    }

    /// Shares an existing plan/pricing cache. Engines sharing a handle
    /// reuse each other's shard plans and priced streams — the fast
    /// path for sweeps that rebuild engines per configuration point.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = CacheChoice::Shared(cache);
        self
    }

    /// Disables caching: every kernel call re-plans and re-prices from
    /// scratch (the seed behaviour; useful for cache-equivalence
    /// testing).
    #[must_use]
    pub fn no_cache(mut self) -> Self {
        self.cache = CacheChoice::Disabled;
        self
    }

    /// Backs the engine's cache with a persistent store file: at build
    /// time the file is loaded through
    /// [`CacheStore::load_into`](crate::store::CacheStore::load_into)
    /// (a missing, stale, or corrupt file is silently treated as cold),
    /// and [`C2mEngine::save_cache`] writes the warmed contents back.
    /// Applies to whichever cache the engine ends up with (private or
    /// shared); a no-op under [`Self::no_cache`].
    #[must_use]
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Validates and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineBuildError`] on a radix that is odd or outside
    /// `2..=`[`JohnsonCode::MAX_RADIX`], a capacity outside
    /// `1..=`[`MAX_CAPACITY_BITS`] bits, degenerate DRAM geometry (zero
    /// channels/ranks/banks or more compute banks than the rank has), or
    /// an empty per-channel backend list.
    pub fn try_build(self) -> Result<C2mEngine, EngineBuildError> {
        let cfg = self.cfg;
        if !(2..=JohnsonCode::MAX_RADIX).contains(&cfg.radix) || !cfg.radix.is_multiple_of(2) {
            return Err(EngineBuildError::InvalidRadix(format!(
                "Johnson-digit radix must be an even number in 2..={}, got {}",
                JohnsonCode::MAX_RADIX,
                cfg.radix
            )));
        }
        if !(1..=MAX_CAPACITY_BITS).contains(&cfg.capacity_bits) {
            return Err(EngineBuildError::InvalidCapacity(format!(
                "accumulator capacity must be in 1..={MAX_CAPACITY_BITS} bits, got {}",
                cfg.capacity_bits
            )));
        }
        if cfg.dram.channels == 0 || cfg.dram.ranks == 0 {
            return Err(EngineBuildError::InvalidGeometry(format!(
                "degenerate DRAM geometry: {} channels x {} ranks",
                cfg.dram.channels, cfg.dram.ranks
            )));
        }
        if cfg.banks == 0 {
            return Err(EngineBuildError::InvalidGeometry(
                "at least one compute bank is required".into(),
            ));
        }
        if cfg.banks > cfg.dram.banks {
            return Err(EngineBuildError::InvalidGeometry(format!(
                "{} compute banks exceed the {} banks per rank",
                cfg.banks, cfg.dram.banks
            )));
        }
        if cfg.subarrays == 0 {
            return Err(EngineBuildError::InvalidGeometry(
                "at least one SALP stream (subarray) per bank is required".into(),
            ));
        }
        if cfg.subarrays > cfg.dram.subarrays_per_bank {
            return Err(EngineBuildError::InvalidGeometry(format!(
                "{} SALP streams exceed the {} subarrays per bank",
                cfg.subarrays, cfg.dram.subarrays_per_bank
            )));
        }
        if let BackendPolicy::PerChannel(list) = &self.backends {
            if list.is_empty() {
                return Err(EngineBuildError::InvalidBackends(
                    "per-channel backend policy needs at least one backend".into(),
                ));
            }
        }
        let code = JohnsonCode::for_radix(cfg.radix);
        let digits = digits_for_capacity(cfg.radix, cfg.capacity_bits);
        let cache = match self.cache {
            CacheChoice::Private(c) => Some(Arc::new(PlanCache::new(c))),
            CacheChoice::Shared(h) => Some(h),
            CacheChoice::Disabled => None,
        };
        if let (Some(path), Some(c)) = (&self.cache_path, &cache) {
            // Warm start from the persistent store; any guard failure
            // (missing file, version mismatch, corruption) just leaves
            // the cache cold.
            let _ = CacheStore::load_into(path, c);
        }
        let mut engine = C2mEngine {
            cfg,
            code,
            digits,
            backends: self.backends,
            sizing: ShardSizing::Even,
            cache,
            cache_path: self.cache_path,
            trace: None,
        };
        if self.balanced {
            // Backend factors are positive and finite, so the derived
            // weights need no further validation.
            engine.sizing = engine.heterogeneity_weights();
        }
        Ok(engine)
    }

    /// Validates and builds the engine, panicking on invalid input.
    ///
    /// # Panics
    ///
    /// Panics with the [`EngineBuildError`] message on any validation
    /// failure — see [`Self::try_build`] for the exact conditions.
    #[must_use]
    pub fn build(self) -> C2mEngine {
        match self.try_build() {
            Ok(engine) => engine,
            #[expect(
                clippy::panic,
                reason = "documented panic contract of build(); try_build is the fallible API"
            )]
            Err(e) => panic!("invalid engine configuration: {e}"),
        }
    }
}

/// What a kernel's pricing hands [`C2mEngine::sharded_report`]: one
/// effective-AAP count per plan shard (in plan order), the host-gather
/// bursts, and the useful operations.
struct LaunchCost {
    shard_ops: Vec<f64>,
    gather_bursts: u64,
    useful: u64,
}

/// How a fold walks a plan's shards: in parallel through the rayon
/// shim, or one after another on the calling thread. Both walks
/// collect the per-shard costs in plan order, so they fold to the same
/// bits, and at one rayon thread the shim walks serially anyway.
///
/// With more threads the shim spawns its workers on every call, which
/// costs more than pricing a launch whose streams the stream tier
/// already holds. The `fold_*` entry points walk serially, so a served
/// batch never pays the spawns. The report-tier entry points keep the
/// parallel walk on a miss, because CI's report-hit gate
/// (`.github/scripts/bench_claims.py`) times that re-fold against a
/// hit; walking it serially too retires that gate with the report tier
/// (ROADMAP direction 3(b)).
#[derive(Debug, Clone, Copy)]
enum ShardWalk {
    Parallel,
    Serial,
}

impl ShardWalk {
    /// `f` over `items`, in order.
    fn map<'a, T: Sync, R: Send>(self, items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
        match self {
            Self::Parallel => items.par_iter().map(f).collect(),
            Self::Serial => items.iter().map(f).collect(),
        }
    }
}

/// The analytic Count2Multiply engine.
///
/// Construct via [`C2mEngine::builder`]. Cloning an engine shares its
/// plan/pricing cache handle (an [`Arc<PlanCache>`]), so clones warm
/// each other's cache.
#[derive(Debug, Clone)]
pub struct C2mEngine {
    cfg: EngineConfig,
    code: JohnsonCode,
    digits: usize,
    backends: BackendPolicy,
    sizing: ShardSizing,
    cache: Option<Arc<PlanCache>>,
    /// Persistent-store path from [`EngineBuilder::cache_path`], if any.
    cache_path: Option<PathBuf>,
    /// Optional trace hook (shared clock across clones). Observational
    /// only — never read by any pricing path.
    trace: Option<TraceHandle>,
}

impl C2mEngine {
    /// Starts a builder over `cfg` — the one construction path.
    /// Defaults: uniform Ambit backends, even shard sizing, a private
    /// plan/pricing cache with [`CacheConfig::default`].
    #[must_use]
    pub fn builder(cfg: EngineConfig) -> EngineBuilder {
        EngineBuilder {
            cfg,
            backends: BackendPolicy::default(),
            balanced: false,
            cache: CacheChoice::Private(CacheConfig::default()),
            cache_path: None,
        }
    }

    /// Attaches a trace sink with a fresh launch clock: every
    /// subsequent kernel launch emits launch / per-channel shard-exec /
    /// merge-round spans plus cache counter samples on the core tracks.
    /// Tracing is observational only — a traced engine's reports are
    /// bit-for-bit identical to an untraced one's. Engines build with
    /// no sink (and no per-launch overhead beyond one branch);
    /// `c2m_serve`'s `ServeRuntime::with_trace` calls this to thread its
    /// sink down into the engine it was handed.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = Some(TraceHandle::new(sink));
    }

    /// Per-channel throughput weights under the engine's backend policy:
    /// channel `c` weighs `1 / backend_factor(backend_for(c))`, so a
    /// channel whose increments cost `f×` Ambit's receives `1/f` of the
    /// work and every channel finishes its shard at the same time.
    /// Building with [`EngineBuilder::balanced_sizing`] shards by these
    /// weights, which rebalances mixed-backend topologies; on a uniform
    /// policy it reduces to the even split.
    #[must_use]
    pub fn heterogeneity_weights(&self) -> ShardSizing {
        let weights: Vec<f64> = (0..self.cfg.dram.channels)
            .map(|c| 1.0 / self.backend_factor(self.backends.backend_for(c)))
            .collect();
        ShardSizing::Weighted(weights)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The backend dispatch policy in force.
    #[must_use]
    pub fn backend_policy(&self) -> &BackendPolicy {
        &self.backends
    }

    /// The compute topology the engine shards over: the DRAM config's
    /// channels × ranks, with `banks` CIM banks per rank and
    /// [`Self::salp_streams`] concurrent subarray streams per bank.
    ///
    /// The *effective* (clamped) stream count is baked into the
    /// topology, so every [`PlanKey`] — which holds the topology
    /// itself — covers the subarray sizing exactly.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's geometry is degenerate (zero
    /// channels/ranks) or `banks` exceeds the banks per rank.
    #[must_use]
    pub fn topology(&self) -> Topology {
        let base = Topology::from_config(&self.cfg.dram, self.cfg.banks);
        if self.cfg.subarrays <= 1 {
            return base;
        }
        base.with_subarrays(self.cfg.subarrays.min(self.salp_stream_limit()))
    }

    /// The serialization-floor cap on concurrent SALP streams for this
    /// engine's timing and geometry: granting more streams than this
    /// cannot raise throughput (the shared-bank
    /// [`TimingParams::t_subarray_gate`] slot is already saturated), and
    /// *would* strand partial sums in extra merge rounds, so
    /// [`Self::topology`] clamps the configured `subarrays` here.
    #[must_use]
    pub fn salp_stream_limit(&self) -> usize {
        salp_stream_cap(&self.cfg.timing, self.cfg.banks, self.cfg.dram.ranks)
    }

    /// Effective concurrent SALP streams per bank after clamping the
    /// configured `subarrays` to [`Self::salp_stream_limit`]. 1 on a
    /// pre-SALP configuration.
    #[must_use]
    pub fn salp_streams(&self) -> usize {
        self.topology().subarrays
    }

    /// A shard planner over [`Self::topology`] with this engine's
    /// backend policy and sizing.
    #[must_use]
    pub fn planner(&self) -> ShardPlanner {
        ShardPlanner::with_policy(self.topology(), self.backends.clone())
            .with_sizing(self.sizing.clone())
    }

    /// Digits per accumulator.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.digits
    }

    /// AAP/AP macro commands for one k-ary increment under the configured
    /// protection, including the expected detected-fault recompute
    /// overhead (§7.3.2's ~19.6 %).
    #[must_use]
    pub fn ops_per_sequence(&self) -> f64 {
        let base = self.cfg.protection.ambit_increment_ops(self.code.bits()) as f64;
        match self.cfg.protection {
            ProtectionKind::Ecc { fr_checks, .. } if self.cfg.fault_rate > 0.0 => {
                let a = ProtectionAnalysis {
                    fault_rate: self.cfg.fault_rate,
                    fr_checks,
                };
                base * (1.0 + a.expected_recomputes_per_row(ECC_ROW_BITS))
            }
            _ => base,
        }
    }

    /// Broadcast command *sequences* needed to accumulate the signed
    /// input stream `xs` (zeros skipped, §7.2.3): the length of the
    /// host-side IARM plan, counted one digit column at a time by
    /// [`c2m_jc::iarm::count_actions`].
    #[must_use]
    pub fn sequences_for_stream(&self, xs: &[i64]) -> u64 {
        self.stream_params(false).count(xs)
    }

    /// The stream-tier key of this engine: everything a sequence count
    /// reads besides the values.
    fn stream_params(&self, doubled: bool) -> StreamParams {
        StreamParams {
            radix: self.cfg.radix,
            digits: self.digits,
            doubled,
        }
    }

    /// The engine's plan/pricing cache handle, if caching is enabled.
    /// Hand this to [`EngineBuilder::shared_cache`] to warm another
    /// engine from this one's entries.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// Cumulative cache hit/miss tallies (all zeros when caching is
    /// disabled). Every [`ExecutionReport`] carries a snapshot of these
    /// in its `cache` field.
    #[must_use]
    pub fn cache_stats(&self) -> CacheCounters {
        self.cache
            .as_ref()
            .map_or_else(CacheCounters::default, |c| c.counters())
    }

    /// Writes the cache contents to the [`EngineBuilder::cache_path`]
    /// store file, returning `true` if a file was written (`false` when
    /// the engine has no path or no cache).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the store file cannot be written.
    pub fn save_cache(&self) -> std::io::Result<bool> {
        match (&self.cache_path, &self.cache) {
            (Some(path), Some(c)) => CacheStore::save(path, c).map(|()| true),
            _ => Ok(false),
        }
    }

    /// The report-cache key words of this engine: an **injective**
    /// bit-exact word encoding of everything a launch's report depends
    /// on besides the kernel inputs — every [`EngineConfig`] field down
    /// to the fields of its DRAM geometry, timing, energy and area
    /// models (enums as tag + payload, floats as IEEE bit patterns,
    /// length-prefixed variable sections) plus the backend policy and
    /// the resolved shard sizing. Two engines share a word vector only
    /// if every field is equal, so a report keyed on these words can
    /// never be served across differing configurations.
    ///
    /// The compiler enforces that coverage: every struct is
    /// destructured without `..` and every binding must be used
    /// (`#[deny(unused_variables)]`), so a new field does not build
    /// until it is keyed here.
    #[deny(unused_variables)]
    #[must_use]
    pub fn report_key_words(&self) -> Vec<u64> {
        fn backend_code(b: Backend) -> u64 {
            match b {
                Backend::Ambit => 0,
                Backend::Fcdram => 1,
                Backend::Pinatubo => 2,
                Backend::Magic => 3,
            }
        }
        // `code` and `digits` derive from `radix` and `capacity_bits`;
        // the cache handle, store path and trace hook never reach a
        // report.
        let Self {
            cfg,
            code: _,
            digits: _,
            backends,
            sizing,
            cache: _,
            cache_path: _,
            trace: _,
        } = self;
        let EngineConfig {
            radix,
            capacity_bits,
            banks,
            subarrays,
            protection,
            fault_rate,
            dram,
            timing,
            energy,
            area,
        } = cfg;
        let DramConfig {
            channels,
            ranks,
            chips,
            ecc_chips,
            banks: dram_banks,
            subarrays_per_bank,
            rows_per_subarray,
            row_bytes_per_chip,
            chip_gbit,
        } = dram;
        let TimingParams {
            t_ck,
            t_rcd,
            t_ras,
            t_rp,
            t_rrd,
            t_faw,
            t_ccd,
            t_burst,
            t_rank_switch,
            t_subarray_gate,
        } = timing;
        let EnergyModel {
            e_act_pre_nj,
            e_aap_nj,
            e_ap_nj,
            e_rd_nj,
            e_wr_nj,
            p_static_w,
        } = energy;
        let AreaModel {
            chip_area_mm2,
            cim_overhead_frac,
        } = area;
        let mut w = Vec::with_capacity(48);
        w.push(*radix as u64);
        w.push(u64::from(*capacity_bits));
        w.push(*banks as u64);
        w.push(*subarrays as u64);
        match *protection {
            ProtectionKind::None => w.extend([0, 0, 0]),
            ProtectionKind::Tmr => w.extend([1, 0, 0]),
            ProtectionKind::Ecc {
                fr_checks,
                fuse_inverted_feedback,
            } => w.extend([2, u64::from(fr_checks), u64::from(fuse_inverted_feedback)]),
        }
        w.push(fault_rate.to_bits());
        w.extend([
            *channels as u64,
            *ranks as u64,
            *chips as u64,
            *ecc_chips as u64,
            *dram_banks as u64,
            *subarrays_per_bank as u64,
            *rows_per_subarray as u64,
            *row_bytes_per_chip as u64,
            *chip_gbit as u64,
        ]);
        w.extend([
            t_ck.to_bits(),
            t_rcd.to_bits(),
            t_ras.to_bits(),
            t_rp.to_bits(),
            t_rrd.to_bits(),
            t_faw.to_bits(),
            t_ccd.to_bits(),
            t_burst.to_bits(),
            t_rank_switch.to_bits(),
            t_subarray_gate.to_bits(),
        ]);
        w.extend([
            e_act_pre_nj.to_bits(),
            e_aap_nj.to_bits(),
            e_ap_nj.to_bits(),
            e_rd_nj.to_bits(),
            e_wr_nj.to_bits(),
            p_static_w.to_bits(),
        ]);
        w.extend([chip_area_mm2.to_bits(), cim_overhead_frac.to_bits()]);
        match backends {
            BackendPolicy::Uniform(b) => w.extend([0, backend_code(*b)]),
            BackendPolicy::PerChannel(list) => {
                w.push(1);
                w.push(list.len() as u64);
                w.extend(list.iter().map(|&b| backend_code(b)));
            }
        }
        match sizing {
            ShardSizing::Even => w.push(0),
            // Weights come from `heterogeneity_weights`, one per channel,
            // and a built engine has at least one channel, so the length
            // prefix (≥ 1) never collides with the `Even` tag.
            ShardSizing::Weighted(ws) => {
                w.push(ws.len() as u64);
                w.extend(ws.iter().map(|v| v.to_bits()));
            }
        }
        w
    }

    /// [`Self::sequences_for_stream`] through the pricing cache:
    /// bit-for-bit the same count, memoised on the stream content.
    #[must_use]
    pub fn cached_sequences_for_stream(&self, xs: &[i64]) -> u64 {
        self.cached_sequences(self.stream_params(false), xs)
    }

    /// Sequence count for the doubled ternary stream of `x`
    /// ([`doubled_ternary`]), through the pricing cache. Keyed on the
    /// *undoubled* input, so a hit skips materialising the doubled
    /// stream entirely.
    #[must_use]
    pub fn cached_sequences_for_doubled(&self, x: &[i64]) -> u64 {
        self.cached_sequences(self.stream_params(true), x)
    }

    fn cached_sequences(&self, params: StreamParams, xs: &[i64]) -> u64 {
        match &self.cache {
            Some(c) => c.sequences(params, xs),
            None => params.count(xs),
        }
    }

    /// Shard plan for `total` elements along `axis`, through the plan
    /// cache when one is enabled. Cached or not, the plan is built from
    /// its [`PlanKey`] alone: the axis, the element count, the
    /// topology, the backend policy and the sizing weights.
    fn plan_for(&self, axis: ShardAxis, total: usize) -> Arc<ShardPlan> {
        let key = PlanKey {
            axis,
            total,
            topology: self.topology(),
            policy: self.backends.clone(),
            sizing: PlanKey::sizing_bits(&self.sizing),
        };
        let Some(c) = &self.cache else {
            return Arc::new(key.build());
        };
        let (plan, cached) = c.plan(&key);
        self.instant(if cached { "plan_cached" } else { "plan_built" });
        plan
    }

    /// Records a core-track instant at the launch clock's frontier when
    /// a trace sink is attached.
    fn instant(&self, name: &'static str) {
        if let Some(tr) = &self.trace {
            tr.sink.record(TraceEvent::Instant {
                t_ns: tr.now(),
                name,
                cat: "core",
                track: Track::core(0),
            });
        }
    }

    /// One kernel launch through the report tier. The launch's key is
    /// the kernel's words — `head` (a tag and the shape), then each of
    /// `inputs` length-prefixed — followed by
    /// [`Self::report_key_words`]. In order: look the key up, emit the
    /// `report_hit`/`report_miss` instant, and on a miss fold the
    /// launch with [`Self::fold_launch`] and store the report. A hit
    /// re-stamps the stored report's `cache` snapshot with this engine's
    /// cumulative tallies (the stored one belongs to the run that
    /// folded it).
    fn launch(
        &self,
        head: &[u64],
        inputs: &[&[i64]],
        axis: ShardAxis,
        total: usize,
        n_out: usize,
        price: impl FnOnce(&ShardPlan) -> LaunchCost,
    ) -> ExecutionReport {
        let reports = self
            .cache
            .as_deref()
            .map(|c| &c.reports)
            .filter(|m| m.enabled());
        let mut key = Vec::new();
        if let Some(reports) = reports {
            let cfg = self.report_key_words();
            let len = head.len() + inputs.iter().map(|x| 1 + x.len()).sum::<usize>();
            key.reserve_exact(len + cfg.len());
            key.extend_from_slice(head);
            for x in inputs {
                key.push(x.len() as u64);
                key.extend(x.iter().map(|&v| v as u64));
            }
            key.extend(cfg);
            let hit = reports.get(key.as_slice());
            self.instant(if hit.is_some() {
                "report_hit"
            } else {
                "report_miss"
            });
            if let Some(mut report) = hit {
                report.cache = self.cache_stats();
                return report;
            }
        }
        let report = self.fold_launch(axis, total, n_out, price);
        if let Some(reports) = reports {
            reports.insert(key.into_boxed_slice(), report.clone());
        }
        report
    }

    /// A launch without the report tier: plans `total` elements along
    /// `axis` through the plan tier, `price`s the plan and folds it
    /// with [`Self::sharded_report`].
    fn fold_launch(
        &self,
        axis: ShardAxis,
        total: usize,
        n_out: usize,
        price: impl FnOnce(&ShardPlan) -> LaunchCost,
    ) -> ExecutionReport {
        let plan = self.plan_for(axis, total);
        let LaunchCost {
            shard_ops,
            gather_bursts,
            useful,
        } = price(&plan);
        self.sharded_report(&plan, &shard_ops, gather_bursts, useful, n_out)
    }

    /// Ternary GEMV report: `y[1×N] = x[1×K] · Z[K×N]` with ternary Z.
    /// Every non-zero `x_i` is accumulated on the +1 plane and
    /// subtracted on the −1 plane, so the command stream sees `x` twice.
    ///
    /// The inner dimension shards across the topology's (channel, rank)
    /// units; each unit runs the real host-side planning pass over its
    /// own K-slice, and the per-unit partial sums merge in
    /// `⌈log₂(units)⌉` cross-unit counter-addition rounds.
    ///
    /// The launch goes through the report tier; a miss prices the
    /// shards in parallel. [`Self::fold_ternary_gemv`] returns the same
    /// report without the report tier.
    #[must_use]
    pub fn ternary_gemv(&self, x: &[i64], n: usize) -> ExecutionReport {
        let head = [0, n as u64];
        self.launch(&head, &[x], ShardAxis::InnerDim, x.len(), n, |plan| {
            self.gemv_cost(plan, x, n, ShardWalk::Parallel)
        })
    }

    /// [`Self::ternary_gemv`]'s report, bit for bit, without the report
    /// tier: the plan comes from the plan tier, each shard's sequence
    /// count from the stream tier, and the shards are priced one after
    /// another on the calling thread. Serving prices each lone request
    /// through this fold: its priced-batch memo already returns
    /// repeats, and a report key costs more to build than the fold it
    /// would save.
    #[must_use]
    pub fn fold_ternary_gemv(&self, x: &[i64], n: usize) -> ExecutionReport {
        self.fold_launch(ShardAxis::InnerDim, x.len(), n, |plan| {
            self.gemv_cost(plan, x, n, ShardWalk::Serial)
        })
    }

    /// The per-shard cost of a lone GEMV of `x` over `plan`.
    fn gemv_cost(&self, plan: &ShardPlan, x: &[i64], n: usize, walk: ShardWalk) -> LaunchCost {
        // The unit's intra-unit merge (banks × SALP streams) rides on
        // its first shard; accumulation and merge both execute on the
        // shard's backend.
        let work: Vec<(usize, f64)> = self
            .unit_reduction_extras(plan)
            .into_iter()
            .enumerate()
            .collect();
        let shard_ops = walk.map(&work, |&(i, red)| {
            let shard = &plan.shards[i];
            let seqs = self.cached_sequences_for_doubled(&x[shard.start..shard.end()]);
            (seqs as f64 * self.ops_per_sequence() + red) * self.backend_factor(shard.backend)
        });
        LaunchCost {
            shard_ops,
            gather_bursts: 0,
            useful: useful_ops(1, n, x.len()),
        }
    }

    /// Prices a *batch* of `B` ternary GEMVs sharing one weight matrix
    /// (`y_b = x_b · Z` for each request) as a single launch: the B
    /// input streams distribute over the topology's units like GEMM
    /// output rows (each unit accumulates its requests into its own
    /// counters, §5.2.2 row semantics), so a batched request pays
    /// accumulation + counter copy-out instead of the per-request
    /// cross-unit partial-sum merges a lone GEMV pays, and a multi-unit
    /// launch pays one host gather of the B finished outputs.
    ///
    /// The launch goes through the report tier; a miss prices the
    /// shards in parallel. [`Self::fold_ternary_gemv_batch`] returns the
    /// same report without the report tier.
    #[must_use]
    pub fn ternary_gemv_batch<S: AsRef<[i64]> + Sync>(
        &self,
        xs: &[S],
        n: usize,
    ) -> ExecutionReport {
        let rows: Vec<&[i64]> = xs.iter().map(AsRef::as_ref).collect();
        let head = [1, n as u64, rows.len() as u64];
        self.launch(&head, &rows, ShardAxis::OutputRows, rows.len(), n, |plan| {
            self.gemv_batch_cost(plan, &rows, n, ShardWalk::Parallel)
        })
    }

    /// [`Self::ternary_gemv_batch`]'s report, bit for bit, without the
    /// report tier, priced as [`Self::fold_ternary_gemv`] prices a lone
    /// GEMV. This is the engine entry point of the `c2m_serve` batching
    /// runtime.
    #[must_use]
    pub fn fold_ternary_gemv_batch<S: AsRef<[i64]>>(&self, xs: &[S], n: usize) -> ExecutionReport {
        let rows: Vec<&[i64]> = xs.iter().map(AsRef::as_ref).collect();
        self.fold_launch(ShardAxis::OutputRows, rows.len(), n, |plan| {
            self.gemv_batch_cost(plan, &rows, n, ShardWalk::Serial)
        })
    }

    /// The per-shard cost of a batch of GEMVs of `rows` over `plan`.
    fn gemv_batch_cost(
        &self,
        plan: &ShardPlan,
        rows: &[&[i64]],
        n: usize,
        walk: ShardWalk,
    ) -> LaunchCost {
        let copy_out = self.copy_out_ops(n);
        let priced = walk.map(&plan.shards, |shard| {
            let mut ops = 0.0f64;
            let mut useful = 0u64;
            for &x in &rows[shard.start..shard.end()] {
                let seqs = self.cached_sequences_for_doubled(x);
                ops += seqs as f64 * self.ops_per_sequence() * self.backend_factor(shard.backend)
                    + copy_out;
                useful += useful_ops(1, n, x.len());
            }
            (ops, useful)
        });
        LaunchCost {
            shard_ops: priced.iter().map(|&(ops, _)| ops).collect(),
            gather_bursts: if plan.cr_units_used() > 1 {
                rows.len() as u64 * self.output_row_bursts(n)
            } else {
                0
            },
            useful: priced.iter().map(|&(_, u)| u).sum(),
        }
    }

    /// Ternary GEMM report for `M` output rows, each accumulating the
    /// same-statistics input row `x_sample` (§5.2.2: rows sequential per
    /// bank, counter rows copied out between rows). Unlike a GEMV, a GEMM
    /// has abundant row-level parallelism, so output rows shard across
    /// the topology's (channel, rank) units with no partial-sum
    /// reduction; a multi-unit run only pays the host-side gather of the
    /// finished output rows (RD bursts, serialised at the host).
    #[must_use]
    pub fn ternary_gemm(&self, m: usize, n: usize, x_sample: &[i64]) -> ExecutionReport {
        self.rows_report(m, n, x_sample, true, x_sample.len())
    }

    /// Integer×binary GEMM report: like [`Self::ternary_gemm`] but Z has
    /// a single +1 mask plane (e.g. a graph adjacency matrix), so each
    /// row's input stream is accumulated once — no subtraction pass.
    #[must_use]
    pub fn binary_gemm(&self, m: usize, n: usize, x_sample: &[i64]) -> ExecutionReport {
        self.rows_report(m, n, x_sample, false, x_sample.len())
    }

    /// Shared row-sharded GEMM pricing: each output row accumulates
    /// `sample` (doubled with the negated pass when `doubled` — the
    /// ternary case).
    fn rows_report(
        &self,
        m: usize,
        n: usize,
        sample: &[i64],
        doubled: bool,
        k: usize,
    ) -> ExecutionReport {
        // The kernel key omits `k` because it is always the sample
        // length; the assert keeps that true for future callers.
        debug_assert_eq!(k, sample.len());
        let head = [2, m as u64, n as u64, u64::from(doubled)];
        self.launch(&head, &[sample], ShardAxis::OutputRows, m, n, |plan| {
            let seqs = if doubled {
                self.cached_sequences_for_doubled(sample)
            } else {
                self.cached_sequences_for_stream(sample)
            };
            let accum = seqs as f64 * self.ops_per_sequence();
            let copy_out = self.copy_out_ops(n);
            LaunchCost {
                shard_ops: plan
                    .shards
                    .iter()
                    .map(|shard| {
                        let per_row = accum * self.backend_factor(shard.backend) + copy_out;
                        per_row * shard.len as f64
                    })
                    .collect(),
                gather_bursts: if plan.cr_units_used() > 1 {
                    m as u64 * self.output_row_bursts(n)
                } else {
                    0
                },
                useful: useful_ops(m, n, k),
            }
        })
    }

    /// Integer×integer GEMV via CSD bit-slicing (§5.2.3): the weight
    /// matrix contributes `planes` power-of-two mask planes; the host
    /// replays the input stream once per plane, shifting each value by
    /// the plane's exponent (shifts change which digits are non-zero but
    /// the planner handles that exactly).
    ///
    /// `weight_bits` is the signed weight precision p; the CSD plane
    /// count is `2(p−1)` worst case, but planes whose mask rows are all
    /// zero are skipped by the host, so callers pass the *observed*
    /// plane list via `plane_exponents`.
    #[must_use]
    pub fn int_gemv(
        &self,
        x: &[i64],
        n: usize,
        plane_exponents: &[(u32, bool)],
    ) -> ExecutionReport {
        let mut head = vec![3, n as u64, plane_exponents.len() as u64];
        head.extend(
            plane_exponents
                .iter()
                .map(|&(shift, neg)| u64::from(shift) << 1 | u64::from(neg)),
        );
        let planes = plane_exponents.len();
        self.launch(&head, &[x], ShardAxis::CsdPlanes, planes, n, |plan| {
            let work: Vec<(usize, f64)> = self
                .unit_reduction_extras(plan)
                .into_iter()
                .enumerate()
                .collect();
            let shard_ops = work
                .par_iter()
                .map(|&(i, red)| {
                    let shard = &plan.shards[i];
                    let mut ops = 0.0f64;
                    for &(e, neg) in &plane_exponents[shard.start..shard.end()] {
                        let stream: Vec<i64> = x
                            .iter()
                            .map(|&v| {
                                let scaled = v << e;
                                if neg {
                                    -scaled
                                } else {
                                    scaled
                                }
                            })
                            .collect();
                        ops += self.cached_sequences_for_stream(&stream) as f64
                            * self.ops_per_sequence();
                    }
                    (ops + red) * self.backend_factor(shard.backend)
                })
                .collect();
            LaunchCost {
                shard_ops,
                gather_bursts: 0,
                useful: useful_ops(1, n, x.len()),
            }
        })
    }

    /// Commands for the log₂(banks) partial-sum merge rounds within one
    /// (channel, rank) unit (Algorithm 2: 2n unit increments per digit
    /// per round, plus mask staging). Equal to
    /// [`Self::reduction_ops_salp`] with a single stream.
    #[must_use]
    pub fn reduction_ops(&self) -> f64 {
        self.reduction_ops_salp(1)
    }

    /// Commands for the intra-unit partial-sum merge when `streams`
    /// concurrent SALP shards each accumulated across the unit's banks:
    /// `banks × streams` partials collapse in ⌈log₂(banks·streams)⌉
    /// pairwise counter-to-counter rounds, all in-DRAM (subarray streams
    /// share the bank's bitlines, so their merges never cross the host
    /// bus). With one stream this is the pre-SALP bank-level
    /// [`Self::reduction_ops`], bit for bit.
    #[must_use]
    pub fn reduction_ops_salp(&self, streams: usize) -> f64 {
        let partials = self.cfg.banks * streams.max(1);
        if partials <= 1 {
            return 0.0;
        }
        let rounds = (partials as f64).log2().ceil();
        rounds * self.merge_round_ops()
    }

    /// Per-shard extra reduction commands for a K/plane-sharded plan:
    /// the first shard of each (channel, rank) unit in plan order
    /// carries the unit's whole intra-unit merge (its banks × its SALP
    /// streams), the unit's remaining subarray shards carry none. On a
    /// 1-subarray plan every unit holds exactly one shard, so this
    /// degenerates to the pre-SALP "every shard pays
    /// [`Self::reduction_ops`]" attribution, bit for bit.
    fn unit_reduction_extras(&self, plan: &ShardPlan) -> Vec<f64> {
        let mut extras = vec![0.0f64; plan.shards.len()];
        let mut i = 0;
        while i < plan.shards.len() {
            let unit = (plan.shards[i].channel, plan.shards[i].rank);
            let mut j = i + 1;
            while j < plan.shards.len() && (plan.shards[j].channel, plan.shards[j].rank) == unit {
                j += 1;
            }
            extras[i] = self.reduction_ops_salp(j - i);
            i = j;
        }
        extras
    }

    /// Commands for one pairwise counter-to-counter merge round
    /// (Algorithm 2's per-round cost; also the per-round cost of the
    /// cross-unit merge after K/plane sharding).
    #[must_use]
    pub fn merge_round_ops(&self) -> f64 {
        let n = self.code.bits() as f64;
        self.digits as f64 * (2.0 * n) * self.ops_per_sequence() + self.digits as f64 * 2.0
    }

    /// Commands to copy a finished output row's counters to another
    /// subarray (§5.2.2): one RowClone AAP per counter row per column
    /// slice.
    #[must_use]
    pub fn copy_out_ops(&self, n: usize) -> f64 {
        let slices = n.div_ceil(self.cfg.dram.row_bits_per_rank()).max(1);
        (self.digits * (self.code.bits() + 1)) as f64 * slices as f64
    }

    /// Relative per-increment cost of executing a shard on `backend`
    /// instead of the optimised Ambit μProgram: the backend's generic
    /// gate-network increment cost (§4.6, [`Backend::increment_ops`])
    /// over Ambit's hand-scheduled `7n + 7`. Exactly 1 for Ambit.
    #[must_use]
    pub fn backend_factor(&self, backend: Backend) -> f64 {
        if backend == Backend::Ambit {
            return 1.0;
        }
        let n = self.code.bits();
        backend.increment_ops(n) as f64 / ProtectionKind::None.ambit_increment_ops(n) as f64
    }

    /// Mask rows tenant weights of shape `K×N` occupy while resident:
    /// the +1 and −1 planes across the column slices `n` outputs span
    /// (see [`crate::residency::ternary_mask_rows`]).
    #[must_use]
    pub fn tenant_mask_rows(&self, n: usize, k: usize) -> usize {
        crate::residency::ternary_mask_rows(n, k, self.cfg.dram.row_bits_per_rank())
    }

    /// Residency slots on this engine's geometry: one per (channel,
    /// rank, SALP stream) — the slots
    /// [`ResidencyModel::with_slots`](crate::residency::ResidencyModel::with_slots)
    /// spreads each tenant's mask over. 1 on a single-channel,
    /// single-rank, 1-subarray engine.
    #[must_use]
    pub fn residency_slots(&self) -> usize {
        self.topology().shard_slots()
    }

    /// Mask rows the CIM subarrays can hold after reserving the Johnson
    /// counter rows: the residency budget of this engine's module
    /// (capacity hook: [`c2m_dram::DramConfig::cim_subarray_rows`]).
    /// Feed this to
    /// [`ResidencyModel::new`](crate::residency::ResidencyModel::new) to
    /// track tenant residency on the engine's actual geometry.
    #[must_use]
    pub fn residency_capacity_rows(&self) -> usize {
        let counter_rows = self.digits * (self.code.bits() + 1);
        let units = self.cfg.dram.channels * self.cfg.dram.ranks;
        let reserved = counter_rows * self.cfg.dram.parallel_subarrays(self.cfg.banks) * units;
        self.cfg
            .dram
            .cim_subarray_rows(self.cfg.banks)
            .saturating_sub(reserved)
            .max(1)
    }

    /// Time to stream `rows` mask rows from host memory back into the
    /// CIM subarrays — the price of a tenant switch on an over-subscribed
    /// module (the serving-layer row-conflict analogue). Each row pays
    /// its write bursts on the shared bus plus an activate/precharge
    /// cycle; bursts serialise on the bus, row cycles overlap with the
    /// next row's transfer, so the total is bus-bound with one trailing
    /// row cycle.
    #[must_use]
    pub fn mask_reload_ns(&self, rows: usize) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        let bursts_per_row = self.cfg.dram.row_bits_per_rank().div_ceil(512).max(1) as f64;
        rows as f64 * bursts_per_row * self.cfg.timing.t_burst
            + (self.cfg.timing.t_rcd + self.cfg.timing.t_rp)
    }

    /// Energy to stream `rows` mask rows back into the CIM subarrays —
    /// the joule counterpart of [`Self::mask_reload_ns`], which prices
    /// the reload in time only. Every row pays its write bursts plus a
    /// full activate/precharge cycle: row cycles overlap with the next
    /// row's transfer in *time*, but each still moves charge.
    #[must_use]
    pub fn mask_reload_energy_nj(&self, rows: usize) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        let bursts_per_row = self.cfg.dram.row_bits_per_rank().div_ceil(512).max(1) as f64;
        rows as f64 * (bursts_per_row * self.cfg.energy.e_wr_nj + self.cfg.energy.e_act_pre_nj)
    }

    /// RD bursts to stream one finished output row (`n` accumulators of
    /// `capacity_bits`) to the host over a 64-byte burst interface.
    fn output_row_bursts(&self, n: usize) -> u64 {
        (n * self.cfg.capacity_bits as usize).div_ceil(512).max(1) as u64
    }

    /// Bursts to move one unit's Johnson-coded counter state (all digit
    /// rows of every column slice holding `n` outputs) through the host
    /// during a cross-unit merge round.
    fn counter_transfer_bursts(&self, n: usize) -> u64 {
        let slices = n.div_ceil(self.cfg.dram.row_bits_per_rank()).max(1);
        let rows = self.digits * (self.code.bits() + 1);
        let bursts_per_row = self.cfg.dram.row_bits_per_rank().div_ceil(512).max(1);
        (slices * rows * bursts_per_row) as u64
    }

    /// Merges a sharded run into one [`ExecutionReport`]: channels run
    /// concurrently (elapsed = max over per-channel command time, each
    /// channel priced at the interleave rate of the ranks it *actually*
    /// occupies), the cross-unit merge tree and host gather serialise
    /// after the parallel phase, and commands/energy sum over
    /// everything. With a single-unit plan this is exactly the paper's
    /// single-channel pricing.
    ///
    /// `shard_ops` holds one effective-AAP count per plan shard, in
    /// plan order. Energy is [`EnergyModel::system_energy_nj`] over the
    /// aggregate commands and the makespan (see
    /// [`ExecutionReport::from_run`]).
    fn sharded_report(
        &self,
        plan: &ShardPlan,
        shard_ops: &[f64],
        gather_bursts: u64,
        useful: u64,
        n_out: usize,
    ) -> ExecutionReport {
        debug_assert_eq!(plan.shards.len(), shard_ops.len());
        let mut chan_ops = vec![0.0f64; self.cfg.dram.channels];
        for (shard, &ops) in plan.shards.iter().zip(shard_ops) {
            chan_ops[shard.channel] += ops;
        }
        let chan_ns: Vec<f64> = chan_ops
            .iter()
            .enumerate()
            .map(|(c, &ops)| {
                // Interleave rate of the ranks and SALP streams the
                // channel actually occupies; on a 1-subarray plan every
                // busy shard is a distinct rank and no subarray gate
                // applies.
                let mut ranks: Vec<usize> = plan
                    .on_channel(c)
                    .filter(|s| s.len > 0)
                    .map(|s| s.rank)
                    .collect();
                ranks.sort_unstable();
                ranks.dedup();
                let mut subs: Vec<usize> = plan
                    .on_channel(c)
                    .filter(|s| s.len > 0)
                    .map(|s| s.subarray)
                    .collect();
                subs.sort_unstable();
                subs.dedup();
                ops * steady_state_aap_interval(
                    &self.cfg.timing,
                    self.cfg.banks,
                    ranks.len().max(1),
                    subs.len().max(1),
                )
            })
            .collect();
        let compute_ns = chan_ns.iter().copied().fold(0.0, f64::max);
        let mut total_ops: f64 = chan_ops.iter().sum();
        let mut stats = CommandStats::default();
        let mut transfer_ns = 0.0;
        // Per-round merge durations, collected only when tracing (an
        // empty `Vec` never allocates, so the untraced path stays
        // allocation-free here).
        let mut merge_rounds: Vec<f64> = Vec::new();

        // The cross-unit merge tree and the host gather operate at
        // (channel, rank) granularity: SALP streams inside one unit were
        // already collapsed by the intra-unit merge, so they never add
        // host-bus legs.
        let units = plan.cr_units_used();
        if plan.axis.needs_reduction() && units > 1 {
            // Pairwise merge tree over the partial-sum units: round r
            // halves the survivors, so U units take ⌈log₂U⌉ rounds and
            // U−1 merges in total. Within a round the counter-to-counter
            // additions run on distinct destination units (one
            // merge-latency per round, at the single-rank rate), but
            // every transfer crosses the shared host bus (RD at the
            // source, store-and-forward WR at the destination), so
            // transfer time scales with the pair count.
            let bursts = self.counter_transfer_bursts(n_out);
            let merge_interval = steady_state_aap_interval(&self.cfg.timing, self.cfg.banks, 1, 1);
            // Counter-to-counter additions execute on the destination
            // units' backends; price conservatively at the plan's
            // slowest dispatch (the straggler gates each round anyway).
            let merge_ops = self.merge_round_ops()
                * plan
                    .shards
                    .iter()
                    .map(|s| self.backend_factor(s.backend))
                    .fold(0.0, f64::max);
            let mut active = units;
            while active > 1 {
                let pairs = active / 2;
                let round_ns = merge_ops * merge_interval
                    + pairs as f64 * 2.0 * bursts as f64 * self.cfg.timing.t_burst;
                transfer_ns += round_ns;
                if self.trace.is_some() {
                    merge_rounds.push(round_ns);
                }
                total_ops += pairs as f64 * merge_ops;
                stats.record_n(CommandKind::Rd, pairs as u64 * bursts);
                stats.record_n(CommandKind::Wr, pairs as u64 * bursts);
                active -= pairs;
            }
        }
        if gather_bursts > 0 {
            transfer_ns += gather_bursts as f64 * self.cfg.timing.t_burst;
            stats.record_n(CommandKind::Rd, gather_bursts);
        }

        stats.record_n(CommandKind::Aap, total_ops.round() as u64);
        let mut report = ExecutionReport::from_run(
            compute_ns + transfer_ns,
            stats,
            useful,
            &self.cfg.energy,
            &self.cfg.area,
            &self.cfg.dram,
        );
        // Observational only: a snapshot of the engine's cumulative
        // cache tallies at report time. Never feeds back into pricing.
        report.cache = self.cache_stats();
        if self.trace.is_some() {
            let gather_ns = gather_bursts as f64 * self.cfg.timing.t_burst;
            self.trace_launch(&chan_ns, compute_ns, &merge_rounds, gather_ns, &report);
        }
        report
    }

    /// Emits one launch's spans onto the core tracks: the launch span
    /// on the launch track, a shard-exec span per busy channel, the
    /// sequential merge rounds and host gather after the parallel
    /// phase, and cache counter samples from the report's snapshot.
    fn trace_launch(
        &self,
        chan_ns: &[f64],
        compute_ns: f64,
        merge_rounds: &[f64],
        gather_ns: f64,
        report: &ExecutionReport,
    ) {
        let Some(tr) = &self.trace else { return };
        let t0 = tr.advance(report.elapsed_ns);
        let sink = tr.sink.as_ref();
        sink.record(TraceEvent::Begin {
            t_ns: t0,
            name: "launch",
            cat: "core",
            track: Track::core(0),
        });
        let cache = &report.cache;
        for (name, value) in [
            ("plan_cache_hits", cache.plan_hits),
            ("plan_cache_misses", cache.plan_misses),
            ("stream_cache_hits", cache.stream_hits),
            ("stream_cache_misses", cache.stream_misses),
            ("report_cache_hits", cache.report_hits),
            ("report_cache_misses", cache.report_misses),
        ] {
            sink.record(TraceEvent::Counter {
                t_ns: t0,
                name,
                cat: "core",
                track: Track::core(0),
                value: value as f64,
            });
        }
        for (c, &ns) in chan_ns.iter().enumerate() {
            if ns > 0.0 {
                sink.span(Track::core(1 + c as u32), "shard_exec", "core", t0, t0 + ns);
            }
        }
        // `elapsed_ns` adds the rounds up in another order than this
        // walk does, so the last child can overrun the launch by an ulp:
        // each child is clamped into the launch.
        let end = t0 + report.elapsed_ns;
        let mut t = t0 + compute_ns;
        for &round_ns in merge_rounds {
            let (b, e) = (t.min(end), (t + round_ns).min(end));
            sink.span(Track::core(0), "merge_round", "core", b, e);
            t += round_ns;
        }
        if gather_ns > 0.0 {
            let (b, e) = (t.min(end), (t + gather_ns).min(end));
            sink.span(Track::core(0), "host_gather", "core", b, e);
        }
        sink.record(TraceEvent::End {
            t_ns: end,
            track: Track::core(0),
        });
        if let Some(m) = sink.metrics() {
            m.inc("core.launches", 1);
            m.observe_ns("core.launch_ns", report.elapsed_ns);
        }
    }
}

/// GOPS convention: one MAC = two operations.
#[must_use]
pub fn useful_ops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// The doubled ternary command stream (`x` then `−x`): the +1-plane
/// accumulation pass followed by the −1-plane subtraction pass. This
/// ordering is load-bearing for seed bit-compatibility — every ternary
/// path (engine kernels and the serving runtime) must build the stream
/// the same way.
#[must_use]
pub fn doubled_ternary(x: &[i64]) -> Vec<i64> {
    x.iter().copied().chain(x.iter().map(|&v| -v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2m_dram::scheduler::steady_state_aap_interval;
    use c2m_jc::cost::kary_full_ripple_ops;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn int8_stream(len: usize, seed: u64) -> Vec<i64> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-128i64..128)).collect()
    }

    #[test]
    fn merge_rounds_summing_past_the_launch_stay_inside_it() {
        let sink = Arc::new(c2m_trace::RecordingSink::new(64));
        let mut e = C2mEngine::builder(EngineConfig::c2m(1)).build();
        let mut report = e.ternary_gemv(&int8_stream(64, 9), 64);
        e.set_trace(sink.clone());
        // The launch clock starts at 0, so the walk ends the last round
        // at `compute + 0.1 + 0.2`, one ulp past the launch's end.
        let (compute_ns, rounds, gather_ns) = (0.3f64, [0.1, 0.2], 0.05);
        report.elapsed_ns = (compute_ns + rounds[0] + rounds[1]).next_down();
        e.trace_launch(&[compute_ns], compute_ns, &rounds, gather_ns, &report);
        let json = sink.chrome_trace_json();
        let check = c2m_trace::validate_chrome_trace(&json).expect("children nest in the launch");
        assert_eq!(check.spans, 5); // launch, shard_exec, 2 rounds, gather
    }

    #[test]
    fn zero_skipping() {
        let e = C2mEngine::builder(EngineConfig::c2m(1)).build();
        let dense = int8_stream(1024, 1);
        let mut sparse = dense.clone();
        for v in sparse.iter_mut().take(900) {
            *v = 0;
        }
        assert!(e.sequences_for_stream(&sparse) < e.sequences_for_stream(&dense) / 4);
        assert_eq!(e.sequences_for_stream(&vec![0i64; 128]), 0);
    }

    #[test]
    fn iarm_reduces_sequences() {
        // The engine's IARM count prices below the §4.5.1 full-ripple
        // model fig8 plots (an increment plus a ripple sequence per
        // non-zero digit) on the same stream.
        let e = C2mEngine::builder(EngineConfig::c2m(1)).build();
        let xs = int8_stream(2048, 2);
        let iarm = e.sequences_for_stream(&xs) as f64 * e.ops_per_sequence();
        let ripple: u64 = xs
            .iter()
            .map(|&x| kary_full_ripple_ops(u128::from(x.unsigned_abs()), 4, e.digits()))
            .sum();
        assert!(iarm < ripple as f64, "IARM {iarm} vs full ripple {ripple}");
    }

    #[test]
    fn protection_increases_ops() {
        let plain = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let prot = C2mEngine::builder(EngineConfig::c2m_protected(16)).build();
        assert!(prot.ops_per_sequence() > 1.5 * plain.ops_per_sequence());
        // §7.3.2: recompute overhead ~20% on top of the 13n+16 detection
        // cost at fault 1e-4.
        let base = ProtectionKind::Ecc {
            fr_checks: 2,
            fuse_inverted_feedback: false,
        }
        .ambit_increment_ops(2) as f64;
        let overhead = prot.ops_per_sequence() / base - 1.0;
        assert!(
            (0.10..0.30).contains(&overhead),
            "correction overhead {overhead}"
        );
    }

    #[test]
    fn bank_scaling_improves_gemv_latency() {
        let xs = int8_stream(8192, 3);
        let t1 = C2mEngine::builder(EngineConfig::c2m(1))
            .build()
            .ternary_gemv(&xs, 22016);
        let t16 = C2mEngine::builder(EngineConfig::c2m(16))
            .build()
            .ternary_gemv(&xs, 22016);
        let speedup = t1.elapsed_ns / t16.elapsed_ns;
        assert!((6.0..16.0).contains(&speedup), "16-bank speedup {speedup}");
    }

    #[test]
    fn c2m_beats_simdram_shape() {
        // The headline claim: C2M outperforms RCA-based SIMDRAM on
        // ternary kernels (abstract: up to 10x).
        use c2m_dram::TimingParams;
        let xs = int8_stream(8192, 4);
        let c2m = C2mEngine::builder(EngineConfig::c2m(16))
            .build()
            .ternary_gemv(&xs, 8192);
        // SIMDRAM ops: 2K sequences of 64-bit RCA (17 ops/bit).
        let simdram_ops = 2.0 * 8192.0 * (17.0 * 64.0);
        let interval = steady_state_aap_interval(&TimingParams::ddr5_4400(), 16, 1, 1);
        let simdram_ns = simdram_ops * interval;
        let speedup = simdram_ns / c2m.elapsed_ns;
        assert!(
            (2.0..=12.0).contains(&speedup),
            "C2M over SIMDRAM speedup {speedup} outside the paper's 2-10x band"
        );
    }

    #[test]
    fn gemm_scales_linearly_in_m() {
        let xs = int8_stream(4096, 5);
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let one = e.ternary_gemm(1, 4096, &xs);
        let many = e.ternary_gemm(64, 4096, &xs);
        let ratio = many.elapsed_ns / one.elapsed_ns;
        assert!((ratio - 64.0).abs() / 64.0 < 0.01, "ratio {ratio}");
    }

    #[test]
    fn int8_gemv_beats_bit_serial_multiplication() {
        // §5.2.3: CSD bit-slicing turns int x int into masked counting;
        // the bit-serial alternative multiplies with W-bit shift-and-add
        // RCAs. Worst-case 8-bit weights need 14 CSD planes.
        let planes: Vec<(u32, bool)> = (0..7u32).flat_map(|e| [(e, false), (e, true)]).collect();
        let xs = int8_stream(4096, 9);
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let c2m = e.int_gemv(&xs, 4096, &planes);
        // Bit-serial baseline: K multiplications, each 8 additions of a
        // 16-bit partial into a 64-bit accumulator (12 AAP/bit as in the
        // SIMDRAM engine), at the same 16-bank interval.
        let simdram_ops = 4096.0 * 8.0 * (12.0 * 64.0);
        let interval = steady_state_aap_interval(&c2m_dram::TimingParams::ddr5_4400(), 16, 1, 1);
        let ratio = simdram_ops * interval / c2m.elapsed_ns;
        assert!(
            ratio > 1.0,
            "counting int8 GEMV should beat bit-serial multiply ({ratio})"
        );
    }

    #[test]
    fn int_gemv_scales_with_plane_count() {
        let xs = int8_stream(1024, 10);
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let few = e.int_gemv(&xs, 1024, &[(0, false), (2, false)]);
        let many: Vec<(u32, bool)> = (0..7u32).flat_map(|p| [(p, false), (p, true)]).collect();
        let all = e.int_gemv(&xs, 1024, &many);
        assert!(all.elapsed_ns > 3.0 * few.elapsed_ns);
    }

    #[test]
    fn reports_have_positive_metrics() {
        let xs = int8_stream(1024, 6);
        let r = C2mEngine::builder(EngineConfig::c2m(16))
            .build()
            .ternary_gemv(&xs, 4096);
        assert!(r.gops() > 0.0);
        assert!(r.gops_per_watt() > 0.0);
        assert!(r.gops_per_mm2() > 0.0);
        assert!(r.elapsed_ms() > 0.0);
    }

    // ---- topology-aware sharded execution ----

    fn cfg_with_channels(channels: usize, ranks: usize) -> EngineConfig {
        let mut cfg = EngineConfig::c2m(16);
        cfg.dram.channels = channels;
        cfg.dram.ranks = ranks;
        cfg
    }

    #[test]
    fn single_channel_reproduces_seed_closed_form_bit_for_bit() {
        // channels=1, ranks=1 must price exactly like the paper's
        // single-channel model: (accumulation + bank merge) x the
        // steady-state interval, all-AAP stats, rank-level area/energy.
        let xs = int8_stream(4096, 21);
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let doubled: Vec<i64> = xs.iter().copied().chain(xs.iter().map(|&v| -v)).collect();
        let stream_ops = e.sequences_for_stream(&doubled) as f64 * e.ops_per_sequence();
        let expect_ops = stream_ops + e.reduction_ops();
        let interval = steady_state_aap_interval(&TimingParams::ddr5_4400(), 16, 1, 1);

        let gemv = e.ternary_gemv(&xs, 8192);
        assert_eq!(gemv.elapsed_ns, expect_ops * interval);
        assert_eq!(
            gemv.stats.count(CommandKind::Aap),
            expect_ops.round() as u64
        );
        assert_eq!(gemv.stats.count(CommandKind::Rd), 0);
        assert_eq!(gemv.stats.count(CommandKind::Wr), 0);

        let per_row = stream_ops + e.copy_out_ops(8192);
        let gemm = e.ternary_gemm(64, 8192, &xs);
        assert_eq!(gemm.elapsed_ns, per_row * 64.0 * interval);
        assert_eq!(gemm.stats.count(CommandKind::Rd), 0);
    }

    #[test]
    fn four_channel_gemm_is_sublinear_speedup() {
        // Acceptance: 4 channels lands strictly between 1x and 1/4x of
        // the single-channel latency (gather of finished rows is serial
        // at the host).
        let xs = int8_stream(4096, 22);
        let one = C2mEngine::builder(cfg_with_channels(1, 1))
            .build()
            .ternary_gemm(64, 4096, &xs);
        let four = C2mEngine::builder(cfg_with_channels(4, 1))
            .build()
            .ternary_gemm(64, 4096, &xs);
        assert!(four.elapsed_ns < one.elapsed_ns);
        assert!(
            four.elapsed_ns > one.elapsed_ns / 4.0,
            "4ch {} vs 1ch/4 {}",
            four.elapsed_ns,
            one.elapsed_ns / 4.0
        );
        // The gather shows up as host RD bursts.
        assert!(four.stats.count(CommandKind::Rd) > 0);
    }

    #[test]
    fn gemv_channel_sharding_pays_cross_unit_merge() {
        let xs = int8_stream(8192, 23);
        let one = C2mEngine::builder(cfg_with_channels(1, 1))
            .build()
            .ternary_gemv(&xs, 22016);
        let four = C2mEngine::builder(cfg_with_channels(4, 1))
            .build()
            .ternary_gemv(&xs, 22016);
        assert!(four.elapsed_ns < one.elapsed_ns);
        assert!(four.elapsed_ns > one.elapsed_ns / 4.0);
        // 4 units -> 2 merge rounds of counter traffic through the host.
        assert!(four.stats.count(CommandKind::Rd) > 0);
        assert_eq!(
            four.stats.count(CommandKind::Rd),
            four.stats.count(CommandKind::Wr)
        );
    }

    #[test]
    fn rank_interleaving_improves_latency_with_bus_floor() {
        let xs = int8_stream(8192, 24);
        let r1 = C2mEngine::builder(cfg_with_channels(1, 1))
            .build()
            .ternary_gemv(&xs, 8192);
        let r2 = C2mEngine::builder(cfg_with_channels(1, 2))
            .build()
            .ternary_gemv(&xs, 8192);
        assert!(
            r2.elapsed_ns < r1.elapsed_ns,
            "2 ranks {} vs 1 rank {}",
            r2.elapsed_ns,
            r1.elapsed_ns
        );
        // The rank-switch floor keeps the gain below the unit count.
        assert!(r2.elapsed_ns > r1.elapsed_ns / 2.0);
    }

    #[test]
    fn int_gemv_shards_planes_across_channels() {
        let planes: Vec<(u32, bool)> = (0..7u32).flat_map(|e| [(e, false), (e, true)]).collect();
        let xs = int8_stream(4096, 25);
        let one = C2mEngine::builder(cfg_with_channels(1, 1))
            .build()
            .int_gemv(&xs, 4096, &planes);
        let four = C2mEngine::builder(cfg_with_channels(4, 1))
            .build()
            .int_gemv(&xs, 4096, &planes);
        assert!(four.elapsed_ns < one.elapsed_ns);
        assert!(four.elapsed_ns > one.elapsed_ns / 4.0);
    }

    #[test]
    fn fcdram_dispatch_prices_above_ambit() {
        // FCDRAM has no hand-optimised counting μProgram, so a uniform
        // FCDRAM run pays the generic-lowering premium over Ambit.
        let xs = int8_stream(4096, 26);
        let cfg = cfg_with_channels(4, 1);
        let ambit = C2mEngine::builder(cfg.clone())
            .build()
            .ternary_gemv(&xs, 8192);
        let fcdram = C2mEngine::builder(cfg.clone())
            .backends(BackendPolicy::Uniform(Backend::Fcdram))
            .build()
            .ternary_gemv(&xs, 8192);
        assert!(fcdram.elapsed_ns > ambit.elapsed_ns);
        // More commands over a longer makespan cost more energy too.
        assert!(
            fcdram.energy_nj > ambit.energy_nj,
            "fcdram {} vs ambit {}",
            fcdram.energy_nj,
            ambit.energy_nj
        );

        // A mixed module prices between the two uniform extremes.
        let mixed = C2mEngine::builder(cfg)
            .backends(BackendPolicy::PerChannel(vec![
                Backend::Ambit,
                Backend::Fcdram,
            ]))
            .build()
            .ternary_gemv(&xs, 8192);
        assert!(mixed.elapsed_ns >= ambit.elapsed_ns);
        assert!(mixed.elapsed_ns <= fcdram.elapsed_ns);
    }

    #[test]
    fn binary_gemm_skips_the_subtraction_pass() {
        // A binary mask plane accumulates each row stream once; ternary
        // doubles it with the negated copy, so on a zero-free stream the
        // binary path must price strictly below ternary (and within
        // [1x, 2x] of half the ternary accumulation).
        let xs = vec![1i64; 512];
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let bin = e.binary_gemm(32, 1024, &xs);
        let ter = e.ternary_gemm(32, 1024, &xs);
        assert!(bin.elapsed_ns < ter.elapsed_ns);
        let ratio = ter.elapsed_ns / bin.elapsed_ns;
        assert!((1.0..=2.5).contains(&ratio), "ternary/binary ratio {ratio}");
        assert_eq!(bin.useful_ops, ter.useful_ops);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn engine_rejects_more_banks_than_the_rank_has() {
        let _ = C2mEngine::builder(EngineConfig::c2m(64)).build();
    }

    // ---- batched GEMV + heterogeneity-aware sizing ----

    #[test]
    fn gemv_batch_of_one_matches_gemm_row_pricing() {
        // A batch is row-sharded, so a single-request batch prices like
        // a one-row GEMM over the same stream (accumulation + copy-out).
        let xs = int8_stream(2048, 30);
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let batch = e.ternary_gemv_batch(std::slice::from_ref(&xs), 4096);
        let gemm = e.ternary_gemm(1, 4096, &xs);
        assert_eq!(batch.elapsed_ns, gemm.elapsed_ns);
    }

    #[test]
    fn batched_gemvs_price_below_sequential_gemvs() {
        // Per request, a batch pays copy-out instead of the cross-bank
        // partial-sum merge, and on a multi-channel topology rows shard
        // cleanly instead of paying cross-unit merges per request.
        let xs: Vec<Vec<i64>> = (0..8).map(|s| int8_stream(2048, 31 + s)).collect();
        for &channels in &[1usize, 4] {
            let e = C2mEngine::builder(cfg_with_channels(channels, 1)).build();
            let batched = e.ternary_gemv_batch(&xs, 4096).elapsed_ns;
            let serial: f64 = xs.iter().map(|x| e.ternary_gemv(x, 4096).elapsed_ns).sum();
            assert!(
                batched < serial,
                "{channels}ch: batched {batched} vs serial {serial}"
            );
        }
    }

    #[test]
    fn empty_batch_prices_to_zero() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let r = e.ternary_gemv_batch::<Vec<i64>>(&[], 4096);
        assert_eq!(r.elapsed_ns, 0.0);
        assert_eq!(r.useful_ops, 0);
    }

    #[test]
    fn heterogeneity_weights_equalise_mixed_module_makespan() {
        let xs: Vec<Vec<i64>> = (0..16).map(|s| int8_stream(2048, 40 + s)).collect();
        let cfg = cfg_with_channels(4, 1);
        let policy = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
        let even = C2mEngine::builder(cfg.clone())
            .backends(policy.clone())
            .build();
        let weighted = C2mEngine::builder(cfg)
            .backends(policy)
            .balanced_sizing()
            .build();
        let t_even = even.ternary_gemv_batch(&xs, 4096).elapsed_ns;
        let t_weighted = weighted.ternary_gemv_batch(&xs, 4096).elapsed_ns;
        assert!(
            t_weighted < t_even,
            "weighted {t_weighted} vs even {t_even}"
        );
    }

    #[test]
    fn heterogeneity_weights_are_even_on_uniform_policies() {
        let e = C2mEngine::builder(cfg_with_channels(4, 1)).build();
        let ShardSizing::Weighted(w) = e.heterogeneity_weights() else {
            panic!("weights expected");
        };
        assert!(w.iter().all(|&x| x == 1.0));
        // And a uniform weighted engine plans identically to the seed.
        let xs = int8_stream(4096, 50);
        let sized = C2mEngine::builder(cfg_with_channels(4, 1))
            .balanced_sizing()
            .build();
        assert_eq!(
            sized.ternary_gemv(&xs, 8192).elapsed_ns,
            e.ternary_gemv(&xs, 8192).elapsed_ns
        );
    }

    #[test]
    fn backend_factor_is_exactly_one_for_ambit() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        assert_eq!(e.backend_factor(Backend::Ambit), 1.0);
        assert!(e.backend_factor(Backend::Fcdram) > 1.0);
        assert!(e.backend_factor(Backend::Pinatubo) < 1.0);
    }

    // ---- tenant weight residency pricing ----

    #[test]
    fn residency_capacity_reserves_counter_rows_and_scales() {
        let one = C2mEngine::builder(cfg_with_channels(1, 1)).build();
        let cap1 = one.residency_capacity_rows();
        // 16 CIM subarrays x 1024 rows minus the counter reservation.
        assert!(cap1 < 16 * 1024);
        assert!(cap1 > 8 * 1024, "counters must not eat the subarray");
        let eight = C2mEngine::builder(cfg_with_channels(4, 2)).build();
        assert_eq!(eight.residency_capacity_rows(), 8 * cap1);
    }

    #[test]
    fn mask_reload_is_bus_bound_and_linear_in_rows() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        assert_eq!(e.mask_reload_ns(0), 0.0);
        let one = e.mask_reload_ns(1);
        let thousand = e.mask_reload_ns(1000);
        assert!(one > 0.0);
        // Linear in rows up to the single trailing row cycle.
        let t = TimingParams::ddr5_4400();
        let per_row = thousand - (t.t_rcd + t.t_rp);
        assert!((per_row / 1000.0 - (one - (t.t_rcd + t.t_rp))).abs() < 1e-9);
        // A real tenant reload costs the same order as one large GEMV,
        // so the scheduler faces a genuine affinity-vs-deadline trade.
        let rows = e.tenant_mask_rows(4096, 2048);
        let xs = int8_stream(2048, 60);
        let gemv = e.ternary_gemv(&xs, 4096).elapsed_ns;
        let reload = e.mask_reload_ns(rows);
        assert!(reload > gemv / 100.0, "reload {reload} vs gemv {gemv}");
        assert!(reload < gemv * 10.0, "reload {reload} vs gemv {gemv}");
    }

    #[test]
    fn tenant_mask_rows_match_residency_module() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let row_bits = e.config().dram.row_bits_per_rank();
        assert_eq!(
            e.tenant_mask_rows(4096, 2048),
            crate::residency::ternary_mask_rows(4096, 2048, row_bits)
        );
    }

    #[test]
    fn topology_capacity_and_area_aggregate_in_reports() {
        let xs = int8_stream(1024, 27);
        let one = C2mEngine::builder(cfg_with_channels(1, 1))
            .build()
            .ternary_gemv(&xs, 4096);
        let eight = C2mEngine::builder(cfg_with_channels(4, 2))
            .build()
            .ternary_gemv(&xs, 4096);
        assert!((eight.area_mm2 - 8.0 * one.area_mm2).abs() < 1e-9);
    }

    // ---- launch energy ----

    #[test]
    fn ledger_attributes_more_dynamic_energy_to_slower_backends() {
        // The FCDRAM channel burns more commands per increment, so a mixed
        // module's dynamic energy (priced from the launch's aggregate
        // commands) lies strictly between the two uniform extremes.
        let xs: Vec<Vec<i64>> = (0..8).map(|s| int8_stream(1024, 95 + s)).collect();
        let cfg = cfg_with_channels(2, 1);
        let dynamic_nj = |policy: BackendPolicy| {
            let r = C2mEngine::builder(cfg.clone())
                .backends(policy)
                .build()
                .ternary_gemv_batch(&xs, 2048);
            cfg.energy.dynamic_energy_nj(&r.stats)
        };
        let ambit = dynamic_nj(BackendPolicy::Uniform(Backend::Ambit));
        let fcdram = dynamic_nj(BackendPolicy::Uniform(Backend::Fcdram));
        let mixed = dynamic_nj(BackendPolicy::PerChannel(vec![
            Backend::Ambit,
            Backend::Fcdram,
        ]));
        assert!(
            ambit < mixed && mixed < fcdram,
            "ambit {ambit} mixed {mixed} fcdram {fcdram}"
        );
    }

    /// Every launch's energy is the system formula over its own
    /// aggregate commands and makespan, bit for bit, across kernels and
    /// topologies.
    #[test]
    fn launch_energy_is_the_system_formula_across_kernels_and_topologies() {
        let planes: Vec<(u32, bool)> = (0..5u32).flat_map(|e| [(e, false), (e, true)]).collect();
        for &(channels, ranks) in &[(1usize, 1usize), (4, 1), (2, 2), (4, 2)] {
            let cfg = cfg_with_channels(channels, ranks);
            let e = C2mEngine::builder(cfg.clone()).build();
            let xs = int8_stream(2048, 70 + channels as u64 * 8 + ranks as u64);
            let batch: Vec<Vec<i64>> = (0..6).map(|s| int8_stream(512, 80 + s)).collect();
            let reports = [
                e.ternary_gemv(&xs, 4096),
                e.ternary_gemm(16, 2048, &xs),
                e.binary_gemm(8, 1024, &xs),
                e.int_gemv(&xs, 1024, &planes),
                e.ternary_gemv_batch(&batch, 1024),
            ];
            for r in &reports {
                assert!(r.energy_nj > 0.0, "{channels}x{ranks}");
                assert_eq!(
                    r.energy_nj.to_bits(),
                    cfg.energy
                        .system_energy_nj(&r.stats, r.elapsed_ns, &cfg.dram)
                        .to_bits(),
                    "{channels}x{ranks}"
                );
            }
        }
    }

    // ---- builder validation and caching ----

    #[test]
    fn try_build_reports_each_validation_failure() {
        let mut bad_radix = EngineConfig::c2m(16);
        bad_radix.radix = 3;
        assert!(matches!(
            C2mEngine::builder(bad_radix).try_build(),
            Err(EngineBuildError::InvalidRadix(_))
        ));
        assert!(matches!(
            C2mEngine::builder(EngineConfig::c2m(64)).try_build(),
            Err(EngineBuildError::InvalidGeometry(_))
        ));
        let mut zero_ch = EngineConfig::c2m(16);
        zero_ch.dram.channels = 0;
        assert!(matches!(
            C2mEngine::builder(zero_ch).try_build(),
            Err(EngineBuildError::InvalidGeometry(_))
        ));
        assert!(matches!(
            C2mEngine::builder(EngineConfig::c2m(16))
                .backends(BackendPolicy::PerChannel(vec![]))
                .try_build(),
            Err(EngineBuildError::InvalidBackends(_))
        ));
        // Past 1023 bits the digit count saturates at the f64 overflow
        // (512 digits at radix 4), and past 2^31 it wraps to 1 digit.
        for bits in [0, 1024, 1 << 31] {
            let mut cfg = EngineConfig::c2m(16);
            cfg.capacity_bits = bits;
            assert!(
                matches!(
                    C2mEngine::builder(cfg).try_build(),
                    Err(EngineBuildError::InvalidCapacity(_))
                ),
                "{bits} bits"
            );
        }
        for bits in [1, MAX_CAPACITY_BITS] {
            let mut cfg = EngineConfig::c2m(16);
            cfg.capacity_bits = bits;
            assert!(C2mEngine::builder(cfg).try_build().is_ok(), "{bits} bits");
        }
    }

    #[test]
    fn try_build_rejects_radix_wider_than_a_32_bit_counter() {
        for radix in [0, 66, 128] {
            let mut cfg = EngineConfig::c2m(16);
            cfg.radix = radix;
            assert!(
                matches!(
                    C2mEngine::builder(cfg).try_build(),
                    Err(EngineBuildError::InvalidRadix(_))
                ),
                "radix {radix}"
            );
        }
        let mut widest = EngineConfig::c2m(16);
        widest.radix = JohnsonCode::MAX_RADIX;
        assert!(C2mEngine::builder(widest).try_build().is_ok());
    }

    #[test]
    fn cached_and_uncached_engines_price_identically() {
        for cfg in [cfg_with_channels(1, 1), cfg_with_channels(4, 2)] {
            let cached = C2mEngine::builder(cfg.clone()).build();
            let uncached = C2mEngine::builder(cfg).no_cache().build();
            let xs = int8_stream(2048, 111);
            // The second round exercises the hit path.
            for _ in 0..2 {
                let a = cached.ternary_gemv(&xs, 4096);
                let b = uncached.ternary_gemv(&xs, 4096);
                assert_eq!(a.elapsed_ns, b.elapsed_ns);
                assert_eq!(a.energy_nj, b.energy_nj);
                assert_eq!(
                    a.stats.count(CommandKind::Aap),
                    b.stats.count(CommandKind::Aap)
                );
            }
            let tallies = cached.cache_stats();
            // The repeat launch short-circuits at the report tier.
            assert!(tallies.report_hits > 0);
            assert_eq!(uncached.cache_stats(), CacheCounters::default());
        }
    }

    #[test]
    fn report_keys_lay_out_tag_shape_and_length_prefixed_inputs() {
        // Each kernel's key is a tag, its shape, then its inputs, each
        // length-prefixed, followed by the engine's config words.
        let cfg_words = C2mEngine::builder(EngineConfig::c2m(16))
            .build()
            .report_key_words();
        let kernel_words = |launch: &dyn Fn(&C2mEngine)| -> Vec<u64> {
            let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
            launch(&e);
            let keys: Vec<Box<[u64]>> = e
                .cache()
                .expect("cached engine")
                .reports
                .read(|m| m.keys().cloned().collect());
            assert_eq!(keys.len(), 1);
            let (kernel, cfg) = keys[0].split_at(keys[0].len() - cfg_words.len());
            assert_eq!(cfg, cfg_words.as_slice(), "config words come last");
            kernel.to_vec()
        };
        let minus_two = (-2i64) as u64;
        assert_eq!(
            kernel_words(&|e| drop(e.ternary_gemv(&[1, -2], 8))),
            [0, 8, 2, 1, minus_two]
        );
        assert_eq!(
            kernel_words(&|e| drop(e.ternary_gemv_batch(&[vec![1, 2], vec![3]], 8))),
            [1, 8, 2, 2, 1, 2, 1, 3]
        );
        assert_eq!(
            kernel_words(&|e| drop(e.ternary_gemm(4, 8, &[5]))),
            [2, 4, 8, 1, 1, 5]
        );
        assert_eq!(
            kernel_words(&|e| drop(e.binary_gemm(4, 8, &[5]))),
            [2, 4, 8, 0, 1, 5]
        );
        assert_eq!(
            kernel_words(&|e| drop(e.int_gemv(&[5], 8, &[(3, true), (1, false)]))),
            [3, 8, 2, 7, 2, 1, 5]
        );
    }

    #[test]
    fn reports_carry_cache_counter_snapshots() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let xs = int8_stream(512, 131);
        let first = e.ternary_gemv(&xs, 1024);
        assert_eq!(first.cache.plan_misses, 1);
        assert_eq!(first.cache.stream_misses, 1);
        assert_eq!(first.cache.report_misses, 1);
        // The repeat launch is a whole-report hit; the plan/stream tiers
        // are never consulted, and the hit re-stamps the counters.
        let second = e.ternary_gemv(&xs, 1024);
        assert_eq!(second.cache.report_hits, 1);
        assert_eq!(second.cache.plan_hits, 0);
        assert_eq!(second.cache.stream_hits, 0);
        assert!(second.cache.hit_rate() > 0.0);
    }

    #[test]
    fn clones_and_shared_handles_warm_one_cache() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        let xs = int8_stream(1024, 121);
        let _ = e.ternary_gemv(&xs, 2048);
        let misses_after_first = e.cache_stats().stream_misses;
        let clone = e.clone();
        let _ = clone.ternary_gemv(&xs, 2048);
        assert_eq!(clone.cache_stats().stream_misses, misses_after_first);
        assert!(clone.cache_stats().report_hits > 0);
        // A separately built engine sharing the handle also hits.
        let shared = C2mEngine::builder(EngineConfig::c2m(16))
            .shared_cache(Arc::clone(e.cache().unwrap()))
            .build();
        let before = shared.cache_stats().report_hits;
        let _ = shared.ternary_gemv(&xs, 2048);
        assert!(shared.cache_stats().report_hits > before);
    }

    #[test]
    fn mask_reload_energy_is_linear_in_rows_and_pairs_with_time() {
        let e = C2mEngine::builder(EngineConfig::c2m(16)).build();
        assert_eq!(e.mask_reload_energy_nj(0), 0.0);
        let one = e.mask_reload_energy_nj(1);
        assert!(one > 0.0);
        assert!((e.mask_reload_energy_nj(1000) - 1000.0 * one).abs() < 1e-6);
        // The reload's implied power (J over its own wall-clock) is a
        // plausible active-write figure: above zero, below 100 W.
        let rows = e.tenant_mask_rows(4096, 2048);
        let p = e.mask_reload_energy_nj(rows) / e.mask_reload_ns(rows);
        assert!(p > 0.0 && p < 100.0, "reload power {p} W");
    }
}
