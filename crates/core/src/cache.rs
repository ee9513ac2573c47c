//! Keyed memoisation of shard plans and stream pricing.
//!
//! Fleet-scale traces (ROADMAP direction 3: millions of served
//! requests) re-price the same (shape, topology, backend-mix) tuple on
//! every batch, and in steady-state serving the same input streams come
//! back again and again — through the serve layer's plan pass, the
//! engine launch, and the power governor's trial-pricing loop. Both
//! recomputations are *exact* to memoise:
//!
//! * **Shard plans** are a pure function of `(axis, extent, topology,
//!   backend policy, sizing)` — the [`PlanKey`]. The cache builds a
//!   missing [`ShardPlan`] from the key alone, stores it behind an
//!   `Arc` and hands it out on repeats.
//! * **Stream pricing** (the IARM/full-ripple sequence count of
//!   [`crate::engine::C2mEngine::sequences_for_stream`]) is a pure
//!   function of `(radix, digits, iarm-flag, stream values)`, and the
//!   cache computes a missing count from exactly those. Because the
//!   count depends on the input *values* — the planner really runs over
//!   them — the cache keys on the full stream content: an entry is only
//!   served after an exact slice comparison against the stored stream,
//!   so a cached path can never return anything the uncached path would
//!   not have computed. (The hash bucketing is just an index;
//!   correctness never rests on it.)
//!
//! Neither tier takes a caller-supplied computation: whatever a plan or
//! a count depends on must be a field of its key, so an unkeyed input
//! cannot exist. The report tier's key words come from
//! [`C2mEngine::report_key_words`](crate::engine::C2mEngine::report_key_words),
//! which destructures every configuration struct without `..`.
//!
//! A [`PlanCache`] is interior-mutable and thread-safe, so one handle
//! can be shared by every engine of a sweep (see
//! [`EngineBuilder::shared_cache`](crate::engine::EngineBuilder::shared_cache))
//! and by the parallel per-shard pricing loops. Hit/miss tallies are
//! surfaced through [`CacheCounters`] on every
//! [`ExecutionReport`](c2m_dram::ExecutionReport).

use crate::engine::doubled_ternary;
use crate::shard::{BackendPolicy, ShardAxis, ShardPlan, ShardPlanner, ShardSizing};
use c2m_dram::{CacheCounters, ExecutionReport, Topology};
use c2m_jc::iarm::IarmPlanner;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sizing limits for a [`PlanCache`]. Every map uses epoch eviction:
/// when a map would exceed its cap the whole map is cleared — trivially
/// correct (a cleared entry is just a future miss) and O(1) amortised,
/// which suits the steady-state traces the cache exists for (a working
/// set either fits or churns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum distinct shard plans retained.
    pub max_plans: usize,
    /// Maximum distinct priced streams retained. Each entry owns a copy
    /// of its stream, so memory is bounded by `max_streams × longest
    /// stream`.
    pub max_streams: usize,
    /// Maximum whole-launch [`ExecutionReport`]s retained. `0` disables
    /// the report tier entirely (no entries, no tallies) — useful when
    /// a caller wants to keep measuring or exercising the re-fold path
    /// while still sharing warm plan/stream tiers.
    pub max_reports: usize,
}

impl Default for CacheConfig {
    /// 1024 plans / 8192 streams / 1024 reports: a steady-state serving
    /// working set (tens of tenants × shapes) fits with two orders of
    /// magnitude to spare, while the worst case stays a few hundred MB.
    fn default() -> Self {
        Self {
            max_plans: 1024,
            max_streams: 8192,
            max_reports: 1024,
        }
    }
}

/// Cache key of one shard plan: everything a [`ShardPlanner`] reads
/// when splitting an axis, and the only input a missing plan is built
/// from.
/// `sizing` holds the weight bit patterns of a
/// [`ShardSizing::Weighted`] (empty for [`ShardSizing::Even`]) so the
/// key stays hashable without losing any f64 exactness.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey {
    /// Partitioned kernel axis.
    pub axis: ShardAxis,
    /// Axis extent (rows, K, or plane count).
    pub total: usize,
    /// Topology geometry.
    pub topology: Topology,
    /// Backend dispatch policy.
    pub policy: BackendPolicy,
    /// Weight bit patterns (empty = even sizing).
    pub sizing: Vec<u64>,
}

impl PlanKey {
    /// Encodes a sizing policy into the key's weight-bits form.
    #[must_use]
    pub fn sizing_bits(sizing: &ShardSizing) -> Vec<u64> {
        match sizing {
            ShardSizing::Even => Vec::new(),
            ShardSizing::Weighted(w) => w.iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// The plan this key names, built from the key's fields alone.
    ///
    /// # Panics
    ///
    /// Panics if `sizing` decodes to a non-positive or non-finite weight
    /// (see [`ShardPlanner::with_sizing`]).
    #[must_use]
    pub(crate) fn build(&self) -> ShardPlan {
        let sizing = if self.sizing.is_empty() {
            ShardSizing::Even
        } else {
            ShardSizing::Weighted(self.sizing.iter().map(|&b| f64::from_bits(b)).collect())
        };
        let planner =
            ShardPlanner::with_policy(self.topology, self.policy.clone()).with_sizing(sizing);
        match self.axis {
            ShardAxis::OutputRows => planner.plan_rows(self.total),
            ShardAxis::InnerDim => planner.plan_inner(self.total),
            ShardAxis::CsdPlanes => planner.plan_planes(self.total),
        }
    }
}

/// Identity of a priced stream, and everything its count depends on
/// besides the values: the Johnson radix and digit count, whether IARM
/// planning is on, and whether the stream is the doubled ternary form
/// of the stored values (`x` then `−x`), so ternary callers can key on
/// the undoubled input and skip materialising the doubled copy on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StreamParams {
    pub(crate) radix: usize,
    pub(crate) digits: usize,
    pub(crate) iarm: bool,
    pub(crate) doubled: bool,
}

impl StreamParams {
    /// Broadcast command *sequences* needed to accumulate the signed
    /// stream `xs` (zeros skipped, §7.2.3), doubled first when
    /// `self.doubled`. Runs the real host-side routine: digit unpacking
    /// plus IARM planning (or the oblivious full-ripple chain when IARM
    /// is off).
    pub(crate) fn count(self, xs: &[i64]) -> u64 {
        if self.doubled {
            let single = Self {
                doubled: false,
                ..self
            };
            return single.count(&doubled_ternary(xs));
        }
        if self.iarm {
            let mut planner = IarmPlanner::new(self.radix, self.digits);
            planner.assume_zero();
            let mut seqs = 0u64;
            // Addition pass, then subtraction pass (host reordering).
            for &x in xs.iter().filter(|&&x| x > 0) {
                seqs += planner.plan_add(x.unsigned_abs() as u128).len() as u64;
            }
            for &x in xs.iter().filter(|&&x| x < 0) {
                seqs += planner.plan_sub(x.unsigned_abs() as u128).len() as u64;
            }
            seqs += planner.flush().len() as u64;
            seqs
        } else {
            // k-ary with per-increment carry rippling (§4.5.1): each
            // non-zero digit pays its increment plus one rippling
            // command sequence — the paper's 2·(7n+7)-per-digit model.
            let mut seqs = 0u64;
            let r = self.radix as u128;
            for &x in xs.iter().filter(|&&x| x != 0) {
                let mut v = x.unsigned_abs() as u128;
                while v != 0 {
                    if !v.is_multiple_of(r) {
                        seqs += 2;
                    }
                    v /= r;
                }
            }
            seqs
        }
    }
}

#[derive(Debug)]
struct StreamEntry {
    params: StreamParams,
    xs: Box<[i64]>,
    seqs: u64,
}

/// Owned identity of a memoised whole launch: which kernel entry point
/// ran and the full input content it ran over. Content is stored, not
/// hashed, so the [`ReportCache`] equality gate can compare exactly —
/// the same rule the stream tier follows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportKernel {
    /// [`ternary_gemv`](crate::engine::C2mEngine::ternary_gemv) over
    /// `x` with `n` output rows.
    TernaryGemv {
        /// Output rows.
        n: usize,
        /// Input stream.
        x: Box<[i64]>,
    },
    /// [`ternary_gemv_batch`](crate::engine::C2mEngine::ternary_gemv_batch)
    /// over the batch `xs` with `n` output rows each.
    TernaryGemvBatch {
        /// Output rows per request.
        n: usize,
        /// One input stream per batched request.
        xs: Box<[Box<[i64]>]>,
    },
    /// Row-sharded GEMM pricing
    /// ([`ternary_gemm`](crate::engine::C2mEngine::ternary_gemm) when
    /// `doubled`, [`binary_gemm`](crate::engine::C2mEngine::binary_gemm)
    /// otherwise) over an `m × n` output and a sampled column stream.
    Rows {
        /// Output rows.
        m: usize,
        /// Output columns.
        n: usize,
        /// Whether the sample stream is priced in doubled ternary form.
        doubled: bool,
        /// Sampled per-column input stream (length = inner dimension).
        sample: Box<[i64]>,
    },
    /// [`int_gemv`](crate::engine::C2mEngine::int_gemv) over `x` with
    /// `n` output rows and the given CSD plane decomposition.
    IntGemv {
        /// Output rows.
        n: usize,
        /// CSD planes as `(shift, negated)` pairs.
        planes: Box<[(u32, bool)]>,
        /// Input stream.
        x: Box<[i64]>,
    },
}

/// Borrowed view of a [`ReportKernel`], used for lookups so the hit
/// path compares and hashes in place without copying kernel inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKernelRef<'a> {
    /// See [`ReportKernel::TernaryGemv`].
    TernaryGemv {
        /// Output rows.
        n: usize,
        /// Input stream.
        x: &'a [i64],
    },
    /// See [`ReportKernel::TernaryGemvBatch`].
    TernaryGemvBatch {
        /// Output rows per request.
        n: usize,
        /// One input stream per batched request.
        xs: &'a [&'a [i64]],
    },
    /// See [`ReportKernel::Rows`].
    Rows {
        /// Output rows.
        m: usize,
        /// Output columns.
        n: usize,
        /// Whether the sample stream is priced in doubled ternary form.
        doubled: bool,
        /// Sampled per-column input stream.
        sample: &'a [i64],
    },
    /// See [`ReportKernel::IntGemv`].
    IntGemv {
        /// Output rows.
        n: usize,
        /// CSD planes as `(shift, negated)` pairs.
        planes: &'a [(u32, bool)],
        /// Input stream.
        x: &'a [i64],
    },
}

impl ReportKernelRef<'_> {
    fn to_owned_kernel(self) -> ReportKernel {
        match self {
            Self::TernaryGemv { n, x } => ReportKernel::TernaryGemv { n, x: x.into() },
            Self::TernaryGemvBatch { n, xs } => ReportKernel::TernaryGemvBatch {
                n,
                xs: xs.iter().map(|&row| Box::from(row)).collect(),
            },
            Self::Rows {
                m,
                n,
                doubled,
                sample,
            } => ReportKernel::Rows {
                m,
                n,
                doubled,
                sample: sample.into(),
            },
            Self::IntGemv { n, planes, x } => ReportKernel::IntGemv {
                n,
                planes: planes.into(),
                x: x.into(),
            },
        }
    }
}

impl ReportKernel {
    /// Runs `f` on a borrowed view of this kernel (the batch variant
    /// materialises its row-slice table on the stack of the call).
    fn with_ref<R>(&self, f: impl FnOnce(ReportKernelRef<'_>) -> R) -> R {
        match self {
            Self::TernaryGemv { n, x } => f(ReportKernelRef::TernaryGemv { n: *n, x }),
            Self::TernaryGemvBatch { n, xs } => {
                let rows: Vec<&[i64]> = xs.iter().map(AsRef::as_ref).collect();
                f(ReportKernelRef::TernaryGemvBatch { n: *n, xs: &rows })
            }
            Self::Rows {
                m,
                n,
                doubled,
                sample,
            } => f(ReportKernelRef::Rows {
                m: *m,
                n: *n,
                doubled: *doubled,
                sample,
            }),
            Self::IntGemv { n, planes, x } => f(ReportKernelRef::IntGemv { n: *n, planes, x }),
        }
    }
}

#[derive(Debug)]
struct ReportEntry {
    cfg_words: Box<[u64]>,
    kernel: ReportKernel,
    report: ExecutionReport,
}

/// Whole-launch memo table: `(engine-config words, kernel identity) →`
/// [`ExecutionReport`]. A hit clones the stored report and skips the
/// entire plan/price/fold pipeline.
///
/// `cfg_words` must be an *injective* encoding of everything the engine
/// reads when folding a launch — see
/// [`C2mEngine::report_key_words`](crate::engine::C2mEngine::report_key_words),
/// whose exhaustive destructuring makes an unkeyed configuration field
/// a compile error. As with the stream tier, entries are served only
/// after full equality of both the config words and the kernel content,
/// so a cached launch is bit-for-bit the launch the uncached engine
/// would have folded.
#[derive(Debug)]
pub struct ReportCache {
    max: usize,
    entries: Mutex<BTreeMap<u64, ReportEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReportCache {
    fn new(max: usize) -> Self {
        Self {
            max,
            entries: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether the tier is enabled (`max_reports > 0`). Disabled tiers
    /// never store, serve, or tally anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.max > 0
    }

    /// The stored report for `(cfg_words, kernel)`, if one exists.
    /// Counts a hit or a miss unless the tier is disabled. The caller
    /// re-stamps the clone's `cache` field — the stored snapshot
    /// belongs to the run that produced it.
    #[must_use]
    pub fn lookup(
        &self,
        cfg_words: &[u64],
        kernel: ReportKernelRef<'_>,
    ) -> Option<ExecutionReport> {
        if !self.enabled() {
            return None;
        }
        let index = report_index(cfg_words, kernel);
        {
            let map = self.entries.lock().expect("report cache poisoned");
            if let Some(entry) = map.get(&index) {
                // Exactness gate: serve only on full equality of the
                // config encoding and the kernel content.
                if entry.cfg_words.as_ref() == cfg_words
                    && entry.kernel.with_ref(|stored| stored == kernel)
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(entry.report.clone());
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `report` under `(cfg_words, kernel)`. No-op when the tier
    /// is disabled.
    pub fn insert(&self, cfg_words: &[u64], kernel: ReportKernelRef<'_>, report: &ExecutionReport) {
        if !self.enabled() {
            return;
        }
        let index = report_index(cfg_words, kernel);
        let mut map = self.entries.lock().expect("report cache poisoned");
        if map.len() >= self.max {
            map.clear();
        }
        map.insert(
            index,
            ReportEntry {
                cfg_words: cfg_words.into(),
                kernel: kernel.to_owned_kernel(),
                report: report.clone(),
            },
        );
    }
}

/// Thread-safe memo table for shard plans and stream sequence counts.
///
/// Cached results are bit-for-bit identical to uncached computation by
/// construction: plans are served only on full [`PlanKey`] equality,
/// stream counts only after comparing the stored stream's values (and
/// parameters) with the query's. Collisions in the index hash therefore
/// cost a recomputation, never an incorrect answer.
#[derive(Debug)]
pub struct PlanCache {
    cfg: CacheConfig,
    plans: Mutex<BTreeMap<PlanKey, Arc<ShardPlan>>>,
    streams: Mutex<BTreeMap<u64, StreamEntry>>,
    reports: ReportCache,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    stream_hits: AtomicU64,
    stream_misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl PlanCache {
    /// An empty cache with the given limits.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            plans: Mutex::new(BTreeMap::new()),
            streams: Mutex::new(BTreeMap::new()),
            reports: ReportCache::new(cfg.max_reports),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            stream_hits: AtomicU64::new(0),
            stream_misses: AtomicU64::new(0),
        }
    }

    /// The limits in force.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The whole-launch report tier.
    #[must_use]
    pub fn reports(&self) -> &ReportCache {
        &self.reports
    }

    /// Cumulative hit/miss tallies.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            stream_hits: self.stream_hits.load(Ordering::Relaxed),
            stream_misses: self.stream_misses.load(Ordering::Relaxed),
            report_hits: self.reports.hits.load(Ordering::Relaxed),
            report_misses: self.reports.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (tallies are kept — they count lookups, not
    /// contents).
    pub fn clear(&self) {
        self.plans.lock().expect("plan cache poisoned").clear();
        self.streams.lock().expect("stream cache poisoned").clear();
        self.reports
            .entries
            .lock()
            .expect("report cache poisoned")
            .clear();
    }

    /// The plan under `key`, built from the key alone on a miss.
    ///
    /// # Panics
    ///
    /// Panics if `key.sizing` holds a non-positive or non-finite
    /// weight.
    pub fn plan(&self, key: &PlanKey) -> Arc<ShardPlan> {
        if let Some(plan) = self.plans.lock().expect("plan cache poisoned").get(key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(key.build());
        let mut map = self.plans.lock().expect("plan cache poisoned");
        if map.len() >= self.cfg.max_plans {
            map.clear();
        }
        map.insert(key.clone(), Arc::clone(&plan));
        plan
    }

    /// The sequence count of `xs` under `params`, computed from exactly
    /// those ([`StreamParams::count`]) on a miss. `xs` is the
    /// *undoubled* values when `params.doubled` is true.
    pub(crate) fn sequences(&self, params: StreamParams, xs: &[i64]) -> u64 {
        let index = stream_index(params, xs);
        {
            let map = self.streams.lock().expect("stream cache poisoned");
            if let Some(entry) = map.get(&index) {
                // Exactness gate: serve only on full value equality.
                if entry.params == params && entry.xs.as_ref() == xs {
                    self.stream_hits.fetch_add(1, Ordering::Relaxed);
                    return entry.seqs;
                }
            }
        }
        self.stream_misses.fetch_add(1, Ordering::Relaxed);
        let seqs = params.count(xs);
        let mut map = self.streams.lock().expect("stream cache poisoned");
        if map.len() >= self.cfg.max_streams {
            map.clear();
        }
        map.insert(
            index,
            StreamEntry {
                params,
                xs: xs.into(),
                seqs,
            },
        );
        seqs
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a word stream, one little-endian u64 at a time. All map
/// *indices* in this module use this: collisions degrade to
/// recomputation (the entry fails the equality gate and is replaced),
/// so the hash needs to be fast and well-distributed, not
/// cryptographic.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// One xor-multiply step per whole word — 8× fewer multiplies than
    /// [`Self::eat`], slightly worse diffusion. The report index hashes
    /// entire kernel inputs on every launch, so it takes the fast step
    /// (a weaker index only ever costs a recomputation).
    fn eat_word(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
}

/// Index of a stream entry (see [`Fnv`]).
fn stream_index(params: StreamParams, xs: &[i64]) -> u64 {
    let mut h = Fnv::new();
    h.eat(params.radix as u64);
    h.eat(params.digits as u64);
    h.eat(u64::from(params.iarm) << 1 | u64::from(params.doubled));
    h.eat(xs.len() as u64);
    for &x in xs {
        h.eat(x as u64);
    }
    h.0
}

/// Index of a report entry (see [`Fnv`]): the config words, then a
/// kernel variant tag, then the length-prefixed kernel payload.
fn report_index(cfg_words: &[u64], kernel: ReportKernelRef<'_>) -> u64 {
    let mut h = Fnv::new();
    h.eat_word(cfg_words.len() as u64);
    for &w in cfg_words {
        h.eat_word(w);
    }
    match kernel {
        ReportKernelRef::TernaryGemv { n, x } => {
            h.eat_word(0);
            h.eat_word(n as u64);
            h.eat_word(x.len() as u64);
            for &v in x {
                h.eat_word(v as u64);
            }
        }
        ReportKernelRef::TernaryGemvBatch { n, xs } => {
            h.eat_word(1);
            h.eat_word(n as u64);
            h.eat_word(xs.len() as u64);
            for row in xs {
                h.eat_word(row.len() as u64);
                for &v in *row {
                    h.eat_word(v as u64);
                }
            }
        }
        ReportKernelRef::Rows {
            m,
            n,
            doubled,
            sample,
        } => {
            h.eat_word(2);
            h.eat_word(m as u64);
            h.eat_word(n as u64);
            h.eat_word(u64::from(doubled));
            h.eat_word(sample.len() as u64);
            for &v in sample {
                h.eat_word(v as u64);
            }
        }
        ReportKernelRef::IntGemv { n, planes, x } => {
            h.eat_word(3);
            h.eat_word(n as u64);
            h.eat_word(planes.len() as u64);
            for &(shift, neg) in planes {
                h.eat_word(u64::from(shift) << 1 | u64::from(neg));
            }
            h.eat_word(x.len() as u64);
            for &v in x {
                h.eat_word(v as u64);
            }
        }
    }
    h.0
}

/// The persistable contents of a [`PlanCache`]: the stream and report
/// entries. Plans are left out — rebuilding one from its [`PlanKey`]
/// costs microseconds, and a stored plan could not be validated against
/// the topology it claims. Tallies count lookups, not contents, and are
/// never persisted either. The bridge between the live maps and
/// [`CacheStore`](crate::store::CacheStore)'s on-disk word encoding.
#[derive(Debug, Default)]
pub(crate) struct CacheContents {
    pub(crate) streams: Vec<(StreamParams, Box<[i64]>, u64)>,
    pub(crate) reports: Vec<(Box<[u64]>, ReportKernel, ExecutionReport)>,
}

impl PlanCache {
    /// Snapshots every stream and report entry.
    pub(crate) fn export_contents(&self) -> CacheContents {
        CacheContents {
            streams: self
                .streams
                .lock()
                .expect("stream cache poisoned")
                .values()
                .map(|e| (e.params, e.xs.clone(), e.seqs))
                .collect(),
            reports: self
                .reports
                .entries
                .lock()
                .expect("report cache poisoned")
                .values()
                .map(|e| (e.cfg_words.clone(), e.kernel.clone(), e.report.clone()))
                .collect(),
        }
    }

    /// Installs snapshotted entries, respecting this cache's caps and
    /// leaving the tallies untouched (a restored entry is neither a hit
    /// nor a miss until something looks it up). Indices are recomputed
    /// from content, so a snapshot survives hash-function changes.
    pub(crate) fn import_contents(&self, contents: CacheContents) {
        {
            let mut map = self.streams.lock().expect("stream cache poisoned");
            for (params, xs, seqs) in contents.streams {
                if map.len() >= self.cfg.max_streams {
                    break;
                }
                let index = stream_index(params, &xs);
                map.insert(index, StreamEntry { params, xs, seqs });
            }
        }
        if self.reports.enabled() {
            let mut map = self.reports.entries.lock().expect("report cache poisoned");
            for (cfg_words, kernel, report) in contents.reports {
                if map.len() >= self.cfg.max_reports {
                    break;
                }
                let index = kernel.with_ref(|k| report_index(&cfg_words, k));
                map.insert(
                    index,
                    ReportEntry {
                        cfg_words,
                        kernel,
                        report,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2m_cim::Backend;

    fn key(total: usize) -> PlanKey {
        PlanKey {
            axis: ShardAxis::InnerDim,
            total,
            topology: Topology::single(16),
            policy: BackendPolicy::Uniform(Backend::Ambit),
            sizing: PlanKey::sizing_bits(&ShardSizing::Even),
        }
    }

    const PARAMS: StreamParams = StreamParams {
        radix: 4,
        digits: 32,
        iarm: true,
        doubled: false,
    };

    #[test]
    fn plan_lookups_count_hits_and_misses() {
        let c = PlanCache::default();
        let a = c.plan(&key(64));
        let b = c.plan(&key(64));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        let c128 = c.plan(&key(128));
        assert_eq!(c128.total, 128);
        let t = c.counters();
        assert_eq!((t.plan_hits, t.plan_misses), (1, 2));
    }

    #[test]
    fn plan_keys_never_alias_distinct_topologies() {
        // Each variant widens one dimension of `base` by exactly 2^16,
        // which a 16-bit-per-dimension packed key would wrap onto
        // `base`. Keyed on the topology value, every one must miss.
        let c = PlanCache::default();
        let base = Topology::single(16);
        let key_on = |topology| PlanKey { topology, ..key(8) };
        let base_plan = c.plan(&key_on(base));
        let widen: [fn(&mut Topology); 4] = [
            |t| t.channels += 1 << 16,
            |t| t.ranks += 1 << 16,
            |t| t.banks += 1 << 16,
            |t| t.subarrays += 1 << 16,
        ];
        for (i, widen) in widen.iter().enumerate() {
            let mut t = base;
            widen(&mut t);
            let plan = c.plan(&key_on(t));
            assert_eq!(c.counters().plan_misses, 2 + i as u64, "{t:?} aliased");
            assert_eq!(*plan, key_on(t).build());
            if t.banks == base.banks {
                assert_ne!(*plan, *base_plan, "{t:?} must split differently");
            }
        }
    }

    #[test]
    fn plan_key_build_matches_the_planner() {
        let topology = Topology {
            channels: 4,
            ranks: 2,
            banks: 16,
            subarrays: 2,
        };
        let policy = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
        for sizing in [ShardSizing::Even, ShardSizing::Weighted(vec![1.0, 0.4])] {
            let planner =
                ShardPlanner::with_policy(topology, policy.clone()).with_sizing(sizing.clone());
            for (axis, expect) in [
                (ShardAxis::OutputRows, planner.plan_rows(37)),
                (ShardAxis::InnerDim, planner.plan_inner(37)),
                (ShardAxis::CsdPlanes, planner.plan_planes(37)),
            ] {
                let key = PlanKey {
                    axis,
                    total: 37,
                    topology,
                    policy: policy.clone(),
                    sizing: PlanKey::sizing_bits(&sizing),
                };
                assert_eq!(key.build(), expect, "{axis:?} {sizing:?}");
            }
        }
    }

    #[test]
    fn stream_lookups_serve_only_exact_content() {
        let c = PlanCache::default();
        let xs = vec![1i64, -2, 3, 0, 5];
        let a = c.sequences(PARAMS, &xs);
        assert_eq!(a, PARAMS.count(&xs));
        assert_eq!(c.sequences(PARAMS, &xs), a);
        // Different values, params, or doubling flag must all miss.
        let mut ys = xs.clone();
        ys[4] = 6;
        let no_iarm = StreamParams {
            iarm: false,
            ..PARAMS
        };
        let doubled = StreamParams {
            doubled: true,
            ..PARAMS
        };
        for (params, values) in [(PARAMS, &ys), (no_iarm, &xs), (doubled, &xs)] {
            assert_eq!(c.sequences(params, values), params.count(values));
        }
        let t = c.counters();
        assert_eq!((t.stream_hits, t.stream_misses), (1, 4));
    }

    #[test]
    fn epoch_eviction_bounds_entries_without_breaking_results() {
        let c = PlanCache::new(CacheConfig {
            max_plans: 2,
            max_streams: 2,
            max_reports: 2,
        });
        for total in 1..=10usize {
            let p = c.plan(&key(total));
            assert_eq!(p.total, total, "evicted caches still build correctly");
            let xs = [total as i64];
            assert_eq!(c.sequences(PARAMS, &xs), PARAMS.count(&xs));
        }
        assert!(c.plans.lock().unwrap().len() <= 2);
        assert!(c.streams.lock().unwrap().len() <= 2);
    }

    #[test]
    fn clear_keeps_tallies() {
        let c = PlanCache::default();
        let _ = c.plan(&key(1));
        c.clear();
        let _ = c.plan(&key(1));
        let t = c.counters();
        assert_eq!(t.plan_misses, 2, "cleared entry is a future miss");
    }

    fn fake_report(elapsed_ns: f64) -> ExecutionReport {
        ExecutionReport {
            elapsed_ns,
            stats: c2m_dram::CommandStats::default(),
            energy_nj: 2.0 * elapsed_ns,
            useful_ops: 7,
            area_mm2: 1.0,
            energy: c2m_dram::EnergyBreakdown::default(),
            cache: CacheCounters::default(),
        }
    }

    #[test]
    fn report_lookups_serve_only_exact_config_and_kernel() {
        let c = PlanCache::default();
        let words = [1u64, 2, 3];
        let xs = [1i64, -2, 3];
        let k = ReportKernelRef::TernaryGemv { n: 16, x: &xs };
        assert!(c.reports().lookup(&words, k).is_none());
        c.reports().insert(&words, k, &fake_report(10.0));
        let hit = c.reports().lookup(&words, k).expect("exact repeat hits");
        assert_eq!(hit.elapsed_ns.to_bits(), 10.0f64.to_bits());
        // Different config words, kernel shape, or content must miss.
        assert!(c.reports().lookup(&[1, 2, 4], k).is_none());
        assert!(c
            .reports()
            .lookup(&words, ReportKernelRef::TernaryGemv { n: 17, x: &xs })
            .is_none());
        assert!(c
            .reports()
            .lookup(
                &words,
                ReportKernelRef::Rows {
                    m: 16,
                    n: 16,
                    doubled: true,
                    sample: &xs
                }
            )
            .is_none());
        let t = c.counters();
        assert_eq!((t.report_hits, t.report_misses), (1, 4));
    }

    #[test]
    fn disabled_report_tier_never_stores_or_tallies() {
        let c = PlanCache::new(CacheConfig {
            max_reports: 0,
            ..CacheConfig::default()
        });
        let xs = [4i64, 5];
        let k = ReportKernelRef::TernaryGemv { n: 8, x: &xs };
        assert!(!c.reports().enabled());
        c.reports().insert(&[9], k, &fake_report(1.0));
        assert!(c.reports().lookup(&[9], k).is_none());
        let t = c.counters();
        assert_eq!((t.report_hits, t.report_misses), (0, 0));
    }

    #[test]
    fn contents_round_trip_through_export_import() {
        let c = PlanCache::default();
        let xs = vec![1i64, -2, 3];
        let seqs = c.sequences(PARAMS, &xs);
        let k = ReportKernelRef::TernaryGemv { n: 16, x: &xs };
        c.reports().insert(&[5, 6], k, &fake_report(3.5));

        let fresh = PlanCache::default();
        fresh.import_contents(c.export_contents());
        // Imports never count as lookups…
        assert_eq!(fresh.counters(), CacheCounters::default());
        // …but both persisted tiers serve the restored entries.
        assert_eq!(fresh.sequences(PARAMS, &xs), seqs);
        let hit = fresh.reports().lookup(&[5, 6], k).expect("restored report");
        assert_eq!(hit.elapsed_ns.to_bits(), 3.5f64.to_bits());
        let t = fresh.counters();
        assert_eq!((t.stream_hits, t.stream_misses), (1, 0));
    }

    #[test]
    fn sizing_bits_distinguish_weight_vectors() {
        let even = PlanKey::sizing_bits(&ShardSizing::Even);
        let w1 = PlanKey::sizing_bits(&ShardSizing::Weighted(vec![1.0, 2.0]));
        let w2 = PlanKey::sizing_bits(&ShardSizing::Weighted(vec![1.0, 2.5]));
        assert!(even.is_empty());
        assert_ne!(w1, w2);
    }
}
