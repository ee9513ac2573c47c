//! Exact memoisation of shard plans, stream pricing and whole launches.
//!
//! The engine gets the paper's command counts from the host-side IARM
//! plan of every input (§4.5.2, §7.2.3), and steady-state serving and
//! configuration sweeps repeat that work with the same inputs again and
//! again. Every repeat is *exact* to memoise, because each result is a
//! pure function of content, so every cache
//! tier is one [`Memo`]: a map whose key is that content itself. A
//! lookup serves a value only under a key equal to the one it was
//! stored with, so a cached path can never return anything the
//! uncached path would not have computed.
//!
//! * **Shard plans** are a pure function of `(axis, extent, topology,
//!   backend policy, sizing)` — the [`PlanKey`]. The cache builds a
//!   missing [`ShardPlan`] from the key alone and hands it out behind
//!   an `Arc` on repeats.
//! * **Stream counts** (the IARM sequence count of
//!   [`crate::engine::C2mEngine::sequences_for_stream`]) are keyed on
//!   the words `[radix, digits, doubled]` followed by the stream values,
//!   and a miss is computed from exactly those.
//! * **Launch reports** are keyed on the kernel's words — a tag, its
//!   shape, then its length-prefixed inputs — followed by
//!   [`C2mEngine::report_key_words`](crate::engine::C2mEngine::report_key_words),
//!   which destructures every configuration struct without `..`. A hit
//!   clones the stored [`ExecutionReport`] and skips the whole
//!   plan/price/fold pipeline.
//!
//! Which tiers serve whom: the kernel entry points
//! ([`C2mEngine::ternary_gemv`](crate::engine::C2mEngine::ternary_gemv)
//! and its siblings, which figure sweeps, examples and API callers use)
//! read all three tiers. The serving runtime (in `c2m_serve`) prices
//! through the engine's folds
//! ([`C2mEngine::fold_ternary_gemv`](crate::engine::C2mEngine::fold_ternary_gemv)
//! and its batched sibling), which read the plan and stream tiers only.
//! Its own priced-batch tier is a fourth [`Memo`], above the engine,
//! and it returns repeated batches before a report key would be built.
//!
//! Tags and length prefixes make every key injective, so two different
//! inputs can never share an entry. Neither the plan nor the
//! stream tier takes a caller-supplied computation: whatever a plan or
//! a count depends on is part of its key, so an unkeyed input cannot
//! exist.
//!
//! A [`PlanCache`] is interior-mutable and thread-safe, so one handle
//! can be shared by every engine of a sweep (see
//! [`EngineBuilder::shared_cache`](crate::engine::EngineBuilder::shared_cache))
//! and by the parallel per-shard pricing loops. Hit/miss tallies are
//! surfaced through [`CacheCounters`] on every
//! [`ExecutionReport`].

use crate::shard::{BackendPolicy, ShardAxis, ShardPlan, ShardPlanner, ShardSizing};
use c2m_dram::{CacheCounters, ExecutionReport, Topology};
use c2m_jc::iarm;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A thread-safe memo table whose key is the memoised content itself.
///
/// [`Self::get`] serves a value only under a key equal to the one it
/// was stored with, and counts one hit or one miss. The caller computes
/// a missing value outside the lock and stores it with [`Self::insert`].
/// The cap bounds the entry count by epoch eviction: inserting into a
/// full map first clears it — trivially correct (a cleared entry is
/// just a future miss) and O(1) amortised, which suits steady-state
/// traffic (a working set either fits or churns). A cap of 0 disables
/// the memo: it stores nothing and counts nothing.
#[derive(Debug)]
pub struct Memo<K, V> {
    cap: usize,
    map: Mutex<BTreeMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Ord, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `cap` entries.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            map: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether the memo stores anything (its cap is above 0).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// The value stored under `key`, counting one hit or one miss.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        if !self.enabled() {
            return None;
        }
        let value = self.lock().get(key).cloned();
        let tally = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Stores `value` under `key`, clearing the map first when it is
    /// full.
    pub fn insert(&self, key: K, value: V) {
        if !self.enabled() {
            return;
        }
        let mut map = self.lock();
        if map.len() >= self.cap {
            map.clear();
        }
        map.insert(key, value);
    }

    /// The value under `key`; on a miss, `compute`s it outside the lock
    /// and stores it.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self.get(&key) {
            return value;
        }
        let value = compute();
        self.insert(key, value.clone());
        value
    }

    /// Lookups served so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Runs `f` on the entries, in key order, under the lock.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&BTreeMap<K, V>) -> R) -> R {
        f(&self.lock())
    }

    /// Installs `entries` until the map is full, counting nothing (a
    /// restored entry is neither a hit nor a miss until something looks
    /// it up).
    pub(crate) fn restore(&self, entries: impl IntoIterator<Item = (K, V)>) {
        let mut map = self.lock();
        for (key, value) in entries {
            if map.len() >= self.cap {
                break;
            }
            map.insert(key, value);
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<K, V>> {
        self.map.lock().expect("memo poisoned")
    }
}

/// Sizing limits for a [`PlanCache`]: the cap of each tier's [`Memo`]
/// (0 disables that tier).
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
/// besides the values: the Johnson radix and digit count, and whether
/// the stream is the doubled ternary form of the stored values (`x` then
/// `−x`), so ternary callers can key on the undoubled input and skip
/// materialising the doubled copy on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamParams {
    pub(crate) radix: usize,
    pub(crate) digits: usize,
    pub(crate) doubled: bool,
}

impl StreamParams {
    /// The stream-tier key of `xs`: `[radix, digits, doubled]`, then the
    /// values.
    fn key(self, xs: &[i64]) -> Box<[u64]> {
        let mut key = Vec::with_capacity(3 + xs.len());
        key.extend([
            self.radix as u64,
            self.digits as u64,
            u64::from(self.doubled),
        ]);
        key.extend(xs.iter().map(|&x| x as u64));
        key.into_boxed_slice()
    }

    /// Broadcast command *sequences* needed to accumulate the signed
    /// stream `xs` (zeros skipped, §7.2.3), or its doubled ternary form
    /// ([`doubled_ternary`](crate::engine::doubled_ternary)) when
    /// `self.doubled`, without building that copy: the length of the
    /// plan the host-side IARM planner hands a counter bank for the
    /// reordered stream (adds, subtractions, flush), counted one digit
    /// column at a time by [`iarm::count_actions`].
    pub(crate) fn count(self, xs: &[i64]) -> u64 {
        let positive = magnitudes(xs, |x| x > 0);
        let negative = magnitudes(xs, |x| x < 0);
        // Addition pass, then subtraction pass (host reordering), from
        // zeroed counters. The doubled stream `x ++ −x` adds the positive
        // values and then the negated negative ones, and subtracts the
        // other way round.
        let (adds, subs): ([&[u64]; 2], [&[u64]; 2]) = if self.doubled {
            ([&positive, &negative], [&negative, &positive])
        } else {
            ([&positive, &[]], [&negative, &[]])
        };
        iarm::count_actions(self.radix, self.digits, true, &adds, &subs)
    }
}

/// The magnitudes of the values of `xs` that `keep` selects, in stream
/// order. Every value is written and only a kept one advances the end,
/// so the pass has no branch on the (random) signs of real inputs.
fn magnitudes(xs: &[i64], keep: impl Fn(i64) -> bool) -> Vec<u64> {
    let mut out = vec![0; xs.len()];
    let mut len = 0;
    for &x in xs {
        out[len] = x.unsigned_abs();
        len += usize::from(keep(x));
    }
    out.truncate(len);
    out
}

/// The plan, stream and report tiers behind an engine: one [`Memo`]
/// each.
#[derive(Debug)]
pub struct PlanCache {
    pub(crate) plans: Memo<PlanKey, Arc<ShardPlan>>,
    pub(crate) streams: Memo<Box<[u64]>, u64>,
    pub(crate) reports: Memo<Box<[u64]>, ExecutionReport>,
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
        let CacheConfig {
            max_plans,
            max_streams,
            max_reports,
        } = cfg;
        Self {
            plans: Memo::new(max_plans),
            streams: Memo::new(max_streams),
            reports: Memo::new(max_reports),
        }
    }

    /// Cumulative hit/miss tallies.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            stream_hits: self.streams.hits(),
            stream_misses: self.streams.misses(),
            report_hits: self.reports.hits(),
            report_misses: self.reports.misses(),
        }
    }

    /// The plan under `key`, built from the key alone on a miss, and
    /// whether the lookup hit.
    ///
    /// # Panics
    ///
    /// Panics if `key.sizing` holds a non-positive or non-finite
    /// weight.
    pub fn plan(&self, key: &PlanKey) -> (Arc<ShardPlan>, bool) {
        if let Some(plan) = self.plans.get(key) {
            return (plan, true);
        }
        let plan = Arc::new(key.build());
        self.plans.insert(key.clone(), Arc::clone(&plan));
        (plan, false)
    }

    /// The sequence count of `xs` under `params`, computed from exactly
    /// those ([`StreamParams::count`]) on a miss. `xs` is the
    /// *undoubled* values when `params.doubled` is true.
    pub(crate) fn sequences(&self, params: StreamParams, xs: &[i64]) -> u64 {
        self.streams
            .get_or_insert_with(params.key(xs), || params.count(xs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::doubled_ternary;
    use c2m_cim::Backend;
    use c2m_jc::iarm::IarmPlanner;
    use proptest::prelude::*;

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
        doubled: false,
    };

    #[test]
    fn memo_serves_exact_keys_and_clears_at_the_cap() {
        let memo: Memo<Box<[u64]>, u64> = Memo::new(4);
        memo.insert(Box::new([1, 2]), 12);
        assert_eq!(memo.get([1u64, 2].as_slice()), Some(12), "exact key hits");
        for other in [&[1u64, 3][..], &[1], &[1, 2, 0], &[]] {
            assert_eq!(memo.get(other), None, "{other:?} must miss");
        }
        assert_eq!((memo.hits(), memo.misses()), (1, 4));
        // The fifth distinct insert finds the map full and clears it.
        for k in 0..4u64 {
            memo.insert(Box::new([k]), k);
        }
        assert_eq!(memo.read(BTreeMap::len), 1);
        assert_eq!(memo.get([3u64].as_slice()), Some(3));
        assert_eq!(memo.get([1u64, 2].as_slice()), None, "cleared entries miss");
        // A long run of misses never grows the map past its cap.
        for k in 10..30u64 {
            assert_eq!(memo.get_or_insert_with(Box::new([k]), || k), k);
            assert!(memo.read(BTreeMap::len) <= 4);
        }
        assert_eq!((memo.hits(), memo.misses()), (2, 25));

        let off: Memo<Box<[u64]>, u64> = Memo::new(0);
        assert!(!off.enabled());
        off.insert(Box::new([1]), 1);
        off.restore([(Box::from([2u64]), 2)]);
        assert_eq!(off.get([1u64].as_slice()), None);
        assert_eq!(off.get_or_insert_with(Box::new([2]), || 5), 5);
        assert_eq!(off.read(BTreeMap::len), 0);
        assert_eq!((off.hits(), off.misses()), (0, 0), "cap 0 counts nothing");
    }

    #[test]
    fn plan_lookups_count_hits_and_misses() {
        let c = PlanCache::default();
        let (a, a_hit) = c.plan(&key(64));
        let (b, b_hit) = c.plan(&key(64));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        assert_eq!((a_hit, b_hit), (false, true));
        let (c128, _) = c.plan(&key(128));
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
        let (base_plan, _) = c.plan(&key_on(base));
        let widen: [fn(&mut Topology); 4] = [
            |t| t.channels += 1 << 16,
            |t| t.ranks += 1 << 16,
            |t| t.banks += 1 << 16,
            |t| t.subarrays += 1 << 16,
        ];
        for (i, widen) in widen.iter().enumerate() {
            let mut t = base;
            widen(&mut t);
            let (plan, _) = c.plan(&key_on(t));
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
        // Different values, radix, digits or doubling flag must all miss.
        let mut ys = xs.clone();
        ys[4] = 6;
        let radix = StreamParams { radix: 6, ..PARAMS };
        let digits = StreamParams {
            digits: 31,
            ..PARAMS
        };
        let doubled = StreamParams {
            doubled: true,
            ..PARAMS
        };
        for (params, values) in [(PARAMS, &ys), (radix, &xs), (digits, &xs), (doubled, &xs)] {
            assert_eq!(c.sequences(params, values), params.count(values));
        }
        let t = c.counters();
        assert_eq!((t.stream_hits, t.stream_misses), (1, 5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// A count is the length of the plan the `Vec` planner builds
        /// for the stream (adds, then subtractions, then the flush), and
        /// counting the doubled form in place agrees with counting the
        /// materialised `x ++ −x` stream.
        #[test]
        fn counts_match_the_plan_and_the_materialised_doubling(
            half in 1usize..=8,
            xs in prop::collection::vec(-300i64..300, 0..40),
        ) {
            let single = StreamParams {
                radix: 2 * half,
                ..PARAMS
            };
            let mut planner = IarmPlanner::new(single.radix, single.digits);
            planner.assume_zero();
            let mut len = 0;
            for &x in xs.iter().filter(|&&x| x > 0) {
                len += planner.plan_add(x as u128).len();
            }
            for &x in xs.iter().filter(|&&x| x < 0) {
                len += planner.plan_sub(u128::from(x.unsigned_abs())).len();
            }
            len += planner.flush().len();
            prop_assert_eq!(single.count(&xs), len as u64);
            let doubled = StreamParams {
                doubled: true,
                ..single
            };
            prop_assert_eq!(doubled.count(&xs), single.count(&doubled_ternary(&xs)));
        }
    }

    #[test]
    fn epoch_eviction_bounds_entries_without_breaking_results() {
        let c = PlanCache::new(CacheConfig {
            max_plans: 2,
            max_streams: 2,
            max_reports: 2,
        });
        for total in 1..=10usize {
            let (p, _) = c.plan(&key(total));
            assert_eq!(p.total, total, "evicted caches still build correctly");
            let xs = [total as i64];
            assert_eq!(c.sequences(PARAMS, &xs), PARAMS.count(&xs));
        }
        assert!(c.plans.read(BTreeMap::len) <= 2);
        assert!(c.streams.read(BTreeMap::len) <= 2);
    }

    fn fake_report(elapsed_ns: f64) -> ExecutionReport {
        ExecutionReport {
            elapsed_ns,
            stats: c2m_dram::CommandStats::default(),
            energy_nj: 2.0 * elapsed_ns,
            useful_ops: 7,
            area_mm2: 1.0,
            cache: CacheCounters::default(),
        }
    }

    /// A report key as the engine lays it out: kernel words (here a
    /// ternary GEMV's tag, `n`, and length-prefixed input), then config
    /// words.
    fn gemv_key(n: u64, xs: &[i64], cfg: &[u64]) -> Box<[u64]> {
        let mut key = vec![0, n, xs.len() as u64];
        key.extend(xs.iter().map(|&x| x as u64));
        key.extend(cfg);
        key.into_boxed_slice()
    }

    #[test]
    fn report_lookups_serve_only_exact_config_and_kernel() {
        let c = PlanCache::default();
        let words = [1u64, 2, 3];
        let xs = [1i64, -2, 3];
        let k = gemv_key(16, &xs, &words);
        assert!(c.reports.get(&k).is_none());
        c.reports.insert(k.clone(), fake_report(10.0));
        let hit = c.reports.get(&k).expect("exact repeat hits");
        assert_eq!(hit.elapsed_ns.to_bits(), 10.0f64.to_bits());
        // Different config words, kernel shape, or kernel must miss.
        assert!(c.reports.get(&gemv_key(16, &xs, &[1, 2, 4])).is_none());
        assert!(c.reports.get(&gemv_key(17, &xs, &words)).is_none());
        let mut rows = vec![2, 16, 16, 1, xs.len() as u64];
        rows.extend(xs.iter().map(|&x| x as u64));
        rows.extend(words);
        assert!(c.reports.get(rows.as_slice()).is_none());
        let t = c.counters();
        assert_eq!((t.report_hits, t.report_misses), (1, 4));
    }

    #[test]
    fn disabled_report_tier_never_stores_or_tallies() {
        let c = PlanCache::new(CacheConfig {
            max_reports: 0,
            ..CacheConfig::default()
        });
        let k = gemv_key(8, &[4, 5], &[9]);
        assert!(!c.reports.enabled());
        c.reports.insert(k.clone(), fake_report(1.0));
        assert!(c.reports.get(&k).is_none());
        let t = c.counters();
        assert_eq!((t.report_hits, t.report_misses), (0, 0));
    }

    #[test]
    fn contents_round_trip_through_export_import() {
        let c = PlanCache::default();
        let xs = vec![1i64, -2, 3];
        let seqs = c.sequences(PARAMS, &xs);
        let k = gemv_key(16, &xs, &[5, 6]);
        c.reports.insert(k.clone(), fake_report(3.5));

        let fresh = PlanCache::default();
        fresh.streams.restore(c.streams.read(BTreeMap::clone));
        fresh.reports.restore(c.reports.read(BTreeMap::clone));
        // Restores never count as lookups…
        assert_eq!(fresh.counters(), CacheCounters::default());
        // …but both persisted tiers serve the restored entries.
        assert_eq!(fresh.sequences(PARAMS, &xs), seqs);
        let hit = fresh.reports.get(&k).expect("restored report");
        assert_eq!(hit.elapsed_ns.to_bits(), 3.5f64.to_bits());
        let t = fresh.counters();
        assert_eq!((t.stream_hits, t.stream_misses), (1, 0));
        // A restore stops at the cap instead of clearing.
        let small = PlanCache::new(CacheConfig {
            max_streams: 1,
            ..CacheConfig::default()
        });
        small
            .streams
            .restore((0..3u64).map(|v| (Box::from([v]), v)));
        assert_eq!(small.streams.read(BTreeMap::len), 1);
        assert_eq!(small.streams.get([0u64].as_slice()), Some(0));
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
