//! Property tests for the whole-report cache tier and its persistent
//! store: a stored report is an index entry, not an approximation, so a
//! report-cache hit must reproduce the uncached launch bit-for-bit —
//! across topologies, kernels and batch sizes — and a cache restored
//! from a store file must serve the same bytes a warm in-process cache
//! would. Counter snapshots (`report.cache`) are the one deliberately
//! observational field and are normalised out before comparison.

use c2m_cim::Backend;
use c2m_core::cache::{CacheConfig, PlanCache};
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_core::shard::BackendPolicy;
use c2m_core::store::CacheStore;
use c2m_dram::{CacheCounters, ExecutionReport};
use proptest::prelude::*;
use std::sync::Arc;

fn stream(k: usize, seed: u64) -> Vec<i64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(-128i64..128)).collect()
}

fn build(channels: usize, subarrays: usize, cache: Option<Arc<PlanCache>>) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    cfg.subarrays = subarrays;
    let builder = C2mEngine::builder(cfg);
    match cache {
        Some(c) => builder.shared_cache(c).build(),
        None => builder.no_cache().build(),
    }
}

/// The full numeric surface of a report as JSON, with the
/// observational cache-counter snapshot zeroed — exactly the bytes a
/// figure binary would serialise.
fn report_json(report: &ExecutionReport) -> String {
    let mut normalised = report.clone();
    normalised.cache = CacheCounters::default();
    serde_json::to_string(&normalised).expect("report serialises")
}

/// The report-tier tallies of `e`.
fn report_tallies(e: &C2mEngine) -> (u64, u64) {
    let c = e.cache_stats();
    (c.report_hits, c.report_misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each fold serialises byte-identically to its report-tier entry
    /// point, on an uncached engine and on a cached one whose report
    /// tier already holds the launch, and never moves the report
    /// tallies: over 1–4 channels, 1–2 ranks, 1–8 subarrays, uniform
    /// and per-channel backends, even and balanced sizing, batches of
    /// 1–16 random int8 vectors and three output widths.
    #[test]
    fn folds_match_their_report_tier_entry_points(
        (channels, ranks, subarrays) in (1usize..=4, 1usize..=2, 1usize..=8),
        (mixed, balanced) in (0u8..2, 0u8..2),
        batch in 1usize..=16,
        n in proptest::sample::select(vec![64usize, 256, 1024]),
        k in 1usize..600,
        seed in 0u64..1_000_000,
    ) {
        let mut cfg = EngineConfig::c2m(16);
        cfg.dram.channels = channels;
        cfg.dram.ranks = ranks;
        cfg.subarrays = subarrays;
        let builder = |cache: bool| {
            let mut b = C2mEngine::builder(cfg.clone());
            if mixed == 1 {
                b = b.backends(BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]));
            }
            if balanced == 1 {
                b = b.balanced_sizing();
            }
            if cache { b.build() } else { b.no_cache().build() }
        };
        let xs: Vec<Vec<i64>> = (0..batch).map(|i| stream(k, seed ^ ((i as u64) << 20))).collect();
        let uncached = builder(false);
        let lone = report_json(&uncached.ternary_gemv(&xs[0], n));
        let batched = report_json(&uncached.ternary_gemv_batch(&xs, n));
        prop_assert_eq!(&report_json(&uncached.fold_ternary_gemv(&xs[0], n)), &lone);
        prop_assert_eq!(&report_json(&uncached.fold_ternary_gemv_batch(&xs, n)), &batched);
        prop_assert_eq!(uncached.cache_stats(), CacheCounters::default());

        let warm = builder(true);
        prop_assert_eq!(&report_json(&warm.ternary_gemv(&xs[0], n)), &lone);
        prop_assert_eq!(&report_json(&warm.ternary_gemv_batch(&xs, n)), &batched);
        let stored = report_tallies(&warm);
        prop_assert_eq!(stored, (0, 2));
        prop_assert_eq!(&report_json(&warm.fold_ternary_gemv(&xs[0], n)), &lone);
        prop_assert_eq!(&report_json(&warm.fold_ternary_gemv_batch(&xs, n)), &batched);
        prop_assert_eq!(report_tallies(&warm), stored, "a fold touched the report tier");
    }

    /// Cached ≡ uncached, bit-for-bit, for every kernel entry point: the
    /// first cached launch folds and stores, the second is a pure
    /// report-tier clone, and both must serialise byte-identically to
    /// the uncached engine's launch.
    #[test]
    fn report_hits_reproduce_uncached_launches_bit_for_bit(
        k in 64usize..512,
        n in 128usize..1024,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        for (channels, subarrays) in [(1usize, 1usize), (2, 1), (4, 8)] {
            let cached = build(channels, subarrays, Some(Arc::new(PlanCache::default())));
            let uncached = build(channels, subarrays, None);
            let xs = stream(k, seed);
            let mates: Vec<Vec<i64>> =
                (0..batch).map(|i| stream(k, seed ^ (i as u64 + 1))).collect();
            let planes = [(0u32, false), (3, true), (6, false)];

            let launches: [&dyn Fn(&C2mEngine) -> ExecutionReport; 5] = [
                &|e| e.ternary_gemv(&xs, n),
                &|e| e.ternary_gemv_batch(&mates, n),
                &|e| e.ternary_gemm(8, n, &xs),
                &|e| e.binary_gemm(8, n, &xs),
                &|e| e.int_gemv(&xs, n, &planes),
            ];
            for (i, launch) in launches.iter().enumerate() {
                let reference = report_json(&launch(&uncached));
                let miss = report_json(&launch(&cached));
                let hit = report_json(&launch(&cached));
                prop_assert_eq!(&miss, &reference, "kernel {} cold-path divergence", i);
                prop_assert_eq!(&hit, &reference, "kernel {} report-hit divergence", i);
            }
            // Every second launch above must actually have been a hit.
            prop_assert_eq!(cached.cache_stats().report_hits, launches.len() as u64);
        }
    }

    /// Persistence round trip: a warm cache saved to disk and loaded
    /// into a fresh cache (a simulated new process) serves reports that
    /// serialise byte-identically to the original run's.
    #[test]
    fn restored_store_serves_byte_identical_reports(
        k in 128usize..512,
        seed in 0u64..1000,
    ) {
        for channels in [1usize, 4] {
            let path = std::env::temp_dir().join(format!(
                "c2m_report_props_{}_{channels}_{seed:x}.json",
                std::process::id()
            ));
            let xs = stream(k, seed);
            let warm = Arc::new(PlanCache::default());
            let first = build(channels, 1, Some(Arc::clone(&warm))).ternary_gemv(&xs, 256);
            CacheStore::save(&path, &warm).expect("save");

            let restored = Arc::new(PlanCache::new(CacheConfig::default()));
            prop_assert!(CacheStore::load_into(&path, &restored));
            std::fs::remove_file(&path).ok();
            let engine = build(channels, 1, Some(Arc::clone(&restored)));
            let replay = engine.ternary_gemv(&xs, 256);
            prop_assert_eq!(report_json(&replay), report_json(&first));
            prop_assert_eq!(engine.cache_stats().report_hits, 1);
            prop_assert_eq!(engine.cache_stats().report_misses, 0);
        }
    }
}

/// A corrupted or version-bumped store file must fall back to a cold
/// start without error — and the cold engine still produces the exact
/// same bytes, just via a fresh fold.
#[test]
fn corrupt_or_stale_store_degrades_to_cold_with_identical_output() {
    let path = std::env::temp_dir().join(format!(
        "c2m_report_props_stale_{}.json",
        std::process::id()
    ));
    let xs = stream(512, 0xFEED);
    let warm = Arc::new(PlanCache::default());
    let first = build(2, 1, Some(Arc::clone(&warm))).ternary_gemv(&xs, 512);
    CacheStore::save(&path, &warm).expect("save");
    let good = std::fs::read_to_string(&path).expect("store written");

    let version = CacheStore::FORMAT_VERSION;
    let mutations = [
        good.replace(
            &format!("\"format_version\":{version}"),
            &format!("\"format_version\":{}", version + 1),
        ),
        good.replace("\"magic\":\"c2m-cache\"", "\"magic\":\"c2m-other\""),
        good[..good.len() / 2].to_string(),
        "{]".to_string(),
    ];
    for (i, bad) in mutations.iter().enumerate() {
        assert_ne!(bad, &good, "mutation {i} must change the file");
        std::fs::write(&path, bad).expect("rewrite store");
        let cache = PlanCache::default();
        assert!(
            !CacheStore::load_into(&path, &cache),
            "mutation {i} must be rejected as cold"
        );
        let engine = build(2, 1, Some(Arc::new(cache)));
        let replay = engine.ternary_gemv(&xs, 512);
        assert_eq!(
            report_json(&replay),
            report_json(&first),
            "mutation {i}: cold fold must still match"
        );
        assert_eq!(engine.cache_stats().report_hits, 0);
        assert_eq!(engine.cache_stats().report_misses, 1);
    }
    std::fs::remove_file(&path).ok();
}

/// Launch pairs over the same inputs that differ only in batch split
/// points, kernel kind or the GEMM doubling flag. Through one shared
/// cache every launch must be a report miss, and every report must
/// serialise byte-equal to an uncached launch. (The engine's unit tests
/// pin the key layout itself: tags, shapes and length prefixes.)
#[test]
fn kernel_keys_never_alias() {
    let n = 256;
    let x = stream(64, 0xA11A5);
    let y = stream(64, 0xA11A6);
    let cached = build(2, 1, Some(Arc::new(PlanCache::default())));
    let uncached = build(2, 1, None);
    let launches: [&dyn Fn(&C2mEngine) -> ExecutionReport; 8] = [
        &|e| e.ternary_gemv_batch(&[vec![1, 2], vec![3]], n),
        &|e| e.ternary_gemv_batch(&[vec![1], vec![2, 3]], n),
        &|e| e.ternary_gemv(&x, n),
        &|e| e.ternary_gemv_batch(std::slice::from_ref(&x), n),
        &|e| e.ternary_gemm(8, n, &x),
        &|e| e.binary_gemm(8, n, &x),
        &|e| e.int_gemv(&y, n, &[(0, false)]),
        &|e| e.ternary_gemv(&y, n),
    ];
    for (i, launch) in launches.iter().enumerate() {
        let before = cached.cache_stats();
        let report = launch(&cached);
        let d = cached.cache_stats().delta_since(&before);
        assert_eq!(
            (d.report_hits, d.report_misses),
            (0, 1),
            "launch {i} must miss"
        );
        assert_eq!(
            report_json(&report),
            report_json(&launch(&uncached)),
            "launch {i} differs from its uncached twin"
        );
    }
}
