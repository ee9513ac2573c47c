//! Property tests for the plan/pricing cache: caching is an index, not
//! an approximation, so a cached engine must price every kernel
//! bit-for-bit identically to an uncached one — across topologies,
//! backend policies, kernels and batch sizes — and the parallel shard
//! pricing must be deterministic in the worker count.

use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_core::shard::BackendPolicy;
use c2m_dram::ExecutionReport;
use proptest::prelude::*;

fn engines(channels: usize, ranks: usize, policy: &BackendPolicy) -> (C2mEngine, C2mEngine) {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    cfg.dram.ranks = ranks;
    let cached = C2mEngine::builder(cfg.clone())
        .backends(policy.clone())
        .build();
    let uncached = C2mEngine::builder(cfg)
        .backends(policy.clone())
        .no_cache()
        .build();
    (cached, uncached)
}

fn stream(k: usize, seed: u64) -> Vec<i64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(-128i64..128)).collect()
}

/// Bit-level equality on every numeric surface of a report (the cache
/// counters are observational and excluded by design).
fn assert_reports_identical(a: &ExecutionReport, b: &ExecutionReport, what: &str) {
    assert_eq!(
        a.elapsed_ns.to_bits(),
        b.elapsed_ns.to_bits(),
        "{what}: elapsed"
    );
    assert_eq!(
        a.energy_nj.to_bits(),
        b.energy_nj.to_bits(),
        "{what}: energy"
    );
    assert_eq!(a.useful_ops, b.useful_ops, "{what}: useful ops");
}

fn policies() -> Vec<BackendPolicy> {
    use c2m_cim::Backend;
    vec![
        BackendPolicy::Uniform(Backend::Ambit),
        BackendPolicy::Uniform(Backend::Fcdram),
        BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]),
    ]
}

/// Two configs that differ ONLY in the SALP stream count must never
/// share a cache entry: every `PlanKey` holds the engine's `Topology`,
/// `subarrays` included, so the second geometry's first lookup through a
/// shared cache is a plan MISS, and each cached price still equals its
/// uncached twin bit-for-bit.
#[test]
fn subarray_count_is_part_of_every_cache_key() {
    use c2m_core::cache::{CacheConfig, PlanCache};
    use std::sync::Arc;
    let shared = Arc::new(PlanCache::new(CacheConfig::default()));
    let build = |subarrays: usize, cache: Option<Arc<PlanCache>>| {
        let mut cfg = EngineConfig::c2m(16);
        cfg.subarrays = subarrays;
        let builder = C2mEngine::builder(cfg);
        match cache {
            Some(c) => builder.shared_cache(c).build(),
            None => builder.no_cache().build(),
        }
    };
    let xs = stream(512, 7);
    let flat = build(1, Some(shared.clone()));
    let salp = build(8, Some(shared.clone()));

    let flat_report = flat.ternary_gemv(&xs, 256);
    let after_flat = shared.counters();
    let salp_report = salp.ternary_gemv(&xs, 256);
    let after_salp = shared.counters();
    assert!(
        after_salp.plan_misses > after_flat.plan_misses,
        "a geometry differing only in subarrays must MISS the shared plan cache \
         ({} -> {} misses)",
        after_flat.plan_misses,
        after_salp.plan_misses
    );

    assert_reports_identical(
        &flat_report,
        &build(1, None).ternary_gemv(&xs, 256),
        "flat engine through shared cache",
    );
    assert_reports_identical(
        &salp_report,
        &build(8, None).ternary_gemv(&xs, 256),
        "SALP engine through shared cache",
    );
    assert!(
        salp_report.elapsed_ns < flat_report.elapsed_ns,
        "sharing a plan entry would have hidden the SALP speedup"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every kernel prices bit-for-bit identically with and without the
    /// cache, across topology × policy, on first use AND on warm
    /// re-use (a hit must return exactly what a recompute would).
    #[test]
    fn cached_pricing_is_bit_for_bit_uncached(
        k in 128usize..1024,
        m in 4usize..32,
        n in 64usize..512,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        for (channels, ranks) in [(1usize, 1usize), (2, 1), (4, 2)] {
            for policy in policies() {
                if let BackendPolicy::PerChannel(b) = &policy {
                    if channels % b.len() != 0 {
                        continue;
                    }
                }
                let (cached, uncached) = engines(channels, ranks, &policy);
                let tag = format!("ch={channels} rk={ranks} {policy:?}");
                for round in 0..2 {
                    let what = format!("{tag} round={round}");
                    assert_reports_identical(
                        &cached.ternary_gemv(&xs, n),
                        &uncached.ternary_gemv(&xs, n),
                        &format!("gemv {what}"),
                    );
                    assert_reports_identical(
                        &cached.ternary_gemm(m, n, &xs),
                        &uncached.ternary_gemm(m, n, &xs),
                        &format!("gemm {what}"),
                    );
                    assert_reports_identical(
                        &cached.binary_gemm(m, n, &xs),
                        &uncached.binary_gemm(m, n, &xs),
                        &format!("bgemm {what}"),
                    );
                    let planes = [(0u32, false), (2, true), (5, false)];
                    assert_reports_identical(
                        &cached.int_gemv(&xs, n, &planes),
                        &uncached.int_gemv(&xs, n, &planes),
                        &format!("int_gemv {what}"),
                    );
                }
                let stats = cached.cache_stats();
                prop_assert!(
                    stats.plan_hits + stats.stream_hits > 0,
                    "{tag}: warm round must hit the cache"
                );
            }
        }
    }

    /// Batched pricing is bit-for-bit cache-invariant at every batch
    /// size, including the size-1 batch that routes through the same
    /// path as the lone-request kernel.
    #[test]
    fn cached_batch_pricing_matches_uncached_at_every_size(
        k in 128usize..512,
        n in 64usize..256,
        batch in 1usize..9,
        seed in 0u64..1000,
    ) {
        let mates: Vec<Vec<i64>> = (0..batch)
            .map(|i| stream(k, seed.wrapping_add(i as u64)))
            .collect();
        for (channels, ranks) in [(1usize, 1usize), (4, 1)] {
            let (cached, uncached) = engines(
                channels,
                ranks,
                &BackendPolicy::Uniform(c2m_cim::Backend::Ambit),
            );
            for round in 0..2 {
                assert_reports_identical(
                    &cached.ternary_gemv_batch(&mates, n),
                    &uncached.ternary_gemv_batch(&mates, n),
                    &format!("batch={batch} ch={channels} round={round}"),
                );
            }
        }
    }

    /// Parallel shard pricing is deterministic in the worker count:
    /// forcing 1, 2 and 8 workers through `RAYON_NUM_THREADS` yields
    /// bit-identical reports (the fold preserves shard order).
    #[test]
    fn parallel_pricing_is_deterministic_in_thread_count(
        k in 256usize..1024,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let (engine, _) = engines(4, 2, &BackendPolicy::Uniform(c2m_cim::Backend::Ambit));
        let price = || {
            let r = engine.ternary_gemv(&xs, 512);
            let g = engine.ternary_gemm(8, 256, &xs);
            (r.elapsed_ns.to_bits(), r.energy_nj.to_bits(), g.elapsed_ns.to_bits())
        };
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = price();
        for workers in ["2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", workers);
            prop_assert_eq!(serial, price(), "workers={}", workers);
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}
