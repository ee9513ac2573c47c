//! Property tests for topology-aware sharded execution: sharded reports
//! must stay consistent with the single-channel model they generalise.

use c2m_core::engine::{doubled_ternary, C2mEngine, EngineConfig};
use c2m_core::shard::ShardPlanner;
use c2m_dram::{CommandKind, Topology};
use proptest::prelude::*;

fn engine(channels: usize, ranks: usize, banks: usize) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(banks);
    cfg.dram.channels = channels;
    cfg.dram.ranks = ranks;
    C2mEngine::builder(cfg).build()
}

fn stream(k: usize, seed: u64) -> Vec<i64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(-128i64..128)).collect()
}

fn salp_engine(channels: usize, ranks: usize, banks: usize, subarrays: usize) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(banks);
    cfg.dram.channels = channels;
    cfg.dram.ranks = ranks;
    cfg.subarrays = subarrays;
    C2mEngine::builder(cfg).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// GEMM latency is monotonically non-increasing in the channel
    /// count: more channels never slow a kernel down.
    #[test]
    fn gemm_elapsed_non_increasing_in_channels(
        m in 8usize..64,
        k in 256usize..1024,
        n in 256usize..2048,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let mut prev = f64::INFINITY;
        for channels in [1usize, 2, 4, 8] {
            let r = engine(channels, 1, 16).ternary_gemm(m, n, &xs);
            prop_assert!(
                r.elapsed_ns <= prev,
                "channels={} elapsed {} > prev {}", channels, r.elapsed_ns, prev
            );
            prev = r.elapsed_ns;
        }
    }

    /// The accumulation command count of a GEMM is invariant under
    /// sharding: distributing rows over channels moves work, it does
    /// not create or destroy it (only host RD gather traffic appears).
    #[test]
    fn gemm_macro_commands_invariant_under_sharding(
        m in 8usize..64,
        k in 256usize..1024,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let base = engine(1, 1, 16).ternary_gemm(m, 1024, &xs);
        for channels in [2usize, 4, 8] {
            let r = engine(channels, 1, 16).ternary_gemm(m, 1024, &xs);
            prop_assert_eq!(
                r.stats.count(CommandKind::Aap),
                base.stats.count(CommandKind::Aap),
                "channels={}", channels
            );
        }
    }

    /// GEMV sharding over K always lands in (1/channels, 1] of the
    /// single-channel latency when K dwarfs the merge cost.
    #[test]
    fn gemv_speedup_is_sublinear_but_real(
        k in 4096usize..8192,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let one = engine(1, 1, 16).ternary_gemv(&xs, 8192);
        for channels in [2usize, 4, 8] {
            let r = engine(channels, 1, 16).ternary_gemv(&xs, 8192);
            prop_assert!(r.elapsed_ns < one.elapsed_ns, "channels={}", channels);
            prop_assert!(
                r.elapsed_ns > one.elapsed_ns / channels as f64,
                "channels={}: {} not > {}", channels, r.elapsed_ns,
                one.elapsed_ns / channels as f64
            );
        }
    }

    /// One SALP stream per bank IS the pre-SALP model: an engine with
    /// `subarrays = 1` prices every kernel bit-for-bit like the default
    /// engine, and the four-level planner collapses to the three-level
    /// plan (every shard in subarray 0, same boundaries).
    #[test]
    fn one_stream_salp_is_bit_for_bit_the_flat_model(
        channels in 1usize..=4,
        ranks in 1usize..=2,
        k in 256usize..2048,
        n in 64usize..512,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let flat = engine(channels, ranks, 16);
        let one = salp_engine(channels, ranks, 16, 1);
        for (a, b) in [
            (flat.ternary_gemv(&xs, n), one.ternary_gemv(&xs, n)),
            (flat.ternary_gemm(8, n, &xs), one.ternary_gemm(8, n, &xs)),
        ] {
            prop_assert_eq!(a.elapsed_ns.to_bits(), b.elapsed_ns.to_bits());
            prop_assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits());
            prop_assert_eq!(a.stats.count(CommandKind::Aap), b.stats.count(CommandKind::Aap));
        }
        let base = Topology { channels, ranks, banks: 16, subarrays: 1 };
        let three = ShardPlanner::new(base).plan_inner(k);
        let four = ShardPlanner::new(base.with_subarrays(1)).plan_inner(k);
        prop_assert_eq!(three.shards.len(), four.shards.len());
        for (a, b) in three.shards.iter().zip(&four.shards) {
            prop_assert_eq!((a.channel, a.rank, a.start, a.len), (b.channel, b.rank, b.start, b.len));
            prop_assert_eq!(b.subarray, 0);
        }
    }

    /// Subarray sharding moves accumulation work, it does not create or
    /// destroy it: each split's AAP count net of its intra-unit merge
    /// tree is the sum of what its K-slices cost on their own (each
    /// slice's IARM sequences for its doubled stream × the ops per
    /// sequence; ±1 for the aggregate integer rounding). IARM replans
    /// every slice, so that sum, not the flat count, is what a split
    /// must reproduce.
    #[test]
    fn accumulation_aap_count_invariant_under_subarray_sharding(
        k in 512usize..4096,
        n in 64usize..512,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        for subarrays in [1usize, 2, 4, 8, 32] {
            let eng = salp_engine(1, 1, 16, subarrays);
            let r = eng.ternary_gemv(&xs, n);
            let accum = r.stats.count(CommandKind::Aap) as f64
                - eng.reduction_ops_salp(eng.salp_streams());
            let slices: f64 = eng
                .planner()
                .plan_inner(k)
                .shards
                .iter()
                .map(|s| {
                    let seqs = eng.sequences_for_stream(&doubled_ternary(&xs[s.start..s.end()]));
                    seqs as f64 * eng.ops_per_sequence()
                })
                .sum();
            prop_assert!(
                (accum - slices).abs() <= 1.0,
                "subarrays={}: accumulation AAPs {} vs its slices' {}", subarrays, accum, slices
            );
        }
    }

    /// More SALP streams never slow a kernel down: elapsed time is
    /// monotonically non-increasing up the pow2 subarray ladder (the
    /// engine clamps requests past the channel-gate stream cap, so the
    /// tail of the ladder is flat, never rising).
    #[test]
    fn gemv_elapsed_non_increasing_in_subarrays(
        k in 1024usize..4096,
        n in 64usize..512,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let mut prev = f64::INFINITY;
        for subarrays in [1usize, 2, 4, 8, 16, 32] {
            let r = salp_engine(1, 1, 16, subarrays).ternary_gemv(&xs, n);
            prop_assert!(
                r.elapsed_ns <= prev,
                "subarrays={} elapsed {} > prev {}", subarrays, r.elapsed_ns, prev
            );
            prev = r.elapsed_ns;
        }
    }

    /// The cache stays an index with the fourth tier: a SALP engine
    /// prices bit-for-bit identically with and without its plan cache,
    /// cold and warm.
    #[test]
    fn salp_cached_pricing_is_bit_for_bit_uncached(
        subarrays in 2usize..=32,
        k in 256usize..2048,
        n in 64usize..512,
        seed in 0u64..1000,
    ) {
        let xs = stream(k, seed);
        let mut cfg = EngineConfig::c2m(16);
        cfg.subarrays = subarrays;
        let cached = C2mEngine::builder(cfg.clone()).build();
        let uncached = C2mEngine::builder(cfg).no_cache().build();
        for round in 0..2 {
            let a = cached.ternary_gemv(&xs, n);
            let b = uncached.ternary_gemv(&xs, n);
            prop_assert_eq!(a.elapsed_ns.to_bits(), b.elapsed_ns.to_bits(), "round {}", round);
            prop_assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits(), "round {}", round);
            prop_assert_eq!(a.useful_ops, b.useful_ops, "round {}", round);
        }
    }

    /// Shard plans partition their axis exactly: contiguous, disjoint,
    /// complete, balanced to within one element, and confined to the
    /// topology's units.
    #[test]
    fn plans_partition_exactly(
        channels in 1usize..=8,
        ranks in 1usize..=4,
        total in 1usize..10_000,
    ) {
        let planner = ShardPlanner::new(Topology { channels, ranks, banks: 16, subarrays: 1 });
        for plan in [planner.plan_rows(total), planner.plan_inner(total), planner.plan_planes(total)] {
            let mut cursor = 0usize;
            let mut min_len = usize::MAX;
            let mut max_len = 0usize;
            for s in &plan.shards {
                prop_assert_eq!(s.start, cursor);
                cursor = s.end();
                min_len = min_len.min(s.len);
                max_len = max_len.max(s.len);
                prop_assert!(s.channel < channels);
                prop_assert!(s.rank < ranks);
            }
            prop_assert_eq!(cursor, total);
            prop_assert!(max_len - min_len <= 1, "balanced: {} vs {}", min_len, max_len);
            prop_assert!(plan.shards.len() <= channels * ranks);
        }
    }
}
