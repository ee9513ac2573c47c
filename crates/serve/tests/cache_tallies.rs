//! Pins the exact cache tallies a serving run reports.
//!
//! The benchmark's per-layer metrics read [`CacheCounters`] and
//! [`ServeReport`]'s `batch_cache_*` fields, so what a tally *counts* is
//! part of the contract: one lookup is one hit or one miss, a cleared
//! tier turns repeats back into misses, and the power governor's trial
//! pricing looks batches up again. One fixed open-loop trace is served
//! twice on one runtime — once uncapped, once under a power cap — by an
//! engine whose stream and report tiers are small enough to clear
//! mid-run, and every report's tallies are compared with recorded
//! values. Serving prices through the engine's folds, which never read
//! the report tier, so its columns stay 0. The engine has one channel
//! and one rank, so every launch prices a single shard and the tallies
//! do not depend on thread scheduling.

use c2m_core::cache::CacheConfig;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_dram::CacheCounters;
use c2m_serve::{open_loop, OpenLoopConfig, ServeConfig, ServeReport, ServeRuntime, TenantSpec};

fn engine() -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = 1;
    cfg.dram.ranks = 1;
    C2mEngine::builder(cfg)
        .cache(CacheConfig {
            max_streams: 16,
            max_reports: 8,
            ..CacheConfig::default()
        })
        .build()
}

fn serve_config(power_budget_w: Option<f64>, batch_cache: bool) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        window_ns: 1e6,
        power_budget_w,
        batch_cache,
        ..ServeConfig::default()
    }
}

/// `[plan hits, plan misses, stream hits, stream misses, report hits,
/// report misses, batch hits, batch misses]`.
fn tallies(report: &ServeReport) -> [u64; 8] {
    let CacheCounters {
        plan_hits,
        plan_misses,
        stream_hits,
        stream_misses,
        report_hits,
        report_misses,
    } = report.engine_cache;
    [
        plan_hits,
        plan_misses,
        stream_hits,
        stream_misses,
        report_hits,
        report_misses,
        report.batch_cache_hits,
        report.batch_cache_misses,
    ]
}

#[test]
fn serving_twice_reports_the_recorded_tallies() {
    let trace = open_loop(&OpenLoopConfig {
        tenants: vec![TenantSpec::new(256, 128); 3],
        requests: 60,
        mean_interarrival_ns: 3_000.0,
        seed: 0x7A11,
    });

    let twice = |cfg: ServeConfig| {
        let rt = ServeRuntime::new(engine(), cfg);
        [rt.run(&trace), rt.run(&trace)]
    };
    let uncapped = twice(serve_config(None, true));
    // A cap 40% of the way from the idle floor to the uncapped peak: the
    // governor shrinks and defers batches, re-pricing each trial.
    let first = &uncapped[0];
    let cap = first.idle_floor_w + 0.4 * (first.peak_window_power_w() - first.idle_floor_w);
    let capped = twice(serve_config(Some(cap), true));
    assert!(
        capped[0].batches.len() > first.batches.len(),
        "the cap must bind"
    );
    // Without the batch tier, every trial reaches the engine.
    let capped_unbatched = twice(serve_config(Some(cap), false));

    let got: Vec<[u64; 8]> = [uncapped, capped, capped_unbatched]
        .iter()
        .flatten()
        .map(tallies)
        .collect();
    let expect: [[u64; 8]; 6] = [
        // Uncapped: every batch composition is new, so each prices once
        // and the plan pass and the launch share stream entries.
        [14, 3, 56, 64, 0, 0, 0, 17],
        // The repeat is all batch-tier hits; the engine is not reached.
        [0, 0, 0, 0, 0, 0, 17, 0],
        // Capped: governor trials re-price compositions.
        [56, 4, 233, 61, 0, 0, 228, 60],
        [0, 0, 0, 0, 0, 0, 288, 0],
        // Capped with no batch tier: every trial folds again, one plan
        // lookup per trial and one stream lookup per request planned
        // and per request launched; the stream tier clears every 16
        // inserts.
        [284, 4, 1377, 61, 0, 0, 0, 0],
        [288, 0, 1374, 64, 0, 0, 0, 0],
    ];
    assert_eq!(got, expect);
}
