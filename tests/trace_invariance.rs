//! Trace-layer invariants, end to end over the umbrella crate:
//!
//! * **Null-sink invariance** (property): an engine or serving runtime
//!   with a [`NullSink`] attached produces reports that serialise
//!   *bit-identically* to a build with no hooks at all, across
//!   topologies × kernels × admission policies. Tracing is
//!   observational — the hooks never perturb a float.
//! * **Recording round trip**: a traced serving run exports valid
//!   Chrome-trace JSON (balanced begin/end per track, all three layer
//!   categories present) and a metrics snapshot whose tallies match
//!   the report.
//! * **Breakdown identity**: every per-request and per-class mean
//!   latency decomposition sums to its end-to-end figure within 1e-9.

use count2multiply::arch::engine::{C2mEngine, EngineConfig};
use count2multiply::serve::{
    open_loop, OpenLoopConfig, SchedPolicy, ServeConfig, ServeRuntime, TenantSpec,
};
use count2multiply::trace::{validate_chrome_trace, NullSink, RecordingSink, TraceSink};
use proptest::prelude::*;
use std::sync::Arc;

fn engine(channels: usize, subarrays: usize, trace: Option<Arc<dyn TraceSink>>) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    cfg.subarrays = subarrays;
    let mut engine = C2mEngine::builder(cfg).build();
    if let Some(sink) = trace {
        engine.set_trace(sink);
    }
    engine
}

fn serve_cfg(policy: SchedPolicy, max_batch: usize, residency: bool) -> ServeConfig {
    ServeConfig {
        window_ns: if max_batch > 1 { 1e9 } else { 0.0 },
        max_batch,
        max_wait_ns: 10e6,
        policy,
        residency_rows: residency.then_some(4096),
        ..ServeConfig::default()
    }
}

fn workload(
    requests: usize,
    tenants: usize,
    seed: u64,
) -> Vec<count2multiply::serve::ServeRequest> {
    open_loop(&OpenLoopConfig {
        tenants: vec![TenantSpec::new(512, 256); tenants.max(1)],
        requests,
        mean_interarrival_ns: 5_000.0,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine launches: NullSink-traced reports serialise bit-identical
    /// to hook-free builds across topology × kernel shape.
    #[test]
    fn null_sink_engine_reports_are_bit_identical(
        ch_idx in 0usize..3,
        sa_idx in 0usize..2,
        k in 64usize..512,
        n in 16usize..128,
        gemm in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let channels = [1usize, 2, 4][ch_idx];
        let subarrays = [1usize, 8][sa_idx];
        let mut state = seed | 1;
        let x: Vec<i64> = (0..k)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 255) as i64 - 127
            })
            .collect();
        let bare = engine(channels, subarrays, None);
        let nulled = engine(channels, subarrays, Some(Arc::new(NullSink)));
        let (a, b) = if gemm {
            (bare.ternary_gemm(8, n, &x), nulled.ternary_gemm(8, n, &x))
        } else {
            (bare.ternary_gemv(&x, n), nulled.ternary_gemv(&x, n))
        };
        prop_assert_eq!(
            serde_json::to_string(&a).expect("report serialises"),
            serde_json::to_string(&b).expect("report serialises"),
            "NullSink must not perturb the engine report"
        );
    }

    /// Serving runs: NullSink-traced reports serialise bit-identical to
    /// hook-free runtimes across topology × policy × batching ×
    /// residency.
    #[test]
    fn null_sink_serve_reports_are_bit_identical(
        ch_idx in 0usize..2,
        pol_idx in 0usize..3,
        max_batch in 1usize..6,
        residency in any::<bool>(),
        requests in 4usize..24,
        seed in any::<u64>(),
    ) {
        let channels = [1usize, 4][ch_idx];
        let tenants = 1 + (seed % 3) as usize;
        let policy = [
            SchedPolicy::Fifo,
            SchedPolicy::EarliestDeadlineFirst,
            SchedPolicy::PriorityWeighted,
        ][pol_idx];
        let trace = workload(requests, tenants, seed);
        let cfg = serve_cfg(policy, max_batch, residency);
        let bare = ServeRuntime::new(engine(channels, 1, None), cfg.clone()).run(&trace);
        let nulled = ServeRuntime::new(engine(channels, 1, None), cfg)
            .with_trace(Arc::new(NullSink))
            .run(&trace);
        prop_assert_eq!(
            serde_json::to_string(&bare).expect("report serialises"),
            serde_json::to_string(&nulled).expect("report serialises"),
            "NullSink must not perturb the serving report"
        );
    }
}

#[test]
fn recording_sink_round_trips_a_serving_run() {
    let sink = Arc::new(RecordingSink::default());
    let cfg = ServeConfig {
        max_batch: 4,
        window_ns: 1e9,
        residency_rows: Some(4096),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::new(engine(2, 1, None), cfg).with_trace(sink.clone());
    let trace = workload(32, 2, 0xC2);
    let report = runtime.run(&trace);

    // The exporter's output is valid Chrome-trace JSON with all three
    // execution layers present.
    let json = sink.chrome_trace_json();
    let check = validate_chrome_trace(&json).expect("recorded trace validates");
    assert!(check.events > 0 && check.spans > 0);
    for cat in ["dram", "core", "serve"] {
        assert!(
            check.cats.iter().any(|c| c == cat),
            "missing `{cat}` events in {:?}",
            check.cats
        );
    }

    // Metric tallies agree with the report (trial-free config: no
    // power cap, so every priced batch commits exactly once).
    let m = sink.registry();
    assert_eq!(
        m.counter_value("serve.batches"),
        report.batches.len() as u64
    );
    assert_eq!(
        m.counter_value("serve.requests"),
        report.outcomes.len() as u64
    );
    assert!(m.counter_value("core.launches") > 0);
    assert!(m.counter_value("dram.fetch_requests") > 0);
    let snap_json = sink.metrics_json();
    assert!(snap_json.contains("serve.e2e_latency_ns"));
}

#[test]
fn latency_breakdown_sums_within_1e_9() {
    let runtime = ServeRuntime::new(
        engine(2, 1, None),
        serve_cfg(SchedPolicy::EarliestDeadlineFirst, 8, true),
    );
    let trace = workload(48, 3, 0xBD);
    let report = runtime.run(&trace);
    assert!(!report.outcomes.is_empty());
    for o in &report.outcomes {
        let c = report.latency_components(o);
        assert!(
            (c.queue_ns + c.plan_ns + c.reload_ns + c.exec_ns - c.total_ns).abs() < 1e-9,
            "request {} decomposition drifts from its end-to-end latency",
            o.id
        );
        assert!(c.queue_ns >= -1e-9, "queue share cannot be negative");
    }
    let rows = report.latency_breakdown();
    assert!(!rows.is_empty());
    for row in rows {
        let m = row.mean;
        assert!(
            (m.queue_ns + m.plan_ns + m.reload_ns + m.exec_ns - m.total_ns).abs() < 1e-9,
            "class {} mean decomposition drifts",
            row.priority
        );
    }
}
