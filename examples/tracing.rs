//! Tracing demo: serve a multi-tenant open-loop trace with a
//! [`RecordingSink`] threaded through all three execution layers —
//! per-bank host-fetch spans in the DRAM layer, launch/shard_exec/
//! merge_round spans in the engine, and the request lifecycle in the
//! serving pipeline — then export the Chrome-trace JSON (load it at
//! `ui.perfetto.dev`), dump the flat metrics snapshot, and print the
//! per-class latency breakdown the spans explain.
//!
//! Tracing is strictly observational: the same run with a [`NullSink`]
//! — or with no sink at all — produces a bit-identical report, which
//! this example asserts at the end.
//!
//! ```console
//! $ cargo run --release --example tracing
//! ```

use count2multiply::arch::engine::{C2mEngine, EngineConfig};
use count2multiply::serve::{
    open_loop, OpenLoopConfig, ServeConfig, ServeRuntime, ServiceClass, TenantSpec,
};
use count2multiply::trace::{validate_chrome_trace, NullSink, RecordingSink};
use std::sync::Arc;

fn engine() -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = 2;
    C2mEngine::builder(cfg).build()
}

fn main() {
    // A latency-critical tenant against a bulk one, arriving fast
    // enough to coalesce, with a residency budget small enough that
    // tenant switches pay visible mask reloads.
    let trace = open_loop(&OpenLoopConfig {
        tenants: vec![
            TenantSpec::new(1024, 512).with_class(ServiceClass::new(2, 8_000_000.0)),
            TenantSpec::new(1024, 512).with_class(ServiceClass::new(0, 100_000_000.0)),
        ],
        requests: 48,
        mean_interarrival_ns: 20_000.0,
        seed: 0x7ACE,
    });
    let untraced = || {
        let cfg = ServeConfig {
            max_batch: 4,
            window_ns: 1e9,
            residency_rows: Some(4096),
            ..ServeConfig::default()
        };
        ServeRuntime::new(engine(), cfg)
    };

    // Traced run: one recording sink observes dram + core + serve.
    let sink = Arc::new(RecordingSink::default());
    let runtime = untraced().with_trace(sink.clone());
    let report = runtime.run(&trace);

    let json = sink.chrome_trace_json();
    let check = validate_chrome_trace(&json).expect("recorded trace validates");
    let out = std::env::temp_dir().join("c2m_tracing_example.json");
    std::fs::write(&out, &json).expect("trace is writable");
    println!(
        "wrote {} — {} events, {} spans, {} tracks, categories [{}]",
        out.display(),
        check.events,
        check.spans,
        check.tracks,
        check.cats.join(", ")
    );
    println!("open it at https://ui.perfetto.dev (or chrome://tracing)\n");

    println!("metrics snapshot:");
    let m = sink.registry();
    for name in [
        "dram.fetch_requests",
        "core.launches",
        "serve.batches",
        "serve.requests",
    ] {
        println!("  {name:<22} {}", m.counter_value(name));
    }
    if let Some(h) = m.histogram("serve.e2e_latency_ns") {
        let s = h.summary();
        println!(
            "  e2e latency            mean {:.1} us, p99 ~{:.1} us over {} obs",
            s.mean_ns / 1e3,
            s.p99_ns / 1e3,
            s.count
        );
    }

    println!("\nlatency breakdown (mean queue + plan + reload + exec = total, us):");
    for row in report.latency_breakdown() {
        let mean = row.mean;
        println!(
            "  class {}: {:>3} reqs | {:>8.1} + {:>6.1} + {:>6.1} + {:>8.1} = {:>8.1} | p99 total {:>8.1}",
            row.priority,
            row.count,
            mean.queue_ns / 1e3,
            mean.plan_ns / 1e3,
            mean.reload_ns / 1e3,
            mean.exec_ns / 1e3,
            mean.total_ns / 1e3,
            row.p99.total_ns / 1e3
        );
    }

    // Zero-cost check: the NullSink run (and a hook-free run) yields a
    // bit-identical report.
    let nulled = untraced().with_trace(Arc::new(NullSink)).run(&trace);
    let bare = untraced().run(&trace);
    let traced_json = serde_json::to_string(&report).expect("report serialises");
    assert_eq!(
        traced_json,
        serde_json::to_string(&nulled).expect("report serialises")
    );
    assert_eq!(
        traced_json,
        serde_json::to_string(&bare).expect("report serialises")
    );
    println!("\ntraced, null-sink and hook-free reports are bit-identical.");
}
