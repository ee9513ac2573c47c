//! Serving-runtime demo: the same open-loop multi-tenant trace priced
//! under the seed one-request-at-a-time host path, under the tuned
//! runtime (batching + async planning + heterogeneity-aware sizing on a
//! mixed Ambit/FCDRAM 4-channel module), under SLO-aware admission
//! with tenant weight residency — the latency-critical tenant's p99
//! drops when EDF pulls it ahead of the bulk backlog, while an
//! oversubscribed mask budget makes every tenant switch pay a reload —
//! and finally under a rolling-window power cap, where the scheduler
//! shrinks and defers batches to hold the module's average power,
//! trading latency for cap compliance (every run also reports
//! J/request off the engine's per-launch energy).
//!
//! ```console
//! $ cargo run --release --example serving_runtime
//! ```

use count2multiply::arch::engine::{C2mEngine, EngineConfig};
use count2multiply::arch::BackendPolicy;
use count2multiply::cim::Backend;
use count2multiply::serve::{
    open_loop, OpenLoopConfig, SchedPolicy, ServeConfig, ServeReport, ServeRuntime, ServiceClass,
    TenantSpec,
};
use std::sync::Arc;

fn show(label: &str, rep: &ServeReport) {
    println!(
        "{label:<28} p50 {:>8.1} us | p99 {:>8.1} us | {:>7.0} req/s | batch {:>5.2} | hi-p99 {:>8.1} us | miss {:>4.0}% | reloads {:>2} | {:>7.0} uJ/req | pk {:>5.2} W",
        rep.p50_ns() / 1e3,
        rep.p99_ns() / 1e3,
        rep.throughput_rps(),
        rep.mean_batch_size(),
        rep.class_stats().last().expect("classes").p99_ns / 1e3,
        rep.deadline_miss_rate() * 100.0,
        rep.reload_count(),
        rep.joules_per_request() * 1e6,
        rep.peak_window_power_w(),
    );
}

fn main() {
    // Two tenants sharing a 4-channel mixed Ambit+FCDRAM module under
    // Poisson traffic heavy enough to backlog the queue: tenant 0 is
    // latency-critical (priority 2, 4 ms deadline), tenant 1 is bulk.
    let trace = open_loop(&OpenLoopConfig {
        tenants: vec![
            TenantSpec::new(4096, 2048).with_class(ServiceClass::new(2, 4_000_000.0)),
            TenantSpec::new(2048, 1024).with_class(ServiceClass::new(0, 100_000_000.0)),
        ],
        requests: 48,
        mean_interarrival_ns: 25_000.0,
        seed: 0xC0FFEE,
    });

    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = 4;
    let policy = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
    let engine = C2mEngine::builder(cfg.clone())
        .backends(policy.clone())
        .build();

    // Seed-faithful serving: one request per dispatch, synchronous
    // planning, even shard sizing, FIFO admission.
    let serial = ServeRuntime::new(engine.clone(), ServeConfig::default()).run(&trace);

    // Tuned serving: batch up to 8 same-tenant requests, double-buffer
    // the planner, weight shard lengths by backend throughput. The
    // weighted engine shares the first engine's plan/pricing cache, so
    // the trace's IARM planning passes are already warm.
    let tuned_cfg = ServeConfig {
        window_ns: 1e9,
        max_batch: 8,
        async_planner: true,
        ..ServeConfig::default()
    };
    let engine = C2mEngine::builder(cfg)
        .backends(policy)
        .balanced_sizing()
        .shared_cache(Arc::clone(
            engine.cache().expect("caching is on by default"),
        ))
        .build();
    let tuned = ServeRuntime::new(engine.clone(), tuned_cfg.clone()).run(&trace);

    // SLO-aware serving with tenant residency: EDF admission pulls the
    // critical tenant ahead of the bulk backlog, and a one-tenant mask
    // budget makes every tenant switch stream its planes back in.
    let budget = engine.tenant_mask_rows(4096, 2048);
    let slo = ServeRuntime::new(
        engine.clone(),
        ServeConfig {
            policy: SchedPolicy::EarliestDeadlineFirst,
            residency_rows: Some(budget),
            ..tuned_cfg.clone()
        },
    )
    .run(&trace);

    // Power-capped serving: hold the rolling-window average power at
    // 60% of the tuned run's excursion above the module's idle floor —
    // the scheduler shrinks/defers batches to comply.
    let cap = tuned.idle_floor_w + 0.6 * (tuned.peak_window_power_w() - tuned.idle_floor_w);
    let capped = ServeRuntime::new(
        engine,
        ServeConfig {
            power_budget_w: Some(cap),
            ..tuned_cfg
        },
    )
    .run(&trace);

    println!("48 requests, critical + bulk tenant, 4-channel mixed Ambit+FCDRAM module\n");
    show("seed host path (batch 1)", &serial);
    show("batched + async + weighted", &tuned);
    show("  + EDF + tight residency", &slo);
    show(&format!("  + power cap {cap:.2} W"), &capped);
    println!(
        "\nspeedup: {:.2}x throughput, {:.2}x p99; EDF cuts critical-class p99 {:.2}x \
         while paying {} mask reloads ({:.0} us)",
        tuned.throughput_rps() / serial.throughput_rps(),
        serial.p99_ns() / tuned.p99_ns(),
        tuned.class_stats().last().expect("classes").p99_ns
            / slo.class_stats().last().expect("classes").p99_ns,
        slo.reload_count(),
        slo.reload_ns_total() / 1e3,
    );
    println!(
        "batching also cuts energy: {:.0} -> {:.0} uJ/request; the {cap:.2} W cap holds \
         (peak {:.2} W) at {:.2}x the tuned p99",
        serial.joules_per_request() * 1e6,
        tuned.joules_per_request() * 1e6,
        capped.peak_window_power_w(),
        capped.p99_ns() / tuned.p99_ns(),
    );
    assert!(tuned.throughput_rps() > serial.throughput_rps());
    assert!(
        slo.class_stats().last().expect("classes").p99_ns
            < tuned.class_stats().last().expect("classes").p99_ns,
        "EDF must cut the critical class's p99 even while paying reloads"
    );
    assert!(tuned.joules_per_request() < serial.joules_per_request());
    assert!(capped.peak_window_power_w() <= cap * (1.0 + 1e-9));
}
