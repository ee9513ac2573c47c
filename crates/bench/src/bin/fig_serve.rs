//! Serving-runtime sweeps (extension of §7.2 to heavy multi-request
//! traffic): batch window × topology × backend mix × scheduling policy
//! through `c2m_serve`.
//!
//! Five sweeps:
//!
//! * **batching** — batch cap 1→16 on 1 and 4 channels (Ambit, sync):
//!   coalescing same-tenant GEMVs into row-sharded launches amortises
//!   the per-dispatch overhead and drops the per-request cross-unit
//!   merges, so throughput strictly improves over cap 1.
//! * **async** — synchronous vs double-buffered planning at cap 8:
//!   overlapping IARM planning of batch *i+1* with execution of batch
//!   *i* cuts end-to-end latency.
//! * **sizing** — even vs heterogeneity-weighted shard sizing on the
//!   mixed Ambit+FCDRAM 4-channel module: weighting shard lengths by
//!   `1/backend_factor` equalises per-channel makespan and beats the
//!   even split.
//! * **slo** — FIFO vs EDF vs starvation-capped PriorityWeighted
//!   admission under a mixed-priority overload: one latency-critical
//!   tenant shares the module with three best-effort bulk tenants, and
//!   the deadline-aware policies pull the high class's p99 and miss
//!   rate down without giving up aggregate throughput.
//! * **residency** — the same overload with tenant weight residency
//!   modelled at a two-tenant mask budget: tenant switches now pay a
//!   mask-plane reload, so policy choice trades deadline chasing
//!   against tenant affinity (visible as reload counts).
//! * **energy** — the energy-ledger sweep over batch window × policy ×
//!   power cap on the mixed-priority overload: J/request (overall and
//!   per class) drops under batching, and a rolling-window power cap
//!   ([`ServeConfig::power_budget_w`], set at two fractions of the
//!   uncapped excursion above the idle floor) trades latency for cap
//!   compliance under every admission policy.
//! * **salp_residency** — the residency overload on an 8-stream SALP
//!   module, flat (1-slot) vs per-subarray-slot residency
//!   ([`ServeConfig::residency_slots`]): slotted accounting reloads
//!   each missing slot's rounded-up mask share, so tenant switches are
//!   never priced cheaper than the whole-mask model.
//!
//! The sweep points are priced **in parallel**: every configuration is
//! enqueued as a job and run on a `rayon` worker against one shared
//! plan/pricing/report cache; results are collected in input order, so
//! the table and `--json` output are byte-identical at any
//! `RAYON_NUM_THREADS` (including `1`). With `--cache-dir <dir>` the
//! shared cache is loaded from `<dir>/fig_serve.c2mcache.json` before
//! the sweep and saved back afterwards, so a repeated invocation starts
//! warm across processes.

use c2m_bench::{cache_store_path, eng, header, maybe_json, trace_flag};
use c2m_cim::Backend;
use c2m_core::cache::PlanCache;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_core::shard::BackendPolicy;
use c2m_core::store::CacheStore;
use c2m_serve::{
    open_loop, OpenLoopConfig, SchedPolicy, ServeConfig, ServeRequest, ServeRuntime, ServiceClass,
    TenantSpec,
};
use rayon::prelude::*;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct ServeRow {
    sweep: String,
    channels: usize,
    // SALP streams requested per bank and residency slots in force
    // (both 1 outside the salp_residency sweep).
    subarrays: usize,
    residency_slots: usize,
    dispatch: String,
    sizing: String,
    mode: String,
    policy: String,
    max_batch: usize,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    throughput_rps: f64,
    mean_batch: f64,
    host_hit_rate: f64,
    peak_queue_depth: usize,
    // SLO metrics: the high class is the highest priority served,
    // the low class the lowest (equal when there is a single class).
    p99_hi_us: f64,
    miss_hi: f64,
    p99_lo_us: f64,
    miss_lo: f64,
    miss_rate: f64,
    reloads: usize,
    reload_us: f64,
    // Energy-ledger metrics: joules per request (overall and for the
    // highest/lowest class), average and worst rolling-window power,
    // and the power cap in force (0 = uncapped).
    j_per_req: f64,
    j_per_req_hi: f64,
    j_per_req_lo: f64,
    avg_power_w: f64,
    peak_power_w: f64,
    cap_w: f64,
}

/// The shared row-hit-heavy trace: one tenant, Poisson arrivals fast
/// enough to keep the queue backlogged at every swept configuration.
fn workload() -> Vec<ServeRequest> {
    open_loop(&OpenLoopConfig {
        tenants: vec![TenantSpec::new(4096, 2048)],
        requests: 64,
        mean_interarrival_ns: 20_000.0,
        seed: 0x5EE5,
    })
}

/// The mixed-priority overload trace for the slo/residency sweeps: one
/// latency-critical tenant (priority 2, tight deadline) against three
/// best-effort bulk tenants, arriving faster than the module drains.
fn slo_workload() -> Vec<ServeRequest> {
    // An 8 ms deadline is feasible for the critical tenant when the
    // scheduler pulls it ahead of the backlog (EDF lands ~6 ms) but
    // infeasible under arrival order (FIFO backlog pushes it past
    // 20 ms); bulk tenants' 100 ms is met by everyone.
    let critical = ServiceClass::new(2, 8_000_000.0);
    let bulk = ServiceClass::new(0, 100_000_000.0);
    open_loop(&OpenLoopConfig {
        tenants: vec![
            TenantSpec::new(1024, 512).with_class(critical),
            TenantSpec::new(1024, 512).with_class(bulk),
            TenantSpec::new(1024, 512).with_class(bulk),
            TenantSpec::new(1024, 512).with_class(bulk),
        ],
        requests: 96,
        mean_interarrival_ns: 30_000.0,
        seed: 0x510,
    })
}

/// Every swept engine shares one plan/pricing/report cache: the trace
/// is the same across configuration points, so after the first run each
/// request's IARM pricing is a cache hit (radix/digits are identical
/// everywhere; plans and reports key on topology/policy/sizing and stay
/// distinct). Cached results are equality-gated, so sharing the cache
/// across concurrently swept configurations cannot change any number.
fn engine(
    channels: usize,
    subarrays: usize,
    policy: &BackendPolicy,
    weighted: bool,
    cache: &Arc<PlanCache>,
) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    cfg.subarrays = subarrays;
    let mut b = C2mEngine::builder(cfg)
        .backends(policy.clone())
        .shared_cache(Arc::clone(cache));
    if weighted {
        b = b.balanced_sizing();
    }
    b.build()
}

fn policy_name(policy: SchedPolicy) -> &'static str {
    match policy {
        SchedPolicy::Fifo => "fifo",
        SchedPolicy::EarliestDeadlineFirst => "edf",
        SchedPolicy::PriorityWeighted => "prio",
    }
}

/// Which of the two shared traces a sweep point serves.
#[derive(Clone, Copy)]
enum TraceId {
    Workload,
    Slo,
}

/// One sweep configuration, enqueued in output order and priced on a
/// worker thread.
struct Job {
    trace: TraceId,
    sweep: &'static str,
    channels: usize,
    subarrays: usize,
    backend: (BackendPolicy, &'static str, bool),
    cfg: ServeConfig,
}

/// Prices one sweep point and renders its table line. Pure in its
/// inputs (the shared cache is observational), so jobs can run in any
/// order on any number of threads.
fn exec(
    job: &Job,
    traces: &(Vec<ServeRequest>, Vec<ServeRequest>),
    cache: &Arc<PlanCache>,
) -> (ServeRow, String) {
    let trace: &[ServeRequest] = match job.trace {
        TraceId::Workload => &traces.0,
        TraceId::Slo => &traces.1,
    };
    let (backend_policy, dispatch, weighted) = &job.backend;
    let cfg = job.cfg.clone();
    let async_planner = cfg.async_planner;
    let max_batch = cfg.max_batch;
    let policy = cfg.policy;
    let cap_w = cfg.power_budget_w.unwrap_or(0.0);
    let residency_slots = cfg.residency_slots;
    let runtime = ServeRuntime::new(
        engine(
            job.channels,
            job.subarrays,
            backend_policy,
            *weighted,
            cache,
        ),
        cfg,
    );
    let rep = runtime.run(trace);
    let pcts = rep.latency_percentiles_ns(&[50.0, 95.0, 99.0]);
    let classes = rep.class_stats();
    let (hi, lo) = classes
        .last()
        .zip(classes.first())
        .map(|(hi, lo)| (*hi, *lo))
        .expect("served trace has at least one class");
    let row = ServeRow {
        sweep: job.sweep.to_string(),
        channels: job.channels,
        subarrays: job.subarrays,
        residency_slots,
        dispatch: (*dispatch).to_string(),
        sizing: if *weighted { "weighted" } else { "even" }.to_string(),
        mode: if async_planner { "async" } else { "sync" }.to_string(),
        policy: policy_name(policy).to_string(),
        max_batch,
        p50_us: pcts[0] / 1e3,
        p95_us: pcts[1] / 1e3,
        p99_us: pcts[2] / 1e3,
        mean_us: rep.mean_latency_ns() / 1e3,
        throughput_rps: rep.throughput_rps(),
        mean_batch: rep.mean_batch_size(),
        host_hit_rate: rep.host_hit_rate,
        peak_queue_depth: rep.peak_queue_depth(),
        p99_hi_us: hi.p99_ns / 1e3,
        miss_hi: hi.miss_rate,
        p99_lo_us: lo.p99_ns / 1e3,
        miss_lo: lo.miss_rate,
        miss_rate: rep.deadline_miss_rate(),
        reloads: rep.reload_count(),
        reload_us: rep.reload_ns_total() / 1e3,
        j_per_req: rep.joules_per_request(),
        j_per_req_hi: rep.class_joules_per_request(hi.priority),
        j_per_req_lo: rep.class_joules_per_request(lo.priority),
        avg_power_w: rep.mean_power_w(),
        peak_power_w: rep.peak_window_power_w(),
        cap_w,
    };
    let line = format!(
        "{:>9} | {:>2} | {:>12} | {:>8} | {:>5} | {:>4} | {:>5} | {:>9} {:>9} {:>9} | {:>9} | {:>5} | {:>9} {:>5.2} | {:>3} | {:>9} {:>7} {:>5}",
        row.sweep,
        row.channels,
        row.dispatch,
        row.sizing,
        row.mode,
        row.policy,
        row.max_batch,
        eng(row.p50_us),
        eng(row.p95_us),
        eng(row.p99_us),
        eng(row.throughput_rps),
        eng(row.mean_batch),
        eng(row.p99_hi_us),
        row.miss_hi,
        row.reloads,
        eng(row.j_per_req * 1e6),
        eng(row.peak_power_w),
        eng(row.cap_w),
    );
    (row, line)
}

/// `--trace <out.json>`: replay the residency overload twice on fresh
/// private-cache engines — once bare, once with a recording sink wired
/// through serve → core → dram — assert the traced report serialises
/// bit-identically to the untraced one (tracing is observational), and
/// export the Chrome-trace JSON.
fn trace_export(slo_trace: &[ServeRequest], ambit: &BackendPolicy, path: &str) {
    let fresh = || {
        // Private caches on both sides: shared warm state would make
        // the cumulative cache tallies differ between the two runs.
        engine(1, 1, ambit, false, &Arc::new(PlanCache::default()))
    };
    let budget = 2 * fresh().tenant_mask_rows(1024, 512);
    let cfg = || ServeConfig {
        policy: SchedPolicy::EarliestDeadlineFirst,
        max_wait_ns: 10e6,
        residency_rows: Some(budget),
        window_ns: 1e9,
        max_batch: 8,
        ..ServeConfig::default()
    };
    let plain = ServeRuntime::new(fresh(), cfg()).run(slo_trace);

    let sink = Arc::new(c2m_trace::RecordingSink::default());
    let traced = ServeRuntime::new(fresh(), cfg()).with_trace(sink.clone());
    let traced_rep = traced.run(slo_trace);

    let a = serde_json::to_string(&plain).expect("report serialises");
    let b = serde_json::to_string(&traced_rep).expect("report serialises");
    assert_eq!(a, b, "tracing must not change the serving report");

    let json = sink.chrome_trace_json();
    let check = c2m_trace::validate_chrome_trace(&json).expect("recorded trace is valid");
    for cat in ["dram", "core", "serve"] {
        assert!(
            check.cats.iter().any(|c| c == cat),
            "trace is missing `{cat}` events"
        );
    }
    std::fs::write(path, &json).expect("trace output path is writable");
    println!(
        "\n--trace: {path} — {} events, {} spans, {} tracks; traced report bit-equal to untraced",
        check.events, check.spans, check.tracks
    );
}

fn main() {
    header(
        "fig_serve",
        "Serving runtime: batch window x topology x backend mix x policy",
    );
    println!(
        "\n{:>9} | {:>2} | {:>12} | {:>8} | {:>5} | {:>4} | {:>5} | {:>9} {:>9} {:>9} | {:>9} | {:>5} | {:>9} {:>5} | {:>3} | {:>9} {:>7} {:>5}",
        "sweep",
        "ch",
        "dispatch",
        "sizing",
        "mode",
        "pol",
        "batch",
        "p50 us",
        "p95 us",
        "p99 us",
        "req/s",
        "B",
        "hi p99",
        "miss",
        "rl",
        "uJ/req",
        "pk W",
        "cap W"
    );
    let ambit = BackendPolicy::Uniform(Backend::Ambit);
    let mixed = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
    // One trace shared by every configuration, so the sweeps compare
    // policies, not inputs.
    let traces = (workload(), slo_workload());
    let cache = Arc::new(PlanCache::default());
    let store = cache_store_path("fig_serve");
    if let Some(path) = &store {
        let _ = CacheStore::load_into(path, &cache);
    }
    let mut jobs: Vec<Job> = Vec::new();
    let mut push = |trace: TraceId,
                    sweep: &'static str,
                    channels: usize,
                    subarrays: usize,
                    backend: (&BackendPolicy, &'static str, bool),
                    cfg: ServeConfig| {
        jobs.push(Job {
            trace,
            sweep,
            channels,
            subarrays,
            backend: (backend.0.clone(), backend.1, backend.2),
            cfg,
        });
    };

    let batched = |max_batch: usize| ServeConfig {
        window_ns: if max_batch > 1 { 1e9 } else { 0.0 },
        max_batch,
        ..ServeConfig::default()
    };

    // Sweep 1: the batching window (batch cap) on 1 and 4 channels.
    for &channels in &[1usize, 4] {
        for &b in &[1usize, 2, 4, 8, 16] {
            push(
                TraceId::Workload,
                "batching",
                channels,
                1,
                (&ambit, "Ambit", false),
                batched(b),
            );
        }
    }
    // Sweep 2: synchronous vs double-buffered (async) planning.
    for &async_planner in &[false, true] {
        push(
            TraceId::Workload,
            "async",
            4,
            1,
            (&ambit, "Ambit", false),
            ServeConfig {
                async_planner,
                ..batched(8)
            },
        );
    }
    // Sweep 3: even vs heterogeneity-weighted shard sizing on the mixed
    // module.
    for &weighted in &[false, true] {
        push(
            TraceId::Workload,
            "sizing",
            4,
            1,
            (&mixed, "Ambit+FCDRAM", weighted),
            batched(16),
        );
    }

    // Sweep 4: admission policy under mixed-priority overload. The
    // starvation cap is widened so PriorityWeighted's class preference
    // is visible (at the default 10 µs cap every backlogged request is
    // over-cap and the policy collapses to FCFS).
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::EarliestDeadlineFirst,
        SchedPolicy::PriorityWeighted,
    ];
    for &policy in &policies {
        push(
            TraceId::Slo,
            "slo",
            1,
            1,
            (&ambit, "Ambit", false),
            ServeConfig {
                policy,
                max_wait_ns: 10e6,
                ..batched(8)
            },
        );
    }
    // Sweep 5: the same overload with tenant weight residency at a
    // two-tenant mask budget — switches now pay a mask-plane reload.
    let slo_engine = engine(1, 1, &ambit, false, &cache);
    let budget = 2 * slo_engine.tenant_mask_rows(1024, 512);
    for &policy in &policies {
        push(
            TraceId::Slo,
            "residency",
            1,
            1,
            (&ambit, "Ambit", false),
            ServeConfig {
                policy,
                max_wait_ns: 10e6,
                residency_rows: Some(budget),
                ..batched(8)
            },
        );
    }

    // Sweep 6: the energy ledger — batch window x policy x power cap on
    // the same overload trace. The caps sit at fixed fractions of the
    // uncapped batched FIFO run's rolling-window excursion above the
    // module's static idle floor, so "tight" demonstrably binds while
    // staying feasible for a lone request. The probe runs sequentially
    // (before the parallel sweep) because the swept caps derive from
    // its result.
    let energy_cfg = |policy: SchedPolicy, max_batch: usize, cap: Option<f64>| ServeConfig {
        policy,
        max_wait_ns: 10e6,
        power_budget_w: cap,
        ..batched(max_batch)
    };
    let probe = ServeRuntime::new(
        engine(1, 1, &ambit, false, &cache),
        energy_cfg(SchedPolicy::Fifo, 8, None),
    )
    .run(&traces.1);
    let idle_w = probe.idle_floor_w;
    let excursion = probe.peak_window_power_w() - idle_w;
    let caps = [
        None,
        Some(idle_w + 0.7 * excursion),
        Some(idle_w + 0.4 * excursion),
    ];
    for &policy in &policies {
        for &b in &[1usize, 8] {
            for &cap in &caps {
                push(
                    TraceId::Slo,
                    "energy",
                    1,
                    1,
                    (&ambit, "Ambit", false),
                    energy_cfg(policy, b, cap),
                );
            }
        }
    }

    // Sweep 7: the same oversubscribed overload on an 8-stream SALP
    // module, pricing residency per subarray slot. The flat (1-slot)
    // point prices a tenant switch as one whole-mask reload; the
    // slotted point (one slot per shard slot) spreads the mask over
    // the unit's subarrays and reloads each missing slot's rounded-up
    // share, so slotted reload time is never cheaper.
    let salp_engine = engine(1, 8, &ambit, false, &cache);
    let salp_budget = 2 * salp_engine.tenant_mask_rows(1024, 512);
    let salp_slots = salp_engine.residency_slots();
    for &policy in &policies {
        for &slots in &[1usize, salp_slots] {
            push(
                TraceId::Slo,
                "salp_residency",
                1,
                8,
                (&ambit, "Ambit", false),
                ServeConfig {
                    policy,
                    max_wait_ns: 10e6,
                    residency_rows: Some(salp_budget),
                    residency_slots: slots,
                    ..batched(8)
                },
            );
        }
    }

    // Price every sweep point on a worker; collect() preserves input
    // order, so rows (and the table) print exactly as the serial sweep
    // did at any RAYON_NUM_THREADS.
    let results: Vec<(ServeRow, String)> =
        jobs.par_iter().map(|j| exec(j, &traces, &cache)).collect();
    let mut rows = Vec::with_capacity(results.len());
    for (row, line) in results {
        println!("{line}");
        rows.push(row);
    }

    println!("\nBatching coalesces same-tenant GEMVs into row-sharded launches (cap 1 = the");
    println!("seed one-at-a-time host path); async planning overlaps IARM with execution;");
    println!("weighted sizing rebalances the mixed Ambit+FCDRAM module's makespan; EDF and");
    println!("priority admission pull the critical class's p99/miss rate down under overload;");
    println!("residency prices tenant-switch mask reloads at a 2-tenant budget; the energy");
    println!("sweep reports J/request off the ledger and holds a rolling-window power cap");
    println!("by shrinking/deferring batches, trading latency for cap compliance; the SALP");
    println!("residency sweep prices reloads per subarray slot, never under the flat model.");
    if let Some(path) = trace_flag() {
        trace_export(&traces.1, &ambit, &path);
    }
    if let Some(path) = &store {
        CacheStore::save(path, &cache).expect("cache store path is writable");
    }
    maybe_json(&rows);
}
