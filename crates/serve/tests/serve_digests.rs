//! Pins the bytes the serving loop produces.
//!
//! Each run below is served on a fresh engine and pinned twice: by the
//! FNV-1a digest of its serialized [`ServeReport`] with every cache
//! tally zeroed (`engine_cache` and `batch_cache_*`), which covers
//! every simulated byte, and by its eight cache tallies. Caching is
//! observational, so a change to what a cache tier counts moves only
//! tally pins, and a change that moves any outcome, batch or timeline
//! sample moves a digest. Each test names every pin that moved. The
//! runs mirror the benchmark's serving workloads at a smaller size:
//!
//! * the `serve_sweep` grid: {FIFO, EDF, priority} × batch cap {1, 8} ×
//!   power cap {none, tight}, at a residency budget of two tenants'
//!   masks, over one open-loop trace of 200 requests offered at
//!   500 kreq/s;
//! * one open-loop and one closed-loop run shaped like `serve_unique`:
//!   EDF, batch cap 8, a 1 ms window, 200 requests each.
//!
//! Every tenant runs a K × N = 256 × 256 GEMV on a 4-channel engine;
//! tenant 0 is in a priority-2 class with a 2 ms deadline.

use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_dram::CacheCounters;
use c2m_serve::{
    open_loop, ClosedLoopConfig, OpenLoopConfig, SchedPolicy, ServeConfig, ServeReport,
    ServeRequest, ServeRuntime, ServiceClass, TenantSpec,
};

const K: usize = 256;
const N: usize = 256;
const WINDOW_NS: f64 = 1e6;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of `report` with its cache tallies zeroed.
fn digest(report: &ServeReport) -> u64 {
    let report = ServeReport {
        batch_cache_hits: 0,
        batch_cache_misses: 0,
        engine_cache: CacheCounters::default(),
        ..report.clone()
    };
    let json = serde_json::to_string(&report).expect("serialisable report");
    fnv1a(json.as_bytes())
}

/// `[plan hits, plan misses, stream hits, stream misses, report hits,
/// report misses, batch hits, batch misses]`.
type Tallies = [u64; 8];

fn tallies(report: &ServeReport) -> Tallies {
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

/// One run's pins: its name, tally-free digest and tallies.
type Pin<'a> = (&'a str, u64, Tallies);

fn pin(name: &str, report: &ServeReport) -> (String, u64, Tallies) {
    (name.to_string(), digest(report), tallies(report))
}

fn tenants() -> Vec<TenantSpec> {
    (0..4)
        .map(|t| {
            let spec = TenantSpec::new(N, K);
            if t == 0 {
                spec.with_class(ServiceClass::new(2, 2e6))
            } else {
                spec
            }
        })
        .collect()
}

fn engine() -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = 4;
    C2mEngine::builder(cfg).build()
}

fn trace(requests: usize, gap_ns: f64, seed: u64) -> Vec<ServeRequest> {
    open_loop(&OpenLoopConfig {
        tenants: tenants(),
        requests,
        mean_interarrival_ns: gap_ns,
        seed,
    })
}

/// Compares each run's digest and tallies with their recorded values
/// and names every pin that moved.
fn assert_pins(got: &[(String, u64, Tallies)], want: &[Pin]) {
    assert_eq!(got.len(), want.len());
    let mut moved = Vec::new();
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "runs are listed in the recorded order");
        if g.1 != w.1 {
            moved.push(format!(
                "{} digest: {:#018x}, recorded {:#018x}",
                g.0, g.1, w.1
            ));
        }
        if g.2 != w.2 {
            moved.push(format!("{} tallies: {:?}, recorded {:?}", g.0, g.2, w.2));
        }
    }
    assert!(
        moved.is_empty(),
        "serving pins moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn sweep_grid_reports_are_pinned() {
    let trace = trace(200, 2_000.0, 101);
    let budget = 2 * engine().tenant_mask_rows(N, K);
    let base = |policy: SchedPolicy, max_batch: usize, cap: Option<f64>| ServeConfig {
        policy,
        max_batch,
        window_ns: if max_batch > 1 { WINDOW_NS } else { 0.0 },
        max_wait_ns: 10e6,
        residency_rows: Some(budget),
        power_budget_w: cap,
        ..ServeConfig::default()
    };
    let probe = ServeRuntime::new(engine(), base(SchedPolicy::Fifo, 8, None)).run(&trace);
    let tight = probe.idle_floor_w + 0.4 * (probe.peak_window_power_w() - probe.idle_floor_w);
    let mut got = Vec::new();
    for (policy, name) in [
        (SchedPolicy::Fifo, "fifo"),
        (SchedPolicy::EarliestDeadlineFirst, "edf"),
        (SchedPolicy::PriorityWeighted, "prio"),
    ] {
        for max_batch in [1usize, 8] {
            for (cap, cap_name) in [(None, "uncapped"), (Some(tight), "capped")] {
                let report = ServeRuntime::new(engine(), base(policy, max_batch, cap)).run(&trace);
                assert_eq!(report.outcomes.len(), trace.len());
                got.push(pin(&format!("{name}-b{max_batch}-{cap_name}"), &report));
            }
        }
    }
    // EDF and priority coincide on this trace until the priority
    // policy's 10 ms starvation cap fires, which only the slower
    // batch-1 runs reach: tenant 0 holds both the one finite deadline
    // and the one raised priority.
    assert_pins(
        &got,
        &[
            (
                "fifo-b1-uncapped",
                0x0d68_c7ff_cb7c_c4fe,
                [199, 1, 0, 1000, 0, 0, 0, 200],
            ),
            (
                "fifo-b1-capped",
                0xe3e9_6130_6ba5_e7f5,
                [199, 1, 0, 1000, 0, 0, 99, 200],
            ),
            (
                "fifo-b8-uncapped",
                0xe6fa_2c4c_225e_bd91,
                [22, 5, 199, 204, 0, 0, 0, 27],
            ),
            (
                "fifo-b8-capped",
                0xf431_260c_8dc7_5ff4,
                [745, 8, 6720, 480, 0, 0, 437, 753],
            ),
            (
                "edf-b1-uncapped",
                0xed8c_70a2_5239_f8e9,
                [199, 1, 0, 1000, 0, 0, 0, 200],
            ),
            (
                "edf-b1-capped",
                0x5dd0_3386_06b0_b8f6,
                [199, 1, 0, 1000, 0, 0, 152, 200],
            ),
            (
                "edf-b8-uncapped",
                0xc993_1388_c311_bac3,
                [22, 5, 199, 204, 0, 0, 0, 27],
            ),
            (
                "edf-b8-capped",
                0x1780_ed37_6f24_e9c9,
                [822, 8, 7171, 572, 0, 0, 618, 830],
            ),
            (
                "prio-b1-uncapped",
                0x78da_8f6c_af04_95a4,
                [199, 1, 0, 1000, 0, 0, 0, 200],
            ),
            (
                "prio-b1-capped",
                0xe7ea_c517_ddd4_3a85,
                [199, 1, 0, 1000, 0, 0, 123, 200],
            ),
            (
                "prio-b8-uncapped",
                0xc993_1388_c311_bac3,
                [22, 5, 199, 204, 0, 0, 0, 27],
            ),
            (
                "prio-b8-capped",
                0xf3e5_fe7f_6009_7ae6,
                [790, 8, 7076, 496, 0, 0, 508, 798],
            ),
        ],
    );
}

#[test]
fn unique_input_reports_are_pinned() {
    let cfg = ServeConfig {
        policy: SchedPolicy::EarliestDeadlineFirst,
        max_batch: 8,
        window_ns: WINDOW_NS,
        ..ServeConfig::default()
    };
    let open = ServeRuntime::new(engine(), cfg.clone()).run(&trace(200, 20_000.0, 7));
    let closed = ServeRuntime::new(engine(), cfg).run_closed_loop(&ClosedLoopConfig {
        tenants: tenants(),
        clients: 40,
        requests_per_client: 5,
        think_ns: 10_000.0,
        seed: 7,
    });
    assert_eq!(open.outcomes.len(), 200);
    assert_eq!(closed.outcomes.len(), 200);
    assert_pins(
        &[pin("open-loop", &open), pin("closed-loop", &closed)],
        &[
            (
                "open-loop",
                0x55ef_121b_e448_bb19,
                [30, 7, 196, 216, 0, 0, 0, 37],
            ),
            (
                "closed-loop",
                0xeb79_616a_8aa2_93f6,
                [38, 2, 200, 200, 0, 0, 0, 40],
            ),
        ],
    );
}
