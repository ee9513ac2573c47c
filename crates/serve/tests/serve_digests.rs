//! Pins the bytes the serving loop produces.
//!
//! Each run below is served on a fresh engine, and the FNV-1a digest of
//! its serialized [`ServeReport`] is compared with a recorded value. A
//! change that moves any outcome, batch, timeline sample or cache tally
//! fails the named test here. The runs mirror the benchmark's serving
//! workloads at a smaller size:
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

fn digest(report: &ServeReport) -> u64 {
    let json = serde_json::to_string(report).expect("serialisable report");
    fnv1a(json.as_bytes())
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

/// Compares each run's digest with its recorded value and names every
/// run that moved.
fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)]) {
    let moved: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g.0 != w.0 || g.1 != w.1)
        .map(|(g, w)| format!("{}: {:#018x}, recorded {:#018x}", g.0, g.1, w.1))
        .collect();
    assert_eq!(got.len(), want.len());
    assert!(
        moved.is_empty(),
        "serving bytes moved:\n{}",
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
                got.push((format!("{name}-b{max_batch}-{cap_name}"), digest(&report)));
            }
        }
    }
    // EDF and priority coincide on this trace until the priority
    // policy's 10 ms starvation cap fires, which only the slower
    // batch-1 runs reach: tenant 0 holds both the one finite deadline
    // and the one raised priority.
    assert_digests(
        &got,
        &[
            ("fifo-b1-uncapped", 0x4cb3_967a_4e2d_d13d),
            ("fifo-b1-capped", 0x51e1_196c_ff05_1ccc),
            ("fifo-b8-uncapped", 0xfc65_4a30_c443_8a43),
            ("fifo-b8-capped", 0x479b_e070_34b7_d6ad),
            ("edf-b1-uncapped", 0x9bfc_7c84_5fd7_ce0c),
            ("edf-b1-capped", 0xbd56_a62b_ff20_99e5),
            ("edf-b8-uncapped", 0xd555_ab19_a6dc_ac55),
            ("edf-b8-capped", 0x5e6a_22a5_137b_a696),
            ("prio-b1-uncapped", 0x32aa_8792_afe3_ab27),
            ("prio-b1-capped", 0x6bb3_5d5e_bc0c_bb5c),
            ("prio-b8-uncapped", 0xd555_ab19_a6dc_ac55),
            ("prio-b8-capped", 0x04bf_17f6_5b6f_e362),
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
    assert_digests(
        &[
            ("open-loop".to_string(), digest(&open)),
            ("closed-loop".to_string(), digest(&closed)),
        ],
        &[
            ("open-loop", 0xd314_3217_6830_475e),
            ("closed-loop", 0xeba7_09be_f429_a939),
        ],
    );
}
