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
            ("fifo-b1-uncapped", 0xb986_74de_6510_80c2),
            ("fifo-b1-capped", 0xc77a_a6ec_192a_3136),
            ("fifo-b8-uncapped", 0x60ac_9daa_2872_e9d1),
            ("fifo-b8-capped", 0xfe36_99a0_358d_0431),
            ("edf-b1-uncapped", 0xdfd8_558a_c314_f96f),
            ("edf-b1-capped", 0x58b5_8667_78c7_2794),
            ("edf-b8-uncapped", 0x0830_19af_5095_0183),
            ("edf-b8-capped", 0xa0ad_eeb0_c573_fe31),
            ("prio-b1-uncapped", 0x7956_1dca_d8be_361d),
            ("prio-b1-capped", 0xe23d_9ff8_0a7a_da06),
            ("prio-b8-uncapped", 0x0830_19af_5095_0183),
            ("prio-b8-capped", 0xcc74_6fcf_2ead_c117),
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
            ("open-loop", 0xfff7_840d_8955_04f6),
            ("closed-loop", 0xe8d7_0211_2fed_161b),
        ],
    );
}
