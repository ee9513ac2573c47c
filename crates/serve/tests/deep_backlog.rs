//! A deep-backlog stress run for the nightly tier (`cargo test --
//! --ignored`).
//!
//! 20,000 open-loop requests are offered at about 3.5 times the rate an
//! uncapped batched run drains, so the ready set grows to about 15,000
//! requests, far deeper than any tier-1 test reaches. The same trace is
//! served under every policy, uncapped and under a binding power cap,
//! and each run is checked for the batching invariants. Nothing here
//! is timed.

use c2m_core::cache::PlanCache;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_serve::{
    open_loop, OpenLoopConfig, RequestOutcome, SchedPolicy, ServeConfig, ServeReport, ServeRequest,
    ServeRuntime, ServiceClass, TenantSpec,
};
use std::sync::Arc;

const REQUESTS: usize = 20_000;
const MAX_BATCH: usize = 8;

fn tenants() -> Vec<TenantSpec> {
    (0..4)
        .map(|t| {
            let spec = TenantSpec::new(64, 64);
            if t == 0 {
                spec.with_class(ServiceClass::new(2, 2e6))
            } else {
                spec
            }
        })
        .collect()
}

fn trace(requests: usize, gap_ns: f64) -> Vec<ServeRequest> {
    open_loop(&OpenLoopConfig {
        tenants: tenants(),
        requests,
        mean_interarrival_ns: gap_ns,
        seed: 23,
    })
}

/// Every request completes exactly once, and every batch holds at most
/// `MAX_BATCH` requests of its one tenant, in FCFS order, each of which
/// had arrived by the batch's admission instant.
fn assert_batching_invariants(what: &str, reqs: &[ServeRequest], rep: &ServeReport) {
    let mut ids: Vec<u64> = rep.outcomes.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    let want: Vec<u64> = reqs.iter().map(|r| r.id).collect();
    assert_eq!(ids, want, "{what}: every request completes exactly once");
    let mut members: Vec<Vec<&RequestOutcome>> = vec![Vec::new(); rep.batches.len()];
    for o in &rep.outcomes {
        members[o.batch].push(o);
    }
    for (i, (b, m)) in rep.batches.iter().zip(&members).enumerate() {
        assert!(b.size <= MAX_BATCH, "{what}: batch {i} holds {}", b.size);
        assert_eq!(m.len(), b.size, "{what}: batch {i}");
        for o in m {
            assert_eq!(o.tenant, b.tenant, "{what}: batch {i} mixes tenants");
            assert!(
                o.arrival_ns <= b.formed_ns,
                "{what}: request {} admitted at {} before its arrival {}",
                o.id,
                b.formed_ns,
                o.arrival_ns
            );
        }
        for w in m.windows(2) {
            assert!(
                (w[0].arrival_ns, w[0].id) < (w[1].arrival_ns, w[1].id),
                "{what}: batch {i} is not in FCFS order"
            );
        }
    }
}

#[test]
#[ignore = "nightly tier: six runs of 20,000 requests"]
fn deep_backlog_keeps_the_batching_invariants() {
    let cache = Arc::new(PlanCache::default());
    let engine = || {
        let mut cfg = EngineConfig::c2m(16);
        cfg.dram.channels = 4;
        C2mEngine::builder(cfg)
            .shared_cache(Arc::clone(&cache))
            .build()
    };
    let config = |policy: SchedPolicy, power_budget_w: Option<f64>| ServeConfig {
        policy,
        max_batch: MAX_BATCH,
        window_ns: 1e6,
        power_budget_w,
        ..ServeConfig::default()
    };
    // The drain rate of an uncapped batched run with every request
    // queued at once sets the offered load.
    let burst = trace(2_000, 1e-3);
    let drained = ServeRuntime::new(engine(), config(SchedPolicy::Fifo, None)).run(&burst);
    let gap_ns = 1e9 / (3.5 * drained.throughput_rps());
    let reqs = trace(REQUESTS, gap_ns);
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::EarliestDeadlineFirst,
        SchedPolicy::PriorityWeighted,
    ] {
        let uncapped = ServeRuntime::new(engine(), config(policy, None)).run(&reqs);
        let what = format!("{policy:?} uncapped");
        assert_batching_invariants(&what, &reqs, &uncapped);
        assert!(
            uncapped.peak_queue_depth() >= 10_000,
            "{what}: backlog peaked at {}",
            uncapped.peak_queue_depth()
        );
        let floor = uncapped.idle_floor_w;
        let cap = floor + 0.4 * (uncapped.peak_window_power_w() - floor);
        let capped = ServeRuntime::new(engine(), config(policy, Some(cap))).run(&reqs);
        let what = format!("{policy:?} capped");
        assert_batching_invariants(&what, &reqs, &capped);
        assert!(
            capped.peak_window_power_w() <= cap * (1.0 + 1e-9),
            "{what}: window peak {} W over the {cap} W cap",
            capped.peak_window_power_w()
        );
    }
}
