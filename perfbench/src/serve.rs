//! The two serving workloads, `serve_unique` and `serve_sweep`, and the
//! traced replay that attributes their host time to layers.
//!
//! Timed runs call only the public serving API with tracing off; after
//! the first iteration's timed runs, untimed checks compare a sample of
//! cached launches with uncached ones and a traced segment with an
//! untraced one. The traced run serves the same way, then replays each served run's own
//! batches (`outcomes[].batch`) through the public entry points of each
//! layer, inside spans, and checks that the replay reproduces what the
//! run reported (sequence counts, launch times and energies, fetch hit
//! rate, residency reloads), so the per-layer numbers describe the work
//! that was timed.

use crate::record::{fnv1a, obj, sub_seed, Recorder};
use c2m_core::cache::{CacheConfig, PlanCache};
use c2m_core::engine::{doubled_ternary, C2mEngine, EngineConfig};
use c2m_core::residency::{ResidencyModel, ResidencyOutcome};
use c2m_core::store::CacheStore;
use c2m_dram::{
    hit_fraction, AccessKind, BatchWindow, CacheCounters, ExecutionReport, MemoryRequest,
    RequestQueue,
};
use c2m_serve::traffic::request_input;
use c2m_serve::{
    open_loop, ClosedLoopConfig, OpenLoopConfig, SchedPolicy, ServeConfig, ServeReport,
    ServeRequest, ServeRuntime, ServiceClass, TenantSpec,
};
use c2m_trace::RecordingSink;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every tenant runs a K×N = 256×256 ternary GEMV.
const K: usize = 256;
const N: usize = 256;
const TENANTS: usize = 4;
/// The deadline class of tenant 0: priority 2, 2 ms after arrival.
const DEADLINE_NS: f64 = 2e6;
const CHANNELS: usize = 4;
const BANKS: usize = 16;
/// Batch coalescing window of every batched configuration, 1 ms.
const WINDOW_NS: f64 = 1e6;

/// serve_unique: requests per phase (open loop, then closed loop).
const UNIQUE_REQUESTS: usize = 2000;
/// serve_unique open loop: mean Poisson inter-arrival gap, ns.
const UNIQUE_GAP_NS: f64 = 20_000.0;
/// serve_unique closed loop: clients (client c uses tenant c % 4) and
/// think time between a completion and the client's next request.
const CLIENTS: usize = 40;
const THINK_NS: f64 = 10_000.0;
const _: () = assert!(
    UNIQUE_REQUESTS.is_multiple_of(CLIENTS),
    "both phases serve the same request count"
);
/// serve_unique warm-up requests served during set-up.
const WARMUP_REQUESTS: usize = 200;

/// serve_sweep: requests in the one open-loop trace every config
/// serves. 1500 so the serial configs' distinct reports exceed the
/// 1024-entry report tier while the batched configs' fit.
const SWEEP_REQUESTS: usize = 1500;
const SWEEP_GAP_NS: f64 = 2_000.0;

/// Requests of the trace-sink segment (served plain and traced).
const TRACE_SEGMENT: usize = 300;
/// Requests of the reference run served through a persistent store
/// (cold, then warm) for `cachedir_{cold,warm}_s`.
const STORE_SEGMENT: usize = 500;
/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Replay compares a cached engine with an uncached one, and times a
/// report hit, on every this-many-th batch.
const SAMPLE_EVERY: usize = 8;
/// Report-key computations timed per sampled batch.
const KEY_REPS: usize = 64;

/// Which serving workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Unique,
    Sweep,
}

/// Command-line options shared by the workloads.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// The tenant set of both serving workloads: tenant 0 carries a
/// deadline class, the rest are best-effort.
fn tenants() -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|t| {
            let spec = TenantSpec::new(N, K);
            if t == 0 {
                spec.with_class(ServiceClass::new(2, DEADLINE_NS))
            } else {
                spec
            }
        })
        .collect()
}

fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::c2m(BANKS);
    cfg.dram.channels = CHANNELS;
    cfg
}

/// An engine on the named shared cache.
fn shared_engine(cache: &Arc<PlanCache>) -> C2mEngine {
    C2mEngine::builder(engine_config())
        .shared_cache(Arc::clone(cache))
        .build()
}

/// An engine that caches nothing: every call re-plans and re-prices.
fn uncached_engine() -> C2mEngine {
    C2mEngine::builder(engine_config()).no_cache().build()
}

/// An engine on a fresh private cache backed by the store at `path`.
fn stored_engine(path: &Path) -> C2mEngine {
    C2mEngine::builder(engine_config())
        .cache(CacheConfig::default())
        .cache_path(path)
        .build()
}

fn unique_config() -> ServeConfig {
    ServeConfig {
        policy: SchedPolicy::EarliestDeadlineFirst,
        max_batch: 8,
        window_ns: WINDOW_NS,
        ..ServeConfig::default()
    }
}

fn open_trace(requests: usize, gap_ns: f64, seed: u64) -> Vec<ServeRequest> {
    open_loop(&OpenLoopConfig {
        tenants: tenants(),
        requests,
        mean_interarrival_ns: gap_ns,
        seed,
    })
}

fn closed_config(seed: u64) -> ClosedLoopConfig {
    ClosedLoopConfig {
        tenants: tenants(),
        clients: CLIENTS,
        requests_per_client: UNIQUE_REQUESTS / CLIENTS,
        think_ns: THINK_NS,
        seed,
    }
}

/// One served run and the requests it served.
struct Served<'a> {
    label: String,
    cfg: ServeConfig,
    report: ServeReport,
    /// The run's requests, indexed by id.
    requests: &'a [ServeRequest],
    wall_s: f64,
}

/// The requests a closed-loop run issued, rebuilt from its outcomes
/// (ids are issued sequentially; inputs derive from the seed and id).
fn closed_requests(cfg: &ClosedLoopConfig, report: &ServeReport) -> Vec<ServeRequest> {
    let mut reqs: Vec<ServeRequest> = report
        .outcomes
        .iter()
        .map(|o| {
            let spec = cfg.tenants[o.tenant];
            ServeRequest {
                id: o.id,
                arrival_ns: o.arrival_ns,
                tenant: o.tenant,
                class: spec.class,
                n: spec.n,
                x: request_input(spec.k, cfg.seed, o.id),
            }
        })
        .collect();
    reqs.sort_by_key(|r| r.id);
    reqs
}

/// Requests (ids `0..submitted`) that do not appear exactly once in
/// `outcomes`, plus outcomes for ids never submitted.
fn lost_requests(report: &ServeReport, submitted: usize) -> usize {
    let mut seen = vec![0usize; submitted];
    let mut unknown = 0;
    for o in &report.outcomes {
        match usize::try_from(o.id).ok().and_then(|i| seen.get_mut(i)) {
            Some(n) => *n += 1,
            None => unknown += 1,
        }
    }
    seen.iter().filter(|&&n| n != 1).count() + unknown
}

/// Counts a run's requests into the totals `fail_frac` is taken over:
/// each submitted request is attempted, each lost one failed.
fn count_requests(rec: &mut Recorder, report: &ServeReport, submitted: usize, what: &str) {
    let lost = lost_requests(report, submitted);
    rec.add("requests.submitted", submitted as f64);
    rec.add("requests.lost", lost as f64);
    if lost > 0 {
        rec.checks
            .note(format!("{what}: {lost} requests lost or served twice"));
    }
}

/// The simulated outputs of a run, as JSON: outcomes, batches and the
/// queue and power timelines. Cache tallies are left out, so the digest
/// compares what was simulated, not how it was computed.
fn simulated_outputs(report: &ServeReport) -> String {
    let v = obj(vec![
        ("outcomes", serde::Serialize::to_value(&report.outcomes)),
        ("batches", serde::Serialize::to_value(&report.batches)),
        (
            "queue_depth",
            serde::Serialize::to_value(&report.queue_depth),
        ),
        (
            "power_timeline",
            serde::Serialize::to_value(&report.power_timeline),
        ),
        ("host_hit_rate", Value::Float(report.host_hit_rate)),
    ]);
    serde_json::to_string(&v).expect("serialisable outputs")
}

/// A launch report without its cache tallies, as JSON: the bytes a
/// cached and an uncached engine must agree on.
fn launch_bytes(report: &ExecutionReport) -> String {
    let mut r = report.clone();
    r.cache = CacheCounters::default();
    serde_json::to_string(&r).expect("serialisable report")
}

/// The simulated-time metrics of a reference run.
struct SimMetrics {
    p99_us: f64,
    samples: usize,
    uj_per_req: f64,
    kreq_per_s: f64,
}

impl SimMetrics {
    fn of(report: &ServeReport) -> Self {
        Self {
            p99_us: report.p99_ns() / 1e3,
            samples: report.outcomes.len(),
            uj_per_req: report.joules_per_request() * 1e6,
            kreq_per_s: report.throughput_rps() / 1e3,
        }
    }
}

/// Accumulates a run's cache tallies into the recorder's counters.
fn count_caches(rec: &mut Recorder, report: &ServeReport) {
    let c = report.engine_cache;
    for (name, v) in [
        ("core.cache.plan.hits", c.plan_hits),
        ("core.cache.plan.misses", c.plan_misses),
        ("core.cache.stream.hits", c.stream_hits),
        ("core.cache.stream.misses", c.stream_misses),
        ("core.cache.report.hits", c.report_hits),
        ("core.cache.report.misses", c.report_misses),
        ("serve.batch_cache.hits", report.batch_cache_hits),
        ("serve.batch_cache.misses", report.batch_cache_misses),
    ] {
        rec.add(name, v as f64);
    }
    // With the priced-batch cache on, every priced batch (committed or
    // a rejected governor trial) is exactly one lookup.
    rec.add(
        "serve.batches.priced",
        (report.batch_cache_hits + report.batch_cache_misses) as f64,
    );
    rec.add("serve.batches.committed", report.batches.len() as f64);
}

/// The memory requests streaming one request's input vector out of the
/// host buffer, as the runtime's fetch stage issues them: one read per
/// 64-byte burst on bank `tenant % banks`.
fn fetch_plan(engine: &C2mEngine, r: &ServeRequest) -> Vec<MemoryRequest> {
    let dram = &engine.config().dram;
    let row_bytes = dram.row_bits_per_rank() / 8;
    let bank = r.tenant % dram.banks;
    let base_row = (r.tenant / dram.banks) * 64;
    let bursts = r.k().div_ceil(64).max(1);
    (0..bursts)
        .map(|b| MemoryRequest::read(r.arrival_ns, bank, base_row + (b * 64) / row_bytes))
        .collect()
}

/// The request ids of each batch of a served run, in batch order.
fn batch_members(report: &ServeReport) -> Vec<Vec<usize>> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); report.batches.len()];
    for o in &report.outcomes {
        members[o.batch].push(o.id as usize);
    }
    members
}

/// Launches one batch's inputs as the runtime does: a lone request as a
/// GEMV, several as a batched GEMV.
fn launch(engine: &C2mEngine, xs: &[&[i64]]) -> ExecutionReport {
    if xs.len() == 1 {
        engine.ternary_gemv(xs[0], N)
    } else {
        engine.ternary_gemv_batch(xs, N)
    }
}

/// The input vectors of the requests `ids`.
fn batch_inputs<'a>(served: &Served<'a>, ids: &[usize]) -> Vec<&'a [i64]> {
    ids.iter()
        .map(|&id| served.requests[id].x.as_slice())
        .collect()
}

/// Untimed output checks of a served run: on every [`SAMPLE_EVERY`]-th
/// batch, a launch on the run's own shared cache must be bit-equal to an
/// uncached launch, and the uncached launch must reproduce the batch
/// time the run reported.
fn check_cached_launches(rec: &mut Recorder, served: &Served, cache: &Arc<PlanCache>) {
    let label = &served.label;
    let noc = uncached_engine();
    let cached = shared_engine(cache);
    let members = batch_members(&served.report);
    for (bi, (b, ids)) in served
        .report
        .batches
        .iter()
        .zip(&members)
        .enumerate()
        .step_by(SAMPLE_EVERY)
    {
        let xs = batch_inputs(served, ids);
        let cold = launch(&noc, &xs);
        let warm = launch(&cached, &xs);
        rec.checks
            .check(launch_bytes(&warm) == launch_bytes(&cold), || {
                format!("{label}: batch {bi} cached launch differs from uncached")
            });
        rec.checks
            .check(cold.elapsed_ns.to_bits() == b.exec_ns.to_bits(), || {
                format!("{label}: batch {bi} uncached launch time differs from the run's")
            });
    }
    rec.checks
        .check(noc.cache_stats() == CacheCounters::default(), || {
            format!("{label}: the uncached engine recorded cache traffic")
        });
}

/// State shared by the replays of one trace: each request's IARM
/// sequence count, so its IARM pass is timed once, and an engine whose
/// stream tier stays warm (report tier off), so a launch on it times the
/// fold alone.
struct TraceReplay {
    iarm: Vec<Option<u64>>,
    refold: C2mEngine,
}

impl TraceReplay {
    fn new(requests: usize) -> Self {
        Self {
            iarm: vec![None; requests],
            refold: C2mEngine::builder(engine_config())
                .cache(CacheConfig {
                    max_reports: 0,
                    ..CacheConfig::default()
                })
                .build(),
        }
    }
}

/// Replays one served run through each layer's public entry points.
fn replay(rec: &mut Recorder, run: u32, served: &Served, shared: &mut TraceReplay) {
    let report = &served.report;
    let cfg = &served.cfg;
    let label = &served.label;
    let noc = uncached_engine();
    let slices = noc
        .planner()
        .plan_inner(K)
        .shards
        .iter()
        .filter(|s| s.len > 0)
        .count();
    rec.set("jc.iarm.values_per_slice", (2 * K / slices) as f64);
    // A fresh named cache per replayed run: its first launch of a batch
    // must miss and the repeat must hit, which the replay asserts.
    let probe_cache = Arc::new(PlanCache::default());
    let warm = shared_engine(&probe_cache);
    let idle_w = {
        let e = noc.config();
        e.energy.system_background_power_w(&e.dram)
    };
    let mut fetch_q = RequestQueue::new(noc.config().timing, noc.config().dram.banks);
    let window = BatchWindow {
        window_ns: cfg.window_ns,
        max_wait_ns: cfg.max_wait_ns,
    };
    let mask_rows = noc.tenant_mask_rows(N, K);
    let mut residency = cfg.residency_rows.map(ResidencyModel::new);
    let members = batch_members(report);

    let (mut replayed_seqs, mut hits, mut accesses, mut reloads) = (0u64, 0u64, 0u64, 0usize);
    for (bi, (b, ids)) in report.batches.iter().zip(&members).enumerate() {
        let batch = rec.open("replay.batch", None, run);
        for &id in ids {
            let seqs = *shared.iarm[id].get_or_insert_with(|| {
                let x = &served.requests[id].x;
                rec.add("jc.iarm.values", (2 * x.len()) as f64);
                rec.time("jc.iarm", Some(batch), run, || {
                    noc.sequences_for_stream(&doubled_ternary(x))
                })
            });
            replayed_seqs += seqs;
        }
        let xs = batch_inputs(served, ids);
        let launch = |e: &C2mEngine| launch(e, &xs);
        rec.time("core.shard.plan", Some(batch), run, || {
            if xs.len() == 1 {
                noc.planner().plan_inner(K)
            } else {
                noc.planner().plan_rows(xs.len())
            }
        });
        let cold = rec.time("core.engine.launch", Some(batch), run, || launch(&noc));
        rec.checks
            .check(noc.cache_stats() == CacheCounters::default(), || {
                format!("{label}: the uncached engine recorded cache traffic")
            });
        rec.checks
            .check(cold.elapsed_ns.to_bits() == b.exec_ns.to_bits(), || {
                format!("{label}: batch {bi} replayed launch time differs from the run's")
            });
        let energy = cold.energy_nj + b.reload_energy_nj + idle_w * (b.reload_ns + cfg.dispatch_ns);
        rec.checks
            .check(energy.to_bits() == b.energy_nj.to_bits(), || {
                format!("{label}: batch {bi} replayed energy differs from the run's")
            });

        let _ = launch(&shared.refold);
        let before = shared.refold.cache_stats();
        let folded = rec.time("core.engine.fold", Some(batch), run, || {
            launch(&shared.refold)
        });
        let d = shared.refold.cache_stats().delta_since(&before);
        rec.checks.check(
            d.stream_hits > 0 && d.stream_misses == 0 && d.plan_misses == 0,
            || format!("{label}: batch {bi} re-fold ran IARM (stream-tier miss)"),
        );
        rec.checks
            .check(launch_bytes(&folded) == launch_bytes(&cold), || {
                format!("{label}: batch {bi} re-folded launch differs from uncached")
            });

        if bi % SAMPLE_EVERY == 0 {
            let before = warm.cache_stats();
            let first = launch(&warm);
            let d = warm.cache_stats().delta_since(&before);
            rec.checks
                .check(d.report_misses == 1 && d.report_hits == 0, || {
                    format!("{label}: batch {bi} first cached launch was not a report miss")
                });
            rec.checks
                .check(launch_bytes(&first) == launch_bytes(&cold), || {
                    format!("{label}: batch {bi} cached launch differs from uncached")
                });
            let before = warm.cache_stats();
            let hit = rec.time("core.cache.report.hit", Some(batch), run, || launch(&warm));
            rec.add("core.cache.report.hit.calls", 1.0);
            let d = warm.cache_stats().delta_since(&before);
            let only_a_hit = CacheCounters {
                report_hits: 1,
                ..CacheCounters::default()
            };
            rec.checks.check(d == only_a_hit, || {
                format!("{label}: batch {bi} repeated launch was not exactly one report hit")
            });
            rec.checks
                .check(launch_bytes(&hit) == launch_bytes(&cold), || {
                    format!("{label}: batch {bi} report hit differs from uncached launch")
                });
            rec.time("core.cache.report.key", Some(batch), run, || {
                for _ in 0..KEY_REPS {
                    std::hint::black_box(warm.report_key_words());
                }
            });
            rec.add("core.cache.report.key.calls", KEY_REPS as f64);
        }

        let mem: Vec<MemoryRequest> = ids
            .iter()
            .flat_map(|&id| fetch_plan(&noc, &served.requests[id]))
            .collect();
        let fetch = rec.time("dram.request_queue", Some(batch), run, || {
            fetch_q.run_batched(&mem, window)
        });
        accesses += fetch.completions.len() as u64;
        hits += fetch
            .completions
            .iter()
            .filter(|c| c.kind == AccessKind::RowHit)
            .count() as u64;

        if let Some(res) = residency.as_mut() {
            let outcome = rec.time("core.residency.touch", Some(batch), run, || {
                res.touch(b.tenant, mask_rows)
            });
            let rows = match outcome {
                ResidencyOutcome::Hit => 0,
                ResidencyOutcome::Reload { rows } => rows,
            };
            reloads += usize::from(rows > 0);
            rec.checks.check(rows == b.reload_rows, || {
                format!("{label}: batch {bi} replayed residency reload differs")
            });
        }
        rec.close(batch);
    }

    // Replay fidelity: the replay did the same work the run priced.
    let planned: f64 = report
        .batches
        .iter()
        .map(|b| b.plan_ns / cfg.host_ns_per_seq)
        .sum();
    rec.checks.check(planned == replayed_seqs as f64, || {
        format!("{label}: replayed IARM sequences {replayed_seqs} != run's {planned}")
    });
    let replay_hit_rate = hit_fraction(hits, accesses);
    rec.checks.check(
        replay_hit_rate.to_bits() == report.host_hit_rate.to_bits(),
        || {
            format!(
                "{label}: replayed fetch hit rate {replay_hit_rate} != run's {}",
                report.host_hit_rate
            )
        },
    );
    rec.checks.check(reloads == report.reload_count(), || {
        format!("{label}: replayed reloads {reloads} != run's")
    });
    rec.add("dram.request_queue.hits", hits as f64);
    rec.add("dram.request_queue.accesses", accesses as f64);
    rec.add("core.residency.reloads", reloads as f64);
}

/// Serves the trace-sink segment once plain and once with a recording
/// sink, on fresh private caches, and checks the two reports are
/// byte-equal.
fn trace_segment(rec: &mut Recorder, run: u32, cfg: &ServeConfig, segment: &[ServeRequest]) {
    let fresh = || {
        C2mEngine::builder(engine_config())
            .cache(CacheConfig::default())
            .build()
    };
    let plain = rec.time("trace.segment.plain", None, run, || {
        ServeRuntime::new(fresh(), cfg.clone()).run(segment)
    });
    let sink = Arc::new(RecordingSink::default());
    let traced = rec.time("trace.segment.traced", None, run, || {
        ServeRuntime::new(fresh(), cfg.clone())
            .with_trace(sink.clone())
            .run(segment)
    });
    let a = serde_json::to_string(&plain).expect("serialisable report");
    let b = serde_json::to_string(&traced).expect("serialisable report");
    rec.checks.check(a == b, || {
        "a traced serve report differs from the untraced one".into()
    });
    rec.add("trace.sink.dropped", sink.dropped() as f64);
}

/// Saves the run's shared cache as a store file and loads it back.
fn store_io(rec: &mut Recorder, run: u32, cache: &PlanCache, dir: &Path) {
    let path = dir.join(format!("store-{run}.c2mcache.json"));
    let saved = rec.time("core.store.save", None, run, || {
        CacheStore::save(&path, cache)
    });
    rec.checks.check(saved.is_ok(), || {
        format!("store save to {} failed", path.display())
    });
    let fresh = PlanCache::default();
    let loaded = rec.time("core.store.load", None, run, || {
        CacheStore::load_into(&path, &fresh)
    });
    rec.checks
        .check(loaded, || "a freshly saved store did not load".into());
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    rec.add("core.store.bytes", bytes as f64);
    let _ = std::fs::remove_file(&path);
}

/// Serves `segment` under `cfg` through a persistent store twice, on an
/// empty directory and then warm, returning both wall times. The two
/// runs must simulate the same outputs.
fn store_pair(
    rec: &mut Recorder,
    cfg: &ServeConfig,
    segment: &[ServeRequest],
    dir: &Path,
) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let path = dir.join("serve.c2mcache.json");
    let serve = || {
        let t = Instant::now();
        let rt = ServeRuntime::new(stored_engine(&path), cfg.clone());
        let report = rt.run(segment);
        let saved = rt.engine().save_cache();
        (t.elapsed().as_secs_f64(), report, saved)
    };
    let (cold_s, cold, saved_cold) = serve();
    let (warm_s, warm, saved_warm) = serve();
    rec.checks.check(
        matches!((saved_cold, saved_warm), (Ok(true), Ok(true))),
        || "the persistent store was not written".into(),
    );
    rec.checks
        .check(simulated_outputs(&cold) == simulated_outputs(&warm), || {
            "a warm store changed the simulated outputs".into()
        });
    let _ = std::fs::remove_dir_all(dir);
    (cold_s, warm_s)
}

/// End-to-end samples and outputs of one workload run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    host_us_per_req: Vec<f64>,
    cachedir_cold_s: Vec<f64>,
    cachedir_warm_s: Vec<f64>,
}

/// Keeps iterating while another iteration is expected to finish within
/// the run's time, and always runs at least one.
struct Clock {
    start: Instant,
    seconds: f64,
    iterations: u32,
}

impl Clock {
    fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            iterations: 0,
        }
    }

    fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let per_iteration = elapsed / f64::from(self.iterations.max(1));
        let go = self.iterations == 0 || elapsed + per_iteration <= self.seconds;
        if go {
            self.iterations += 1;
        }
        go
    }
}

/// Runs `setup` [`SETUP_REPS`] times, returning the last result and the
/// time each took.
fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Runs one serving workload and returns its result document.
pub fn run(workload: Workload, opts: &Opts) -> Value {
    let mut rec = Recorder::new();
    let mut samples = Samples::default();
    let (sim, digest, info) = match workload {
        Workload::Unique => unique(opts, &mut rec, &mut samples),
        Workload::Sweep => sweep(opts, &mut rec, &mut samples),
    };
    let floats = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Float(x)).collect());
    obj(vec![
        ("info", info),
        (
            "e2e",
            obj(vec![
                ("setup_s", floats(&samples.setup_s)),
                ("wall_s", floats(&samples.wall_s)),
                ("host_us_per_req", floats(&samples.host_us_per_req)),
                ("cachedir_cold_s", floats(&samples.cachedir_cold_s)),
                ("cachedir_warm_s", floats(&samples.cachedir_warm_s)),
                ("sim_p99_us", Value::Float(sim.p99_us)),
                ("sim_p99_samples", Value::Int(sim.samples as i128)),
                ("sim_uj_per_req", Value::Float(sim.uj_per_req)),
                ("sim_kreq_per_s", Value::Float(sim.kreq_per_s)),
            ]),
        ),
        ("digest", Value::Str(format!("{digest:016x}"))),
        ("spans", rec.spans_json()),
        ("counters", rec.counters_json()),
        ("checks", rec.checks_json()),
    ])
}

/// The open-loop trace and closed-loop configuration of serve_unique
/// iteration `it`: fresh seeds each time, so no input repeats across
/// phases or iterations and every content-keyed cache tier misses.
fn unique_inputs(seed: u64, it: u32) -> (Vec<ServeRequest>, ClosedLoopConfig) {
    let it = u64::from(it);
    (
        open_trace(UNIQUE_REQUESTS, UNIQUE_GAP_NS, sub_seed(seed, 2 * it + 1)),
        closed_config(sub_seed(seed, 2 * it + 2)),
    )
}

fn unique(opts: &Opts, rec: &mut Recorder, samples: &mut Samples) -> (SimMetrics, u64, Value) {
    let cfg = unique_config();
    let ((cache, runtime, mut inputs), setup_s) = repeated_setup(|| {
        let inputs = unique_inputs(opts.seed, 0);
        let cache = Arc::new(PlanCache::default());
        let runtime = ServeRuntime::new(shared_engine(&cache), cfg.clone());
        // Warm-up on inputs of its own seed: fills the plan tier and
        // pages the code in without pre-caching any timed input.
        let warmup = open_trace(WARMUP_REQUESTS, UNIQUE_GAP_NS, sub_seed(opts.seed, 0));
        let _ = runtime.run(&warmup);
        (cache, runtime, inputs)
    });
    samples.setup_s = setup_s;

    let mut sim = None;
    let mut digest = 0u64;
    let mut clock = Clock::new(opts.seconds);
    while clock.another() {
        let it = clock.iterations - 1;
        if it > 0 {
            inputs = unique_inputs(opts.seed, it);
        }
        let (trace, closed) = &inputs;
        let run = it;
        let open_rep = rec.time("serve.run.open", None, run, || runtime.run(trace));
        let open_s = rec.last_ns() as f64 / 1e9;
        let closed_rep = rec.time("serve.run.closed", None, run, || {
            runtime.run_closed_loop(closed)
        });
        let closed_s = rec.last_ns() as f64 / 1e9;
        let wall = open_s + closed_s;
        samples.wall_s.push(wall);
        samples
            .host_us_per_req
            .push(wall * 1e6 / (trace.len() + closed_rep.outcomes.len()) as f64);

        let closed_n = closed.clients * closed.requests_per_client;
        for (rep, n, phase) in [
            (&open_rep, trace.len(), "open"),
            (&closed_rep, closed_n, "closed"),
        ] {
            count_requests(rec, rep, n, &format!("serve_unique {phase} phase"));
            rec.checks.check(
                rep.engine_cache.report_hits == 0 && rep.batch_cache_hits == 0,
                || format!("serve_unique {phase} phase: an input repeated (cache hit)"),
            );
        }
        if it == 0 {
            sim = Some(SimMetrics::of(&open_rep));
            let mut bytes = simulated_outputs(&open_rep).into_bytes();
            bytes.extend(simulated_outputs(&closed_rep).into_bytes());
            digest = fnv1a(&bytes);
        }

        if opts.trace {
            count_caches(rec, &open_rep);
            count_caches(rec, &closed_rep);
            rec.add("jc.iarm.request_misses", (trace.len() + closed_n) as f64);
        }
        // The traced run replays every iteration; a timed run checks its
        // first iteration's outputs, untimed.
        if opts.trace || it == 0 {
            let closed_reqs = closed_requests(closed, &closed_rep);
            let runs = [
                Served {
                    label: "open".into(),
                    cfg: cfg.clone(),
                    report: open_rep,
                    requests: trace,
                    wall_s: open_s,
                },
                Served {
                    label: "closed".into(),
                    cfg: cfg.clone(),
                    report: closed_rep,
                    requests: &closed_reqs,
                    wall_s: closed_s,
                },
            ];
            for served in &runs {
                if opts.trace {
                    replay(
                        rec,
                        run,
                        served,
                        &mut TraceReplay::new(served.requests.len()),
                    );
                    rec.add("serve.run.wall_ns", served.wall_s * 1e9);
                } else {
                    check_cached_launches(rec, served, &cache);
                }
            }
            trace_segment(rec, run, &cfg, &trace[..TRACE_SEGMENT]);
        }
        if opts.trace {
            store_io(rec, run, &cache, &opts.out);
        } else {
            let (cold, warm) = store_pair(
                rec,
                &cfg,
                &trace[..STORE_SEGMENT],
                &opts.out.join(format!("store-{it}")),
            );
            samples.cachedir_cold_s.push(cold);
            samples.cachedir_warm_s.push(warm);
        }
    }
    rec.add("iterations", f64::from(clock.iterations));
    let info = obj(vec![
        ("workload", Value::Str("serve_unique".into())),
        ("requests_per_phase", Value::Int(UNIQUE_REQUESTS as i128)),
        (
            "open_loop",
            Value::Str(format!(
                "Poisson, mean gap {UNIQUE_GAP_NS} ns ({} kreq/s offered)",
                1e6 / UNIQUE_GAP_NS
            )),
        ),
        (
            "closed_loop",
            Value::Str(format!("{CLIENTS} clients, think {THINK_NS} ns")),
        ),
        (
            "serve_config",
            Value::Str(format!(
                "EDF, batch cap 8, window {WINDOW_NS} ns, {CHANNELS} channels, {TENANTS} tenants at K=N={K}"
            )),
        ),
        ("iterations", Value::Int(i128::from(clock.iterations))),
    ]);
    (sim.expect("at least one iteration"), digest, info)
}

fn policy_name(p: SchedPolicy) -> &'static str {
    match p {
        SchedPolicy::Fifo => "fifo",
        SchedPolicy::EarliestDeadlineFirst => "edf",
        SchedPolicy::PriorityWeighted => "prio",
    }
}

/// The serve_sweep grid: {FIFO, EDF, priority} × batch cap {1, 8} ×
/// power cap {none, tight}, all at a residency budget of two tenants'
/// masks (four are served). The tight cap sits at 40% of an uncapped
/// batched FIFO run's rolling-window excursion above the idle floor.
fn sweep_grid(trace: &[ServeRequest]) -> Vec<(String, ServeConfig)> {
    let probe_engine = C2mEngine::builder(engine_config())
        .cache(CacheConfig::default())
        .build();
    let budget = 2 * probe_engine.tenant_mask_rows(N, K);
    let base = |policy: SchedPolicy, max_batch: usize, cap: Option<f64>| ServeConfig {
        policy,
        max_batch,
        window_ns: if max_batch > 1 { WINDOW_NS } else { 0.0 },
        max_wait_ns: 10e6,
        residency_rows: Some(budget),
        power_budget_w: cap,
        ..ServeConfig::default()
    };
    let probe = ServeRuntime::new(probe_engine, base(SchedPolicy::Fifo, 8, None)).run(trace);
    let tight = probe.idle_floor_w + 0.4 * (probe.peak_window_power_w() - probe.idle_floor_w);
    let mut grid = Vec::new();
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::EarliestDeadlineFirst,
        SchedPolicy::PriorityWeighted,
    ] {
        for max_batch in [1usize, 8] {
            for (cap, cap_name) in [(None, "uncapped"), (Some(tight), "capped")] {
                grid.push((
                    format!("{}-b{max_batch}-{cap_name}", policy_name(policy)),
                    base(policy, max_batch, cap),
                ));
            }
        }
    }
    grid
}

/// The sweep's reference configuration, which the `sim_*` metrics and
/// the persistent-store pair use.
const SWEEP_REFERENCE: &str = "edf-b8-uncapped";

fn sweep(opts: &Opts, rec: &mut Recorder, samples: &mut Samples) -> (SimMetrics, u64, Value) {
    let ((trace, grid), setup_s) = repeated_setup(|| {
        let trace = open_trace(SWEEP_REQUESTS, SWEEP_GAP_NS, sub_seed(opts.seed, 1));
        let grid = sweep_grid(&trace);
        (trace, grid)
    });
    samples.setup_s = setup_s;
    let reference = grid
        .iter()
        .find(|(name, _)| name == SWEEP_REFERENCE)
        .map(|(_, cfg)| cfg.clone())
        .expect("the grid holds the reference config");

    let mut sim = None;
    let mut digest = 0u64;
    let mut clock = Clock::new(opts.seconds);
    while clock.another() {
        let it = clock.iterations - 1;
        // Each sweep starts from an empty shared cache, as a fresh
        // `fig_serve`-style process would: the first config pays the
        // IARM pass, later ones hit the stream tier.
        let run = it;
        let cache = Arc::new(PlanCache::default());
        let mut served = Vec::with_capacity(grid.len());
        for (name, cfg) in &grid {
            let runtime = ServeRuntime::new(shared_engine(&cache), cfg.clone());
            let report = rec.time(&format!("serve.sweep.{name}"), None, run, || {
                runtime.run(&trace)
            });
            served.push(Served {
                label: name.clone(),
                cfg: cfg.clone(),
                report,
                requests: &trace,
                wall_s: rec.last_ns() as f64 / 1e9,
            });
        }
        let wall: f64 = served.iter().map(|s| s.wall_s).sum();
        samples.wall_s.push(wall);
        samples
            .host_us_per_req
            .push(wall * 1e6 / (grid.len() * trace.len()) as f64);
        for s in &served {
            count_requests(
                rec,
                &s.report,
                trace.len(),
                &format!("serve_sweep {}", s.label),
            );
        }
        if it == 0 {
            let reference_run = served
                .iter()
                .find(|s| s.label == SWEEP_REFERENCE)
                .expect("reference config served");
            sim = Some(SimMetrics::of(&reference_run.report));
            let bytes: Vec<u8> = served
                .iter()
                .flat_map(|s| simulated_outputs(&s.report).into_bytes())
                .collect();
            digest = fnv1a(&bytes);
        }

        if opts.trace {
            rec.add("jc.iarm.request_misses", trace.len() as f64);
            let mut shared = TraceReplay::new(trace.len());
            for s in &served {
                count_caches(rec, &s.report);
                replay(rec, run, s, &mut shared);
                rec.add("serve.run.wall_ns", s.wall_s * 1e9);
            }
            trace_segment(rec, run, &reference, &trace[..TRACE_SEGMENT]);
            store_io(rec, run, &cache, &opts.out);
        } else {
            // A timed run checks its first iteration's outputs, untimed.
            if it == 0 {
                for s in &served {
                    check_cached_launches(rec, s, &cache);
                }
                trace_segment(rec, run, &reference, &trace[..TRACE_SEGMENT]);
            }
            let (cold, warm) = store_pair(
                rec,
                &reference,
                &trace[..STORE_SEGMENT],
                &opts.out.join(format!("store-{it}")),
            );
            samples.cachedir_cold_s.push(cold);
            samples.cachedir_warm_s.push(warm);
        }
    }
    rec.add("iterations", f64::from(clock.iterations));
    let info = obj(vec![
        ("workload", Value::Str("serve_sweep".into())),
        ("requests", Value::Int(SWEEP_REQUESTS as i128)),
        (
            "open_loop",
            Value::Str(format!(
                "Poisson, mean gap {SWEEP_GAP_NS} ns ({} kreq/s offered)",
                1e6 / SWEEP_GAP_NS
            )),
        ),
        (
            "configs",
            Value::Array(grid.iter().map(|(n, _)| Value::Str(n.clone())).collect()),
        ),
        ("reference_config", Value::Str(SWEEP_REFERENCE.into())),
        ("iterations", Value::Int(i128::from(clock.iterations))),
    ]);
    (sim.expect("at least one iteration"), digest, info)
}

/// Serves `reqs` once per seed and returns the simulated-output digest:
/// the same seed must give the same digest, whatever the cache state.
#[cfg(test)]
fn digest_of(seed: u64, requests: usize) -> u64 {
    let trace = open_trace(requests, UNIQUE_GAP_NS, seed);
    let cache = Arc::new(PlanCache::default());
    let rep = ServeRuntime::new(shared_engine(&cache), unique_config()).run(&trace);
    fnv1a(simulated_outputs(&rep).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_traces_are_deterministic() {
        let (a_open, a_closed) = unique_inputs(42, 3);
        let (b_open, b_closed) = unique_inputs(42, 3);
        assert_eq!(a_open, b_open);
        assert_eq!(a_closed, b_closed);
        let (c_open, _) = unique_inputs(43, 3);
        assert_ne!(a_open, c_open, "another seed gives other inputs");
    }

    #[test]
    fn unique_inputs_never_repeat_across_phases_or_iterations() {
        let mut seen = std::collections::BTreeSet::new();
        for it in 0..3 {
            let (open, closed) = unique_inputs(7, it);
            for r in &open {
                assert!(seen.insert(r.x.clone()), "open input repeated");
            }
            for id in 0..(closed.clients * closed.requests_per_client) as u64 {
                assert!(
                    seen.insert(request_input(K, closed.seed, id)),
                    "closed input repeated"
                );
            }
        }
    }

    #[test]
    fn simulated_outputs_repeat_exactly_for_a_seed() {
        assert_eq!(digest_of(5, 64), digest_of(5, 64));
        assert_ne!(digest_of(5, 64), digest_of(6, 64));
    }

    #[test]
    fn replay_reproduces_a_served_run() {
        let trace = open_trace(96, UNIQUE_GAP_NS, 11);
        let grid = sweep_grid(&trace);
        let mut rec = Recorder::new();
        // fifo at batch cap 1 and 8, each uncapped and power-capped.
        for (name, cfg) in grid.iter().take(4) {
            let cache = Arc::new(PlanCache::default());
            let report = ServeRuntime::new(shared_engine(&cache), cfg.clone()).run(&trace);
            let served = Served {
                label: name.clone(),
                cfg: cfg.clone(),
                report,
                requests: &trace,
                wall_s: 0.0,
            };
            replay(&mut rec, 0, &served, &mut TraceReplay::new(trace.len()));
        }
        assert!(rec.checks.attempted > 0);
        assert_eq!(rec.checks.failed, 0, "{:?}", rec.checks.failures);
    }

    #[test]
    fn cached_launches_match_uncached_ones() {
        let trace = open_trace(96, UNIQUE_GAP_NS, 13);
        let cache = Arc::new(PlanCache::default());
        let report = ServeRuntime::new(shared_engine(&cache), unique_config()).run(&trace);
        let served = Served {
            label: "open".into(),
            cfg: unique_config(),
            report,
            requests: &trace,
            wall_s: 0.0,
        };
        let mut rec = Recorder::new();
        check_cached_launches(&mut rec, &served, &cache);
        assert!(rec.checks.attempted > 1);
        assert_eq!(rec.checks.failed, 0, "{:?}", rec.checks.failures);
    }

    #[test]
    fn lost_and_duplicated_requests_are_counted() {
        let trace = open_trace(16, UNIQUE_GAP_NS, 3);
        let cache = Arc::new(PlanCache::default());
        let mut report = ServeRuntime::new(shared_engine(&cache), unique_config()).run(&trace);
        assert_eq!(lost_requests(&report, 16), 0);
        // One request served twice, another never.
        report.outcomes[1] = report.outcomes[0];
        assert_eq!(lost_requests(&report, 16), 2);
        assert_eq!(lost_requests(&report, 17), 3, "an id never served is lost");
    }

    #[test]
    fn closed_loop_requests_are_rebuilt_from_outcomes() {
        let cfg = ClosedLoopConfig {
            clients: 4,
            requests_per_client: 3,
            ..closed_config(9)
        };
        let cache = Arc::new(PlanCache::default());
        let report =
            ServeRuntime::new(shared_engine(&cache), unique_config()).run_closed_loop(&cfg);
        let reqs = closed_requests(&cfg, &report);
        assert_eq!(lost_requests(&report, 12), 0);
        let served = Served {
            label: "closed".into(),
            cfg: unique_config(),
            report,
            requests: &reqs,
            wall_s: 0.0,
        };
        let mut rec = Recorder::new();
        replay(&mut rec, 0, &served, &mut TraceReplay::new(12));
        assert_eq!(rec.checks.failed, 0, "{:?}", rec.checks.failures);
    }
}
