//! The discrete-event serving runtime: clock-driven batch admission,
//! host fetch pricing, (optionally overlapped) host planning, tenant
//! residency and engine execution.
//!
//! The pipeline per batch is
//!
//! ```text
//! admit (scheduler, at a dispatch instant) → fetch (FR-FCFS batched
//! host queue) → plan (IARM, host CPU) → [mask reload] → execute
//! ```
//!
//! **Admission is clock-driven.** A batch is formed *at* a dispatch
//! instant — the time the host is free to take the next batch (previous
//! execution done, or previous *plan* done under
//! [`ServeConfig::async_planner`]) — and may only admit requests that
//! have actually arrived by that instant. The scheduler never sees the
//! future: a request arriving one nanosecond after the dispatch instant
//! waits for the next batch, exactly like a memory request arriving
//! after the controller issued.
//!
//! Which arrived request seeds the batch is the pluggable
//! [`SchedPolicy`]:
//!
//! * [`SchedPolicy::Fifo`] — oldest arrival first (seed-faithful: with
//!   `max_batch == 1`, synchronous planning and a 1-channel/1-rank
//!   engine, every request prices as the seed
//!   [`C2mEngine::ternary_gemv`] path does, bit-for-bit, through
//!   [`C2mEngine::fold_ternary_gemv`]).
//! * [`SchedPolicy::EarliestDeadlineFirst`] — earliest absolute
//!   deadline ([`ServeRequest::deadline_ns`]) first.
//! * [`SchedPolicy::PriorityWeighted`] — highest
//!   [`ServiceClass::priority`](crate::request::ServiceClass) first,
//!   except that a request waiting longer than
//!   [`ServeConfig::max_wait_ns`] is served oldest-first regardless of
//!   class — the same starvation cap
//!   [`c2m_dram::BatchWindow::max_wait_ns`] applies to row hits in the
//!   fetch queue.
//!
//! Same-tenant same-shape requests that arrived by the dispatch instant
//! coalesce with the seed (up to [`ServeConfig::max_batch`], within
//! [`ServeConfig::window_ns`] of the seed's arrival) into one engine
//! launch ([`C2mEngine::fold_ternary_gemv_batch`]), amortising the
//! per-dispatch overhead; the host fetch of the batch's input vectors
//! is priced through [`RequestQueue::run_batched`].
//!
//! **Pricing pays for new work only.** A batch's content-only price —
//! its planned sequence count and its launch — memoises in the
//! priced-batch [`Memo`] ([`ServeConfig::batch_cache`]). A memo miss
//! prices through the engine's folds: the plan tier returns the shard
//! plan, the stream tier each request's sequence count, and the shards
//! fold on the calling thread. The engine's report tier is never read
//! or written by serving; the memo already returns repeated batches,
//! and a report key (the whole batch plus the engine's configuration
//! words) costs more to build than the fold it would save.
//!
//! **Tenant weight residency** ([`ServeConfig::residency_rows`]) makes
//! tenant switches real: a [`ResidencyModel`] tracks which tenants'
//! mask planes still fit in the CIM subarrays, and dispatching a
//! non-resident tenant pays a mask-plane reload
//! ([`C2mEngine::mask_reload_ns`]) on the engine's critical path — the
//! serving-layer analogue of a row-buffer conflict. The scheduler
//! therefore faces a genuine affinity-vs-deadline trade-off.
//!
//! **Energy accounting** rides the engine's per-launch
//! [`c2m_dram::ExecutionReport::energy_nj`]: every batch records the joules of its
//! pipeline occupancy (launch energy, mask-reload energy for residency
//! misses — priced in *joules* here, not just time — and background
//! power over the dispatch overhead), gaps between batches burn the
//! module's static idle floor, and the report carries a rolling-window
//! power timeline alongside the queue-depth timeline.
//!
//! **Power-capped admission** ([`ServeConfig::power_budget_w`]): before
//! committing a batch, the scheduler projects the rolling-window
//! average power at the batch's completion. If it would exceed the cap
//! the batch *shrinks* (latest-arriving coalesced mates return to the
//! ready set; the policy-chosen seed is kept, so capping composes with
//! every [`SchedPolicy`]), and if even a lone request would breach it
//! the dispatch is *deferred* until enough of the window has drained.
//! With `power_budget_w: None` every batch commits as first formed.

use crate::ready::{fcfs, PendingQueue};
use crate::report::{BatchRecord, PowerSample, QueueSample, RequestOutcome, ServeReport};
use crate::request::ServeRequest;
use crate::traffic::{request_input, ClosedLoopConfig};
use c2m_core::cache::Memo;
use c2m_core::engine::C2mEngine;
use c2m_core::residency::{ResidencyModel, ResidencyOutcome};
use c2m_dram::{hit_fraction, BatchWindow, CacheCounters, MemoryRequest, RequestQueue};
use c2m_trace::{TraceEvent, TraceSink, Track};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;

/// Batch admission policy: which arrived request seeds the next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedPolicy {
    /// Oldest arrival first — the seed-faithful baseline.
    #[default]
    Fifo,
    /// Earliest absolute deadline first.
    EarliestDeadlineFirst,
    /// Highest service-class priority first, starvation-capped: any
    /// request waiting longer than [`ServeConfig::max_wait_ns`] is
    /// served oldest-first before any younger higher-class request.
    PriorityWeighted,
}

/// Serving-runtime configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Batch coalescing window, ns: a batch admits same-tenant requests
    /// that arrived within this window after its seed's arrival (and by
    /// the dispatch instant — the window never reaches into the future).
    pub window_ns: f64,
    /// Hard cap on requests per batch.
    pub max_batch: usize,
    /// Starvation cap, ns, applied at both layers: in the host fetch
    /// queue (FR-FCFS bypass bound) and by
    /// [`SchedPolicy::PriorityWeighted`] (class bypass bound).
    pub max_wait_ns: f64,
    /// Host planning cost per broadcast command sequence, ns (digit
    /// unpacking + IARM bookkeeping on the host CPU).
    pub host_ns_per_seq: f64,
    /// Fixed host→controller launch overhead per dispatched batch, ns.
    pub dispatch_ns: f64,
    /// Double-buffer the planner: plan batch *i+1* during execution of
    /// batch *i* instead of serialising planning with the command
    /// stream. Admission then happens at plan pickup, so batch *i+1*'s
    /// contents are fixed when its planning starts.
    pub async_planner: bool,
    /// Admission policy.
    pub policy: SchedPolicy,
    /// Tenant weight residency: `Some(rows)` models an LRU mask-plane
    /// budget of `rows` CIM subarray rows, charging
    /// [`C2mEngine::mask_reload_ns`] whenever a dispatched tenant is
    /// not resident. `None` (seed-faithful) assumes every tenant stays
    /// resident for free. [`C2mEngine::residency_capacity_rows`] derives
    /// the budget from the engine's actual geometry. Must be positive
    /// and a multiple of `residency_slots`, so every slot owns the same
    /// whole number of rows.
    pub residency_rows: Option<usize>,
    /// Subarray slots the residency budget splits over — one per
    /// (channel, rank, SALP stream) when the engine runs with
    /// subarray-level parallelism
    /// ([`C2mEngine::residency_slots`] derives the count from the
    /// engine's topology). Each slot holds `residency_rows / slots`
    /// rows, so the budget must be a multiple of the slot count
    /// ([`ServeRuntime::new`] rejects one that is not). A tenant's mask
    /// spreads evenly over every slot, so its footprint rounds up to a
    /// whole `⌈rows/slots⌉` share per slot and a reload restreams every
    /// slot's share. 1 (the default) keeps the footprint unrounded.
    /// Ignored when `residency_rows` is `None`.
    pub residency_slots: usize,
    /// Power-capped admission: `Some(cap)` defers or shrinks a batch
    /// whenever the average power over the 1 ms window before its
    /// completion ([`ServeReport::power_window_ns`]) would exceed `cap`
    /// watts. Must sit above the module's static
    /// idle floor
    /// ([`c2m_dram::EnergyModel::system_background_power_w`]) — below
    /// it no schedule complies. A cap that even a *lone* request
    /// breaches with a fully drained window is infeasible for the
    /// workload: the scheduler saturates (waits out the window, then
    /// runs the request anyway) rather than stall forever, and the
    /// breach is visible as
    /// [`ServeReport::peak_window_power_w`](crate::report::ServeReport::peak_window_power_w)
    /// exceeding the cap. `None` (seed-faithful) admits on latency
    /// policy alone.
    pub power_budget_w: Option<f64>,
    /// Memoise the pure part of batch pricing (host planning cost and
    /// engine execution) on the batch's exact content — tenant, output
    /// width and member input vectors — in a [`Memo`] of 4096 entries.
    /// Observational only: cached and uncached serving are bit-for-bit
    /// identical, because the stateful fetch-queue and residency
    /// pricing always run live. Disable for cache-equivalence testing.
    pub batch_cache: bool,
}

impl Default for ServeConfig {
    /// The seed-faithful configuration — the single place field
    /// defaults live:
    ///
    /// | field | default | meaning |
    /// |---|---|---|
    /// | `window_ns` | `0.0` | no coalescing window |
    /// | `max_batch` | `1` | one request per dispatch |
    /// | `max_wait_ns` | [`BatchWindow::DEFAULT_MAX_WAIT_NS`] | FR-FCFS starvation cap |
    /// | `host_ns_per_seq` | `25.0` | host planning cost per sequence |
    /// | `dispatch_ns` | `2_000.0` | per-batch launch overhead |
    /// | `async_planner` | `false` | planning serialises with execution |
    /// | `policy` | [`SchedPolicy::Fifo`] | oldest arrival first |
    /// | `residency_rows` | `None` | tenants stay resident for free |
    /// | `residency_slots` | `1` | one flat module-wide budget |
    /// | `power_budget_w` | `None` | no power cap |
    /// | `batch_cache` | `true` | memoise pure batch pricing |
    fn default() -> Self {
        Self {
            window_ns: 0.0,
            max_batch: 1,
            max_wait_ns: BatchWindow::DEFAULT_MAX_WAIT_NS,
            host_ns_per_seq: 25.0,
            dispatch_ns: 2_000.0,
            async_planner: false,
            policy: SchedPolicy::Fifo,
            residency_rows: None,
            residency_slots: 1,
            power_budget_w: None,
            batch_cache: true,
        }
    }
}

impl ServeConfig {
    /// The engine-independent invariants [`ServeRuntime::new`] asserts.
    fn validate(&self) -> Result<(), String> {
        if self.max_batch < 1 {
            return Err("batches hold at least one request".into());
        }
        if self.window_ns.is_nan() || self.window_ns < 0.0 {
            return Err("window must be non-negative".into());
        }
        if self.max_wait_ns.is_nan() || self.max_wait_ns < 0.0 {
            return Err("starvation cap must be non-negative (+∞ for no cap)".into());
        }
        if !self.host_ns_per_seq.is_finite() || self.host_ns_per_seq < 0.0 {
            return Err("host planning cost per sequence must be finite and non-negative".into());
        }
        if !self.dispatch_ns.is_finite() || self.dispatch_ns < 0.0 {
            return Err("dispatch overhead must be finite and non-negative".into());
        }
        if self.residency_rows == Some(0) {
            return Err("residency budget must be positive".into());
        }
        if self.residency_slots == 0 {
            return Err("residency slots must be positive".into());
        }
        if let Some(rows) = self.residency_rows {
            if !rows.is_multiple_of(self.residency_slots) {
                return Err(format!(
                    "residency budget of {rows} rows is not a multiple of the {} residency slots",
                    self.residency_slots
                ));
            }
        }
        Ok(())
    }
}

/// The rolling window the power timeline and the power cap average
/// over: 1 ms, ns.
const POWER_WINDOW_NS: f64 = 1e6;

/// Entries the priced-batch memo holds before it clears (epoch
/// eviction; a full epoch is far larger than any steady-state working
/// set).
const BATCH_PRICE_CAP: usize = 4096;

/// The memoised pure pricing of one batch composition.
#[derive(Debug, Clone, Copy)]
struct BatchPrice {
    /// Σ over members of the planned sequence count, as the f64 sum the
    /// runtime folds (multiply by `host_ns_per_seq` for plan time).
    plan_seqs: f64,
    /// Engine launch latency, ns.
    exec_ns: f64,
    /// Engine launch energy, nJ.
    exec_energy_nj: f64,
}

/// The priced-batch key of `batch`: `[tenant, n, members]`, then each
/// member's input vector, length-prefixed, in dispatch (FCFS) order.
fn batch_key(batch: &[ServeRequest]) -> Box<[u64]> {
    let len = 3 + batch.iter().map(|r| 1 + r.x.len()).sum::<usize>();
    let mut key = Vec::with_capacity(len);
    key.extend([
        batch[0].tenant as u64,
        batch[0].n as u64,
        batch.len() as u64,
    ]);
    for r in batch {
        key.push(r.x.len() as u64);
        key.extend(r.x.iter().map(|&v| v as u64));
    }
    key.into_boxed_slice()
}

/// The serving runtime: owns a configured engine and prices request
/// traces through the admit → fetch → plan → execute pipeline.
///
/// Clones share the priced-batch memo (and, through the engine, the
/// plan/pricing cache), so clones warm each other.
#[derive(Debug, Clone)]
pub struct ServeRuntime {
    engine: C2mEngine,
    cfg: ServeConfig,
    /// Priced batches; a cap of 0 (`batch_cache: false`) disables it.
    batch_prices: Arc<Memo<Box<[u64]>, BatchPrice>>,
    trace: Option<Arc<dyn TraceSink>>,
}

/// Cumulative cache tallies at the start of a run. Subtracted from the
/// end-of-run totals so each [`ServeReport`] carries only the hits and
/// misses that run generated.
#[derive(Debug, Clone, Copy)]
struct CacheBaseline {
    batch_hits: u64,
    batch_misses: u64,
    engine: CacheCounters,
}

/// Pipeline clock state threaded through batch dispatches.
#[derive(Debug)]
struct Pipeline {
    planner_free: f64,
    engine_free: f64,
    hits: u64,
    accesses: u64,
    residency: Option<ResidencyModel>,
    /// Committed busy intervals `(exec_start, exec_done, energy_nj)`,
    /// in dispatch order — the integrand of the rolling power window.
    busy: Vec<(f64, f64, f64)>,
    /// Power governor: no dispatch may be admitted before this instant.
    defer_until: f64,
}

/// One batch's priced pipeline traversal, before commitment.
#[derive(Debug, Clone, Copy)]
struct Priced {
    fetch_done: f64,
    plan_ns: f64,
    reload_rows: usize,
    reload_ns: f64,
    reload_energy_nj: f64,
    exec_ns: f64,
    exec_energy_nj: f64,
    hits: u64,
    accesses: u64,
}

/// Average power over the rolling window `[t − POWER_WINDOW_NS, t]`:
/// committed busy intervals (plus an optional uncommitted candidate)
/// contribute their energy pro-rata to the overlap, everything else —
/// including the pre-trace history before t = 0, when the module sat
/// powered but idle — burns the idle floor. The window is always
/// full-width, so compliance means the same thing at the start of a
/// trace as in steady state.
fn window_avg_power_w(
    busy: &[(f64, f64, f64)],
    candidate: Option<(f64, f64, f64)>,
    idle_floor_w: f64,
    t: f64,
) -> f64 {
    let lo = t - POWER_WINDOW_NS;
    let mut energy = 0.0;
    let mut busy_in = 0.0;
    for &(s, d, e) in busy.iter().chain(candidate.iter()) {
        let ov = (d.min(t) - s.max(lo)).max(0.0);
        if ov > 0.0 && d > s {
            energy += e * ov / (d - s);
            busy_in += ov;
        }
    }
    (energy + idle_floor_w * (POWER_WINDOW_NS - busy_in).max(0.0)) / POWER_WINDOW_NS
}

impl ServeRuntime {
    /// Creates a runtime over `engine` with the given policy.
    ///
    /// # Panics
    ///
    /// Panics on a zero batch cap, negative window, NaN or negative
    /// starvation cap, negative or non-finite host planning cost or
    /// dispatch overhead, zero residency budget or slot count, a
    /// residency budget that is not a multiple of the slot count, or a
    /// power cap at or below the module's static idle floor (no
    /// schedule can comply: the ranks burn that much doing nothing).
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented panic contract of ServeRuntime::new: no schedule exists for an invalid config"
    )]
    pub fn new(engine: C2mEngine, cfg: ServeConfig) -> Self {
        if let Err(m) = cfg.validate() {
            panic!("{m}");
        }
        if let Some(cap) = cfg.power_budget_w {
            let ecfg = engine.config();
            let floor = ecfg.energy.system_background_power_w(&ecfg.dram);
            assert!(
                cap > floor,
                "power budget {cap} W is not above the module's static idle \
                 floor {floor} W — no schedule can comply"
            );
        }
        let cap = if cfg.batch_cache { BATCH_PRICE_CAP } else { 0 };
        Self {
            engine,
            cfg,
            batch_prices: Arc::new(Memo::new(cap)),
            trace: None,
        }
    }

    /// Attaches a trace sink, threading it through every layer the
    /// runtime drives: serve-pipeline lifecycle spans here, launch
    /// spans in the owned engine, and per-bank access spans in each
    /// host fetch queue the runtime spins up. Tracing is observational
    /// only — reports are bit-identical with or without a sink.
    ///
    /// Every batch is priced on a *trial* clone of the fetch queue that
    /// keeps the sink, and the accepted clone is committed. Under a
    /// power cap, rejected governor candidates therefore show in the
    /// trace as extra fetch spans — deliberately, since the point of
    /// tracing is to see what the governor actually tried.
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.engine.set_trace(Arc::clone(&sink));
        self.trace = Some(sink);
        self
    }

    /// Static background power of the served module, W: every rank of
    /// the engine's topology burns it whether or not it computes.
    #[must_use]
    pub fn idle_floor_w(&self) -> f64 {
        let ecfg = self.engine.config();
        ecfg.energy.system_background_power_w(&ecfg.dram)
    }

    /// The engine being served.
    #[must_use]
    pub fn engine(&self) -> &C2mEngine {
        &self.engine
    }

    /// The serving policy in force.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serves an open-loop trace (arrivals fixed in advance) and
    /// reports per-request latencies, batch records and queue depth.
    pub fn run(&self, requests: &[ServeRequest]) -> ServeReport {
        self.serve(requests.iter().cloned(), |_, _| Vec::new())
    }

    /// Serves closed-loop traffic: each of `cfg.clients` clients waits
    /// for its previous request to complete, thinks for
    /// `cfg.think_ns`, then issues the next, `cfg.requests_per_client`
    /// times. Queue depth is sampled over *issued* requests.
    ///
    /// # Panics
    ///
    /// Panics if the tenant list is empty, or if the think time is NaN,
    /// infinite or negative.
    pub fn run_closed_loop(&self, cfg: &ClosedLoopConfig) -> ServeReport {
        assert!(!cfg.tenants.is_empty(), "at least one tenant required");
        // A negative think time would issue requests in the past, and
        // the depth sampling needs arrivals issued in order.
        assert!(
            cfg.think_ns.is_finite() && cfg.think_ns >= 0.0,
            "think time must be finite and non-negative"
        );
        let mut remaining = vec![cfg.requests_per_client; cfg.clients];
        // Ids are issued sequentially, so `client_of[id]` recovers the
        // owning client without threading tuples through the batcher.
        let mut client_of: Vec<usize> = Vec::new();
        let mut issue = |client: usize, arrival: f64, client_of: &mut Vec<usize>| {
            if remaining[client] == 0 {
                return None;
            }
            remaining[client] -= 1;
            let tenant = client % cfg.tenants.len();
            let spec = cfg.tenants[tenant];
            let id = client_of.len() as u64;
            client_of.push(client);
            Some(ServeRequest {
                id,
                arrival_ns: arrival,
                tenant,
                class: spec.class,
                n: spec.n,
                x: request_input(spec.k, cfg.seed, id),
            })
        };
        // Every client fires its first request at t = 0; served clients
        // think, then issue their next request.
        let first: Vec<ServeRequest> = (0..cfg.clients)
            .filter_map(|c| issue(c, 0.0, &mut client_of))
            .collect();
        self.serve(first, |batch, done| {
            batch
                .iter()
                .filter_map(|r| {
                    let client = client_of[r.id as usize];
                    issue(client, done + cfg.think_ns, &mut client_of)
                })
                .collect()
        })
    }

    /// The serve loop behind [`Self::run`] and [`Self::run_closed_loop`]:
    /// dispatches batches until no request is pending, sampling the
    /// queue depth over the issued arrivals at every completion. After
    /// each batch, `next(batch, exec_done_ns)` returns the requests its
    /// completion issues; none may arrive before a request issued
    /// earlier, so the issued arrivals stay sorted.
    fn serve(
        &self,
        requests: impl IntoIterator<Item = ServeRequest>,
        mut next: impl FnMut(&[ServeRequest], f64) -> Vec<ServeRequest>,
    ) -> ServeReport {
        let cache_base = self.cache_baseline();
        let mut q = PendingQueue::new(self.cfg.policy);
        let mut arrivals = Vec::new();
        for r in requests {
            arrivals.push(r.arrival_ns);
            q.push(r);
        }
        arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite arrivals"));

        let mut fetch_q = self.fetch_queue();
        let mut pipe = self.pipeline();
        let mut report = self.report_shell();
        while !q.is_empty() {
            let batch = self.admit_and_dispatch(&mut q, &mut fetch_q, &mut pipe, &mut report);
            let done = report.batches.last().expect("batch recorded").exec_done_ns;
            for r in next(&batch, done) {
                arrivals.push(r.arrival_ns);
                q.push(r);
            }
            let arrived = arrivals.partition_point(|&a| a <= done);
            let depth = arrived - report.outcomes.len();
            self.sample_queue_depth(&mut report, done, depth);
        }
        if report.batches.len() == 1 {
            let formed = report.batches[0].formed_ns;
            let depth = arrivals.partition_point(|&a| a <= formed);
            self.backfill_formation_sample(&mut report, formed, depth);
        }
        report.host_hit_rate = hit_fraction(pipe.hits, pipe.accesses);
        self.stamp_cache_counters(&mut report, &cache_base);
        report
    }

    /// Books a queue-depth sample, mirroring it onto the trace's
    /// request-track counter series when a sink is attached.
    fn sample_queue_depth(&self, report: &mut ServeReport, t_ns: f64, depth: usize) {
        report.queue_depth.push(QueueSample { t_ns, depth });
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent::Counter {
                t_ns,
                name: "queue_depth",
                cat: "serve",
                track: Track::serve(0),
                value: depth as f64,
            });
        }
    }

    /// A run that dispatched exactly one batch otherwise samples the
    /// queue only at that batch's completion — where the depth is
    /// already drained to the stragglers — leaving
    /// [`ServeReport::peak_queue_depth`] degenerate (it never sees the
    /// backlog the batch actually served). Prepend a sample at the
    /// formation instant, when every admitted request was queued and
    /// none had completed, so the single-batch timeline is well-defined
    /// for both the queue-depth peak and the power window it brackets.
    fn backfill_formation_sample(&self, report: &mut ServeReport, formed_ns: f64, depth: usize) {
        report.queue_depth.insert(
            0,
            QueueSample {
                t_ns: formed_ns,
                depth,
            },
        );
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent::Counter {
                t_ns: formed_ns,
                name: "queue_depth",
                cat: "serve",
                track: Track::serve(0),
                value: depth as f64,
            });
        }
    }

    /// The cumulative cache tallies (priced-batch and engine
    /// plan/stream/report) right now — snapshotted at run start so a
    /// finished report can carry per-run deltas.
    fn cache_baseline(&self) -> CacheBaseline {
        CacheBaseline {
            batch_hits: self.batch_prices.hits(),
            batch_misses: self.batch_prices.misses(),
            engine: self.engine.cache_stats(),
        }
    }

    /// Stamps the cache tallies accumulated *during this run* (current
    /// cumulative totals minus the run-start `base` snapshot) into a
    /// finished report. Observational only: back-to-back runs on one
    /// runtime each report only their own hits and misses, not the
    /// runtime's lifetime totals.
    fn stamp_cache_counters(&self, report: &mut ServeReport, base: &CacheBaseline) {
        report.batch_cache_hits = self.batch_prices.hits() - base.batch_hits;
        report.batch_cache_misses = self.batch_prices.misses() - base.batch_misses;
        report.engine_cache = self.engine.cache_stats().delta_since(&base.engine);
    }

    /// A fresh FR-FCFS queue over the engine's host-visible banks,
    /// wired to the runtime's trace sink when one is attached.
    fn fetch_queue(&self) -> RequestQueue {
        let cfg = self.engine.config();
        let mut q = RequestQueue::new(cfg.timing, cfg.dram.banks);
        if let Some(sink) = &self.trace {
            q.set_trace(Arc::clone(sink));
        }
        q
    }

    /// Fresh pipeline clock state, with the residency tracker when the
    /// policy models one.
    fn pipeline(&self) -> Pipeline {
        Pipeline {
            planner_free: 0.0,
            engine_free: 0.0,
            hits: 0,
            accesses: 0,
            residency: self.cfg.residency_rows.map(|rows| {
                // The budget is module-wide; each slot owns an even
                // share (`validate` guarantees it divides).
                let slots = self.cfg.residency_slots;
                ResidencyModel::with_slots(slots, rows / slots)
            }),
            busy: Vec::new(),
            defer_until: 0.0,
        }
    }

    /// A report shell carrying the run's energy-accounting constants.
    fn report_shell(&self) -> ServeReport {
        ServeReport {
            idle_floor_w: self.idle_floor_w(),
            power_window_ns: POWER_WINDOW_NS,
            ..ServeReport::default()
        }
    }

    /// Forms the next batch at the dispatch instant implied by `t_free`
    /// (the time the host can take a new batch): admission moves every
    /// request arrived by that instant into the ready set, the policy
    /// picks the seed among them, and same-tenant same-shape ready
    /// requests within the window of the seed's arrival join, up to the
    /// cap. The seed and its mates are read off the ready set's indexes,
    /// so forming a batch never scans the backlog.
    ///
    /// Requests arriving *after* the dispatch instant are not eligible
    /// — the fix for the seed batcher's clairvoyance bug, which let a
    /// batch seeded on an idle engine coalesce requests arriving up to
    /// `window_ns` later.
    ///
    /// Returns the batch (FCFS order), the admission instant, and the
    /// seed's position in the batch (the member a shrinking power
    /// governor must keep).
    fn form_batch(&self, q: &mut PendingQueue, t_free: f64) -> (Vec<ServeRequest>, f64, usize) {
        debug_assert!(!q.is_empty());
        let formed = t_free.max(q.earliest_arrival());
        q.admit_until(formed);
        let seed = q
            .take_seed(formed, self.cfg.max_wait_ns)
            .expect("admission must free a request");
        let mut batch = q.take_mates(&seed, self.cfg.window_ns, self.cfg.max_batch - 1);
        let seed_at = batch.partition_point(|m| fcfs(m, &seed) == Ordering::Less);
        batch.insert(seed_at, seed);
        (batch, formed, seed_at)
    }

    /// Forms and dispatches the next batch, governing admission by the
    /// power cap; with no cap the first candidate commits. Returns the
    /// served batch.
    fn admit_and_dispatch(
        &self,
        q: &mut PendingQueue,
        fetch_q: &mut RequestQueue,
        pipe: &mut Pipeline,
        report: &mut ServeReport,
    ) -> Vec<ServeRequest> {
        loop {
            let t_free = pipe.planner_free.max(pipe.defer_until);
            let (mut batch, formed, mut seed_at) = self.form_batch(q, t_free);
            loop {
                // Trial-price against clones: a rejected candidate must
                // not advance the fetch queue's row state or the LRU.
                let mut trial_fetch = fetch_q.clone();
                let mut trial_res = pipe.residency.clone();
                let priced = self.price(&batch, &mut trial_fetch, &mut trial_res);
                let (_, exec_start, exec_done) = self.place(&priced, formed, pipe);
                let complies = self.cfg.power_budget_w.is_none_or(|cap| {
                    let energy = self.batch_energy_nj(&priced);
                    let candidate = Some((exec_start, exec_done, energy));
                    let idle_w = self.idle_floor_w();
                    window_avg_power_w(&pipe.busy, candidate, idle_w, exec_done) <= cap
                });
                // Once the window has slid past every committed burst,
                // no amount of waiting lowers it further: a lone
                // request that still breaches runs anyway (the cap is
                // infeasible for this workload, and stalling forever
                // serves no one).
                let drained = pipe
                    .busy
                    .last()
                    .is_none_or(|b| exec_done - POWER_WINDOW_NS >= b.1);
                if complies || (batch.len() == 1 && drained) {
                    *fetch_q = trial_fetch;
                    pipe.residency = trial_res;
                    self.commit(&batch, formed, &priced, pipe, report);
                    return batch;
                }
                if batch.len() > 1 {
                    // Shrink: return the latest-arriving coalesced mate
                    // (never the policy-chosen seed) to the ready set.
                    let last = batch.len() - 1;
                    let drop_idx = if seed_at == last { last - 1 } else { last };
                    q.insert(batch.remove(drop_idx));
                    seed_at = seed_at.min(batch.len() - 1);
                    continue;
                }
                // Defer: hand the request back and retry once part of
                // the window has drained.
                for r in batch {
                    q.insert(r);
                }
                pipe.defer_until = formed + POWER_WINDOW_NS / 8.0;
                break;
            }
        }
    }

    /// Prices one batch through fetch → plan → [reload] → execute
    /// against the given queue/residency state (live or trial clones).
    fn price(
        &self,
        batch: &[ServeRequest],
        fetch_q: &mut RequestQueue,
        residency: &mut Option<ResidencyModel>,
    ) -> Priced {
        debug_assert!(!batch.is_empty());
        // Host fetch: stream every request's input vector through the
        // batched FR-FCFS queue. Same-tenant requests share buffer rows,
        // so coalescing them is row-hit heavy.
        let mut mem = Vec::new();
        for r in batch {
            self.fetch_plan(r, &mut mem);
        }
        let fetch = fetch_q.run_batched(
            &mem,
            BatchWindow {
                window_ns: self.cfg.window_ns,
                max_wait_ns: self.cfg.max_wait_ns,
            },
        );
        let accesses = fetch.completions.len() as u64;
        let hits = fetch
            .completions
            .iter()
            .filter(|c| c.kind == c2m_dram::AccessKind::RowHit)
            .count() as u64;
        let fetch_done = fetch.makespan_ns();

        // The pure part of the pricing — host planning sequences and
        // the engine launch — depends only on the batch's own content,
        // so it memoises under `batch_key`. The stateful parts
        // (fetch queue, residency LRU) always run live above/below.
        let pure = self.pure_price(batch);
        let plan_ns = pure.plan_seqs * self.cfg.host_ns_per_seq;

        // Tenant residency: dispatching a non-resident tenant streams
        // its mask planes back into the CIM subarrays before execution
        // — spending time *and* joules.
        let (reload_rows, reload_ns, reload_energy_nj) = match residency.as_mut() {
            Some(res) => {
                let rows = self.engine.tenant_mask_rows(batch[0].n, batch[0].k());
                match res.touch(batch[0].tenant, rows) {
                    ResidencyOutcome::Hit => (0, 0.0, 0.0),
                    ResidencyOutcome::Reload { rows } => (
                        rows,
                        self.engine.mask_reload_ns(rows),
                        self.engine.mask_reload_energy_nj(rows),
                    ),
                }
            }
            None => (0, 0.0, 0.0),
        };

        Priced {
            fetch_done,
            plan_ns,
            reload_rows,
            reload_ns,
            reload_energy_nj,
            exec_ns: pure.exec_ns,
            exec_energy_nj: pure.exec_energy_nj,
            hits,
            accesses,
        }
    }

    /// The content-only part of a batch's pricing: the host planning
    /// sequence count and the engine launch — the seed GEMV fold for a
    /// lone request (bit compatible with the paper model), the
    /// row-sharded batch fold otherwise. Memoised under [`batch_key`]
    /// when the priced-batch memo is enabled.
    fn pure_price(&self, batch: &[ServeRequest]) -> BatchPrice {
        let compute = || {
            // Host planning: the real IARM pass over each request's
            // doubled ternary stream (through the engine's stream
            // tier), costed per emitted sequence by the caller.
            let plan_seqs = batch
                .iter()
                .map(|r| self.engine.cached_sequences_for_doubled(&r.x) as f64)
                .sum::<f64>();
            // The launch report's `energy_nj` carries the batch's
            // execution energy.
            let exec = if batch.len() == 1 {
                self.engine.fold_ternary_gemv(&batch[0].x, batch[0].n)
            } else {
                let xs: Vec<&[i64]> = batch.iter().map(|r| r.x.as_slice()).collect();
                self.engine.fold_ternary_gemv_batch(&xs, batch[0].n)
            };
            BatchPrice {
                plan_seqs,
                exec_ns: exec.elapsed_ns,
                exec_energy_nj: exec.energy_nj,
            }
        };
        if !self.batch_prices.enabled() {
            return compute();
        }
        self.batch_prices
            .get_or_insert_with(batch_key(batch), compute)
    }

    /// Where a priced batch lands on the pipeline clocks:
    /// `(plan_done, exec_start, exec_done)`. `formed_ns` lower-bounds
    /// the plan start so a power-deferred dispatch actually waits.
    fn place(&self, priced: &Priced, formed_ns: f64, pipe: &Pipeline) -> (f64, f64, f64) {
        let plan_start = priced.fetch_done.max(pipe.planner_free).max(formed_ns);
        let plan_done = plan_start + priced.plan_ns;
        let exec_start = plan_done.max(pipe.engine_free);
        let exec_done = exec_start + priced.reload_ns + self.cfg.dispatch_ns + priced.exec_ns;
        (plan_done, exec_start, exec_done)
    }

    /// Energy attributed to a priced batch's busy interval, nJ: the
    /// engine launch (dynamic + all-rank background over the launch),
    /// the mask reload, and the module's background floor over the
    /// reload/dispatch overhead the launch energy does not cover.
    fn batch_energy_nj(&self, priced: &Priced) -> f64 {
        priced.exec_energy_nj
            + priced.reload_energy_nj
            + self.idle_floor_w() * (priced.reload_ns + self.cfg.dispatch_ns)
    }

    /// Commits a priced batch: advances the pipeline clocks, books the
    /// busy interval into the power ledger, samples the power timeline
    /// and records batch + outcomes.
    fn commit(
        &self,
        batch: &[ServeRequest],
        formed_ns: f64,
        priced: &Priced,
        pipe: &mut Pipeline,
        report: &mut ServeReport,
    ) {
        let (plan_done, exec_start, exec_done) = self.place(priced, formed_ns, pipe);
        pipe.engine_free = exec_done;
        pipe.planner_free = if self.cfg.async_planner {
            plan_done
        } else {
            exec_done
        };
        pipe.hits += priced.hits;
        pipe.accesses += priced.accesses;

        let energy_nj = self.batch_energy_nj(priced);
        // Intervals that ended before the window's reach contribute
        // zero overlap to every future query (commit times are
        // monotone), so drop them — the scan stays bounded by the
        // window occupancy instead of the whole dispatch history.
        let horizon = exec_done - POWER_WINDOW_NS;
        let expired = pipe.busy.partition_point(|&(_, end, _)| end <= horizon);
        pipe.busy.drain(..expired);
        pipe.busy.push((exec_start, exec_done, energy_nj));
        let power_w = window_avg_power_w(&pipe.busy, None, self.idle_floor_w(), exec_done);
        report.power_timeline.push(PowerSample {
            t_ns: exec_done,
            power_w,
        });

        let batch_idx = report.batches.len();
        let rec = BatchRecord {
            size: batch.len(),
            tenant: batch[0].tenant,
            formed_ns,
            fetch_done_ns: priced.fetch_done,
            plan_ns: priced.plan_ns,
            reload_rows: priced.reload_rows,
            reload_ns: priced.reload_ns,
            exec_ns: priced.exec_ns,
            exec_start_ns: exec_start,
            exec_done_ns: exec_done,
            energy_nj,
            reload_energy_nj: priced.reload_energy_nj,
        };
        if let Some(sink) = &self.trace {
            self.trace_commit(sink.as_ref(), batch, &rec, plan_done, power_w);
        }
        report.batches.push(rec);
        for r in batch {
            report.outcomes.push(RequestOutcome {
                id: r.id,
                tenant: r.tenant,
                priority: r.class.priority,
                arrival_ns: r.arrival_ns,
                deadline_ns: r.deadline_ns(),
                completion_ns: exec_done,
                batch: batch_idx,
            });
        }
    }

    /// Emits one committed batch's lifecycle onto the serve tracks:
    /// arrival/completion instants per request (tid 0), the fetch-done
    /// instant and the planning span (tid 1), and the batch's engine
    /// occupancy — reload, dispatch and execution nested under one
    /// `batch` span (tid 2) — plus the rolling-window power counter at
    /// its completion.
    fn trace_commit(
        &self,
        sink: &dyn TraceSink,
        batch: &[ServeRequest],
        rec: &BatchRecord,
        plan_done: f64,
        power_w: f64,
    ) {
        let requests = Track::serve(0);
        let planner = Track::serve(1);
        let engine = Track::serve(2);
        sink.record(TraceEvent::Instant {
            t_ns: rec.formed_ns,
            name: "batch_formed",
            cat: "serve",
            track: requests,
        });
        sink.record(TraceEvent::Instant {
            t_ns: rec.fetch_done_ns,
            name: "fetch_done",
            cat: "serve",
            track: planner,
        });
        sink.span(planner, "plan", "serve", plan_done - rec.plan_ns, plan_done);
        sink.record(TraceEvent::Begin {
            t_ns: rec.exec_start_ns,
            name: "batch",
            cat: "serve",
            track: engine,
        });
        let reload_end = rec.exec_start_ns + rec.reload_ns;
        if rec.reload_ns > 0.0 {
            sink.span(engine, "reload", "serve", rec.exec_start_ns, reload_end);
        }
        let dispatch_end = reload_end + self.cfg.dispatch_ns;
        if self.cfg.dispatch_ns > 0.0 {
            sink.span(engine, "dispatch", "serve", reload_end, dispatch_end);
        }
        sink.span(engine, "exec", "serve", dispatch_end, rec.exec_done_ns);
        sink.record(TraceEvent::End {
            t_ns: rec.exec_done_ns,
            track: engine,
        });
        sink.record(TraceEvent::Counter {
            t_ns: rec.exec_done_ns,
            name: "window_power_w",
            cat: "serve",
            track: engine,
            value: power_w,
        });
        for r in batch {
            sink.record(TraceEvent::Instant {
                t_ns: r.arrival_ns,
                name: "arrival",
                cat: "serve",
                track: requests,
            });
            sink.record(TraceEvent::Instant {
                t_ns: rec.exec_done_ns,
                name: "completion",
                cat: "serve",
                track: requests,
            });
        }
        if let Some(m) = sink.metrics() {
            m.inc("serve.batches", 1);
            m.inc("serve.requests", batch.len() as u64);
            for r in batch {
                m.observe_ns("serve.e2e_latency_ns", rec.exec_done_ns - r.arrival_ns);
            }
        }
    }

    /// Appends to `out` the memory requests streaming one request's
    /// input vector out of the host buffer: one read per 64-byte burst,
    /// same-tenant vectors aliasing the same rows (the weights-resident
    /// tenant keeps its input buffer hot).
    fn fetch_plan(&self, r: &ServeRequest, out: &mut Vec<MemoryRequest>) {
        let dram = &self.engine.config().dram;
        let row_bytes = dram.row_bits_per_rank() / 8;
        let bank = r.tenant % dram.banks;
        let base_row = (r.tenant / dram.banks) * 64;
        let bursts = r.k().div_ceil(64).max(1);
        out.extend(
            (0..bursts)
                .map(|b| MemoryRequest::read(r.arrival_ns, bank, base_row + (b * 64) / row_bytes)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServiceClass;
    use crate::traffic::{open_loop, OpenLoopConfig, TenantSpec};
    use c2m_core::engine::EngineConfig;

    fn engine(channels: usize) -> C2mEngine {
        let mut cfg = EngineConfig::c2m(16);
        cfg.dram.channels = channels;
        C2mEngine::builder(cfg).build()
    }

    fn trace(requests: usize, tenants: usize) -> Vec<ServeRequest> {
        open_loop(&OpenLoopConfig {
            tenants: vec![TenantSpec::new(512, 256); tenants],
            requests,
            mean_interarrival_ns: 2_000.0,
            seed: 11,
        })
    }

    fn cfg(max_batch: usize, window_ns: f64) -> ServeConfig {
        ServeConfig {
            window_ns,
            max_batch,
            ..ServeConfig::default()
        }
    }

    /// A bare request with a constant input vector (equal-cost jobs).
    fn req(id: u64, arrival_ns: f64, tenant: usize, class: ServiceClass) -> ServeRequest {
        ServeRequest {
            id,
            arrival_ns,
            tenant,
            class,
            n: 256,
            x: vec![3; 64],
        }
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let reqs = trace(40, 2);
        let rep = ServeRuntime::new(engine(1), cfg(4, 1e6)).run(&reqs);
        assert_eq!(rep.outcomes.len(), 40);
        let mut ids: Vec<u64> = rep.outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40);
        for o in &rep.outcomes {
            assert!(o.completion_ns > o.arrival_ns, "request {}", o.id);
        }
        assert_eq!(
            rep.batches.iter().map(|b| b.size).sum::<usize>(),
            40,
            "batch sizes partition the trace"
        );
    }

    #[test]
    fn batches_respect_cap_window_and_tenant() {
        let reqs = trace(60, 2);
        let rep = ServeRuntime::new(engine(1), cfg(4, 1e6)).run(&reqs);
        assert!(rep.batches.iter().all(|b| b.size <= 4));
        assert!(rep.mean_batch_size() > 1.0, "window should coalesce");
        // Per-batch tenants are single-valued by construction: cross
        // check through outcomes.
        for (i, b) in rep.batches.iter().enumerate() {
            assert!(rep
                .outcomes
                .iter()
                .filter(|o| o.batch == i)
                .all(|o| o.tenant == b.tenant));
        }
    }

    #[test]
    fn single_batch_run_samples_the_formation_backlog() {
        // Regression: a run whose whole trace coalesces into ONE batch
        // used to sample the queue only at that batch's completion —
        // depth 0, since everyone had completed — so peak_queue_depth
        // reported an empty queue for a run that served a real backlog,
        // and the timeline gave the power window nothing to bracket.
        let reqs = [
            req(0, 0.0, 0, ServiceClass::BEST_EFFORT),
            req(1, 10.0, 0, ServiceClass::BEST_EFFORT),
            req(2, 20.0, 0, ServiceClass::BEST_EFFORT),
        ];
        let rt = ServeRuntime::new(engine(1), cfg(8, 1e6));
        // Hold admission until everyone has arrived: a queue seeded at
        // t=0 forms immediately, so replay the trace shifted to share
        // one arrival instant instead.
        let shifted: Vec<ServeRequest> = reqs
            .iter()
            .cloned()
            .map(|mut r| {
                r.arrival_ns = 0.0;
                r
            })
            .collect();
        let rep = rt.run(&shifted);
        assert_eq!(rep.batches.len(), 1, "the trace coalesces into one batch");
        assert!(
            rep.queue_depth.len() >= 2,
            "single-batch run still gets a formation sample"
        );
        assert_eq!(rep.queue_depth[0].t_ns, rep.batches[0].formed_ns);
        assert_eq!(
            rep.peak_queue_depth(),
            3,
            "the peak sees the backlog the batch served"
        );
        assert_eq!(rep.power_timeline.len(), 1);
        assert!(rep.peak_window_power_w() > 0.0);
        // Samples stay time-ordered after the front insertion.
        for w in rep.queue_depth.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    #[test]
    fn admission_cuts_off_at_the_dispatch_instant() {
        // Regression for the clairvoyance bug: an idle engine seeds a
        // batch at t = 0; a same-tenant request arriving 500 ns later —
        // well inside the 1 ms window — must NOT be coalesced
        // retroactively. It lands in the next batch.
        let reqs = vec![
            req(0, 0.0, 0, ServiceClass::BEST_EFFORT),
            req(1, 500.0, 0, ServiceClass::BEST_EFFORT),
        ];
        let rep = ServeRuntime::new(engine(1), cfg(8, 1e6)).run(&reqs);
        assert_eq!(rep.batches.len(), 2, "late arrival lands in next batch");
        assert_eq!(rep.batches[0].size, 1);
        assert_eq!(rep.batches[0].formed_ns, 0.0);
        assert_eq!(rep.batches[1].size, 1);
        assert!(
            rep.batches[1].formed_ns >= 500.0,
            "second batch formed after the arrival it admits"
        );
        // Both arrived before the first batch finished: once the queue
        // is backlogged the SAME config does coalesce.
        let backlogged = vec![
            req(0, 0.0, 0, ServiceClass::BEST_EFFORT),
            req(1, 500.0, 0, ServiceClass::BEST_EFFORT),
            req(2, 600.0, 0, ServiceClass::BEST_EFFORT),
        ];
        let rep2 = ServeRuntime::new(engine(1), cfg(8, 1e6)).run(&backlogged);
        assert_eq!(rep2.batches.len(), 2);
        assert_eq!(rep2.batches[1].size, 2, "backlogged requests coalesce");
    }

    #[test]
    fn every_batch_admits_only_arrived_requests() {
        let reqs = trace(50, 2);
        let rep = ServeRuntime::new(engine(1), cfg(4, 1e6)).run(&reqs);
        for (i, b) in rep.batches.iter().enumerate() {
            for o in rep.outcomes.iter().filter(|o| o.batch == i) {
                assert!(
                    o.arrival_ns <= b.formed_ns,
                    "request {} (arrival {}) admitted clairvoyantly at {}",
                    o.id,
                    o.arrival_ns,
                    b.formed_ns
                );
            }
        }
    }

    #[test]
    fn batching_improves_throughput_on_single_tenant_traffic() {
        let reqs = trace(32, 1);
        let serial = ServeRuntime::new(engine(1), cfg(1, 0.0)).run(&reqs);
        let batched = ServeRuntime::new(engine(1), cfg(8, 1e9)).run(&reqs);
        assert!(
            batched.throughput_rps() > serial.throughput_rps(),
            "batched {} vs serial {}",
            batched.throughput_rps(),
            serial.throughput_rps()
        );
    }

    #[test]
    fn async_planner_is_never_slower_and_hides_plan_time() {
        let reqs = trace(32, 1);
        let sync_cfg = ServeConfig {
            host_ns_per_seq: 100.0,
            ..cfg(4, 1e9)
        };
        let async_cfg = ServeConfig {
            async_planner: true,
            ..sync_cfg.clone()
        };
        let e = engine(4);
        let sync = ServeRuntime::new(e.clone(), sync_cfg).run(&reqs);
        let asyncr = ServeRuntime::new(e, async_cfg).run(&reqs);
        assert!(
            asyncr.makespan_ns() < sync.makespan_ns(),
            "async {} vs sync {}",
            asyncr.makespan_ns(),
            sync.makespan_ns()
        );
        assert!(asyncr.mean_latency_ns() < sync.mean_latency_ns());
    }

    #[test]
    fn edf_reorders_urgent_requests_ahead() {
        // Three best-effort requests queue ahead of an urgent one under
        // FIFO; EDF pulls the urgent request forward once it arrives.
        let urgent = ServiceClass::new(1, 50_000.0);
        let reqs = vec![
            req(0, 0.0, 0, ServiceClass::BEST_EFFORT),
            req(1, 10.0, 1, ServiceClass::BEST_EFFORT),
            req(2, 20.0, 2, ServiceClass::BEST_EFFORT),
            req(3, 30.0, 3, urgent),
        ];
        let fifo = ServeRuntime::new(engine(1), cfg(1, 0.0)).run(&reqs);
        let edf = ServeRuntime::new(
            engine(1),
            ServeConfig {
                policy: SchedPolicy::EarliestDeadlineFirst,
                ..cfg(1, 0.0)
            },
        )
        .run(&reqs);
        let done = |rep: &ServeReport, id: u64| {
            rep.outcomes
                .iter()
                .find(|o| o.id == id)
                .expect("served")
                .completion_ns
        };
        assert!(
            done(&edf, 3) < done(&fifo, 3),
            "EDF must serve the urgent request earlier"
        );
        // Request 0 seeds the first batch either way (only arrival at
        // t=0); the urgent request is served second under EDF.
        assert_eq!(edf.outcomes[1].id, 3);
    }

    #[test]
    fn priority_weighted_prefers_high_class_until_the_cap() {
        let high = ServiceClass {
            priority: 5,
            deadline_ns: f64::INFINITY,
        };
        // A low-class request and a burst of high-class ones, all
        // already waiting when the engine frees up.
        let mut reqs = vec![req(0, 0.0, 0, ServiceClass::BEST_EFFORT)];
        for i in 1..12 {
            reqs.push(req(i, 0.0, 1, high));
        }
        let capped = ServeRuntime::new(
            engine(1),
            ServeConfig {
                policy: SchedPolicy::PriorityWeighted,
                max_wait_ns: 30_000.0,
                ..cfg(1, 0.0)
            },
        )
        .run(&reqs);
        let uncapped = ServeRuntime::new(
            engine(1),
            ServeConfig {
                policy: SchedPolicy::PriorityWeighted,
                max_wait_ns: f64::INFINITY,
                ..cfg(1, 0.0)
            },
        )
        .run(&reqs);
        let low = |rep: &ServeReport| {
            rep.outcomes
                .iter()
                .find(|o| o.id == 0)
                .expect("served")
                .latency_ns()
        };
        // Uncapped: the low request drains last. Capped: it is served
        // once its wait crosses the cap.
        assert!(low(&capped) < low(&uncapped));
        // High-class requests bypass the older low-class one at first.
        assert_ne!(uncapped.outcomes[1].id, 0);
    }

    #[test]
    fn residency_prices_tenant_switches() {
        // Two tenants, alternating arrivals, budget fits only one: every
        // switch reloads. The same trace with both resident never
        // reloads after the two cold loads.
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| req(i, i as f64, (i % 2) as usize, ServiceClass::BEST_EFFORT))
            .collect();
        let e = engine(1);
        let rows = e.tenant_mask_rows(256, 64);
        let tight = ServeRuntime::new(
            e.clone(),
            ServeConfig {
                residency_rows: Some(rows),
                ..cfg(1, 0.0)
            },
        )
        .run(&reqs);
        let roomy = ServeRuntime::new(
            e.clone(),
            ServeConfig {
                residency_rows: Some(2 * rows),
                ..cfg(1, 0.0)
            },
        )
        .run(&reqs);
        let free = ServeRuntime::new(e, cfg(1, 0.0)).run(&reqs);
        assert_eq!(tight.reload_count(), 8, "every dispatch switches tenant");
        assert_eq!(roomy.reload_count(), 2, "only the two cold loads");
        assert_eq!(free.reload_count(), 0);
        assert!(tight.reload_ns_total() > roomy.reload_ns_total());
        assert!(
            tight.makespan_ns() > free.makespan_ns(),
            "reloads are on the critical path"
        );
        // Reload time never appears outside the residency-modelled runs.
        assert_eq!(free.reload_ns_total(), 0.0);
    }

    #[test]
    fn slotted_residency_reduces_to_flat_and_prices_per_slot() {
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| req(i, i as f64, (i % 2) as usize, ServiceClass::BEST_EFFORT))
            .collect();
        let e = engine(1);
        let rows = e.tenant_mask_rows(256, 64);
        let roomy = |slots: usize| ServeConfig {
            residency_rows: Some(2 * rows),
            residency_slots: slots,
            ..cfg(1, 0.0)
        };
        // One slot is the flat pre-SALP model, bit for bit.
        let flat = ServeRuntime::new(e.clone(), roomy(1)).run(&reqs);
        assert_eq!(flat.reload_count(), 2, "only the two cold loads");
        // Four slots with the same total budget: both tenants still fit
        // every slot, so the reload *count* is unchanged; each cold
        // load's footprint rounds up to ⌈rows/slots⌉ per slot, so the
        // total reload time can only round up.
        let slotted = ServeRuntime::new(e, roomy(4)).run(&reqs);
        assert_eq!(slotted.reload_count(), 2);
        assert!(slotted.reload_ns_total() >= flat.reload_ns_total());
    }

    #[test]
    fn closed_loop_serves_every_client_quota() {
        let ccfg = ClosedLoopConfig {
            tenants: vec![TenantSpec::new(512, 256)],
            clients: 4,
            requests_per_client: 5,
            think_ns: 1_000.0,
            seed: 3,
        };
        let rep = ServeRuntime::new(engine(1), cfg(4, 1e6)).run_closed_loop(&ccfg);
        assert_eq!(rep.outcomes.len(), 20);
        // Completions are strictly ordered per client: a client's next
        // request arrives only after its previous completion + think.
        for o in &rep.outcomes {
            assert!(o.completion_ns > o.arrival_ns);
        }
        assert!(rep.queue_depth.iter().all(|s| s.depth <= 4));
    }

    fn closed_loop_thinking(think_ns: f64) -> ServeReport {
        let ccfg = ClosedLoopConfig {
            tenants: vec![TenantSpec::new(512, 256)],
            clients: 2,
            requests_per_client: 2,
            think_ns,
            seed: 3,
        };
        ServeRuntime::new(engine(1), cfg(4, 1e6)).run_closed_loop(&ccfg)
    }

    #[test]
    #[should_panic(expected = "think time")]
    fn closed_loop_rejects_a_nan_think_time() {
        let _ = closed_loop_thinking(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "think time")]
    fn closed_loop_rejects_a_negative_think_time() {
        let _ = closed_loop_thinking(-1.0);
    }

    #[test]
    fn duplicate_ids_never_merge_tenants_or_exceed_the_cap() {
        // Ids are documented as unique, but nothing enforces it. Requests
        // sharing an id are still distinct requests: a batch never pulls
        // in another tenant's request or grows past the cap because an
        // id matched.
        let be = ServiceClass::BEST_EFFORT;
        let three = vec![req(1, 0.0, 0, be), req(2, 0.0, 0, be), req(2, 0.0, 1, be)];
        let mut repeated = trace(48, 3);
        for r in &mut repeated {
            r.id /= 3;
        }
        let sorted = |mut v: Vec<(u64, usize)>| {
            v.sort_unstable();
            v
        };
        for (reqs, max_batch) in [(&three, 2), (&repeated, 4)] {
            let submitted = sorted(reqs.iter().map(|r| (r.id, r.tenant)).collect());
            for policy in [
                SchedPolicy::Fifo,
                SchedPolicy::EarliestDeadlineFirst,
                SchedPolicy::PriorityWeighted,
            ] {
                let base = ServeConfig {
                    policy,
                    ..cfg(max_batch, 1e6)
                };
                let uncapped = ServeRuntime::new(engine(1), base.clone()).run(reqs);
                let floor = uncapped.idle_floor_w;
                let cap = floor + 0.5 * (uncapped.peak_window_power_w() - floor);
                let capped = ServeConfig {
                    power_budget_w: Some(cap),
                    ..base
                };
                let capped = ServeRuntime::new(engine(1), capped).run(reqs);
                for rep in [&uncapped, &capped] {
                    for (i, b) in rep.batches.iter().enumerate() {
                        let members: Vec<&RequestOutcome> =
                            rep.outcomes.iter().filter(|o| o.batch == i).collect();
                        assert!(b.size <= max_batch, "{policy:?}: batch {i} of {}", b.size);
                        assert_eq!(members.len(), b.size);
                        assert!(members.iter().all(|o| o.tenant == b.tenant), "{policy:?}");
                    }
                    assert_eq!(
                        sorted(rep.outcomes.iter().map(|o| (o.id, o.tenant)).collect()),
                        submitted,
                        "{policy:?}: each (id, tenant) request completes once"
                    );
                }
            }
        }
    }

    #[test]
    fn queue_depth_never_exceeds_outstanding_requests() {
        let reqs = trace(50, 2);
        let rep = ServeRuntime::new(engine(1), cfg(2, 5_000.0)).run(&reqs);
        assert!(rep.peak_queue_depth() <= 50);
        assert_eq!(rep.queue_depth.len(), rep.batches.len());
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_cap_is_rejected() {
        let _ = ServeRuntime::new(engine(1), cfg(0, 0.0));
    }

    #[test]
    #[should_panic(expected = "residency budget")]
    fn zero_residency_budget_is_rejected() {
        let _ = ServeRuntime::new(
            engine(1),
            ServeConfig {
                residency_rows: Some(0),
                ..ServeConfig::default()
            },
        );
    }

    // ---- energy accounting and power-capped admission ----

    #[test]
    fn reports_carry_energy_and_a_power_timeline() {
        let reqs = trace(24, 1);
        let rep = ServeRuntime::new(engine(1), cfg(4, 1e6)).run(&reqs);
        assert!(rep.total_energy_nj() > 0.0);
        assert!(rep.joules_per_request() > 0.0);
        assert!(rep.idle_floor_w > 0.0);
        assert_eq!(rep.power_timeline.len(), rep.batches.len());
        for b in &rep.batches {
            assert!(b.energy_nj > 0.0, "every batch costs joules");
            assert!(b.power_w() > rep.idle_floor_w, "active power above floor");
        }
        // Every sample sits between the idle floor and the worst
        // single-batch power.
        let max_batch_w = rep
            .batches
            .iter()
            .map(BatchRecord::power_w)
            .fold(0.0, f64::max);
        for s in &rep.power_timeline {
            assert!(s.power_w >= rep.idle_floor_w * (1.0 - 1e-9));
            assert!(s.power_w <= max_batch_w * (1.0 + 1e-9));
        }
        // Single class: per-class J/request equals the overall figure.
        let j = rep.class_joules_per_request(0);
        assert!((j - rep.joules_per_request()).abs() / j < 1e-9);
    }

    #[test]
    fn residency_reloads_cost_joules_only_when_modelled() {
        let reqs: Vec<ServeRequest> = (0..6)
            .map(|i| req(i, i as f64, (i % 2) as usize, ServiceClass::BEST_EFFORT))
            .collect();
        let e = engine(1);
        let rows = e.tenant_mask_rows(256, 64);
        let tight = ServeRuntime::new(
            e.clone(),
            ServeConfig {
                residency_rows: Some(rows),
                ..cfg(1, 0.0)
            },
        )
        .run(&reqs);
        let free = ServeRuntime::new(e, cfg(1, 0.0)).run(&reqs);
        let reload_j: f64 = tight.batches.iter().map(|b| b.reload_energy_nj).sum();
        assert!(reload_j > 0.0, "thrashing tenants pay reload energy");
        assert!(free.batches.iter().all(|b| b.reload_energy_nj == 0.0));
        assert!(tight.total_energy_nj() > free.total_energy_nj());
    }

    #[test]
    fn power_cap_holds_the_window_and_trades_latency() {
        let reqs = trace(32, 1);
        for &policy in &[
            SchedPolicy::Fifo,
            SchedPolicy::EarliestDeadlineFirst,
            SchedPolicy::PriorityWeighted,
        ] {
            let base_cfg = ServeConfig {
                policy,
                ..cfg(8, 1e9)
            };
            let e = engine(1);
            let uncapped = ServeRuntime::new(e.clone(), base_cfg.clone()).run(&reqs);
            let peak = uncapped.peak_window_power_w();
            assert!(peak > uncapped.idle_floor_w);
            // A cap halfway between the idle floor and the uncapped
            // peak must bind.
            let cap = uncapped.idle_floor_w + 0.5 * (peak - uncapped.idle_floor_w);
            let capped = ServeRuntime::new(
                e,
                ServeConfig {
                    power_budget_w: Some(cap),
                    ..base_cfg
                },
            )
            .run(&reqs);
            assert!(
                capped.peak_window_power_w() <= cap * (1.0 + 1e-9),
                "{policy:?}: window peak {} exceeds cap {cap}",
                capped.peak_window_power_w()
            );
            assert!(
                capped.makespan_ns() > uncapped.makespan_ns(),
                "{policy:?}: cap compliance must cost wall-clock"
            );
            // Work is conserved: every request still completes once.
            assert_eq!(capped.outcomes.len(), reqs.len());
            let mut ids: Vec<u64> = capped.outcomes.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), reqs.len());
        }
    }

    #[test]
    fn power_cap_shrinks_batches_before_deferring() {
        // Backlogged single-tenant traffic coalesces to the cap when
        // unconstrained; a binding power cap must shrink batches.
        let reqs = trace(32, 1);
        let e = engine(1);
        let uncapped = ServeRuntime::new(e.clone(), cfg(8, 1e9)).run(&reqs);
        let peak = uncapped.peak_window_power_w();
        let cap = uncapped.idle_floor_w + 0.4 * (peak - uncapped.idle_floor_w);
        let capped = ServeRuntime::new(
            e,
            ServeConfig {
                power_budget_w: Some(cap),
                ..cfg(8, 1e9)
            },
        )
        .run(&reqs);
        assert!(
            capped.mean_batch_size() < uncapped.mean_batch_size(),
            "capped {} vs uncapped {}",
            capped.mean_batch_size(),
            uncapped.mean_batch_size()
        );
    }

    #[test]
    fn uncapped_config_is_unaffected_by_power_plumbing() {
        // Uncapped and capped dispatch share the governor loop: a cap
        // that never binds must leave latency/throughput identical to
        // the uncapped pipeline, because the governor then commits
        // every batch as first formed; pinned so a regression screams.
        let reqs = trace(24, 2);
        let a = ServeRuntime::new(engine(1), cfg(4, 1e6)).run(&reqs);
        let b = ServeRuntime::new(
            engine(1),
            ServeConfig {
                power_budget_w: Some(f64::MAX),
                ..cfg(4, 1e6)
            },
        )
        .run(&reqs);
        assert_eq!(a.makespan_ns(), b.makespan_ns());
        assert_eq!(a.throughput_rps(), b.throughput_rps());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.completion_ns, y.completion_ns);
        }
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn power_cap_below_the_idle_floor_is_rejected() {
        let e = engine(4);
        let floor = e
            .config()
            .energy
            .system_background_power_w(&e.config().dram);
        let _ = ServeRuntime::new(
            e,
            ServeConfig {
                power_budget_w: Some(floor * 0.5),
                ..ServeConfig::default()
            },
        );
    }

    // ---- config validation and priced-batch cache ----

    #[test]
    fn config_builder_reports_each_validation_failure() {
        let cases = [
            (cfg(0, 0.0), "at least one request"),
            (cfg(1, -1.0), "non-negative"),
            (
                ServeConfig {
                    residency_rows: Some(0),
                    ..ServeConfig::default()
                },
                "positive",
            ),
            (
                ServeConfig {
                    residency_slots: 0,
                    ..ServeConfig::default()
                },
                "slots",
            ),
            // A budget the slots cannot split: 10 rows over 4 slots
            // would model 8 rows, 3 rows over 8 slots would model 8.
            (
                ServeConfig {
                    residency_rows: Some(10),
                    residency_slots: 4,
                    ..ServeConfig::default()
                },
                "not a multiple",
            ),
            (
                ServeConfig {
                    residency_rows: Some(3),
                    residency_slots: 8,
                    ..ServeConfig::default()
                },
                "not a multiple",
            ),
            // Unchecked, a NaN starvation cap turns the cap off in both
            // the ready set and the fetch queue, and a negative one
            // makes every request overdue.
            (
                ServeConfig {
                    max_wait_ns: f64::NAN,
                    ..ServeConfig::default()
                },
                "starvation cap",
            ),
            (
                ServeConfig {
                    max_wait_ns: -1.0,
                    ..ServeConfig::default()
                },
                "starvation cap",
            ),
        ];
        for (config, needle) in cases {
            let err = config.validate().expect_err("must be rejected");
            assert!(err.contains(needle), "{err} should mention {needle:?}");
        }
        let uncapped = ServeConfig {
            max_wait_ns: f64::INFINITY,
            ..ServeConfig::default()
        };
        assert!(uncapped.validate().is_ok(), "+∞ means no starvation cap");
    }

    #[test]
    fn config_builder_rejects_nan_negative_and_infinite_host_costs() {
        // Unchecked, a NaN dispatch overhead panics `run`, and a
        // negative one reports negative latencies and a wrapped queue
        // depth.
        let bad = [f64::NAN, -1e9, -1.0, f64::INFINITY];
        for v in bad {
            let dispatch = ServeConfig {
                dispatch_ns: v,
                ..ServeConfig::default()
            };
            let planning = ServeConfig {
                host_ns_per_seq: v,
                ..ServeConfig::default()
            };
            for (config, needle) in [(dispatch, "dispatch overhead"), (planning, "planning cost")] {
                let err = config.validate().expect_err("must be rejected");
                assert!(err.contains(needle), "{v}: {err}");
            }
        }
        let free = ServeConfig {
            dispatch_ns: 0.0,
            host_ns_per_seq: 0.0,
            ..ServeConfig::default()
        };
        assert!(free.validate().is_ok(), "zero costs are valid");
    }

    #[test]
    fn batch_keys_distinguish_tenant_width_order_and_membership() {
        let member = |id: u64, tenant: usize, n: usize, x: &[i64]| ServeRequest {
            id,
            arrival_ns: 0.0,
            tenant,
            class: ServiceClass::BEST_EFFORT,
            n,
            x: x.to_vec(),
        };
        let a = |tenant, n| member(0, tenant, n, &[1, 2, 3]);
        let b = |tenant, n| member(1, tenant, n, &[1, 2, 4]);
        // `[tenant, n, members]`, then each member length-prefixed.
        assert_eq!(
            &*batch_key(&[a(0, 64), b(0, 64)]),
            &[0, 64, 2, 3, 1, 2, 3, 3, 1, 2, 4]
        );
        let keys = [
            batch_key(&[a(0, 64), b(0, 64)]),
            batch_key(&[a(1, 64), b(1, 64)]),
            batch_key(&[a(0, 32), b(0, 32)]),
            batch_key(&[b(0, 64), a(0, 64)]),
            batch_key(&[a(0, 64)]),
            // Equal concatenated inputs: only the member lengths differ.
            batch_key(&[member(0, 0, 64, &[1, 2]), member(1, 0, 64, &[3])]),
            batch_key(&[member(0, 0, 64, &[1]), member(1, 0, 64, &[2, 3])]),
        ];
        for (i, ki) in keys.iter().enumerate() {
            for kj in &keys[..i] {
                assert_ne!(ki, kj, "key {i} aliases an earlier one");
            }
        }
        // Through the memo, only the identical composition hits.
        let memo = Memo::new(BATCH_PRICE_CAP);
        let price = |v: f64| BatchPrice {
            plan_seqs: v,
            exec_ns: 2.0 * v,
            exec_energy_nj: 3.0 * v,
        };
        for (i, key) in keys.iter().enumerate() {
            let _ = memo.get_or_insert_with(key.clone(), || price(i as f64));
        }
        let again = memo.get_or_insert_with(keys[0].clone(), || unreachable!("must hit"));
        assert_eq!(again.exec_ns.to_bits(), 0.0f64.to_bits());
        assert_eq!((memo.hits(), memo.misses()), (1, keys.len() as u64));
    }

    #[test]
    fn batch_cache_on_and_off_serve_identically() {
        // The cache memoises only the content-pure pricing, so every
        // observable number — latencies, energy, power, batch shapes —
        // must be bit-for-bit the same with it on or off.
        let reqs = trace(48, 2);
        for channels in [1usize, 4] {
            let cached = ServeRuntime::new(engine(channels), cfg(4, 1e6)).run(&reqs);
            let uncached_cfg = ServeConfig {
                batch_cache: false,
                ..cfg(4, 1e6)
            };
            let uncached = ServeRuntime::new(engine(channels), uncached_cfg).run(&reqs);
            assert!(cached.batch_cache_hits + cached.batch_cache_misses > 0);
            assert_eq!(uncached.batch_cache_hits, 0);
            assert_eq!(uncached.batch_cache_misses, 0);
            for (a, b) in cached.outcomes.iter().zip(&uncached.outcomes) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.completion_ns.to_bits(), b.completion_ns.to_bits());
            }
            for (a, b) in cached.batches.iter().zip(&uncached.batches) {
                assert_eq!(a.size, b.size);
                assert_eq!(a.exec_ns.to_bits(), b.exec_ns.to_bits());
                assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits());
            }
            assert_eq!(
                cached.joules_per_request().to_bits(),
                uncached.joules_per_request().to_bits()
            );
        }
    }

    #[test]
    fn repeated_compositions_hit_the_batch_cache() {
        // Equal-cost jobs from one tenant: after the first composition
        // of each batch size is priced, repeats are hits.
        let reqs: Vec<ServeRequest> = (0..32)
            .map(|i| req(i, i as f64 * 10.0, 0, ServiceClass::BEST_EFFORT))
            .collect();
        let rep = ServeRuntime::new(engine(1), cfg(4, 1e6)).run(&reqs);
        assert!(
            rep.batch_cache_hits > 0,
            "identical compositions must hit (hits {}, misses {})",
            rep.batch_cache_hits,
            rep.batch_cache_misses
        );
        // More than half of the lookups hit.
        assert!(rep.batch_cache_hits > rep.batch_cache_misses);
        // The engine-level caches warm too: the plan pass and the exec
        // pass share per-request stream entries.
        assert!(rep.engine_cache.stream_hits > 0);
    }

    #[test]
    fn serving_never_looks_up_the_report_tier() {
        // Every launch prices through the engine's folds, whether the
        // priced-batch memo returns repeats or not and however often
        // the power governor re-prices a trial: the report tier counts
        // no lookup, while the plan and stream tiers serve every fold.
        let reqs = trace(32, 2);
        for policy in [SchedPolicy::Fifo, SchedPolicy::EarliestDeadlineFirst] {
            for batch_cache in [true, false] {
                let base = ServeConfig {
                    policy,
                    batch_cache,
                    ..cfg(8, 1e9)
                };
                let rt = ServeRuntime::new(engine(4), base.clone());
                let uncapped = rt.run(&reqs);
                let floor = uncapped.idle_floor_w;
                let cap = floor + 0.4 * (uncapped.peak_window_power_w() - floor);
                let capped = ServeRuntime::new(
                    rt.engine().clone(),
                    ServeConfig {
                        power_budget_w: Some(cap),
                        ..base
                    },
                )
                .run(&reqs);
                assert!(
                    capped.batches.len() > uncapped.batches.len(),
                    "{policy:?}: the cap must bind"
                );
                for rep in [&uncapped, &capped] {
                    let c = rep.engine_cache;
                    assert_eq!(
                        (c.report_hits, c.report_misses),
                        (0, 0),
                        "{policy:?}, batch memo {batch_cache}"
                    );
                    assert!(c.plan_hits + c.plan_misses > 0);
                    assert!(c.stream_hits + c.stream_misses > 0);
                }
                let lifetime = rt.engine().cache_stats();
                assert_eq!((lifetime.report_hits, lifetime.report_misses), (0, 0));
            }
        }
    }

    #[test]
    fn reports_carry_per_run_cache_deltas() {
        // Back-to-back runs on one runtime: the second report must carry
        // only its own tallies, not the runtime's cumulative totals.
        let reqs = trace(24, 2);
        let rt = ServeRuntime::new(engine(1), cfg(4, 1e6));
        let first = rt.run(&reqs);
        let second = rt.run(&reqs);
        assert!(first.batch_cache_misses > 0, "cold run must miss");
        // Run 2 re-prices the same compositions against the warm cache:
        // all hits, and crucially *no* carried-over misses from run 1.
        assert_eq!(second.batch_cache_misses, 0);
        assert!(second.batch_cache_hits > 0);
        assert_eq!(
            second.engine_cache.plan_misses
                + second.engine_cache.stream_misses
                + second.engine_cache.report_misses,
            0,
            "run-2 engine tallies must not include run-1 misses"
        );
        // The deltas partition the cumulative totals.
        let total = rt.engine().cache_stats();
        let mut sum = first.engine_cache;
        sum.merge(&second.engine_cache);
        assert_eq!(sum, total);
    }
}
