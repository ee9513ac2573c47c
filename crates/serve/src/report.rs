//! Serving metrics: per-request and per-class latency percentiles,
//! deadline-miss rates, throughput, batch shapes, residency reloads,
//! queue-depth timelines, and — from each launch's `energy_nj` —
//! per-batch/per-request energy with a rolling-window power timeline.
//!
//! Energy accounting covers the busy window of the trace
//! (first arrival → last completion): each dispatched batch carries the
//! energy of its pipeline occupancy (engine launch energy,
//! [`c2m_dram::ExecutionReport::energy_nj`], mask-reload energy for residency
//! misses, and module background power over the reload/dispatch
//! overhead), and the gaps between batches burn the module's idle
//! background floor ([`ServeReport::idle_floor_w`]). J/request figures
//! apportion a batch's energy equally over its requests and the idle
//! burn equally over the whole trace.

use serde::Serialize;

/// Outcome of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// SLO priority the request carried.
    pub priority: u8,
    /// Arrival at the front end, ns.
    pub arrival_ns: f64,
    /// Absolute deadline, ns (`+∞` for best-effort requests).
    pub deadline_ns: f64,
    /// Completion (its batch's execution finished), ns.
    pub completion_ns: f64,
    /// Index of the batch that served it.
    pub batch: usize,
}

impl RequestOutcome {
    /// End-to-end latency (arrival → completion), ns.
    #[must_use]
    pub fn latency_ns(&self) -> f64 {
        self.completion_ns - self.arrival_ns
    }

    /// Whether the request finished past its deadline.
    #[must_use]
    pub fn missed(&self) -> bool {
        self.completion_ns > self.deadline_ns
    }

    /// Lateness, ns: completion minus deadline (negative = early,
    /// `-∞` for best-effort requests).
    #[must_use]
    pub fn lateness_ns(&self) -> f64 {
        self.completion_ns - self.deadline_ns
    }
}

/// One dispatched batch's cost breakdown and pipeline placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchRecord {
    /// Requests coalesced into the batch.
    pub size: usize,
    /// The batch's tenant (batches never mix tenants).
    pub tenant: usize,
    /// Admission instant, ns: the clock time the scheduler formed the
    /// batch. Only requests that had *arrived* by this instant are in
    /// the batch.
    pub formed_ns: f64,
    /// Host fetch of the batch's input vectors finished at, ns.
    pub fetch_done_ns: f64,
    /// Host-side planning time (digit unpack + IARM), ns.
    pub plan_ns: f64,
    /// Mask rows reloaded because the tenant was not resident (0 on a
    /// residency hit or when residency is unmodelled).
    pub reload_rows: usize,
    /// Time the tenant-switch mask reload took, ns.
    pub reload_ns: f64,
    /// Engine execution time, ns.
    pub exec_ns: f64,
    /// Execution started at, ns.
    pub exec_start_ns: f64,
    /// Execution finished at, ns.
    pub exec_done_ns: f64,
    /// Energy of the batch's pipeline occupancy
    /// (`exec_start_ns..exec_done_ns`), nJ: engine launch energy
    /// (dynamic + all-rank background over the launch), mask-reload
    /// energy, and background power over the reload/dispatch overhead.
    pub energy_nj: f64,
    /// Mask-reload share of `energy_nj` (0 on a residency hit), nJ.
    pub reload_energy_nj: f64,
}

impl BatchRecord {
    /// The batch's busy-interval length, ns.
    #[must_use]
    pub fn busy_ns(&self) -> f64 {
        self.exec_done_ns - self.exec_start_ns
    }

    /// Average power over the batch's busy interval, W (0 degenerate).
    #[must_use]
    pub fn power_w(&self) -> f64 {
        if self.busy_ns() <= 0.0 {
            return 0.0;
        }
        self.energy_nj / self.busy_ns()
    }
}

/// Rolling-window average power sampled at a batch completion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerSample {
    /// Sample instant (a batch's completion), ns.
    pub t_ns: f64,
    /// Average power over the preceding
    /// [`ServeReport::power_window_ns`], W.
    pub power_w: f64,
}

/// Queue depth sampled at a pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueueSample {
    /// Sample instant, ns.
    pub t_ns: f64,
    /// Requests arrived but not yet completed at that instant.
    pub depth: usize,
}

/// One request's end-to-end latency split into pipeline components,
/// ns. By construction `queue_ns + plan_ns + reload_ns + exec_ns ==
/// total_ns` exactly: the queue share is derived subtractively, so the
/// decomposition never drifts from the end-to-end figure it explains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencyComponents {
    /// Time not attributable to work on the request's own batch:
    /// pre-admission waiting, the host fetch, and stalls behind the
    /// planner/engine clocks, ns.
    pub queue_ns: f64,
    /// Host planning (digit unpack + IARM) of the request's batch, ns.
    pub plan_ns: f64,
    /// Tenant mask-plane reload on the batch's critical path, ns.
    pub reload_ns: f64,
    /// Engine occupancy after the reload — dispatch overhead plus the
    /// launch itself, ns.
    pub exec_ns: f64,
    /// End-to-end latency (arrival → completion), ns.
    pub total_ns: f64,
}

/// Per-priority-class latency decomposition: component means and p99s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassBreakdown {
    /// The priority this row aggregates.
    pub priority: u8,
    /// Requests served in the class.
    pub count: usize,
    /// Mean of each component over the class. Sums to the mean
    /// end-to-end latency exactly (the queue mean is derived
    /// subtractively, like the per-request split).
    pub mean: LatencyComponents,
    /// 99th percentile of each component over the class, taken
    /// *independently* per component: the p99s need not sum to
    /// `p99.total_ns`, since the slowest-queued request is rarely also
    /// the slowest-executing one.
    pub p99: LatencyComponents,
}

/// Aggregate latency/SLO statistics of one priority class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassStats {
    /// The priority this row aggregates.
    pub priority: u8,
    /// Requests served in the class.
    pub count: usize,
    /// Median latency, ns.
    pub p50_ns: f64,
    /// 95th-percentile latency, ns.
    pub p95_ns: f64,
    /// 99th-percentile latency, ns.
    pub p99_ns: f64,
    /// Fraction of the class's requests that finished past deadline.
    pub miss_rate: f64,
}

/// Aggregate results of one serving run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServeReport {
    /// Per-request outcomes, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-batch pipeline records, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Queue depth at each batch completion.
    pub queue_depth: Vec<QueueSample>,
    /// Rolling-window average power at each batch completion — the
    /// power timeline alongside the queue-depth timeline.
    pub power_timeline: Vec<PowerSample>,
    /// Row-buffer hit rate of the host fetch path over the whole run.
    pub host_hit_rate: f64,
    /// Static background power of the served module
    /// (`p_static_w × channels × ranks`), burned between batches, W.
    pub idle_floor_w: f64,
    /// The rolling window the power timeline (and any power cap)
    /// averages over, ns: always 1 ms.
    pub power_window_ns: f64,
    /// Priced-batch lookups this run served from the memo (this run
    /// only, like `engine_cache`; zero when the tier is disabled).
    /// Observational only — caching never changes results.
    pub batch_cache_hits: u64,
    /// Priced-batch lookups this run had to price.
    pub batch_cache_misses: u64,
    /// Engine plan/stream/report cache tallies this run generated (all
    /// zeros when the engine was built with caching disabled).
    pub engine_cache: c2m_dram::CacheCounters,
}

/// Percentiles of `lat` (consumed and sorted in place).
fn percentiles_ns(mut lat: Vec<f64>, ps: &[f64]) -> Vec<f64> {
    if lat.is_empty() {
        return vec![0.0; ps.len()];
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ps.iter()
        .map(|p| {
            let rank = (p / 100.0 * lat.len() as f64).ceil() as usize;
            lat[rank.clamp(1, lat.len()) - 1]
        })
        .collect()
}

impl ServeReport {
    /// One request's end-to-end latency decomposed against its batch's
    /// pipeline record: planning, mask reload, engine occupancy
    /// (dispatch + launch), and — subtractively, so the parts sum to
    /// the whole exactly — everything else as queueing.
    ///
    /// # Panics
    ///
    /// Panics if `o.batch` is out of range for this report's batches —
    /// outcomes decompose only against the report that produced them.
    #[must_use]
    pub fn latency_components(&self, o: &RequestOutcome) -> LatencyComponents {
        let b = &self.batches[o.batch];
        let plan_ns = b.plan_ns;
        let reload_ns = b.reload_ns;
        let exec_ns = (b.exec_done_ns - b.exec_start_ns) - b.reload_ns;
        let total_ns = o.completion_ns - o.arrival_ns;
        let queue_ns = total_ns - plan_ns - reload_ns - exec_ns;
        LatencyComponents {
            queue_ns,
            plan_ns,
            reload_ns,
            exec_ns,
            total_ns,
        }
    }

    /// Per-class latency decomposition, ascending by priority: mean and
    /// p99 of the queue/plan/reload/exec components. Each class's mean
    /// components sum to its mean end-to-end latency exactly; the p99s
    /// are per-component order statistics and carry no such identity
    /// (see [`ClassBreakdown::p99`]).
    #[must_use]
    pub fn latency_breakdown(&self) -> Vec<ClassBreakdown> {
        self.priorities()
            .into_iter()
            .map(|priority| {
                let comps: Vec<LatencyComponents> = self
                    .outcomes
                    .iter()
                    .filter(|o| o.priority == priority)
                    .map(|o| self.latency_components(o))
                    .collect();
                let n = comps.len() as f64;
                let mean_of = |f: fn(&LatencyComponents) -> f64| -> f64 {
                    comps.iter().map(f).sum::<f64>() / n
                };
                let p99_of = |f: fn(&LatencyComponents) -> f64| -> f64 {
                    percentiles_ns(comps.iter().map(f).collect(), &[99.0])[0]
                };
                let plan_ns = mean_of(|c| c.plan_ns);
                let reload_ns = mean_of(|c| c.reload_ns);
                let exec_ns = mean_of(|c| c.exec_ns);
                let total_ns = mean_of(|c| c.total_ns);
                ClassBreakdown {
                    priority,
                    count: comps.len(),
                    mean: LatencyComponents {
                        queue_ns: total_ns - plan_ns - reload_ns - exec_ns,
                        plan_ns,
                        reload_ns,
                        exec_ns,
                        total_ns,
                    },
                    p99: LatencyComponents {
                        queue_ns: p99_of(|c| c.queue_ns),
                        plan_ns: p99_of(|c| c.plan_ns),
                        reload_ns: p99_of(|c| c.reload_ns),
                        exec_ns: p99_of(|c| c.exec_ns),
                        total_ns: p99_of(|c| c.total_ns),
                    },
                }
            })
            .collect()
    }

    /// Latencies at each percentile of `ps` (values in [0, 100]), ns —
    /// sorts the outcomes once however many percentiles are asked for.
    /// All zeros when there are no outcomes.
    #[must_use]
    pub fn latency_percentiles_ns(&self, ps: &[f64]) -> Vec<f64> {
        percentiles_ns(
            self.outcomes
                .iter()
                .map(RequestOutcome::latency_ns)
                .collect(),
            ps,
        )
    }

    /// Latency at percentile `p` in [0, 100], ns (0 when no outcomes).
    #[must_use]
    pub fn latency_percentile_ns(&self, p: f64) -> f64 {
        self.latency_percentiles_ns(&[p])[0]
    }

    /// Median latency, ns.
    #[must_use]
    pub fn p50_ns(&self) -> f64 {
        self.latency_percentile_ns(50.0)
    }

    /// 95th-percentile latency, ns.
    #[must_use]
    pub fn p95_ns(&self) -> f64 {
        self.latency_percentile_ns(95.0)
    }

    /// 99th-percentile latency, ns.
    #[must_use]
    pub fn p99_ns(&self) -> f64 {
        self.latency_percentile_ns(99.0)
    }

    /// Mean latency, ns.
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(RequestOutcome::latency_ns)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// The distinct priorities served, ascending.
    #[must_use]
    pub fn priorities(&self) -> Vec<u8> {
        let mut ps: Vec<u8> = self.outcomes.iter().map(|o| o.priority).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Latency percentiles restricted to one priority class, ns.
    #[must_use]
    pub fn class_latency_percentiles_ns(&self, priority: u8, ps: &[f64]) -> Vec<f64> {
        percentiles_ns(
            self.outcomes
                .iter()
                .filter(|o| o.priority == priority)
                .map(RequestOutcome::latency_ns)
                .collect(),
            ps,
        )
    }

    /// Deadline-miss rate of one priority class (0 when the class is
    /// empty).
    #[must_use]
    pub fn class_miss_rate(&self, priority: u8) -> f64 {
        let class: Vec<&RequestOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.priority == priority)
            .collect();
        if class.is_empty() {
            return 0.0;
        }
        class.iter().filter(|o| o.missed()).count() as f64 / class.len() as f64
    }

    /// Per-class latency/SLO rollup, ascending by priority.
    #[must_use]
    pub fn class_stats(&self) -> Vec<ClassStats> {
        self.priorities()
            .into_iter()
            .map(|priority| {
                let pcts = self.class_latency_percentiles_ns(priority, &[50.0, 95.0, 99.0]);
                ClassStats {
                    priority,
                    count: self
                        .outcomes
                        .iter()
                        .filter(|o| o.priority == priority)
                        .count(),
                    p50_ns: pcts[0],
                    p95_ns: pcts[1],
                    p99_ns: pcts[2],
                    miss_rate: self.class_miss_rate(priority),
                }
            })
            .collect()
    }

    /// Overall deadline-miss rate (best-effort requests never miss).
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.missed()).count() as f64 / self.outcomes.len() as f64
    }

    /// Deadline misses, absolute count.
    #[must_use]
    pub fn deadline_miss_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.missed()).count()
    }

    /// Worst lateness over requests that carry a deadline, ns
    /// (negative when every deadline was met; 0 with no deadlines).
    #[must_use]
    pub fn max_lateness_ns(&self) -> f64 {
        let mut worst = None;
        for o in self.outcomes.iter().filter(|o| o.deadline_ns.is_finite()) {
            let l = o.lateness_ns();
            worst = Some(worst.map_or(l, |w: f64| w.max(l)));
        }
        worst.unwrap_or(0.0)
    }

    /// Tenant-switch mask reloads over the run.
    #[must_use]
    pub fn reload_count(&self) -> usize {
        self.batches.iter().filter(|b| b.reload_rows > 0).count()
    }

    /// Total time spent reloading tenant mask planes, ns.
    #[must_use]
    pub fn reload_ns_total(&self) -> f64 {
        self.batches.iter().map(|b| b.reload_ns).sum()
    }

    /// Completion time of the last request, ns.
    #[must_use]
    pub fn makespan_ns(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.completion_ns)
            .fold(0.0, f64::max)
    }

    /// First arrival over the served trace, ns.
    #[must_use]
    pub fn first_arrival_ns(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.arrival_ns)
            .fold(f64::INFINITY, f64::min)
    }

    /// Sustained throughput in requests per second over the *busy*
    /// window: last completion minus first arrival. Measuring from t=0
    /// would overstate the window for open-loop traces whose first
    /// request arrives late. Returns 0 for an empty or degenerate
    /// (single-instant) report.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let span = self.makespan_ns() - self.first_arrival_ns();
        if span <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 * 1e9 / span
    }

    /// Total time the engine pipeline was occupied by batches, ns.
    #[must_use]
    pub fn busy_ns_total(&self) -> f64 {
        self.batches.iter().map(BatchRecord::busy_ns).sum()
    }

    /// Module idle time inside the busy window (first arrival → last
    /// completion) not covered by any batch, ns.
    #[must_use]
    pub fn idle_ns_total(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        (self.makespan_ns() - self.first_arrival_ns() - self.busy_ns_total()).max(0.0)
    }

    /// Total energy of the run, nJ: every batch's attributed energy
    /// plus the idle background burn between batches.
    #[must_use]
    pub fn total_energy_nj(&self) -> f64 {
        self.batches.iter().map(|b| b.energy_nj).sum::<f64>()
            + self.idle_floor_w * self.idle_ns_total()
    }

    /// Energy per served request, J (0 with no outcomes).
    #[must_use]
    pub fn joules_per_request(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.total_energy_nj() * 1e-9 / self.outcomes.len() as f64
    }

    /// Energy per served request of one priority class, J: the class's
    /// batch-energy shares (a batch's energy splits equally over its
    /// requests) plus an equal per-request share of the idle burn.
    /// Returns 0 when the class is empty.
    #[must_use]
    pub fn class_joules_per_request(&self, priority: u8) -> f64 {
        let members: Vec<&RequestOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.priority == priority)
            .collect();
        if members.is_empty() {
            return 0.0;
        }
        let idle_share = self.idle_floor_w * self.idle_ns_total() / self.outcomes.len() as f64;
        let busy: f64 = members
            .iter()
            .map(|o| {
                let b = &self.batches[o.batch];
                b.energy_nj / b.size as f64
            })
            .sum();
        (busy / members.len() as f64 + idle_share) * 1e-9
    }

    /// Average power over the busy window, W (0 degenerate).
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let span = self.makespan_ns() - self.first_arrival_ns();
        if span <= 0.0 {
            return 0.0;
        }
        self.total_energy_nj() / span
    }

    /// Worst rolling-window average power over the sampled timeline, W
    /// (0 with no samples). A run under a *feasible* power cap keeps
    /// this at or below the cap; an infeasible cap — one a lone
    /// request breaches even with a drained window — saturates
    /// instead of stalling, and the breach shows here as a peak above
    /// the cap.
    #[must_use]
    pub fn peak_window_power_w(&self) -> f64 {
        self.power_timeline
            .iter()
            .map(|s| s.power_w)
            .fold(0.0, f64::max)
    }

    /// Mean requests per dispatched batch.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.size as f64).sum::<f64>() / self.batches.len() as f64
    }

    /// Peak queue depth over the sampled timeline.
    #[must_use]
    pub fn peak_queue_depth(&self) -> usize {
        self.queue_depth.iter().map(|s| s.depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival: f64, done: f64) -> RequestOutcome {
        RequestOutcome {
            id,
            tenant: 0,
            priority: 0,
            arrival_ns: arrival,
            deadline_ns: f64::INFINITY,
            completion_ns: done,
            batch: 0,
        }
    }

    #[test]
    fn percentiles_pick_order_statistics() {
        let rep = ServeReport {
            outcomes: (0..100).map(|i| outcome(i, 0.0, (i + 1) as f64)).collect(),
            ..ServeReport::default()
        };
        assert_eq!(rep.p50_ns(), 50.0);
        assert_eq!(rep.p95_ns(), 95.0);
        assert_eq!(rep.p99_ns(), 99.0);
        assert_eq!(
            rep.latency_percentiles_ns(&[50.0, 95.0, 99.0]),
            vec![50.0, 95.0, 99.0]
        );
        assert_eq!(rep.latency_percentile_ns(100.0), 100.0);
        assert_eq!(rep.latency_percentile_ns(0.0), 1.0);
        assert_eq!(rep.makespan_ns(), 100.0);
        assert!((rep.throughput_rps() - 1e9).abs() < 1e-6);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let rep = ServeReport::default();
        assert_eq!(rep.p99_ns(), 0.0);
        assert_eq!(rep.throughput_rps(), 0.0);
        assert_eq!(rep.mean_batch_size(), 0.0);
        assert_eq!(rep.peak_queue_depth(), 0);
        assert_eq!(rep.deadline_miss_rate(), 0.0);
        assert_eq!(rep.reload_count(), 0);
        assert!(rep.class_stats().is_empty());
    }

    #[test]
    fn throughput_window_starts_at_first_arrival() {
        // Two requests arriving late: the busy window is completion −
        // first arrival, not completion − 0. Measured from t=0 the
        // window would be 5x too wide here.
        let rep = ServeReport {
            outcomes: vec![outcome(0, 400.0, 450.0), outcome(1, 410.0, 500.0)],
            ..ServeReport::default()
        };
        assert!((rep.throughput_rps() - 2.0 * 1e9 / 100.0).abs() < 1e-6);
        assert_eq!(rep.first_arrival_ns(), 400.0);
    }

    #[test]
    fn degenerate_single_instant_reports_zero_throughput() {
        let rep = ServeReport {
            outcomes: vec![outcome(0, 100.0, 100.0)],
            ..ServeReport::default()
        };
        assert_eq!(rep.throughput_rps(), 0.0);
    }

    #[test]
    fn class_stats_split_by_priority_and_count_misses() {
        let mut outcomes = Vec::new();
        for i in 0..10u64 {
            // Priority 1: deadline 50, completion 10·i → 5 misses.
            outcomes.push(RequestOutcome {
                id: i,
                tenant: 0,
                priority: 1,
                arrival_ns: 0.0,
                deadline_ns: 50.0,
                completion_ns: 10.0 * (i + 1) as f64,
                batch: 0,
            });
            // Priority 0: best-effort, never missed.
            outcomes.push(outcome(100 + i, 0.0, 1_000.0));
        }
        let rep = ServeReport {
            outcomes,
            ..ServeReport::default()
        };
        assert_eq!(rep.priorities(), vec![0, 1]);
        let stats = rep.class_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].priority, 0);
        assert_eq!(stats[0].miss_rate, 0.0);
        assert_eq!(stats[1].priority, 1);
        assert!((stats[1].miss_rate - 0.5).abs() < 1e-9);
        assert_eq!(stats[1].count, 10);
        assert!((rep.deadline_miss_rate() - 0.25).abs() < 1e-9);
        assert_eq!(rep.deadline_miss_count(), 5);
        assert!((rep.max_lateness_ns() - 50.0).abs() < 1e-9);
        assert_eq!(rep.class_latency_percentiles_ns(1, &[50.0])[0], 50.0);
    }

    #[test]
    fn reload_totals_come_from_batches() {
        let batch = |rows: usize, ns: f64| BatchRecord {
            size: 1,
            tenant: 0,
            formed_ns: 0.0,
            fetch_done_ns: 0.0,
            plan_ns: 0.0,
            reload_rows: rows,
            reload_ns: ns,
            exec_ns: 1.0,
            exec_start_ns: 0.0,
            exec_done_ns: 1.0,
            energy_nj: 0.0,
            reload_energy_nj: 0.0,
        };
        let rep = ServeReport {
            batches: vec![batch(0, 0.0), batch(100, 5.0), batch(200, 7.0)],
            ..ServeReport::default()
        };
        assert_eq!(rep.reload_count(), 2);
        assert!((rep.reload_ns_total() - 12.0).abs() < 1e-12);
    }

    fn energy_batch(start: f64, done: f64, energy_nj: f64, size: usize) -> BatchRecord {
        BatchRecord {
            size,
            tenant: 0,
            formed_ns: start,
            fetch_done_ns: start,
            plan_ns: 0.0,
            reload_rows: 0,
            reload_ns: 0.0,
            exec_ns: done - start,
            exec_start_ns: start,
            exec_done_ns: done,
            energy_nj,
            reload_energy_nj: 0.0,
        }
    }

    #[test]
    fn energy_totals_add_batches_and_idle_floor() {
        // Two requests; two batches of 100 nJ over [0,100] and
        // [200,300]; idle floor 0.5 W over the 100 ns gap = 50 nJ.
        let mut rep = ServeReport {
            outcomes: vec![outcome(0, 0.0, 100.0), outcome(1, 0.0, 300.0)],
            batches: vec![
                energy_batch(0.0, 100.0, 100.0, 1),
                energy_batch(200.0, 300.0, 100.0, 1),
            ],
            idle_floor_w: 0.5,
            ..ServeReport::default()
        };
        rep.outcomes[1].batch = 1;
        assert!((rep.busy_ns_total() - 200.0).abs() < 1e-12);
        assert!((rep.idle_ns_total() - 100.0).abs() < 1e-12);
        assert!((rep.total_energy_nj() - 250.0).abs() < 1e-12);
        assert!((rep.joules_per_request() - 125.0e-9).abs() < 1e-18);
        // Single class: the class figure equals the overall figure.
        assert!((rep.class_joules_per_request(0) - rep.joules_per_request()).abs() < 1e-18);
        assert_eq!(rep.class_joules_per_request(7), 0.0);
        // Mean power over the 300 ns span.
        assert!((rep.mean_power_w() - 250.0 / 300.0).abs() < 1e-12);
        // Per-batch power.
        assert!((rep.batches[0].power_w() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn class_energy_splits_batches_equally_per_request() {
        // One batch of 4 requests, 400 nJ: 3 of class 0, 1 of class 9.
        let mut outcomes: Vec<RequestOutcome> = (0..4).map(|i| outcome(i, 0.0, 100.0)).collect();
        outcomes[3].priority = 9;
        let rep = ServeReport {
            outcomes,
            batches: vec![energy_batch(0.0, 100.0, 400.0, 4)],
            idle_floor_w: 0.0,
            ..ServeReport::default()
        };
        assert!((rep.class_joules_per_request(9) - 100.0e-9).abs() < 1e-18);
        assert!((rep.class_joules_per_request(0) - 100.0e-9).abs() < 1e-18);
    }

    #[test]
    fn latency_breakdown_components_sum_to_end_to_end() {
        // Batch 0: plan 10, reload 5, occupancy [100, 175] (exec+dispatch
        // = 70 after the reload). Batch 1: plan-free, reload-free,
        // occupancy [200, 260].
        let mut b0 = energy_batch(100.0, 175.0, 0.0, 2);
        b0.plan_ns = 10.0;
        b0.reload_ns = 5.0;
        let b1 = energy_batch(200.0, 260.0, 0.0, 1);
        let mut outcomes = vec![
            outcome(0, 0.0, 175.0),
            outcome(1, 30.0, 175.0),
            outcome(2, 180.0, 260.0),
        ];
        outcomes[2].batch = 1;
        outcomes[2].priority = 3;
        let rep = ServeReport {
            outcomes,
            batches: vec![b0, b1],
            ..ServeReport::default()
        };

        let c = rep.latency_components(&rep.outcomes[0]);
        assert!((c.plan_ns - 10.0).abs() < 1e-12);
        assert!((c.reload_ns - 5.0).abs() < 1e-12);
        assert!((c.exec_ns - 70.0).abs() < 1e-12);
        assert!((c.total_ns - 175.0).abs() < 1e-12);
        assert!((c.queue_ns - 90.0).abs() < 1e-12);

        let rows = rep.latency_breakdown();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let m = row.mean;
            assert!(
                (m.queue_ns + m.plan_ns + m.reload_ns + m.exec_ns - m.total_ns).abs() < 1e-9,
                "mean components must sum to the mean end-to-end latency"
            );
            let per_request: Vec<LatencyComponents> = rep
                .outcomes
                .iter()
                .filter(|o| o.priority == row.priority)
                .map(|o| rep.latency_components(o))
                .collect();
            assert_eq!(per_request.len(), row.count);
            for c in per_request {
                assert!(
                    (c.queue_ns + c.plan_ns + c.reload_ns + c.exec_ns - c.total_ns).abs() < 1e-9
                );
            }
        }
        // Class 0 (two requests of batch 0): mean total = (175+145)/2.
        assert_eq!(rows[0].priority, 0);
        assert!((rows[0].mean.total_ns - 160.0).abs() < 1e-12);
        // Singleton class: p99 components coincide with the lone split.
        assert_eq!(rows[1].priority, 3);
        assert!((rows[1].p99.total_ns - 80.0).abs() < 1e-12);
        assert!((rows[1].p99.exec_ns - 60.0).abs() < 1e-12);
        assert!(rep.latency_breakdown().len() == 2);
        assert!(ServeReport::default().latency_breakdown().is_empty());
    }

    #[test]
    fn peak_window_power_scans_the_timeline() {
        let rep = ServeReport {
            power_timeline: vec![
                PowerSample {
                    t_ns: 1.0,
                    power_w: 0.5,
                },
                PowerSample {
                    t_ns: 2.0,
                    power_w: 2.5,
                },
                PowerSample {
                    t_ns: 3.0,
                    power_w: 1.0,
                },
            ],
            ..ServeReport::default()
        };
        assert!((rep.peak_window_power_w() - 2.5).abs() < 1e-12);
        assert_eq!(ServeReport::default().peak_window_power_w(), 0.0);
        assert_eq!(ServeReport::default().total_energy_nj(), 0.0);
        assert_eq!(ServeReport::default().joules_per_request(), 0.0);
        assert_eq!(ServeReport::default().mean_power_w(), 0.0);
    }
}
