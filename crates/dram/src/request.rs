//! FR-FCFS memory-request scheduling (Table 2: "FR-FCFS scheduling").
//!
//! The host-side routine of §5.1 streams the input matrix X out of DRAM
//! while CIM μPrograms run in other banks. The memory controller's
//! request queue uses First-Ready, First-Come-First-Served: among all
//! queued requests it issues row-buffer *hits* first (first-ready) and
//! breaks ties by age (FCFS). [`RequestQueue`] is an event-driven model
//! of that policy over the per-bank [`BankState`] machines; it reports
//! per-request latency and row-buffer locality so the bench harness can
//! verify the host access path never becomes the bottleneck (the
//! paper's claim that "μProgram generation … is negligible").
//!
//! Beyond the paper's one-request-at-a-time host path, the queue also
//! models *batched* dispatch ([`RequestQueue::run_batched`]): requests
//! arriving within a configurable window ([`BatchWindow`]) form a batch
//! inside which the controller reorders freely — row hits coalesce
//! back-to-back and banks overlap — subject to a starvation cap that
//! bounds how long first-ready priority may bypass an older request.
//! The serving runtime (`c2m_serve`) prices its host fetch path through
//! this interface; [`RequestQueue::run_serial`] is the one-at-a-time
//! baseline it is compared against.
//!
//! Issuing costs O(banks) per request, not O(batch): each window batch
//! is indexed once, by bank and by (bank, row), with a cursor at each
//! group's oldest request. Within a bank, FCFS order is arrival order,
//! so every scheduling question — the next issue instant, the oldest
//! ready request, the first ready row hit — is answered from one group
//! head per bank.

use crate::bank_state::{AccessKind, BankState};
use crate::stats::hit_fraction;
use crate::timing::TimingParams;
use c2m_trace::{TraceSink, Track};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One host memory request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryRequest {
    /// Arrival time at the controller, ns.
    pub arrival_ns: f64,
    /// Target bank.
    pub bank: usize,
    /// Target row within the bank.
    pub row: usize,
    /// True for writes (same timing model, tracked for stats).
    pub is_write: bool,
}

impl MemoryRequest {
    /// A read request.
    #[must_use]
    pub fn read(arrival_ns: f64, bank: usize, row: usize) -> Self {
        Self {
            arrival_ns,
            bank,
            row,
            is_write: false,
        }
    }

    /// A write request.
    #[must_use]
    pub fn write(arrival_ns: f64, bank: usize, row: usize) -> Self {
        Self {
            arrival_ns,
            bank,
            row,
            is_write: true,
        }
    }
}

/// Completion record for one serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The request as submitted.
    pub request: MemoryRequest,
    /// Time the command issued, ns.
    pub issue_ns: f64,
    /// Time data was available / written, ns.
    pub finish_ns: f64,
    /// Row-buffer outcome.
    pub kind: AccessKind,
}

impl Completion {
    /// Total latency seen by the requester (arrival → finish), ns.
    #[must_use]
    pub fn latency_ns(&self) -> f64 {
        self.finish_ns - self.request.arrival_ns
    }
}

/// Aggregate scheduling results.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Per-request completions, in service order.
    pub completions: Vec<Completion>,
}

impl ScheduleReport {
    /// Mean request latency (arrival → data), ns.
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions
            .iter()
            .map(Completion::latency_ns)
            .sum::<f64>()
            / self.completions.len() as f64
    }

    /// Worst-case request latency, ns.
    #[must_use]
    pub fn max_latency_ns(&self) -> f64 {
        self.completions
            .iter()
            .map(Completion::latency_ns)
            .fold(0.0, f64::max)
    }

    /// Fraction of requests that hit an open row.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self
            .completions
            .iter()
            .filter(|c| c.kind == AccessKind::RowHit)
            .count();
        hit_fraction(hits as u64, self.completions.len() as u64)
    }

    /// Completion time of the last request, ns.
    #[must_use]
    pub fn makespan_ns(&self) -> f64 {
        self.completions
            .iter()
            .map(|c| c.finish_ns)
            .fold(0.0, f64::max)
    }

    /// Sustained bandwidth in requests per microsecond.
    #[must_use]
    pub fn requests_per_us(&self) -> f64 {
        let span = self.makespan_ns();
        if span <= 0.0 {
            return 0.0;
        }
        self.completions.len() as f64 * 1000.0 / span
    }
}

/// Batched-dispatch policy for [`RequestQueue::run_batched`].
///
/// A batch opens at the arrival time of the oldest still-pending request
/// and admits every pending request arriving within `window_ns` of that
/// instant (in FCFS order). Within the batch the controller schedules
/// with FR-FCFS — row hits first, banks overlapped — but a ready request
/// that has already waited longer than `max_wait_ns` preempts first-ready
/// priority, bounding the bypass a row-hit streak can inflict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchWindow {
    /// Width of the batching window, ns. Zero coalesces only requests
    /// arriving at the very same instant.
    pub window_ns: f64,
    /// FR-FCFS starvation cap, ns: a ready request older than this is
    /// served before any younger row hit.
    pub max_wait_ns: f64,
}

impl BatchWindow {
    /// Default FR-FCFS starvation cap (10 µs), shared with the serving
    /// runtime's default so both layers run the same policy.
    pub const DEFAULT_MAX_WAIT_NS: f64 = 10_000.0;

    /// A window of `window_ns` with the default 10 µs starvation cap.
    #[must_use]
    pub fn new(window_ns: f64) -> Self {
        Self {
            window_ns,
            max_wait_ns: Self::DEFAULT_MAX_WAIT_NS,
        }
    }
}

/// An FR-FCFS request scheduler over `banks` open-row banks.
///
/// # Examples
///
/// ```
/// use c2m_dram::{MemoryRequest, RequestQueue, TimingParams};
///
/// let mut q = RequestQueue::new(TimingParams::ddr5_4400(), 4);
/// let reqs: Vec<_> = (0..64).map(|i| MemoryRequest::read(0.0, i % 4, 7)).collect();
/// let report = q.run(&reqs);
/// assert!(report.hit_rate() > 0.9); // same-row streams hit the row buffer
/// ```
#[derive(Debug, Clone)]
pub struct RequestQueue {
    timing: TimingParams,
    banks: Vec<BankState>,
    /// Earliest time each bank can start its next access, ns.
    bank_ready: Vec<f64>,
    /// Earliest time the shared command/data bus is free, ns.
    bus_ready: f64,
    /// Optional trace hook emitting per-completion fetch spans on
    /// per-bank lanes; `None` (the default) costs one branch per
    /// completion.
    trace: Option<Arc<dyn TraceSink>>,
}

impl RequestQueue {
    /// Creates a queue over `banks` precharged banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn new(timing: TimingParams, banks: usize) -> Self {
        assert!(banks > 0, "at least one bank required");
        Self {
            timing,
            banks: vec![BankState::new(); banks],
            bank_ready: vec![0.0; banks],
            bus_ready: 0.0,
            trace: None,
        }
    }

    /// Attaches a trace sink; every serviced request then emits a span
    /// on its bank's fetch lane (named by row-buffer outcome) plus
    /// fetch counters/latency metrics. Never changes scheduling.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    fn trace_completion(&self, c: &Completion) {
        let Some(sink) = &self.trace else { return };
        let name = match c.kind {
            AccessKind::RowHit => "fetch_hit",
            AccessKind::RowMiss => "fetch_miss",
            AccessKind::RowConflict => "fetch_conflict",
        };
        sink.span(
            Track::dram_fetch(c.request.bank as u32),
            name,
            "dram",
            c.issue_ns,
            c.finish_ns,
        );
        if let Some(m) = sink.metrics() {
            m.inc("dram.fetch_requests", 1);
            m.observe_ns("dram.fetch_latency_ns", c.latency_ns());
        }
    }

    /// Services every request with FR-FCFS and returns the report.
    /// Equivalent to [`Self::run_batched`] with an unbounded window and
    /// no starvation cap: the whole trace is one batch.
    ///
    /// # Panics
    ///
    /// Panics if any request names a bank out of range.
    pub fn run(&mut self, requests: &[MemoryRequest]) -> ScheduleReport {
        self.run_batched(
            requests,
            BatchWindow {
                window_ns: f64::INFINITY,
                max_wait_ns: f64::INFINITY,
            },
        )
    }

    /// Services every request strictly one at a time in arrival order —
    /// the seed host path that prices each request only after the
    /// previous one finished, with no bank overlap and no reordering.
    /// This is the serial baseline batched dispatch is measured against.
    ///
    /// # Panics
    ///
    /// Panics if any request names a bank out of range.
    pub fn run_serial(&mut self, requests: &[MemoryRequest]) -> ScheduleReport {
        for r in requests {
            assert!(r.bank < self.banks.len(), "bank {} out of range", r.bank);
        }
        let mut order: Vec<(usize, MemoryRequest)> = requests.iter().copied().enumerate().collect();
        sort_fcfs(&mut order);
        let mut report = ScheduleReport::default();
        let mut prev_finish = 0.0f64;
        for (_, req) in order {
            let issue = req
                .arrival_ns
                .max(prev_finish)
                .max(self.bank_ready[req.bank])
                .max(self.bus_ready);
            let kind = self.banks[req.bank].access(req.row);
            let finish = issue + kind.latency_ns(&self.timing);
            self.bank_ready[req.bank] = finish;
            self.bus_ready = issue + self.timing.t_burst;
            prev_finish = finish;
            let done = Completion {
                request: req,
                issue_ns: issue,
                finish_ns: finish,
                kind,
            };
            if self.trace.is_some() {
                self.trace_completion(&done);
            }
            report.completions.push(done);
        }
        report
    }

    /// Services the trace batch by batch under `window` (see
    /// [`BatchWindow`] for the batch-formation rule). Within a batch the
    /// controller overlaps banks and issues row hits first, except that
    /// a ready request waiting longer than the starvation cap is served
    /// before any younger hit; the next batch opens once the current one
    /// has fully issued, so a window can only reorder — it never idles
    /// the controller waiting for future arrivals.
    ///
    /// Each issue costs O(banks), whatever the batch size (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if any request names a bank out of range.
    pub fn run_batched(
        &mut self,
        requests: &[MemoryRequest],
        window: BatchWindow,
    ) -> ScheduleReport {
        for r in requests {
            assert!(r.bank < self.banks.len(), "bank {} out of range", r.bank);
        }
        let mut pending: Vec<(usize, MemoryRequest)> =
            requests.iter().copied().enumerate().collect();
        // Stable order by arrival, then submission index (FCFS base).
        sort_fcfs(&mut pending);
        let mut report = ScheduleReport {
            completions: Vec::with_capacity(requests.len()),
        };
        // One allocation holds every window batch's index in turn.
        let mut scratch = vec![0; IssueIndex::words(requests.len(), self.banks.len())];
        let mut now = 0.0f64;
        let mut rest = pending.as_slice();

        while let Some((_, oldest)) = rest.first() {
            // The batch opens at the oldest pending arrival and admits
            // everything arriving within the window of that instant.
            let t_open = oldest.arrival_ns;
            let take = rest
                .iter()
                .take_while(|(_, r)| r.arrival_ns - t_open <= window.window_ns)
                .count()
                .max(1);
            let (batch, tail) = rest.split_at(take);
            rest = tail;
            let mut index = IssueIndex::new(&mut scratch, batch, &self.banks);

            for _ in 0..batch.len() {
                // Advance the clock to the earliest instant *some* batch
                // request could issue (arrived, bank free, bus free) —
                // scheduling decisions are made when resources free up,
                // so a row hit that arrives while a bank is busy still
                // wins FR priority.
                let t_min = index.earliest_issue(batch, &self.bank_ready, self.bus_ready);
                now = now.max(t_min);
                let pick = index.pick(batch, &self.bank_ready, now, window.max_wait_ns);
                let req = batch[pick].1;
                index.take(pick, req.bank);

                let kind = self.banks[req.bank].access(req.row);
                // Row cycle occupies the bank; the data burst occupies the bus.
                let issue = now;
                let finish = issue + kind.latency_ns(&self.timing);
                self.bank_ready[req.bank] = finish;
                self.bus_ready = issue + self.timing.t_burst;
                let done = Completion {
                    request: req,
                    issue_ns: issue,
                    finish_ns: finish,
                    kind,
                };
                if self.trace.is_some() {
                    self.trace_completion(&done);
                }
                report.completions.push(done);
            }
        }
        report
    }
}

/// A bank whose open row no request of the batch names.
const NO_GROUP: usize = usize::MAX;
/// `group_of[p]` once position `p` has issued.
const TAKEN: usize = usize::MAX;

/// The FR-FCFS issue index of one window batch, whose positions are in
/// FCFS order. Positions are grouped by bank (a counting sort) and by
/// (bank, row) (a stable sort of each bank's run by row), so each group
/// lists its positions in FCFS order, and each group keeps a cursor at
/// its oldest position not yet issued. A cursor skips issued positions
/// when it reaches them.
///
/// Within a bank, FCFS order is arrival order, so a bank's cursor head
/// is its oldest request, the earliest to arrive and the first to be
/// ready. After the clock advance the bus is free, so a request is
/// ready exactly when it has arrived and its bank is free: the oldest
/// ready request is the smallest head among the ready banks, and the
/// first ready row hit is the smallest arrived head among the ready
/// banks' open-row groups. Every query reads one or two heads per bank.
struct IssueIndex<'a> {
    /// Positions grouped by bank, in FCFS order within a bank.
    by_bank: &'a mut [usize],
    /// Per bank: its cursor into `by_bank`, and the end of its run.
    bank_cursor: &'a mut [usize],
    bank_end: &'a mut [usize],
    /// Banks with positions left to issue: the first `active_len`.
    active: &'a mut [usize],
    active_len: usize,
    /// Positions grouped by (bank, row), in FCFS order within a group.
    by_row: &'a mut [usize],
    /// Per position: its (bank, row) group, or [`TAKEN`].
    group_of: &'a mut [usize],
    /// Per group: its cursor into `by_row`, and the end of its run.
    group_cursor: &'a mut [usize],
    group_end: &'a mut [usize],
    /// Per bank: the group of its open row, or [`NO_GROUP`].
    open_group: &'a mut [usize],
}

impl<'a> IssueIndex<'a> {
    /// Scratch words an index of up to `positions` requests over
    /// `banks` banks needs.
    fn words(positions: usize, banks: usize) -> usize {
        5 * positions + 4 * banks
    }

    /// Indexes `batch` against the banks' open rows, in `scratch`.
    fn new(
        scratch: &'a mut [usize],
        batch: &[(usize, MemoryRequest)],
        banks: &[BankState],
    ) -> Self {
        let (m, nb) = (batch.len(), banks.len());
        let (by_bank, rest) = scratch.split_at_mut(m);
        let (by_row, rest) = rest.split_at_mut(m);
        let (group_of, rest) = rest.split_at_mut(m);
        let (group_cursor, rest) = rest.split_at_mut(m);
        let (group_end, rest) = rest.split_at_mut(m);
        let (bank_cursor, rest) = rest.split_at_mut(nb);
        let (bank_end, rest) = rest.split_at_mut(nb);
        let (open_group, active) = rest.split_at_mut(nb);

        // Counting sort by bank, touching only the batch's banks: count
        // into `bank_cursor` (listing each bank as it first appears),
        // turn the counts into run ends, then place positions back to
        // front, so each run is in FCFS order with its cursor at its
        // start.
        for (_, r) in batch {
            bank_cursor[r.bank] = 0;
        }
        let mut active_len = 0;
        for (_, r) in batch {
            if bank_cursor[r.bank] == 0 {
                active[active_len] = r.bank;
                active_len += 1;
            }
            bank_cursor[r.bank] += 1;
        }
        let mut end = 0;
        for &b in &active[..active_len] {
            end += bank_cursor[b];
            bank_end[b] = end;
            bank_cursor[b] = end;
            open_group[b] = NO_GROUP;
        }
        for (p, (_, r)) in batch.iter().enumerate().rev() {
            bank_cursor[r.bank] -= 1;
            by_bank[bank_cursor[r.bank]] = p;
        }

        // A stable sort of each bank's run by row groups the positions
        // by (bank, row), in FCFS order within a group.
        by_row.copy_from_slice(by_bank);
        for &b in &active[..active_len] {
            by_row[bank_cursor[b]..bank_end[b]].sort_by_key(|&p| batch[p].1.row);
        }
        let mut groups = 0;
        for (i, &p) in by_row.iter().enumerate() {
            let r = &batch[p].1;
            let starts_group = i == 0 || {
                let prev = &batch[by_row[i - 1]].1;
                (prev.bank, prev.row) != (r.bank, r.row)
            };
            if starts_group {
                if groups > 0 {
                    group_end[groups - 1] = i;
                }
                group_cursor[groups] = i;
                if banks[r.bank].would_hit(r.row) {
                    open_group[r.bank] = groups;
                }
                groups += 1;
            }
            group_of[p] = groups - 1;
        }
        if groups > 0 {
            group_end[groups - 1] = m;
        }
        Self {
            by_bank,
            bank_cursor,
            bank_end,
            active,
            active_len,
            by_row,
            group_of,
            group_cursor,
            group_end,
            open_group,
        }
    }

    /// Bank `b`'s oldest position not yet issued. `b` is active, so one
    /// is left, and its cursor never rests on an issued position.
    fn bank_head(&self, b: usize) -> usize {
        self.by_bank[self.bank_cursor[b]]
    }

    /// Group `g`'s oldest position not yet issued, if any.
    fn group_head(&mut self, g: usize) -> Option<usize> {
        let (cursor, end) = (&mut self.group_cursor[g], self.group_end[g]);
        while *cursor < end && self.group_of[self.by_row[*cursor]] == TAKEN {
            *cursor += 1;
        }
        (*cursor < end).then(|| self.by_row[*cursor])
    }

    /// The earliest instant some request could issue: the minimum over
    /// active banks of max(head arrival, bank free, bus free).
    fn earliest_issue(
        &self,
        batch: &[(usize, MemoryRequest)],
        bank_ready: &[f64],
        bus_ready: f64,
    ) -> f64 {
        self.active[..self.active_len]
            .iter()
            .map(|&b| {
                batch[self.bank_head(b)]
                    .1
                    .arrival_ns
                    .max(bank_ready[b])
                    .max(bus_ready)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The FR-FCFS issue at `now` (after the clock advance): the oldest
    /// ready request if it has waited longer than `max_wait_ns`, else
    /// the first ready row hit, else the oldest ready request. Waiting
    /// past the cap is monotone in arrival, so when the oldest ready
    /// request is under the cap, every later one is too.
    fn pick(
        &mut self,
        batch: &[(usize, MemoryRequest)],
        bank_ready: &[f64],
        now: f64,
        max_wait_ns: f64,
    ) -> usize {
        let arrival = |p: usize| batch[p].1.arrival_ns;
        let (mut oldest, mut hit) = (usize::MAX, usize::MAX);
        for i in 0..self.active_len {
            let b = self.active[i];
            let head = self.bank_head(b);
            // A bank whose oldest request has not arrived has none
            // ready, hits included.
            if bank_ready[b] > now || arrival(head) > now {
                continue;
            }
            oldest = oldest.min(head);
            let g = self.open_group[b];
            if g != NO_GROUP {
                if let Some(h) = self.group_head(g) {
                    if arrival(h) <= now {
                        hit = hit.min(h);
                    }
                }
            }
        }
        assert!(oldest != usize::MAX, "clock advance must free a request");
        if hit == usize::MAX || now - arrival(oldest) > max_wait_ns {
            oldest
        } else {
            hit
        }
    }

    /// Marks position `p` of bank `bank` issued: the bank's open row is
    /// now `p`'s, and a bank with nothing left leaves the active set.
    fn take(&mut self, p: usize, bank: usize) {
        self.open_group[bank] = self.group_of[p];
        self.group_of[p] = TAKEN;
        let (cursor, end) = (&mut self.bank_cursor[bank], self.bank_end[bank]);
        while *cursor < end && self.group_of[self.by_bank[*cursor]] == TAKEN {
            *cursor += 1;
        }
        if *cursor == end {
            let at = self.active[..self.active_len]
                .iter()
                .position(|&b| b == bank)
                .expect("an issued request's bank is active");
            self.active_len -= 1;
            self.active.swap(at, self.active_len);
        }
    }
}

/// Stable FCFS order: arrival time, then submission index.
fn sort_fcfs(reqs: &mut [(usize, MemoryRequest)]) {
    reqs.sort_by(|a, b| {
        a.1.arrival_ns
            .partial_cmp(&b.1.arrival_ns)
            .expect("arrival times are finite by construction")
            .then(a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::ddr5_4400()
    }

    #[test]
    fn sequential_same_row_requests_hit() {
        let mut q = RequestQueue::new(timing(), 4);
        let reqs: Vec<MemoryRequest> = (0..8)
            .map(|i| MemoryRequest::read(i as f64, 0, 5))
            .collect();
        let rep = q.run(&reqs);
        assert_eq!(rep.completions.len(), 8);
        // First is a miss, the rest hit.
        assert_eq!(rep.completions[0].kind, AccessKind::RowMiss);
        assert!(rep.hit_rate() > 0.8);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_over_older_conflicts() {
        let mut q = RequestQueue::new(timing(), 1);
        // Open row 1, then queue: conflict (row 2, older) and hit (row 1).
        let warm = MemoryRequest::read(0.0, 0, 1);
        let conflict = MemoryRequest::read(1.0, 0, 2);
        let hit = MemoryRequest::read(2.0, 0, 1);
        let rep = q.run(&[warm, conflict, hit]);
        // Service order: warm, then the *hit* (row 1), then the conflict.
        assert_eq!(rep.completions[1].request.row, 1);
        assert_eq!(rep.completions[1].kind, AccessKind::RowHit);
        assert_eq!(rep.completions[2].request.row, 2);
    }

    #[test]
    fn banks_service_in_parallel_through_separate_states() {
        let t = timing();
        // Same-row streams to two different banks: both enjoy hits.
        let mut q = RequestQueue::new(t, 2);
        let mut reqs = Vec::new();
        for i in 0..10 {
            reqs.push(MemoryRequest::read(0.0, i % 2, 3));
        }
        let rep = q.run(&reqs);
        assert!(rep.hit_rate() >= 0.8, "hit rate {}", rep.hit_rate());
    }

    #[test]
    fn latency_accounts_for_queueing() {
        let mut q = RequestQueue::new(timing(), 1);
        // A burst of conflicting requests must queue behind each other.
        let reqs: Vec<MemoryRequest> = (0..4).map(|i| MemoryRequest::read(0.0, 0, i)).collect();
        let rep = q.run(&reqs);
        assert!(rep.max_latency_ns() > rep.completions[0].latency_ns());
    }

    #[test]
    fn writes_and_reads_share_the_model() {
        let mut q = RequestQueue::new(timing(), 2);
        let rep = q.run(&[
            MemoryRequest::write(0.0, 0, 1),
            MemoryRequest::read(0.0, 0, 1),
        ]);
        assert_eq!(rep.completions.len(), 2);
        assert!(rep.completions[1].kind == AccessKind::RowHit);
    }

    #[test]
    fn throughput_reported() {
        let mut q = RequestQueue::new(timing(), 4);
        let reqs: Vec<MemoryRequest> = (0..100)
            .map(|i| MemoryRequest::read(0.0, i % 4, i / 16))
            .collect();
        let rep = q.run(&reqs);
        assert!(rep.requests_per_us() > 0.0);
        assert_eq!(rep.completions.len(), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bank_panics() {
        let mut q = RequestQueue::new(timing(), 1);
        let _ = q.run(&[MemoryRequest::read(0.0, 3, 0)]);
    }

    // ---- batched dispatch ----

    fn mixed_trace() -> Vec<MemoryRequest> {
        (0..40)
            .map(|i| MemoryRequest::read(i as f64 * 3.0, i % 3, (i / 5) % 4))
            .collect()
    }

    #[test]
    fn unbounded_window_matches_run() {
        let trace = mixed_trace();
        let a = RequestQueue::new(timing(), 4).run(&trace);
        let b = RequestQueue::new(timing(), 4).run_batched(
            &trace,
            BatchWindow {
                window_ns: f64::INFINITY,
                max_wait_ns: f64::INFINITY,
            },
        );
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn batched_never_slower_than_serial_on_a_mixed_trace() {
        let trace = mixed_trace();
        let serial = RequestQueue::new(timing(), 4).run_serial(&trace);
        for w in [0.0, 10.0, 100.0, 1e6] {
            let batched = RequestQueue::new(timing(), 4).run_batched(&trace, BatchWindow::new(w));
            assert!(
                batched.makespan_ns() <= serial.makespan_ns() + 1e-9,
                "window {w}: batched {} vs serial {}",
                batched.makespan_ns(),
                serial.makespan_ns()
            );
        }
    }

    #[test]
    fn window_coalesces_row_hits_across_requests() {
        // Interleaved rows on one bank: serial order alternates rows
        // (every access a conflict); a wide window groups same-row
        // requests back-to-back.
        let trace: Vec<MemoryRequest> = (0..20)
            .map(|i| MemoryRequest::read(i as f64, 0, i % 2))
            .collect();
        let serial = RequestQueue::new(timing(), 1).run_serial(&trace);
        let batched = RequestQueue::new(timing(), 1).run_batched(&trace, BatchWindow::new(1e6));
        assert!(batched.hit_rate() > serial.hit_rate());
        assert!(batched.makespan_ns() < serial.makespan_ns());
    }

    #[test]
    fn starvation_cap_bounds_bypass() {
        // One early conflict request against a long stream of row hits:
        // without a cap FR priority defers the conflict to the very end;
        // with a cap it is served once its wait exceeds the cap.
        let mut trace = vec![MemoryRequest::read(0.5, 0, 99)];
        trace.extend((0..200).map(|i| MemoryRequest::read(i as f64 * 0.1, 0, 1)));
        let uncapped = RequestQueue::new(timing(), 1).run_batched(
            &trace,
            BatchWindow {
                window_ns: 1e9,
                max_wait_ns: f64::INFINITY,
            },
        );
        let capped = RequestQueue::new(timing(), 1).run_batched(
            &trace,
            BatchWindow {
                window_ns: 1e9,
                max_wait_ns: 200.0,
            },
        );
        let lat = |rep: &ScheduleReport| {
            rep.completions
                .iter()
                .find(|c| c.request.row == 99)
                .expect("victim serviced")
                .latency_ns()
        };
        assert!(lat(&capped) < lat(&uncapped));
        // Bound: the victim waits at most the cap plus the drain of the
        // requests already over-cap or in flight ahead of it.
        assert!(lat(&capped) < 200.0 + 10.0 * timing().t_rp + 10.0 * timing().t_rcd);
    }

    #[test]
    fn zero_window_still_services_everything_in_order_batches() {
        let trace = mixed_trace();
        let rep = RequestQueue::new(timing(), 4).run_batched(&trace, BatchWindow::new(0.0));
        assert_eq!(rep.completions.len(), trace.len());
    }

    /// `run_batched` with its first issue pick, kept as the oracle: every
    /// issue scans the batch for the earliest issue instant, lists the
    /// ready requests, then searches that list for the oldest over-cap
    /// request, then for the first row hit, then takes its head.
    fn run_batched_ready_list(
        q: &mut RequestQueue,
        requests: &[MemoryRequest],
        window: BatchWindow,
    ) -> ScheduleReport {
        let mut pending: Vec<(usize, MemoryRequest)> =
            requests.iter().copied().enumerate().collect();
        sort_fcfs(&mut pending);
        let mut report = ScheduleReport::default();
        let mut now = 0.0f64;
        while !pending.is_empty() {
            let t_open = pending[0].1.arrival_ns;
            let take = pending
                .iter()
                .take_while(|(_, r)| r.arrival_ns - t_open <= window.window_ns)
                .count()
                .max(1);
            let mut batch: Vec<(usize, MemoryRequest)> = pending.drain(..take).collect();
            while !batch.is_empty() {
                let t_min = batch
                    .iter()
                    .map(|(_, r)| r.arrival_ns.max(q.bank_ready[r.bank]).max(q.bus_ready))
                    .fold(f64::INFINITY, f64::min);
                now = now.max(t_min);
                let ready: Vec<usize> = (0..batch.len())
                    .filter(|&i| {
                        let r = &batch[i].1;
                        r.arrival_ns <= now && q.bank_ready[r.bank] <= now && q.bus_ready <= now
                    })
                    .collect();
                let pick = ready
                    .iter()
                    .copied()
                    .find(|&i| now - batch[i].1.arrival_ns > window.max_wait_ns)
                    .or_else(|| {
                        ready.iter().copied().find(|&i| {
                            let r = &batch[i].1;
                            q.banks[r.bank].would_hit(r.row)
                        })
                    })
                    .unwrap_or(ready[0]);
                let (_, req) = batch.remove(pick);
                let kind = q.banks[req.bank].access(req.row);
                let finish = now + kind.latency_ns(&q.timing);
                q.bank_ready[req.bank] = finish;
                q.bus_ready = now + q.timing.t_burst;
                report.completions.push(Completion {
                    request: req,
                    issue_ns: now,
                    finish_ns: finish,
                    kind,
                });
            }
        }
        report
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The indexed pick issues exactly what the ready-list pick
        /// issued, over random banks, rows and (tied) arrivals, finite
        /// and infinite starvation caps, and queue state carried from
        /// one call into the next. Besides random banks and rows, the
        /// requests take `hostpath`'s two layouts: a streaming read
        /// interleaved over the banks, 16 bursts per row, and reads of
        /// distinct rows of one bank.
        #[test]
        fn one_pass_pick_matches_the_ready_list(
            (len, banks, rows) in (1usize..=300, 1usize..=16, 1usize..=64),
            layout in 0usize..3,
            gap_ns in proptest::sample::select(vec![0.0, 0.5, 3.0, 40.0]),
            window_ns in proptest::sample::select(vec![0.0, 10.0, 100.0, f64::INFINITY]),
            max_wait_ns in proptest::sample::select(vec![0.0, 30.0, 200.0, f64::INFINITY]),
            seed in 0u64..1_000_000,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as usize
            };
            let reqs: Vec<MemoryRequest> = (0..len)
                .map(|i| {
                    let arrival = (next() % 32) as f64 * gap_ns;
                    let (bank, row) = match layout {
                        0 => (i % banks, i / (banks * 16)),
                        1 => (0, i),
                        _ => (next() % banks, next() % rows),
                    };
                    MemoryRequest::read(arrival, bank, row)
                })
                .collect();
            let window = BatchWindow { window_ns, max_wait_ns };
            let mut fast = RequestQueue::new(timing(), banks);
            let mut oracle = RequestQueue::new(timing(), banks);
            let (head, tail) = reqs.split_at(len / 2);
            for part in [head, tail] {
                let a = fast.run_batched(part, window);
                let b = run_batched_ready_list(&mut oracle, part, window);
                proptest::prop_assert_eq!(a.completions, b.completions);
            }
        }
    }
}
