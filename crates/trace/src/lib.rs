//! Zero-cost structured tracing + metrics for the Count2Multiply stack.
//!
//! The execution layers (the `c2m_dram` host fetch queue, the
//! `c2m_core` engine, the `c2m_serve` runtime) compute detailed
//! per-fetch / per-shard / per-request timelines and, until this crate,
//! threw them away: the only visibility into a run was the end-of-run
//! aggregate. This crate provides the instrumentation substrate they
//! thread events through:
//!
//! * [`TraceEvent`] — typed, allocation-free events: span begin/end
//!   with a category and a [`Track`] (Perfetto pid/tid), instant
//!   events, and numeric counter samples.
//! * [`TraceSink`] — the hook trait. Hot paths hold an
//!   `Option<Arc<dyn TraceSink>>`; the disabled (`None`) path performs
//!   no allocation and no arithmetic, so untraced runs are bit-for-bit
//!   identical to builds with no hooks at all. [`NullSink`] is the
//!   explicit do-nothing sink; [`RecordingSink`] keeps a bounded ring
//!   buffer of events plus a [`MetricsRegistry`].
//! * [`MetricsRegistry`] — named monotonic counters and log₂-bucketed
//!   latency histograms ([`LogHistogram`]), exported as flat JSON.
//! * [`chrome_trace_json`] — Chrome-trace/Perfetto JSON export
//!   (`traceEvents` array, pid/tid = layer/lane tracks), and
//!   [`validate_chrome_trace`] — the parser/balance/time-order checker the CI
//!   smoke job and the `c2m trace --check` subcommand run.
//!
//! Track conventions (see [`Track`]): pid [`PID_DRAM`] carries the
//! per-bank host-fetch lanes, pid [`PID_CORE`] carries engine launches
//! (one launch track plus one track per channel), pid [`PID_SERVE`]
//! carries the serving pipeline (requests / planner / engine tracks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod metrics;
mod sink;

pub use event::{TraceEvent, Track, PID_CORE, PID_DRAM, PID_SERVE};
pub use export::{chrome_trace_json, process_label, validate_chrome_trace, TraceCheck};
pub use metrics::{HistogramSummary, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use sink::{NullSink, RecordingSink, TraceSink};
