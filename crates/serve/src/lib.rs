//! # `c2m_serve` — batched, async, heterogeneity-aware request serving
//!
//! A discrete-event serving runtime on top of
//! [`C2mEngine`](c2m_core::engine::C2mEngine), turning the analytic
//! single-kernel cost model into a traffic simulator:
//!
//! * [`request`] / [`traffic`] — the multi-tenant ingest layer:
//!   [`ServeRequest`]s tagged with arrival time, tenant, kernel shape
//!   and an SLO [`ServiceClass`] (priority + relative deadline, set per
//!   tenant), generated by open-loop (Poisson) or closed-loop
//!   (think-time) traffic models over
//!   [`c2m_workloads::distributions`].
//! * [`runtime`] — the clock-driven admission scheduler: batches form
//!   *at* a dispatch instant and admit only requests that have actually
//!   arrived by then, under a pluggable [`SchedPolicy`] (FIFO /
//!   earliest-deadline-first / starvation-capped priority). The host
//!   fetch prices through [`c2m_dram::RequestQueue::run_batched`], the
//!   double-buffered planner overlaps IARM planning of batch *i+1* with
//!   execution of batch *i*, tenant weight residency
//!   ([`ServeConfig::residency_rows`]) charges mask-plane reloads on
//!   tenant switches, and execution prices through the engine's folds,
//!   [`c2m_core::engine::C2mEngine::fold_ternary_gemv`] for a lone
//!   request and
//!   [`c2m_core::engine::C2mEngine::fold_ternary_gemv_batch`] for a
//!   batch. The content-only part of a batch's pricing (host planning
//!   sequences + engine launch) memoises in a
//!   [`Memo`](c2m_core::cache::Memo) keyed on the batch's exact
//!   content — tenant, output width and member inputs — bit-for-bit
//!   identical to uncached serving; hit/miss tallies surface in
//!   [`ServeReport`]. Below the memo, the engine's plan and stream
//!   tiers serve the folds; serving never builds a report-tier key.
//! * [`report`] — per-request and per-class latency percentiles
//!   (p50/p95/p99), deadline-miss rates, throughput over the busy
//!   window, batch shapes, residency reloads and queue-depth timelines.
//!
//! With the default [`ServeConfig`] (batch cap 1, synchronous planner,
//! FIFO, free residency) on a 1-channel/1-rank engine, every request
//! prices through the seed single-kernel path bit-for-bit; the
//! `fig_serve` bench binary sweeps batch window × topology × backend
//! mix × scheduling policy over these levers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ready;
pub mod report;
pub mod request;
pub mod runtime;
pub mod traffic;

pub use report::{
    BatchRecord, ClassBreakdown, ClassStats, LatencyComponents, PowerSample, QueueSample,
    RequestOutcome, ServeReport,
};
pub use request::{ServeRequest, ServiceClass};
pub use runtime::{SchedPolicy, ServeConfig, ServeRuntime};
pub use traffic::{open_loop, ClosedLoopConfig, OpenLoopConfig, TenantSpec};
