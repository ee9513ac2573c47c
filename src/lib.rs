//! # Count2Multiply — reliable in-memory high-radix counting
//!
//! A complete, from-scratch Rust reproduction of *Count2Multiply: Reliable
//! In-Memory High-Radix Counting* (HPCA 2026). This umbrella crate
//! re-exports the workspace's public API:
//!
//! * [`dram`] — command-level DDR5 substrate (geometry, timing, scheduler,
//!   energy/area models).
//! * [`cim`] — bulk-bitwise compute-in-memory substrate with Ambit, FCDRAM,
//!   Pinatubo and MAGIC backends, μProgram IR and fault injection.
//! * [`ecc`] — Hamming/SECDED/BCH codes and the XOR-embedding CIM fault
//!   protection scheme (plus the TMR baseline).
//! * [`jc`] — Johnson-counter theory: k-ary increments, multi-digit
//!   counters, IARM, counter-to-counter addition.
//! * [`mig`] — Majority-Inverter Graph synthesis: the §4.2 pipeline that
//!   turns counting logic into optimised, schedulable Ambit μPrograms.
//! * [`arch`] — the Count2Multiply architecture itself: host-side routine,
//!   broadcast-and-accumulate engine, GEMV/GEMM/ternary kernels.
//! * [`baselines`] — SIMDRAM-style ripple-carry CIM baseline and the GPU
//!   analytical model.
//! * [`workloads`] — LLaMA/BERT/DNA/TWN/GCN workload generators.
//! * [`serve`] — batched, async, heterogeneity-aware request-serving
//!   runtime: multi-tenant traffic, FR-FCFS batched host queue,
//!   double-buffered planner, latency-percentile reports.
//! * [`trace`] — zero-cost structured tracing and metrics threaded
//!   through all three execution layers (DRAM command lanes → engine
//!   launches → serving pipeline), with a Chrome-trace/Perfetto JSON
//!   exporter and log-bucketed latency histograms.
//!
//! See `README.md` for a quickstart, the workspace layout and the
//! figure binary index.

#![forbid(unsafe_code)]

pub use c2m_baselines as baselines;
pub use c2m_cim as cim;
pub use c2m_core as arch;
pub use c2m_dram as dram;
pub use c2m_ecc as ecc;
pub use c2m_jc as jc;
pub use c2m_mig as mig;
pub use c2m_serve as serve;
pub use c2m_trace as trace;
pub use c2m_workloads as workloads;
