//! Comparison baselines from the paper's evaluation (§7.1).
//!
//! * [`rca`] — the MAJ-based bit-serial ripple-carry adder that underlies
//!   SIMDRAM-class designs: a real, bit-accurate implementation on the
//!   shared CIM substrate, with fault injection (the "generic MAJ-based
//!   RCA implementation" used as the RCA proxy in Figs. 4 and 17).
//! * [`simdram`] — the SIMDRAM:X baseline engine: element-parallel
//!   vector accumulation through W-bit RCAs, with X-bank scaling.
//! * [`gpu`] — an analytical RTX 3090 Ti model (328 tensor cores, 450 W,
//!   628 mm²) calibrated from the public whitepaper the paper cites;
//!   dense-only (no gain from unstructured sparsity), with PCIe transfer
//!   accounting for the latency comparisons of Fig. 16.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambit_rca;
pub mod gpu;
#[cfg(test)]
mod multiplier;
pub mod rca;
pub mod simdram;

pub use ambit_rca::AmbitRca;
pub use gpu::GpuModel;
pub use rca::RcaAccumulator;
pub use simdram::SimdramEngine;
