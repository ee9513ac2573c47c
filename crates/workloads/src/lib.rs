//! Workload generators for the paper's evaluation (§7.1).
//!
//! Every dataset the paper evaluates on is proprietary, large, or
//! hardware-bound; this crate provides synthetic equivalents, each
//! exercising the same code paths:
//!
//! * [`llama`] — the Table 3 GEMV/GEMM shapes from LLaMA / LLaMA-2.
//! * [`distributions`] — the Fig. 3 input-value distributions (short-read
//!   token repetition, 8-bit embeddings).
//! * [`dna`] — a GRIM-Filter-style DNA pre-alignment filter over a
//!   synthetic genome, with the accumulation backend abstracted so the
//!   JC and RCA engines can be compared under faults (Figs. 4, 17a).
//! * [`bertproxy`] — a ternary-MLP classification proxy for the BERT
//!   accuracy-under-fault study (Fig. 17b), plus the real BERT attention
//!   GEMM shapes for performance runs.
//! * [`twn`] — ternary-weight conv-net layer shapes (LeNet, VGG-13/16).
//! * [`gcn`] — PubMed-scale graph-convolution shapes and a synthetic
//!   power-law graph generator.
//! * [`sparsity`] — sparse input-stream generators for the Fig. 16 sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bertproxy;
pub mod distributions;
pub mod dna;
pub mod gcn;
pub mod llama;
pub mod sparsity;
pub mod twn;
