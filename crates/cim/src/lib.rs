//! Bulk-bitwise compute-in-memory (CIM) substrate.
//!
//! This crate models the in-memory compute fabric Count2Multiply runs on:
//!
//! * [`row`] — bit-packed DRAM rows with bulk bitwise operations
//!   (AND/OR/NOT/XOR/MAJ3/NOR) over all columns at once.
//! * [`fault`] — Bernoulli per-bit fault injection for multi-row-activation
//!   results, covering the 10⁻⁶…10⁻¹ fault regime of §2.3.
//! * [`ambit`] — a full-fidelity model of the Ambit substrate (§2.2):
//!   B/C/D row groups, dual-contact cells for NOT, triple-row activation
//!   computing MAJ3 destructively, and the AAP/AP command interface of
//!   Fig. 6b (including the paper's modified B11 mapping, footnote 2).
//! * [`machine`] — a backend-agnostic logic-machine abstraction used to
//!   count operations and simulate faults for the FCDRAM, Pinatubo and
//!   MAGIC backends of §4.6 (Fig. 10) and for generic MAJ-based adders.
//! * [`backend`] — per-technology cost models (ops per logic gate).
//!
//! The Ambit model is bit-accurate: executing a μProgram both updates the
//! stored rows (so results can be checked against a software model) and
//! tallies the AAP/AP commands that the `c2m-dram` scheduler turns into
//! latency and energy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambit;
pub mod backend;
pub mod fault;
#[cfg(test)]
mod fcdram;
pub mod machine;
mod programs;
pub mod row;

pub use ambit::{AmbitAddr, AmbitSubarray, MicroOp, MicroProgram};
pub use backend::{Backend, CostModel};
pub use fault::FaultModel;
pub use machine::{LogicMachine, LogicOp, RowId};
pub use row::Row;
