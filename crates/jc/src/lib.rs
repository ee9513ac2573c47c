//! In-memory high-radix Johnson counters (§4 of the paper).
//!
//! A radix-2n digit is stored as an n-bit Johnson counter (JC) whose bits
//! live in n dedicated memory rows, one counter per column, so thousands
//! of counters advance in lockstep under a single broadcast command
//! sequence. This crate implements the complete §4 machinery:
//!
//! * [`codec`] — JC state encoding/decoding and state arithmetic (§2.4).
//! * [`digits`] — the base-r digit walker every input-splitting routine
//!   shares.
//! * [`kary`] — variable-step (k-ary) transition patterns: Algorithm 1 and
//!   the Fig. 7 pattern family, plus decrements (§4.4–4.5.1).
//! * [`bank`] — the row-parallel counter bank: masked multi-digit
//!   counters with overflow rows, fault injection and protection-aware
//!   op accounting (§4.1–4.4, §6.2).
//! * [`iarm`] — Input-Aware Rippling Minimization: the host-side virtual
//!   counter that postpones carry propagation (§4.5.2, Fig. 9).
//! * [`ops`] — counter-to-counter addition (Algorithm 2), shift-left and
//!   ReLU (§5.2.4).
//! * [`ambit_lower`] — exact Ambit μProgram emission for a masked k-ary
//!   increment, reproducing the seven-command-per-bit schedule of
//!   Fig. 6b (7n+7 AAP/AP per increment including overflow).
//! * [`cost`] — closed-form op-count models behind Fig. 8.
//! * [`capacity`] — bits-required-versus-capacity model behind Fig. 19.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambit_lower;
pub mod bank;
pub mod capacity;
pub mod codec;
pub mod cost;
pub mod digits;
pub mod iarm;
pub mod kary;
pub mod ops;

pub use bank::CounterBank;
pub use codec::JohnsonCode;
pub use iarm::IarmPlanner;
pub use kary::{BitSource, TransitionPattern};
