//! Majority-Inverter Graph (MIG) synthesis for Count2Multiply.
//!
//! The paper's μPrograms (Fig. 6) are not hand-written: §4.2 states that
//! the masked-increment logic is "synthesize\[d\] … into a MIG" and then
//! optimised with "MIG-based optimizations, similar to prior works
//! \[Amarù et al., DAC'14\]" before being scheduled onto Ambit's B-group
//! rows. This crate implements that synthesis pipeline:
//!
//! * [`graph`] — the MIG data structure itself: structurally hashed
//!   majority nodes with complemented edges and creation-time
//!   simplification (the Ω.M majority axiom and the Ψ inverter-
//!   propagation rule are applied eagerly).
//! * [`tt`] — bit-parallel truth tables (≤ 6 inputs) used for
//!   equivalence checking throughout.
//! * [`rewrite`] — algebraic optimisation passes built from the MIG
//!   axioms Ω (associativity, distributivity) for size and depth.
//! * [`lower`] — a scheduler/allocator that maps an optimised MIG onto
//!   Ambit's compute rows (T0–T3, DCC0/1) and emits the AAP/AP command
//!   sequence, bit-accurately executable on
//!   [`c2m_cim::ambit::AmbitSubarray`].
//! * [`counting`] — the paper's Fig. 6a circuits (masked forward shift,
//!   inverted feedback, overflow detection) expressed as MIGs, used to
//!   validate the pipeline against the hand-scheduled Fig. 6b program
//!   in `c2m_jc::ambit_lower`.
//!
//! # Example
//!
//! Synthesising `f = (a AND m) OR (b AND NOT m)` (one bit of a masked
//! forward shift), optimising it and lowering it to Ambit commands:
//!
//! ```
//! use c2m_mig::graph::Mig;
//! use c2m_mig::lower::{Lowerer, PinMap};
//!
//! let mut mig = Mig::new();
//! let a = mig.pi();
//! let b = mig.pi();
//! let m = mig.pi();
//! let keep = mig.and(a, m);
//! let take = mig.and(b, !m);
//! let f = mig.or(keep, take);
//!
//! // Inputs live in D-group rows 0..3; scratch starts at row 8.
//! let pins = PinMap::dense(3, 8);
//! let lowered = Lowerer::new(&mig, &pins).lower(&[f]);
//! assert!(!lowered.program.is_empty());
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "the HashMaps here are lookup-only (structural hashing, row placement, refcounts); \
              nothing iterates them, so their order never reaches an output"
)]

pub mod counting;
pub mod graph;
pub mod lower;
pub mod rewrite;
pub mod tt;

pub use graph::{Mig, Signal};
pub use lower::{Lowered, Lowerer, PinMap};
pub use tt::TruthTable;
