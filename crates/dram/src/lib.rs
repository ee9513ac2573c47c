//! Command-level DRAM substrate for the Count2Multiply reproduction.
//!
//! The paper evaluates Count2Multiply on a cycle-level extension of
//! NVMain/RTSim. This crate is the equivalent substrate for the pure-Rust
//! reproduction: it models a DDR5 memory system at the *command* level —
//! geometry ([`DramConfig`], Table 2 of the paper), timing parameters
//! ([`TimingParams`]), the `tRRD`/`tFAW`/`tAAP` analysis of §7.2.1
//! ([`scheduler`]: the closed-form steady-state AAP interval the engine
//! prices every launch with, and the event-driven multi-bank multi-rank
//! [`ChannelScheduler`] that the closed form is tested against), the
//! channel×rank system topology ([`topology`]), and per-command energy
//! ([`energy`]) and area ([`area`]) models. The host access path of §5.1
//! is covered by per-bank row-buffer state machines ([`bank_state`])
//! behind an FR-FCFS request queue ([`request`], Table 2's scheduling
//! policy), and refresh overhead is accounted by [`refresh`].
//!
//! Every compute-in-memory primitive in the higher-level crates lowers to
//! [`DramCommand`]s; `c2m_core`'s engine turns their counts into the
//! latency, energy and area figures that the experiment harness
//! (`c2m-bench`) reports.
//!
//! # Quick example
//!
//! ```
//! use c2m_dram::{CommandKind, DramCommand, DramConfig, TimingParams, scheduler::ChannelScheduler};
//!
//! let cfg = DramConfig::ddr5_4400(); // Table 2 configuration
//! // One rank of `cfg.banks` banks, one AAP stream per bank.
//! let mut sched = ChannelScheduler::with_subarrays(TimingParams::ddr5_4400(), cfg.banks, 1, 1);
//! // Issue 64 AAP macro-commands round-robin over 16 banks:
//! for i in 0..64 {
//!     sched.issue(DramCommand::new(i % 16, CommandKind::Aap));
//! }
//! assert!(sched.elapsed_ns() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod bank_state;
pub mod command;
pub mod config;
pub mod energy;
pub mod refresh;
pub mod request;
pub mod scheduler;
pub mod stats;
pub mod timing;
pub mod topology;

pub use area::AreaModel;
pub use bank_state::{AccessKind, BankState};
pub use command::{CommandKind, DramCommand};
pub use config::DramConfig;
pub use energy::EnergyModel;
pub use refresh::RefreshModel;
pub use request::{BatchWindow, MemoryRequest, RequestQueue, ScheduleReport};
pub use scheduler::ChannelScheduler;
pub use stats::{hit_fraction, CacheCounters, CommandStats, ExecutionReport};
pub use timing::TimingParams;
pub use topology::Topology;
