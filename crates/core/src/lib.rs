//! The Count2Multiply architecture (§5 of the paper).
//!
//! Count2Multiply executes tensor kernels as *broadcast-and-accumulate*:
//! output accumulators are multi-digit Johnson counters stored column-wise
//! in CIM subarrays, the binary/ternary/bit-sliced weight matrix is stored
//! as per-row masks, and the host converts each input element into k-ary
//! increment μPrograms that the memory controller broadcasts (Fig. 11).
//!
//! * [`csd`] — canonical-signed-digit recoding for integer-integer
//!   matrices via bit-slicing (§5.2.3).
//! * [`matrix`] — binary, ternary and integer mask-matrix types.
//! * [`kernels`] — bit-accurate functional kernels on
//!   [`c2m_jc::CounterBank`]: integer×binary GEMV/GEMM, ternary GEMV,
//!   integer×integer GEMV via CSD slices (used for correctness tests,
//!   examples and the fault-accuracy studies).
//! * [`engine`] — the analytic performance engine: IARM-planned command
//!   counts → `tRRD`/`tFAW`-scheduled latency, energy and area reports
//!   for the paper-scale shapes of Table 3 (§7.2). Built via
//!   [`C2mEngine::builder`].
//! * [`cache`] — the plan/pricing/report cache behind the engine: one
//!   exact-key [`cache::Memo`] each for shard plans, priced command
//!   streams and whole launch reports, bit-for-bit identical to
//!   uncached execution, shareable across engines for fleet-scale
//!   sweeps.
//! * [`store`] — the persistent cache store: snapshot a warm
//!   [`PlanCache`]'s stream and report entries (opaque key words plus
//!   values) to a versioned file and reload it in a later process, so
//!   sweeps and benches start warm across invocations.
//! * [`shard`] — topology-aware work partitioning: GEMM rows, GEMV
//!   inner dimension and CSD planes split over channels → ranks → banks,
//!   with per-shard backend dispatch (§4.6).
//! * [`residency`] — tenant weight residency: LRU tracking of which
//!   tenants' mask planes fit in the CIM subarrays, with tenant-switch
//!   reloads priced through the engine (the serving-layer row-conflict
//!   analogue).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod csd;
pub mod engine;
pub mod kernels;
pub mod matrix;
pub mod nn;
pub mod placement;
pub mod residency;
pub mod shard;
pub mod store;

pub use cache::{CacheConfig, PlanCache, PlanKey};
pub use engine::{C2mEngine, EngineBuildError, EngineBuilder, EngineConfig};
pub use matrix::{BinaryMatrix, TernaryMatrix};
pub use nn::{AttentionShape, ConvShape};
pub use placement::{CounterSpec, KernelShape, MaskEncoding, PlacementPlan};
pub use residency::{ResidencyModel, ResidencyOutcome};
pub use shard::{BackendPolicy, Shard, ShardAxis, ShardPlan, ShardPlanner, ShardSizing};
pub use store::CacheStore;
