//! Sharding kernels across the memory-system topology.
//!
//! The paper executes every kernel on one channel of one rank (§7.2);
//! this module partitions work over the full
//! [`Topology`] so the engine can drive every
//! channel's scheduler concurrently:
//!
//! * **GEMM output rows (M)** — rows are independent, so they split
//!   across channels → ranks with no partial-sum traffic; only the host
//!   gather of finished outputs is shared.
//! * **GEMV inner dimension (K)** — each (channel, rank) unit
//!   accumulates a K-slice into its own counters; the partial sums then
//!   merge in `⌈log₂(units)⌉` counter-to-counter addition rounds
//!   (Algorithm 2 lifted to the cross-channel case).
//! * **CSD planes** — integer×integer GEMV planes (§5.2.3) are
//!   independent accumulation passes, so they distribute like K-slices
//!   and merge the same way.
//!
//! Each axis additionally splits below the rank when the topology
//! carries more than one concurrent subarray stream (SALP): the
//! partitioning hierarchy is channels → ranks → (banks ×) subarray
//! streams, and each [`Shard`] is pinned to one
//! (channel, rank, subarray) slot. Streams within one unit merge their
//! partials in-DRAM; only whole (channel, rank) units exchange data
//! over the host bus (see [`ShardPlan::cr_units_used`]).
//!
//! Each [`Shard`] also carries the [`Backend`] that executes it, so a
//! single plan can dispatch shards to heterogeneous substrates (§4.6):
//! an Ambit channel next to an FCDRAM channel prices each shard with
//! its own cost model.
//!
//! Shard *lengths* are sized by a [`ShardSizing`] policy: the default
//! [`ShardSizing::Even`] split (the paper's setup — every unit gets the
//! same share) or [`ShardSizing::Weighted`], which apportions the axis
//! proportionally to per-channel throughput weights so a mixed-backend
//! module is no longer paced by its slowest channels: giving an Ambit
//! channel `f×` the work of an FCDRAM channel whose increments cost `f×`
//! more equalises the per-channel makespan.

use c2m_cim::Backend;
use c2m_dram::Topology;
use serde::{Deserialize, Serialize};

/// Which axis of the kernel a plan partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ShardAxis {
    /// GEMM output rows (M): independent, no reduction needed.
    OutputRows,
    /// GEMV inner dimension (K): partial sums must be reduced.
    InnerDim,
    /// CSD bit-slice planes of an integer GEMV: partial sums must be
    /// reduced.
    CsdPlanes,
}

impl ShardAxis {
    /// True if shards hold partial sums that must merge after the
    /// parallel phase.
    #[must_use]
    pub fn needs_reduction(self) -> bool {
        matches!(self, ShardAxis::InnerDim | ShardAxis::CsdPlanes)
    }
}

/// One contiguous slice of the partitioned axis, pinned to a
/// (channel, rank, subarray-stream) slot and a compute backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// Channel executing this shard.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Concurrent SALP stream within the rank's banks (always 0 on a
    /// topology without subarray-level parallelism).
    pub subarray: usize,
    /// CIM technology pricing this shard's μPrograms.
    pub backend: Backend,
    /// First index of the slice on the partitioned axis.
    pub start: usize,
    /// Slice length (may be zero only in the degenerate all-empty plan).
    pub len: usize,
}

impl Shard {
    /// End of the slice (exclusive).
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// An explicit partition of one kernel axis over the topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// The partitioned axis.
    pub axis: ShardAxis,
    /// Total extent of the axis (Σ shard lengths).
    pub total: usize,
    /// Shards in (channel, rank) order; contiguous and disjoint.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Number of (channel, rank, subarray-stream) slots holding work.
    #[must_use]
    pub fn units_used(&self) -> usize {
        self.shards.iter().filter(|s| s.len > 0).count()
    }

    /// Number of distinct (channel, rank) units holding work — the
    /// granularity of cross-unit host traffic (partial-sum merge trees,
    /// output gathers). Subarray streams within one unit merge in-DRAM,
    /// so they never add host-bus legs. Equals [`Self::units_used`] on
    /// a plan without subarray-level parallelism.
    #[must_use]
    pub fn cr_units_used(&self) -> usize {
        let mut units: Vec<(usize, usize)> = self
            .shards
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| (s.channel, s.rank))
            .collect();
        units.sort_unstable();
        units.dedup();
        units.len()
    }

    /// Depth of the partial-sum merge tree after the parallel phase:
    /// `⌈log₂(units)⌉` pairwise rounds (the *latency* of the merge;
    /// the tree performs `units − 1` merges in total), zero for axes
    /// without reduction or single-unit plans.
    #[cfg(test)]
    fn reduction_rounds(&self) -> u32 {
        if !self.axis.needs_reduction() {
            return 0;
        }
        let units = self.units_used();
        if units <= 1 {
            0
        } else {
            (units as f64).log2().ceil() as u32
        }
    }

    /// Shards assigned to `channel` (including empty ones).
    pub fn on_channel(&self, channel: usize) -> impl Iterator<Item = &Shard> + '_ {
        self.shards.iter().filter(move |s| s.channel == channel)
    }
}

/// How shards map to compute backends.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendPolicy {
    /// Every shard runs on the same technology (the paper's setup, with
    /// [`Backend::Ambit`]).
    Uniform(Backend),
    /// Channel `c` runs on `backends[c % backends.len()]` — a mixed
    /// module where channels are built from different substrates.
    PerChannel(Vec<Backend>),
}

impl BackendPolicy {
    /// Backend executing shards on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if a `PerChannel` policy has an empty backend list.
    #[must_use]
    pub fn backend_for(&self, channel: usize) -> Backend {
        match self {
            BackendPolicy::Uniform(b) => *b,
            BackendPolicy::PerChannel(list) => {
                assert!(!list.is_empty(), "PerChannel policy needs backends");
                list[channel % list.len()]
            }
        }
    }
}

impl Default for BackendPolicy {
    fn default() -> Self {
        BackendPolicy::Uniform(Backend::Ambit)
    }
}

/// How shard lengths are apportioned over the topology's units.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ShardSizing {
    /// Every unit gets the same share, balanced to within one element
    /// (the seed behaviour; bit-for-bit identical to the paper's model
    /// at one channel/one rank).
    #[default]
    Even,
    /// Shard lengths proportional to per-channel throughput weights:
    /// channel `c` weighs `weights[c % weights.len()]`, every rank of a
    /// channel shares its channel's weight, and the axis is apportioned
    /// by largest remainder (ties to the lower unit index). A channel
    /// with weight 2 receives twice the work of a channel with weight 1,
    /// so weights of `1 / cost-factor` equalise per-channel makespan on
    /// heterogeneous modules.
    Weighted(Vec<f64>),
}

/// Plans contiguous, balanced partitions of kernel axes over a
/// [`Topology`].
#[derive(Debug, Clone)]
pub struct ShardPlanner {
    topology: Topology,
    policy: BackendPolicy,
    sizing: ShardSizing,
}

impl ShardPlanner {
    /// Planner dispatching every shard to Ambit.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        Self::with_policy(topology, BackendPolicy::default())
    }

    /// Planner with an explicit backend dispatch policy.
    #[must_use]
    pub fn with_policy(topology: Topology, policy: BackendPolicy) -> Self {
        Self {
            topology,
            policy,
            sizing: ShardSizing::default(),
        }
    }

    /// Replaces the shard-length apportionment policy.
    ///
    /// # Panics
    ///
    /// Panics if a `Weighted` sizing is empty or has a non-positive or
    /// non-finite weight.
    #[must_use]
    pub fn with_sizing(mut self, sizing: ShardSizing) -> Self {
        if let ShardSizing::Weighted(w) = &sizing {
            assert!(!w.is_empty(), "weighted sizing needs at least one weight");
            assert!(
                w.iter().all(|&x| x.is_finite() && x > 0.0),
                "weights must be positive and finite: {w:?}"
            );
        }
        self.sizing = sizing;
        self
    }

    /// The shard-length apportionment policy in force.
    #[must_use]
    pub fn sizing(&self) -> &ShardSizing {
        &self.sizing
    }

    /// The topology being planned over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Partitions GEMM output rows: one shard per (channel, rank).
    #[must_use]
    pub fn plan_rows(&self, m: usize) -> ShardPlan {
        self.split(ShardAxis::OutputRows, m)
    }

    /// Partitions a GEMV inner dimension.
    #[must_use]
    pub fn plan_inner(&self, k: usize) -> ShardPlan {
        self.split(ShardAxis::InnerDim, k)
    }

    /// Partitions the CSD plane list of an integer GEMV.
    #[must_use]
    pub fn plan_planes(&self, planes: usize) -> ShardPlan {
        self.split(ShardAxis::CsdPlanes, planes)
    }

    /// Splits `total` into at most `channels × ranks × subarrays`
    /// contiguous chunks, channel-major (channel 0 rank 0 stream 0,
    /// channel 0 rank 0 stream 1, …), with lengths chosen by the sizing
    /// policy. A zero-extent axis still yields one empty shard on slot
    /// (0, 0, 0) so per-unit fixed costs (the bank-level partial-sum
    /// merge a single unit already pays) stay attributed. With one
    /// subarray stream this is bit-for-bit the pre-SALP split.
    fn split(&self, axis: ShardAxis, total: usize) -> ShardPlan {
        let subarrays = self.topology.subarrays.max(1);
        let units = self.topology.shard_slots();
        let ranks_x_subs = self.topology.ranks * subarrays;
        let lens = match &self.sizing {
            ShardSizing::Even => even_lengths(total, units),
            // Equal weights must reproduce the even split bit-for-bit,
            // so route them through the same integer path.
            ShardSizing::Weighted(w) if uniform_weights(w) => even_lengths(total, units),
            ShardSizing::Weighted(w) => {
                // Weights are per channel: every rank and subarray
                // stream of a channel shares its channel's weight.
                let per_unit: Vec<f64> = (0..units)
                    .map(|u| w[(u / ranks_x_subs) % w.len()])
                    .collect();
                weighted_lengths(total, &per_unit)
            }
        };
        let mut shards = Vec::new();
        let mut start = 0usize;
        for (unit, &len) in lens.iter().enumerate() {
            if len == 0 && !(unit == 0 && total == 0) {
                continue;
            }
            let channel = unit / ranks_x_subs;
            let rank = (unit / subarrays) % self.topology.ranks;
            let subarray = unit % subarrays;
            shards.push(Shard {
                channel,
                rank,
                subarray,
                backend: self.policy.backend_for(channel),
                start,
                len,
            });
            start += len;
        }
        debug_assert_eq!(start, total);
        ShardPlan {
            axis,
            total,
            shards,
        }
    }
}

/// True when every weight equals the first (the degenerate case where a
/// weighted split must not deviate from the even one).
fn uniform_weights(w: &[f64]) -> bool {
    w.iter().all(|&x| x == w[0])
}

/// The seed even split: `total` over `units`, balanced to within one
/// element, leading units taking the remainder.
fn even_lengths(total: usize, units: usize) -> Vec<usize> {
    let base = total / units;
    let extra = total % units;
    (0..units).map(|u| base + usize::from(u < extra)).collect()
}

/// Largest-remainder apportionment of `total` by per-unit weights: each
/// unit gets the floor of its ideal share `total·wᵤ/Σw`, and the
/// leftover elements go to the largest fractional remainders (ties to
/// the lower unit index).
fn weighted_lengths(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut lens: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = lens.iter().sum();
    debug_assert!(assigned <= total, "floors cannot exceed the total");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (ideal[b] - ideal[b].floor())
            .partial_cmp(&(ideal[a] - ideal[a].floor()))
            .expect("finite remainders")
            .then(a.cmp(&b))
    });
    for &u in order.iter().take(total - assigned) {
        lens[u] += 1;
    }
    debug_assert_eq!(lens.iter().sum::<usize>(), total);
    lens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(channels: usize, ranks: usize) -> Topology {
        Topology {
            channels,
            ranks,
            banks: 16,
            subarrays: 1,
        }
    }

    #[test]
    fn single_unit_plan_is_one_full_shard() {
        let plan = ShardPlanner::new(topo(1, 1)).plan_inner(8192);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].len, 8192);
        assert_eq!(plan.units_used(), 1);
        assert_eq!(plan.reduction_rounds(), 0);
    }

    #[test]
    fn shards_cover_axis_disjointly_and_balanced() {
        let plan = ShardPlanner::new(topo(4, 2)).plan_rows(8193);
        assert_eq!(plan.shards.len(), 8);
        let mut cursor = 0;
        for s in &plan.shards {
            assert_eq!(s.start, cursor, "contiguous");
            cursor = s.end();
        }
        assert_eq!(cursor, 8193);
        let lens: Vec<usize> = plan.shards.iter().map(|s| s.len).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(max - min <= 1, "balanced to within one: {lens:?}");
    }

    #[test]
    fn channel_major_unit_order() {
        let plan = ShardPlanner::new(topo(2, 2)).plan_rows(4);
        let coords: Vec<(usize, usize)> = plan.shards.iter().map(|s| (s.channel, s.rank)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn small_axis_leaves_trailing_units_empty() {
        let plan = ShardPlanner::new(topo(8, 1)).plan_planes(3);
        assert_eq!(plan.units_used(), 3);
        assert_eq!(plan.reduction_rounds(), 2); // ceil(log2(3))
    }

    #[test]
    fn rows_need_no_reduction_inner_dim_does() {
        let planner = ShardPlanner::new(topo(4, 1));
        assert_eq!(planner.plan_rows(1024).reduction_rounds(), 0);
        assert_eq!(planner.plan_inner(1024).reduction_rounds(), 2);
        assert_eq!(planner.plan_planes(14).reduction_rounds(), 2);
    }

    #[test]
    fn empty_axis_keeps_one_empty_shard() {
        let plan = ShardPlanner::new(topo(4, 1)).plan_planes(0);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].len, 0);
        assert_eq!(plan.units_used(), 0);
        assert_eq!(plan.reduction_rounds(), 0);
    }

    #[test]
    fn weighted_split_covers_axis_and_favours_heavy_channels() {
        let plan = ShardPlanner::new(topo(4, 1))
            .with_sizing(ShardSizing::Weighted(vec![1.0, 0.5, 1.0, 0.5]))
            .plan_rows(16);
        let lens: Vec<usize> = plan.shards.iter().map(|s| s.len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 16);
        let mut cursor = 0;
        for s in &plan.shards {
            assert_eq!(s.start, cursor, "contiguous");
            cursor = s.end();
        }
        // Weight-1 channels get twice the rows of weight-0.5 channels.
        assert_eq!(lens, vec![5, 3, 5, 3]);
    }

    #[test]
    fn equal_weights_reproduce_the_even_split_exactly() {
        for total in [0usize, 1, 3, 8, 8193] {
            for &(c, r) in &[(1usize, 1usize), (3, 1), (4, 2), (8, 1)] {
                let even = ShardPlanner::new(topo(c, r)).plan_inner(total);
                let weighted = ShardPlanner::new(topo(c, r))
                    .with_sizing(ShardSizing::Weighted(vec![0.7; c]))
                    .plan_inner(total);
                assert_eq!(even, weighted, "{c}ch x {r}rk, total {total}");
            }
        }
    }

    #[test]
    fn weights_cycle_over_channels_and_share_within_ranks() {
        let plan = ShardPlanner::new(topo(2, 2))
            .with_sizing(ShardSizing::Weighted(vec![3.0, 1.0]))
            .plan_rows(8);
        // Channel 0 (weight 3) holds 6 rows over its two ranks, channel 1
        // (weight 1) holds 2.
        let per_channel: Vec<usize> = (0..2)
            .map(|c| plan.on_channel(c).map(|s| s.len).sum())
            .collect();
        assert_eq!(per_channel, vec![6, 2]);
    }

    #[test]
    fn weighted_split_may_leave_slow_units_empty() {
        let plan = ShardPlanner::new(topo(4, 1))
            .with_sizing(ShardSizing::Weighted(vec![10.0, 1.0, 10.0, 1.0]))
            .plan_planes(2);
        assert_eq!(plan.units_used(), 2);
        assert!(plan
            .shards
            .iter()
            .filter(|s| s.len > 0)
            .all(|s| s.channel % 2 == 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weights_are_rejected() {
        let _ = ShardPlanner::new(topo(2, 1)).with_sizing(ShardSizing::Weighted(vec![1.0, 0.0]));
    }

    // ---- subarray tier ----

    #[test]
    fn subarray_tier_multiplies_shard_slots() {
        let plan = ShardPlanner::new(topo(2, 2).with_subarrays(4)).plan_inner(1600);
        assert_eq!(plan.shards.len(), 16);
        assert_eq!(plan.units_used(), 16);
        assert_eq!(plan.cr_units_used(), 4, "host traffic stays per unit");
        let mut cursor = 0;
        for s in &plan.shards {
            assert_eq!(s.start, cursor, "contiguous");
            cursor = s.end();
            assert!(s.subarray < 4);
        }
        assert_eq!(cursor, 1600);
        // Channel-major, rank-major, stream-minor order.
        let coords: Vec<(usize, usize, usize)> = plan
            .shards
            .iter()
            .map(|s| (s.channel, s.rank, s.subarray))
            .collect();
        let mut sorted = coords.clone();
        sorted.sort_unstable();
        assert_eq!(coords, sorted);
    }

    #[test]
    fn single_subarray_plans_match_pre_salp_shape() {
        for total in [0usize, 1, 3, 8193] {
            let plan = ShardPlanner::new(topo(4, 2).with_subarrays(1)).plan_inner(total);
            assert!(plan.shards.iter().all(|s| s.subarray == 0));
            assert_eq!(plan.units_used(), plan.cr_units_used());
        }
    }

    #[test]
    fn weights_share_across_subarray_streams() {
        let plan = ShardPlanner::new(topo(2, 1).with_subarrays(2))
            .with_sizing(ShardSizing::Weighted(vec![3.0, 1.0]))
            .plan_rows(16);
        // Channel 0 (weight 3) holds 12 rows over its two streams,
        // channel 1 (weight 1) holds 4.
        let per_channel: Vec<usize> = (0..2)
            .map(|c| plan.on_channel(c).map(|s| s.len).sum())
            .collect();
        assert_eq!(per_channel, vec![12, 4]);
    }

    #[test]
    fn per_channel_policy_dispatches_backends() {
        let policy = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
        let plan = ShardPlanner::with_policy(topo(4, 1), policy).plan_rows(8);
        let backends: Vec<Backend> = plan.shards.iter().map(|s| s.backend).collect();
        assert_eq!(
            backends,
            vec![
                Backend::Ambit,
                Backend::Fcdram,
                Backend::Ambit,
                Backend::Fcdram
            ]
        );
    }
}
