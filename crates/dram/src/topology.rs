//! Full memory-system topology: channels × ranks × banks.
//!
//! The paper's evaluation (Table 2) models a single DDR5 channel with
//! one rank; [`Topology`] generalises that to the full system the
//! [`crate::DramConfig`] geometry describes. Channels are fully
//! independent (each has its own command bus, scheduler and clock);
//! ranks within a channel share the bus but relax the per-rank
//! `tRRD`/`tFAW` activation windows (see
//! [`crate::scheduler::steady_state_aap_interval`]).
//!
//! [`SystemScheduler`] drives one [`ChannelScheduler`] per channel and
//! merges their results the way a sharded kernel experiences them:
//! elapsed time is the *maximum* over channels (they run concurrently),
//! commands and energy are *sums*.

use crate::config::DramConfig;
use crate::scheduler::ChannelScheduler;
use crate::stats::CommandStats;
use crate::timing::TimingParams;
use crate::CommandKind;
use serde::{Deserialize, Serialize};

/// Parallel compute topology of the memory system.
///
/// Plan caches key on the value itself (it is `Ord + Hash`), so every
/// dimension — and any dimension added later — is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Topology {
    /// Independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank enabled for CIM compute (C2M:X).
    pub banks: usize,
    /// Concurrent SALP streams per bank: row activations in distinct
    /// subarrays of the same bank overlap except for the shared
    /// global-bitline/command-bus slot
    /// ([`crate::TimingParams::t_subarray_gate`]). 1 = no subarray-level
    /// parallelism (the pre-SALP model, bit-for-bit).
    pub subarrays: usize,
}

impl Topology {
    /// Single channel, single rank — the paper's Table 2 setup.
    #[must_use]
    pub fn single(banks: usize) -> Self {
        Self {
            channels: 1,
            ranks: 1,
            banks,
            subarrays: 1,
        }
    }

    /// Topology of a [`DramConfig`], computing on `banks` banks per rank
    /// with a single AAP stream per bank (no subarray-level
    /// parallelism; see [`Self::with_subarrays`]).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `banks` exceeds the config's
    /// banks per chip.
    #[must_use]
    pub fn from_config(cfg: &DramConfig, banks: usize) -> Self {
        assert!(cfg.channels > 0, "config must have at least one channel");
        assert!(cfg.ranks > 0, "config must have at least one rank");
        assert!(banks > 0, "need at least one compute bank");
        assert!(
            banks <= cfg.banks,
            "{banks} compute banks exceed the {} banks per rank",
            cfg.banks
        );
        Self {
            channels: cfg.channels,
            ranks: cfg.ranks,
            banks,
            subarrays: 1,
        }
    }

    /// The same geometry with `subarrays` concurrent SALP streams per
    /// bank.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero.
    #[must_use]
    pub fn with_subarrays(mut self, subarrays: usize) -> Self {
        assert!(subarrays > 0, "a bank must have at least one subarray");
        self.subarrays = subarrays;
        self
    }

    /// Independent partial-sum units: one per (channel, rank).
    #[must_use]
    pub fn units(&self) -> usize {
        self.channels * self.ranks
    }

    /// Independent shard slots: one per (channel, rank, subarray
    /// stream) — the granularity the shard planner partitions over.
    #[must_use]
    pub fn shard_slots(&self) -> usize {
        self.channels * self.ranks * self.subarrays
    }

    /// Total compute banks across the whole system.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }

    /// True for the paper's 1×1 setup, where the engine must reproduce
    /// the seed single-channel numbers bit-for-bit.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.channels == 1 && self.ranks == 1
    }
}

/// Per-channel schedulers driven concurrently.
#[derive(Debug, Clone)]
pub struct SystemScheduler {
    channels: Vec<ChannelScheduler>,
}

impl SystemScheduler {
    /// Builds one rank-aware (and, when the topology carries more than
    /// one subarray stream, SALP-aware) [`ChannelScheduler`] per
    /// channel.
    #[must_use]
    pub fn new(timing: TimingParams, topology: &Topology) -> Self {
        Self {
            channels: (0..topology.channels)
                .map(|_| {
                    ChannelScheduler::with_subarrays(
                        timing,
                        topology.banks,
                        topology.ranks,
                        topology.subarrays,
                    )
                })
                .collect(),
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Mutable access to one channel's scheduler (for driving a shard's
    /// command stream).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_mut(&mut self, channel: usize) -> &mut ChannelScheduler {
        &mut self.channels[channel]
    }

    /// Issues a command on `channel` to bank `bank` of rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn issue(&mut self, channel: usize, rank: usize, bank: usize, kind: CommandKind) -> f64 {
        self.channels[channel].issue_ranked(rank, bank, kind)
    }

    /// System elapsed time: channels run concurrently, so the makespan
    /// is the maximum channel clock.
    #[must_use]
    pub fn elapsed_ns(&self) -> f64 {
        self.channels
            .iter()
            .map(ChannelScheduler::elapsed_ns)
            .fold(0.0, f64::max)
    }

    /// Merged command statistics across all channels.
    #[must_use]
    pub fn stats(&self) -> CommandStats {
        let mut total = CommandStats::default();
        for ch in &self.channels {
            total.merge(ch.stats());
        }
        total
    }

    /// Resets every channel's clock and statistics.
    pub fn reset(&mut self) {
        self.channels.iter_mut().for_each(ChannelScheduler::reset);
    }

    /// Attaches a trace sink to every channel scheduler, stamping each
    /// with its channel index so command spans land on per-
    /// `(channel, rank, subarray)` tracks.
    pub fn set_trace(&mut self, sink: &std::sync::Arc<dyn c2m_trace::TraceSink>) {
        for (c, ch) in self.channels.iter_mut().enumerate() {
            ch.set_trace(std::sync::Arc::clone(sink), c as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_config_reads_geometry() {
        let mut cfg = DramConfig::ddr5_4400();
        cfg.channels = 4;
        cfg.ranks = 2;
        let t = Topology::from_config(&cfg, 16);
        assert_eq!((t.channels, t.ranks, t.banks), (4, 2, 16));
        assert_eq!(t.units(), 8);
        assert_eq!(t.total_banks(), 128);
        assert!(!t.is_single());
        assert!(Topology::single(16).is_single());
    }

    #[test]
    fn with_subarrays_multiplies_shard_slots() {
        let base = Topology::single(16);
        assert_eq!((base.subarrays, base.shard_slots()), (1, 1));
        let salp = base.with_subarrays(8);
        assert_ne!(base, salp);
        assert_eq!(salp.shard_slots(), 8);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn from_config_rejects_too_many_banks() {
        let cfg = DramConfig::ddr5_4400();
        let _ = Topology::from_config(&cfg, cfg.banks + 1);
    }

    #[test]
    fn channels_run_concurrently() {
        let topo = Topology {
            channels: 2,
            ranks: 1,
            banks: 1,
            subarrays: 1,
        };
        let mut sys = SystemScheduler::new(TimingParams::ddr5_4400(), &topo);
        // 10 AAPs on channel 0, 1 on channel 1: makespan is channel 0's.
        for _ in 0..10 {
            sys.issue(0, 0, 0, CommandKind::Aap);
        }
        sys.issue(1, 0, 0, CommandKind::Aap);
        let ch0 = sys.channel_mut(0).elapsed_ns();
        let ch1 = sys.channel_mut(1).elapsed_ns();
        assert!(ch0 > ch1);
        assert_eq!(sys.elapsed_ns(), ch0);
    }

    #[test]
    fn stats_merge_over_channels() {
        let topo = Topology {
            channels: 3,
            ranks: 1,
            banks: 2,
            subarrays: 1,
        };
        let mut sys = SystemScheduler::new(TimingParams::ddr5_4400(), &topo);
        for c in 0..3 {
            for i in 0..4 {
                sys.issue(c, 0, i % 2, CommandKind::Aap);
            }
        }
        assert_eq!(sys.stats().count(CommandKind::Aap), 12);
        sys.reset();
        assert_eq!(sys.stats().total(), 0);
        assert_eq!(sys.elapsed_ns(), 0.0);
    }
}
