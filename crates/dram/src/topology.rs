//! Full memory-system topology: channels × ranks × banks.
//!
//! The paper's evaluation (Table 2) models a single DDR5 channel with
//! one rank; [`Topology`] generalises that to the full system the
//! [`crate::DramConfig`] geometry describes. Channels are fully
//! independent (each has its own command bus and clock), so a sharded
//! kernel's elapsed time is the maximum over channels; ranks within a
//! channel share the bus but relax the per-rank `tRRD`/`tFAW`
//! activation windows (see
//! [`crate::scheduler::steady_state_aap_interval`], the closed form the
//! engine prices each channel with).

use crate::config::DramConfig;
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
}
