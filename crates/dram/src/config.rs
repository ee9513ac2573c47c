//! DRAM geometry configuration (paper Table 2).

use serde::{Deserialize, Serialize};

/// Geometry of the simulated DRAM system.
///
/// The defaults ([`DramConfig::ddr5_4400`]) reproduce Table 2 of the paper:
/// DDR5-4400, one channel, one rank, 8 data devices plus one ECC device,
/// 4 Gb chips with 32 banks, 1 kB rows and 1024 rows per subarray.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of memory channels (each with an independent controller).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Data chips per rank operating in lockstep.
    pub chips: usize,
    /// Additional ECC chips per rank (store row-level code bits).
    pub ecc_chips: usize,
    /// Banks per chip.
    pub banks: usize,
    /// Subarrays per bank.
    pub subarrays_per_bank: usize,
    /// Rows per subarray.
    pub rows_per_subarray: usize,
    /// Row size per chip, in bytes (columns / 8).
    pub row_bytes_per_chip: usize,
    /// Chip capacity in gigabits (informational; consistent with the rest).
    pub chip_gbit: usize,
}

impl DramConfig {
    /// The Table 2 configuration used throughout the paper's evaluation.
    #[must_use]
    pub fn ddr5_4400() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            chips: 8,
            ecc_chips: 1,
            banks: 32,
            subarrays_per_bank: 32,
            rows_per_subarray: 1024,
            row_bytes_per_chip: 1024, // 1 kB row size per chip (Table 2)
            chip_gbit: 4,
        }
    }

    /// Row width in bits per chip.
    #[must_use]
    pub fn row_bits_per_chip(&self) -> usize {
        self.row_bytes_per_chip * 8
    }

    /// Logical row width in bits across the whole rank (data chips only).
    ///
    /// This is the number of independent bit columns — i.e. the number of
    /// Johnson counters that a single subarray-spanning row can host
    /// (8 kB controller row size in Table 2 → 65 536 columns).
    #[must_use]
    pub fn row_bits_per_rank(&self) -> usize {
        self.row_bits_per_chip() * self.chips
    }

    /// Total number of subarrays across the rank that can compute in
    /// parallel when `banks_used` banks are enabled with one CIM subarray
    /// each (the configuration used in §7.2 of the paper).
    #[must_use]
    pub fn parallel_subarrays(&self, banks_used: usize) -> usize {
        banks_used.min(self.banks)
    }

    /// Total DRAM capacity of the rank in bytes (data chips only).
    #[cfg(test)]
    fn rank_capacity_bytes(&self) -> usize {
        self.chips * self.chip_gbit * (1 << 30) / 8
    }

    /// Total DRAM capacity of the whole system in bytes: the per-rank
    /// capacity aggregated over `channels × ranks` (data chips only).
    #[cfg(test)]
    fn total_capacity_bytes(&self) -> usize {
        self.rank_capacity_bytes() * self.channels * self.ranks
    }

    /// Rows available inside the CIM subarrays of the whole topology when
    /// `banks_used` banks each dedicate one subarray to computing: the
    /// residency budget that mask planes and counter rows must share.
    /// Tenant weight matrices must be *resident* in these subarrays to be
    /// served without a reload (see `c2m_core::residency`).
    #[must_use]
    pub fn cim_subarray_rows(&self, banks_used: usize) -> usize {
        self.parallel_subarrays(banks_used) * self.rows_per_subarray * self.channels * self.ranks
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr5_4400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometry() {
        let c = DramConfig::ddr5_4400();
        assert_eq!(c.channels, 1);
        assert_eq!(c.ranks, 1);
        assert_eq!(c.chips, 8);
        assert_eq!(c.ecc_chips, 1);
        assert_eq!(c.banks, 32);
        assert_eq!(c.rows_per_subarray, 1024);
        // 8 kB memory-controller row size (Table 2) = 8 chips x 1 kB.
        assert_eq!(c.row_bits_per_rank(), 8 * 1024 * 8);
    }

    #[test]
    fn rank_capacity_is_4gib() {
        let c = DramConfig::ddr5_4400();
        assert_eq!(c.rank_capacity_bytes(), 4 * (1 << 30));
        // 1 channel x 1 rank: system capacity equals rank capacity.
        assert_eq!(c.total_capacity_bytes(), c.rank_capacity_bytes());
    }

    #[test]
    fn total_capacity_aggregates_topology() {
        let mut c = DramConfig::ddr5_4400();
        c.channels = 4;
        c.ranks = 2;
        assert_eq!(c.total_capacity_bytes(), 8 * c.rank_capacity_bytes());
        assert_eq!(c.total_capacity_bytes(), 32 * (1 << 30));
    }

    #[test]
    fn parallel_subarrays_clamped_to_banks() {
        let c = DramConfig::ddr5_4400();
        assert_eq!(c.parallel_subarrays(16), 16);
        assert_eq!(c.parallel_subarrays(64), 32);
    }

    #[test]
    fn cim_subarray_rows_scale_with_topology() {
        let mut c = DramConfig::ddr5_4400();
        assert_eq!(c.cim_subarray_rows(16), 16 * 1024);
        c.channels = 4;
        c.ranks = 2;
        assert_eq!(c.cim_subarray_rows(16), 8 * 16 * 1024);
        // Clamped to the banks the rank actually has.
        assert_eq!(c.cim_subarray_rows(64), 8 * 32 * 1024);
    }
}
