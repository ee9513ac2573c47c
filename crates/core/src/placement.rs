//! Mapping counters, masks and bit-slices onto DRAM geometry.
//!
//! The paper's Fig. 1b divides a subarray's D-group between the output
//! counters (Y, column-wise Johnson digits), the mask rows (Z, one row
//! per reduction index — more when Z is bit-sliced for integer
//! weights), and the scratch rows the μPrograms need. How many output
//! columns fit per subarray, and how many subarrays a given GEMV shape
//! occupies, determines the achievable parallelism of §7.2.1 and the
//! storage-overhead story of Fig. 19 / §7.3.3.
//!
//! [`PlacementPlan`] computes that budget for a kernel shape against a
//! [`DramConfig`]:
//!
//! * counter rows: `D · (n + 1)` for `D` digits of `n`-bit Johnson
//!   code, plus an `O_sign` row for signed kernels;
//! * mask rows: `K` for binary Z, `2K` for ternary, `K · slices` for
//!   CSD bit-sliced integer weights;
//! * scratch: the θ rows of the k-ary lowering (`n + 1`) plus the
//!   protection scheme's IR/FR rows when ECC is on.

use c2m_dram::DramConfig;
use c2m_ecc::protect::ProtectionKind;
use c2m_jc::codec::JohnsonCode;
use c2m_jc::cost::digits_for_capacity;
use serde::{Deserialize, Serialize};

/// How the in-memory operand matrix Z is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskEncoding {
    /// One binary mask row per reduction index (integer × binary).
    Binary,
    /// A +1 plane and a −1 plane (ternary weights).
    Ternary,
    /// CSD bit-slicing with this many ±2^e planes (integer weights of
    /// `p` bits need at most `2(p − 1)` planes, §5.2.3).
    BitSliced(usize),
}

impl MaskEncoding {
    /// Mask rows required per reduction index.
    #[must_use]
    pub fn rows_per_index(self) -> usize {
        match self {
            MaskEncoding::Binary => 1,
            MaskEncoding::Ternary => 2,
            MaskEncoding::BitSliced(planes) => planes,
        }
    }

    /// The §5.2.3 plane count for signed `p`-bit integer weights.
    #[must_use]
    pub fn csd_for_precision(p: u32) -> Self {
        MaskEncoding::BitSliced(2 * (p as usize - 1))
    }
}

/// A kernel shape to place: reduction depth `k`, output width `n_out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelShape {
    /// Reduction dimension (rows of Z).
    pub k: usize,
    /// Output elements (columns of Z / counters).
    pub n_out: usize,
    /// Mask encoding of Z.
    pub encoding: MaskEncoding,
}

/// Counter configuration to place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSpec {
    /// Johnson radix (2n states for n-bit digits).
    pub radix: usize,
    /// Binary capacity each counter must meet or exceed.
    pub capacity_bits: u32,
    /// Whether kernels need the `O_sign` row (signed accumulation).
    pub signed: bool,
    /// Fault-tolerance scheme (ECC needs IR/FR scratch rows).
    pub protection: ProtectionKind,
}

impl CounterSpec {
    /// The paper's evaluation configuration (radix 4, 64-bit, signed).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            radix: 4,
            capacity_bits: 64,
            signed: true,
            protection: ProtectionKind::None,
        }
    }

    /// Bits per Johnson digit.
    #[must_use]
    pub fn digit_bits(&self) -> usize {
        JohnsonCode::for_radix(self.radix).bits()
    }

    /// Digits needed for the capacity.
    #[must_use]
    pub fn digits(&self) -> usize {
        digits_for_capacity(self.radix, self.capacity_bits)
    }

    /// D-group rows per counter column: `D · (n + 1)` (+1 for O_sign).
    #[must_use]
    pub fn counter_rows(&self) -> usize {
        let n = self.digit_bits();
        let base = self.digits() * (n + 1);
        if self.signed {
            base + 1
        } else {
            base
        }
    }

    /// Scratch rows a μProgram needs next to the counters: θ saves
    /// (`n + 1`) plus the protection scheme's IR1/IR2/FR/T rows.
    #[must_use]
    pub fn scratch_rows(&self) -> usize {
        let n = self.digit_bits();
        let theta = n + 1;
        let protect = match self.protection {
            ProtectionKind::None => 0,
            ProtectionKind::Tmr => 2 * self.counter_rows(), // two replicas
            ProtectionKind::Ecc { .. } => 4,                // IR1, IR2, FR, temp
        };
        theta + protect
    }
}

/// The computed placement of one kernel on one DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// D-group rows consumed per subarray (counters + masks + scratch).
    pub rows_used: usize,
    /// D-group rows available per subarray (total minus B/C groups).
    pub rows_available: usize,
    /// Output counters per subarray (bounded by the rank-wide row width).
    pub columns_per_subarray: usize,
    /// Subarrays needed to hold all `n_out` outputs.
    pub subarrays_needed: usize,
    /// Of which this many can compute concurrently (one per bank).
    pub parallel_subarrays: usize,
}

impl PlacementPlan {
    /// Fraction of the D-group the kernel occupies (storage overhead,
    /// the Fig. 19 axis).
    #[must_use]
    pub fn row_utilisation(&self) -> f64 {
        self.rows_used as f64 / self.rows_available as f64
    }

    /// True if the kernel fits a single subarray's row budget.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.rows_used <= self.rows_available
    }
}

/// Plans the placement of `shape` with `spec` counters on `cfg`.
///
/// # Examples
///
/// ```
/// use c2m_core::placement::{plan, CounterSpec, KernelShape, MaskEncoding};
/// use c2m_dram::DramConfig;
///
/// let cfg = DramConfig::ddr5_4400();
/// let spec = CounterSpec::paper_default();
/// let shape = KernelShape { k: 256, n_out: 8192, encoding: MaskEncoding::Ternary };
/// let plan = plan(&cfg, &spec, &shape).expect("fits one subarray");
/// assert!(plan.fits());
/// ```
///
/// # Errors
///
/// Returns `Err` with the row deficit if the masks + counters exceed
/// the subarray's D-group (the kernel must then be split along K). A
/// row count past `usize::MAX` saturates there, so the deficit does too.
pub fn plan(
    cfg: &DramConfig,
    spec: &CounterSpec,
    shape: &KernelShape,
) -> Result<PlacementPlan, usize> {
    // Fig. 1b: 8 B-group + 2 C-group rows are reserved per subarray.
    let rows_available = cfg.rows_per_subarray.saturating_sub(10);
    let mask_rows = shape.k.saturating_mul(shape.encoding.rows_per_index());
    let rows_used = (spec.counter_rows() + spec.scratch_rows()).saturating_add(mask_rows);
    if rows_used > rows_available {
        return Err(rows_used - rows_available);
    }
    let columns_per_subarray = cfg.row_bits_per_rank().min(shape.n_out.max(1));
    let subarrays_needed = shape.n_out.div_ceil(cfg.row_bits_per_rank().max(1)).max(1);
    let parallel_subarrays = subarrays_needed.min(cfg.banks * cfg.ranks * cfg.channels);
    Ok(PlacementPlan {
        rows_used,
        rows_available,
        columns_per_subarray,
        subarrays_needed,
        parallel_subarrays,
    })
}

/// Plans every shard of a [`ShardPlan`](crate::shard::ShardPlan)
/// against the DRAM geometry.
///
/// A shard on the [`InnerDim`](crate::shard::ShardAxis::InnerDim) axis
/// only stores its K-slice's mask rows, so sharding K across the
/// topology is also how an over-deep kernel (one that
/// [`plan`] rejects) becomes placeable. Shards on other axes replicate
/// the full K mask set per unit.
///
/// # Errors
///
/// Returns the worst row deficit if any non-empty shard still exceeds
/// its subarray's D-group.
#[cfg(test)]
fn plan_sharded(
    cfg: &DramConfig,
    spec: &CounterSpec,
    shape: &KernelShape,
    shards: &crate::shard::ShardPlan,
) -> Result<Vec<PlacementPlan>, usize> {
    let mut plans = Vec::new();
    let mut worst_deficit = 0usize;
    for shard in shards.shards.iter().filter(|s| s.len > 0) {
        let k = match shards.axis {
            crate::shard::ShardAxis::InnerDim => shard.len,
            crate::shard::ShardAxis::OutputRows | crate::shard::ShardAxis::CsdPlanes => shape.k,
        };
        let shard_shape = KernelShape { k, ..*shape };
        match plan(cfg, spec, &shard_shape) {
            Ok(p) => plans.push(p),
            Err(deficit) => worst_deficit = worst_deficit.max(deficit),
        }
    }
    if worst_deficit > 0 {
        Err(worst_deficit)
    } else {
        Ok(plans)
    }
}

/// Maximum reduction depth K that fits one subarray for the given
/// counter spec and encoding (the split granularity for §5.2.2 GEMM).
#[must_use]
pub fn max_k_per_subarray(cfg: &DramConfig, spec: &CounterSpec, encoding: MaskEncoding) -> usize {
    let rows_available = cfg.rows_per_subarray.saturating_sub(10);
    let fixed = spec.counter_rows() + spec.scratch_rows();
    rows_available.saturating_sub(fixed) / encoding.rows_per_index()
}

/// PRADA-style row-address decomposition for subarray-level
/// parallelism: a bank's global row address splits into a *subarray id*
/// (the upper bits, selected by [`SubarrayMap::subarray_mask`]) and a
/// *local row* within that subarray's mat. The memory controller keys
/// its per-subarray row-buffer state — and the SALP scheduler its
/// per-stream windows — on the id field, so the split must be a pure
/// bitmask: both dimensions are required to be powers of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubarrayMap {
    subarrays_per_bank: usize,
    rows_per_subarray: usize,
    local_bits: u32,
}

impl SubarrayMap {
    /// Builds the map for `subarrays_per_bank` subarrays of
    /// `rows_per_subarray` rows each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two (the
    /// decomposition must be a bitmask, not a division).
    #[must_use]
    pub fn new(subarrays_per_bank: usize, rows_per_subarray: usize) -> Self {
        assert!(
            subarrays_per_bank.is_power_of_two(),
            "subarrays per bank must be a power of two, got {subarrays_per_bank}"
        );
        assert!(
            rows_per_subarray.is_power_of_two(),
            "rows per subarray must be a power of two, got {rows_per_subarray}"
        );
        Self {
            subarrays_per_bank,
            rows_per_subarray,
            local_bits: rows_per_subarray.trailing_zeros(),
        }
    }

    /// The map for a [`DramConfig`]'s bank organisation.
    #[must_use]
    pub fn from_config(cfg: &DramConfig) -> Self {
        Self::new(cfg.subarrays_per_bank, cfg.rows_per_subarray)
    }

    /// Total rows per bank the map addresses.
    #[must_use]
    pub fn rows_per_bank(&self) -> usize {
        self.subarrays_per_bank * self.rows_per_subarray
    }

    /// Bitmask selecting the subarray-id field of a global row address.
    #[must_use]
    pub fn subarray_mask(&self) -> usize {
        (self.subarrays_per_bank - 1) << self.local_bits
    }

    /// Bitmask selecting the local-row field of a global row address.
    #[must_use]
    pub fn local_mask(&self) -> usize {
        self.rows_per_subarray - 1
    }

    /// Splits a global row address into `(subarray id, local row)`.
    ///
    /// # Panics
    ///
    /// Panics if `global_row` is outside the bank.
    #[must_use]
    pub fn decompose(&self, global_row: usize) -> (usize, usize) {
        assert!(
            global_row < self.rows_per_bank(),
            "row {global_row} outside the {}-row bank",
            self.rows_per_bank()
        );
        (
            (global_row & self.subarray_mask()) >> self.local_bits,
            global_row & self.local_mask(),
        )
    }

    /// Rebuilds a global row address from `(subarray id, local row)` —
    /// the inverse of [`Self::decompose`].
    ///
    /// # Panics
    ///
    /// Panics if either field is out of range.
    #[cfg(test)]
    fn compose(&self, subarray: usize, local_row: usize) -> usize {
        assert!(
            subarray < self.subarrays_per_bank,
            "subarray {subarray} outside the {}-subarray bank",
            self.subarrays_per_bank
        );
        assert!(
            local_row < self.rows_per_subarray,
            "local row {local_row} outside the {}-row subarray",
            self.rows_per_subarray
        );
        (subarray << self.local_bits) | local_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr5_4400()
    }

    #[test]
    fn paper_default_counter_rows() {
        // Radix 4 -> 2-bit digits; 64-bit capacity -> 32 digits;
        // 32 * 3 + O_sign = 97 rows.
        let spec = CounterSpec::paper_default();
        assert_eq!(spec.digit_bits(), 2);
        assert_eq!(spec.digits(), 32);
        assert_eq!(spec.counter_rows(), 97);
    }

    #[test]
    fn binary_gemv_fits_table2_subarray() {
        let spec = CounterSpec::paper_default();
        let shape = KernelShape {
            k: 512,
            n_out: 8192,
            encoding: MaskEncoding::Binary,
        };
        let plan = plan(&cfg(), &spec, &shape).expect("must fit");
        assert!(plan.fits());
        assert!(plan.rows_used > 512);
        assert!(plan.subarrays_needed >= 1);
        assert!(plan.parallel_subarrays <= 32);
    }

    #[test]
    fn ternary_doubles_mask_rows() {
        let spec = CounterSpec::paper_default();
        let bin = KernelShape {
            k: 100,
            n_out: 64,
            encoding: MaskEncoding::Binary,
        };
        let ter = KernelShape {
            k: 100,
            n_out: 64,
            encoding: MaskEncoding::Ternary,
        };
        let pb = plan(&cfg(), &spec, &bin).unwrap();
        let pt = plan(&cfg(), &spec, &ter).unwrap();
        assert_eq!(pt.rows_used - pb.rows_used, 100);
    }

    #[test]
    fn oversized_k_reports_deficit() {
        let spec = CounterSpec::paper_default();
        let shape = KernelShape {
            k: 5000,
            n_out: 64,
            encoding: MaskEncoding::Binary,
        };
        let err = plan(&cfg(), &spec, &shape).unwrap_err();
        assert!(err > 0);
        // The deficit plus the budget must reconstruct the request.
        let max_k = max_k_per_subarray(&cfg(), &spec, MaskEncoding::Binary);
        assert!(max_k < 5000);
        let ok = KernelShape {
            k: max_k,
            n_out: 64,
            encoding: MaskEncoding::Binary,
        };
        assert!(plan(&cfg(), &spec, &ok).is_ok());
    }

    #[test]
    fn a_mask_row_count_past_usize_max_is_a_deficit() {
        // `k · rows_per_index` overflows for every encoding at
        // `k = usize::MAX` (binary only once the counter rows are added);
        // the rows saturate, so the plan is a deficit, never a wrapped
        // fit.
        let spec = CounterSpec::paper_default();
        for encoding in [
            MaskEncoding::Binary,
            MaskEncoding::Ternary,
            MaskEncoding::csd_for_precision(8),
        ] {
            let shape = KernelShape {
                k: usize::MAX,
                n_out: 64,
                encoding,
            };
            let rows_available = cfg().rows_per_subarray - 10;
            assert_eq!(
                plan(&cfg(), &spec, &shape),
                Err(usize::MAX - rows_available),
                "{encoding:?}"
            );
        }
    }

    #[test]
    fn csd_planes_match_precision_rule() {
        assert_eq!(
            MaskEncoding::csd_for_precision(8).rows_per_index(),
            14 // 2(p-1)
        );
    }

    #[test]
    fn higher_radix_uses_fewer_digits_but_wider_rows() {
        // Fig. 19: radix-4 packs like binary; radix-10 needs 5-bit
        // digits and pays storage for speed.
        let r4 = CounterSpec {
            radix: 4,
            ..CounterSpec::paper_default()
        };
        let r10 = CounterSpec {
            radix: 10,
            ..CounterSpec::paper_default()
        };
        assert!(r10.digits() < r4.digits());
        let bits_r4 = r4.digits() * r4.digit_bits();
        let bits_r10 = r10.digits() * r10.digit_bits();
        assert!(bits_r10 >= bits_r4, "radix 10 stores more raw bits");
    }

    #[test]
    fn tmr_costs_two_extra_replicas() {
        let plain = CounterSpec::paper_default();
        let tmr = CounterSpec {
            protection: ProtectionKind::Tmr,
            ..plain
        };
        assert_eq!(
            tmr.scratch_rows() - plain.scratch_rows(),
            2 * plain.counter_rows()
        );
    }

    #[test]
    fn inner_dim_sharding_makes_oversized_k_placeable() {
        use crate::shard::ShardPlanner;
        use c2m_dram::Topology;

        let spec = CounterSpec::paper_default();
        let shape = KernelShape {
            k: 3000,
            n_out: 64,
            encoding: MaskEncoding::Binary,
        };
        // Whole kernel: too deep for one subarray.
        assert!(plan(&cfg(), &spec, &shape).is_err());
        // Split over 4 channels: each K-slice of 750 masks fits.
        let shards = ShardPlanner::new(Topology {
            channels: 4,
            ranks: 1,
            banks: 16,
            subarrays: 1,
        })
        .plan_inner(shape.k);
        let plans = plan_sharded(&cfg(), &spec, &shape, &shards).expect("shards fit");
        assert_eq!(plans.len(), 4);
        assert!(plans.iter().all(PlacementPlan::fits));
        // Row-axis sharding replicates the masks, so it does not help.
        let row_shards = ShardPlanner::new(Topology {
            channels: 4,
            ranks: 1,
            banks: 16,
            subarrays: 1,
        })
        .plan_rows(128);
        assert!(plan_sharded(&cfg(), &spec, &shape, &row_shards).is_err());
    }

    #[test]
    fn subarray_map_round_trips_every_row() {
        let map = SubarrayMap::from_config(&cfg());
        assert_eq!(map.rows_per_bank(), 32 * 1024);
        // PRADA decomposition: id field sits directly above the 10
        // local-row bits.
        assert_eq!(map.local_mask(), 0x3FF);
        assert_eq!(map.subarray_mask(), 0x1F << 10);
        for row in [0, 1, 1023, 1024, 4097, 32 * 1024 - 1] {
            let (sa, local) = map.decompose(row);
            assert_eq!(map.compose(sa, local), row);
            assert_eq!(sa, row >> 10);
            assert_eq!(local, row & 0x3FF);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn subarray_map_rejects_non_pow2_geometry() {
        let _ = SubarrayMap::new(12, 1024);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn subarray_map_rejects_out_of_bank_rows() {
        let _ = SubarrayMap::from_config(&cfg()).decompose(32 * 1024);
    }

    #[test]
    fn wide_outputs_split_over_subarrays() {
        let spec = CounterSpec::paper_default();
        let width = cfg().row_bits_per_rank();
        let shape = KernelShape {
            k: 16,
            n_out: width * 3 + 1,
            encoding: MaskEncoding::Binary,
        };
        let plan = plan(&cfg(), &spec, &shape).unwrap();
        assert_eq!(plan.subarrays_needed, 4);
    }
}
