//! Tenant weight residency: which tenants' mask planes fit in the CIM
//! subarrays, and what a tenant switch costs when they don't all fit.
//!
//! A tenant's ternary weight matrix lives in the compute subarrays as
//! per-row mask planes (§5.2: one +1 plane and one −1 plane, K rows
//! each, replicated across the column slices its N outputs span). The
//! subarrays also hold the Johnson counter rows, so the residency budget
//! is the CIM subarray capacity ([`c2m_dram::DramConfig::cim_subarray_rows`])
//! minus the counter footprint. When a module hosts more tenants than
//! fit, dispatching a non-resident tenant must first stream its mask
//! planes back in — the serving-layer analogue of a row-buffer conflict,
//! priced through
//! [`C2mEngine::mask_reload_ns`](crate::engine::C2mEngine::mask_reload_ns).
//!
//! [`ResidencyModel`] is the bookkeeping half: one LRU set of resident
//! tenants over the module's row budget. A tenant's mask planes spread
//! evenly over the module's (channel, rank, SALP stream) *slots*, so each
//! footprint is rounded up to a whole `⌈rows/slots⌉` share per slot.
//! Every slot receives the same share of every tenant, so all slots
//! always hold the same tenants: a tenant is resident everywhere or
//! nowhere, and a reload restreams every slot's share. With a single
//! slot ([`ResidencyModel::new`]) no rounding happens. It is
//! deliberately engine-agnostic — the serving runtime owns one per run
//! and asks the engine to price the reloads it reports.

use serde::Serialize;

/// Outcome of dispatching one tenant against the residency state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ResidencyOutcome {
    /// The tenant's mask planes were already resident (no reload).
    Hit,
    /// The tenant had to be (re)loaded: `rows` mask rows streamed into
    /// the CIM subarrays, after evicting least-recently-used tenants.
    /// On a multi-slot model this is the footprint rounded up to a
    /// whole share per slot.
    Reload {
        /// Mask rows written by the reload.
        rows: usize,
    },
}

/// LRU residency tracker for tenant mask planes over a module-wide row
/// budget of `slots × rows_per_slot` rows.
///
/// # Examples
///
/// ```
/// use c2m_core::residency::{ResidencyModel, ResidencyOutcome};
///
/// let mut res = ResidencyModel::new(1000);
/// assert_eq!(res.touch(0, 600), ResidencyOutcome::Reload { rows: 600 });
/// assert_eq!(res.touch(0, 600), ResidencyOutcome::Hit);
/// // Tenant 1 doesn't fit alongside tenant 0: 0 is evicted.
/// assert_eq!(res.touch(1, 600), ResidencyOutcome::Reload { rows: 600 });
/// assert!(!res.is_resident(0));
/// ```
#[derive(Debug, Clone)]
pub struct ResidencyModel {
    slots: usize,
    capacity_rows: usize,
    /// Resident tenants and their rounded footprints in LRU order:
    /// front = coldest, back = hottest.
    resident: Vec<(usize, usize)>,
}

impl ResidencyModel {
    /// A single-slot model with `capacity_rows` mask-capable rows — the
    /// flat module-wide budget.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity — a module with no mask rows cannot
    /// serve any tenant.
    #[must_use]
    pub fn new(capacity_rows: usize) -> Self {
        Self::with_slots(1, capacity_rows)
    }

    /// A model over `slots` subarray slots of `rows_per_slot`
    /// mask-capable rows each (one slot per (channel, rank, SALP
    /// stream); see
    /// [`C2mEngine::residency_slots`](crate::engine::C2mEngine::residency_slots)).
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `rows_per_slot` is zero, or if the total
    /// budget overflows `usize`.
    #[must_use]
    pub fn with_slots(slots: usize, rows_per_slot: usize) -> Self {
        assert!(slots > 0, "residency model needs at least one slot");
        assert!(rows_per_slot > 0, "residency capacity must be positive");
        Self {
            slots,
            capacity_rows: slots
                .checked_mul(rows_per_slot)
                .expect("residency budget fits in usize"),
            resident: Vec::new(),
        }
    }

    /// Number of subarray slots each footprint spreads over.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The total row budget across all slots.
    #[must_use]
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Mask rows currently occupied across all slots.
    #[must_use]
    pub fn used_rows(&self) -> usize {
        self.resident.iter().map(|&(_, rows)| rows).sum()
    }

    /// Whether `tenant`'s mask planes are resident.
    #[must_use]
    pub fn is_resident(&self, tenant: usize) -> bool {
        self.resident.iter().any(|&(t, _)| t == tenant)
    }

    /// Resident tenants, coldest first.
    #[must_use]
    pub fn resident_tenants(&self) -> Vec<usize> {
        self.resident.iter().map(|&(t, _)| t).collect()
    }

    /// Dispatches `tenant` needing `rows` mask rows, rounded up to
    /// `⌈rows/slots⌉` rows in every slot: a resident tenant with an
    /// unchanged footprint is refreshed to most-recently-used and hits;
    /// a non-resident one (or one whose footprint changed — its planes
    /// must be restreamed) evicts least-recently-used tenants until it
    /// fits and reports the reload. A tenant larger than the whole
    /// budget still runs — it evicts everything and reloads every
    /// dispatch (permanent thrashing), mirroring a row that can never
    /// stay open.
    pub fn touch(&mut self, tenant: usize, rows: usize) -> ResidencyOutcome {
        let rows = self.slots * rows.div_ceil(self.slots);
        if let Some(pos) = self.resident.iter().position(|&(t, _)| t == tenant) {
            let entry = self.resident.remove(pos);
            if entry.1 == rows {
                self.resident.push(entry);
                return ResidencyOutcome::Hit;
            }
            // Footprint changed: the old planes are stale, reload.
        }
        while !self.resident.is_empty() && self.used_rows() + rows > self.capacity_rows {
            self.resident.remove(0);
        }
        if rows <= self.capacity_rows {
            self.resident.push((tenant, rows));
        }
        ResidencyOutcome::Reload { rows }
    }
}

/// Mask rows needed to keep one ternary tenant resident: 2 planes
/// (+1 and −1) × K weight rows × the column slices its N outputs span
/// on a `row_bits` wide logical row.
///
/// # Panics
///
/// Panics on a zero row width.
#[must_use]
pub fn ternary_mask_rows(n: usize, k: usize, row_bits: usize) -> usize {
    assert!(row_bits > 0, "row width must be positive");
    2 * k * n.div_ceil(row_bits).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: one LRU per slot over its own `rows_per_slot`
    /// budget, every dispatch spreading `⌈rows/slots⌉` rows over every
    /// slot, a hit only when every slot hits, and a reload summing the
    /// rows of the slots that missed.
    #[derive(Debug, Clone)]
    struct SlotLru {
        capacity_rows: usize,
        /// Resident tenants in LRU order: front = coldest.
        resident: Vec<(usize, usize)>,
    }

    impl SlotLru {
        fn used_rows(&self) -> usize {
            self.resident.iter().map(|&(_, rows)| rows).sum()
        }

        fn touch(&mut self, tenant: usize, rows: usize) -> ResidencyOutcome {
            if let Some(pos) = self.resident.iter().position(|&(t, _)| t == tenant) {
                if self.resident[pos].1 == rows {
                    let entry = self.resident.remove(pos);
                    self.resident.push(entry);
                    return ResidencyOutcome::Hit;
                }
                self.resident.remove(pos);
            }
            while !self.resident.is_empty() && self.used_rows() + rows > self.capacity_rows {
                self.resident.remove(0);
            }
            if rows <= self.capacity_rows {
                self.resident.push((tenant, rows));
            }
            ResidencyOutcome::Reload { rows }
        }
    }

    fn oracle(slots: usize, rows_per_slot: usize) -> Vec<SlotLru> {
        vec![
            SlotLru {
                capacity_rows: rows_per_slot,
                resident: Vec::new(),
            };
            slots
        ]
    }

    fn oracle_touch(slots: &mut [SlotLru], tenant: usize, rows: usize) -> ResidencyOutcome {
        let per_slot = rows.div_ceil(slots.len());
        let mut reload_rows = 0;
        let mut missed = false;
        for slot in slots {
            if let ResidencyOutcome::Reload { rows } = slot.touch(tenant, per_slot) {
                missed = true;
                reload_rows += rows;
            }
        }
        if missed {
            ResidencyOutcome::Reload { rows: reload_rows }
        } else {
            ResidencyOutcome::Hit
        }
    }

    /// Resident tenants across the oracle's slots, coldest first (first
    /// occurrence across slots).
    fn oracle_tenants(slots: &[SlotLru]) -> Vec<usize> {
        let mut tenants = Vec::new();
        for &(t, _) in slots.iter().flat_map(|s| &s.resident) {
            if !tenants.contains(&t) {
                tenants.push(t);
            }
        }
        tenants
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// One LRU over the rounded footprints answers every dispatch
        /// exactly as per-slot LRUs fed the same even spread: footprints
        /// above the budget and tenants whose footprint changes included.
        #[test]
        fn one_lru_matches_the_per_slot_lrus(
            slots in 1usize..=8,
            rows_per_slot in 1usize..=500,
            dispatches in prop::collection::vec((0usize..=5, 0usize..2000), 1..60),
        ) {
            let mut model = ResidencyModel::with_slots(slots, rows_per_slot);
            let mut per_slot = oracle(slots, rows_per_slot);
            for (step, &(tenant, rows)) in dispatches.iter().enumerate() {
                prop_assert_eq!(
                    model.touch(tenant, rows),
                    oracle_touch(&mut per_slot, tenant, rows),
                    "step {} (tenant {}, rows {})", step, tenant, rows
                );
                prop_assert_eq!(
                    model.used_rows(),
                    per_slot.iter().map(SlotLru::used_rows).sum::<usize>()
                );
                prop_assert_eq!(model.resident_tenants(), oracle_tenants(&per_slot));
            }
            prop_assert_eq!(model.capacity_rows(), slots * rows_per_slot);
        }
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let mut res = ResidencyModel::new(100);
        assert_eq!(res.touch(0, 40), ResidencyOutcome::Reload { rows: 40 });
        assert_eq!(res.touch(1, 40), ResidencyOutcome::Reload { rows: 40 });
        // Refresh tenant 0: tenant 1 becomes the LRU victim.
        assert_eq!(res.touch(0, 40), ResidencyOutcome::Hit);
        assert_eq!(res.touch(2, 40), ResidencyOutcome::Reload { rows: 40 });
        assert!(res.is_resident(0));
        assert!(!res.is_resident(1));
        assert!(res.is_resident(2));
        assert_eq!(res.used_rows(), 80);
    }

    #[test]
    fn fitting_tenants_never_reload_twice() {
        let mut res = ResidencyModel::new(1000);
        for round in 0..3 {
            for t in 0..4 {
                let out = res.touch(t, 200);
                if round == 0 {
                    assert_eq!(out, ResidencyOutcome::Reload { rows: 200 });
                } else {
                    assert_eq!(out, ResidencyOutcome::Hit, "tenant {t} round {round}");
                }
            }
        }
        assert_eq!(res.used_rows(), 800);
    }

    #[test]
    fn oversized_tenant_thrashes_but_runs() {
        let mut res = ResidencyModel::new(100);
        assert_eq!(res.touch(0, 40), ResidencyOutcome::Reload { rows: 40 });
        assert_eq!(res.touch(9, 500), ResidencyOutcome::Reload { rows: 500 });
        // Too big to retain: evicted everything, kept nothing.
        assert!(!res.is_resident(9));
        assert!(!res.is_resident(0));
        assert_eq!(res.touch(9, 500), ResidencyOutcome::Reload { rows: 500 });
    }

    #[test]
    fn changed_footprint_forces_a_reload() {
        let mut res = ResidencyModel::new(1000);
        assert_eq!(res.touch(0, 100), ResidencyOutcome::Reload { rows: 100 });
        // Same tenant, bigger working set: stale planes, re-stream and
        // re-fit against the budget.
        assert_eq!(res.touch(0, 600), ResidencyOutcome::Reload { rows: 600 });
        assert_eq!(res.used_rows(), 600);
        assert_eq!(res.touch(0, 600), ResidencyOutcome::Hit);
        // A growth past the whole budget evicts and cannot be retained.
        assert_eq!(res.touch(0, 2000), ResidencyOutcome::Reload { rows: 2000 });
        assert!(!res.is_resident(0));
    }

    #[test]
    fn mask_rows_count_planes_and_slices() {
        // 2 planes x K rows, one column slice.
        assert_eq!(ternary_mask_rows(1024, 512, 65_536), 2 * 512);
        // N spanning 3 slices triples the rows.
        assert_eq!(ternary_mask_rows(3 * 65_536, 512, 65_536), 6 * 512);
        // Degenerate shapes still cost at least one slice.
        assert_eq!(ternary_mask_rows(0, 16, 65_536), 32);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = ResidencyModel::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_are_rejected() {
        let _ = ResidencyModel::with_slots(0, 100);
    }

    #[test]
    fn flat_touch_spreads_over_slots() {
        let mut res = ResidencyModel::with_slots(4, 100);
        assert_eq!(res.touch(0, 200), ResidencyOutcome::Reload { rows: 200 });
        assert_eq!(res.touch(0, 200), ResidencyOutcome::Hit);
        assert_eq!(res.used_rows(), 200);
        assert_eq!(res.capacity_rows(), 400);
    }
}
