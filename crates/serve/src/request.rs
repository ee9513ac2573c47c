//! Serving-layer request types: what the multi-tenant ingest layer
//! accepts and what the runtime batches.

use serde::{Deserialize, Serialize};

/// SLO class of a request: how urgent it is and how important its
/// tenant is. Set per tenant in [`crate::traffic::TenantSpec`] and
/// consumed by the admission scheduler's pluggable policies
/// ([`crate::runtime::SchedPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceClass {
    /// Scheduling weight: higher wins under
    /// [`SchedPolicy::PriorityWeighted`](crate::runtime::SchedPolicy).
    pub priority: u8,
    /// Relative deadline, ns after arrival. `f64::INFINITY` means
    /// best-effort (never counted as missed).
    pub deadline_ns: f64,
}

impl ServiceClass {
    /// Best-effort: priority 0, no deadline.
    pub const BEST_EFFORT: Self = Self {
        priority: 0,
        deadline_ns: f64::INFINITY,
    };

    /// A class with `priority` and a relative `deadline_ns`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or NaN deadline.
    #[must_use]
    pub fn new(priority: u8, deadline_ns: f64) -> Self {
        assert!(deadline_ns > 0.0, "deadline must be positive");
        Self {
            priority,
            deadline_ns,
        }
    }
}

impl Default for ServiceClass {
    /// Best-effort.
    fn default() -> Self {
        Self::BEST_EFFORT
    }
}

/// One inference request: a ternary GEMV `y = x · Z_t` against the
/// weight matrix of tenant `t`.
///
/// Requests carry their own input vector so the runtime can run the
/// real host-side planning pass (digit unpacking + IARM) per request —
/// the same exactness contract as the engine's kernel methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Unique request id (assigned by the traffic generator).
    pub id: u64,
    /// Arrival time at the serving front end, ns.
    pub arrival_ns: f64,
    /// Owning tenant: selects the resident weight matrix. Requests of
    /// the same tenant are row hits on each other — they share mask
    /// planes and input-buffer rows, so the batcher may coalesce them.
    pub tenant: usize,
    /// SLO class (inherited from the tenant's spec).
    pub class: ServiceClass,
    /// Output width N of the tenant's weight matrix.
    pub n: usize,
    /// The input vector (length K).
    pub x: Vec<i64>,
}

impl ServeRequest {
    /// Inner dimension K of this request.
    #[must_use]
    pub fn k(&self) -> usize {
        self.x.len()
    }

    /// Absolute deadline, ns (`+∞` for best-effort requests).
    #[must_use]
    pub fn deadline_ns(&self) -> f64 {
        self.arrival_ns + self.class.deadline_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_are_arrival_relative() {
        let r = ServeRequest {
            id: 1,
            arrival_ns: 500.0,
            tenant: 0,
            class: ServiceClass::new(3, 1_000.0),
            n: 4,
            x: vec![1],
        };
        assert_eq!(r.deadline_ns(), 1_500.0);
        assert_eq!(r.class.priority, 3);
        // A best-effort request never expires; `k` is its input length.
        let best_effort = ServeRequest {
            class: ServiceClass::BEST_EFFORT,
            x: vec![1, -2, 3],
            ..r
        };
        assert_eq!(best_effort.k(), 3);
        assert_eq!(best_effort.deadline_ns(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn non_positive_deadline_is_rejected() {
        let _ = ServiceClass::new(1, 0.0);
    }
}
