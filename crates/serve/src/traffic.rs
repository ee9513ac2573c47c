//! Multi-tenant traffic generators for the serving runtime.
//!
//! Open-loop traffic draws Poisson arrivals
//! ([`c2m_workloads::distributions::exp_interarrivals`]) and assigns
//! each request a tenant and an input vector; closed-loop traffic is
//! generated interactively by
//! [`crate::runtime::ServeRuntime::run_closed_loop`], which needs
//! completion feedback, and is configured here. Both draw inputs through
//! [`request_input`]: the Fig. 3b int8 embedding law, one ChaCha12 word
//! per value mapped through its exact inverse CDF
//! ([`c2m_workloads::distributions::int8_embedding_of`]).

use crate::request::{ServeRequest, ServiceClass};
use c2m_workloads::distributions::{int8_embedding_of, poisson_arrivals};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// One tenant's resident model: the GEMV shape its requests run and the
/// SLO class they carry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Output width N of the tenant's ternary weight matrix.
    pub n: usize,
    /// Inner dimension K (input vector length).
    pub k: usize,
    /// SLO class stamped on every request of this tenant.
    pub class: ServiceClass,
}

impl TenantSpec {
    /// A best-effort tenant of shape `n × k`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        Self {
            n,
            k,
            class: ServiceClass::BEST_EFFORT,
        }
    }

    /// The same tenant with an explicit SLO class.
    #[must_use]
    pub fn with_class(mut self, class: ServiceClass) -> Self {
        self.class = class;
        self
    }
}

/// Open-loop (arrival-driven) traffic: requests arrive on a Poisson
/// process regardless of completions — the "heavy traffic" regime where
/// the queue builds and batching pays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// The tenants sharing the module; each request picks one uniformly
    /// at random. A single tenant yields a row-hit-heavy trace.
    pub tenants: Vec<TenantSpec>,
    /// Total requests to generate.
    pub requests: usize,
    /// Mean inter-arrival gap, ns.
    pub mean_interarrival_ns: f64,
    /// RNG seed (arrivals, tenant choice and inputs all derive from it).
    pub seed: u64,
}

/// Closed-loop (completion-driven) traffic: each client waits for its
/// previous request to finish, thinks, then issues the next.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopConfig {
    /// The tenants sharing the module; client `c` uses tenant
    /// `c % tenants.len()`.
    pub tenants: Vec<TenantSpec>,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Think time between a completion and the client's next request, ns.
    pub think_ns: f64,
    /// RNG seed for the input vectors.
    pub seed: u64,
}

/// Generates an open-loop trace: `requests` Poisson arrivals with
/// uniformly random tenants and int8-embedding inputs.
///
/// # Panics
///
/// Panics if `tenants` is empty or the mean gap is not positive.
#[must_use]
pub fn open_loop(cfg: &OpenLoopConfig) -> Vec<ServeRequest> {
    assert!(!cfg.tenants.is_empty(), "at least one tenant required");
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0x007E_4A17);
    poisson_arrivals(cfg.requests, cfg.mean_interarrival_ns, cfg.seed)
        .into_iter()
        .enumerate()
        .map(|(i, arrival_ns)| {
            let tenant = rng.gen_range(0..cfg.tenants.len());
            let spec = cfg.tenants[tenant];
            ServeRequest {
                id: i as u64,
                arrival_ns,
                tenant,
                class: spec.class,
                n: spec.n,
                x: request_input(spec.k, cfg.seed, i as u64),
            }
        })
        .collect()
}

/// The input vector of request `id`: `k` values of the Fig. 3b int8
/// embedding law, each one ChaCha12 word through
/// [`int8_embedding_of`], from a generator seeded by `seed` and `id` so
/// traces reproduce across runs and runtimes.
#[must_use]
pub fn request_input(k: usize, seed: u64, id: u64) -> Vec<i64> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id);
    (0..k).map(|_| int8_embedding_of(rng.next_u64())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OpenLoopConfig {
        OpenLoopConfig {
            tenants: vec![
                TenantSpec::new(256, 64).with_class(ServiceClass::new(2, 1e6)),
                TenantSpec::new(128, 32),
            ],
            requests: 200,
            mean_interarrival_ns: 500.0,
            seed: 7,
        }
    }

    #[test]
    fn open_loop_arrivals_increase_and_cover_tenants() {
        let reqs = open_loop(&cfg());
        assert_eq!(reqs.len(), 200);
        assert!(reqs.windows(2).all(|w| w[1].arrival_ns > w[0].arrival_ns));
        assert!(reqs.iter().any(|r| r.tenant == 0));
        assert!(reqs.iter().any(|r| r.tenant == 1));
        for r in &reqs {
            let spec = cfg().tenants[r.tenant];
            assert_eq!(r.k(), spec.k);
            assert_eq!(r.n, spec.n);
            assert_eq!(r.class, spec.class, "requests inherit the tenant class");
        }
    }

    #[test]
    fn request_inputs_follow_the_int8_embedding_law() {
        use c2m_workloads::distributions::int8_embeddings;
        // Two-sample χ² between 10⁶ values of each generator, with the
        // values beyond ±55 (about 21 per sample) pooled into the end
        // bins: 111 bins, 110 degrees of freedom.
        let bins = |values: &[i64]| {
            let mut counts = [0u64; 111];
            for &v in values {
                counts[(v.clamp(-55, 55) + 55) as usize] += 1;
            }
            counts
        };
        let served: Vec<i64> = (0..1000)
            .flat_map(|id| request_input(1000, 3, id))
            .collect();
        let figures = int8_embeddings(1_000_000, 3);
        let chi2: f64 = bins(&served)
            .iter()
            .zip(bins(&figures))
            .filter(|&(&r, s)| r + s > 0)
            .map(|(&r, s)| (r as f64 - s as f64).powi(2) / (r + s) as f64)
            .sum();
        // The 0.999 quantile of χ² on 110 degrees of freedom.
        assert!(chi2 < 161.6, "χ² {chi2} on 110 degrees of freedom");
    }

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(open_loop(&cfg()), open_loop(&cfg()));
    }

    #[test]
    #[should_panic(expected = "tenant")]
    fn empty_tenant_list_panics() {
        let mut c = cfg();
        c.tenants.clear();
        let _ = open_loop(&c);
    }
}
