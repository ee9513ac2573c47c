//! Graph convolutional network workload (PubMed node classification).
//!
//! The paper evaluates GCN aggregation on PubMed. We keep the exact
//! dataset dimensions (19 717 nodes, 500 features, 3 classes, ~88 k
//! edges → ≈99.98 % adjacency sparsity) and substitute a seeded
//! power-law graph for the citation structure, since GCN aggregation
//! `A·X` is precisely the sparse integer-binary matmul Count2Multiply
//! accelerates by skipping zeros (§7.2.3).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// PubMed dataset dimensions.
pub mod pubmed {
    /// Number of nodes.
    pub const NODES: usize = 19_717;
    /// Feature dimension.
    pub const FEATURES: usize = 500;
    /// Classes.
    pub const CLASSES: usize = 3;
    /// Undirected edges.
    pub const EDGES: usize = 88_648;

    /// Adjacency sparsity (fraction of zero entries).
    #[must_use]
    pub fn adjacency_sparsity() -> f64 {
        1.0 - (2.0 * EDGES as f64) / (NODES as f64 * NODES as f64)
    }
}

/// A synthetic power-law graph in adjacency-list form.
#[derive(Debug, Clone)]
pub struct SyntheticGraph {
    /// Per-node neighbour lists.
    pub adj: Vec<Vec<u32>>,
}

impl SyntheticGraph {
    /// Generates a preferential-attachment graph with `nodes` nodes and
    /// roughly `edges` edges.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    #[must_use]
    pub fn power_law(nodes: usize, edges: usize, seed: u64) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut adj = vec![Vec::new(); nodes];
        let mut endpoints: Vec<u32> = vec![0, 1];
        adj[0].push(1);
        adj[1].push(0);
        let per_node = (edges / nodes).max(1);
        for v in 2..nodes {
            for _ in 0..per_node {
                // Preferential attachment: sample an endpoint.
                let u = endpoints[rng.gen_range(0..endpoints.len())] as usize;
                if u != v && !adj[v].contains(&(u as u32)) {
                    adj[v].push(u as u32);
                    adj[u].push(v as u32);
                    endpoints.push(u as u32);
                    endpoints.push(v as u32);
                }
            }
        }
        Self { adj }
    }

    /// Node count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.adj.len()
    }

    /// Edge count (undirected).
    #[must_use]
    pub fn edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Adjacency sparsity.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        let n = self.nodes() as f64;
        1.0 - (2.0 * self.edges() as f64) / (n * n)
    }

    /// Aggregates integer node features over neighbourhoods (the GCN
    /// `A·X` step) on the host — the reference for CIM runs.
    #[must_use]
    pub fn aggregate(&self, features: &[Vec<i64>]) -> Vec<Vec<i64>> {
        assert_eq!(features.len(), self.nodes(), "feature count mismatch");
        let f = features[0].len();
        self.adj
            .iter()
            .map(|neigh| {
                let mut acc = vec![0i64; f];
                for &u in neigh {
                    for (a, &x) in acc.iter_mut().zip(&features[u as usize]) {
                        *a += x;
                    }
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pubmed_constants() {
        assert!(pubmed::adjacency_sparsity() > 0.999);
    }

    #[test]
    fn power_law_graph_has_requested_scale() {
        let g = SyntheticGraph::power_law(2000, 8000, 1);
        assert_eq!(g.nodes(), 2000);
        let e = g.edges();
        assert!((1500..12000).contains(&e), "edges {e}");
        assert!(g.sparsity() > 0.99);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = SyntheticGraph::power_law(3000, 9000, 2);
        let mut degrees: Vec<usize> = g.adj.iter().map(Vec::len).collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(max > 8 * median.max(1), "max {max} vs median {median}");
    }

    #[test]
    fn aggregation_matches_manual_sum() {
        let g = SyntheticGraph {
            adj: vec![vec![1, 2], vec![0], vec![0]],
        };
        let x = vec![vec![1, 10], vec![2, 20], vec![3, 30]];
        let agg = g.aggregate(&x);
        assert_eq!(agg[0], vec![5, 50]);
        assert_eq!(agg[1], vec![1, 10]);
        assert_eq!(agg[2], vec![1, 10]);
    }
}
