//! Table 3 — GEMV and GEMM dimensions from LLaMA and LLaMA-2.

use serde::{Deserialize, Serialize};

/// One GEMM problem: `Y[M×N] = X[M×K] · Z[K×N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GemmShape {
    /// Workload identifier (V0–V4, M0–M4).
    pub id: &'static str,
    /// Source model.
    pub model: &'static str,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

impl GemmShape {
    /// Useful operations (one MAC = two ops).
    #[must_use]
    pub fn useful_ops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// True for the GEMV (M = 1) shapes.
    #[must_use]
    pub fn is_gemv(&self) -> bool {
        self.m == 1
    }
}

/// The five GEMV shapes of Table 3.
pub const GEMV_SHAPES: [GemmShape; 5] = [
    GemmShape {
        id: "V0",
        model: "LLaMA",
        m: 1,
        n: 22016,
        k: 8192,
    },
    GemmShape {
        id: "V1",
        model: "LLaMA",
        m: 1,
        n: 8192,
        k: 22016,
    },
    GemmShape {
        id: "V2",
        model: "LLaMA-2",
        m: 1,
        n: 8192,
        k: 8192,
    },
    GemmShape {
        id: "V3",
        model: "LLaMA-2",
        m: 1,
        n: 28672,
        k: 8192,
    },
    GemmShape {
        id: "V4",
        model: "LLaMA-2",
        m: 1,
        n: 8192,
        k: 28672,
    },
];

/// The five GEMM shapes of Table 3.
pub const GEMM_SHAPES: [GemmShape; 5] = [
    GemmShape {
        id: "M0",
        model: "LLaMA",
        m: 8192,
        n: 22016,
        k: 8192,
    },
    GemmShape {
        id: "M1",
        model: "LLaMA",
        m: 8192,
        n: 8192,
        k: 22016,
    },
    GemmShape {
        id: "M2",
        model: "LLaMA-2",
        m: 8192,
        n: 8192,
        k: 8192,
    },
    GemmShape {
        id: "M3",
        model: "LLaMA-2",
        m: 8192,
        n: 28672,
        k: 8192,
    },
    GemmShape {
        id: "M4",
        model: "LLaMA-2",
        m: 8192,
        n: 8192,
        k: 28672,
    },
];

/// All ten Table 3 shapes, V first.
#[must_use]
pub fn all_shapes() -> Vec<GemmShape> {
    GEMV_SHAPES
        .iter()
        .chain(GEMM_SHAPES.iter())
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_complete() {
        let all = all_shapes();
        assert_eq!(all.len(), 10);
        assert!(GEMV_SHAPES.iter().all(GemmShape::is_gemv));
        assert!(GEMM_SHAPES.iter().all(|s| !s.is_gemv()));
    }

    #[test]
    fn v0_matches_paper() {
        let v0 = GEMV_SHAPES[0];
        assert_eq!((v0.m, v0.n, v0.k), (1, 22016, 8192));
        assert_eq!(v0.useful_ops(), 2 * 22016 * 8192);
    }

    #[test]
    fn m_shapes_mirror_v_shapes() {
        for (v, m) in GEMV_SHAPES.iter().zip(GEMM_SHAPES.iter()) {
            assert_eq!(v.n, m.n, "{}", v.id);
            assert_eq!(v.k, m.k, "{}", v.id);
            assert_eq!(m.m, 8192, "{}", m.id);
        }
    }
}
