//! Mask-matrix types stored in memory rows (Fig. 1).
//!
//! Z lives in memory as binary masks: a [`BinaryMatrix`] holds one mask
//! row per inner-dimension index `k`, each of width N (the output
//! columns). Ternary matrices keep two planes (+1 / −1); integer
//! matrices bit-slice into CSD planes in `kernels::int_gemv`.

use c2m_cim::Row;
use rand::Rng;

/// A K×N binary matrix stored as K mask rows of N columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryMatrix {
    rows: Vec<Row>,
    n: usize,
}

impl BinaryMatrix {
    /// All-zero K×N matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `n` is zero.
    #[must_use]
    pub fn zeros(k: usize, n: usize) -> Self {
        assert!(k > 0 && n > 0, "matrix dimensions must be positive");
        Self {
            rows: vec![Row::zeros(n); k],
            n,
        }
    }

    /// Builds from a dense boolean table `data[k][n]`.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    #[must_use]
    pub fn from_rows(data: &[Vec<bool>]) -> Self {
        assert!(!data.is_empty(), "need at least one row");
        let n = data[0].len();
        let rows = data
            .iter()
            .map(|r| {
                assert_eq!(r.len(), n, "ragged matrix");
                Row::from_bits(r.iter().copied())
            })
            .collect();
        Self { rows, n }
    }

    /// Random matrix with the given density of ones.
    #[must_use]
    pub fn random(k: usize, n: usize, density: f64, rng: &mut impl Rng) -> Self {
        let mut m = Self::zeros(k, n);
        for r in 0..k {
            for c in 0..n {
                if rng.gen_bool(density) {
                    m.rows[r].set(c, true);
                }
            }
        }
        m
    }

    /// Inner dimension K (number of mask rows).
    #[must_use]
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Output width N.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Mask row for inner index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[must_use]
    pub fn mask(&self, i: usize) -> &Row {
        &self.rows[i]
    }

    /// Entry accessor.
    #[must_use]
    pub fn get(&self, k: usize, n: usize) -> bool {
        self.rows[k].get(n)
    }

    /// Sets an entry.
    pub fn set(&mut self, k: usize, n: usize, v: bool) {
        self.rows[k].set(n, v);
    }

    /// Reference GEMV on the host: `y[n] = Σ_k x[k]·z[k][n]`.
    #[must_use]
    pub fn reference_gemv(&self, x: &[i64]) -> Vec<i64> {
        assert_eq!(x.len(), self.k(), "x length mismatch");
        let mut y = vec![0i64; self.n];
        for (i, &xi) in x.iter().enumerate() {
            for (c, yc) in y.iter_mut().enumerate() {
                if self.rows[i].get(c) {
                    *yc += xi;
                }
            }
        }
        y
    }
}

/// A ternary K×N matrix: separate +1 and −1 planes (mutually exclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryMatrix {
    /// Plane of +1 entries.
    pub plus: BinaryMatrix,
    /// Plane of −1 entries.
    pub minus: BinaryMatrix,
}

impl TernaryMatrix {
    /// Builds from a dense table of {-1, 0, +1}.
    ///
    /// # Panics
    ///
    /// Panics on ragged input or entries outside {-1, 0, 1}.
    #[must_use]
    pub fn from_rows(data: &[Vec<i8>]) -> Self {
        let k = data.len();
        let n = data[0].len();
        let mut plus = BinaryMatrix::zeros(k, n);
        let mut minus = BinaryMatrix::zeros(k, n);
        for (r, row) in data.iter().enumerate() {
            assert_eq!(row.len(), n, "ragged matrix");
            for (c, &v) in row.iter().enumerate() {
                match v {
                    1 => plus.set(r, c, true),
                    -1 => minus.set(r, c, true),
                    0 => {}
                    #[expect(
                        clippy::panic,
                        reason = "documented panic contract: from_rows requires entries in {-1, 0, 1}"
                    )]
                    other => panic!("ternary entry out of range: {other}"),
                }
            }
        }
        Self { plus, minus }
    }

    /// Random ternary matrix: each entry +1/−1 with probability
    /// `density/2` each.
    #[must_use]
    pub fn random(k: usize, n: usize, density: f64, rng: &mut impl Rng) -> Self {
        let mut plus = BinaryMatrix::zeros(k, n);
        let mut minus = BinaryMatrix::zeros(k, n);
        for r in 0..k {
            for c in 0..n {
                if rng.gen_bool(density) {
                    if rng.gen_bool(0.5) {
                        plus.set(r, c, true);
                    } else {
                        minus.set(r, c, true);
                    }
                }
            }
        }
        Self { plus, minus }
    }

    /// Inner dimension K.
    #[must_use]
    pub fn k(&self) -> usize {
        self.plus.k()
    }

    /// Output width N.
    #[must_use]
    pub fn n(&self) -> usize {
        self.plus.n()
    }

    /// Entry accessor (−1, 0 or +1).
    #[must_use]
    pub fn get(&self, k: usize, n: usize) -> i8 {
        match (self.plus.get(k, n), self.minus.get(k, n)) {
            (true, false) => 1,
            (false, true) => -1,
            (false, false) => 0,
            (true, true) => unreachable!("overlapping ternary planes"),
        }
    }

    /// Reference GEMV on the host.
    #[must_use]
    pub fn reference_gemv(&self, x: &[i64]) -> Vec<i64> {
        let p = self.plus.reference_gemv(x);
        let m = self.minus.reference_gemv(x);
        p.into_iter().zip(m).map(|(a, b)| a - b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn binary_roundtrip_and_reference() {
        let m = BinaryMatrix::from_rows(&[vec![true, false, true], vec![false, true, true]]);
        assert_eq!(m.k(), 2);
        assert_eq!(m.n(), 3);
        assert_eq!(m.reference_gemv(&[10, 1]), vec![10, 1, 11]);
    }

    #[test]
    fn ternary_reference() {
        let t = TernaryMatrix::from_rows(&[vec![1, -1, 0], vec![-1, 1, 1]]);
        assert_eq!(t.get(0, 0), 1);
        assert_eq!(t.get(0, 1), -1);
        assert_eq!(t.get(1, 2), 1);
        assert_eq!(t.reference_gemv(&[3, 5]), vec![3 - 5, -3 + 5, 5]);
    }

    #[test]
    fn random_density() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let m = BinaryMatrix::random(100, 100, 0.3, &mut rng);
        let ones: usize = (0..100).map(|k| m.mask(k).count_ones()).sum();
        let density = ones as f64 / 10_000.0;
        assert!((density - 0.3).abs() < 0.05, "density {density}");
    }

    #[test]
    #[should_panic(expected = "ternary entry")]
    fn ternary_rejects_out_of_range() {
        let _ = TernaryMatrix::from_rows(&[vec![2]]);
    }
}
