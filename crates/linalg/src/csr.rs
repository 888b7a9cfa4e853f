//! Compressed sparse row (CSR) storage for symmetric matrices.
//!
//! Graph Laplacians are sparse (`nnz = n + 2|E|`), so the Lanczos path
//! operates on CSR.
//!
//! Laplacian rows are a handful of scattered entries — too short for
//! in-row SIMD lanes to pay — so alongside the CSR arrays the matrix
//! stores an interleaved (SELL-style) mirror: rows grouped in blocks of
//! [`crate::simd::SELL_ROWS`] = 8, each block padded to its longest row
//! and stored step-major, so one vector register sums 8 rows at once with
//! every row accumulating left to right in column order. The scalar
//! fallback walks the same layout, so mat-vec results are bit-identical
//! across SIMD on/off.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::Result;

/// A square sparse matrix in CSR format.
///
/// The structure does not enforce symmetry, but all producers in `graphio`
/// build symmetric matrices and [`CsrMatrix::is_symmetric`] lets tests
/// verify it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Interleaved-block step offsets: block `b` (rows `b*8 .. b*8+8`)
    /// owns steps `sell_ptr[b] .. sell_ptr[b+1]`; step `s` stores 8
    /// columns at `sell_cols[s*8..]` and 8 values at `sell_vals[s*8..]`
    /// (lane = row within the block, short rows padded with
    /// `(0, 0.0)`).
    sell_ptr: Vec<usize>,
    sell_cols: Vec<u32>,
    sell_vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds an `n × n` matrix from `(row, col, value)` triplets.
    /// Duplicate coordinates are summed; explicit zeros are dropped.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if an index is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= n || c >= n {
                return Err(LinalgError::InvalidInput(format!(
                    "triplet ({r},{c}) out of range for n={n}"
                )));
            }
        }
        // Counting sort by row, then sort each row's slice by column and
        // accumulate duplicates.
        let mut counts = vec![0usize; n + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let slot = cursor[r];
            cols[slot] = c as u32;
            vals[slot] = v;
            cursor[r] += 1;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut out_cols: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..n {
            scratch.clear();
            scratch.extend(
                cols[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(vals[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut acc = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    acc += scratch[i].1;
                    i += 1;
                }
                if acc != 0.0 {
                    out_cols.push(c);
                    out_vals.push(acc);
                }
            }
            row_ptr.push(out_cols.len());
        }
        let (sell_ptr, sell_cols, sell_vals) = build_sell(n, &row_ptr, &out_cols, &out_vals);
        Ok(CsrMatrix {
            n,
            row_ptr,
            col_idx: out_cols,
            values: out_vals,
            sell_ptr,
            sell_cols,
            sell_vals,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(columns, values)` of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Entry `(i, j)`, or `0.0` if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Resolves the SIMD route once per mat-vec: the AVX2 row kernel
    /// gathers through `i32` indices, so matrices wider than `i32::MAX`
    /// columns fall back to the (bit-identical) scalar body.
    fn matvec_route(&self) -> crate::simd::Route {
        if self.n > i32::MAX as usize {
            crate::stats::record_scalar_fallback();
            return crate::simd::Route::Scalar;
        }
        crate::simd::route(self.nnz())
    }

    /// Mat-vec `y = A x` from the interleaved mirror. Every row
    /// accumulates left to right in column order under every SIMD route,
    /// so the result is bit-identical for every SIMD policy (see
    /// `simd::sell_matvec_routed`).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length mismatch");
        assert_eq!(y.len(), self.n, "matvec: y length mismatch");
        let _span = graphio_obs::span!("matvec");
        crate::stats::record_sparse_matvec();
        crate::simd::sell_matvec_routed(
            self.matvec_route(),
            &self.sell_ptr,
            &self.sell_cols,
            &self.sell_vals,
            x,
            y,
        );
    }

    /// Upper bound on the largest eigenvalue by the Gershgorin circle
    /// theorem: `max_i Σ_j |a_ij| + a_ii - |a_ii|` simplifies to
    /// `max_i (a_ii + Σ_{j≠i} |a_ij|)` for real symmetric matrices.
    pub fn gershgorin_upper_bound(&self) -> f64 {
        let mut bound = 0.0f64;
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            let mut center = 0.0;
            let mut radius = 0.0;
            for (c, v) in cols.iter().zip(vals.iter()) {
                if *c as usize == i {
                    center = *v;
                } else {
                    radius += v.abs();
                }
            }
            bound = bound.max(center + radius);
        }
        bound
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Exact symmetry check (structural and numerical, up to `tol`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals.iter()) {
                if (self.get(*c as usize, i) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Dense copy (test/diagnostic use; O(n²) memory).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals.iter()) {
                m[(i, *c as usize)] += v;
            }
        }
        m
    }

    /// Quadratic form `xᵀ A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n, "quadratic_form: x length mismatch");
        let mut acc = 0.0;
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            let mut row_dot = 0.0;
            for (c, v) in cols.iter().zip(vals.iter()) {
                row_dot += v * x[*c as usize];
            }
            acc += x[i] * row_dot;
        }
        acc
    }
}

/// Builds the interleaved (SELL-style) mirror of a CSR layout: rows
/// grouped in blocks of [`crate::simd::SELL_ROWS`], each block padded to
/// its longest row and stored step-major. Padding entries are
/// `(col 0, value 0.0)` — their products contribute exact zeros that the
/// scalar twin replays identically.
fn build_sell(
    n: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    const C: usize = crate::simd::SELL_ROWS;
    let nblocks = n.div_ceil(C);
    let mut sell_ptr = Vec::with_capacity(nblocks + 1);
    sell_ptr.push(0usize);
    let mut total = 0usize;
    for b in 0..nblocks {
        let steps = (b * C..n.min(b * C + C))
            .map(|r| row_ptr[r + 1] - row_ptr[r])
            .max()
            .unwrap_or(0);
        total += steps;
        sell_ptr.push(total);
    }
    let mut sell_cols = vec![0u32; total * C];
    let mut sell_vals = vec![0.0f64; total * C];
    for (b, &block_start) in sell_ptr[..nblocks].iter().enumerate() {
        let base = block_start * C;
        for (lane, r) in (b * C..n.min(b * C + C)).enumerate() {
            let (start, end) = (row_ptr[r], row_ptr[r + 1]);
            for (k, j) in (start..end).enumerate() {
                sell_cols[base + k * C + lane] = col_idx[j];
                sell_vals[base + k * C + lane] = values[j];
            }
        }
    }
    (sell_ptr, sell_cols, sell_vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        CsrMatrix::from_triplets(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sorts_and_accumulates() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (0, 0, 5.0), (0, 1, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn explicit_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (0, 1, -1.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            CsrMatrix::from_triplets(2, &[(2, 0, 1.0)]),
            Err(LinalgError::InvalidInput(_))
        ));
    }

    #[test]
    fn matvec_matches_dense() {
        let m = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.matvec(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
        let mut y2 = [0.0; 3];
        m.to_dense().matvec(&x, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn matvec_simd_on_off_bit_identical_on_random_csr() {
        // Random CSR matrices across sizes that exercise partial final
        // interleaved blocks, empty rows, and mixed row lengths; the
        // full dispatch path (policy knob included) must produce the
        // same bits with SIMD on and off. xorshift keeps it seeded.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let before = crate::simd::policy();
        for n in [1usize, 5, 8, 27, 64, 331] {
            let mut trips = Vec::new();
            for i in 0..n {
                let deg = (rng() % 7) as usize; // 0..=6, some rows empty
                for _ in 0..deg {
                    let j = (rng() % n as u64) as usize;
                    let v = ((rng() % 2000) as f64 - 1000.0) / 997.0;
                    trips.push((i, j, v));
                }
            }
            let m = CsrMatrix::from_triplets(n, &trips).unwrap();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut y_off = vec![0.0; n];
            crate::simd::set_policy(crate::SimdPolicy::Off);
            m.matvec(&x, &mut y_off);
            crate::simd::set_policy(crate::SimdPolicy::Strict);
            let mut y = vec![0.0; n];
            m.matvec(&x, &mut y);
            assert_eq!(y_off, y, "n={n}");
        }
        crate::simd::set_policy(before);
    }

    #[test]
    fn matvec_ticks_the_stats_counter() {
        let m = small();
        let before = crate::stats::sparse_matvec_count();
        let mut y = [0.0; 3];
        m.matvec(&[1.0, 0.0, 0.0], &mut y);
        assert!(crate::stats::sparse_matvec_count() > before);
    }

    #[test]
    fn gershgorin_bounds_largest_eigenvalue() {
        let m = small();
        // Path Laplacian-like matrix: largest eigenvalue 2 + sqrt(2) < 4.
        assert_eq!(m.gershgorin_upper_bound(), 4.0);
        let vals = crate::symeig::eigenvalues_symmetric(&m.to_dense()).unwrap();
        assert!(vals[2] <= m.gershgorin_upper_bound() + 1e-12);
    }

    #[test]
    fn symmetry_detection() {
        assert!(small().is_symmetric(0.0));
        let asym = CsrMatrix::from_triplets(2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn quadratic_form_matches_dense() {
        let m = small();
        let x = [1.0, -1.0, 0.5];
        assert!((m.quadratic_form(&x) - m.to_dense().quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn trace_of_small() {
        assert_eq!(small().trace(), 6.0);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_triplets(0, &[]).unwrap();
        assert_eq!(m.dim(), 0);
        assert_eq!(m.nnz(), 0);
        let mut y: [f64; 0] = [];
        m.matvec(&[], &mut y);
    }
}
