//! Sparse symmetric matrices in one interleaved (SELL-8) layout.
//!
//! Graph Laplacians are sparse (`nnz ≤ n + 2|E|`), so the Lanczos path
//! runs on sparse mat-vecs. Laplacian rows are a handful of scattered
//! entries — too short for in-row SIMD lanes to pay — so rows are stored
//! interleaved: in blocks of [`crate::simd::SELL_ROWS`] = 8, each block
//! padded to its longest row with `(col 0, 0.0)` slots and stored
//! step-major, so one vector register sums 8 rows at once with every row
//! accumulating left to right in column order. The scalar fallback walks
//! the same layout, so mat-vec results are bit-identical across SIMD
//! on/off. No stored entry is zero, so a row ends at its first zero value.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::simd::SELL_ROWS;
use crate::Result;

/// A square sparse matrix in the interleaved layout above (the type keeps
/// the name of the compressed-row layout it is assembled from, row by row).
///
/// The structure does not enforce symmetry, but all producers in `graphio`
/// build symmetric matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    /// Stored entries, padding excluded.
    nnz: usize,
    /// Block `b` (rows `b*8 .. b*8+8`) owns steps `block_ptr[b] ..
    /// block_ptr[b+1]`; step `s` stores 8 columns at `cols[s*8..]` and 8
    /// values at `vals[s*8..]` (lane = row within the block).
    block_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds an `n × n` matrix from `(row, col, value)` triplets.
    /// Duplicate coordinates are summed; explicit zeros are dropped.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if an index is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self> {
        if let Some(&(r, c, _)) = triplets.iter().find(|&&(r, c, _)| r >= n || c >= n) {
            return Err(LinalgError::InvalidInput(format!(
                "triplet ({r},{c}) out of range for n={n}"
            )));
        }
        // A stable sort: each row keeps its triplets in input order.
        let mut by_row = triplets.to_vec();
        by_row.sort_by_key(|&(r, _, _)| r);
        let mut next = by_row.iter().peekable();
        Ok(Self::from_rows(n, |r, row| {
            while let Some(&(_, c, v)) = next.next_if(|t| t.0 == r) {
                row.push((c as u32, v));
            }
        }))
    }

    /// Builds an `n × n` matrix row by row: `fill(r, row)`, called for
    /// `r = 0..n` in order, pushes row `r`'s raw `(column, value)` entries
    /// (any order, repeats allowed) into the empty `row`. They are sorted
    /// by column (`sort_unstable_by_key`), each column's run is summed in
    /// the order the sort leaves it and zero sums are dropped, so a row's
    /// bits depend on the sequence `fill` pushes.
    ///
    /// # Panics
    /// Panics if a column is not below `n`.
    pub fn from_rows(n: usize, mut fill: impl FnMut(usize, &mut Vec<(u32, f64)>)) -> Self {
        let mut block_ptr = Vec::with_capacity(n.div_ceil(SELL_ROWS) + 1);
        block_ptr.push(0);
        let (mut cols, mut vals, mut nnz) = (Vec::new(), Vec::new(), 0);
        let mut rows = vec![Vec::new(); SELL_ROWS];
        for first in (0..n).step_by(SELL_ROWS) {
            let block = &mut rows[..SELL_ROWS.min(n - first)];
            for (lane, row) in block.iter_mut().enumerate() {
                row.clear();
                fill(first + lane, row);
                finalize_row(row, n);
                nnz += row.len();
            }
            let steps = block.iter().map(Vec::len).max().unwrap_or(0);
            let base = cols.len();
            cols.resize(base + steps * SELL_ROWS, 0);
            vals.resize(base + steps * SELL_ROWS, 0.0);
            for (lane, row) in block.iter().enumerate() {
                for (k, &(c, v)) in row.iter().enumerate() {
                    cols[base + k * SELL_ROWS + lane] = c;
                    vals[base + k * SELL_ROWS + lane] = v;
                }
            }
            block_ptr.push(block_ptr[block_ptr.len() - 1] + steps);
        }
        cols.shrink_to_fit();
        vals.shrink_to_fit();
        CsrMatrix {
            n,
            nnz,
            block_ptr,
            cols,
            vals,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries, padding excluded.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Heap bytes the matrix holds: the capacities of its three arrays,
    /// padding included.
    pub fn heap_bytes(&self) -> usize {
        self.block_ptr.capacity() * std::mem::size_of::<usize>()
            + self.cols.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }

    /// Row `r`'s stored `(column, value)` entries in column order; its
    /// first padding slot ends it.
    fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (b, lane) = (r / SELL_ROWS, r % SELL_ROWS);
        (self.block_ptr[b]..self.block_ptr[b + 1])
            .map(move |s| {
                let slot = s * SELL_ROWS + lane;
                (self.cols[slot] as usize, self.vals[slot])
            })
            .take_while(|&(_, v)| v != 0.0)
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

    /// Mat-vec `y = A x`. Every row accumulates left to right in column
    /// order under every SIMD route, so the result is bit-identical for
    /// every SIMD policy (see `simd::sell_matvec_routed`).
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
            &self.block_ptr,
            &self.cols,
            &self.vals,
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
            let mut center = 0.0;
            let mut radius = 0.0;
            for (c, v) in self.row(i) {
                if c == i {
                    center = v;
                } else {
                    radius += v.abs();
                }
            }
            bound = bound.max(center + radius);
        }
        bound
    }

    /// Dense copy (O(n²) memory): the dense-tier eigensolve's input and
    /// the tests' oracle.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for (c, v) in self.row(i) {
                m[(i, c)] += v;
            }
        }
        m
    }
}

/// Sorts a row's raw entries by column, sums each column's run in the
/// order the sort leaves it, and drops zero sums — in place.
fn finalize_row(row: &mut Vec<(u32, f64)>, n: usize) {
    row.sort_unstable_by_key(|&(c, _)| c);
    if let Some(&(c, _)) = row.last() {
        assert!((c as usize) < n, "column {c} out of range for n={n}");
    }
    let (mut kept, mut i) = (0, 0);
    while i < row.len() {
        let c = row[i].0;
        let mut acc = 0.0;
        while i < row.len() && row[i].0 == c {
            acc += row[i].1;
            i += 1;
        }
        if acc != 0.0 {
            row[kept] = (c, acc);
            kept += 1;
        }
    }
    row.truncate(kept);
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
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 5.0);
        assert_eq!(d[(0, 1)], 3.0);
        assert_eq!(d[(1, 1)], 0.0);
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
        // Random sparse matrices across sizes that exercise partial final
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
        assert!(small().to_dense().is_symmetric(0.0));
        let asym = CsrMatrix::from_triplets(2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.to_dense().is_symmetric(1e-12));
    }

    #[test]
    fn quadratic_form_matches_dense() {
        // `xᵀ (A x)` through the sparse mat-vec.
        let m = small();
        let x = [1.0, -1.0, 0.5];
        let mut ax = [0.0; 3];
        m.matvec(&x, &mut ax);
        let sparse: f64 = x.iter().zip(ax).map(|(a, b)| a * b).sum();
        assert!((sparse - m.to_dense().quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn trace_of_small() {
        assert_eq!(small().to_dense().trace(), 6.0);
    }

    /// Row 0 (one entry) is shorter than row 1 (three entries) in their
    /// block, so row 0's lane carries two `(col 0, 0.0)` padding slots —
    /// which must not overwrite its diagonal or add to its entries.
    #[test]
    fn padding_is_never_an_entry() {
        let m = CsrMatrix::from_triplets(
            3,
            &[
                (0, 0, 7.0),
                (1, 0, -1.0),
                (1, 1, 3.0),
                (1, 2, -1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.vals.len(), 3 * SELL_ROWS, "one block of three steps");
        // Row 0: 7 + 0; row 1: 3 + 2; row 2: 1 + 0. Reading row 0's
        // padding as its diagonal would give 5.
        assert_eq!(m.gershgorin_upper_bound(), 7.0);
        let d = m.to_dense();
        let expect: [[f64; 3]; 3] = [[7.0, 0.0, 0.0], [-1.0, 3.0, -1.0], [0.0, 0.0, 1.0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(d[(i, j)].to_bits(), v.to_bits(), "({i},{j})");
            }
        }
    }

    /// The matrix charges exactly the capacities of its three arrays.
    #[test]
    fn heap_bytes_are_the_array_capacities() {
        let m = small();
        // One block of 3 steps: 2 offsets, 24 columns, 24 values.
        assert_eq!(m.heap_bytes(), 2 * 8 + 24 * 4 + 24 * 8);
        let capacities = m.block_ptr.capacity() * 8 + m.cols.capacity() * 4 + m.vals.capacity() * 8;
        assert_eq!(m.heap_bytes(), capacities);
        assert_eq!(m.clone().heap_bytes(), capacities);
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
