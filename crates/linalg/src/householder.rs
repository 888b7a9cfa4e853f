//! Householder reduction of a symmetric matrix to tridiagonal form.
//!
//! This is a 0-indexed port of the classical EISPACK `tred2` algorithm
//! (as presented in *Numerical Recipes*). Combined with the implicit-shift
//! QL iteration in [`crate::tridiag`] it yields the dense O(n³) symmetric
//! eigensolver used as the exact reference path for spectral bounds.
//!
//! The two O(l²) panel phases of each reflector — the symmetric
//! matrix–vector product `p = A·u/h` and the rank-2 update
//! `A ← A − u·qᵀ − q·uᵀ` — run on the SIMD kernels, row-wise and unit
//! stride. Both compute every output element with the same in-order
//! reduction as the classical formulation.

use crate::dense::DenseMatrix;

/// Output of [`tridiagonalize_in_place`].
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of the tridiagonal matrix `T` (length `n`).
    pub d: Vec<f64>,
    /// Sub-diagonal of `T`: `e[i]` couples rows `i-1` and `i`; `e[0] = 0`.
    pub e: Vec<f64>,
}

/// Reduces the symmetric matrix `a` to tridiagonal form in place.
///
/// If `accumulate_q` is `true`, on return `a` holds the orthogonal matrix
/// `Q` with `QᵀAQ = T`; the QL iteration can then rotate `Q`'s columns into
/// the eigenvectors of the original matrix. If `false`, the contents of `a`
/// are destroyed (only the spectral data is preserved), which roughly halves
/// the work — the right choice when only eigenvalues are needed for a bound.
///
/// The caller is responsible for `a` being square and symmetric; this is
/// checked by the public drivers in [`crate::symeig`].
pub fn tridiagonalize_in_place(a: &mut DenseMatrix, accumulate_q: bool) -> Tridiagonal {
    let n = a.nrows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    if n == 0 {
        return Tridiagonal { d, e };
    }
    // Scratch copy of the current reflector (row i of `a`), so the panel
    // kernels can borrow the matrix without aliasing it.
    let mut u = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += a[(i, k)].abs();
            }
            if scale == 0.0 {
                // Row already tridiagonal at this step.
                e[i] = a[(i, l)];
            } else {
                for k in 0..=l {
                    a[(i, k)] /= scale;
                    h += a[(i, k)] * a[(i, k)];
                }
                let mut f = a[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[(i, l)] = f - g;
                u[..=l].copy_from_slice(&a.row(i)[..=l]);
                // Panel phase 1: e[j] = (A u)[j] / h over the lower triangle.
                lower_sym_matvec(a, l, &u[..=l], &mut e[..=l], h);
                if accumulate_q {
                    for j in 0..=l {
                        a[(j, i)] = a[(i, j)] / h;
                    }
                }
                f = crate::vecops::dot(&e[..=l], &u[..=l]);
                let hh = f / (h + h);
                for j in 0..=l {
                    e[j] -= hh * u[j];
                }
                // Panel phase 2: A[0..=l, 0..=l] -= u eᵀ + e uᵀ (lower part).
                rank2_update_lower(a, l, &u[..=l], &e[..=l]);
            }
        } else {
            e[i] = a[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;

    if accumulate_q {
        // Accumulate the product of the Householder reflectors into `a`.
        for i in 0..n {
            if i > 0 && d[i] != 0.0 {
                for j in 0..i {
                    let mut g = 0.0;
                    for k in 0..i {
                        g += a[(i, k)] * a[(k, j)];
                    }
                    for k in 0..i {
                        let delta = g * a[(k, i)];
                        a[(k, j)] -= delta;
                    }
                }
            }
            d[i] = a[(i, i)];
            a[(i, i)] = 1.0;
            if i > 0 {
                for j in 0..i {
                    a[(j, i)] = 0.0;
                    a[(i, j)] = 0.0;
                }
            }
        }
    } else {
        for (i, di) in d.iter_mut().enumerate() {
            *di = a[(i, i)];
        }
    }

    Tridiagonal { d, e }
}

/// Fills `out[j] = (Σ_{k≤j} a[j][k]·u[k] + Σ_{j<k≤l} a[k][j]·u[k]) / h`
/// for `j ∈ 0..=l` — the symmetric mat-vec over the packed lower triangle.
///
/// Cache blocking: the classical formulation walks column `j` of the
/// lower triangle for the second sum — an `n`-strided sweep that goes
/// memory-bound around `n ≈ 1000`. Instead, all outputs first take their
/// row dots (`k ≤ j`, unit stride), then accumulate the column
/// contributions row-wise: for `k` ascending, `out[j] += a[k][j]·u[k]`
/// over `j < k` at once — a unit-stride `axpy` on `a.row(k)`. Per element
/// the additions land in exactly the classical order (row dot first,
/// then `k` ascending); both phases run on the SIMD kernels, whose
/// `Strict` shape is bit-identical to the scalar bodies.
fn lower_sym_matvec(a: &DenseMatrix, l: usize, u: &[f64], out: &mut [f64], h: f64) {
    let route = crate::simd::route(l + 1);
    for (j, g_out) in out.iter_mut().enumerate() {
        *g_out = crate::vecops::dot(&a.row(j)[..=j], &u[..=j]);
    }
    for (k, &u_k) in u.iter().enumerate().skip(1) {
        crate::simd::axpy_routed(route, u_k, &a.row(k)[..k], &mut out[..k]);
    }
    for g_out in out.iter_mut() {
        *g_out /= h;
    }
}

/// Applies the symmetric rank-2 update `a[j][k] -= u[j]·e[k] + e[j]·u[k]`
/// for `k ≤ j ≤ l` (lower triangle only, as the classical algorithm does).
fn rank2_update_lower(a: &mut DenseMatrix, l: usize, u: &[f64], e: &[f64]) {
    let cols = a.ncols();
    let rows = l + 1;
    let route = crate::simd::route(rows);
    for (j, row) in a.data_mut()[..rows * cols].chunks_mut(cols).enumerate() {
        crate::simd::rank2_row_routed(route, &mut row[..=j], u[j], e[j], e, u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct_from_q_and_t(q: &DenseMatrix, t: &Tridiagonal) -> DenseMatrix {
        let n = q.nrows();
        let mut tm = DenseMatrix::zeros(n, n);
        for i in 0..n {
            tm[(i, i)] = t.d[i];
            if i > 0 {
                tm[(i, i - 1)] = t.e[i];
                tm[(i - 1, i)] = t.e[i];
            }
        }
        // A = Q T Qᵀ
        q.matmul(&tm).unwrap().matmul(&q.transpose()).unwrap()
    }

    #[test]
    fn already_tridiagonal_is_preserved() {
        // Path-graph Laplacian is already tridiagonal.
        let a = DenseMatrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        let mut work = a.clone();
        let t = tridiagonalize_in_place(&mut work, false);
        assert_eq!(t.d, vec![1.0, 2.0, 1.0]);
        assert_eq!(t.e[1].abs(), 1.0);
        assert_eq!(t.e[2].abs(), 1.0);
    }

    #[test]
    fn q_t_qt_reconstructs_original() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ]);
        let mut q = a.clone();
        let t = tridiagonalize_in_place(&mut q, true);
        // Q must be orthogonal.
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.max_abs_diff(&DenseMatrix::identity(4)) < 1e-12);
        let rec = reconstruct_from_q_and_t(&q, &t);
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn trace_is_preserved() {
        let a = DenseMatrix::from_rows(&[&[2.0, -1.0, 0.5], &[-1.0, 3.0, -1.0], &[0.5, -1.0, 4.0]]);
        let mut work = a.clone();
        let t = tridiagonalize_in_place(&mut work, false);
        let sum: f64 = t.d.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-12);
    }

    #[test]
    fn small_sizes() {
        let mut a0 = DenseMatrix::zeros(0, 0);
        let t0 = tridiagonalize_in_place(&mut a0, false);
        assert!(t0.d.is_empty());

        let mut a1 = DenseMatrix::from_rows(&[&[7.0]]);
        let t1 = tridiagonalize_in_place(&mut a1, false);
        assert_eq!(t1.d, vec![7.0]);

        let mut a2 = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        let t2 = tridiagonalize_in_place(&mut a2, false);
        assert_eq!(t2.d, vec![1.0, 5.0]);
        assert_eq!(t2.e[1], 2.0);
    }
}
