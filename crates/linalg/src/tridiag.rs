//! Eigensolvers for symmetric tridiagonal matrices.
//!
//! Two independent algorithms are provided:
//!
//! * [`tql_in_place`] / [`tridiagonal_eigenvalues`] — implicit-shift QL
//!   iteration (EISPACK `tql1`/`tql2` lineage), optionally rotating an
//!   orthogonal matrix to produce eigenvectors. Used by the dense solver and
//!   by Lanczos for Ritz values/vectors.
//! * [`tridiagonal_eigenvalues_bisect`] — Sturm-sequence bisection for the
//!   `k` smallest eigenvalues. Slower per eigenvalue but embarrassingly
//!   robust; kept both as a cross-check oracle in tests and as an ablation.
//!
//! Conventions: for a matrix of dimension `n`, `d` has length `n` and the
//! sub-diagonal `e` has length `n - 1`, with `e[i]` coupling rows `i` and
//! `i + 1`.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::vecops::pythag;
use crate::Result;

/// Maximum QL sweeps per eigenvalue before declaring failure.
const MAX_QL_ITERS: usize = 64;

/// Computes all eigenvalues (ascending) of the symmetric tridiagonal matrix
/// with diagonal `d` and sub-diagonal `e`.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] if `e.len() + 1 != d.len()`
/// (except for the empty matrix) and [`LinalgError::NoConvergence`] if the
/// QL iteration stalls (never observed on real symmetric input).
pub fn tridiagonal_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>> {
    if d.is_empty() {
        return Ok(Vec::new());
    }
    if e.len() + 1 != d.len() {
        return Err(LinalgError::DimensionMismatch {
            expected: d.len() - 1,
            actual: e.len(),
        });
    }
    let mut dd = d.to_vec();
    ql_iterate(&mut dd, e)?;
    dd.sort_by(f64::total_cmp);
    Ok(dd)
}

/// QL iteration with optional eigenvector accumulation.
///
/// `d` (length `n`) and `e` (length `n`, with `e[0]` ignored — the
/// tridiagonalization convention of [`crate::householder`]) are overwritten:
/// on success `d` holds the eigenvalues **sorted ascending**. If `z` is
/// provided it must be `n × n` (typically the `Q` from `tridiagonalize`,
/// or the identity); its columns are rotated into eigenvectors and permuted
/// consistently with the sort.
///
/// # Errors
/// Returns [`LinalgError::NoConvergence`] if a sub-problem exceeds the sweep
/// budget.
pub fn tql_in_place(d: &mut [f64], e: &mut [f64], z: Option<&mut DenseMatrix>) -> Result<()> {
    tql(d, e, z.map_or(Rotated::Nothing, Rotated::Matrix))
}

/// [`tql_in_place`] rotating one row of `z` instead of all of it: `row`
/// (length `n`) enters as a row of the starting matrix and leaves as that
/// row of the eigenvector matrix, with its entries permuted by the same
/// sort. QL rotates each row of `z` on its own, so the result equals the
/// full accumulation's row bit for bit, in `O(n²)` work instead of
/// `O(n³)`. A Lanczos stop check reads only the last row.
///
/// # Errors
/// As [`tql_in_place`].
pub fn tql_row_in_place(d: &mut [f64], e: &mut [f64], row: &mut [f64]) -> Result<()> {
    assert_eq!(
        row.len(),
        d.len(),
        "tql_row_in_place: row must have length n"
    );
    tql(d, e, Rotated::Row(row))
}

/// What a QL sweep rotates alongside the eigenvalues.
enum Rotated<'a> {
    /// Eigenvalues only.
    Nothing,
    /// Every row of `z`.
    Matrix(&'a mut DenseMatrix),
    /// One row of `z`.
    Row(&'a mut [f64]),
}

/// The shared body of [`tql_in_place`] and [`tql_row_in_place`].
fn tql(d: &mut [f64], e: &mut [f64], rotated: Rotated<'_>) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    assert_eq!(
        e.len(),
        n,
        "tql_in_place: e must have length n (e[0] unused)"
    );
    // Shift to the internal convention: e[i] couples i and i+1.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    ql_iterate_shifted(d, e, rotated)
}

/// Core QL on the `e[i] couples (i, i+1)` convention, plus final sort.
fn ql_iterate(d: &mut [f64], e: &[f64]) -> Result<()> {
    let n = d.len();
    let mut work = vec![0.0; n];
    work[..n - 1].copy_from_slice(e);
    ql_iterate_shifted(d, &mut work, Rotated::Nothing)
}

/// The QL sweep proper. Eigenvectors are accumulated in the *transpose*
/// of `z`: each Givens rotation then combines two contiguous rows instead
/// of walking two columns at a stride of `n`. Every element still gets
/// `s·a + c·b` / `c·a − s·b` in the same order, so the result is
/// bit-identical to rotating `z` in place — and to rotating one row's
/// elements alone.
fn ql_iterate_shifted(d: &mut [f64], e: &mut [f64], mut rotated: Rotated<'_>) -> Result<()> {
    let n = d.len();
    let mut zt = match &rotated {
        Rotated::Matrix(z) => Some(z.transpose()),
        _ => None,
    };
    let route = if zt.is_some() {
        crate::simd::route(n)
    } else {
        crate::simd::Route::Scalar
    };
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Look for a negligible off-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tridiagonal QL",
                    iterations: iter,
                });
            }
            // Form the implicit Wilkinson-like shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(zt) = zt.as_mut() {
                    let (head, rest) = zt.data_mut().split_at_mut((i + 1) * n);
                    crate::simd::rotate_rows_routed(
                        route,
                        s,
                        c,
                        &mut head[i * n..],
                        &mut rest[..n],
                    );
                } else if let Rotated::Row(row) = &mut rotated {
                    // The same rotation on this row's two elements.
                    let f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    if let (Rotated::Matrix(zm), Some(zt)) = (&mut rotated, zt) {
        **zm = zt.transpose();
    }
    sort_ascending(d, rotated);
    Ok(())
}

/// Sorts eigenvalues ascending, permuting eigenvector columns (or the
/// one row's entries) alongside.
fn sort_ascending(d: &mut [f64], rotated: Rotated<'_>) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    d.copy_from_slice(&sorted);
    match rotated {
        Rotated::Nothing => {}
        Rotated::Matrix(zm) => {
            let orig = zm.clone();
            for (new_col, &old_col) in order.iter().enumerate() {
                for k in 0..n {
                    zm[(k, new_col)] = orig[(k, old_col)];
                }
            }
        }
        Rotated::Row(row) => {
            let orig = row.to_vec();
            for (new_col, &old_col) in order.iter().enumerate() {
                row[new_col] = orig[old_col];
            }
        }
    }
}

/// Number of eigenvalues of the tridiagonal matrix strictly below `x`,
/// computed with a Sturm sequence.
///
/// `d.len() == n`, `e.len() == n - 1` (`e[i]` couples `i` and `i+1`).
pub fn count_eigenvalues_below(d: &[f64], e: &[f64], x: f64) -> usize {
    let n = d.len();
    if n == 0 {
        return 0;
    }
    debug_assert_eq!(e.len() + 1, n);
    let tiny = f64::MIN_POSITIVE / f64::EPSILON;
    let mut count = 0usize;
    let mut q = d[0] - x;
    if q < 0.0 {
        count += 1;
    }
    for i in 1..n {
        let denom = if q == 0.0 { tiny } else { q };
        q = d[i] - x - e[i - 1] * e[i - 1] / denom;
        if q < 0.0 {
            count += 1;
        }
    }
    count
}

/// The `k` smallest eigenvalues (ascending) of the symmetric tridiagonal
/// matrix, by Sturm-sequence bisection. Robust against clustering and
/// returns repeated eigenvalues with their multiplicities.
///
/// # Errors
/// Returns [`LinalgError::TooManyEigenvaluesRequested`] if `k > n` and
/// [`LinalgError::DimensionMismatch`] on inconsistent input lengths.
pub fn tridiagonal_eigenvalues_bisect(d: &[f64], e: &[f64], k: usize) -> Result<Vec<f64>> {
    let n = d.len();
    if k > n {
        return Err(LinalgError::TooManyEigenvaluesRequested {
            requested: k,
            dimension: n,
        });
    }
    if n == 0 || k == 0 {
        return Ok(Vec::new());
    }
    if e.len() + 1 != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n - 1,
            actual: e.len(),
        });
    }
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let mut r = 0.0;
        if i > 0 {
            r += e[i - 1].abs();
        }
        if i + 1 < n {
            r += e[i].abs();
        }
        lo = lo.min(d[i] - r);
        hi = hi.max(d[i] + r);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let tol = f64::EPSILON * span.max(1.0) * 4.0;

    let mut out = Vec::with_capacity(k);
    for j in 0..k {
        // Find the (j+1)-th smallest eigenvalue: the infimum of x with
        // count_below(x) >= j+1.
        let mut a = lo;
        let mut b = hi + span * f64::EPSILON + tol;
        while b - a > tol {
            let mid = 0.5 * (a + b);
            if count_eigenvalues_below(d, e, mid) > j {
                b = mid;
            } else {
                a = mid;
            }
        }
        out.push(0.5 * (a + b));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-weight path graph Laplacian on `n` vertices as (d, e):
    /// eigenvalues are 2 - 2 cos(pi j / n), j = 0..n-1.
    fn path_laplacian(n: usize) -> (Vec<f64>, Vec<f64>) {
        if n == 1 {
            return (vec![0.0], vec![]);
        }
        let mut d = vec![2.0; n];
        d[0] = 1.0;
        d[n - 1] = 1.0;
        let e = vec![-1.0; n - 1];
        (d, e)
    }

    fn path_eigenvalues(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| 2.0 - 2.0 * (std::f64::consts::PI * j as f64 / n as f64).cos())
            .collect()
    }

    #[test]
    fn ql_matches_path_closed_form() {
        for n in [1usize, 2, 3, 5, 8, 17, 40] {
            let (d, e) = path_laplacian(n);
            let vals = tridiagonal_eigenvalues(&d, &e).unwrap();
            let expect = path_eigenvalues(n);
            for (v, x) in vals.iter().zip(expect.iter()) {
                assert!((v - x).abs() < 1e-10, "n={n}: {v} vs {x}");
            }
        }
    }

    #[test]
    fn bisect_matches_ql() {
        let (d, e) = path_laplacian(23);
        let all = tridiagonal_eigenvalues(&d, &e).unwrap();
        let k = 7;
        let some = tridiagonal_eigenvalues_bisect(&d, &e, k).unwrap();
        for i in 0..k {
            assert!((some[i] - all[i]).abs() < 1e-9, "{} vs {}", some[i], all[i]);
        }
    }

    #[test]
    fn bisect_recovers_multiplicities() {
        // Diagonal matrix diag(1, 1, 1, 5): eigenvalue 1 with multiplicity 3.
        let d = vec![1.0, 1.0, 1.0, 5.0];
        let e = vec![0.0, 0.0, 0.0];
        let vals = tridiagonal_eigenvalues_bisect(&d, &e, 4).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
        assert!((vals[3] - 5.0).abs() < 1e-10);
    }

    #[test]
    fn sturm_count_is_monotone_and_exact() {
        let d = vec![0.0, 2.0, 2.0];
        let e = vec![0.0, 0.0];
        assert_eq!(count_eigenvalues_below(&d, &e, -0.5), 0);
        assert_eq!(count_eigenvalues_below(&d, &e, 0.5), 1);
        assert_eq!(count_eigenvalues_below(&d, &e, 3.0), 3);
    }

    #[test]
    fn eigenvectors_satisfy_t_v_eq_lambda_v() {
        let n = 6;
        let (d0, e0) = path_laplacian(n);
        let mut d = d0.clone();
        // tql_in_place expects the tridiagonalization convention (e[0] unused).
        let mut e = vec![0.0; n];
        e[1..n].copy_from_slice(&e0[..n - 1]);
        let mut z = DenseMatrix::identity(n);
        tql_in_place(&mut d, &mut e, Some(&mut z)).unwrap();
        // Check T v_i = lambda_i v_i for each column.
        for i in 0..n {
            for r in 0..n {
                let mut tv = d0[r] * z[(r, i)];
                if r > 0 {
                    tv += e0[r - 1] * z[(r - 1, i)];
                }
                if r + 1 < n {
                    tv += e0[r] * z[(r + 1, i)];
                }
                assert!(
                    (tv - d[i] * z[(r, i)]).abs() < 1e-9,
                    "residual too large at ({r},{i})"
                );
            }
        }
        // Ascending order.
        for i in 1..n {
            assert!(d[i] >= d[i - 1] - 1e-12);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(tridiagonal_eigenvalues(&[], &[]).unwrap().is_empty());
        let v = tridiagonal_eigenvalues(&[3.5], &[]).unwrap();
        assert_eq!(v, vec![3.5]);
        let b = tridiagonal_eigenvalues_bisect(&[3.5], &[], 1).unwrap();
        assert!((b[0] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn dimension_errors() {
        assert!(matches!(
            tridiagonal_eigenvalues(&[1.0, 2.0], &[]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            tridiagonal_eigenvalues_bisect(&[1.0], &[], 2),
            Err(LinalgError::TooManyEigenvaluesRequested { .. })
        ));
    }
}
