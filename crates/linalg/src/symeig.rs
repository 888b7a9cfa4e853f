//! Dense symmetric eigensolver: Householder tridiagonalization followed by
//! implicit-shift QL. This is the exact O(n³) reference path for the
//! spectral I/O bound and the oracle against which Lanczos is tested.

use crate::dense::DenseMatrix;
use crate::householder::tridiagonalize_in_place;
use crate::tridiag::tql_in_place;
use crate::Result;

/// Relative symmetry tolerance applied before factorizing.
const SYMMETRY_TOL: f64 = 1e-9;

fn symmetry_scale(a: &DenseMatrix) -> f64 {
    1.0 + a.data().iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// All eigenvalues of a symmetric matrix, sorted ascending. Factorizes a
/// copy of `a` with [`eigenvalues_symmetric_in_place`].
///
/// # Errors
/// Returns an error if `a` is not square/symmetric or the QL iteration
/// fails to converge.
pub fn eigenvalues_symmetric(a: &DenseMatrix) -> Result<Vec<f64>> {
    eigenvalues_symmetric_in_place(&mut a.clone())
}

/// All eigenvalues of a symmetric matrix, sorted ascending, factorizing
/// `a` itself, whose contents are destroyed once it passes the symmetry
/// check. For a matrix built only to be solved, this saves
/// [`eigenvalues_symmetric`]'s `n²` copy.
///
/// # Errors
/// Same failure modes as [`eigenvalues_symmetric`]; a matrix that is not
/// square/symmetric is left untouched.
pub fn eigenvalues_symmetric_in_place(a: &mut DenseMatrix) -> Result<Vec<f64>> {
    let _span = graphio_obs::span!("dense_eig");
    a.require_symmetric(SYMMETRY_TOL * symmetry_scale(a))?;
    crate::stats::record_dense_eigensolve();
    let mut t = tridiagonalize_in_place(a, false);
    tql_in_place(&mut t.d, &mut t.e, None)?;
    Ok(t.d)
}

/// Full symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
///
/// Returns eigenvalues ascending and the orthogonal matrix `V` whose
/// *columns* are the matching eigenvectors.
///
/// # Errors
/// Same failure modes as [`eigenvalues_symmetric`].
pub fn eigh(a: &DenseMatrix) -> Result<(Vec<f64>, DenseMatrix)> {
    let _span = graphio_obs::span!("dense_eig");
    a.require_symmetric(SYMMETRY_TOL * symmetry_scale(a))?;
    crate::stats::record_dense_eigensolve();
    let mut q = a.clone();
    let mut t = tridiagonalize_in_place(&mut q, true);
    tql_in_place(&mut t.d, &mut t.e, Some(&mut q))?;
    Ok((t.d, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_graph_laplacian(n: usize) -> DenseMatrix {
        let mut l = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                l[(i, j)] = if i == j { (n - 1) as f64 } else { -1.0 };
            }
        }
        l
    }

    fn cycle_graph_laplacian(n: usize) -> DenseMatrix {
        let mut l = DenseMatrix::zeros(n, n);
        for i in 0..n {
            l[(i, i)] = 2.0;
            l[(i, (i + 1) % n)] = -1.0;
            l[((i + 1) % n, i)] = -1.0;
        }
        l
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n Laplacian: eigenvalue 0 once, n with multiplicity n-1.
        for n in [2usize, 3, 5, 9] {
            let vals = eigenvalues_symmetric(&complete_graph_laplacian(n)).unwrap();
            assert!(vals[0].abs() < 1e-10);
            for v in &vals[1..] {
                assert!((v - n as f64).abs() < 1e-9, "n={n}: {v}");
            }
        }
    }

    #[test]
    fn cycle_graph_spectrum() {
        // C_n: 2 - 2 cos(2 pi j / n), j = 0..n-1.
        let n = 12;
        let vals = eigenvalues_symmetric(&cycle_graph_laplacian(n)).unwrap();
        let mut expect: Vec<f64> = (0..n)
            .map(|j| 2.0 - 2.0 * (2.0 * std::f64::consts::PI * j as f64 / n as f64).cos())
            .collect();
        expect.sort_by(f64::total_cmp);
        for (v, x) in vals.iter().zip(expect.iter()) {
            assert!((v - x).abs() < 1e-9);
        }
    }

    #[test]
    fn eigh_reconstructs_matrix() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ]);
        let (vals, v) = eigh(&a).unwrap();
        // V diag(vals) Vᵀ == A
        let n = a.nrows();
        let mut lam = DenseMatrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = vals[i];
        }
        let rec = v.matmul(&lam).unwrap().matmul(&v.transpose()).unwrap();
        assert!(rec.max_abs_diff(&a) < 1e-10);
        // V orthogonal.
        let vtv = v.transpose().matmul(&v).unwrap();
        assert!(vtv.max_abs_diff(&DenseMatrix::identity(n)) < 1e-10);
        // Ascending.
        for i in 1..n {
            assert!(vals[i] >= vals[i - 1]);
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.5, 0.0], &[0.5, -2.0, 0.25], &[0.0, 0.25, 3.0]]);
        let vals = eigenvalues_symmetric(&a).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(eigenvalues_symmetric(&a).is_err());
        assert!(eigh(&a).is_err());
    }

    #[test]
    fn handles_diagonal_and_zero_matrices() {
        let mut d = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            d[(i, i)] = (4 - i) as f64;
        }
        let vals = eigenvalues_symmetric(&d).unwrap();
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
        let z = DenseMatrix::zeros(3, 3);
        let vals = eigenvalues_symmetric(&z).unwrap();
        assert_eq!(vals, vec![0.0; 3]);
    }
}
