//! Abstract symmetric linear operators.
//!
//! Lanczos only needs `y = A x`; abstracting over the representation lets
//! the same solver run on dense matrices (tests), CSR Laplacians
//! (production), and spectral shifts thereof.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// A symmetric linear operator on `R^n`.
pub trait LinOp {
    /// Dimension `n` of the operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// An upper bound on the largest eigenvalue, if cheaply available.
    /// Used by shift-based transforms; defaults to `None`.
    fn eigen_upper_bound(&self) -> Option<f64> {
        None
    }
}

impl LinOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }

    fn eigen_upper_bound(&self) -> Option<f64> {
        Some(self.gershgorin_upper_bound())
    }
}

impl LinOp for DenseMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
}

/// The operator `σI − A`: maps the *smallest* eigenvalues of `A` to the
/// *largest* eigenvalues of the transformed operator, which is where plain
/// Lanczos converges fastest. Choosing `σ` at least `λ_max(A)` (e.g. the
/// Gershgorin bound) keeps the transform monotone and PSD.
pub struct ShiftedNegated<'a, A: LinOp + ?Sized> {
    inner: &'a A,
    sigma: f64,
}

impl<'a, A: LinOp + ?Sized> ShiftedNegated<'a, A> {
    /// Wraps `inner` as `σI − inner`.
    pub fn new(inner: &'a A, sigma: f64) -> Self {
        ShiftedNegated { inner, sigma }
    }

    /// The shift σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Maps an eigenvalue of the shifted operator back to the original:
    /// `λ(A) = σ − λ(σI − A)`.
    pub fn unshift(&self, transformed: f64) -> f64 {
        self.sigma - transformed
    }
}

impl<'a, A: LinOp + ?Sized> LinOp for ShiftedNegated<'a, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi = self.sigma * xi - *yi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_linop_applies() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let mut y = [0.0; 2];
        LinOp::apply(&a, &[1.0, 0.0], &mut y);
        assert_eq!(y, [2.0, 1.0]);
        assert_eq!(LinOp::dim(&a), 2);
    }

    #[test]
    fn csr_linop_applies() {
        let m = CsrMatrix::from_triplets(2, &[(0, 0, 3.0), (1, 1, 4.0)]).unwrap();
        let mut y = [0.0; 2];
        LinOp::apply(&m, &[1.0, 1.0], &mut y);
        assert_eq!(y, [3.0, 4.0]);
        assert_eq!(m.eigen_upper_bound(), Some(4.0));
    }

    #[test]
    fn shifted_negated_flips_spectrum() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 5.0]]);
        let s = ShiftedNegated::new(&a, 10.0);
        let mut y = [0.0; 2];
        s.apply(&[1.0, 1.0], &mut y);
        // (10 - 1) * 1, (10 - 5) * 1
        assert_eq!(y, [9.0, 5.0]);
        assert_eq!(s.unshift(9.0), 1.0);
        assert_eq!(s.unshift(5.0), 5.0);
    }
}
