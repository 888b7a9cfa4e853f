//! From-scratch dense and sparse symmetric linear algebra for `graphio`.
//!
//! The spectral I/O lower bound of Jain & Zaharia (SPAA 2020) needs exactly
//! one numerical primitive: the `h` smallest eigenvalues of a (sparse,
//! symmetric, positive semi-definite) graph Laplacian. This crate provides
//! that primitive twice over, plus the supporting machinery:
//!
//! * [`DenseMatrix`] with a Householder-tridiagonalization + implicit-shift
//!   QL symmetric eigensolver ([`symeig`]) — exact O(n³) reference path used
//!   for small/medium graphs and as the test oracle.
//! * [`CsrMatrix`] sparse symmetric storage in one interleaved (SELL-8)
//!   layout, assembled row by row and read by a SIMD mat-vec, feeding a
//!   full-reorthogonalization, deflation-based
//!   Lanczos solver ([`lanczos`]) that recovers repeated
//!   eigenvalues with multiplicity — the O(h·n·nnz) path the paper's §6.5
//!   scalability claims rely on.
//! * Tridiagonal eigensolvers (implicit QL and Sturm-sequence bisection),
//!   power iteration, and random orthogonal matrices for the quadratic
//!   assignment (trace inequality) tests behind Theorem 4.
//! * [`stats`] counters that let callers prove work was (or wasn't)
//!   performed, and the process-global [`threads`] knob that the CLI's
//!   `--threads` sets (the min-cut sweep reads it; every kernel here is
//!   serial).
//!
//! Everything is implemented from first principles on `f64`; no BLAS/LAPACK.

pub mod csr;
pub mod dense;
pub mod error;
pub mod householder;
pub mod lanczos;
pub mod linop;
pub mod orthogonal;
pub mod power;
pub mod simd;
pub mod stats;
pub mod symeig;
pub mod threads;
pub mod tridiag;
pub mod vecops;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use lanczos::{smallest_eigenvalues, LanczosOptions, LanczosResult};
pub use linop::{LinOp, ShiftedNegated};
pub use orthogonal::random_orthogonal;
pub use power::{power_iteration, PowerResult};
pub use simd::SimdPolicy;
pub use symeig::{eigenvalues_symmetric, eigenvalues_symmetric_in_place, eigh};
pub use threads::set_threads;
pub use tridiag::{tridiagonal_eigenvalues, tridiagonal_eigenvalues_bisect};

/// The vertex count above which a served analysis runs no eigensolve
/// (its spectral bounds are served as `null`) and the min-cut baseline
/// switches to its capped 4-vertex sample. It lives here, below both the
/// spectral and the baselines crates, so the two switch at the same `n`.
pub const HUGE_CUTOFF: usize = 100_000;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
