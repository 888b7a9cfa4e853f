//! Global instrumentation counters.
//!
//! The spectral engine's cache tests need to prove a negative — "this call
//! did **not** re-run the eigensolver" — so the two eigensolver entry
//! points tick monotone process-global counters: every sparse mat-vec
//! (the unit of Lanczos work) and every dense eigensolve. The SIMD layer
//! ticks two more (kernel entries that dispatched to vector code, and
//! entries that wanted vector code but fell back to scalar), and the
//! spectral layer ticks one per non-dense eigensolve, so `/stats`
//! and tests can assert which path ran. Counters are never reset; callers
//! measure deltas. Reads and writes are `Relaxed`: the counters order
//! nothing, and a mat-vec costs orders of magnitude more than the
//! increment.

use std::sync::atomic::{AtomicU64, Ordering};

static SPARSE_MATVECS: AtomicU64 = AtomicU64::new(0);
static DENSE_EIGENSOLVES: AtomicU64 = AtomicU64::new(0);
static SIMD_KERNEL_CALLS: AtomicU64 = AtomicU64::new(0);
static SCALAR_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static SPARSE_EIGENSOLVES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_sparse_matvec() {
    SPARSE_MATVECS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_dense_eigensolve() {
    DENSE_EIGENSOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_simd_kernel_call() {
    SIMD_KERNEL_CALLS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_scalar_fallback() {
    SCALAR_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Records one deflated-Lanczos eigensolve (rather than the dense
/// path). Public because the tier dispatch lives a crate above
/// (`graphio_spectral::bound`); `/stats` serves the count as
/// `scale_tier_solves`.
pub fn record_sparse_eigensolve() {
    SPARSE_EIGENSOLVES.fetch_add(1, Ordering::Relaxed);
}

/// Total [`crate::CsrMatrix`] mat-vec applications so far in this process.
pub fn sparse_matvec_count() -> u64 {
    SPARSE_MATVECS.load(Ordering::Relaxed)
}

/// Total dense symmetric eigensolves so far in this process.
pub fn dense_eigensolve_count() -> u64 {
    DENSE_EIGENSOLVES.load(Ordering::Relaxed)
}

/// Total kernel entries that dispatched to SIMD code so far.
pub fn simd_kernel_call_count() -> u64 {
    SIMD_KERNEL_CALLS.load(Ordering::Relaxed)
}

/// Total kernel entries that wanted SIMD but ran scalar (feature not
/// detected at runtime, or an index-width guard tripped).
pub fn scalar_fallback_count() -> u64 {
    SCALAR_FALLBACKS.load(Ordering::Relaxed)
}

/// Total deflated-Lanczos eigensolves.
pub fn sparse_eigensolve_count() -> u64 {
    SPARSE_EIGENSOLVES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let before = sparse_matvec_count();
        record_sparse_matvec();
        record_sparse_matvec();
        assert!(sparse_matvec_count() >= before + 2);
        let before = dense_eigensolve_count();
        record_dense_eigensolve();
        assert!(dense_eigensolve_count() > before);
        let before = simd_kernel_call_count();
        record_simd_kernel_call();
        assert!(simd_kernel_call_count() > before);
        let before = scalar_fallback_count();
        record_scalar_fallback();
        assert!(scalar_fallback_count() > before);
        let before = sparse_eigensolve_count();
        record_sparse_eigensolve();
        assert!(sparse_eigensolve_count() > before);
    }
}
