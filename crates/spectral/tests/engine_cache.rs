//! Proves the engine's cache actually prevents recomputation, using the
//! process-global eigensolver work counters in `graphio_linalg::stats`.
//!
//! This file intentionally holds a single `#[test]`: the counters are
//! global, so no other test may run eigensolves in this process while the
//! deltas are being measured.

use graphio_graph::generators::fft_butterfly;
use graphio_linalg::stats::{dense_eigensolve_count, sparse_matvec_count};
use graphio_spectral::{BoundOptions, EigenMethod, LaplacianKind, OwnedAnalyzer};

#[test]
fn memory_sweep_runs_exactly_one_eigensolve_per_laplacian_kind() {
    // Forced Lanczos so the work unit is the sparse mat-vec counter.
    let an = OwnedAnalyzer::from_graph(fft_butterfly(6)); // n = 448
    let opts = BoundOptions {
        h: 24,
        method: EigenMethod::Lanczos(Default::default()),
        ..Default::default()
    };

    // Cold: the first Theorem 4 sweep over >= 3 memory sizes performs one
    // eigensolve (counter moves once, for the Normalized kind)...
    let before = sparse_matvec_count();
    let sweep = an.memory_sweep(&[2, 4, 8, 16], &opts).unwrap();
    assert_eq!(sweep.len(), 4);
    let after_first = sparse_matvec_count();
    assert!(
        after_first > before,
        "the first sweep must actually run the eigensolver"
    );
    assert_eq!(an.stats().spectrum_misses, 1);

    // ...and Theorem 5 adds exactly one more (the Unnormalized kind).
    let _ = an.bound_original(4, &opts).unwrap();
    let after_thm5 = sparse_matvec_count();
    assert!(after_thm5 > after_first);
    assert_eq!(an.stats().spectrum_misses, 2);

    // Warm: every further consumer — more memory sizes, Theorem 6 across
    // processor counts, repeats of Theorem 5 — is served from cache: the
    // mat-vec counter stays flat.
    let flat_before = sparse_matvec_count();
    let dense_before = dense_eigensolve_count();
    let _ = an.memory_sweep(&[2, 4, 8, 16, 32, 64], &opts).unwrap();
    for p in [1usize, 2, 4, 8] {
        let _ = an.parallel_bound(4, p, &opts).unwrap();
    }
    let _ = an.bound_original(16, &opts).unwrap();
    let _ = an.spectrum(LaplacianKind::Normalized, &opts).unwrap();
    assert_eq!(
        sparse_matvec_count(),
        flat_before,
        "cache hits must not re-run the eigensolver"
    );
    assert_eq!(dense_eigensolve_count(), dense_before);
    let stats = an.stats();
    assert_eq!(stats.spectrum_misses, 2, "{stats:?}");
    assert_eq!(stats.spectrum_hits, 6 + 4 + 1 + 1 + 3, "{stats:?}");

    // The dense path is cached just as well.
    let dense_opts = BoundOptions {
        h: 24,
        method: EigenMethod::Dense,
        ..Default::default()
    };
    let d0 = dense_eigensolve_count();
    let _ = an.memory_sweep(&[2, 4, 8], &dense_opts).unwrap();
    assert_eq!(dense_eigensolve_count(), d0 + 1);
    let _ = an.memory_sweep(&[2, 4, 8], &dense_opts).unwrap();
    assert_eq!(
        dense_eigensolve_count(),
        d0 + 1,
        "dense cache hits must not re-run the eigensolver"
    );
}
