//! The deflated Lanczos solver's sweep policy on the sparse tier's
//! schedule: a sweep ends once its Krylov space is numerically invariant,
//! and the locked set the sweeps deflate against stays at `h` (plus exact
//! ties at the h-th value) — without giving up any digit of the answer.
//!
//! `fft_butterfly(7)`'s normalized Laplacian (n = 1024, h = 48) is the
//! case that shows both: its first sweep reaches β ≈ 10⁻¹³ after 40 steps
//! with every Ritz pair converged, and a solver that kept every converged
//! vector ended with 88 of them and 768 mat-vecs.

use graphio::prelude::*;
use graphio::spectral::normalized_laplacian;
use graphio_linalg::{eigenvalues_symmetric, lanczos, LinOp};

fn fft7_solve() -> (graphio_linalg::CsrMatrix, usize, lanczos::LanczosResult) {
    let g = fft_butterfly(7);
    let opts = BoundOptions::for_graph_size(g.n());
    let EigenMethod::Lanczos(lopts) = opts.method else {
        panic!("fft(7) is on the Lanczos tier");
    };
    let lap = normalized_laplacian(&g);
    let r = lanczos::smallest_eigenvalues(&lap, opts.h, &lopts).unwrap();
    (lap, opts.h, r)
}

#[test]
fn locked_set_stays_at_h_and_sweeps_end_at_invariance() {
    let (_, h, r) = fft7_solve();
    assert_eq!(h, 48);
    // Eviction keeps every copy tied at the h-th value (unit-tested in
    // `graphio_linalg::lanczos`); on this operator the largest such tie
    // is three bit-identical copies, two of them beyond `h`.
    assert!(
        r.peak_locked <= h + 2,
        "the locked set reached {} vectors for h = {h}",
        r.peak_locked
    );
    assert!(
        r.invariant_stops >= r.sweeps / 2,
        "{} of {} sweeps ended at invariance",
        r.invariant_stops,
        r.sweeps
    );
}

#[test]
fn fft7_solve_uses_fewer_matvecs_and_matches_dense() {
    let (lap, h, r) = fft7_solve();
    assert!(r.matvecs <= 576, "{} mat-vecs", r.matvecs);
    let scale = lap.eigen_upper_bound().unwrap().max(1.0);
    let dense = eigenvalues_symmetric(&lap.to_dense()).unwrap();
    assert_eq!(r.values.len(), h);
    for (i, (got, want)) in r.values.iter().zip(&dense).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * scale,
            "λ_{i}: lanczos {got} vs dense {want}"
        );
    }
}
