//! Timing probe for the Lanczos eigensolve on an FFT butterfly.
//!
//! ```text
//! cargo run --release --example lanczos_timing -- 12
//! ```
//!
//! Runs the sparse-tier eigensolver schedule
//! (`BoundOptions::for_graph_size_in_tier`) on `fft_butterfly(l)` once and
//! prints the wall-clock time with the sweep and mat-vec counts.

use graphio::linalg::lanczos;
use graphio::prelude::*;
use graphio::spectral::normalized_laplacian;
use std::time::Instant;

fn main() {
    let l: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let g = fft_butterfly(l);
    let lap = normalized_laplacian(&g);
    // Pin the sparse tier: this probe times the deflated Lanczos solver
    // even at sizes the Auto tier would hand to the single-sweep estimate.
    let opts = BoundOptions::for_graph_size_in_tier(g.n(), ScaleTier::Sparse);
    let (h, lopts) = match opts.method {
        EigenMethod::Lanczos(lo) => (opts.h, lo),
        _ => {
            eprintln!("graph too small for the Lanczos schedule; try l >= 10");
            std::process::exit(2);
        }
    };
    println!(
        "fft_butterfly({l}): n = {}, nnz = {}, h = {h}",
        g.n(),
        lap.nnz()
    );
    let t0 = Instant::now();
    let r = lanczos::smallest_eigenvalues(&lap, h, &lopts).expect("lanczos converges");
    println!(
        "{:8.2}s  ({} sweeps, {} matvecs, lambda_2 = {:.6})",
        t0.elapsed().as_secs_f64(),
        r.sweeps,
        r.matvecs,
        r.values[1]
    );
}
