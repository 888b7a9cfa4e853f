//! Timing probe for the Lanczos eigensolve on one generated graph.
//!
//! ```text
//! cargo run --release --example lanczos_timing -- <family> <size> [p] [seed]
//! cargo run --release --example lanczos_timing -- diamond 24
//! cargo run --release --example lanczos_timing -- er 1000 0.02 1
//! ```
//!
//! `<family>` is one of `fft`, `bhk`, `diamond`, `er`, `strassen` and
//! `matmul`, sized as `graphio generate` sizes them (`p` and `seed` apply
//! to `er` only; they default to 0.1 and 1). Runs the sparse-tier
//! eigensolver schedule (`BoundOptions::for_graph_size_in_tier`) on each
//! Laplacian, `L̃` then `L`, and prints the best wall-clock time of three
//! runs with the sweep, thick-restart and mat-vec counts, the largest
//! locked set a sweep deflated against, and how many sweeps ended early
//! because their Krylov space became numerically invariant. Up to
//! n = 4096 it also prints the best of three dense-tier solves of the same
//! Laplacian, the crossover the tier cutoff is set against.

use graphio::linalg::lanczos;
use graphio::prelude::*;
use graphio::spectral::bound::smallest_eigenvalues;
use graphio::spectral::laplacian::{normalized_laplacian, unnormalized_laplacian};
use std::time::Instant;

/// Largest `n` whose dense solve is timed beside the Lanczos one.
const DENSE_PROBE_MAX_N: usize = 4096;

/// The best wall-clock seconds of three runs of `solve`, and its last
/// result.
fn best_of_3<T>(mut solve: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(solve());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("three runs"))
}

const USAGE: &str = "usage: lanczos_timing <fft|bhk|diamond|er|strassen|matmul> <size> [p] [seed]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (family, size) = match args.as_slice() {
        [family, size, ..] => (family.as_str(), size.parse().expect(USAGE)),
        _ => panic!("{USAGE}"),
    };
    let p: f64 = args.get(2).map_or(0.1, |s| s.parse().expect(USAGE));
    let seed: u64 = args.get(3).map_or(1, |s| s.parse().expect(USAGE));
    let g = match family {
        "fft" => fft_butterfly(size),
        "bhk" => bhk_hypercube(size),
        "diamond" => diamond_dag(size, size),
        "er" => erdos_renyi_dag(size, p, seed),
        "strassen" => strassen_matmul(size),
        "matmul" => naive_matmul(size),
        _ => panic!("{USAGE}"),
    };
    // Pin the sparse tier, so this probe times the deflated Lanczos
    // solver at every size.
    let opts = BoundOptions::for_graph_size_in_tier(g.n(), ScaleTier::Sparse);
    let EigenMethod::Lanczos(lopts) = opts.method else {
        unreachable!("the sparse tier always runs Lanczos");
    };
    let h = opts.h;
    println!("{family}({size}): n = {}, h = {h}", g.n());
    for (name, lap) in [
        ("L~", normalized_laplacian(&g)),
        ("L ", unnormalized_laplacian(&g)),
    ] {
        let (wall, r) = best_of_3(|| {
            lanczos::smallest_eigenvalues(&lap, h, &lopts).expect("lanczos converges")
        });
        println!(
            "{name} {wall:8.3}s  ({} sweeps, {} restarts, {} ended at invariance, {} matvecs, \
             peak locked {}, lambda_2 = {:.6})",
            r.sweeps, r.restarts, r.invariant_stops, r.matvecs, r.peak_locked, r.values[1]
        );
        if g.n() <= DENSE_PROBE_MAX_N {
            let dense = BoundOptions::for_graph_size_in_tier(g.n(), ScaleTier::Dense);
            let (wall, _) = best_of_3(|| smallest_eigenvalues(&lap, &dense).expect("dense solve"));
            println!("{name} {wall:8.3}s  dense tier");
        }
    }
}
