//! One cached analysis session serving a whole memory sweep.
//!
//! ```text
//! cargo run --release --example memory_sweep
//! ```
//!
//! Demonstrates an `OwnedAnalyzer` session: each Laplacian spectrum is
//! computed once and every memory size, theorem variant and processor
//! count is served from the cache — the session reports its own
//! eigensolve count.

use graphio::prelude::*;

fn main() {
    // 10-city Bellman–Held–Karp, n = 1024.
    let analyzer = OwnedAnalyzer::from_graph(bhk_hypercube(10));
    let g = analyzer.graph();
    let opts = BoundOptions::for_graph_size(g.n());

    println!("BHK l=10: n = {}, edges = {}\n", g.n(), g.num_edges());
    println!(
        "{:>6} {:>12} {:>8} {:>12} {:>12}",
        "M", "thm4", "best_k", "thm5", "thm6(p=4)"
    );
    for m in [4usize, 8, 16, 32, 64] {
        let thm4 = analyzer.bound(m, &opts).expect("eigensolve");
        let thm5 = analyzer.bound_original(m, &opts).expect("eigensolve");
        let thm6 = analyzer.parallel_bound(m, 4, &opts).expect("eigensolve");
        println!(
            "{:>6} {:>12.1} {:>8} {:>12.1} {:>12.1}",
            m, thm4.bound, thm4.best_k, thm5.bound, thm6.bound
        );
    }

    let stats = analyzer.stats();
    println!(
        "\neigensolves: {} (one per Laplacian kind), cache hits: {}",
        stats.spectrum_misses, stats.spectrum_hits
    );
    assert_eq!(stats.spectrum_misses, 2);
}
