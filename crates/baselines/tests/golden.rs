//! Golden values for the convex min-cut baseline.
//!
//! Every figure here was produced by the original per-vertex network
//! rebuild and must never change: the served `mincut` bytes, the store's
//! cached min-cut records and the capped flows past the huge cutoff all
//! depend on the exact per-vertex cuts, so any change to the flow
//! network's layout or to Dinic's phase structure has to reproduce them
//! bit for bit.

use graphio_baselines::convex_mincut::{
    convex_min_cut_bound, wavefront_cut, ConvexMinCutOptions, ConvexMinCutResult,
};
use graphio_graph::generators::{
    bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, naive_matmul,
};
use graphio_graph::CompGraph;

/// The memory every sweep below is bounded at.
const MEMORY: usize = 4;

fn sweep(g: &CompGraph) -> ConvexMinCutResult {
    convex_min_cut_bound(g, MEMORY, &ConvexMinCutOptions::for_graph_size(g.n()))
}

fn result(
    bound: u64,
    best_vertex: usize,
    max_cut: u64,
    vertices_evaluated: usize,
) -> ConvexMinCutResult {
    ConvexMinCutResult {
        bound,
        best_vertex,
        max_cut,
        vertices_evaluated,
    }
}

#[test]
fn full_sweeps_match_golden() {
    let cases: [(&str, CompGraph, ConvexMinCutResult); 7] = [
        ("fft(5)", fft_butterfly(5), result(0, 64, 4, 192)),
        ("fft(6)", fft_butterfly(6), result(8, 192, 8, 448)),
        ("bhk(8)", bhk_hypercube(8), result(56, 31, 32, 256)),
        (
            "diamond(12,12)",
            diamond_dag(12, 12),
            result(16, 11, 12, 144),
        ),
        ("matmul(4)", naive_matmul(4), result(0, 32, 3, 112)),
        (
            "er(60,1)",
            erdos_renyi_dag(60, 0.1, 1),
            result(48, 49, 28, 60),
        ),
        (
            "er(60,2)",
            erdos_renyi_dag(60, 0.1, 2),
            result(40, 40, 24, 60),
        ),
    ];
    for (name, g, want) in cases {
        assert_eq!(sweep(&g), want, "{name}");
    }
}

#[test]
fn sampled_sweep_matches_golden() {
    // n = 3,600: the deterministic 512-vertex sample.
    let g = diamond_dag(60, 60);
    assert_eq!(sweep(&g), result(112, 1298, 60, 512));
}

#[test]
fn huge_capped_sweep_matches_golden() {
    // n = 114,688: four sampled vertices, each flow capped at 32.
    let g = fft_butterfly(13);
    assert_eq!(sweep(&g), result(56, 56556, 32, 4));
}

#[test]
fn per_vertex_cuts_match_golden() {
    let fft4: [u64; 80] = [
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, //
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, //
        4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, //
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, //
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];
    let er40: [u64; 40] = [
        1, 1, 2, 1, 1, 2, 2, 2, 1, 5, 3, 4, 1, 3, 6, 10, 11, 9, 1, 10, //
        0, 7, 13, 1, 18, 7, 8, 5, 6, 4, 13, 0, 9, 7, 12, 7, 0, 0, 0, 0,
    ];
    for (name, g, want) in [
        ("fft(4)", fft_butterfly(4), &fft4[..]),
        ("er(40,7)", erdos_renyi_dag(40, 0.15, 7), &er40[..]),
    ] {
        let got: Vec<u64> = (0..g.n()).map(|v| wavefront_cut(&g, v)).collect();
        assert_eq!(got, want, "{name}");
    }
}
