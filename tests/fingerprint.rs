//! Cross-crate properties of the structural fingerprint: relabeling
//! invariance across the whole generator zoo, and the cache-safety
//! property the service relies on — fingerprint-equal graphs produce
//! bit-identical analysis results.

use graphio::graph::generators::{
    bhk_hypercube, binary_reduction_tree, diamond_dag, erdos_renyi_dag, fft_butterfly,
    inner_product, layered_random_dag, naive_matmul, strassen_matmul,
};
use graphio::graph::{fingerprint, CompGraph, EdgeListGraph};
use graphio::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// One graph from every family at a random small size.
fn any_generated_graph() -> impl Strategy<Value = CompGraph> {
    (0usize..9, 0u64..1000).prop_map(|(which, seed)| match which {
        0 => fft_butterfly(1 + (seed as usize % 4)),
        1 => bhk_hypercube(1 + (seed as usize % 5)),
        2 => naive_matmul(1 + (seed as usize % 3)),
        3 => strassen_matmul(1 << (seed as usize % 3)),
        4 => inner_product(1 + (seed as usize % 8)),
        5 => diamond_dag(1 + (seed as usize % 5), 1 + (seed as usize / 7 % 5)),
        6 => binary_reduction_tree(seed as usize % 6),
        7 => erdos_renyi_dag(2 + (seed as usize % 24), 0.3, seed),
        _ => layered_random_dag(1 + (seed as usize % 3), 1 + (seed as usize % 5), 0.5, seed),
    })
}

/// Rebuilds `g` with vertex `v` renamed to `perm[v]`.
fn relabel(g: &CompGraph, perm: &[u32]) -> CompGraph {
    let el = g.to_edge_list();
    let mut ops = el.ops.clone();
    for (v, op) in el.ops.iter().enumerate() {
        ops[perm[v] as usize] = *op;
    }
    let edges = el
        .edges
        .iter()
        .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    CompGraph::try_from(EdgeListGraph { ops, edges }).unwrap()
}

/// A deterministic pseudo-random permutation of `0..n` from `seed`.
fn permutation(n: usize, mut seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        // SplitMix64 step.
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let j = (z ^ (z >> 31)) as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fingerprint_is_relabeling_invariant(g in any_generated_graph(), seed in 0u64..1000) {
        let h = relabel(&g, &permutation(g.n(), seed));
        prop_assert_eq!(fingerprint(&g), fingerprint(&h));
    }

    /// The service-cache safety property: among random DAGs, graphs that
    /// share a fingerprint get bit-identical Theorem 4/5 bounds — so
    /// serving a cached session keyed by fingerprint never serves wrong
    /// numbers. (Colliding fingerprints across genuinely different random
    /// DAGs would fail this loudly.)
    #[test]
    fn fingerprint_equal_implies_bound_equal(seed in 0u64..400) {
        let mut by_fp: HashMap<u128, (CompGraph, u64, u64)> = HashMap::new();
        for i in 0..12 {
            let s = seed * 31 + i;
            let g = erdos_renyi_dag(3 + (s as usize % 12), 0.4, s);
            let opts = BoundOptions::for_graph_size(g.n());
            let bits = |g: &CompGraph| {
                let an = OwnedAnalyzer::from_graph(g.clone());
                (
                    an.bound(4, &opts).map(|b| b.bound.to_bits()).unwrap_or(u64::MAX),
                    an.bound_original(4, &opts).map(|b| b.bound.to_bits()).unwrap_or(u64::MAX),
                )
            };
            let fp = fingerprint(&g).0;
            let (b4, b5) = bits(&g);
            if let Some((prev, p4, p5)) = by_fp.get(&fp) {
                prop_assert_eq!(*p4, b4, "fingerprint collision with different thm4: {:?} vs {:?}", prev.n(), g.n());
                prop_assert_eq!(*p5, b5, "fingerprint collision with different thm5");
            } else {
                by_fp.insert(fp, (g, b4, b5));
            }
        }
    }

    #[test]
    fn distinct_seeds_rarely_share_fingerprints(seed in 0u64..200) {
        // Sanity that the hash actually separates: two independent dense
        // random DAGs of the same size almost surely differ.
        let a = erdos_renyi_dag(20, 0.5, seed * 2 + 1);
        let b = erdos_renyi_dag(20, 0.5, seed * 2 + 2);
        if a.to_edge_list() != b.to_edge_list() {
            prop_assert_ne!(fingerprint(&a), fingerprint(&b));
        }
    }
}
