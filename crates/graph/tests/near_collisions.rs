//! Fingerprint near-collision regressions: the store and the service
//! cache both trust the WL fingerprint as a content address, so the
//! most dangerous failure is two *almost*-identical graphs hashing
//! together — a stored session would then silently answer for the wrong
//! graph. This corpus takes every generator-zoo family and perturbs it
//! by exactly one edge, one parallel edge, or one operation label, and
//! asserts the fingerprint moves every time.

use graphio_graph::generators::{
    bhk_hypercube, binary_reduction_tree, diamond_dag, erdos_renyi_dag, fft_butterfly,
    inner_product, layered_random_dag, naive_matmul, naive_matmul_binary_tree, strassen_matmul,
};
use graphio_graph::{fingerprint, CompGraph, EdgeListGraph, OpKind};
use proptest::prelude::*;

fn any_generated_graph() -> impl Strategy<Value = CompGraph> {
    (0usize..10, 0u64..1000).prop_map(|(which, seed)| match which {
        0 => fft_butterfly(1 + (seed as usize % 5)),
        1 => bhk_hypercube(1 + (seed as usize % 6)),
        2 => naive_matmul(1 + (seed as usize % 4)),
        3 => naive_matmul_binary_tree(1 + (seed as usize % 4)),
        4 => strassen_matmul(1 << (seed as usize % 3)),
        5 => inner_product(1 + (seed as usize % 8)),
        6 => diamond_dag(1 + (seed as usize % 5), 1 + (seed as usize / 7 % 5)),
        7 => binary_reduction_tree(1 + seed as usize % 6),
        8 => erdos_renyi_dag(2 + (seed as usize % 30), 0.3, seed),
        _ => layered_random_dag(1 + (seed as usize % 4), 1 + (seed as usize % 6), 0.5, seed),
    })
}

fn rebuild(el: EdgeListGraph) -> CompGraph {
    CompGraph::try_from(el).expect("mutation keeps the graph valid")
}

/// Drops the edge at `index` (mod m).
fn drop_edge(g: &CompGraph, index: usize) -> Option<CompGraph> {
    let mut el = g.to_edge_list();
    if el.edges.is_empty() {
        return None;
    }
    let index = index % el.edges.len();
    el.edges.remove(index);
    Some(rebuild(el))
}

/// Duplicates the edge at `index` (mod m) — parallel edges never create
/// cycles, so this is always a valid one-edge-heavier twin.
fn duplicate_edge(g: &CompGraph, index: usize) -> Option<CompGraph> {
    let mut el = g.to_edge_list();
    if el.edges.is_empty() {
        return None;
    }
    let edge = el.edges[index % el.edges.len()];
    el.edges.push(edge);
    Some(rebuild(el))
}

/// Relabels the operation of vertex `v` (mod n) to something different.
fn flip_op(g: &CompGraph, v: usize) -> Option<CompGraph> {
    let mut el = g.to_edge_list();
    if el.ops.is_empty() {
        return None;
    }
    let v = v % el.ops.len();
    el.ops[v] = match el.ops[v] {
        // A one-step label change: Custom tags move by one, everything
        // else becomes a Custom label it never is organically.
        OpKind::Custom(tag) => OpKind::Custom(tag.wrapping_add(1)),
        _ => OpKind::Custom(0xDEAD),
    };
    Some(rebuild(el))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_edge_removed_changes_the_fingerprint(g in any_generated_graph(), at in 0usize..10_000) {
        if let Some(h) = drop_edge(&g, at) {
            prop_assert_ne!(fingerprint(&g), fingerprint(&h));
        }
    }

    #[test]
    fn one_parallel_edge_added_changes_the_fingerprint(g in any_generated_graph(), at in 0usize..10_000) {
        if let Some(h) = duplicate_edge(&g, at) {
            prop_assert_ne!(fingerprint(&g), fingerprint(&h));
        }
    }

    #[test]
    fn one_op_label_changed_changes_the_fingerprint(g in any_generated_graph(), at in 0usize..10_000) {
        if let Some(h) = flip_op(&g, at) {
            prop_assert_ne!(fingerprint(&g), fingerprint(&h));
        }
    }

    /// All three perturbations of one graph are also pairwise distinct —
    /// near-misses must not collide with *each other* either.
    #[test]
    fn perturbation_family_is_pairwise_distinct(g in any_generated_graph(), at in 0usize..10_000) {
        let mut fps = vec![fingerprint(&g)];
        fps.extend(drop_edge(&g, at).map(|h| fingerprint(&h)));
        fps.extend(duplicate_edge(&g, at).map(|h| fingerprint(&h)));
        fps.extend(flip_op(&g, at).map(|h| fingerprint(&h)));
        let mut dedup = fps.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), fps.len(), "near-miss collision: {:?}", fps);
    }
}

/// Deterministic spot checks of the classic traps, independent of the
/// property sweep above.
#[test]
fn classic_near_isomorphic_pairs_are_distinct() {
    // Same vertex set, one edge redirected.
    let base = diamond_dag(4, 4);
    let mut el = base.to_edge_list();
    let (from, to) = el.edges[0];
    // Redirect the first edge to another valid, later vertex.
    let new_to = (to + 1) % (el.ops.len() as u32);
    if new_to > from {
        el.edges[0] = (from, new_to);
        if let Ok(moved) = CompGraph::try_from(el) {
            assert_ne!(fingerprint(&base), fingerprint(&moved));
        }
    }

    // FFT stages differ by exactly one butterfly layer.
    assert_ne!(
        fingerprint(&fft_butterfly(4)),
        fingerprint(&fft_butterfly(5))
    );
    // Same shape, one Input vs Custom label at a single vertex.
    let a = inner_product(4);
    let b = flip_op(&a, 0).unwrap();
    assert_ne!(fingerprint(&a), fingerprint(&b));
}
