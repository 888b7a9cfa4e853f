//! Property-based tests for the spectral-bound machinery.

use graphio_graph::generators::{
    bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, layered_random_dag, naive_matmul,
    naive_matmul_binary_tree, strassen_matmul,
};
use graphio_graph::topo::random_order;
use graphio_graph::{CompGraph, GraphBuilder, OpKind};
use graphio_linalg::CsrMatrix;
use graphio_spectral::bound::bound_from_eigenvalues;
use graphio_spectral::laplacian::{normalized_laplacian, unnormalized_laplacian};
use graphio_spectral::partition::{edge_partition_cost, rs_ws_partition_cost};
use graphio_spectral::{spectral_bound, spectral_bound_original, BoundOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_random_dag() -> impl Strategy<Value = CompGraph> {
    (0u64..500, 0usize..2).prop_map(|(seed, kind)| match kind {
        0 => layered_random_dag(2 + (seed as usize % 4), 2 + (seed as usize % 5), 0.5, seed),
        _ => erdos_renyi_dag(4 + (seed as usize % 20), 0.35, seed),
    })
}

/// A DAG whose vertex ids are not a topological order (so a vertex has
/// parents above and below it), with parallel edges scattered through
/// the children lists and a hub whose rows run past 20 entries.
fn tangled_dag() -> impl Strategy<Value = CompGraph> {
    (0u64..1000, 2usize..70).prop_map(|(seed, n)| {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rank: Vec<usize> = (0..n).collect();
        rank.shuffle(&mut rng);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(OpKind::Custom(0));
        }
        let hub = rng.gen_range(0..n);
        for _ in 0..3 * n {
            let a = rng.gen_range(0..n);
            let c = if rng.gen_bool(0.3) {
                hub
            } else {
                rng.gen_range(0..n)
            };
            if a == c {
                continue;
            }
            let (u, v) = if rank[a] < rank[c] { (a, c) } else { (c, a) };
            for _ in 0..rng.gen_range(1..=3) {
                b.add_edge(u as u32, v as u32);
            }
        }
        b.build().expect("edges follow the rank order")
    })
}

/// The Laplacian summed edge by edge from `4m` triplets — the assembly
/// the row-by-row builders replaced, kept as the reference for their
/// bits.
fn triplet_laplacian(g: &CompGraph, normalized: bool) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(4 * g.num_edges());
    for (u, v) in g.edges() {
        let w = if normalized {
            1.0 / g.out_degree(u) as f64
        } else {
            1.0
        };
        triplets.extend([(u, v, -w), (v, u, -w), (u, u, w), (v, v, w)]);
    }
    CsrMatrix::from_triplets(g.n(), &triplets).unwrap()
}

/// Both Laplacians equal their triplet reference in layout and value.
/// Stored values are never zero (zero sums are dropped), and `==` on
/// non-zero finite `f64`s is bit equality.
fn assert_laplacians_match_triplets(g: &CompGraph) {
    assert_eq!(normalized_laplacian(g), triplet_laplacian(g, true));
    assert_eq!(unnormalized_laplacian(g), triplet_laplacian(g, false));
}

#[test]
fn laplacians_match_the_triplet_sum_bit_for_bit_on_the_zoo() {
    for g in [
        fft_butterfly(6),
        fft_butterfly(8),
        bhk_hypercube(10),
        diamond_dag(24, 24),
        naive_matmul(8),
        naive_matmul_binary_tree(8),
        strassen_matmul(8),
        erdos_renyi_dag(250, 0.1, 7),
        erdos_renyi_dag(400, 0.1, 1),
        erdos_renyi_dag(2000, 0.01, 1),
    ] {
        assert_laplacians_match_triplets(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn laplacians_match_the_triplet_sum_bit_for_bit(
        g in tangled_dag(),
        layered in small_random_dag(),
    ) {
        assert_laplacians_match_triplets(&g);
        assert_laplacians_match_triplets(&layered);
    }

    #[test]
    fn laplacians_are_psd_and_consistent(g in small_random_dag()) {
        for lap in [normalized_laplacian(&g), unnormalized_laplacian(&g)] {
            let lap = lap.to_dense();
            prop_assert!(lap.is_symmetric(1e-12));
            // Quadratic forms on random +/-1 vectors are nonnegative.
            let mut rng = StdRng::seed_from_u64(1);
            use rand::Rng;
            for _ in 0..5 {
                let x: Vec<f64> = (0..g.n()).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
                prop_assert!(lap.quadratic_form(&x) > -1e-9);
            }
        }
    }

    #[test]
    fn theorem5_never_beats_theorem4(g in small_random_dag()) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        for m in [1usize, 4] {
            let b4 = spectral_bound(&g, m, &BoundOptions::default()).unwrap();
            let b5 = spectral_bound_original(&g, m, &BoundOptions::default()).unwrap();
            prop_assert!(
                b5.bound <= b4.bound + 1e-6,
                "Thm5 {} > Thm4 {} (M={})", b5.bound, b4.bound, m
            );
        }
    }

    #[test]
    fn lemma1_dominates_theorem2_edge_pricing(g in small_random_dag(), seed in 0u64..100, k in 2usize..6) {
        if g.n() < k {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let order = random_order(&g, &mut rng);
        let m = 2;
        let rw = rs_ws_partition_cost(&g, &order, k, m);
        let ec = edge_partition_cost(&g, &order, k, m);
        prop_assert!(rw >= ec - 1e-9, "rs_ws {rw} < edge {ec}");
    }

    #[test]
    fn bound_is_monotone_in_memory_and_processors(
        eigs in proptest::collection::vec(0.0f64..3.0, 2..40),
        n_mult in 1usize..50,
    ) {
        let mut eigs = eigs;
        eigs.sort_by(f64::total_cmp);
        eigs[0] = 0.0;
        let n = eigs.len() * n_mult;
        let mut prev = f64::INFINITY;
        for m in [0usize, 1, 2, 4, 8, 16] {
            let b = bound_from_eigenvalues(&eigs, n, m, 1, 1.0, None);
            prop_assert!(b.bound <= prev + 1e-9);
            prev = b.bound;
        }
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4, 8] {
            let b = bound_from_eigenvalues(&eigs, n, 2, p, 1.0, None);
            prop_assert!(b.bound <= prev + 1e-9);
            prev = b.bound;
        }
    }

    #[test]
    fn bound_scales_linearly_with_scale_factor(
        eigs in proptest::collection::vec(0.0f64..3.0, 2..20),
    ) {
        let mut eigs = eigs;
        eigs.sort_by(f64::total_cmp);
        let n = eigs.len() * 3;
        // With M = 0 the objective is scale-linear in the eigenvalue term.
        let b1 = bound_from_eigenvalues(&eigs, n, 0, 1, 1.0, None);
        let b2 = bound_from_eigenvalues(&eigs, n, 0, 1, 0.5, None);
        prop_assert!((b1.bound - 2.0 * b2.bound).abs() < 1e-9 * (1.0 + b1.bound));
    }

    #[test]
    fn fixed_k_never_beats_the_maximum(
        eigs in proptest::collection::vec(0.0f64..3.0, 3..30),
        k in 2usize..10,
    ) {
        let mut eigs = eigs;
        eigs.sort_by(f64::total_cmp);
        if k > eigs.len() {
            return Ok(());
        }
        let n = eigs.len() * 2;
        let free = bound_from_eigenvalues(&eigs, n, 2, 1, 1.0, None);
        let fixed = bound_from_eigenvalues(&eigs, n, 2, 1, 1.0, Some(k));
        prop_assert!(fixed.bound <= free.bound + 1e-12);
    }

    #[test]
    fn theorem4_relaxation_chain_holds_for_orthogonal_x(
        g in small_random_dag(),
        seed in 0u64..100,
        k in 2usize..5,
    ) {
        // The exact chain behind Theorem 4: for ANY orthogonal X,
        // tr(Xᵀ L̃ X W^{(k)}) ≥ Σᵢ λᵢ(L̃)·μ_{n−i}(W) ≥ ⌊n/k⌋·Σᵢ₌₁ᵏ λᵢ(L̃).
        use graphio_spectral::partition::w_matrix;
        use graphio_spectral::qap::{min_spectral_dot, trace_objective};
        use graphio_linalg::orthogonal::random_orthogonal;
        use graphio_linalg::eigenvalues_symmetric;

        let n = g.n();
        if n < k || n > 12 || g.num_edges() == 0 {
            return Ok(());
        }
        let lt = normalized_laplacian(&g).to_dense();
        let w = w_matrix(n, k);
        let lam = eigenvalues_symmetric(&lt).unwrap();
        let mu = eigenvalues_symmetric(&w).unwrap();
        let qap_floor = min_spectral_dot(&lam, &mu);
        let seg_floor: f64 = (n / k) as f64 * lam.iter().take(k).map(|v| v.max(0.0)).sum::<f64>();
        prop_assert!(seg_floor <= qap_floor + 1e-8, "{seg_floor} > {qap_floor}");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            let x = random_orthogonal(n, &mut rng);
            let tr = trace_objective(&lt, &x, &w);
            prop_assert!(tr >= qap_floor - 1e-8 * (1.0 + qap_floor.abs()),
                "tr {tr} < qap floor {qap_floor}");
        }
    }

    #[test]
    fn larger_h_never_weakens_the_bound(g in small_random_dag()) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        let m = 2;
        let small_h = spectral_bound(&g, m, &BoundOptions { h: 4, ..Default::default() }).unwrap();
        let large_h = spectral_bound(&g, m, &BoundOptions { h: 64, ..Default::default() }).unwrap();
        prop_assert!(
            small_h.bound <= large_h.bound + 1e-9,
            "h=4 gave {} > h=64 gave {}", small_h.bound, large_h.bound
        );
    }
}
