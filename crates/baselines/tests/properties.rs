//! Property-based tests for the baseline bounds and the exact oracle.

use graphio_baselines::convex_mincut::{
    convex_min_cut_bound, wavefront_cut, ConvexMinCutOptions, VertexSweep,
};
use graphio_baselines::exact_optimal_io;
use graphio_graph::generators::{erdos_renyi_dag, layered_random_dag};
use graphio_graph::topo::natural_order;
use graphio_graph::CompGraph;
use graphio_pebble::{simulate, Policy};
use proptest::prelude::*;

/// Random DAGs with at most 12 vertices: few enough to enumerate every
/// vertex subset.
fn tiny_random_dag() -> impl Strategy<Value = CompGraph> {
    (0u64..1000, 1usize..=12, 0usize..4).prop_map(|(seed, n, kind)| match kind {
        0 => layered_random_dag(2 + n % 3, 2 + n % 2, 0.5, seed),
        _ => erdos_renyi_dag(n, [0.2, 0.35, 0.6][kind - 1], seed),
    })
}

/// `min |W(S)|` over every down-closed `S` with `Anc(v) ∪ {v} ⊆ S` and
/// `S ∩ Desc(v) = ∅`, where `W(S)` is the set of members of `S` with a
/// child outside `S` — by enumerating all vertex subsets.
fn brute_force_wavefront(g: &CompGraph, v: usize) -> u64 {
    let n = g.n();
    let bit = |set: u32, u: usize| set >> u & 1 == 1;
    let pinned = g.ancestors(v).iter().fold(1u32 << v, |m, &a| m | 1 << a);
    let barred = g.descendants(v).iter().fold(0u32, |m, &d| m | 1 << d);
    (0u32..1 << n)
        .filter(|&set| set & pinned == pinned && set & barred == 0)
        .filter(|&set| {
            (0..n).all(|u| !bit(set, u) || g.parents(u).iter().all(|&p| bit(set, p as usize)))
        })
        .map(|set| {
            (0..n)
                .filter(|&u| bit(set, u) && g.children(u).iter().any(|&w| !bit(set, w as usize)))
                .count() as u64
        })
        .min()
        .expect("Anc(v) ∪ {v} is itself such a prefix")
}

fn small_random_dag() -> impl Strategy<Value = CompGraph> {
    (0u64..400, 0usize..2).prop_map(|(seed, kind)| match kind {
        0 => layered_random_dag(2 + (seed as usize % 3), 2 + (seed as usize % 3), 0.6, seed),
        _ => erdos_renyi_dag(4 + (seed as usize % 8), 0.35, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wavefront_cut_is_bounded_by_closure_sizes(g in small_random_dag(), pick in 0usize..64) {
        if g.n() == 0 {
            return Ok(());
        }
        let v = pick % g.n();
        let cut = wavefront_cut(&g, v);
        // The prefix S = Anc(v) ∪ {v} witnesses a wavefront of at most
        // |Anc(v)| + 1, and the complement-side witness bounds it by the
        // descendant closure's in-boundary, itself ≤ n.
        prop_assert!(cut <= g.ancestors(v).len() as u64 + 1);
        prop_assert!(cut <= g.n() as u64);
        if g.descendants(v).is_empty() {
            prop_assert_eq!(cut, 0);
        }
    }

    #[test]
    fn wavefront_cut_is_the_minimum_convex_wavefront(g in tiny_random_dag()) {
        // The gadget network's min cut is exactly the smallest wavefront of
        // any convex prefix that has finished v and none of its
        // descendants — not merely a bound on it.
        for v in 0..g.n() {
            let (cut, brute) = (wavefront_cut(&g, v), brute_force_wavefront(&g, v));
            prop_assert_eq!(cut, brute, "v={}: cut {} != brute force {}", v, cut, brute);
        }
    }

    #[test]
    fn mincut_bound_is_linear_in_memory(g in small_random_dag()) {
        let r0 = convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default());
        for m in 1..4usize {
            let rm = convex_min_cut_bound(&g, m, &ConvexMinCutOptions::default());
            let expect = r0.max_cut.saturating_sub(m as u64) * 2;
            prop_assert_eq!(rm.bound, expect);
        }
    }

    #[test]
    fn sampling_never_exceeds_full_sweep(g in small_random_dag(), count in 1usize..8, seed in 0u64..20) {
        if g.n() == 0 {
            return Ok(());
        }
        let full = convex_min_cut_bound(&g, 1, &ConvexMinCutOptions::default());
        let sampled = convex_min_cut_bound(
            &g,
            1,
            &ConvexMinCutOptions {
                sweep: VertexSweep::Sample { count, seed },
                ..Default::default()
            },
        );
        prop_assert!(sampled.bound <= full.bound);
        prop_assert!(sampled.max_cut <= full.max_cut);
    }

    #[test]
    fn all_lower_bounds_respect_the_exact_optimum(g in small_random_dag()) {
        if g.n() == 0 || g.n() > 14 {
            return Ok(());
        }
        let m = g.max_in_degree() + 1;
        let Ok(exact) = exact_optimal_io(&g, m, 3_000_000) else {
            return Ok(()); // budget blown on an adversarial case — skip
        };
        let mc = convex_min_cut_bound(&g, m, &ConvexMinCutOptions::default());
        prop_assert!(
            mc.bound <= exact.io,
            "min-cut {} > exact {}", mc.bound, exact.io
        );
        // And the exact optimum is achievable by some simulated execution
        // only from above.
        let order = natural_order(&g);
        for policy in [Policy::Lru, Policy::Belady] {
            let sim = simulate(&g, &order, m, policy, 0).unwrap();
            prop_assert!(exact.io <= sim.io());
        }
    }

    #[test]
    fn exact_is_monotone_in_memory(g in small_random_dag()) {
        if g.n() == 0 || g.n() > 12 {
            return Ok(());
        }
        let m0 = g.max_in_degree() + 1;
        let mut prev = u64::MAX;
        for m in m0..(m0 + 3) {
            let Ok(r) = exact_optimal_io(&g, m, 3_000_000) else {
                return Ok(());
            };
            prop_assert!(r.io <= prev);
            prev = r.io;
        }
    }
}
