//! Thick restart on spectra whose Lanczos sweeps reach their step budget.
//!
//! On diamond(24), ER(600, 0.1, 1) and a layered random DAG the spectrum
//! has no large multiplicities, so no Krylov space becomes invariant and
//! every sweep that does not certify runs its full 96 steps. There the
//! solver keeps half of a sweep's Ritz vectors and its residual vector
//! instead of restarting from random: it must still agree with the dense
//! solver, serve the dense tier's bounds, keep its bits under both SIMD
//! policies, and pay for itself in mat-vecs.

use graphio::graph::generators::layered_random_dag;
use graphio::graph::json::JsonValue;
use graphio::prelude::*;
use graphio::service::analysis::{analysis_doc, AnalyzeSpec};
use graphio::spectral::laplacian::{normalized_laplacian, unnormalized_laplacian};
use graphio_linalg::simd::{policy, set_policy, SimdPolicy};
use graphio_linalg::{eigenvalues_symmetric, lanczos, CsrMatrix, LinOp};

fn graphs() -> [(&'static str, CompGraph); 3] {
    [
        ("diamond(24)", diamond_dag(24, 24)),
        ("ER(600, 0.1, 1)", erdos_renyi_dag(600, 0.1, 1)),
        (
            "layered(24, 25, 0.1, 7)",
            layered_random_dag(24, 25, 0.1, 7),
        ),
    ]
}

/// The sparse-tier solve of `lap`, a Laplacian of a graph on `n` vertices.
fn sparse_tier_solve(lap: &CsrMatrix, n: usize) -> lanczos::LanczosResult {
    assert_eq!(ScaleTier::of(n), ScaleTier::Sparse, "n = {n} left its tier");
    let opts = BoundOptions::for_graph_size(n);
    let EigenMethod::Lanczos(lopts) = opts.method else {
        unreachable!("the sparse tier always runs Lanczos");
    };
    lanczos::smallest_eigenvalues(lap, opts.h, &lopts).unwrap()
}

fn laplacians(g: &CompGraph) -> [(&'static str, CsrMatrix); 2] {
    [
        ("L~", normalized_laplacian(g)),
        ("L", unnormalized_laplacian(g)),
    ]
}

#[test]
fn restarted_sparse_tier_values_match_dense() {
    for (name, g) in graphs() {
        for (kind, lap) in laplacians(&g) {
            let r = sparse_tier_solve(&lap, g.n());
            assert!(r.restarts > 0, "{name} {kind}: no sweep thick-restarted");
            let scale = lap.eigen_upper_bound().unwrap().max(1.0);
            let dense = eigenvalues_symmetric(&lap.to_dense()).unwrap();
            for (i, (got, want)) in r.values.iter().zip(&dense).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-9 * scale,
                    "{name} {kind} λ_{i}: lanczos {got} vs dense {want}"
                );
            }
        }
    }
}

/// The served Theorem 4, 5 and 6 bounds (the sparse tier's, at h = 48)
/// equal a dense-tier session's (h = 100) to 1e-9 relative: on these
/// graphs the best `k` stays below 48, so the tiers differ only in their
/// eigensolver. bhk(10) joins them: its `L̃` solve thick-restarts between
/// sweeps that end at invariance, and it is the `offline_cold` graph
/// whose served bytes the restart moved.
#[test]
fn served_bounds_match_the_dense_tier() {
    let memories = [2usize, 4, 8, 16];
    let processors = 4;
    let spec = AnalyzeSpec {
        memories: memories.to_vec(),
        processors,
        no_sim: true,
    };
    let bhk10 = [("bhk(10)", bhk_hypercube(10))];
    for (name, g) in graphs().into_iter().chain(bhk10) {
        let n = g.n();
        let dense = BoundOptions::for_graph_size_in_tier(n, ScaleTier::Dense);
        let doc = analysis_doc(&OwnedAnalyzer::from_graph(g.clone()), &spec);
        let reference = OwnedAnalyzer::from_graph(g);
        let rows = doc.get("sweep").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), memories.len());
        for (row, &m) in rows.iter().zip(&memories) {
            let served = |key: &str| row.get(key).and_then(JsonValue::as_f64).unwrap();
            for (theorem, want) in [
                ("thm4", reference.bound(m, &dense).unwrap().bound),
                ("thm5", reference.bound_original(m, &dense).unwrap().bound),
                (
                    "thm6",
                    reference
                        .parallel_bound(m, processors, &dense)
                        .unwrap()
                        .bound,
                ),
            ] {
                let got = served(theorem);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{name} M={m} {theorem}: served {got} vs dense {want}"
                );
            }
        }
    }
}

/// A restarted solve (the rotation of the kept vectors, the Householder
/// chain and the continued recurrence) gives the same bits under both
/// SIMD policies.
#[test]
fn restarted_solve_is_bit_identical_under_strict_and_off() {
    struct Restore(SimdPolicy);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_policy(self.0);
        }
    }
    let _restore = Restore(policy());
    let g = diamond_dag(24, 24);
    for (kind, lap) in laplacians(&g) {
        let bits = |p: SimdPolicy| {
            set_policy(p);
            let r = sparse_tier_solve(&lap, g.n());
            assert!(r.restarts > 0, "{kind}: no sweep thick-restarted");
            let bits: Vec<u64> = r.values.iter().map(|v| v.to_bits()).collect();
            (bits, r.matvecs)
        };
        assert_eq!(bits(SimdPolicy::Off), bits(SimdPolicy::Strict), "{kind}");
    }
}

/// Diamond(24) took 1 176 (`L̃`) and 1 912 (`L`) mat-vecs when a sweep at
/// its budget restarted from random and doubled its budget; a thick
/// restart takes fewer than 700 on each.
#[test]
fn diamond24_solves_pay_for_the_restart_in_matvecs() {
    let g = diamond_dag(24, 24);
    for (kind, lap) in laplacians(&g) {
        let r = sparse_tier_solve(&lap, g.n());
        assert!(
            r.matvecs <= 700,
            "diamond(24) {kind}: {} mat-vecs in {} sweeps ({} restarts)",
            r.matvecs,
            r.sweeps,
            r.restarts
        );
    }
}

/// `copies` disjoint copies of `lap` as one block-diagonal matrix: the
/// Laplacian of a union of identical components.
fn block_diagonal(lap: &CsrMatrix, copies: usize) -> CsrMatrix {
    let n = lap.dim();
    let dense = lap.to_dense();
    let mut trips = Vec::new();
    for c in 0..copies {
        for i in 0..n {
            for j in 0..n {
                let v = dense[(i, j)];
                if v != 0.0 {
                    trips.push((c * n + i, c * n + j, v));
                }
            }
        }
    }
    CsrMatrix::from_triplets(copies * n, &trips).unwrap()
}

/// Three disjoint diamond(14)s (n = 588) give every eigenvalue three
/// copies, and no component turns invariant within a sweep's budget, so
/// verification sweeps run to their budget. One start vector's Krylov
/// space meets each eigenspace in one direction: a verification sweep
/// that finds a missed copy must hand over to a fresh start, not to its
/// own thick restart, or a third copy goes missing and the values come
/// back too large.
#[test]
fn threefold_eigenvalues_keep_every_copy_through_restarts() {
    let g = diamond_dag(14, 14);
    for (kind, lap) in laplacians(&g) {
        let union = block_diagonal(&lap, 3);
        let r = sparse_tier_solve(&union, union.dim());
        assert!(r.restarts > 0, "{kind}: no sweep thick-restarted");
        let scale = union.eigen_upper_bound().unwrap().max(1.0);
        let dense = eigenvalues_symmetric(&union.to_dense()).unwrap();
        for (i, (got, want)) in r.values.iter().zip(&dense).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * scale,
                "3 × diamond(14) {kind} λ_{i}: lanczos {got} vs dense {want}"
            );
        }
    }
}

/// bhk(12)'s `L̃` (n = 4 096) has an eigenvalue 0.5910… with at least 23
/// copies, and h = 48 cuts through it. Its sweeps run to their budget, and
/// a verification sweep locks copies that the earlier sweeps missed. When
/// that sweep thick-restarted within its own Krylov space, the restart
/// certified with 7 of those copies missing and returned values up to
/// 0.854 in their place. The profile below is the one the solver returned
/// before thick restart, when every sweep started from random.
#[test]
fn bhk12_normalized_solve_keeps_every_copy() {
    let g = bhk_hypercube(12);
    let lap = normalized_laplacian(&g);
    let r = sparse_tier_solve(&lap, g.n());
    let profile = [
        (0.0, 1),
        (0.289995062949, 1),
        (0.309640827666, 11),
        (0.561796002797, 1),
        (0.581228281524, 11),
        (0.591037485173, 23),
    ];
    let want: Vec<f64> = profile
        .iter()
        .flat_map(|&(value, copies)| std::iter::repeat_n(value, copies))
        .collect();
    assert_eq!(r.values.len(), want.len());
    for (i, (got, want)) in r.values.iter().zip(&want).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9,
            "bhk(12) L~ λ_{i}: lanczos {got} vs {want}"
        );
    }
}
