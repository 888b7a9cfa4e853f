#![allow(clippy::needless_range_loop)] // index-parallel array comparisons read clearest

//! Closed-form spectra (§5 / Appendix A) against the numeric eigensolvers
//! at sizes beyond the in-crate unit tests, exercising the full
//! CSR + deflated-Lanczos pipeline — and the bounds the service serves
//! against the same closed forms.

use graphio::graph::json::JsonValue;
use graphio::prelude::*;
use graphio::service::analysis::{analysis_body, analysis_doc, is_certified, AnalyzeSpec};
use graphio::spectral::closed_form::butterfly::{
    butterfly_smallest_eigenvalues, fft_exact_spectrum_bound,
};
use graphio::spectral::closed_form::hypercube::{
    hypercube_exact_spectrum_bound, hypercube_smallest_eigenvalues,
};
use graphio::spectral::laplacian::{normalized_laplacian, unnormalized_laplacian};
use graphio_linalg::simd::{policy, set_policy, SimdPolicy};
use graphio_linalg::{lanczos, LanczosOptions};

#[test]
fn butterfly_spectrum_matches_lanczos_at_l7() {
    // B_7: 1024 vertices — dense would be slow in debug; Lanczos handles it.
    let l = 7;
    let g = fft_butterfly(l);
    let lap = unnormalized_laplacian(&g);
    let h = 25;
    let numeric = lanczos::smallest_eigenvalues(&lap, h, &LanczosOptions::default()).unwrap();
    let closed = butterfly_smallest_eigenvalues(l, h);
    for i in 0..h {
        assert!(
            (closed[i] - numeric.values[i]).abs() < 1e-6,
            "i={i}: closed {} vs lanczos {}",
            closed[i],
            numeric.values[i]
        );
    }
}

#[test]
fn hypercube_spectrum_matches_lanczos_at_l10() {
    let l = 10;
    let g = bhk_hypercube(l);
    let lap = unnormalized_laplacian(&g);
    let h = 15;
    let numeric = lanczos::smallest_eigenvalues(&lap, h, &LanczosOptions::default()).unwrap();
    let closed = hypercube_smallest_eigenvalues(l, h);
    for i in 0..h {
        assert!(
            (closed[i] - numeric.values[i]).abs() < 1e-6,
            "i={i}: closed {} vs lanczos {}",
            closed[i],
            numeric.values[i]
        );
    }
}

#[test]
fn butterfly_normalized_laplacian_is_half_the_plain_one() {
    // Every butterfly non-sink has out-degree exactly 2, so L̃ = L/2 —
    // a structural identity that ties the two Laplacian builders together.
    let g = fft_butterfly(4);
    let lt = normalized_laplacian(&g).to_dense();
    let l = unnormalized_laplacian(&g).to_dense();
    for i in 0..g.n() {
        for &j in g.children(i) {
            let j = j as usize;
            assert!((lt[(i, j)] - l[(i, j)] / 2.0).abs() < 1e-12);
        }
        assert!((lt[(i, i)] - l[(i, i)] / 2.0).abs() < 1e-12);
    }
}

#[test]
fn closed_form_bounds_dominate_chain_holds_numerically() {
    // closed-form (specific α) ≤ closed-form (best α) ≤ Theorem 5 numeric
    // ≤ Theorem 4 numeric — the full dominance chain of the paper's
    // machinery, evaluated end to end on the hypercube.
    use graphio::spectral::closed_form::hypercube::{
        hypercube_bound_best_alpha, hypercube_closed_form_bound,
    };
    let l = 8;
    let g = bhk_hypercube(l);
    for m in [2usize, 4, 8] {
        let alpha1 = hypercube_closed_form_bound(l, m, 1).max(0.0);
        let best = hypercube_bound_best_alpha(l, m);
        let thm5 = spectral_bound_original(&g, m, &BoundOptions::default()).unwrap();
        let thm4 = spectral_bound(&g, m, &BoundOptions::default()).unwrap();
        assert!(alpha1 <= best + 1e-9, "M={m}");
        assert!(best <= thm5.bound + 1e-6, "M={m}: {best} > {}", thm5.bound);
        assert!(
            thm5.bound <= thm4.bound + 1e-6,
            "M={m}: {} > {}",
            thm5.bound,
            thm4.bound
        );
    }
}

#[test]
fn erdos_renyi_lambda2_concentrates_near_prediction() {
    use graphio::spectral::closed_form::erdos_renyi::{lambda2_sparse_estimate, sparse_p};
    let n = 300;
    let p0 = 12.0;
    let p = sparse_p(n, p0);
    let mut ratios = Vec::new();
    for seed in 0..5 {
        let g = erdos_renyi_dag(n, p, seed);
        let lap = unnormalized_laplacian(&g);
        let eigs = lanczos::smallest_eigenvalues(&lap, 2, &LanczosOptions::default()).unwrap();
        ratios.push(eigs.values[1] / lambda2_sparse_estimate(n, p0));
    }
    let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    // Leading-order estimate: expect agreement within ~25% at n = 300.
    assert!(
        (mean - 1.0).abs() < 0.25,
        "λ2 concentration ratio {mean} (ratios {ratios:?})"
    );
}

/// The closed-form wall: on the certified tiers (dense and sparse), the
/// bounds the service serves — read back from `analysis_doc`, the path
/// `graphio analyze --json` and `POST /analyze` share — equal Theorem 5
/// on the exact closed-form spectrum at the served `h`, to 1e-9 relative.
/// A solver that loses one copy of a repeated eigenvalue (the hypercube's
/// are C(l, i)-fold) shifts a prefix sum and breaks the wall. Theorem 4
/// has the same closed form on the butterfly only, whose `L̃ = L/2`; on
/// the hypercube out-degrees vary by level, so there it must dominate
/// Theorem 5 instead.
fn assert_served_bounds_match_closed_form(
    g: CompGraph,
    tier: ScaleTier,
    thm4_is_closed_form: bool,
    closed_form: impl Fn(usize, usize) -> SpectralBound,
) {
    let n = g.n();
    assert_eq!(ScaleTier::of(n), tier, "n = {n} left its tier");
    assert!(is_certified(n));
    let h = BoundOptions::for_graph_size(n).h;
    let memories = [2usize, 4, 8];
    let spec = AnalyzeSpec {
        memories: memories.to_vec(),
        processors: 1,
        no_sim: true,
    };
    let doc = analysis_doc(&OwnedAnalyzer::from_graph(g), &spec);
    let rows = doc.get("sweep").and_then(JsonValue::as_array).unwrap();
    assert_eq!(rows.len(), memories.len());
    for (row, &m) in rows.iter().zip(&memories) {
        let served = |key: &str| row.get(key).and_then(JsonValue::as_f64).unwrap();
        let (thm4, thm5) = (served("thm4"), served("thm5"));
        let exact = closed_form(m, h).bound;
        let tol = 1e-9 * exact.abs().max(1.0);
        assert!(
            (thm5 - exact).abs() <= tol,
            "n={n} M={m} h={h}: served thm5 {thm5} vs closed form {exact}"
        );
        if thm4_is_closed_form {
            assert!(
                (thm4 - exact).abs() <= tol,
                "n={n} M={m} h={h}: served thm4 {thm4} vs closed form {exact}"
            );
        } else {
            assert!(thm4 >= thm5 - tol, "n={n} M={m}: thm4 {thm4} < thm5 {thm5}");
        }
    }
}

#[test]
fn served_fft_bounds_match_the_exact_closed_form_spectrum() {
    for (l, tier) in [(5, ScaleTier::Dense), (7, ScaleTier::Sparse)] {
        assert_served_bounds_match_closed_form(fft_butterfly(l), tier, true, |m, h| {
            fft_exact_spectrum_bound(l, m, h)
        });
    }
}

#[test]
fn served_bhk_bounds_match_the_exact_closed_form_spectrum() {
    for (l, tier) in [(8, ScaleTier::Dense), (9, ScaleTier::Sparse)] {
        assert_served_bounds_match_closed_form(bhk_hypercube(l), tier, false, |m, h| {
            hypercube_exact_spectrum_bound(l, m, h)
        });
    }
}

/// The scalar kernels serve the vector kernels' bytes: on a dense-tier
/// and a sparse-tier graph, the analysis document (Theorems 4-6, min-cut
/// and simulation at four memories) is byte-identical under
/// `SimdPolicy::Off` and `Strict`. The policy is process-global; the
/// other tests in this binary read no SIMD counter and see the same
/// numbers under either policy.
#[test]
fn served_bytes_are_identical_with_simd_off_and_strict() {
    struct Restore(SimdPolicy);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_policy(self.0);
        }
    }
    let _restore = Restore(policy());
    let spec = AnalyzeSpec {
        memories: vec![2, 4, 8, 16],
        processors: 4,
        no_sim: false,
    };
    for (g, tier) in [
        (fft_butterfly(5), ScaleTier::Dense),
        (bhk_hypercube(9), ScaleTier::Sparse),
    ] {
        let n = g.n();
        assert_eq!(ScaleTier::of(n), tier, "n = {n} left its tier");
        let body = |p: SimdPolicy| {
            set_policy(p);
            analysis_body(&OwnedAnalyzer::from_graph(g.clone()), &spec)
        };
        let strict = body(SimdPolicy::Strict);
        assert_eq!(body(SimdPolicy::Off), strict, "n = {n}");
    }
}
