//! The spectral I/O lower bounds: Theorems 4, 5 and 6.
//!
//! Given the `h` smallest Laplacian eigenvalues `λ₁ ≤ … ≤ λ_h`, every
//! segment count `k ≤ h` certifies a lower bound
//! `⌊n/k⌋ · Σᵢ₌₁ᵏ λᵢ − 2kM` (Theorem 4), so the reported bound maximizes
//! over `k ∈ {2, …, h}` — mirroring the paper's solver, which fixes
//! `h = 100` and notes (§6.5) that the best `k` empirically stays far below
//! that. Eigenvalues come from the dense O(n³) solver for small graphs and
//! from deflated Lanczos (O(hn²)) for large sparse ones.

use crate::laplacian::{normalized_laplacian, unnormalized_laplacian};
use graphio_graph::CompGraph;
use graphio_linalg::{
    eigenvalues_symmetric, lanczos, CsrMatrix, LanczosOptions, LinalgError, RitzSweepOptions,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this vertex count the `Auto` scale tier solves densely — the
/// O(n³) solver beats Lanczos there and is exact. (Lowered from the
/// original 640: profiling showed deflated Lanczos already strictly
/// faster by n ≈ 500, e.g. the once-12-second cold `diamond_dag(40,40)`
/// analyze.)
pub const DENSE_CUTOFF: usize = 448;

/// Above this vertex count the `Auto` scale tier stops paying for the
/// deflated (restarted, fully re-orthogonalized, multiplicity-verifying)
/// Lanczos solver and switches to the fixed-cost single-sweep Ritz
/// estimate — see [`ScaleTier::Huge`] for the contract change.
pub const HUGE_CUTOFF: usize = 100_000;

/// Which solver tier [`BoundOptions::for_graph_size`] and the `Auto`
/// eigensolver method dispatch to. Process-global knob (the CLI's
/// `--scale-tier`, mirroring the `--threads` and `SimdPolicy` knobs):
/// [`set_scale_tier`] / [`scale_tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleTier {
    /// Pick by vertex count: `Dense` up to [`DENSE_CUTOFF`], `Sparse` up
    /// to [`HUGE_CUTOFF`], `Huge` beyond (the default).
    #[default]
    Auto,
    /// Dense O(n³) solver — exact, O(n²) memory. Forcing it on a huge
    /// graph is the caller's own funeral.
    Dense,
    /// Deflated Lanczos — certified extreme eigenvalues with verified
    /// multiplicities, cost O(sweeps · subspace · n).
    Sparse,
    /// Single-sweep Ritz extraction — **estimates**, not certified
    /// eigenvalues: each Ritz value upper-bounds the same-index true
    /// eigenvalue (Cauchy interlacing) and repeated eigenvalues collapse,
    /// so bounds computed from them are estimates too (the scale-tier
    /// analog of the paper's §6.5 wall-clock cutoffs). Cost is a fixed
    /// `steps` mat-vecs.
    Huge,
}

impl ScaleTier {
    /// Parses a CLI/env spelling. `None` for anything unrecognized.
    pub fn parse(raw: &str) -> Option<ScaleTier> {
        match raw {
            "auto" => Some(ScaleTier::Auto),
            "dense" => Some(ScaleTier::Dense),
            "sparse" => Some(ScaleTier::Sparse),
            "huge" => Some(ScaleTier::Huge),
            _ => None,
        }
    }

    /// Canonical spelling, round-tripping [`ScaleTier::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            ScaleTier::Auto => "auto",
            ScaleTier::Dense => "dense",
            ScaleTier::Sparse => "sparse",
            ScaleTier::Huge => "huge",
        }
    }

    /// Resolves `Auto` against a vertex count; explicit tiers are kept.
    fn resolve(self, n: usize, dense_cutoff: usize) -> ScaleTier {
        match self {
            ScaleTier::Auto => {
                if n <= dense_cutoff {
                    ScaleTier::Dense
                } else if n <= HUGE_CUTOFF {
                    ScaleTier::Sparse
                } else {
                    ScaleTier::Huge
                }
            }
            tier => tier,
        }
    }
}

/// 0 = `Auto`, 1 = `Dense`, 2 = `Sparse`, 3 = `Huge`.
static SCALE_TIER: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global scale tier (CLI `--scale-tier`).
pub fn set_scale_tier(tier: ScaleTier) {
    let v = match tier {
        ScaleTier::Auto => 0,
        ScaleTier::Dense => 1,
        ScaleTier::Sparse => 2,
        ScaleTier::Huge => 3,
    };
    SCALE_TIER.store(v, Ordering::Relaxed);
}

/// The currently configured process-global scale tier.
pub fn scale_tier() -> ScaleTier {
    match SCALE_TIER.load(Ordering::Relaxed) {
        1 => ScaleTier::Dense,
        2 => ScaleTier::Sparse,
        3 => ScaleTier::Huge,
        _ => ScaleTier::Auto,
    }
}

/// How eigenvalues are computed.
#[derive(Debug, Clone, Default)]
pub enum EigenMethod {
    /// Resolved by the scale tier: dense when `n ≤ dense_cutoff`, deflated
    /// Lanczos through [`HUGE_CUTOFF`], single-sweep Ritz beyond.
    #[default]
    Auto,
    /// Always the dense O(n³) solver (exact; memory O(n²)).
    Dense,
    /// Always deflated Lanczos with these options.
    Lanczos(LanczosOptions),
    /// Always the fixed-cost single-sweep Ritz estimate (the huge tier's
    /// solver — see [`ScaleTier::Huge`] for what "estimate" gives up).
    RitzSweep(RitzSweepOptions),
}

/// Options for the spectral bounds.
#[derive(Debug, Clone)]
pub struct BoundOptions {
    /// Number of smallest eigenvalues to compute (the paper's `h = 100`).
    /// Clamped to `n`.
    pub h: usize,
    /// Eigensolver selection.
    pub method: EigenMethod,
    /// Below this vertex count [`EigenMethod::Auto`] uses the dense solver.
    pub dense_cutoff: usize,
    /// If set, evaluate only this `k` instead of maximizing over
    /// `2..=h` — used by closed-form comparisons (e.g. `k = 2` in §5.3).
    pub fixed_k: Option<usize>,
}

impl Default for BoundOptions {
    fn default() -> Self {
        BoundOptions {
            h: 100,
            method: EigenMethod::Auto,
            dense_cutoff: DENSE_CUTOFF,
            fixed_k: None,
        }
    }
}

impl BoundOptions {
    /// Eigensolver settings scaled to graph size — the single tuning
    /// schedule shared by the CLI, the bench harness and the engine —
    /// under the process-global [`scale_tier`] knob.
    ///
    /// The paper fixes `h = 100`; past the dense cutoff we shrink `h` (the
    /// optimal `k` stays far below it, §6.5) to keep the deflated-Lanczos
    /// deflation count down, and past [`HUGE_CUTOFF`] we switch to the
    /// fixed-cost single-sweep Ritz estimate.
    pub fn for_graph_size(n: usize) -> Self {
        Self::for_graph_size_in_tier(n, scale_tier())
    }

    /// [`BoundOptions::for_graph_size`] with an explicit tier (`Auto`
    /// resolves by `n`).
    pub fn for_graph_size_in_tier(n: usize, tier: ScaleTier) -> Self {
        let (h, method) = match tier.resolve(n, DENSE_CUTOFF) {
            ScaleTier::Dense => (100, EigenMethod::Dense),
            ScaleTier::Sparse => (
                if n > 16_000 { 32 } else { 48 },
                EigenMethod::Lanczos(LanczosOptions {
                    subspace: 96,
                    tol: 1e-8,
                    ..Default::default()
                }),
            ),
            ScaleTier::Huge => (8, EigenMethod::RitzSweep(RitzSweepOptions::default())),
            ScaleTier::Auto => unreachable!("resolve never returns Auto"),
        };
        BoundOptions {
            h,
            method,
            ..Default::default()
        }
    }

    /// The concrete solver an eigensolve with these options runs on an
    /// `n`-vertex operator — `Auto` resolved through the process-global
    /// [`scale_tier`] knob. Never returns [`EigenMethod::Auto`]. The
    /// engine's cache keys are derived from this exact resolution.
    pub fn resolved_method(&self, n: usize) -> EigenMethod {
        match &self.method {
            EigenMethod::Auto => match scale_tier().resolve(n, self.dense_cutoff) {
                ScaleTier::Dense => EigenMethod::Dense,
                ScaleTier::Sparse => EigenMethod::Lanczos(LanczosOptions::default()),
                ScaleTier::Huge => EigenMethod::RitzSweep(RitzSweepOptions::default()),
                ScaleTier::Auto => unreachable!("resolve never returns Auto"),
            },
            explicit => explicit.clone(),
        }
    }
}

/// A computed spectral lower bound.
#[derive(Debug, Clone)]
pub struct SpectralBound {
    /// The certified lower bound on non-trivial I/O: `max(0, raw)`.
    pub bound: f64,
    /// The maximized objective before clamping at zero.
    pub raw: f64,
    /// The segment count `k` attaining the maximum.
    pub best_k: usize,
    /// The eigenvalues used (ascending, length = effective `h`).
    pub eigenvalues: Vec<f64>,
    /// Number of vertices `n` of the graph.
    pub n: usize,
}

/// Theorem 4: `J*_G ≥ max_k ⌊n/k⌋·Σᵢ₌₁ᵏ λᵢ(L̃) − 2kM` with `L̃` the
/// out-degree-normalized Laplacian.
///
/// # Errors
/// Propagates eigensolver failures ([`LinalgError`]).
pub fn spectral_bound(
    g: &CompGraph,
    memory: usize,
    opts: &BoundOptions,
) -> Result<SpectralBound, LinalgError> {
    let lap = normalized_laplacian(g);
    let eigs = smallest_eigenvalues(&lap, opts)?;
    Ok(bound_from_eigenvalues(
        &eigs,
        g.n(),
        memory,
        1,
        1.0,
        opts.fixed_k,
    ))
}

/// Theorem 5: the looser bound using the unnormalized Laplacian `L`,
/// scaled by `1/max_v d_out(v)` — the form used for closed-form analysis.
///
/// # Errors
/// Propagates eigensolver failures ([`LinalgError`]).
pub fn spectral_bound_original(
    g: &CompGraph,
    memory: usize,
    opts: &BoundOptions,
) -> Result<SpectralBound, LinalgError> {
    let lap = unnormalized_laplacian(g);
    let eigs = smallest_eigenvalues(&lap, opts)?;
    let dmax = g.max_out_degree().max(1) as f64;
    Ok(bound_from_eigenvalues(
        &eigs,
        g.n(),
        memory,
        1,
        1.0 / dmax,
        opts.fixed_k,
    ))
}

/// Theorem 6: with `p` processors of local memory `M`, at least one
/// processor incurs `J* ≥ max_k ⌊n/(kp)⌋·Σᵢ₌₁ᵏ λᵢ(L̃) − 2kM`.
///
/// # Errors
/// Propagates eigensolver failures ([`LinalgError`]).
pub fn parallel_spectral_bound(
    g: &CompGraph,
    memory: usize,
    processors: usize,
    opts: &BoundOptions,
) -> Result<SpectralBound, LinalgError> {
    assert!(processors >= 1, "need at least one processor");
    let lap = normalized_laplacian(g);
    let eigs = smallest_eigenvalues(&lap, opts)?;
    Ok(bound_from_eigenvalues(
        &eigs,
        g.n(),
        memory,
        processors,
        1.0,
        opts.fixed_k,
    ))
}

/// Computes the `h` smallest Laplacian eigenvalues per the configured
/// method.
///
/// # Errors
/// Propagates eigensolver failures.
pub fn smallest_eigenvalues(lap: &CsrMatrix, opts: &BoundOptions) -> Result<Vec<f64>, LinalgError> {
    let n = lap.dim();
    let h = opts.h.min(n);
    if h == 0 {
        return Ok(Vec::new());
    }
    match opts.resolved_method(n) {
        EigenMethod::Dense => {
            let mut vals = eigenvalues_symmetric(&lap.to_dense())?;
            vals.truncate(h);
            Ok(vals)
        }
        EigenMethod::Lanczos(lopts) => {
            graphio_linalg::stats::record_scale_tier_solve();
            Ok(lanczos::smallest_eigenvalues(lap, h, &lopts)?.values)
        }
        EigenMethod::RitzSweep(ropts) => {
            graphio_linalg::stats::record_scale_tier_solve();
            Ok(lanczos::extreme_ritz_values(lap, h, &ropts)?.values)
        }
        EigenMethod::Auto => unreachable!("resolved_method never returns Auto"),
    }
}

/// Core of Theorems 4/5/6: maximizes
/// `scale · ⌊n/(k·p)⌋ · Σᵢ₌₁ᵏ λᵢ − 2kM` over `k ∈ {2..=h}` (or a fixed
/// `k`). Exposed so closed-form spectra (§5) can share the exact same
/// optimization.
pub fn bound_from_eigenvalues(
    eigenvalues: &[f64],
    n: usize,
    memory: usize,
    processors: usize,
    scale: f64,
    fixed_k: Option<usize>,
) -> SpectralBound {
    let h = eigenvalues.len();
    let mut prefix = 0.0;
    let mut best_raw = f64::NEG_INFINITY;
    let mut best_k = 0usize;
    let m = memory as f64;
    for (i, &lam) in eigenvalues.iter().enumerate() {
        let k = i + 1;
        // Eigenvalues are mathematically >= 0; clamp tiny negative noise.
        prefix += lam.max(0.0);
        if let Some(fk) = fixed_k {
            if k != fk {
                continue;
            }
        } else if k < 2 {
            // k = 1 never beats k = 2 in usable cases (λ₁ = 0 for any
            // graph with at least one vertex), matching the paper's k ≥ 2.
            continue;
        }
        let segment = (n / (k * processors)) as f64;
        let value = scale * segment * prefix - 2.0 * k as f64 * m;
        if value > best_raw {
            best_raw = value;
            best_k = k;
        }
    }
    if best_k == 0 {
        // No admissible k (e.g. h < 2): the bound degenerates to the
        // trivial 0.
        best_raw = 0.0;
    }
    SpectralBound {
        bound: best_raw.max(0.0),
        raw: best_raw,
        best_k,
        eigenvalues: eigenvalues[..h].to_vec(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::generators::{bhk_hypercube, fft_butterfly, inner_product, naive_matmul};

    fn default_opts() -> BoundOptions {
        BoundOptions::default()
    }

    #[test]
    fn bound_from_eigenvalues_by_hand() {
        // eigenvalues [0, 1, 2], n = 10, M = 1:
        // k=2: 5*(0+1) - 4 = 1 ; k=3: 3*(0+1+2) - 6 = 3.
        let b = bound_from_eigenvalues(&[0.0, 1.0, 2.0], 10, 1, 1, 1.0, None);
        assert_eq!(b.best_k, 3);
        assert!((b.raw - 3.0).abs() < 1e-12);
        assert_eq!(b.bound, 3.0);
    }

    #[test]
    fn fixed_k_is_respected() {
        let b = bound_from_eigenvalues(&[0.0, 1.0, 2.0], 10, 1, 1, 1.0, Some(2));
        assert_eq!(b.best_k, 2);
        assert!((b.raw - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_raw_clamps_to_zero() {
        let b = bound_from_eigenvalues(&[0.0, 0.0], 4, 100, 1, 1.0, None);
        assert!(b.raw < 0.0);
        assert_eq!(b.bound, 0.0);
    }

    #[test]
    fn parallel_scaling_divides_segments() {
        let eigs = [0.0, 1.0, 1.0, 1.0];
        let serial = bound_from_eigenvalues(&eigs, 100, 2, 1, 1.0, Some(4));
        let par4 = bound_from_eigenvalues(&eigs, 100, 2, 4, 1.0, Some(4));
        // floor(100/4)*3 - 16 = 59 ; floor(100/16)*3 - 16 = 2.
        assert!((serial.raw - 59.0).abs() < 1e-12);
        assert!((par4.raw - 2.0).abs() < 1e-12);
    }

    #[test]
    fn theorem5_is_no_tighter_than_theorem4_on_eval_graphs() {
        // Theorem 5 divides |∂S| by the max out-degree, which is always
        // ≤ the per-edge 1/d_out(u) weighting of Theorem 4.
        for g in [fft_butterfly(3), bhk_hypercube(4), naive_matmul(3)] {
            let m = 4;
            let b4 = spectral_bound(&g, m, &default_opts()).unwrap();
            let b5 = spectral_bound_original(&g, m, &default_opts()).unwrap();
            assert!(
                b5.bound <= b4.bound + 1e-6,
                "Thm5 {} > Thm4 {}",
                b5.bound,
                b4.bound
            );
        }
    }

    #[test]
    fn parallel_bound_decreases_with_processors() {
        let g = fft_butterfly(5);
        let m = 4;
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4, 8] {
            let b = parallel_spectral_bound(&g, m, p, &default_opts()).unwrap();
            assert!(b.bound <= prev + 1e-9, "p={p}");
            prev = b.bound;
        }
        // p = 1 must agree with the serial Theorem 4.
        let serial = spectral_bound(&g, m, &default_opts()).unwrap();
        let p1 = parallel_spectral_bound(&g, m, 1, &default_opts()).unwrap();
        assert!((serial.bound - p1.bound).abs() < 1e-9);
    }

    #[test]
    fn bound_monotone_nonincreasing_in_memory() {
        let g = bhk_hypercube(5);
        let mut prev = f64::INFINITY;
        for m in [1usize, 2, 4, 8, 16, 32] {
            let b = spectral_bound(&g, m, &default_opts()).unwrap();
            assert!(b.bound <= prev + 1e-9, "M={m}");
            prev = b.bound;
        }
    }

    #[test]
    fn dense_and_lanczos_agree() {
        let g = fft_butterfly(4); // n = 80
        let m = 4;
        let dense = spectral_bound(
            &g,
            m,
            &BoundOptions {
                method: EigenMethod::Dense,
                h: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let lanczos = spectral_bound(
            &g,
            m,
            &BoundOptions {
                method: EigenMethod::Lanczos(LanczosOptions::default()),
                h: 30,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (dense.bound - lanczos.bound).abs() < 1e-4 * (1.0 + dense.bound),
            "dense={} lanczos={}",
            dense.bound,
            lanczos.bound
        );
        assert_eq!(dense.best_k, lanczos.best_k);
    }

    #[test]
    fn inner_product_bound_is_trivial_for_large_memory() {
        let g = inner_product(2);
        let b = spectral_bound(&g, 100, &default_opts()).unwrap();
        assert_eq!(b.bound, 0.0);
        assert!(b.raw < 0.0);
    }

    #[test]
    fn fft_bound_is_nontrivial_for_small_memory() {
        // At l = 6 the bound only clears the 2kM penalty for tiny M (the
        // paper's §5.2 closed form is likewise trivial at M = 4, l = 6).
        let g = fft_butterfly(6);
        let b = spectral_bound(&g, 1, &default_opts()).unwrap();
        assert!(b.bound > 0.0, "expected nontrivial bound, got {}", b.bound);
        assert!(b.best_k >= 2);
    }

    #[test]
    fn scale_tier_parse_round_trips() {
        for tier in [
            ScaleTier::Auto,
            ScaleTier::Dense,
            ScaleTier::Sparse,
            ScaleTier::Huge,
        ] {
            assert_eq!(ScaleTier::parse(tier.as_str()), Some(tier));
        }
        assert_eq!(ScaleTier::parse("fast"), None);
        assert_eq!(ScaleTier::parse(""), None);
    }

    #[test]
    fn schedule_pins_solver_per_graph_size() {
        // The dense→sparse crossover regression (the once-12-second cold
        // diamond_dag solve): n = 1600 must never dispatch densely again,
        // and the dense cutoff sits exactly at DENSE_CUTOFF.
        let at_cutoff = BoundOptions::for_graph_size(DENSE_CUTOFF);
        assert!(matches!(at_cutoff.method, EigenMethod::Dense));
        assert_eq!(at_cutoff.h, 100);
        let past_cutoff = BoundOptions::for_graph_size(DENSE_CUTOFF + 1);
        assert!(matches!(past_cutoff.method, EigenMethod::Lanczos(_)));
        assert_eq!(past_cutoff.h, 48);
        let diamond_40 = BoundOptions::for_graph_size(1600);
        assert!(matches!(diamond_40.method, EigenMethod::Lanczos(_)));
        let at_huge = BoundOptions::for_graph_size(HUGE_CUTOFF);
        assert!(matches!(at_huge.method, EigenMethod::Lanczos(_)));
        assert_eq!(at_huge.h, 32);
        let past_huge = BoundOptions::for_graph_size(HUGE_CUTOFF + 1);
        assert!(matches!(past_huge.method, EigenMethod::RitzSweep(_)));
        assert_eq!(past_huge.h, 8);
    }

    #[test]
    fn explicit_tier_overrides_graph_size() {
        let forced_dense = BoundOptions::for_graph_size_in_tier(1 << 20, ScaleTier::Dense);
        assert!(matches!(forced_dense.method, EigenMethod::Dense));
        let forced_huge = BoundOptions::for_graph_size_in_tier(10, ScaleTier::Huge);
        assert!(matches!(forced_huge.method, EigenMethod::RitzSweep(_)));
        let forced_sparse = BoundOptions::for_graph_size_in_tier(10, ScaleTier::Sparse);
        assert!(matches!(forced_sparse.method, EigenMethod::Lanczos(_)));
    }

    #[test]
    fn auto_method_resolves_through_tiers() {
        let opts = BoundOptions::default();
        assert!(matches!(
            opts.resolved_method(DENSE_CUTOFF),
            EigenMethod::Dense
        ));
        assert!(matches!(
            opts.resolved_method(DENSE_CUTOFF + 1),
            EigenMethod::Lanczos(_)
        ));
        assert!(matches!(
            opts.resolved_method(HUGE_CUTOFF + 1),
            EigenMethod::RitzSweep(_)
        ));
        // Explicit methods are never re-resolved.
        let dense = BoundOptions {
            method: EigenMethod::Dense,
            ..Default::default()
        };
        assert!(matches!(dense.resolved_method(1 << 20), EigenMethod::Dense));
    }

    #[test]
    fn ritz_sweep_method_agrees_with_dense_on_small_graph() {
        let g = fft_butterfly(4); // n = 80
        let m = 4;
        let dense = spectral_bound(
            &g,
            m,
            &BoundOptions {
                method: EigenMethod::Dense,
                h: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let ritz = spectral_bound(
            &g,
            m,
            &BoundOptions {
                method: EigenMethod::RitzSweep(RitzSweepOptions {
                    steps: 64,
                    ..Default::default()
                }),
                h: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (dense.bound - ritz.bound).abs() < 1e-3 * (1.0 + dense.bound),
            "dense={} ritz={}",
            dense.bound,
            ritz.bound
        );
    }

    #[test]
    fn h_of_one_degenerates_to_zero() {
        let g = inner_product(2);
        let b = spectral_bound(
            &g,
            1,
            &BoundOptions {
                h: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(b.best_k, 0);
        assert_eq!(b.bound, 0.0);
    }
}
