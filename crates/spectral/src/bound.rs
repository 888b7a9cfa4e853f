//! The spectral I/O lower bounds: Theorems 4, 5 and 6.
//!
//! Given the `h` smallest Laplacian eigenvalues `λ₁ ≤ … ≤ λ_h`, every
//! segment count `k ≤ h` certifies a lower bound
//! `⌊n/k⌋ · Σᵢ₌₁ᵏ λᵢ − 2kM` (Theorem 4), so the reported bound maximizes
//! over `k ∈ {2, …, h}` — mirroring the paper's solver, which fixes
//! `h = 100` and notes (§6.5) that the best `k` empirically stays far below
//! that. Eigenvalues come from the dense O(n³) solver for small graphs and
//! from deflated Lanczos (O(hn²)) for large sparse ones.

use crate::engine::LaplacianKind;
use graphio_graph::CompGraph;
use graphio_linalg::{
    eigenvalues_symmetric_in_place, lanczos, CsrMatrix, LanczosOptions, LinalgError,
};

/// Up to this vertex count [`ScaleTier::of`] solves densely — the O(n³)
/// solver beats Lanczos there and is exact. (Lowered from the original
/// 640: profiling showed deflated Lanczos already strictly faster by
/// n ≈ 500, e.g. the once-12-second cold `diamond_dag(40,40)` analyze.)
pub const DENSE_CUTOFF: usize = 448;

/// Above this vertex count a served analysis runs no eigensolve — a
/// certified solve there costs far more than the rest of the analysis —
/// and serves its spectral bounds as `null`. The solver tiers do not
/// switch here: a direct call past it still gets a certified Lanczos
/// solve. Defined in `graphio_linalg` because the min-cut baseline
/// switches at the same n.
pub use graphio_linalg::HUGE_CUTOFF;

/// Whether an `n`-vertex analysis serves spectral bounds: up to
/// [`HUGE_CUTOFF`] vertices it eigensolves on a certified tier (`dense`
/// or `lanczos`), whose bounds are proven lower bounds; past it, it runs
/// no eigensolve and serves them as `null`.
pub fn is_certified(n: usize) -> bool {
    n <= HUGE_CUTOFF
}

/// Which solver tier [`BoundOptions::for_graph_size`] and the `Auto`
/// eigensolver method dispatch to — a pure function of the vertex count
/// ([`ScaleTier::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTier {
    /// Dense O(n³) solver — exact, O(n²) memory. Forcing it on a huge
    /// graph (`for_graph_size_in_tier`) is the caller's own funeral.
    Dense,
    /// Deflated Lanczos — certified extreme eigenvalues with verified
    /// multiplicities, cost O(sweeps · subspace · n).
    Sparse,
}

impl ScaleTier {
    /// The tier an `n`-vertex graph is solved on: `Dense` up to
    /// [`DENSE_CUTOFF`], `Sparse` beyond.
    pub fn of(n: usize) -> ScaleTier {
        if n <= DENSE_CUTOFF {
            ScaleTier::Dense
        } else {
            ScaleTier::Sparse
        }
    }
}

/// How eigenvalues are computed.
#[derive(Debug, Clone, Default)]
pub enum EigenMethod {
    /// Resolved by [`ScaleTier::of`]: dense when `n ≤ DENSE_CUTOFF`,
    /// deflated Lanczos beyond.
    #[default]
    Auto,
    /// Always the dense O(n³) solver (exact; memory O(n²)).
    Dense,
    /// Always deflated Lanczos with these options.
    Lanczos(LanczosOptions),
}

/// Options for the spectral bounds.
#[derive(Debug, Clone)]
pub struct BoundOptions {
    /// Number of smallest eigenvalues to compute (the paper's `h = 100`).
    /// Clamped to `n`.
    pub h: usize,
    /// Eigensolver selection.
    pub method: EigenMethod,
    /// If set, evaluate only this `k` instead of maximizing over
    /// `2..=h` — used by closed-form comparisons (e.g. `k = 2` in §5.3).
    pub fixed_k: Option<usize>,
}

impl Default for BoundOptions {
    fn default() -> Self {
        BoundOptions {
            h: 100,
            method: EigenMethod::Auto,
            fixed_k: None,
        }
    }
}

impl BoundOptions {
    /// Eigensolver settings scaled to graph size — the single tuning
    /// schedule shared by the CLI, the bench harness and the engine — on
    /// the tier [`ScaleTier::of`] picks.
    ///
    /// The paper fixes `h = 100`; past the dense cutoff we shrink `h` (the
    /// optimal `k` stays far below it, §6.5) to keep the deflated-Lanczos
    /// deflation count down.
    pub fn for_graph_size(n: usize) -> Self {
        Self::for_graph_size_in_tier(n, ScaleTier::of(n))
    }

    /// [`BoundOptions::for_graph_size`] on an explicit tier (timing
    /// probes and tests that force a solver).
    pub fn for_graph_size_in_tier(n: usize, tier: ScaleTier) -> Self {
        let (h, method) = match tier {
            ScaleTier::Dense => (100, EigenMethod::Dense),
            ScaleTier::Sparse => (
                if n > 16_000 { 32 } else { 48 },
                EigenMethod::Lanczos(LanczosOptions {
                    subspace: 96,
                    tol: 1e-8,
                    ..Default::default()
                }),
            ),
        };
        BoundOptions {
            h,
            method,
            ..Default::default()
        }
    }

    /// The concrete solver an eigensolve with these options runs on an
    /// `n`-vertex operator — `Auto` resolved by [`ScaleTier::of`]. Never
    /// returns [`EigenMethod::Auto`]. The engine's cache keys are derived
    /// from this exact resolution.
    pub fn resolved_method(&self, n: usize) -> EigenMethod {
        match &self.method {
            EigenMethod::Auto => match ScaleTier::of(n) {
                ScaleTier::Dense => EigenMethod::Dense,
                ScaleTier::Sparse => EigenMethod::Lanczos(LanczosOptions::default()),
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

/// One of the paper's bounds, as an evaluation of a Laplacian spectrum.
/// [`Theorem::evaluate`] is the one place each theorem's form is written:
/// the direct entry points below and the engine's cached ones both call it.
#[derive(Clone, Copy)]
pub(crate) enum Theorem {
    /// Theorem 4: `max_k ⌊n/k⌋·Σᵢ₌₁ᵏ λᵢ(L̃) − 2kM`.
    Four,
    /// Theorem 5: the same form on `λ(L)`, scaled by `1/max_v d_out(v)`.
    Five,
    /// Theorem 6 with `p` processors: `max_k ⌊n/(kp)⌋·Σᵢ₌₁ᵏ λᵢ(L̃) − 2kM`.
    Six(usize),
}

impl Theorem {
    /// The Laplacian whose spectrum the theorem reads.
    pub(crate) fn laplacian(self) -> LaplacianKind {
        match self {
            Theorem::Four | Theorem::Six(_) => LaplacianKind::Normalized,
            Theorem::Five => LaplacianKind::Unnormalized,
        }
    }

    /// The bound on `g` at `memory` from the smallest eigenvalues of
    /// [`Theorem::laplacian`].
    ///
    /// # Panics
    /// Panics on Theorem 6 with zero processors.
    pub(crate) fn evaluate(
        self,
        g: &CompGraph,
        eigs: &[f64],
        memory: usize,
        fixed_k: Option<usize>,
    ) -> SpectralBound {
        let (processors, scale) = match self {
            Theorem::Four => (1, 1.0),
            Theorem::Five => (1, 1.0 / g.max_out_degree().max(1) as f64),
            Theorem::Six(p) => {
                assert!(p >= 1, "need at least one processor");
                (p, 1.0)
            }
        };
        bound_from_eigenvalues(eigs, g.n(), memory, processors, scale, fixed_k)
    }

    /// Builds the Laplacian, eigensolves it and evaluates — no caching.
    fn direct(
        self,
        g: &CompGraph,
        memory: usize,
        opts: &BoundOptions,
    ) -> Result<SpectralBound, LinalgError> {
        let eigs = smallest_eigenvalues(&self.laplacian().build(g), opts)?;
        Ok(self.evaluate(g, &eigs, memory, opts.fixed_k))
    }
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
    Theorem::Four.direct(g, memory, opts)
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
    Theorem::Five.direct(g, memory, opts)
}

/// Theorem 6: with `p` processors of local memory `M`, at least one
/// processor incurs `J* ≥ max_k ⌊n/(kp)⌋·Σᵢ₌₁ᵏ λᵢ(L̃) − 2kM`.
///
/// # Errors
/// Propagates eigensolver failures ([`LinalgError`]).
///
/// # Panics
/// Panics if `processors == 0`.
pub fn parallel_spectral_bound(
    g: &CompGraph,
    memory: usize,
    processors: usize,
    opts: &BoundOptions,
) -> Result<SpectralBound, LinalgError> {
    Theorem::Six(processors).direct(g, memory, opts)
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
            let mut vals = eigenvalues_symmetric_in_place(&mut lap.to_dense())?;
            vals.truncate(h);
            Ok(vals)
        }
        EigenMethod::Lanczos(lopts) => {
            graphio_linalg::stats::record_sparse_eigensolve();
            Ok(lanczos::smallest_eigenvalues(lap, h, &lopts)?.values)
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
        // A direct call past the huge cutoff still gets a certified solve.
        let past_huge = BoundOptions::for_graph_size(HUGE_CUTOFF + 1);
        assert!(matches!(past_huge.method, EigenMethod::Lanczos(_)));
        assert_eq!(past_huge.h, 32);
    }

    #[test]
    fn explicit_tier_overrides_graph_size() {
        let forced_dense = BoundOptions::for_graph_size_in_tier(1 << 20, ScaleTier::Dense);
        assert!(matches!(forced_dense.method, EigenMethod::Dense));
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
            EigenMethod::Lanczos(_)
        ));
        // Explicit methods are never re-resolved.
        let dense = BoundOptions {
            method: EigenMethod::Dense,
            ..Default::default()
        };
        assert!(matches!(dense.resolved_method(1 << 20), EigenMethod::Dense));
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
