//! Lanczos iteration with full re-orthogonalization and eigenvector
//! deflation ("locking") for the `h` smallest eigenvalues of a symmetric
//! operator — *with multiplicity*.
//!
//! Why deflation: graph Laplacians of the structured graphs in the paper
//! (hypercubes, butterflies) have eigenvalues of enormous multiplicity, and
//! a single Krylov subspace can represent at most one Ritz pair per distinct
//! eigenvalue. The spectral bound of Theorem 4 sums the `k` smallest
//! eigenvalues *counting multiplicity*, so we must recover copies. Each
//! sweep locks the converged Ritz pairs at the bottom of the remaining
//! spectrum, then restarts against the orthogonal complement of everything
//! locked; repeated eigenvalues re-appear in later sweeps until their
//! eigenspaces are exhausted. Locking is capped at what the answer can
//! use: once `h` values are locked, a sweep stops locking at the first
//! candidate at or above the h-th smallest locked value (candidates come
//! in ascending order, so nothing it skips could enter the answer).
//!
//! Orthogonality is kept by classical Gram–Schmidt against the locked set
//! and the basis. The second pass of CGS2 is gated by the DGKS test: it
//! runs only when the first pass shrank the residual below `1/√2` of its
//! norm, which the three-term recurrence makes rare — it has already
//! removed the large components.
//!
//! The smallest eigenvalues of `A` are obtained as the *largest* of
//! `σI − A` (σ = Gershgorin or power-iteration bound), where Lanczos
//! converges fastest. Cost is `O(matvecs · nnz + m²n)` per sweep, matching
//! the `O(hn²)` scalability claim of the paper's §6.5.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::linop::{LinOp, ShiftedNegated};
use crate::power::power_iteration;
use crate::tridiag::tql_in_place;
use crate::vecops::{
    axpy, axpy_many, dot, norm2, normalize, orthogonalize_against, orthogonalize_against_cgs, scal,
};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`smallest_eigenvalues`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Lanczos steps per sweep (the Krylov subspace dimension). Doubled
    /// automatically (up to the operator dimension) when a sweep locks
    /// nothing.
    pub subspace: usize,
    /// Relative residual tolerance for accepting a Ritz pair
    /// (`‖Av − θv‖ ≤ tol · scale`).
    pub tol: f64,
    /// Maximum number of restart sweeps before giving up.
    pub max_sweeps: usize,
    /// RNG seed for start vectors (results are deterministic given a seed).
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            subspace: 96,
            tol: 1e-9,
            max_sweeps: 512,
            seed: 0x5eed,
        }
    }
}

/// Above this operator dimension the deflated solver bounds its CGS2
/// re-orthogonalization window (full re-orthogonalization is O(m²n) per
/// sweep, which dominates everything else at scale).
const BOUNDED_REORTH_MIN_N: usize = 1 << 18;

/// CGS2 window for [`smallest_eigenvalues`] at dimension `n` — derived
/// from `n` alone (never an option) so a given operator always reduces
/// the same way and cache keys stay exact.
fn reorth_window_for(n: usize) -> usize {
    if n >= BOUNDED_REORTH_MIN_N {
        32
    } else {
        usize::MAX
    }
}

/// DGKS threshold (Daniel, Gragg, Kaufman & Stewart, 1976) for the second
/// CGS pass of [`lanczos_sweep`]. If the first pass kept at least `1/√2`
/// of `‖w‖`, the components it removed were small against `w` and what
/// remains along the basis is rounding; a larger drop means cancellation,
/// and a second pass restores orthogonality. A constant, never an option.
const DGKS_RATIO: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Options for [`extreme_ritz_values`] — the fixed-cost single-sweep path
/// the huge-`n` scale tier uses.
#[derive(Debug, Clone)]
pub struct RitzSweepOptions {
    /// Lanczos steps (= Krylov dimension = the exact mat-vec budget).
    pub steps: usize,
    /// CGS2 re-orthogonalization window: each new basis vector is
    /// orthogonalized (one pass, and a second when the DGKS test asks for
    /// it) against only the trailing `window` basis vectors.
    pub reorth_window: usize,
    /// RNG seed for the start vector.
    pub seed: u64,
}

impl Default for RitzSweepOptions {
    fn default() -> Self {
        RitzSweepOptions {
            steps: 96,
            reorth_window: 16,
            seed: 0x5eed,
        }
    }
}

/// Estimates the `h` smallest eigenvalues of `op` from a **single**
/// bounded-window Lanczos sweep: `steps` mat-vecs, then the top `h` Ritz
/// values of the shifted operator, unshifted and sorted ascending.
///
/// This is the huge-`n` scale tier's solver. Unlike
/// [`smallest_eigenvalues`] it never restarts, never widens the subspace,
/// and does not verify multiplicities — its cost is exactly
/// `steps · (matvec + O(window · n))`, deterministic for a given seed.
/// The returned values are Ritz *estimates*: each is an upper bound on
/// the correspondingly-indexed true eigenvalue (Cauchy interlacing), with
/// error governed by the Kaniel–Paige convergence theory rather than a
/// residual tolerance, and repeated eigenvalues are represented once per
/// Krylov subspace. Callers that need certified values at this scale must
/// pay for the deflated solver instead.
///
/// # Errors
/// * [`LinalgError::TooManyEigenvaluesRequested`] if `h > op.dim()`.
pub fn extreme_ritz_values<A: LinOp + ?Sized>(
    op: &A,
    h: usize,
    opts: &RitzSweepOptions,
) -> Result<LanczosResult> {
    let _span = graphio_obs::span!("ritz_sweep");
    let n = op.dim();
    if h > n {
        return Err(LinalgError::TooManyEigenvaluesRequested {
            requested: h,
            dimension: n,
        });
    }
    if h == 0 || n == 0 {
        return Ok(LanczosResult {
            values: Vec::new(),
            sweeps: 0,
            matvecs: 0,
            converged: true,
        });
    }
    let mut matvecs = 0usize;
    let sigma = match op.eigen_upper_bound() {
        Some(s) => s,
        None => {
            let p = power_iteration(op, 2000, 1e-10, 0xacc0)?;
            matvecs += p.iterations;
            p.value.abs() * 1.05 + 1e-9
        }
    };
    let shifted = ShiftedNegated::new(op, sigma);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut v0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    normalize(&mut v0);
    let steps = opts.steps.clamp(h, n);
    let sweep = lanczos_sweep(
        &shifted,
        v0,
        steps,
        &[],
        opts.reorth_window.max(2),
        &mut matvecs,
    );
    let analysis = RitzAnalysis::of(&sweep)?;
    let m = analysis.theta.len();
    let take = h.min(m);
    // Top of the shifted spectrum = bottom of the original.
    let mut values: Vec<f64> = analysis.theta[m - take..]
        .iter()
        .map(|&t| shifted.unshift(t))
        .collect();
    values.sort_by(f64::total_cmp);
    Ok(LanczosResult {
        values,
        sweeps: 1,
        matvecs,
        converged: true,
    })
}

/// Outcome of [`smallest_eigenvalues`].
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// The locked eigenvalues of the original operator, sorted ascending.
    /// Contains exactly `h` values when `converged` is true.
    pub values: Vec<f64>,
    /// Restart sweeps performed.
    pub sweeps: usize,
    /// Operator applications performed.
    pub matvecs: usize,
    /// Whether all `h` requested eigenvalues were locked.
    pub converged: bool,
}

/// Computes the `h` smallest eigenvalues (ascending, with multiplicity) of
/// the symmetric operator `op`.
///
/// # Errors
/// * [`LinalgError::TooManyEigenvaluesRequested`] if `h > op.dim()`.
/// * [`LinalgError::NoConvergence`] if the sweep budget is exhausted before
///   `h` eigenpairs are locked.
pub fn smallest_eigenvalues<A: LinOp + ?Sized>(
    op: &A,
    h: usize,
    opts: &LanczosOptions,
) -> Result<LanczosResult> {
    let _span = graphio_obs::span!("lanczos");
    let n = op.dim();
    if h > n {
        return Err(LinalgError::TooManyEigenvaluesRequested {
            requested: h,
            dimension: n,
        });
    }
    if h == 0 || n == 0 {
        return Ok(LanczosResult {
            values: Vec::new(),
            sweeps: 0,
            matvecs: 0,
            converged: true,
        });
    }

    let mut matvecs = 0usize;
    // Spectral shift so the target eigenvalues become dominant.
    let sigma = match op.eigen_upper_bound() {
        Some(s) => s,
        None => {
            let p = power_iteration(op, 2000, 1e-10, 0xacc0)?;
            matvecs += p.iterations;
            // Dominant-in-magnitude estimate, inflated for safety.
            p.value.abs() * 1.05 + 1e-9
        }
    };
    let scale = sigma.abs().max(1.0);
    let tol = opts.tol * scale;
    let shifted = ShiftedNegated::new(op, sigma);

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut locked_vecs: Vec<Vec<f64>> = Vec::with_capacity(h);
    let mut locked_vals: Vec<f64> = Vec::with_capacity(h);
    let mut sweeps = 0usize;
    let mut subspace = opts.subspace.clamp(2, n);
    // `locked.len() >= h` alone is NOT a sound stop: each sweep locks at
    // most one copy of each distinct eigenvalue, so with high-multiplicity
    // spectra the locked set can contain deep eigenvalues while copies of
    // shallow ones are still un-locked. We therefore also require
    // verification: a sweep whose *top* Ritz pair is converged and lies at
    // or above the h-th smallest locked value proves nothing smaller
    // remains in the deflated operator.
    let mut verified = false;
    let slack = 8.0 * tol + 1e-12;

    while sweeps < opts.max_sweeps {
        if locked_vecs.len() == n {
            verified = true;
        }
        if locked_vecs.len() >= h && verified {
            break;
        }
        sweeps += 1;
        let budget = subspace.min(n - locked_vecs.len());
        let Some(v0) = random_orthogonal_start(n, &locked_vecs, &mut rng) else {
            // The complement of the locked space is numerically exhausted.
            verified = true;
            break;
        };
        let sweep = lanczos_sweep(
            &shifted,
            v0,
            budget,
            &locked_vecs,
            reorth_window_for(n),
            &mut matvecs,
        );
        let analysis = RitzAnalysis::of(&sweep)?;
        if locked_vecs.len() >= h {
            if let Some(remaining_min) = analysis.top_converged_value(tol, &shifted) {
                let kth = kth_smallest(&locked_vals, h);
                if remaining_min >= kth - slack {
                    verified = true;
                    break;
                }
            }
        }
        let newly = lock_converged(
            &sweep,
            &analysis,
            tol,
            h,
            &shifted,
            &mut locked_vecs,
            &mut locked_vals,
        );
        if newly == 0 {
            // Stagnation: widen the Krylov subspace (up to n) and try again.
            subspace = (subspace * 2).min(n);
        }
    }

    let converged = locked_vecs.len() >= h && verified;
    if !converged {
        return Err(LinalgError::NoConvergence {
            algorithm: "deflated Lanczos",
            iterations: sweeps,
        });
    }
    locked_vals.sort_by(f64::total_cmp);
    locked_vals.truncate(h);
    Ok(LanczosResult {
        values: locked_vals,
        sweeps,
        matvecs,
        converged,
    })
}

/// The h-th smallest element (1-indexed: `h >= 1`) of `vals`.
fn kth_smallest(vals: &[f64], h: usize) -> f64 {
    let mut sorted = vals.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[h - 1]
}

/// Raw output of one Lanczos sweep.
struct Sweep {
    /// Orthonormal Krylov basis vectors `v_0..v_{m-1}`.
    basis: Vec<Vec<f64>>,
    /// Diagonal of the Lanczos tridiagonal matrix.
    alphas: Vec<f64>,
    /// Off-diagonal (`betas[j]` couples steps `j` and `j+1`); the final
    /// entry is the residual norm used in convergence estimates.
    betas: Vec<f64>,
    /// Whether the sweep terminated with an (numerically) invariant
    /// subspace, making every Ritz pair exact.
    invariant: bool,
    /// Steps whose DGKS test ran the second CGS pass (read by the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    second_passes: usize,
}

/// One Lanczos sweep of at most `budget` steps from the unit vector `v0`,
/// kept orthogonal to `locked` and (within the trailing `window` vectors)
/// to its own basis.
///
/// Each step's residual `w` is re-orthogonalized by one CGS pass against
/// `locked`, then the window. A second pass runs only when the first left
/// `‖w‖` below [`DGKS_RATIO`] (`1/√2`) of its value before the pass, and
/// `β` is the norm after the last pass that ran.
fn lanczos_sweep<A: LinOp + ?Sized>(
    op: &A,
    v0: Vec<f64>,
    budget: usize,
    locked: &[Vec<f64>],
    window: usize,
    matvecs: &mut usize,
) -> Sweep {
    let n = v0.len();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(budget);
    let mut alphas: Vec<f64> = Vec::with_capacity(budget);
    let mut betas: Vec<f64> = Vec::with_capacity(budget);
    let mut v = v0;
    let mut w = vec![0.0; n];
    let mut invariant = false;
    let mut second_passes = 0usize;

    for j in 0..budget {
        basis.push(v.clone());
        op.apply(&v, &mut w);
        *matvecs += 1;
        let alpha = dot(&w, &v);
        alphas.push(alpha);
        axpy(-alpha, &v, &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        // Re-orthogonalization: one classical GS pass against the locked
        // set and the window, and a second pass (CGS2, "twice is enough")
        // only when the DGKS test asks for it. This O(m·n) step is the
        // Lanczos bottleneck on large graphs — which is why huge operators
        // bound the window to the trailing basis vectors (locked vectors
        // are always swept in full; there are at most `h` of them).
        let w0 = basis.len().saturating_sub(window);
        let before = norm2(&w);
        orthogonalize_against_cgs(&mut w, locked);
        orthogonalize_against_cgs(&mut w, &basis[w0..]);
        let mut beta = norm2(&w);
        if beta < DGKS_RATIO * before {
            orthogonalize_against_cgs(&mut w, locked);
            orthogonalize_against_cgs(&mut w, &basis[w0..]);
            beta = norm2(&w);
            second_passes += 1;
        }
        betas.push(beta);
        if beta <= f64::EPSILON * 64.0 * (1.0 + alpha.abs()) {
            invariant = true;
            break;
        }
        scal(1.0 / beta, &mut w);
        std::mem::swap(&mut v, &mut w);
    }
    Sweep {
        basis,
        alphas,
        betas,
        invariant,
        second_passes,
    }
}

/// Ritz data extracted from a sweep's tridiagonal matrix.
struct RitzAnalysis {
    /// Ritz values of the shifted operator, ascending (index `m-1` is the
    /// top of the shifted spectrum = bottom of the original spectrum).
    theta: Vec<f64>,
    /// Eigenvectors of the tridiagonal matrix (columns match `theta`).
    z: DenseMatrix,
    /// Final off-diagonal entry (0 when the subspace is invariant).
    beta_last: f64,
    /// Whether the sweep hit an invariant subspace (all pairs exact).
    invariant: bool,
}

impl RitzAnalysis {
    fn of(sweep: &Sweep) -> Result<Self> {
        let m = sweep.alphas.len();
        let mut d = sweep.alphas.clone();
        let mut e = vec![0.0; m];
        if m > 1 {
            e[1..m].copy_from_slice(&sweep.betas[..m - 1]);
        }
        let mut z = DenseMatrix::identity(m);
        tql_in_place(&mut d, &mut e, Some(&mut z))?;
        let beta_last = if sweep.invariant || m == 0 {
            0.0
        } else {
            sweep.betas[m - 1]
        };
        Ok(RitzAnalysis {
            theta: d,
            z,
            beta_last,
            invariant: sweep.invariant,
        })
    }

    fn residual(&self, idx: usize) -> f64 {
        let m = self.theta.len();
        (self.beta_last * self.z[(m - 1, idx)]).abs()
    }

    /// If the top Ritz pair is converged, the smallest eigenvalue of the
    /// deflated *original* operator (within tolerance); `None` otherwise.
    fn top_converged_value<A: LinOp + ?Sized>(
        &self,
        tol: f64,
        shifted: &ShiftedNegated<'_, A>,
    ) -> Option<f64> {
        let m = self.theta.len();
        if m == 0 {
            return None;
        }
        if self.invariant || self.residual(m - 1) <= tol {
            Some(shifted.unshift(self.theta[m - 1]))
        } else {
            None
        }
    }
}

/// Locks converged Ritz pairs from the *top* of the shifted spectrum (the
/// bottom of the original), stopping at the first unconverged pair so the
/// locked set never skips an eigenvalue. Returns the number locked.
///
/// Locking is capped by what the answer can use: once `h` values are
/// locked, it also stops at the first candidate at or above the current
/// h-th smallest locked value. Candidates arrive in ascending order, so
/// nothing after that one can enter the `h` smallest either — and every
/// vector it does not lock is one fewer to re-orthogonalize against.
fn lock_converged<A: LinOp + ?Sized>(
    sweep: &Sweep,
    analysis: &RitzAnalysis,
    tol: f64,
    h: usize,
    shifted: &ShiftedNegated<'_, A>,
    locked_vecs: &mut Vec<Vec<f64>>,
    locked_vals: &mut Vec<f64>,
) -> usize {
    let m = analysis.theta.len();
    if m == 0 {
        return 0;
    }
    let z = &analysis.z;
    let n = sweep.basis[0].len();
    let mut newly = 0usize;
    for idx in (0..m).rev() {
        if analysis.residual(idx) > tol && !analysis.invariant {
            break;
        }
        let value = shifted.unshift(analysis.theta[idx]);
        if locked_vals.len() >= h && value >= kth_smallest(locked_vals, h) {
            break;
        }
        // Assemble the Ritz vector y = V z_idx.
        let coeffs: Vec<f64> = (0..m).map(|jj| z[(jj, idx)]).collect();
        let mut y = vec![0.0; n];
        axpy_many(&coeffs, &sweep.basis, &mut y);
        orthogonalize_against(&mut y, locked_vecs);
        if normalize(&mut y) < 1e-6 {
            // Numerically dependent on already-locked vectors; skip it.
            continue;
        }
        locked_vecs.push(y);
        locked_vals.push(value);
        newly += 1;
    }
    newly
}

/// Draws a random unit vector orthogonal to `locked`. Returns `None` when
/// the complement appears numerically empty.
fn random_orthogonal_start(n: usize, locked: &[Vec<f64>], rng: &mut StdRng) -> Option<Vec<f64>> {
    for _ in 0..64 {
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        normalize(&mut v);
        for _ in 0..2 {
            orthogonalize_against(&mut v, locked);
        }
        if normalize(&mut v) > 1e-6 {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-parallel array comparisons read clearest
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::symeig::eigenvalues_symmetric;

    /// Laplacian of the boolean hypercube Q_d (eigenvalue 2i with
    /// multiplicity C(d, i)) — the multiplicity stress test.
    fn hypercube_laplacian(d: usize) -> CsrMatrix {
        let n = 1usize << d;
        let mut trips = Vec::new();
        for u in 0..n {
            trips.push((u, u, d as f64));
            for b in 0..d {
                let v = u ^ (1 << b);
                trips.push((u, v, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, &trips).unwrap()
    }

    /// Laplacian of a random sparse graph: each vertex joined to three
    /// random others (distinct eigenvalues, so sweeps run their budget).
    fn random_laplacian(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deg = vec![0.0; n];
        let mut trips = Vec::new();
        for u in 0..n {
            for _ in 0..3 {
                let v = rng.gen_range(0..n);
                if v != u {
                    trips.push((u, v, -1.0));
                    trips.push((v, u, -1.0));
                    deg[u] += 1.0;
                    deg[v] += 1.0;
                }
            }
        }
        trips.extend(deg.iter().enumerate().map(|(u, &d)| (u, u, d)));
        CsrMatrix::from_triplets(n, &trips).unwrap()
    }

    /// `max |VᵀV − I|` over a sweep's basis and `max |Vᵀ·locked|`.
    fn orthogonality(sweep: &Sweep, locked: &[Vec<f64>]) -> (f64, f64) {
        let mut self_dev = 0.0f64;
        for (i, a) in sweep.basis.iter().enumerate() {
            for (j, b) in sweep.basis.iter().enumerate() {
                let target = if i == j { 1.0 } else { 0.0 };
                self_dev = self_dev.max((dot(a, b) - target).abs());
            }
        }
        let locked_dev = sweep
            .basis
            .iter()
            .flat_map(|a| locked.iter().map(move |y| dot(a, y).abs()))
            .fold(0.0, f64::max);
        (self_dev, locked_dev)
    }

    /// A locked set the way the solver builds one: the converged Ritz
    /// vectors of a first sweep of `σI − A`.
    fn locked_after_first_sweep<A: LinOp + ?Sized>(
        shifted: &ShiftedNegated<'_, A>,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        let n = shifted.dim();
        let v0 = random_orthogonal_start(n, &[], rng).unwrap();
        let sweep = lanczos_sweep(shifted, v0, 96.min(n), &[], usize::MAX, &mut 0);
        let analysis = RitzAnalysis::of(&sweep).unwrap();
        let (mut vecs, mut vals) = (Vec::new(), Vec::new());
        lock_converged(&sweep, &analysis, 1e-9, 8, shifted, &mut vecs, &mut vals);
        assert!(!vecs.is_empty(), "first sweep locked nothing");
        vecs
    }

    #[test]
    fn dgks_gate_skips_most_second_passes_and_keeps_the_basis_orthogonal() {
        let mut rng = StdRng::seed_from_u64(0xd6c5);
        for (name, a) in [
            ("Q_8", hypercube_laplacian(8)),
            ("random", random_laplacian(300, 5)),
        ] {
            let shifted = ShiftedNegated::new(&a, a.eigen_upper_bound().unwrap());
            let locked = locked_after_first_sweep(&shifted, &mut rng);
            let v0 = random_orthogonal_start(a.dim(), &locked, &mut rng).unwrap();
            let sweep = lanczos_sweep(&shifted, v0, 96, &locked, usize::MAX, &mut 0);
            let (self_dev, locked_dev) = orthogonality(&sweep, &locked);
            assert!(self_dev <= 1e-12, "{name}: |VᵀV − I| = {self_dev:e}");
            assert!(locked_dev <= 1e-12, "{name}: |Vᵀ·locked| = {locked_dev:e}");
            let steps = sweep.alphas.len();
            assert!(
                2 * sweep.second_passes < steps,
                "{name}: second pass on {} of {steps} steps",
                sweep.second_passes
            );
        }
    }

    #[test]
    fn dgks_gate_fires_near_breakdown() {
        // Start within 1e-10 of the invariant subspace spanned by two
        // hypercube characters (exact eigenvectors of Q_8, eigenvalues 2
        // and 4), against a locked vector that — like any locked Ritz
        // vector — is an eigenvector only to about the locking tolerance
        // (a third character perturbed by 1e-8). After one step the true
        // residual is ~1e-10, smaller than what the locked vector's own
        // residual feeds into `w`, so the first pass cancels most of `w`
        // and the second pass must run.
        let a = hypercube_laplacian(8);
        let n = a.dim();
        let chi = |mask: usize| -> Vec<f64> {
            (0..n)
                .map(|u| {
                    if (u & mask).count_ones().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(17);
        let mut noise = |v: &[f64], size: f64| -> Vec<f64> {
            let mut out: Vec<f64> = v
                .iter()
                .map(|x| x + size * (rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            normalize(&mut out);
            out
        };
        let locked = vec![noise(&chi(0b1000), 1e-8)];
        let (c1, c2) = (chi(0b1), chi(0b110));
        let sum: Vec<f64> = c1.iter().zip(&c2).map(|(x, y)| x + y).collect();
        let mut v0 = noise(&sum, 1e-10);
        for _ in 0..2 {
            orthogonalize_against(&mut v0, &locked);
        }
        normalize(&mut v0);
        let shifted = ShiftedNegated::new(&a, a.eigen_upper_bound().unwrap());
        let sweep = lanczos_sweep(&shifted, v0, 96, &locked, usize::MAX, &mut 0);
        assert!(
            sweep.betas[1] < 1e-8,
            "not near breakdown: {:?}",
            &sweep.betas[..2]
        );
        assert!(sweep.second_passes >= 1, "the gate never fired");
        let (self_dev, locked_dev) = orthogonality(&sweep, &locked);
        assert!(self_dev <= 1e-12, "|VᵀV − I| = {self_dev:e}");
        assert!(locked_dev <= 1e-12, "|Vᵀ·locked| = {locked_dev:e}");
    }

    #[test]
    fn matches_dense_on_random_sparse() {
        let n = 60;
        let mut trips = Vec::new();
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..n {
            trips.push((i, i, 4.0 + rng.gen::<f64>()));
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v = rng.gen::<f64>() - 0.5;
                    trips.push((i, j, v));
                    trips.push((j, i, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(n, &trips).unwrap();
        let dense_vals = eigenvalues_symmetric(&a.to_dense()).unwrap();
        let h = 12;
        let r = smallest_eigenvalues(&a, h, &LanczosOptions::default()).unwrap();
        assert!(r.converged);
        for i in 0..h {
            assert!(
                (r.values[i] - dense_vals[i]).abs() < 1e-6,
                "i={i}: {} vs {}",
                r.values[i],
                dense_vals[i]
            );
        }
    }

    #[test]
    fn recovers_hypercube_multiplicities() {
        // Q_5: eigenvalues 0 (x1), 2 (x5), 4 (x10), 6 (x10), 8 (x5), 10 (x1).
        let a = hypercube_laplacian(5);
        let h = 16; // 1 + 5 + 10 = 16 -> last value should be 4.
        let r = smallest_eigenvalues(&a, h, &LanczosOptions::default()).unwrap();
        assert!(r.converged);
        assert!(r.values[0].abs() < 1e-7);
        for i in 1..6 {
            assert!((r.values[i] - 2.0).abs() < 1e-7, "{}", r.values[i]);
        }
        for i in 6..16 {
            assert!((r.values[i] - 4.0).abs() < 1e-7, "{}", r.values[i]);
        }

        // Q_10 (eigenvalue 2i with multiplicity C(10, i)) with `h` cutting
        // through, then at the end of, the 45-fold eigenvalue 4 — the
        // capped locking must still deliver every copy the answer needs.
        let a = hypercube_laplacian(10);
        for (h, expect) in [
            (48, [(0.0, 1), (2.0, 10), (4.0, 37)].as_slice()),
            (56, [(0.0, 1), (2.0, 10), (4.0, 45)].as_slice()),
            (57, [(0.0, 1), (2.0, 10), (4.0, 45), (6.0, 1)].as_slice()),
        ] {
            let r = smallest_eigenvalues(&a, h, &LanczosOptions::default()).unwrap();
            assert!(r.converged);
            let expected: Vec<f64> = expect
                .iter()
                .flat_map(|&(value, copies)| std::iter::repeat_n(value, copies))
                .collect();
            assert_eq!(r.values.len(), h);
            for (i, (got, want)) in r.values.iter().zip(&expected).enumerate() {
                assert!((got - want).abs() < 1e-7, "h={h} i={i}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn full_spectrum_of_tiny_operator() {
        let a = hypercube_laplacian(3);
        let r = smallest_eigenvalues(&a, 8, &LanczosOptions::default()).unwrap();
        let expect = [0.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 6.0];
        for (v, x) in r.values.iter().zip(expect.iter()) {
            assert!((v - x).abs() < 1e-7, "{v} vs {x}");
        }
    }

    #[test]
    fn h_zero_is_trivial() {
        let a = hypercube_laplacian(2);
        let r = smallest_eigenvalues(&a, 0, &LanczosOptions::default()).unwrap();
        assert!(r.converged);
        assert!(r.values.is_empty());
    }

    #[test]
    fn too_many_requested_is_an_error() {
        let a = hypercube_laplacian(2);
        assert!(matches!(
            smallest_eigenvalues(&a, 5, &LanczosOptions::default()),
            Err(LinalgError::TooManyEigenvaluesRequested { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = hypercube_laplacian(4);
        let opts = LanczosOptions {
            seed: 99,
            ..Default::default()
        };
        let r1 = smallest_eigenvalues(&a, 6, &opts).unwrap();
        let r2 = smallest_eigenvalues(&a, 6, &opts).unwrap();
        assert_eq!(r1.values, r2.values);
        assert_eq!(r1.matvecs, r2.matvecs);
    }

    #[test]
    fn ritz_sweep_estimates_extreme_values() {
        // On a well-separated spectrum a single 48-step sweep nails the
        // smallest eigenvalues to far better than estimate accuracy.
        let n = 60;
        let mut trips = Vec::new();
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..n {
            trips.push((i, i, 4.0 + rng.gen::<f64>()));
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v = rng.gen::<f64>() - 0.5;
                    trips.push((i, j, v));
                    trips.push((j, i, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(n, &trips).unwrap();
        let dense_vals = eigenvalues_symmetric(&a.to_dense()).unwrap();
        let opts = RitzSweepOptions {
            steps: 48,
            ..Default::default()
        };
        let r = extreme_ritz_values(&a, 6, &opts).unwrap();
        assert_eq!(r.sweeps, 1);
        assert_eq!(r.values.len(), 6);
        for i in 0..6 {
            // Interlacing: each Ritz estimate sits at or above the true
            // eigenvalue of the same index.
            assert!(r.values[i] >= dense_vals[i] - 1e-9);
            assert!(
                (r.values[i] - dense_vals[i]).abs() < 1e-6,
                "i={i}: {} vs {}",
                r.values[i],
                dense_vals[i]
            );
        }
    }

    #[test]
    fn ritz_sweep_is_deterministic_and_fixed_cost() {
        let a = hypercube_laplacian(5);
        let opts = RitzSweepOptions {
            steps: 24,
            reorth_window: 8,
            seed: 7,
        };
        let r1 = extreme_ritz_values(&a, 4, &opts).unwrap();
        let r2 = extreme_ritz_values(&a, 4, &opts).unwrap();
        assert_eq!(r1.values, r2.values);
        assert_eq!(r1.matvecs, r2.matvecs);
        // Q_5's Laplacian has six distinct eigenvalues, so the Krylov
        // space exhausts (happy breakdown) after exactly six applications
        // — never the full 24-step budget. No power iteration runs either:
        // the operator's upper bound 2d is known analytically.
        assert_eq!(r1.matvecs, 6);
        assert!(r1.values[0].abs() < 1e-8, "{}", r1.values[0]);
    }

    #[test]
    fn ritz_sweep_rejects_oversized_h() {
        let a = hypercube_laplacian(2);
        assert!(matches!(
            extreme_ritz_values(&a, 5, &RitzSweepOptions::default()),
            Err(LinalgError::TooManyEigenvaluesRequested { .. })
        ));
    }

    #[test]
    fn small_subspace_still_converges_via_doubling() {
        let a = hypercube_laplacian(4);
        let opts = LanczosOptions {
            subspace: 2,
            ..Default::default()
        };
        let r = smallest_eigenvalues(&a, 8, &opts).unwrap();
        assert!(r.converged);
        let dense_vals = eigenvalues_symmetric(&a.to_dense()).unwrap();
        for i in 0..8 {
            assert!((r.values[i] - dense_vals[i]).abs() < 1e-6);
        }
    }
}
