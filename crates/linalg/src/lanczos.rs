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
//! eigenspaces are exhausted. A pair is locked only if it passes the
//! residual test `|β_m·z_{m,i}| ≤ tol·scale`, and the solve ends only after
//! a verification sweep from a fresh random start finds nothing below the
//! h-th smallest locked value.
//!
//! The sweep policy spends no work on vectors the answer cannot use:
//! * **A sweep ends at numerical invariance.** On a high-multiplicity
//!   spectrum the Krylov space of one start vector is small, and `β_j`
//!   collapses once it is exhausted. The sweep stops at the first step
//!   where `β_j ≤ √tol·scale` and the top Ritz pair of `T_j` passes the
//!   residual test, and locks from `T_j`. Running on would only append
//!   unconverged Ritz values above the converged ones (the continuation is
//!   almost decoupled), and locking stops at the first unconverged pair.
//! * **The locked set stays at `h`.** A sweep stops locking at the first
//!   candidate at or above the h-th smallest locked value (candidates come
//!   in ascending order, so nothing it skips could enter the answer), and
//!   after each locking pass every locked vector above the h-th smallest
//!   value is dropped (ties stay). A dropped vector re-enters the deflated
//!   operator above the h-th value, where the verification test reads it as
//!   "nothing smaller remains" and the lock cap refuses it.
//! * **Verification ends once it certifies.** A sweep that starts with `h`
//!   locked vectors checks its top Ritz pair every `VERIFY_EVERY` (8)
//!   steps and stops as soon as that pair is converged at or above the
//!   h-th value.
//!
//! Orthogonality is kept by classical Gram–Schmidt against the locked set
//! and the basis. The second pass of CGS2 is gated by the DGKS test: it
//! runs only when the first pass shrank the residual below `1/√2` of its
//! norm, which the three-term recurrence makes rare — it has already
//! removed the large components.
//!
//! The smallest eigenvalues of `A` are obtained as the *largest* of
//! `σI − A` (σ = Gershgorin or power-iteration bound), where Lanczos
//! converges fastest. A sweep of `m` steps against `ℓ ≤ h` locked vectors
//! costs `O(m·nnz + m·(m + ℓ)·n)`; re-orthogonalization dominates, so the
//! solve costs `O(matvecs · (m + h) · n)`, within the `O(hn²)` scalability
//! claim of the paper's §6.5.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::linop::{LinOp, ShiftedNegated};
use crate::power::power_iteration;
use crate::tridiag::{tql_in_place, tql_row_in_place};
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

/// DGKS threshold (Daniel, Gragg, Kaufman & Stewart, 1976) for the second
/// CGS pass of [`lanczos_sweep`]. If the first pass kept at least `1/√2`
/// of `‖w‖`, the components it removed were small against `w` and what
/// remains along the basis is rounding; a larger drop means cancellation,
/// and a second pass restores orthogonality. A constant, never an option.
const DGKS_RATIO: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Steps between the certification checks of a verification sweep (a
/// sweep that starts with `h` locked vectors). Each check is one QL
/// eigendecomposition of the `j × j` tridiagonal, `O(j³)` flops against
/// the `O(VERIFY_EVERY·(j + h)·n)` of the steps between checks.
const VERIFY_EVERY: usize = 8;

/// Bumped whenever a change to [`smallest_eigenvalues`]' sweep policy can
/// move the values it returns for the same options, so stored spectra
/// keyed by those options are told apart from the current ones.
///
/// Revision 0 ran every sweep to its step budget and never dropped a
/// locked vector; revision 1 ends sweeps at numerical invariance, evicts
/// locked vectors above the h-th value and ends verification once it
/// certifies.
pub const SWEEP_POLICY_REVISION: u8 = 1;

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
    /// The largest locked set a sweep was deflated against: at most `h`
    /// plus ties at the h-th value.
    pub peak_locked: usize,
    /// Sweeps ended before their step budget because their Krylov space
    /// became numerically invariant.
    pub invariant_stops: usize,
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
            peak_locked: 0,
            invariant_stops: 0,
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
    // At or below this `β_j` the Krylov space counts as numerically
    // invariant (10⁻⁴·scale for the sparse tier's tol of 10⁻⁸).
    let invariant_beta = opts.tol.sqrt() * scale;
    let mut peak_locked = 0usize;
    let mut invariant_stops = 0usize;

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
        // With `h` values locked this is a verification sweep.
        let kth = (locked_vecs.len() >= h).then(|| kth_smallest(&locked_vals, h));
        // The sweep ends early once `T_j`'s top Ritz pair passes the
        // residual test and either `β_j` marks an invariant Krylov space
        // (that pair is lockable, or it certifies) or, on a verification
        // sweep's check steps, the pair certifies.
        let ends_sweep = |alphas: &[f64], betas: &[f64]| -> bool {
            let j = alphas.len();
            let at_invariance = betas[j - 1] <= invariant_beta;
            if !at_invariance && (kth.is_none() || !j.is_multiple_of(VERIFY_EVERY)) {
                return false;
            }
            let Ok((theta, residual)) = top_ritz_pair(alphas, betas) else {
                return false;
            };
            if residual <= tol {
                let value = shifted.unshift(theta);
                at_invariance || kth.is_some_and(|kth| value >= kth - slack)
            } else {
                false
            }
        };
        let sweep = lanczos_sweep(
            &shifted,
            v0,
            budget,
            &locked_vecs,
            &mut matvecs,
            Some(&ends_sweep),
        );
        if sweep.ended_early && sweep.betas.last().is_some_and(|&b| b <= invariant_beta) {
            invariant_stops += 1;
        }
        let analysis = RitzAnalysis::of(&sweep)?;
        if let Some(kth) = kth {
            if let Some(remaining_min) = analysis.top_converged_value(tol, &shifted) {
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
        evict_above_kth(h, &mut locked_vecs, &mut locked_vals);
        peak_locked = peak_locked.max(locked_vecs.len());
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
        peak_locked,
        invariant_stops,
    })
}

/// Drops every locked pair whose value lies above the h-th smallest locked
/// value; ties at that value stay, and the rest keep their order. A
/// dropped pair can never enter the answer, and each one is a vector fewer
/// for every later step to re-orthogonalize against.
fn evict_above_kth(h: usize, locked_vecs: &mut Vec<Vec<f64>>, locked_vals: &mut Vec<f64>) {
    if locked_vals.len() <= h {
        return;
    }
    let kth = kth_smallest(locked_vals, h);
    let mut i = 0;
    while i < locked_vals.len() {
        if locked_vals[i] > kth {
            locked_vals.remove(i);
            locked_vecs.remove(i);
        } else {
            i += 1;
        }
    }
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
    /// Whether the caller's stop rule ended the sweep before its budget
    /// (its Ritz pairs still carry their residuals `|β_m·z_{m,i}|`).
    ended_early: bool,
    /// Steps whose DGKS test ran the second CGS pass (read by the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    second_passes: usize,
}

/// A caller's rule for ending a sweep early: it sees the tridiagonal so
/// far, `(α_0..α_j, β_0..β_j)`, and returns whether the sweep ends there.
type SweepStop<'a> = &'a dyn Fn(&[f64], &[f64]) -> bool;

/// One Lanczos sweep of at most `budget` steps from the unit vector `v0`,
/// kept orthogonal to `locked` and to its own basis.
///
/// Each step's residual `w` is re-orthogonalized by one CGS pass against
/// `locked`, then the basis. A second pass runs only when the first left
/// `‖w‖` below [`DGKS_RATIO`] (`1/√2`) of its value before the pass, and
/// `β` is the norm after the last pass that ran.
///
/// After each step short of exact invariance, `stop` (if given) may end
/// the sweep.
fn lanczos_sweep<A: LinOp + ?Sized>(
    op: &A,
    v0: Vec<f64>,
    budget: usize,
    locked: &[Vec<f64>],
    matvecs: &mut usize,
    stop: Option<SweepStop<'_>>,
) -> Sweep {
    let n = v0.len();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(budget);
    let mut alphas: Vec<f64> = Vec::with_capacity(budget);
    let mut betas: Vec<f64> = Vec::with_capacity(budget);
    let mut v = v0;
    let mut w = vec![0.0; n];
    let mut invariant = false;
    let mut ended_early = false;
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
        // set and the basis, and a second pass (CGS2, "twice is enough")
        // only when the DGKS test asks for it. This O(m·n) step is the
        // Lanczos bottleneck on large graphs.
        let before = norm2(&w);
        orthogonalize_against_cgs(&mut w, locked);
        orthogonalize_against_cgs(&mut w, &basis);
        let mut beta = norm2(&w);
        if beta < DGKS_RATIO * before {
            orthogonalize_against_cgs(&mut w, locked);
            orthogonalize_against_cgs(&mut w, &basis);
            beta = norm2(&w);
            second_passes += 1;
        }
        betas.push(beta);
        if beta <= f64::EPSILON * 64.0 * (1.0 + alpha.abs()) {
            invariant = true;
            break;
        }
        if stop.is_some_and(|ends| ends(&alphas, &betas)) {
            ended_early = true;
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
        ended_early,
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
        Self::of_tridiagonal(&sweep.alphas, &sweep.betas, sweep.invariant)
    }

    /// The Ritz data of `T_m` with diagonal `alphas` and off-diagonal
    /// `betas[..m-1]`; `betas[m-1]` is the residual norm.
    fn of_tridiagonal(alphas: &[f64], betas: &[f64], invariant: bool) -> Result<Self> {
        let m = alphas.len();
        let (mut d, mut e) = tql_input(alphas, betas);
        let mut z = DenseMatrix::identity(m);
        tql_in_place(&mut d, &mut e, Some(&mut z))?;
        let beta_last = if invariant || m == 0 {
            0.0
        } else {
            betas[m - 1]
        };
        Ok(RitzAnalysis {
            theta: d,
            z,
            beta_last,
            invariant,
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

/// `T_m`'s diagonal and off-diagonal in [`tql_in_place`]'s layout.
fn tql_input(alphas: &[f64], betas: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let m = alphas.len();
    let mut e = vec![0.0; m];
    if m > 1 {
        e[1..m].copy_from_slice(&betas[..m - 1]);
    }
    (alphas.to_vec(), e)
}

/// A stop check's view of `T_m` (`m ≥ 1`): its top Ritz value and that
/// pair's residual norm `|β_m · z_{m−1,m−1}|` — the bits of
/// [`RitzAnalysis::of_tridiagonal`]'s `theta[m-1]` and `residual(m-1)`
/// (not invariant), from row `m−1` of `Z` alone ([`tql_row_in_place`]):
/// `O(m²)` per check instead of `O(m³)`.
fn top_ritz_pair(alphas: &[f64], betas: &[f64]) -> Result<(f64, f64)> {
    let m = alphas.len();
    let (mut d, mut e) = tql_input(alphas, betas);
    let mut last = vec![0.0; m];
    last[m - 1] = 1.0;
    tql_row_in_place(&mut d, &mut e, &mut last)?;
    Ok((d[m - 1], (betas[m - 1] * last[m - 1]).abs()))
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
        let sweep = lanczos_sweep(shifted, v0, 96.min(n), &[], &mut 0, None);
        let analysis = RitzAnalysis::of(&sweep).unwrap();
        let (mut vecs, mut vals) = (Vec::new(), Vec::new());
        lock_converged(&sweep, &analysis, 1e-9, 8, shifted, &mut vecs, &mut vals);
        assert!(!vecs.is_empty(), "first sweep locked nothing");
        vecs
    }

    /// The stop check's one-row accumulation reads the same bits as the
    /// full Ritz analysis, on random tridiagonals of every size a sweep
    /// reaches (with a few exact zero couplings, so QL also splits).
    #[test]
    fn top_ritz_pair_matches_the_full_analysis_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for m in 1..=200 {
            let alphas: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let betas: Vec<f64> = (0..m)
                .map(|i| if i % 37 == 36 { 0.0 } else { rng.gen::<f64>() })
                .collect();
            let full = RitzAnalysis::of_tridiagonal(&alphas, &betas, false).unwrap();
            let (theta, residual) = top_ritz_pair(&alphas, &betas).unwrap();
            assert_eq!(theta.to_bits(), full.theta[m - 1].to_bits(), "m = {m}");
            assert_eq!(
                residual.to_bits(),
                full.residual(m - 1).to_bits(),
                "m = {m}"
            );
        }
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
            let sweep = lanczos_sweep(&shifted, v0, 96, &locked, &mut 0, None);
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
        let sweep = lanczos_sweep(&shifted, v0, 96, &locked, &mut 0, None);
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
    fn eviction_keeps_the_h_smallest_and_their_ties_in_order() {
        let vals = vec![3.0, 0.5, 2.0, 5.0, 2.0, 1.0, 2.0];
        let mut locked_vals = vals.clone();
        // Tag each vector with its original index to check the order.
        let mut locked_vecs: Vec<Vec<f64>> = (0..vals.len()).map(|i| vec![i as f64]).collect();
        evict_above_kth(4, &mut locked_vecs, &mut locked_vals);
        // The 4th smallest is 2.0; all three copies of it stay.
        assert_eq!(locked_vals, [0.5, 2.0, 2.0, 1.0, 2.0]);
        let kept: Vec<f64> = locked_vecs.iter().map(|v| v[0]).collect();
        assert_eq!(kept, [1.0, 2.0, 4.0, 5.0, 6.0]);
        // At or below h nothing moves.
        evict_above_kth(5, &mut locked_vecs, &mut locked_vals);
        assert_eq!(locked_vals.len(), 5);
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
