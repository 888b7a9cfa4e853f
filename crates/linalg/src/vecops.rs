//! Dense vector kernels used by the iterative eigensolvers.
//!
//! These are allocation-free loops over slices, runtime-dispatched to the
//! AVX2 bodies in [`crate::simd`] when the CPU and the process-global
//! [`crate::simd::SimdPolicy`] allow it. Under the default `Strict`
//! policy every kernel is bit-identical whether the vector or the scalar
//! body ran — reductions share one canonical striped-lane shape — so the
//! crate's determinism contract (same bits at every thread count) extends
//! to "same bits with SIMD on or off".

/// Dot product `xᵀy`, reduced with the canonical 4-lane striped tree (see
/// [`crate::simd::dot_scalar`] for the reference spelling).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    crate::simd::dot(x, y)
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    crate::simd::axpy(alpha, x, y);
}

/// Scaled add `y ← alpha * x + beta * y` (element-wise, so bit-identical
/// under every SIMD policy).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    crate::simd::axpby(alpha, x, beta, y);
}

/// `x ← alpha * x`.
pub fn scal(alpha: f64, x: &mut [f64]) {
    crate::simd::scal(alpha, x);
}

/// Normalizes `x` in place and returns its original norm.
///
/// If the norm is zero the vector is left untouched and `0.0` is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scal(1.0 / n, x);
    }
    n
}

/// Maximum absolute difference between two vectors (`‖x − y‖∞`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Removes from `v` its components along each (assumed orthonormal) vector
/// in `basis` — one *modified* Gram–Schmidt pass (each coefficient is taken
/// after the previous subtraction).
pub fn orthogonalize_against(v: &mut [f64], basis: &[Vec<f64>]) {
    for q in basis {
        let c = dot(v, q);
        axpy(-c, q, v);
    }
}

/// Below this work estimate (`v.len() · basis.len()`) the parallel
/// re-orthogonalization runs its kernels inline instead of spawning.
const PARALLEL_ORTHO_THRESHOLD: usize = 1 << 16;

/// Parallelizable re-orthogonalization: one *classical* Gram–Schmidt pass
/// with all coefficients taken against the incoming `v`, then a blocked
/// subtraction. Callers that need full orthogonality run a second pass
/// ("twice is enough", CGS2) — the Lanczos sweep runs it when the first
/// pass cancelled enough of `v` to need it (the DGKS test).
///
/// Both phases handle four basis vectors per pass over `v`: the
/// coefficients come from a 4-wide multi-dot whose every result equals
/// [`dot`] bit for bit, and the subtraction from a fused update that
/// applies `−c_j·q_j` to each element in ascending `j`, exactly like
/// sequential [`axpy`] calls. Leftover vectors (fewer than four) use
/// `dot`/`axpy` themselves.
///
/// Determinism: the CGS algorithm runs at **every** thread count
/// (`threads == 1` and small inputs execute the same two phases inline,
/// without spawning), and each phase reduces in the same element order
/// regardless of chunking, so the result is bit-identical for every
/// `threads ≥ 1`. This is deliberately a different algorithm from the
/// serial MGS pass in [`orthogonalize_against`].
pub fn orthogonalize_against_parallel(v: &mut [f64], basis: &[Vec<f64>], threads: usize) {
    if basis.is_empty() {
        return;
    }
    let n = v.len();
    let threads = if n * basis.len() < PARALLEL_ORTHO_THRESHOLD {
        1
    } else {
        threads.max(1)
    };
    // Phase 1: coefficients c_j = <v, q_j>, parallel over basis vectors.
    let mut coeffs = vec![0.0f64; basis.len()];
    if threads == 1 {
        dots_into(v, basis, &mut coeffs);
    } else {
        let v_read: &[f64] = v;
        std::thread::scope(|s| {
            let mut rest = coeffs.as_mut_slice();
            for range in crate::threads::even_ranges(basis.len(), threads) {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                s.spawn(move || dots_into(v_read, &basis[range], chunk));
            }
        });
    }
    for c in &mut coeffs {
        *c = -*c;
    }
    // Phase 2: v -= Σ_j c_j q_j, parallel over segments of v; every element
    // accumulates its terms in ascending j order regardless of chunking.
    if threads == 1 {
        axpy_many(&coeffs, basis, 0, v);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = &mut *v;
        for range in crate::threads::even_ranges(n, threads) {
            let (seg, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let coeffs = &coeffs;
            s.spawn(move || axpy_many(coeffs, basis, range.start, seg));
        }
    });
}

/// `out[j] = dot(v, basis[j])` for every basis vector, four vectors per
/// pass over `v` (each result bit-identical to [`dot`]).
fn dots_into(v: &[f64], basis: &[Vec<f64>], out: &mut [f64]) {
    let mut blocks = basis.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (q, c) in (&mut blocks).zip(&mut outs) {
        c.copy_from_slice(&crate::simd::dot4(v, [&q[0], &q[1], &q[2], &q[3]]));
    }
    for (q, c) in blocks.remainder().iter().zip(outs.into_remainder()) {
        *c = dot(v, q);
    }
}

/// `y ← y + Σ_j alphas[j]·basis[j][lo .. lo + y.len()]`, the terms of every
/// element added in ascending `j` — bit-identical to one [`axpy`] per basis
/// vector, but four basis vectors per pass over `y`.
///
/// # Panics
/// Panics if a basis vector is shorter than `lo + y.len()`.
pub(crate) fn axpy_many(alphas: &[f64], basis: &[Vec<f64>], lo: usize, y: &mut [f64]) {
    debug_assert_eq!(alphas.len(), basis.len());
    let hi = lo + y.len();
    let mut blocks = basis.chunks_exact(4);
    let mut coeffs = alphas.chunks_exact(4);
    for (q, a) in (&mut blocks).zip(&mut coeffs) {
        crate::simd::axpy4(
            [a[0], a[1], a[2], a[3]],
            [&q[0][lo..hi], &q[1][lo..hi], &q[2][lo..hi], &q[3][lo..hi]],
            y,
        );
    }
    for (q, &a) in blocks.remainder().iter().zip(coeffs.remainder()) {
        axpy(a, &q[lo..hi], y);
    }
}

/// Numerically robust `hypot` specialized to the QL iteration's needs:
/// `sqrt(a² + b²)` without overflow for the magnitudes seen here.
pub fn pythag(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    if a > b {
        let r = b / a;
        a * (1.0 + r * r).sqrt()
    } else if b > 0.0 {
        let r = a / b;
        b * (1.0 + r * r).sqrt()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_basics() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_scales_both_sides() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpby(2.0, &x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0, 21.0]);
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0, -2.0];
        scal(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = [3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = [0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn orthogonalize_removes_components() {
        let q1 = vec![1.0, 0.0, 0.0];
        let q2 = vec![0.0, 1.0, 0.0];
        let mut v = vec![3.0, -2.0, 7.0];
        orthogonalize_against(&mut v, &[q1.clone(), q2.clone()]);
        assert!(dot(&v, &q1).abs() < 1e-15);
        assert!(dot(&v, &q2).abs() < 1e-15);
        assert!((v[2] - 7.0).abs() < 1e-15);
    }

    #[test]
    fn parallel_orthogonalization_is_orthogonal_and_thread_count_invariant() {
        // Large enough to clear PARALLEL_ORTHO_THRESHOLD with 8 basis vectors.
        let n = 10_000;
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for j in 0..8usize {
            let mut q: Vec<f64> = (0..n)
                .map(|i| ((i * (j + 3)) as f64 * 0.013).sin())
                .collect();
            // Two serial MGS passes build an orthonormal basis.
            for _ in 0..2 {
                orthogonalize_against(&mut q, &basis);
            }
            normalize(&mut q);
            basis.push(q);
        }
        let v0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.031).cos()).collect();
        let mut reference = v0.clone();
        // CGS2: two parallel passes.
        orthogonalize_against_parallel(&mut reference, &basis, 2);
        orthogonalize_against_parallel(&mut reference, &basis, 2);
        for q in &basis {
            assert!(dot(&reference, q).abs() < 1e-10);
        }
        // Every thread count — including the inline threads = 1 path —
        // runs the same CGS kernels and must be bit-identical.
        for threads in [1usize, 4, 8] {
            let mut v = v0.clone();
            orthogonalize_against_parallel(&mut v, &basis, threads);
            orthogonalize_against_parallel(&mut v, &basis, threads);
            assert_eq!(v, reference, "threads={threads}");
        }
    }

    #[test]
    fn pythag_matches_hypot() {
        for &(a, b) in &[(3.0, 4.0), (0.0, 0.0), (-5.0, 12.0), (1e-8, 1e-8)] {
            assert!((pythag(a, b) - f64::hypot(a, b)).abs() < 1e-12 * (1.0 + f64::hypot(a, b)));
        }
    }

    #[test]
    fn max_abs_diff_finds_max() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 0.0]), 2.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
