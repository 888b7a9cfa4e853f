//! Dense vector kernels used by the iterative eigensolvers.
//!
//! These are allocation-free loops over slices, runtime-dispatched to the
//! AVX2 bodies in [`crate::simd`] when the CPU and the process-global
//! [`crate::simd::SimdPolicy`] allow it. Under the default `Strict`
//! policy every kernel is bit-identical whether the vector or the scalar
//! body ran — reductions share one canonical striped-lane shape — so the
//! eigensolvers give the same bits with SIMD on or off.

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

/// Re-orthogonalization for Lanczos: one *classical* Gram–Schmidt pass
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
/// `dot`/`axpy` themselves. This is deliberately a different algorithm
/// from the MGS pass in [`orthogonalize_against`].
pub fn orthogonalize_against_cgs(v: &mut [f64], basis: &[Vec<f64>]) {
    if basis.is_empty() {
        return;
    }
    let mut coeffs = vec![0.0f64; basis.len()];
    dots_into(v, basis, &mut coeffs);
    for c in &mut coeffs {
        *c = -*c;
    }
    axpy_many(&coeffs, basis, v);
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

/// `y ← y + Σ_j alphas[j]·basis[j][..y.len()]`, the terms of every
/// element added in ascending `j` — bit-identical to one [`axpy`] per basis
/// vector, but four basis vectors per pass over `y`.
///
/// # Panics
/// Panics if a basis vector is shorter than `y`.
pub(crate) fn axpy_many(alphas: &[f64], basis: &[Vec<f64>], y: &mut [f64]) {
    debug_assert_eq!(alphas.len(), basis.len());
    let n = y.len();
    let mut blocks = basis.chunks_exact(4);
    let mut coeffs = alphas.chunks_exact(4);
    for (q, a) in (&mut blocks).zip(&mut coeffs) {
        crate::simd::axpy4(
            [a[0], a[1], a[2], a[3]],
            [&q[0][..n], &q[1][..n], &q[2][..n], &q[3][..n]],
            y,
        );
    }
    for (q, &a) in blocks.remainder().iter().zip(coeffs.remainder()) {
        axpy(a, &q[..n], y);
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
        // CGS2: two passes.
        let mut v = v0.clone();
        orthogonalize_against_cgs(&mut v, &basis);
        orthogonalize_against_cgs(&mut v, &basis);
        for q in &basis {
            assert!(dot(&v, q).abs() < 1e-10);
        }
        // The pass is a pure function of its inputs: repeating it on a
        // fresh copy gives the same bits.
        let mut again = v0;
        orthogonalize_against_cgs(&mut again, &basis);
        orthogonalize_against_cgs(&mut again, &basis);
        assert_eq!(again, v);
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
