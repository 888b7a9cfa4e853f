//! Bit-level goldens for the two kernels the Lanczos tier spends its time
//! in: the QL eigenvector iteration and the CGS re-orthogonalization.
//!
//! Each case hashes the `f64::to_bits` of every output value, so any
//! rewrite of these kernels (blocking, transposition, vector bodies) must
//! reproduce the reference arithmetic exactly — under every bit-exact SIMD
//! policy (CI runs this file once more with `GRAPHIO_SIMD=off`).

use graphio_linalg::dense::DenseMatrix;
use graphio_linalg::tridiag::tql_in_place;
use graphio_linalg::vecops::orthogonalize_against_cgs;

/// FNV-1a over the bit patterns of `values`.
fn bit_hash<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Eigenvalues and every eigenvector entry of `tql_in_place` started from
/// the identity, on the tridiagonal `(d, e)` (`e[0]` unused).
fn tql_hash(mut d: Vec<f64>, mut e: Vec<f64>) -> u64 {
    let m = d.len();
    let mut z = DenseMatrix::identity(m);
    tql_in_place(&mut d, &mut e, Some(&mut z)).unwrap();
    bit_hash(d.iter().chain(z.data()))
}

#[test]
fn tql_eigenvectors_m96_are_pinned() {
    // Smooth diagonal, oscillating couplings, and a few exact zeros so
    // the iteration both splits and rotates across long blocks.
    let m = 96;
    let d: Vec<f64> = (0..m).map(|i| 2.0 + (0.37 * i as f64).sin()).collect();
    let e: Vec<f64> = (0..m)
        .map(|i| {
            if i % 31 == 0 {
                0.0
            } else {
                0.5 + 0.25 * (1.1 * i as f64).cos()
            }
        })
        .collect();
    assert_eq!(tql_hash(d, e), 0x35c5dee32cc1be0a, "tql m=96");
}

#[test]
fn tql_eigenvectors_m193_are_pinned() {
    // Repeated diagonal values with weak, uneven couplings — clustered
    // eigenvalues, like a Lanczos tridiagonal of a high-multiplicity
    // Laplacian.
    let m = 193;
    let d: Vec<f64> = (0..m).map(|i| ((i * 7) % 11) as f64 * 0.5).collect();
    let e: Vec<f64> = (0..m)
        .map(|i| 1e-3 * (1 + i % 5) as f64 + 0.3 * (0.05 * i as f64).sin().abs())
        .collect();
    assert_eq!(tql_hash(d, e), 0xbfac5febbd00c9db, "tql m=193");
}

/// An orthonormal `k`-vector basis of length `n` built with plain scalar
/// modified Gram–Schmidt, so the golden depends on nothing but the kernel
/// under test.
fn orthonormal_basis(n: usize, k: usize) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
    for j in 0..k {
        let mut q: Vec<f64> = (0..n)
            .map(|i| ((i * (2 * j + 3)) as f64 * 0.0173 + j as f64).sin())
            .collect();
        for _ in 0..2 {
            for b in &basis {
                let c: f64 = q.iter().zip(b).map(|(x, y)| x * y).sum();
                for (x, y) in q.iter_mut().zip(b) {
                    *x -= c * y;
                }
            }
        }
        let norm = q.iter().map(|x| x * x).sum::<f64>().sqrt();
        for x in &mut q {
            *x /= norm;
        }
        basis.push(q);
    }
    basis
}

/// Two CGS passes (CGS2) of a fixed vector against `basis`.
fn cgs2_hash(n: usize, basis: &[Vec<f64>]) -> u64 {
    let mut v: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.031).cos() + 0.25 * (i as f64 * 0.7).sin())
        .collect();
    orthogonalize_against_cgs(&mut v, basis);
    orthogonalize_against_cgs(&mut v, basis);
    bit_hash(&v)
}

#[test]
fn cgs2_with_tail_and_odd_basis_is_pinned_at_every_thread_count() {
    // n = 1027 leaves a tail of 3 past the 4-lane loops; 11 basis vectors
    // leave 3 past any 4-vector blocking.
    let basis = orthonormal_basis(1027, 11);
    assert_eq!(cgs2_hash(1027, &basis), 0xc7db3466d7e4cb97);
}

#[test]
fn cgs2_on_the_threaded_path_is_pinned_at_every_thread_count() {
    // A vector six times longer, with the same 3-element tail.
    let basis = orthonormal_basis(6007, 11);
    assert_eq!(cgs2_hash(6007, &basis), 0x31785ab620e08ad7);
}
