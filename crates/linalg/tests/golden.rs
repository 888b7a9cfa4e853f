//! Bit-level goldens for the two kernels the Lanczos tier spends its time
//! in — the QL eigenvector iteration and the CGS re-orthogonalization.
//!
//! Each case hashes the `f64::to_bits` of every output value, so any
//! rewrite of these kernels (blocking, transposition, vector bodies) must
//! reproduce the reference arithmetic exactly — under both SIMD policies,
//! so the scalar fallback is pinned on every machine that runs the suite.

use graphio_linalg::dense::DenseMatrix;
use graphio_linalg::simd::{policy, set_policy, SimdPolicy};
use graphio_linalg::tridiag::{tql_in_place, tql_row_in_place};
use graphio_linalg::vecops::orthogonalize_against_cgs;

/// Runs `check` under `Strict`, then `Off`, one test at a time (the
/// policy is process-global), and restores the prior policy afterwards,
/// also when `check` panics.
fn under_each_policy(check: impl Fn(SimdPolicy)) {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    struct Restore(SimdPolicy);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_policy(self.0);
        }
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(policy());
    for p in [SimdPolicy::Strict, SimdPolicy::Off] {
        set_policy(p);
        check(p);
    }
}

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

/// Smooth diagonal, oscillating couplings, and a few exact zeros so the
/// iteration both splits and rotates across long blocks.
fn m96_input() -> (Vec<f64>, Vec<f64>) {
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
    (d, e)
}

/// Repeated diagonal values with weak, uneven couplings — clustered
/// eigenvalues, like a Lanczos tridiagonal of a high-multiplicity
/// Laplacian.
fn m193_input() -> (Vec<f64>, Vec<f64>) {
    let m = 193;
    let d: Vec<f64> = (0..m).map(|i| ((i * 7) % 11) as f64 * 0.5).collect();
    let e: Vec<f64> = (0..m)
        .map(|i| 1e-3 * (1 + i % 5) as f64 + 0.3 * (0.05 * i as f64).sin().abs())
        .collect();
    (d, e)
}

#[test]
fn tql_eigenvectors_m96_are_pinned() {
    let (d, e) = m96_input();
    under_each_policy(|p| {
        assert_eq!(
            tql_hash(d.clone(), e.clone()),
            0x35c5dee32cc1be0a,
            "tql m=96 {p:?}"
        );
    });
}

#[test]
fn tql_eigenvectors_m193_are_pinned() {
    let (d, e) = m193_input();
    under_each_policy(|p| {
        assert_eq!(
            tql_hash(d.clone(), e.clone()),
            0xbfac5febbd00c9db,
            "tql m=193 {p:?}"
        );
    });
}

/// Rotating only the last row (the Lanczos stop check's residual
/// weights) gives the full accumulation's eigenvalues and last row, bit
/// for bit, on both pinned inputs.
#[test]
fn tql_last_row_matches_the_full_accumulation() {
    for (d, e) in [m96_input(), m193_input()] {
        let m = d.len();
        under_each_policy(|p| {
            let (mut d_full, mut e_full) = (d.clone(), e.clone());
            let mut z = DenseMatrix::identity(m);
            tql_in_place(&mut d_full, &mut e_full, Some(&mut z)).unwrap();
            let (mut d_row, mut e_row) = (d.clone(), e.clone());
            let mut last = vec![0.0; m];
            last[m - 1] = 1.0;
            tql_row_in_place(&mut d_row, &mut e_row, &mut last).unwrap();
            let full_last: Vec<f64> = (0..m).map(|j| z[(m - 1, j)]).collect();
            assert_eq!(bit_hash(&d_row), bit_hash(&d_full), "θ, m={m} {p:?}");
            assert_eq!(bit_hash(&last), bit_hash(&full_last), "row, m={m} {p:?}");
        });
    }
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
    under_each_policy(|p| assert_eq!(cgs2_hash(1027, &basis), 0xc7db3466d7e4cb97, "{p:?}"));
}

#[test]
fn cgs2_on_the_threaded_path_is_pinned_at_every_thread_count() {
    // A vector six times longer, with the same 3-element tail.
    let basis = orthonormal_basis(6007, 11);
    under_each_policy(|p| assert_eq!(cgs2_hash(6007, &basis), 0x31785ab620e08ad7, "{p:?}"));
}
