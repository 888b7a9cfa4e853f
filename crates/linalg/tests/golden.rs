//! Bit-level goldens for the kernels the eigensolvers spend their time
//! in — the QL eigenvector iteration and the CGS re-orthogonalization of
//! the Lanczos tier, and the dense tier's Householder tridiagonalization.
//!
//! Each case hashes the `f64::to_bits` of every output value, so any
//! rewrite of these kernels (blocking, transposition, vector bodies) must
//! reproduce the reference arithmetic exactly — under both SIMD policies,
//! so the scalar fallback is pinned on every machine that runs the suite.

use graphio_linalg::dense::DenseMatrix;
use graphio_linalg::householder::tridiagonalize_in_place;
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

/// `(d, e)` of `tridiagonalize_in_place(false)`, then `(d, e, Q)` of
/// `tridiagonalize_in_place(true)`, each hashed.
fn householder_hashes(a: &DenseMatrix) -> (u64, u64) {
    let mut work = a.clone();
    let t = tridiagonalize_in_place(&mut work, false);
    let values = bit_hash(t.d.iter().chain(&t.e));
    let mut q = a.clone();
    let t = tridiagonalize_in_place(&mut q, true);
    let vectors = bit_hash(t.d.iter().chain(&t.e).chain(q.data()));
    (values, vectors)
}

/// The Laplacian of `edges` on `n` vertices, each directed edge `(u, w)`
/// adding weight `weight(u)` between `u` and `w`, accumulated edge by edge.
fn laplacian(n: usize, edges: &[(usize, usize)], weight: impl Fn(usize) -> f64) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(n, n);
    for &(u, w) in edges {
        let x = weight(u);
        a[(u, w)] -= x;
        a[(w, u)] -= x;
        a[(u, u)] += x;
        a[(w, w)] += x;
    }
    a
}

/// A deterministic xorshift stream of uniforms in `[0, 1)`.
fn uniforms(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The out-degree-weighted Laplacian `L̃` of an Erdős–Rényi DAG on 60
/// vertices with edge probability 0.1 (edges run from lower to higher id).
fn er60_normalized_laplacian() -> DenseMatrix {
    let n = 60;
    let mut next = uniforms(0x9e37_79b9_7f4a_7c15);
    let mut edges = Vec::new();
    for u in 0..n {
        for w in u + 1..n {
            if next() < 0.1 {
                edges.push((u, w));
            }
        }
    }
    let mut out_degree = vec![0usize; n];
    for &(u, _) in &edges {
        out_degree[u] += 1;
    }
    laplacian(n, &edges, |u| 1.0 / out_degree[u] as f64)
}

/// The unit Laplacian `L` of the 4-level FFT butterfly (5 levels of 16).
fn fft4_laplacian() -> DenseMatrix {
    let (levels, width) = (4, 16);
    let mut edges = Vec::new();
    for t in 0..levels {
        for r in 0..width {
            let from = t * width + r;
            edges.push((from, (t + 1) * width + r));
            edges.push((from, (t + 1) * width + (r ^ (1 << t))));
        }
    }
    laplacian((levels + 1) * width, &edges, |_| 1.0)
}

/// A dense random symmetric 97×97 matrix: the odd size leaves every
/// remainder of the 4-lane kernels somewhere in the reduction.
fn random_symmetric_97() -> DenseMatrix {
    let n = 97;
    let mut next = uniforms(0x2545_f491_4f6c_dd1d);
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let x = 2.0 * next() - 1.0;
            a[(i, j)] = x;
            a[(j, i)] = x;
        }
    }
    a
}

/// `diag(a, b)`.
fn block_diagonal(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, n) = (a.nrows(), a.nrows() + b.nrows());
    let mut out = DenseMatrix::zeros(n, n);
    for i in 0..m {
        out.row_mut(i)[..m].copy_from_slice(a.row(i));
    }
    for i in m..n {
        out.row_mut(i)[m..].copy_from_slice(b.row(i - m));
    }
    out
}

#[test]
fn householder_tridiagonalization_is_pinned() {
    let cases = [
        (
            "er60 L~",
            er60_normalized_laplacian(),
            (0x151852bc5f28874f, 0x4946442c728b080f),
        ),
        (
            "fft4 L",
            fft4_laplacian(),
            (0xd333669a7841e004, 0xee64bc065696fc25),
        ),
        (
            "random 97",
            random_symmetric_97(),
            (0x6f9adc5c4c577fa6, 0x1978f848da494f9e),
        ),
        // Two components: the first row of the second block has nothing
        // left of its diagonal, so its reflector is skipped.
        (
            "er60 L~ + fft4 L",
            block_diagonal(&er60_normalized_laplacian(), &fft4_laplacian()),
            (0xd845df4089cfde16, 0xba71a7940043aeaf),
        ),
    ];
    for (name, a, pinned) in cases {
        under_each_policy(|p| {
            assert_eq!(householder_hashes(&a), pinned, "{name} {p:?}");
        });
    }
}
