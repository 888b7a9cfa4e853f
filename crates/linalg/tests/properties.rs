#![allow(clippy::needless_range_loop)] // index-parallel array comparisons read clearest

//! Property-based tests for the linear-algebra substrate.

use graphio_linalg::csr::CsrMatrix;
use graphio_linalg::dense::DenseMatrix;
use graphio_linalg::lanczos::{smallest_eigenvalues, LanczosOptions};
use graphio_linalg::orthogonal::{is_orthogonal, random_orthogonal};
use graphio_linalg::simd::{policy, set_policy, SimdPolicy};
use graphio_linalg::symeig::{eigenvalues_symmetric, eigh};
use graphio_linalg::tridiag::{tridiagonal_eigenvalues, tridiagonal_eigenvalues_bisect};
use graphio_linalg::vecops::{axpy, dot, orthogonalize_against_cgs};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random symmetric matrix of dimension 1..=12 with entries in
/// [-5, 5].
fn symmetric_matrix() -> impl Strategy<Value = DenseMatrix> {
    (1usize..=12).prop_flat_map(|n| {
        proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |data| {
            let mut m = DenseMatrix::from_vec(n, n, data).unwrap();
            for i in 0..n {
                for j in 0..i {
                    let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                    m[(i, j)] = avg;
                    m[(j, i)] = avg;
                }
            }
            m
        })
    })
}

/// Strategy: a random undirected-graph Laplacian of dimension 2..=14.
fn random_laplacian() -> impl Strategy<Value = DenseMatrix> {
    (2usize..=14).prop_flat_map(|n| {
        proptest::collection::vec(proptest::bool::ANY, n * (n - 1) / 2).prop_map(move |edges| {
            let mut m = DenseMatrix::zeros(n, n);
            let mut idx = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if edges[idx] {
                        m[(i, j)] = -1.0;
                        m[(j, i)] = -1.0;
                        m[(i, i)] += 1.0;
                        m[(j, j)] += 1.0;
                    }
                    idx += 1;
                }
            }
            m
        })
    })
}

/// Strategy: a vector of length 0..=67 and a basis of 0..=11 vectors of
/// the same length — every remainder of the 4-lane loops and of 4-vector
/// blocking.
fn cgs_case() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>)> {
    (0usize..=67, 0usize..=11).prop_flat_map(|(n, k)| {
        (
            proptest::collection::vec(-1.0f64..1.0, n),
            proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, n), k),
        )
    })
}

/// Restores the process-global SIMD policy when dropped (also when a
/// property fails part-way).
struct RestorePolicy(SimdPolicy);

impl Drop for RestorePolicy {
    fn drop(&mut self) {
        set_policy(self.0);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_cgs_pass_equals_per_vector_dot_and_axpy((v, basis) in cgs_case()) {
        let _restore = RestorePolicy(policy());
        for p in [SimdPolicy::Strict, SimdPolicy::Off] {
            set_policy(p);
            // The reference: every coefficient against the incoming `v`,
            // then one `axpy` per basis vector in ascending order.
            let coeffs: Vec<f64> = basis.iter().map(|q| dot(&v, q)).collect();
            let mut reference = v.clone();
            for (c, q) in coeffs.iter().zip(&basis) {
                axpy(-c, q, &mut reference);
            }
            let mut got = v.clone();
            orthogonalize_against_cgs(&mut got, &basis);
            prop_assert_eq!(bits(&got), bits(&reference), "{:?}", p);
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace(a in symmetric_matrix()) {
        let vals = eigenvalues_symmetric(&a).unwrap();
        let sum: f64 = vals.iter().sum();
        let scale = 1.0 + a.trace().abs();
        prop_assert!((sum - a.trace()).abs() < 1e-8 * scale);
    }

    #[test]
    fn eigenvalues_are_sorted(a in symmetric_matrix()) {
        let vals = eigenvalues_symmetric(&a).unwrap();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn eigh_residual_is_small(a in symmetric_matrix()) {
        let n = a.nrows();
        let (vals, v) = eigh(&a).unwrap();
        // ‖A v_i − λ_i v_i‖ small for every i.
        let scale = 1.0 + a.frobenius_norm();
        for i in 0..n {
            let col: Vec<f64> = (0..n).map(|r| v[(r, i)]).collect();
            let mut av = vec![0.0; n];
            a.matvec(&col, &mut av);
            for r in 0..n {
                prop_assert!((av[r] - vals[i] * col[r]).abs() < 1e-7 * scale);
            }
        }
    }

    #[test]
    fn laplacian_is_psd_with_zero_eigenvalue(l in random_laplacian()) {
        let vals = eigenvalues_symmetric(&l).unwrap();
        // PSD and the all-ones vector is in the kernel.
        prop_assert!(vals[0] > -1e-9);
        prop_assert!(vals[0].abs() < 1e-9);
    }

    #[test]
    fn lanczos_agrees_with_dense_on_laplacians(l in random_laplacian()) {
        let n = l.nrows();
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if l[(i, j)] != 0.0 {
                    trips.push((i, j, l[(i, j)]));
                }
            }
        }
        let csr = CsrMatrix::from_triplets(n, &trips).unwrap();
        let dense_vals = eigenvalues_symmetric(&l).unwrap();
        let h = (n / 2).max(1);
        let r = smallest_eigenvalues(&csr, h, &LanczosOptions::default()).unwrap();
        for i in 0..h {
            prop_assert!(
                (r.values[i] - dense_vals[i]).abs() < 1e-6,
                "i={} lanczos={} dense={}", i, r.values[i], dense_vals[i]
            );
        }
    }

    #[test]
    fn bisect_matches_ql_on_random_tridiagonals(
        d in proptest::collection::vec(-4.0f64..4.0, 1..16),
        seed in 0u64..1000,
    ) {
        let n = d.len();
        let mut rng_vals = Vec::with_capacity(n.saturating_sub(1));
        // Derive deterministic off-diagonals from the seed.
        let mut s = seed;
        for _ in 0..n.saturating_sub(1) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng_vals.push(((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
        }
        let all = tridiagonal_eigenvalues(&d, &rng_vals).unwrap();
        let k = (n / 2).max(1);
        let some = tridiagonal_eigenvalues_bisect(&d, &rng_vals, k).unwrap();
        for i in 0..k {
            prop_assert!((some[i] - all[i]).abs() < 1e-7,
                "i={} bisect={} ql={}", i, some[i], all[i]);
        }
    }

    #[test]
    fn random_orthogonal_matrices_are_orthogonal(seed in 0u64..500, n in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_orthogonal(n, &mut rng);
        prop_assert!(is_orthogonal(&q, 1e-9));
    }

    #[test]
    fn csr_matvec_matches_dense(l in random_laplacian()) {
        let n = l.nrows();
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if l[(i, j)] != 0.0 {
                    trips.push((i, j, l[(i, j)]));
                }
            }
        }
        let csr = CsrMatrix::from_triplets(n, &trips).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        csr.matvec(&x, &mut y1);
        l.matvec(&x, &mut y2);
        for i in 0..n {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gershgorin_dominates_all_eigenvalues(l in random_laplacian()) {
        let n = l.nrows();
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if l[(i, j)] != 0.0 {
                    trips.push((i, j, l[(i, j)]));
                }
            }
        }
        let csr = CsrMatrix::from_triplets(n, &trips).unwrap();
        let vals = eigenvalues_symmetric(&l).unwrap();
        prop_assert!(vals[n - 1] <= csr.gershgorin_upper_bound() + 1e-9);
    }
}
