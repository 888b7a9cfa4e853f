//! Bit-level goldens for the sparse tier's deflated Lanczos solves that
//! never end a sweep at its step budget: every sweep of these solves ends
//! at numerical invariance or certifies, so no change to what happens
//! after a budget-limited sweep may move a bit of their values.
//!
//! Each case hashes the `f64::to_bits` of every returned eigenvalue under
//! both SIMD policies: the sparse-tier schedule
//! (`BoundOptions::for_graph_size`) on both Laplacians of fft(7), fft(8),
//! matmul(8) and bhk(9), and the hypercube Q_10 (eigenvalue 2i with
//! multiplicity C(10, i)) at h = 48, 56 and 57, where `h` cuts through
//! and then just past the 45-fold eigenvalue 4.

use graphio::prelude::*;
use graphio::spectral::laplacian::{normalized_laplacian, unnormalized_laplacian};
use graphio_linalg::simd::{policy, set_policy, SimdPolicy};
use graphio_linalg::{lanczos, CsrMatrix, LanczosOptions};

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
fn bit_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The bit hash of the `h` eigenvalues the sparse-tier schedule returns
/// for `lap`, a Laplacian of a graph with `n` vertices.
fn sparse_tier_hash(lap: &CsrMatrix, n: usize) -> u64 {
    let opts = BoundOptions::for_graph_size(n);
    let EigenMethod::Lanczos(lopts) = opts.method else {
        panic!("n = {n} is on the Lanczos tier");
    };
    let r = lanczos::smallest_eigenvalues(lap, opts.h, &lopts).unwrap();
    assert_eq!(r.values.len(), opts.h);
    bit_hash(&r.values)
}

fn check_graph(name: &str, g: &CompGraph, pinned: (u64, u64)) {
    let normalized = normalized_laplacian(g);
    let unit = unnormalized_laplacian(g);
    under_each_policy(|p| {
        let got = (
            sparse_tier_hash(&normalized, g.n()),
            sparse_tier_hash(&unit, g.n()),
        );
        assert_eq!(
            got, pinned,
            "{name} (L~, L) {p:?}: {:#018x} {:#018x}",
            got.0, got.1
        );
    });
}

#[test]
fn fft7_sparse_tier_values_are_pinned() {
    check_graph(
        "fft(7)",
        &fft_butterfly(7),
        (0xd2450215b4c64d6f, 0xb19db73f44a94baf),
    );
}

#[test]
fn fft8_sparse_tier_values_are_pinned() {
    check_graph(
        "fft(8)",
        &fft_butterfly(8),
        (0x9a49fd377892c546, 0x4c9c00674675c896),
    );
}

#[test]
fn matmul8_sparse_tier_values_are_pinned() {
    check_graph(
        "matmul(8)",
        &naive_matmul(8),
        (0x0f7d5740c53a310f, 0x3234acbfd523bf63),
    );
}

#[test]
fn bhk9_sparse_tier_values_are_pinned() {
    check_graph(
        "bhk(9)",
        &bhk_hypercube(9),
        (0xeb67cb09e72d583a, 0x6ad9f82dbb05a0b3),
    );
}

/// The Laplacian of the boolean hypercube Q_d.
fn hypercube_laplacian(d: usize) -> CsrMatrix {
    let n = 1usize << d;
    let mut trips = Vec::new();
    for u in 0..n {
        trips.push((u, u, d as f64));
        for b in 0..d {
            trips.push((u, u ^ (1 << b), -1.0));
        }
    }
    CsrMatrix::from_triplets(n, &trips).unwrap()
}

#[test]
fn hypercube_q10_values_are_pinned() {
    let a = hypercube_laplacian(10);
    under_each_policy(|p| {
        for (h, pinned) in [
            (48, 0x0b77459ea3231f8e_u64),
            (56, 0xc59e598e4556bac3),
            (57, 0x79434bc11f60af58),
        ] {
            let r = lanczos::smallest_eigenvalues(&a, h, &LanczosOptions::default()).unwrap();
            let got = bit_hash(&r.values);
            assert_eq!(got, pinned, "Q_10 h = {h} {p:?}: {got:#018x}");
        }
    });
}
