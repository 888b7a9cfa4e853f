//! Eigensolver ablations: dense vs Lanczos crossover, QL vs bisection on
//! tridiagonals, and the sparse mat-vec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphio_graph::generators::bhk_hypercube;
use graphio_linalg::{
    eigenvalues_symmetric, lanczos, tridiagonal_eigenvalues, tridiagonal_eigenvalues_bisect,
    LanczosOptions,
};
use graphio_spectral::laplacian::normalized_laplacian;

fn bench_dense_vs_lanczos(c: &mut Criterion) {
    let mut group = c.benchmark_group("eig_dense_vs_lanczos");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for l in [7usize, 8, 9] {
        let g = bhk_hypercube(l);
        let lap = normalized_laplacian(&g);
        let h = 40.min(lap.dim());
        if lap.dim() <= 512 {
            let dense = lap.to_dense();
            group.bench_with_input(BenchmarkId::new("dense_full", l), &dense, |b, d| {
                b.iter(|| eigenvalues_symmetric(d).unwrap().len())
            });
        }
        group.bench_with_input(BenchmarkId::new("lanczos_h40", l), &lap, |b, lap| {
            b.iter(|| {
                lanczos::smallest_eigenvalues(lap, h, &LanczosOptions::default())
                    .unwrap()
                    .values
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_tridiagonal(c: &mut Criterion) {
    let mut group = c.benchmark_group("eig_tridiagonal");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let n = 512;
    let d: Vec<f64> = (0..n).map(|i| 2.0 + (i as f64 * 0.1).sin()).collect();
    let e: Vec<f64> = (0..n - 1)
        .map(|i| -1.0 + (i as f64 * 0.05).cos() * 0.1)
        .collect();
    group.bench_function("ql_all", |b| {
        b.iter(|| tridiagonal_eigenvalues(&d, &e).unwrap().len())
    });
    group.bench_function("bisect_k32", |b| {
        b.iter(|| tridiagonal_eigenvalues_bisect(&d, &e, 32).unwrap().len())
    });
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let g = bhk_hypercube(13); // n = 8192, nnz ≈ 114k
    let lap = normalized_laplacian(&g);
    let x: Vec<f64> = (0..lap.dim()).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0; lap.dim()];
    group.bench_function("bhk_l13", |b| {
        b.iter(|| {
            lap.matvec(&x, &mut y);
            y[0]
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dense_vs_lanczos,
    bench_tridiagonal,
    bench_matvec
);
criterion_main!(benches);
