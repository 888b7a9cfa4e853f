//! Figure 8 runtime: naive-matmul bound computation across matrix sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphio_baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions};
use graphio_graph::generators::naive_matmul;
use graphio_spectral::{spectral_bound, BoundOptions};

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_matmul");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for n in [6usize, 8] {
        let g = naive_matmul(n);
        let m = 64;
        group.bench_with_input(BenchmarkId::new("spectral", n), &g, |b, g| {
            let opts = BoundOptions::for_graph_size(g.n());
            b.iter(|| spectral_bound(g, m, &opts).unwrap().bound)
        });
    }
    let g = naive_matmul(6);
    group.bench_function("convex_mincut/6", |b| {
        b.iter(|| convex_min_cut_bound(&g, 64, &ConvexMinCutOptions::default()).bound)
    });
    let g12 = naive_matmul(10);
    group.bench_function("convex_mincut_sampled/10", |b| {
        let opts = ConvexMinCutOptions::for_graph_size(g12.n());
        b.iter(|| convex_min_cut_bound(&g12, 64, &opts).bound)
    });
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
