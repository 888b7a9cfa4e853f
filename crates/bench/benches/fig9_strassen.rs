//! Figure 9 runtime: Strassen bound computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphio_baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions};
use graphio_graph::generators::strassen_matmul;
use graphio_spectral::{spectral_bound, BoundOptions};

fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_strassen");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for n in [4usize, 8] {
        let g = strassen_matmul(n);
        let m = 8;
        group.bench_with_input(BenchmarkId::new("spectral", n), &g, |b, g| {
            let opts = BoundOptions::for_graph_size(g.n());
            b.iter(|| spectral_bound(g, m, &opts).unwrap().bound)
        });
        group.bench_with_input(BenchmarkId::new("convex_mincut", n), &g, |b, g| {
            let opts = ConvexMinCutOptions::for_graph_size(g.n());
            b.iter(|| convex_min_cut_bound(g, m, &opts).bound)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
