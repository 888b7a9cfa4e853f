//! Figure 7 runtime: computing the FFT I/O bounds (spectral vs the convex
//! min-cut baseline) at representative sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphio_baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions};
use graphio_graph::generators::fft_butterfly;
use graphio_spectral::{spectral_bound, BoundOptions};

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_fft");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for l in [6usize, 8] {
        let g = fft_butterfly(l);
        let m = 8;
        group.bench_with_input(BenchmarkId::new("spectral", l), &g, |b, g| {
            let opts = BoundOptions::for_graph_size(g.n());
            b.iter(|| spectral_bound(g, m, &opts).unwrap().bound)
        });
    }
    // The baseline only at the smaller size (it is the slow method).
    let g = fft_butterfly(6);
    group.bench_function("convex_mincut/6", |b| {
        b.iter(|| convex_min_cut_bound(&g, 8, &ConvexMinCutOptions::default()).bound)
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
