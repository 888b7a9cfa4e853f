//! Figure 10 runtime: Bellman–Held–Karp hypercube bound computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphio_graph::generators::bhk_hypercube;
use graphio_spectral::{spectral_bound, spectral_bound_original, BoundOptions};

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_tsp");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for l in [8usize, 10] {
        let g = bhk_hypercube(l);
        let m = 16;
        group.bench_with_input(BenchmarkId::new("thm4", l), &g, |b, g| {
            let opts = BoundOptions::for_graph_size(g.n());
            b.iter(|| spectral_bound(g, m, &opts).unwrap().bound)
        });
    }
    // Theorem 5 variant (same eigen-solve on L instead of L̃).
    let g = bhk_hypercube(10);
    group.bench_function("thm5/10", |b| {
        let opts = BoundOptions::for_graph_size(g.n());
        b.iter(|| spectral_bound_original(&g, 16, &opts).unwrap().bound)
    });
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
