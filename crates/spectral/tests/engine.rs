//! Property tests for the analysis engine: bounds served from an
//! `OwnedAnalyzer`'s caches must be bit-identical to the direct one-shot
//! entry points, on every graph family and both eigensolver paths.

use graphio_graph::generators::{erdos_renyi_dag, fft_butterfly, layered_random_dag};
use graphio_graph::CompGraph;
use graphio_spectral::{
    parallel_spectral_bound, spectral_bound, spectral_bound_original, BoundOptions, EigenMethod,
    OwnedAnalyzer, SpectralBound,
};
use proptest::prelude::*;

fn small_random_dag() -> impl Strategy<Value = CompGraph> {
    (0u64..400, 0usize..2).prop_map(|(seed, kind)| match kind {
        0 => layered_random_dag(2 + (seed as usize % 4), 2 + (seed as usize % 5), 0.5, seed),
        _ => erdos_renyi_dag(4 + (seed as usize % 20), 0.35, seed),
    })
}

fn assert_bitwise_eq(direct: &SpectralBound, served: &SpectralBound) -> Result<(), TestCaseError> {
    prop_assert_eq!(direct.bound.to_bits(), served.bound.to_bits());
    prop_assert_eq!(direct.raw.to_bits(), served.raw.to_bits());
    prop_assert_eq!(direct.best_k, served.best_k);
    prop_assert_eq!(direct.n, served.n);
    prop_assert_eq!(&direct.eigenvalues, &served.eigenvalues);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_matches_direct_calls_bit_for_bit(g in small_random_dag(), m in 0usize..12) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        let an = OwnedAnalyzer::from_graph(g.clone());
        let opts = BoundOptions::default();
        assert_bitwise_eq(&spectral_bound(&g, m, &opts).unwrap(), &an.bound(m, &opts).unwrap())?;
        assert_bitwise_eq(
            &spectral_bound_original(&g, m, &opts).unwrap(),
            &an.bound_original(m, &opts).unwrap(),
        )?;
        for p in [1usize, 2, 4] {
            assert_bitwise_eq(
                &parallel_spectral_bound(&g, m, p, &opts).unwrap(),
                &an.parallel_bound(m, p, &opts).unwrap(),
            )?;
        }
    }

    #[test]
    fn engine_matches_direct_calls_with_varied_options(
        g in small_random_dag(),
        h in 2usize..32,
        fixed_k in 2usize..6,
    ) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        let an = OwnedAnalyzer::from_graph(g.clone());
        for opts in [
            BoundOptions { h, ..Default::default() },
            BoundOptions { h, fixed_k: Some(fixed_k.min(h)), ..Default::default() },
        ] {
            let direct = spectral_bound(&g, 2, &opts).unwrap();
            let served = an.bound(2, &opts).unwrap();
            assert_bitwise_eq(&direct, &served)?;
        }
    }
}

#[test]
fn engine_matches_direct_calls_on_the_lanczos_path() {
    // Forced Lanczos on a mid-size butterfly exercises the sparse solver
    // through both entry points with identical options (and thus identical
    // seeds), so even this path is bit-identical — for Theorem 4, for
    // Theorem 5's 1/d_max scale and for Theorem 6's processor form.
    let g = fft_butterfly(5);
    let opts = BoundOptions {
        h: 20,
        method: EigenMethod::Lanczos(Default::default()),
        ..Default::default()
    };
    let an = OwnedAnalyzer::from_graph(g.clone());
    for m in [2usize, 4, 8] {
        let pairs = [
            (spectral_bound(&g, m, &opts), an.bound(m, &opts)),
            (
                spectral_bound_original(&g, m, &opts),
                an.bound_original(m, &opts),
            ),
            (
                parallel_spectral_bound(&g, m, 2, &opts),
                an.parallel_bound(m, 2, &opts),
            ),
            (
                parallel_spectral_bound(&g, m, 4, &opts),
                an.parallel_bound(m, 4, &opts),
            ),
        ];
        for (direct, served) in pairs {
            let (direct, served) = (direct.unwrap(), served.unwrap());
            assert_eq!(direct.bound.to_bits(), served.bound.to_bits());
            assert_eq!(direct.raw.to_bits(), served.raw.to_bits());
            assert_eq!(direct.best_k, served.best_k);
            assert_eq!(direct.eigenvalues, served.eigenvalues);
        }
    }
    // Three memory sizes and three theorems, one spectrum per Laplacian.
    assert_eq!(an.stats().spectrum_misses, 2);
}
