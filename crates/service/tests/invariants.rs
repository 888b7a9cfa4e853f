//! The served-row invariant: on the certified eigensolver tiers every
//! lower bound in an analysis row (`thm4`, `thm5`, `thm6`, `mincut`) is at
//! most the row's simulated upper bound `sim_upper`. A lower bound holds
//! for every schedule, the simulated one included, so a violation is a
//! bug in a bound (or in the simulator), never in the graph.
//!
//! `analyze_rows` also checks this with a `debug_assert!`; the property
//! test below sweeps the generator zoo so that check actually runs.

use graphio_graph::generators::{
    bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, naive_matmul,
};
use graphio_graph::CompGraph;
use graphio_service::analysis::{analyze_rows, is_certified, AnalyzeSpec};
use graphio_spectral::OwnedAnalyzer;
use proptest::prelude::*;

/// One graph from each of five families (fft, bhk, diamond, matmul,
/// Erdős–Rényi) at a random dense-tier size.
fn zoo_graph() -> impl Strategy<Value = CompGraph> {
    (0usize..5, 0u64..1000).prop_map(|(which, seed)| match which {
        0 => fft_butterfly(2 + (seed as usize % 4)),
        1 => bhk_hypercube(2 + (seed as usize % 5)),
        2 => diamond_dag(2 + (seed as usize % 8), 2 + (seed as usize / 8 % 8)),
        3 => naive_matmul(2 + (seed as usize % 3)),
        _ => erdos_renyi_dag(8 + (seed as usize % 120), 0.1, seed),
    })
}

fn check(g: CompGraph, memories: Vec<usize>, processors: usize) -> Result<(), String> {
    let n = g.n();
    let an = OwnedAnalyzer::from_graph(g);
    let spec = AnalyzeSpec {
        processors,
        ..AnalyzeSpec::sweep(memories)
    };
    for row in analyze_rows(&an, &spec) {
        let broken = row.bounds_above_sim();
        if !broken.is_empty() {
            return Err(format!(
                "n = {n}, p = {processors}: {broken:?} > sim in {row:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn served_lower_bounds_never_exceed_the_simulation(
        g in zoo_graph(),
        m in 1usize..48,
        processors in 1usize..9,
    ) {
        prop_assert!(is_certified(g.n()));
        let memories = vec![m, 2 * m, 4 * m];
        let result = check(g, memories, processors);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// The Lanczos tier is certified too: one graph above the dense cutoff.
#[test]
fn lanczos_tier_rows_respect_the_simulation() {
    let g = diamond_dag(24, 24);
    assert_eq!(
        graphio_service::analysis::resolved_method_name(g.n()),
        "lanczos"
    );
    check(g, vec![4, 16, 64], 4).unwrap();
}
