//! The served-row invariant: in every served row each lower bound
//! (`thm4`, `thm5`, `thm6`, `mincut`) is at most the row's simulated upper
//! bound `sim_upper`. A lower bound holds for every schedule, the
//! simulated one included, so a violation is a bug in a bound (or in the
//! simulator), never in the graph. Rows past the huge cutoff
//! (`certified: false`) carry no spectral bound, only `mincut`.
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

/// Every served row carries `"certified"`: `true` on the dense and Lanczos
/// tiers, `false` from one vertex past `HUGE_CUTOFF` on. There the
/// analysis runs no eigensolve: every spectral column of every row is
/// `null`, the document names no `"method"` and counts 0 eigensolves.
#[test]
fn rows_are_certified_exactly_below_the_huge_cutoff() {
    use graphio_graph::generators::path_dag;
    use graphio_graph::json::JsonValue;
    use graphio_service::analysis::analysis_doc;
    use graphio_spectral::HUGE_CUTOFF;
    let spec = AnalyzeSpec {
        no_sim: true,
        processors: 4,
        ..AnalyzeSpec::sweep(vec![4, 16])
    };
    for (g, method, eigensolves) in [
        (fft_butterfly(3), JsonValue::String("dense".into()), 2),
        (bhk_hypercube(9), JsonValue::String("lanczos".into()), 2),
        (path_dag(HUGE_CUTOFF + 1), JsonValue::Null, 0),
        (fft_butterfly(13), JsonValue::Null, 0),
    ] {
        let n = g.n();
        let certified = n <= HUGE_CUTOFF;
        assert_eq!(is_certified(n), certified);
        let an = OwnedAnalyzer::from_graph(g);
        let doc = analysis_doc(&an, &spec);
        assert_eq!(doc.get("method"), Some(&method), "n = {n}");
        let served = doc.get("eigensolves").and_then(JsonValue::as_u64);
        assert_eq!(served, Some(eigensolves), "n = {n}");
        assert_eq!(an.stats().spectrum_misses, eigensolves, "n = {n}");
        let rows = doc.get("sweep").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            let flag = row.get("certified");
            assert_eq!(flag, Some(&JsonValue::Bool(certified)), "n = {n}: {row:?}");
            for column in ["thm4", "best_k", "thm5", "thm6"] {
                let null = row.get(column) == Some(&JsonValue::Null);
                assert_eq!(null, !certified, "n = {n}: {column} in {row:?}");
            }
        }
    }
}
