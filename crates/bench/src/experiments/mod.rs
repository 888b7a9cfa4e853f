//! One runner per paper figure/table (see the experiment index in
//! `DESIGN.md`), one module per figure.
//!
//! Absolute values depend on our reconstruction of the baselines and on
//! exact-vs-asymptotic constants, so what these tables reproduce is the
//! *shape* of each figure: who is tighter, how bounds scale against the
//! published growth terms, where the runtime explosion happens.
//!
//! Every module consumes the cached [`OwnedAnalyzer`] from
//! `graphio_spectral::engine` through `FigureContext`: each graph's
//! Laplacians are built once, each spectrum and min-cut sweep is computed
//! once, and all memory columns / theorem variants / processor counts are
//! derived from those caches.

mod fig10;
mod fig11;
mod fig7;
mod fig8;
mod fig9;
mod tables;

pub use fig10::fig10;
pub use fig11::fig11;
pub use fig7::fig7;
pub use fig8::fig8;
pub use fig9::fig9;
pub use tables::{
    tab_ablation, tab_butterfly, tab_er, tab_fft_gap, tab_hypercube, tab_parallel, tab_sandwich,
};

use crate::table::{Cell, Table};
use crate::Preset;
use graphio_baselines::convex_mincut::ConvexMinCutOptions;
use graphio_graph::CompGraph;
use graphio_spectral::{BoundOptions, OwnedAnalyzer};

/// Per-graph analysis shared by a figure's rows: an [`OwnedAnalyzer`]
/// session on a copy of the graph plus the size-scaled options, turning
/// bounds into table cells. Neither the Laplacian spectra nor the max
/// wavefront cut depend on `M`, so the figures compute each once per graph
/// and evaluate all `M` columns (and theorem variants, and processor
/// counts) from the caches.
pub(crate) struct FigureContext {
    pub analyzer: OwnedAnalyzer,
    pub opts: BoundOptions,
    pub mincut_opts: ConvexMinCutOptions,
}

impl FigureContext {
    pub fn new(g: &CompGraph) -> Self {
        FigureContext {
            analyzer: OwnedAnalyzer::from_graph(g.clone()),
            opts: BoundOptions::for_graph_size(g.n()),
            mincut_opts: ConvexMinCutOptions::for_graph_size(g.n()),
        }
    }

    /// Theorem 4 at memory `m` (empty cell on eigensolver failure).
    pub fn spectral_cell(&self, m: usize) -> Cell {
        match self.analyzer.bound(m, &self.opts) {
            Ok(b) => Cell::Float(b.bound),
            Err(_) => Cell::Empty,
        }
    }

    /// The convex min-cut bound at memory `m`, from the cached sweep.
    pub fn mincut_cell(&self, m: usize) -> Cell {
        Cell::Int(self.analyzer.min_cut_bound(m, &self.mincut_opts) as i64)
    }
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 12] = [
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "tab_butterfly",
    "tab_hypercube",
    "tab_fft_gap",
    "tab_er",
    "tab_parallel",
    "tab_sandwich",
    "tab_ablation",
];

/// Runs the experiment with the given id.
///
/// # Panics
/// Panics on an unknown id (the CLI validates first).
pub fn run(id: &str, preset: Preset) -> Table {
    match id {
        "fig7" => fig7(preset),
        "fig8" => fig8(preset),
        "fig9" => fig9(preset),
        "fig10" => fig10(preset),
        "fig11" => fig11(preset),
        "tab_butterfly" => tab_butterfly(preset),
        "tab_hypercube" => tab_hypercube(preset),
        "tab_fft_gap" => tab_fft_gap(preset),
        "tab_er" => tab_er(preset),
        "tab_parallel" => tab_parallel(preset),
        "tab_sandwich" => tab_sandwich(preset),
        "tab_ablation" => tab_ablation(preset),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_baselines::convex_mincut::VertexSweep;
    use graphio_spectral::EigenMethod;

    // Experiments with eigensolves are exercised by the release-mode
    // `reproduce` binary and the integration suites; unit tests here stick
    // to the closed-form-only tables so debug-mode `cargo test` stays
    // fast.

    #[test]
    fn fft_gap_table_is_closed_form_and_cheap() {
        let t = tab_fft_gap(Preset::Quick);
        assert_eq!(t.columns.len(), 5);
        assert_eq!(t.rows.len(), 7 * 3); // l = 6..=12 x M in {4,8,16}
    }

    #[test]
    fn option_scaling_by_graph_size() {
        let (bound, mincut) = (
            BoundOptions::for_graph_size,
            ConvexMinCutOptions::for_graph_size,
        );
        assert_eq!(bound(100).h, 100);
        assert_eq!(bound(1_000).h, 48);
        assert_eq!(bound(20_000).h, 32);
        assert_eq!(bound(200_000).h, 32);
        assert!(matches!(bound(100).method, EigenMethod::Dense));
        assert!(matches!(bound(10_000).method, EigenMethod::Lanczos(_)));
        assert!(matches!(bound(200_000).method, EigenMethod::Lanczos(_)));
        assert!(matches!(mincut(100).sweep, VertexSweep::All));
        assert!(matches!(mincut(10_000).sweep, VertexSweep::Sample { .. }));
    }

    #[test]
    fn figure_context_reuses_one_spectrum_across_columns() {
        let g = graphio_graph::generators::fft_butterfly(4);
        let ctx = FigureContext::new(&g);
        for m in [4usize, 8, 16] {
            let _ = ctx.spectral_cell(m);
            let _ = ctx.mincut_cell(m);
        }
        let stats = ctx.analyzer.stats();
        assert_eq!(stats.spectrum_misses, 1, "{stats:?}");
        assert_eq!(stats.mincut_misses, 1, "{stats:?}");
    }

    #[test]
    #[ignore = "runs real eigensolves; exercise with --ignored in release"]
    fn every_experiment_id_dispatches() {
        for id in ALL_EXPERIMENTS {
            let t = run(id, Preset::Quick);
            assert!(!t.rows.is_empty(), "{id}");
        }
    }
}
