//! Figure 11: wall-clock runtime (seconds) of computing the two bounds on
//! the `l`-city TSP graph.
//!
//! Unlike the other figures this one deliberately does **not** reuse the
//! engine's caches across rows — the cold one-shot cost *is* the quantity
//! being measured. The min-cut sweep runs un-sampled (that is the method
//! being timed) and is cut off once a row exceeds the budget, mirroring
//! the paper's 1-day cutoff.

use crate::table::{Cell, Table};
use crate::Preset;
use graphio_baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions, VertexSweep};
use graphio_graph::generators::bhk_hypercube;
use graphio_spectral::{spectral_bound, BoundOptions};
use std::time::{Duration, Instant};

/// Builds the Figure 11 runtime table.
pub fn fig11(preset: Preset) -> Table {
    let (ls, budget): (Vec<usize>, Duration) = match preset {
        Preset::Quick => ((6..=10).collect(), Duration::from_secs(10)),
        Preset::Full => ((6..=13).collect(), Duration::from_secs(600)),
    };
    let m = 16usize;
    let mut t = Table::new(
        "fig11",
        "Runtime (s) of the lower-bound computations on the l-city TSP graph (M=16)",
        &["l", "n", "spectral_s", "mincut_s"],
    );
    let mut mincut_dead = false;
    for &l in &ls {
        let g = bhk_hypercube(l);
        let start = Instant::now();
        let _ = spectral_bound(&g, m, &BoundOptions::for_graph_size(g.n()));
        let spectral_s = start.elapsed().as_secs_f64();

        let mincut_cell = if mincut_dead {
            Cell::Empty
        } else {
            let start = Instant::now();
            let _ = convex_min_cut_bound(
                &g,
                m,
                &ConvexMinCutOptions {
                    sweep: VertexSweep::All,
                    ..Default::default()
                },
            );
            let elapsed = start.elapsed();
            if elapsed > budget {
                mincut_dead = true; // later rows would blow the budget
            }
            Cell::Precise(elapsed.as_secs_f64())
        };
        t.push(vec![
            Cell::Int(l as i64),
            Cell::Int(g.n() as i64),
            Cell::Precise(spectral_s),
            mincut_cell,
        ]);
    }
    t
}
