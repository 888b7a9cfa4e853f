//! Figure/table reproduction harness for the paper's evaluation (§5–§6).
//!
//! Each experiment in `DESIGN.md`'s index has a runner in [`experiments`]
//! returning a [`Table`]; the `reproduce` binary dispatches on experiment
//! id, prints Markdown, and writes CSV under `results/`. The runtime side
//! (Figure 11) is the `fig11` experiment here; the offline speed ledger is
//! `examples/linalg_sweep.rs` → `BENCH_linalg.json` at the workspace root.

pub mod experiments;
pub mod table;

pub use table::{Cell, Table};

/// Sizing presets: `quick` keeps every experiment under ~a minute; `full`
/// reproduces the paper's largest plotted sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// CI-sized runs.
    Quick,
    /// Paper-sized runs (minutes for the biggest graphs).
    Full,
}

impl Preset {
    /// Parses `"quick"`/`"full"`.
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "quick" => Some(Preset::Quick),
            "full" => Some(Preset::Full),
            _ => None,
        }
    }
}
