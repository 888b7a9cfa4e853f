//! The shared analysis pipeline: one deterministic JSON document serving
//! both the offline CLI (`graphio analyze --json`) and `POST /analyze`.
//!
//! Bit-identical responses are a hard requirement (and are
//! property-tested): the server must be a *transparent* accelerator of the
//! offline path, never a differently-rounded one. Both paths therefore
//! call [`analysis_doc`] with the same size-scaled option schedules
//! ([`BoundOptions::for_graph_size`] /
//! [`ConvexMinCutOptions::for_graph_size`]); the engine guarantees cached
//! and cold bounds agree to the bit, the linalg kernels are serial, and
//! the min-cut sweep concatenates its worker chunks in order, so cache
//! state, worker count and thread knob all cancel out of the output.
//!
//! The document deliberately contains only request-determined fields. The
//! one instrumentation-flavored field, `"eigensolves"`, is defined as the
//! number of distinct `(Laplacian kind, solver options)` spectra the
//! analysis *requires* — i.e. the eigensolves a cold session performs —
//! rather than a live counter, precisely so a warm server cache cannot
//! change the bytes.
//!
//! Every figure in a row is a fixed property of the graph and
//! the memory size, and the session memoizes all of them: the spectra
//! behind `thm4`/`thm5`/`thm6`, the min-cut sweep behind `mincut`, and
//! the `sim_upper` simulation per memory. A warm [`analysis_doc`] is
//! therefore bound arithmetic plus serialization — no eigensolve, no
//! min-cut sweep, no simulation.
//!
//! In debug builds [`analyze_rows`] checks the served-row invariant on
//! the certified tiers (`dense`/`lanczos`): every lower bound in a row is
//! at most that row's simulated upper bound.

use graphio_baselines::convex_mincut::ConvexMinCutOptions;
use graphio_graph::json::JsonValue;
use graphio_graph::{CompGraph, EdgeListGraph};
use graphio_spectral::{BoundOptions, LaplacianKind, OwnedAnalyzer, SpectrumKey};

/// A validated analysis request: which memory sizes, how many processors,
/// and whether to run the simulation upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeSpec {
    /// Memory sizes to sweep (validated: non-empty, no zeros, no
    /// duplicates — see [`validate_memories`]).
    pub memories: Vec<usize>,
    /// Processor count for the Theorem 6 parallel bound (1 disables it).
    pub processors: usize,
    /// Skip the pebble-game simulation upper bound.
    pub no_sim: bool,
}

impl AnalyzeSpec {
    /// A single-processor sweep with simulation enabled.
    pub fn sweep(memories: Vec<usize>) -> AnalyzeSpec {
        AnalyzeSpec {
            memories,
            processors: 1,
            no_sim: false,
        }
    }
}

/// Validates a raw memory sweep: rejects empty sweeps and `0` entries
/// (an `M = 0` point is degenerate — the bound formulas assume at least
/// one word of fast memory), and drops duplicate values, reporting each
/// drop as a warning so callers can surface it.
///
/// # Errors
/// A human-readable message naming the offending input.
pub fn validate_memories(raw: &[usize]) -> Result<(Vec<usize>, Vec<String>), String> {
    if raw.is_empty() {
        return Err("memory sweep is empty".to_string());
    }
    let mut seen = std::collections::HashSet::new();
    let mut memories = Vec::with_capacity(raw.len());
    let mut warnings = Vec::new();
    for &m in raw {
        if m == 0 {
            return Err("memory size 0 is not a valid sweep point".to_string());
        }
        if seen.insert(m) {
            memories.push(m);
        } else {
            warnings.push(format!("duplicate memory size {m} dropped from sweep"));
        }
    }
    Ok((memories, warnings))
}

/// Parses a request body as JSON, with the exact error wording the
/// server's 400 responses use. Shared with the cluster router, which must
/// reproduce the single-node error bytes for bodies it rejects locally.
///
/// # Errors
/// The `{"error": ...}` message for the 400 response.
pub fn parse_request_json(body: &[u8]) -> Result<JsonValue, String> {
    let _span = graphio_obs::span!("parse");
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    graphio_graph::json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

/// Extracts the graph sub-document: `{"graph": {...}}` wrapping or a bare
/// edge-list document.
pub fn graph_value(doc: &JsonValue) -> &JsonValue {
    doc.get("graph").unwrap_or(doc)
}

/// Parses the graph carried by an analyze/register document (wrapped or
/// bare edge list), with the server's canonical error wording.
///
/// # Errors
/// The `{"error": ...}` message for the 400 response.
pub fn parse_graph_doc(doc: &JsonValue) -> Result<CompGraph, String> {
    let el = EdgeListGraph::from_json_value(graph_value(doc))
        .map_err(|e| format!("invalid graph: {e}"))?;
    CompGraph::try_from(el).map_err(|e| format!("invalid graph: {e}"))
}

/// Parses the sweep spec (`memories`/`processors`/`no_sim`) shared by
/// `POST /analyze` and `POST /batch` (and validated identically by the
/// cluster router before it splits a batch).
///
/// # Errors
/// `(status, message)` for the error response.
pub fn parse_spec(doc: &JsonValue) -> Result<(AnalyzeSpec, Vec<String>), (u16, String)> {
    let raw_memories: Vec<usize> = doc
        .get("memories")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| (400, "missing \"memories\" array".to_string()))?
        .iter()
        .map(|v| {
            // as_u64 so any M the offline CLI accepts (and JSON can carry
            // exactly) round-trips; the offline/server parity contract
            // covers large memories too.
            v.as_u64().map(|m| m as usize).ok_or_else(|| {
                (
                    400,
                    "memory sizes must be non-negative integers".to_string(),
                )
            })
        })
        .collect::<Result<_, _>>()?;
    let (memories, warnings) = validate_memories(&raw_memories).map_err(|m| (400, m))?;
    let processors = match doc.get("processors") {
        None => 1,
        Some(v) => v
            .as_u32()
            .filter(|&p| p >= 1)
            .ok_or_else(|| (400, "\"processors\" must be a positive integer".to_string()))?
            as usize,
    };
    let no_sim = match doc.get("no_sim") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => return Err((400, "\"no_sim\" must be a boolean".to_string())),
    };
    // `"mode"` survives only as the name of the one analysis there is.
    match doc.get("mode").map(JsonValue::as_str) {
        None | Some(Some("monolithic")) => {}
        Some(Some("compose")) => {
            return Err((
                400,
                "compose mode was removed; \"mode\" must be \"monolithic\"".to_string(),
            ))
        }
        Some(_) => return Err((400, "\"mode\" must be \"monolithic\"".to_string())),
    }
    Ok((
        AnalyzeSpec {
            memories,
            processors,
            no_sim,
        },
        warnings,
    ))
}

/// Maximum graphs accepted in one `POST /batch` request.
pub const MAX_BATCH_GRAPHS: usize = 64;

/// Validates the shape of a `POST /batch` body (`graphs` present,
/// non-empty, within [`MAX_BATCH_GRAPHS`]) and returns the entries. One
/// source of truth for the messages, shared between the server and the
/// cluster router (which must reject malformed batches with single-node
/// bytes *before* splitting them).
///
/// # Errors
/// `(status, message)` for the error response.
pub fn validate_batch_entries(doc: &JsonValue) -> Result<&[JsonValue], (u16, String)> {
    let entries = doc
        .get("graphs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| (400, "missing \"graphs\" array".to_string()))?;
    if entries.is_empty() {
        return Err((400, "\"graphs\" must not be empty".to_string()));
    }
    if entries.len() > MAX_BATCH_GRAPHS {
        return Err((
            413,
            format!(
                "batch of {} graphs exceeds the {MAX_BATCH_GRAPHS}-graph cap",
                entries.len()
            ),
        ));
    }
    Ok(entries)
}

/// One memory point of an analysis session.
#[derive(Debug, Clone)]
pub struct AnalyzeRow {
    /// The fast-memory size `M` of this sweep point.
    pub memory: usize,
    /// Theorem 4 bound and its maximizing `k`, if the eigensolve succeeded.
    pub thm4: Option<(f64, usize)>,
    /// Theorem 5 bound, if the eigensolve succeeded.
    pub thm5: Option<f64>,
    /// Theorem 6 parallel bound (only when `processors > 1`).
    pub thm6: Option<f64>,
    /// Convex min-cut baseline bound.
    pub mincut: u64,
    /// Best simulated upper bound (LRU vs Bélády), unless `no_sim`.
    pub sim_upper: Option<u64>,
}

impl AnalyzeRow {
    /// The row's lower bounds that its `sim_upper` falls below, by name —
    /// empty for every row on the certified tiers (a bound is ≤ the I/O of
    /// any schedule, the simulated ones included). Rows without a
    /// simulation have nothing to violate.
    pub fn bounds_above_sim(&self) -> Vec<&'static str> {
        let Some(sim) = self.sim_upper else {
            return Vec::new();
        };
        let sim = sim as f64;
        [
            ("thm4", self.thm4.map(|(b, _)| b)),
            ("thm5", self.thm5),
            ("thm6", self.thm6),
            ("mincut", Some(self.mincut as f64)),
        ]
        .into_iter()
        .filter(|&(_, bound)| bound.is_some_and(|b| b > sim))
        .map(|(name, _)| name)
        .collect()
    }
}

/// Runs the sweep against `analyzer` (cold or cached — same bits either
/// way) and returns the per-memory rows. Simulated upper bounds come from
/// the session's per-memory memo, so only memories the session has never
/// simulated cost a simulation.
pub fn analyze_rows(analyzer: &OwnedAnalyzer, spec: &AnalyzeSpec) -> Vec<AnalyzeRow> {
    let n = analyzer.graph().n();
    let opts = BoundOptions::for_graph_size(n);
    let mc_opts = ConvexMinCutOptions::for_graph_size(n);
    let sims = if spec.no_sim {
        vec![None; spec.memories.len()]
    } else {
        analyzer.sim_uppers(&spec.memories)
    };
    let rows: Vec<AnalyzeRow> = spec
        .memories
        .iter()
        .zip(sims)
        .map(|(&m, sim_upper)| {
            let thm4 = analyzer.bound(m, &opts).ok().map(|b| (b.bound, b.best_k));
            let thm5 = analyzer.bound_original(m, &opts).ok().map(|b| b.bound);
            let thm6 = (spec.processors > 1)
                .then(|| analyzer.parallel_bound(m, spec.processors, &opts).ok())
                .flatten()
                .map(|b| b.bound);
            let mincut = analyzer.min_cut_bound(m, &mc_opts);
            AnalyzeRow {
                memory: m,
                thm4,
                thm5,
                thm6,
                mincut,
                sim_upper,
            }
        })
        .collect();
    if cfg!(debug_assertions) && is_certified(n) {
        for row in &rows {
            let broken = row.bounds_above_sim();
            debug_assert!(
                broken.is_empty(),
                "served lower bounds {broken:?} exceed sim_upper in {row:?} (n = {n})"
            );
        }
    }
    rows
}

/// Whether an `n`-vertex monolithic analysis runs on a certified
/// eigensolver tier (`dense` or `lanczos`), whose bounds are proven lower
/// bounds; the `ritz_sweep` tier serves estimates.
pub fn is_certified(n: usize) -> bool {
    resolved_method_name(n) != "ritz_sweep"
}

/// Number of distinct Laplacian spectra the analysis requires — the
/// eigensolves a cold session performs (Theorem 4 and 6 share the
/// normalized spectrum; Theorem 5 uses the unnormalized one).
pub fn required_eigensolves(_spec: &AnalyzeSpec) -> usize {
    // Every request runs Theorem 4 (normalized spectrum) and Theorem 5
    // (unnormalized); Theorem 6 (`processors > 1`) reuses the normalized
    // one — so the count is currently spec-independent. Revisit if
    // variants ever become optional.
    LaplacianKind::ALL.len()
}

/// The eigensolver an `n`-vertex monolithic analysis resolves to under
/// the size-scaled schedule — the document's `"method"` field
/// (`"dense"` / `"lanczos"` / `"ritz_sweep"`).
pub fn resolved_method_name(n: usize) -> &'static str {
    SpectrumKey::for_options(
        LaplacianKind::Normalized,
        &BoundOptions::for_graph_size(n),
        n,
    )
    .method
    .name()
}

/// The canonical analysis document (see the module docs). Serializing
/// this value and appending `\n` is the exact byte stream both
/// `graphio analyze --json` and `POST /analyze` emit.
pub fn analysis_doc(analyzer: &OwnedAnalyzer, spec: &AnalyzeSpec) -> JsonValue {
    let g = analyzer.graph();
    let rows = analyze_rows(analyzer, spec);
    let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Number);
    JsonValue::Object(vec![
        ("n".to_string(), JsonValue::Number(g.n() as f64)),
        ("edges".to_string(), JsonValue::Number(g.num_edges() as f64)),
        (
            "processors".to_string(),
            JsonValue::Number(spec.processors as f64),
        ),
        (
            "method".to_string(),
            JsonValue::String(resolved_method_name(g.n()).to_string()),
        ),
        (
            "eigensolves".to_string(),
            JsonValue::Number(required_eigensolves(spec) as f64),
        ),
        (
            "sweep".to_string(),
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        JsonValue::Object(vec![
                            ("memory".into(), JsonValue::Number(r.memory as f64)),
                            ("thm4".into(), opt_num(r.thm4.map(|(b, _)| b))),
                            (
                                "best_k".into(),
                                r.thm4
                                    .map_or(JsonValue::Null, |(_, k)| JsonValue::Number(k as f64)),
                            ),
                            ("thm5".into(), opt_num(r.thm5)),
                            ("thm6".into(), opt_num(r.thm6)),
                            ("mincut".into(), JsonValue::Number(r.mincut as f64)),
                            ("sim_upper".into(), opt_num(r.sim_upper.map(|s| s as f64))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// [`analysis_doc`] as the exact wire/stdout byte string (trailing
/// newline included) — the one entry point of the offline CLI,
/// `/analyze` and the `/batch` fan-out.
pub fn analysis_body(analyzer: &OwnedAnalyzer, spec: &AnalyzeSpec) -> String {
    let mut s = analysis_doc(analyzer, spec).to_string();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::generators::fft_butterfly;

    #[test]
    fn validate_rejects_zero_and_empty() {
        assert!(validate_memories(&[]).is_err());
        assert!(validate_memories(&[4, 0, 8]).is_err());
    }

    #[test]
    fn validate_dedups_with_warnings_preserving_order() {
        let (mems, warnings) = validate_memories(&[8, 4, 8, 2, 4]).unwrap();
        assert_eq!(mems, vec![8, 4, 2]);
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].contains("duplicate memory size 8"));
    }

    #[test]
    fn required_eigensolves_is_two_for_all_processor_counts() {
        for p in [1usize, 2, 16] {
            let spec = AnalyzeSpec {
                memories: vec![4],
                processors: p,
                no_sim: true,
            };
            assert_eq!(required_eigensolves(&spec), 2);
        }
    }

    #[test]
    fn doc_is_identical_for_cold_and_warm_sessions() {
        let g = fft_butterfly(4);
        let spec = AnalyzeSpec::sweep(vec![2, 4, 8]);
        let warm = OwnedAnalyzer::from_graph(g.clone());
        let first = analysis_body(&warm, &spec);
        let again = analysis_body(&warm, &spec); // every spectrum now cached
        let cold = analysis_body(&OwnedAnalyzer::from_graph(g), &spec);
        assert_eq!(first, again);
        assert_eq!(first, cold);
        assert!(first.ends_with('\n'));
    }

    #[test]
    fn overlapping_sweeps_simulate_each_memory_once() {
        let g = fft_butterfly(4);
        let warm = OwnedAnalyzer::from_graph(g.clone());
        for memories in [vec![4, 8], vec![8, 16]] {
            let spec = AnalyzeSpec::sweep(memories);
            let cold = analysis_body(&OwnedAnalyzer::from_graph(g.clone()), &spec);
            assert_eq!(analysis_body(&warm, &spec), cold);
        }
        let stats = warm.stats();
        assert_eq!((stats.sim_misses, stats.sim_hits), (3, 1), "{stats:?}");
        // `no_sim` leaves the memo alone.
        let spec = AnalyzeSpec {
            no_sim: true,
            ..AnalyzeSpec::sweep(vec![32])
        };
        analysis_body(&warm, &spec);
        assert_eq!(warm.stats().sim_misses, 3);
    }

    #[test]
    fn doc_has_the_expected_shape() {
        let an = OwnedAnalyzer::from_graph(fft_butterfly(3));
        let spec = AnalyzeSpec {
            memories: vec![2, 4],
            processors: 4,
            no_sim: false,
        };
        let doc = analysis_doc(&an, &spec);
        assert_eq!(
            doc.get("eigensolves").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(doc.get("processors").and_then(JsonValue::as_f64), Some(4.0));
        let sweep = doc.get("sweep").and_then(JsonValue::as_array).unwrap();
        assert_eq!(sweep.len(), 2);
        for row in sweep {
            for key in [
                "memory",
                "thm4",
                "best_k",
                "thm5",
                "thm6",
                "mincut",
                "sim_upper",
            ] {
                assert!(row.get(key).is_some(), "missing {key}");
            }
        }
    }
}
