//! The n-sweep behind `BENCH_linalg.json`: Laplacian assembly and sparse
//! mat-vec SIMD-vs-scalar timings and end-to-end analyze wall clock from
//! n = 10³ to n = 10⁶, on two generator families, plus one dense-tier row
//! (an Erdős–Rényi DAG, n = 400) — so later PRs can't regress scale.
//!
//! For each (family, size) the example times building both Laplacians
//! from the graph (`laplacian_s`), builds the normalized one and times
//! one mat-vec under the default `Strict` SIMD policy and again
//! with SIMD forced `Off` (same bits either way — that's the Strict
//! contract), times the convex min-cut sweep alone (`mincut_s`, on its own
//! cold session), times both Laplacian spectra alone (`eigensolve_s`,
//! through `BoundOptions::for_graph_size`, on their own cold session with
//! the Laplacians already built), and runs the full analysis document
//! (spectra for Theorems 4/5, min-cut sweep, LRU simulation) through the
//! production scale-tier schedule. Last, it writes that cold session to a
//! temporary `graphio_store` and times the warm restart (`restored_s`:
//! `load_session` plus the same document), asserting the restored bytes
//! equal the cold ones and that the restore ran zero eigensolves.
//!
//! Each of those five phases is timed on three fresh sessions and the
//! median is reported, so one slow run does not move a row. Past
//! `HUGE_CUTOFF` the analysis runs no eigensolve (tier `"none"`), so those
//! rows skip the eigensolve phase and write `"eigensolve_s": null`.
//!
//! After each phase of a row it prints the process's peak resident set
//! (`VmHWM`) to stderr, so the phase that sets the sweep's peak memory can
//! be read off the log.
//!
//! ```text
//! cargo run --release --example linalg_sweep > BENCH_linalg.json
//! cargo run --release --example linalg_sweep -- quick   # small sizes only
//! ```

use graphio::baselines::ConvexMinCutOptions;
use graphio::graph::generators::{bhk_hypercube, erdos_renyi_dag, fft_butterfly};
use graphio::graph::{fingerprint, CompGraph};
use graphio::linalg::simd::{avx2_available, set_policy};
use graphio::linalg::SimdPolicy;
use graphio::service::analysis::{analysis_body, is_certified, AnalyzeSpec};
use graphio::spectral::{
    normalized_laplacian, unnormalized_laplacian, BoundOptions, LaplacianKind, OwnedAnalyzer,
    ScaleTier,
};
use graphio::store::{load_session, save_session, Store, StoreConfig};
use std::time::Instant;

/// Seconds per mat-vec for (Strict, forced-scalar), each the best of five
/// averaged batches — with the two policies *interleaved* batch by batch,
/// so a slow stretch on a shared machine penalizes both sides equally
/// instead of skewing the ratio.
fn time_matvec_pair(lap: &graphio::linalg::CsrMatrix, reps: usize) -> (f64, f64) {
    let n = lap.dim();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
    let mut y = vec![0.0; n];
    lap.matvec(&x, &mut y);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (slot, policy) in [SimdPolicy::Strict, SimdPolicy::Off]
            .into_iter()
            .enumerate()
        {
            set_policy(policy);
            let t = Instant::now();
            for _ in 0..reps {
                lap.matvec(&x, &mut y);
            }
            best[slot] = best[slot].min(t.elapsed().as_secs_f64() / reps as f64);
        }
    }
    set_policy(SimdPolicy::Strict);
    (best[0], best[1])
}

/// The process's peak resident set so far (`VmHWM`, Linux), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Reports the peak resident set after `phase` of row `name`.
fn log_peak(name: &str, phase: &str) {
    if let Some(mb) = peak_rss_mb() {
        eprintln!("{name}: VmHWM {mb:.0} MB after {phase}");
    }
}

/// The solver the analysis of an `n`-vertex graph runs: `"none"` past
/// the cutoff, where it serves no spectral bound.
fn tier_name(n: usize) -> &'static str {
    if !is_certified(n) {
        return "none";
    }
    match ScaleTier::of(n) {
        ScaleTier::Dense => "dense",
        ScaleTier::Sparse => "sparse",
    }
}

/// The median of three runs of `phase`, each of which returns its own
/// wall time in seconds.
fn median_of_3(mut phase: impl FnMut() -> f64) -> f64 {
    let mut times = [phase(), phase(), phase()];
    times.sort_by(f64::total_cmp);
    times[1]
}

type GraphBuilder = Box<dyn Fn() -> CompGraph>;

fn main() {
    let quick = std::env::args().nth(1).as_deref() == Some("quick");
    let sweep: Vec<(&str, GraphBuilder)> = vec![
        (
            "erdos_renyi_dag(400, 0.1, 1)",
            Box::new(|| erdos_renyi_dag(400, 0.1, 1)),
        ), // n = 400, dense tier
        ("fft_butterfly(7)", Box::new(|| fft_butterfly(7))), // n = 1,024
        ("fft_butterfly(10)", Box::new(|| fft_butterfly(10))), // n = 11,264
        ("fft_butterfly(13)", Box::new(|| fft_butterfly(13))), // n = 114,688
        ("fft_butterfly(16)", Box::new(|| fft_butterfly(16))), // n = 1,114,112
        ("bhk_hypercube(10)", Box::new(|| bhk_hypercube(10))), // n = 1,024
        ("bhk_hypercube(13)", Box::new(|| bhk_hypercube(13))), // n = 8,192
        ("bhk_hypercube(17)", Box::new(|| bhk_hypercube(17))), // n = 131,072
        ("bhk_hypercube(20)", Box::new(|| bhk_hypercube(20))), // n = 1,048,576
    ];

    let store_dir =
        std::env::temp_dir().join(format!("graphio_linalg_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Store::open(&store_dir, StoreConfig::default()).expect("open store");
    let spec = AnalyzeSpec::sweep(vec![4, 16]);

    let mut rows = Vec::new();
    for (name, build) in &sweep {
        let g = build();
        let n = g.n();
        if quick && n > 20_000 {
            continue;
        }
        // Both Laplacians, each pair dropped before the next is built.
        let laplacian_s = median_of_3(|| {
            let t = Instant::now();
            let _pair = (normalized_laplacian(&g), unnormalized_laplacian(&g));
            t.elapsed().as_secs_f64()
        });
        log_peak(name, "Laplacian builds");

        let lap = normalized_laplacian(&g);
        let nnz = lap.nnz();
        // Enough repetitions to clear timer noise at small n without
        // spending minutes at n = 10⁶.
        let reps = (40_000_000 / nnz.max(1)).clamp(3, 4000);

        let (simd_s, scalar_s) = time_matvec_pair(&lap, reps);
        let speedup = scalar_s / simd_s;
        // Each session below builds its own Laplacians.
        drop(lap);
        log_peak(name, "mat-vec pair");

        // Each on its own session, so the analyze below still sweeps cold.
        let mincut_s = median_of_3(|| {
            let session = OwnedAnalyzer::from_graph(g.clone());
            let t = Instant::now();
            session.min_cut(&ConvexMinCutOptions::for_graph_size(n));
            t.elapsed().as_secs_f64()
        });
        log_peak(name, "min-cut sessions");

        // Both spectra on their own session, timed without the Laplacian
        // builds.
        let eigensolve_s = is_certified(n).then(|| {
            let s = median_of_3(|| {
                let session = OwnedAnalyzer::from_graph(g.clone());
                let opts = BoundOptions::for_graph_size(n);
                for kind in LaplacianKind::ALL {
                    session.laplacian(kind);
                }
                let t = Instant::now();
                for kind in LaplacianKind::ALL {
                    session.spectrum(kind, &opts).expect("eigensolve failed");
                }
                t.elapsed().as_secs_f64()
            });
            log_peak(name, "eigensolve sessions");
            s
        });

        let fp = fingerprint(&g);
        // The last cold session is kept for the store round trip; the one
        // before it is freed before the next is built, so that at
        // n = 10⁶ two sessions are never held at once.
        let mut cold = None;
        let analyze_s = median_of_3(|| {
            drop(cold.take());
            let graph = g.clone();
            let t = Instant::now();
            let analyzer = OwnedAnalyzer::from_graph(graph);
            let body = analysis_body(&analyzer, &spec);
            let s = t.elapsed().as_secs_f64();
            cold = Some((analyzer, body));
            s
        });
        let (analyzer, body) = cold.expect("three analyze sessions ran");
        assert!(body.contains("\"thm4\""), "analysis body malformed");
        log_peak(name, "analyze sessions");

        // Warm restart: the cold session through the store and back.
        save_session(&store, fp, &analyzer).expect("write through");
        // Free the cold session first: at n = 10⁶ holding both would
        // raise the sweep's peak memory.
        drop(analyzer);
        let restored_s = median_of_3(|| {
            let t = Instant::now();
            let restored = load_session(&store, fp)
                .expect("read store")
                .expect("record exists");
            let restored_body = analysis_body(&restored, &spec);
            let s = t.elapsed().as_secs_f64();
            assert_eq!(
                body, restored_body,
                "{name}: restored bytes must match cold"
            );
            assert_eq!(
                restored.stats().spectrum_misses,
                0,
                "{name}: restored session eigensolved"
            );
            s
        });
        log_peak(name, "store round trips");

        let eigensolve = eigensolve_s.map_or("null".to_string(), |s| format!("{s:.3}"));
        eprintln!(
            "{name}: n={n} nnz={nnz} laplacians {laplacian_s:.3}s, \
             matvec {simd:.1}us vs {scalar:.1}us ({speedup:.2}x), \
             eigensolve_s {eigensolve}, mincut {mincut_s:.2}s, analyze {analyze_s:.1}s, \
             restored {restored_s:.3}s [{tier}]",
            simd = simd_s * 1e6,
            scalar = scalar_s * 1e6,
            tier = tier_name(n),
        );
        rows.push(format!(
            "    {{\"graph\": \"{name}\", \"n\": {n}, \"nnz\": {nnz}, \"tier\": \"{tier}\", \
             \"laplacian_s\": {laplacian_s:.3}, \
             \"matvec_simd_us\": {simd:.2}, \"matvec_scalar_us\": {scalar:.2}, \
             \"matvec_speedup\": {speedup:.2}, \"eigensolve_s\": {eigensolve}, \"mincut_s\": {mincut_s:.3}, \
             \"analyze_s\": {analyze_s:.2}, \"restored_s\": {restored_s:.6}}}",
            tier = tier_name(n),
            simd = simd_s * 1e6,
            scalar = scalar_s * 1e6,
        ));
    }

    println!("{{");
    println!("  \"bench\": \"linalg_sweep\",");
    println!(
        "  \"description\": \"both Laplacians built from the graph, the sparse mat-vec \
         SIMD (strict) vs forced-scalar, both Laplacian spectra alone, the convex min-cut \
         sweep alone, and end-to-end analyze (memories 4,16: spectra + min-cut + \
         simulation) across the scale tiers, and the same \
         document from the session restored out of graphio_store (byte-identical, 0 \
         eigensolves); each phase the median of 3 cold sessions, and no eigensolve past \
         the 100000-vertex cutoff (tier none)\","
    );
    println!("  \"avx2\": {},", avx2_available());
    println!("  \"rows\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
    let _ = std::fs::remove_dir_all(&store_dir);
}
