//! End-to-end tests of the `graphio` CLI binary (generate → bound /
//! simulate / dot pipelines through real process boundaries).

use std::io::Write as _;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_graphio"))
}

fn generate(family: &str, size: usize) -> String {
    let out = cli()
        .args(["generate", family, &size.to_string()])
        .output()
        .expect("spawn graphio generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 json")
}

fn run_with_stdin(args: &[&str], stdin_data: &str) -> (String, String, bool) {
    let mut child = cli()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn graphio");
    // A child that rejects its arguments exits before reading stdin, so a
    // broken pipe here is expected for usage-error tests.
    if let Err(e) = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin_data.as_bytes())
    {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn generate_emits_parseable_edge_list() {
    let json = generate("fft", 3);
    let el = graphio::graph::EdgeListGraph::from_json(&json).unwrap();
    assert_eq!(el.ops.len(), 4 * 8);
    assert_eq!(el.edges.len(), 2 * 3 * 8);
}

#[test]
fn bound_pipeline_reports_both_bounds() {
    let json = generate("fft", 5);
    let (stdout, stderr, ok) = run_with_stdin(&["bound", "--memory", "4"], &json);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("spectral lower bound:"), "{stdout}");
    assert!(stdout.contains("convex min-cut bound:"), "{stdout}");
}

#[test]
fn simulate_pipeline_reports_io() {
    let json = generate("diamond", 4);
    let (stdout, _, ok) = run_with_stdin(
        &[
            "simulate", "--memory", "4", "--policy", "belady", "--order", "dfs",
        ],
        &json,
    );
    assert!(ok);
    assert!(stdout.contains("simulated I/O:"), "{stdout}");
}

#[test]
fn simulate_rejects_infeasible_memory() {
    let json = generate("matmul", 3);
    // matmul n=3 has 3-ary sums: needs M >= 4.
    let (_, stderr, ok) = run_with_stdin(&["simulate", "--memory", "3"], &json);
    assert!(!ok);
    assert!(stderr.contains("simulation failed"), "{stderr}");
}

#[test]
fn analyze_sweep_reports_every_memory_and_one_eigensolve() {
    let json = generate("fft", 5);
    let (stdout, stderr, ok) = run_with_stdin(
        &["analyze", "--memory-sweep", "2,4,8,16", "--threads", "2"],
        &json,
    );
    assert!(ok, "stderr: {stderr}");
    for m in ["2", "4", "8", "16"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(m)),
            "missing row for M={m} in:\n{stdout}"
        );
    }
    // One Analyzer session, two Laplacian kinds (Thm4 + Thm5) -> exactly
    // two eigensolves however many memory sizes were swept.
    assert!(
        stdout.contains("eigensolves: 2"),
        "expected one eigensolve per Laplacian kind:\n{stdout}"
    );
}

#[test]
fn analyze_json_output_is_parseable_and_complete() {
    let json = generate("bhk", 5);
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "analyze",
            "--memory-sweep",
            "2,4,8",
            "--processors",
            "4",
            "--json",
        ],
        &json,
    );
    assert!(ok, "stderr: {stderr}");
    let doc = graphio::graph::json::parse(&stdout).expect("analyze --json must emit valid JSON");
    let sweep = doc.get("sweep").and_then(|s| s.as_array()).unwrap();
    assert_eq!(sweep.len(), 3);
    for row in sweep {
        assert!(row.get("memory").is_some());
        assert!(row.get("thm4").is_some());
        assert!(row.get("thm5").is_some());
        assert!(row.get("thm6").is_some());
        assert!(row.get("mincut").is_some());
        assert!(row.get("sim_upper").is_some());
    }
    assert_eq!(doc.get("eigensolves").and_then(|v| v.as_f64()), Some(2.0));
}

#[test]
fn sparse_tier_analyze_is_identical_across_thread_counts() {
    // fft(7) has n = 1,024, past the dense tier, so the Lanczos solves
    // run; `--threads` splits the min-cut sweep over that many workers,
    // and the bytes must not depend on it.
    let json = generate("fft", 7);
    let analyze = |threads: &str| {
        let (stdout, stderr, ok) = run_with_stdin(
            &[
                "analyze",
                "--memory-sweep",
                "2,4,8,16",
                "--threads",
                threads,
                "--json",
            ],
            &json,
        );
        assert!(ok, "--threads {threads}: {stderr}");
        stdout
    };
    let serial = analyze("1");
    assert!(serial.contains("\"eigensolves\":2"), "{serial}");
    assert_eq!(analyze("2"), serial);
}

#[test]
fn dot_pipeline_renders_graphviz() {
    let json = generate("inner", 2);
    let (stdout, _, ok) = run_with_stdin(&["dot"], &json);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("->"));
}

#[test]
fn malformed_json_fails_cleanly() {
    let (_, stderr, ok) = run_with_stdin(&["bound", "--memory", "4"], "{not json");
    assert!(!ok);
    assert!(stderr.contains("error parsing graph JSON"));
}

#[test]
fn unknown_family_prints_usage() {
    let out = cli().args(["generate", "mystery", "3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_flags_are_rejected_everywhere() {
    let json = generate("fft", 3);
    for args in [
        ["bound", "--memory", "4", "--bogus", "1"].as_slice(),
        &["analyze", "--memory-sweep", "2,4", "--frobnicate"],
        &["simulate", "--memory", "4", "--speed", "fast"],
        &["dot", "--color"],
        &["generate", "fft", "3", "--size", "9"],
        &["precompute", "--store", "x", "--frobnicate"],
        &["store", "stat", "--store", "x", "--bogus", "1"],
        &["router", "--backends", "127.0.0.1:1", "--bogus", "1"],
        &["cluster", "--frobnicate"],
    ] {
        let (_, stderr, ok) = run_with_stdin(args, &json);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("unknown flag") && stderr.contains("usage"),
            "{args:?}: {stderr}"
        );
    }
}

/// Satellite regression: a malformed flag value must exit with the usage
/// status (2) and an error naming both the offending flag and the
/// subcommand — not just the bad value.
#[test]
fn malformed_threads_flag_names_flag_and_subcommand() {
    let json = generate("fft", 3);
    for (args, cmd) in [
        (
            ["analyze", "--memory-sweep", "2,4", "--threads", "banana"].as_slice(),
            "analyze",
        ),
        (&["bound", "--memory", "4", "--threads", "-3"], "bound"),
        (
            &["precompute", "--store", "x", "--threads", "2.5"],
            "precompute",
        ),
    ] {
        let mut child = cli()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn graphio");
        if let Err(e) = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(json.as_bytes())
        {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
        }
        let out = child.wait_with_output().expect("wait");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2 (usage)");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--threads") && stderr.contains(&format!("`graphio {cmd}`")),
            "{args:?} must blame the flag and subcommand: {stderr}"
        );
    }
}

/// The kernel knobs follow the same contract: a bad value exits 2 and
/// the error names both the flag and the subcommand. So do `generate`'s
/// out-of-range sizes, which would otherwise trip a generator's assert
/// and panic; there the "flag" is the `<size>` positional (or `--p`) and
/// the subcommand names the family.
#[test]
fn malformed_simd_and_scale_tier_flags_name_flag_and_subcommand() {
    let json = generate("fft", 3);
    for (args, flag, cmd) in [
        (
            ["analyze", "--memory-sweep", "2,4", "--simd", "banana"].as_slice(),
            "--simd",
            "analyze",
        ),
        (
            &["analyze", "--memory-sweep", "2,4", "--simd", "fast"],
            "--simd",
            "analyze",
        ),
        (
            &["analyze", "--memory-sweep", "2,4", "--scale-tier", "jumbo"],
            "--scale-tier",
            "analyze",
        ),
        (
            &["serve", "--port", "0", "--simd", "STRICT"],
            "--simd",
            "serve",
        ),
        (
            &["serve", "--port", "0", "--scale-tier", ""],
            "--scale-tier",
            "serve",
        ),
        (
            &["generate", "strassen", "3"],
            "<size>",
            "generate strassen",
        ),
        (
            &["generate", "strassen", "0"],
            "<size>",
            "generate strassen",
        ),
        (&["generate", "diamond", "0"], "<size>", "generate diamond"),
        (&["generate", "matmul", "0"], "<size>", "generate matmul"),
        (&["generate", "inner", "0"], "<size>", "generate inner"),
        (&["generate", "fft", "40"], "<size>", "generate fft"),
        (&["generate", "bhk", "64"], "<size>", "generate bhk"),
        (&["generate", "er", "10", "--p", "2"], "--p", "generate er"),
    ] {
        let mut child = cli()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn graphio");
        if let Err(e) = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(json.as_bytes())
        {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
        }
        let out = child.wait_with_output().expect("wait");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2 (usage)");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid value")
                && stderr.contains(flag)
                && stderr.contains(&format!("`graphio {cmd}`")),
            "{args:?} must blame the flag and subcommand: {stderr}"
        );
    }
}

/// The accepted spellings actually take effect end-to-end: forcing the
/// sparse tier on a small graph swaps the dense eigensolve for Lanczos
/// without changing what the analysis reports.
#[test]
fn analyze_accepts_simd_and_scale_tier_flags() {
    let json = generate("fft", 4); // n = 80: Auto would solve densely.
    let (auto_out, _, ok) = run_with_stdin(
        &[
            "analyze",
            "--memory-sweep",
            "4",
            "--simd",
            "strict",
            "--json",
        ],
        &json,
    );
    assert!(ok);
    let (sparse_out, _, ok) = run_with_stdin(
        &[
            "analyze",
            "--memory-sweep",
            "4",
            "--scale-tier",
            "sparse",
            "--simd",
            "off",
            "--json",
        ],
        &json,
    );
    assert!(ok);
    // Same graph, same sweep: the tier changes the solver, not the schema.
    for body in [&auto_out, &sparse_out] {
        assert!(
            body.contains("\"thm4\""),
            "analysis body missing thm4: {body}"
        );
    }
}

#[test]
fn bound_and_simulate_accept_threads() {
    let json = generate("fft", 4);
    let (stdout, stderr, ok) = run_with_stdin(&["bound", "--memory", "4", "--threads", "2"], &json);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("spectral lower bound:"));
    // `simulate` runs no min-cut sweep, so it has no `--threads`: the flag
    // is rejected like any unknown one, naming flag and subcommand.
    let out = cli()
        .args(["simulate", "--memory", "8", "--threads", "2"])
        .output()
        .expect("spawn graphio simulate");
    assert_eq!(out.status.code(), Some(2), "--threads must exit 2 (usage)");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --threads for `graphio simulate`"),
        "{stderr}"
    );
}

#[test]
fn analyze_rejects_zero_memory_and_warns_on_duplicates() {
    let json = generate("fft", 3);
    let (_, stderr, ok) = run_with_stdin(&["analyze", "--memory-sweep", "2,0,4"], &json);
    assert!(!ok);
    assert!(stderr.contains("memory size 0"), "{stderr}");

    let (stdout, stderr, ok) =
        run_with_stdin(&["analyze", "--memory-sweep", "4,4,2", "--json"], &json);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("duplicate memory size 4"),
        "expected dedup warning: {stderr}"
    );
    let doc = graphio::graph::json::parse(&stdout).unwrap();
    let sweep = doc.get("sweep").and_then(|s| s.as_array()).unwrap();
    assert_eq!(sweep.len(), 2, "duplicates must be dropped: {stdout}");
}

/// Offline persistence round trip through real process boundaries:
/// `precompute` sweeps an NDJSON corpus into a store, `store
/// stat/ls/get/export/compact` inspect and maintain it, and a stored
/// graph pipes back into `analyze` unchanged.
#[test]
fn precompute_and_store_subcommands_round_trip() {
    let dir = std::env::temp_dir().join(format!("graphio_cli_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap().to_string();
    let corpus = format!(
        "{}\n\n{}",
        generate("fft", 3).trim_end(),
        generate("inner", 3)
    );

    let (_, stderr, ok) = run_with_stdin(&["precompute", "--store", &store], &corpus);
    assert!(ok, "precompute failed: {stderr}");
    assert!(
        stderr.contains("precomputed 2 graph(s) (0 already stored)"),
        "{stderr}"
    );
    // Line numbers in progress output account for the blank line.
    assert!(
        stderr.contains("line 1:") && stderr.contains("line 3:"),
        "{stderr}"
    );

    // Idempotent: a second sweep of the same corpus stores nothing new.
    let (_, stderr, ok) = run_with_stdin(&["precompute", "--store", &store], &corpus);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("precomputed 0 graph(s) (2 already stored)"),
        "{stderr}"
    );

    let (stat, _, ok) = run_with_stdin(&["store", "stat", "--store", &store], "");
    assert!(ok);
    let doc = graphio::graph::json::parse(&stat).unwrap();
    assert_eq!(doc.get("records").and_then(|v| v.as_f64()), Some(2.0));

    let (ls, _, ok) = run_with_stdin(&["store", "ls", "--store", &store], "");
    assert!(ok);
    assert_eq!(ls.lines().count(), 2, "{ls}");
    assert!(ls.contains("spectra=2") && ls.contains("cuts=1"), "{ls}");

    // `store get` emits the stored graph as plain edge-list JSON.
    let fp = ls
        .lines()
        .next()
        .unwrap()
        .split('\t')
        .next()
        .unwrap()
        .to_string();
    let (graph_json, stderr, ok) = run_with_stdin(
        &["store", "get", "--store", &store, "--fingerprint", &fp],
        "",
    );
    assert!(ok, "{stderr}");
    let el = graphio::graph::EdgeListGraph::from_json(&graph_json).unwrap();
    assert!(!el.ops.is_empty());
    let (stdout, stderr, ok) =
        run_with_stdin(&["analyze", "--memory-sweep", "2,4", "--json"], &graph_json);
    assert!(ok, "stored graph must re-analyze: {stderr}");
    assert!(stdout.contains("\"sweep\""));

    let (export, _, ok) = run_with_stdin(&["store", "export", "--store", &store], "");
    assert!(ok);
    assert_eq!(export.lines().count(), 2);
    for line in export.lines() {
        graphio::graph::EdgeListGraph::from_json(line).expect("export lines are graph JSON");
    }

    let (out, _, ok) = run_with_stdin(&["store", "compact", "--store", &store], "");
    assert!(ok);
    assert!(out.contains("compacted:"), "{out}");

    // Unknown fingerprints fail cleanly.
    let (_, stderr, ok) = run_with_stdin(
        &[
            "store",
            "get",
            "--store",
            &store,
            "--fingerprint",
            &"0".repeat(32),
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("no record for fingerprint"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Starts `graphio serve --port 0` plus `extra` and returns the child
/// and the URL from its listen banner.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead as _, BufReader};

    let mut server = cli()
        .args(["serve", "--port", "0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn graphio serve");
    let mut first_line = String::new();
    BufReader::new(server.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut first_line)
        .expect("read listen line");
    let url = first_line
        .trim()
        .strip_prefix("graphio service listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .to_string();
    (server, url)
}

/// Full process-level round trip: `graphio serve` on an ephemeral port,
/// driven by `graphio client`, diffed against offline `analyze --json`.
#[test]
fn serve_and_client_round_trip_matches_offline_analyze() {
    let (mut server, url) = spawn_serve(&["--workers", "2"]);

    let result = std::panic::catch_unwind(|| {
        let mut offline_all = String::new();
        let mut graphs_ndjson = String::new();
        for family in ["fft", "bhk", "inner", "matmul"] {
            let json = generate(family, 4);
            let (offline, stderr, ok) =
                run_with_stdin(&["analyze", "--memory-sweep", "2,4,8", "--json"], &json);
            assert!(ok, "offline analyze failed: {stderr}");
            for round in 0..2 {
                let (remote, stderr, ok) = run_with_stdin(
                    &[
                        "client",
                        "analyze",
                        "--url",
                        &url,
                        "--memory-sweep",
                        "2,4,8",
                    ],
                    &json,
                );
                assert!(ok, "client analyze failed: {stderr}");
                assert_eq!(remote, offline, "{family} round {round} diverged");
            }
            offline_all.push_str(&offline);
            graphs_ndjson.push_str(json.trim_end());
            graphs_ndjson.push('\n');
        }

        // `client batch`: all four graphs in one request, response
        // bit-identical to the concatenated per-graph offline outputs.
        let (batched, stderr, ok) = run_with_stdin(
            &["client", "batch", "--url", &url, "--memory-sweep", "2,4,8"],
            &graphs_ndjson,
        );
        assert!(ok, "client batch failed: {stderr}");
        assert_eq!(batched, offline_all, "batch diverged from offline concat");

        // `--keep-alive --repeat`: several requests on one connection.
        let json = generate("fft", 4);
        let (body, stderr, ok) = run_with_stdin(
            &[
                "client",
                "analyze",
                "--url",
                &url,
                "--memory-sweep",
                "2,4,8",
                "--keep-alive",
                "--repeat",
                "3",
            ],
            &json,
        );
        assert!(ok, "keep-alive analyze failed: {stderr}");
        assert!(
            stderr.contains("3 requests over 1 connection(s)"),
            "expected connection reuse: {stderr}"
        );
        assert!(!body.is_empty());

        let (stats, _, ok) = run_with_stdin(&["client", "stats", "--url", &url], "");
        assert!(ok);
        let doc = graphio::graph::json::parse(&stats).unwrap();
        let misses = doc
            .get("engine")
            .and_then(|e| e.get("spectrum_misses"))
            .and_then(|v| v.as_f64())
            .unwrap();
        // 4 cached sessions × 2 Laplacian kinds, across every analyze
        // and batch call above (fft/4 repeats an already-cached graph).
        assert_eq!(misses, 8.0, "{stats}");
        let requests = doc.get("requests").and_then(|v| v.as_f64()).unwrap();
        let connections = doc.get("connections").and_then(|v| v.as_f64()).unwrap();
        assert!(
            requests > connections,
            "keep-alive must show reuse: {requests} requests / {connections} connections"
        );

        let (health, stderr, ok) = run_with_stdin(&["client", "health", "--url", &url], "");
        assert!(ok, "client health failed: {stderr}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        // Two `/healthz` requests over one kept-alive connection.
        let mut conn = graphio::service::Client::new(&url).unwrap();
        for _ in 0..2 {
            let r = conn.request("GET", "/healthz", None).unwrap();
            assert_eq!(r.status, 200);
            assert!(r.body.contains("\"status\":\"ok\""), "{}", r.body);
        }
        assert_eq!(
            conn.connects(),
            1,
            "both /healthz requests share a connection"
        );
    });
    let _ = server.kill();
    let _ = server.wait();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Satellite regression: a batch rejection must name the *stdin line*
/// of the offending entry, not just the post-filtering array index —
/// blank NDJSON lines make the two diverge.
#[test]
fn client_batch_error_names_the_offending_stdin_line() {
    let (mut server, url) = spawn_serve(&["--workers", "2"]);

    let result = std::panic::catch_unwind(|| {
        // Entry index 1 sits on stdin line 4 (blank lines in between).
        let bad_graph = "{\"ops\":[\"in\"],\"edges\":[[0,5]]}";
        let ndjson = format!("{}\n\n\n{bad_graph}\n", generate("fft", 3).trim_end());
        let (_, stderr, ok) = run_with_stdin(
            &["client", "batch", "--url", &url, "--memory-sweep", "2,4"],
            &ndjson,
        );
        assert!(!ok, "batch with an invalid entry must fail");
        assert!(
            stderr.contains("graphs[1]"),
            "index blame expected: {stderr}"
        );
        assert!(
            stderr.contains("(stdin line 4)"),
            "stdin line blame expected: {stderr}"
        );
    });
    let _ = server.kill();
    let _ = server.wait();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// The min-cut sweep's worker threads open a `mincut_worker` span, so a
/// cold analyze under `serve --threads 2` charges their bound scratch and
/// flow networks to a named phase: the `/metrics` per-phase allocation
/// deltas leave under 5% of the bytes `unattributed`.
#[test]
fn cold_analyze_allocations_land_on_named_phases() {
    use std::collections::HashMap;

    fn phase_bytes(conn: &mut graphio::service::Client) -> HashMap<String, f64> {
        let r = conn.request("GET", "/metrics", None).unwrap();
        assert_eq!(r.status, 200);
        let expo = graphio::obs::parse_metrics(&r.body).expect("valid exposition");
        expo.samples
            .into_iter()
            .filter(|s| s.name == "graphio_phase_alloc_bytes_total")
            .map(|s| {
                let (_, phase) = s.labels.into_iter().find(|(k, _)| k == "phase").unwrap();
                (phase, s.value)
            })
            .collect()
    }

    let (mut server, url) = spawn_serve(&["--threads", "2"]);
    let result = std::panic::catch_unwind(|| {
        let mut conn = graphio::service::Client::new(&url).unwrap();
        let before = phase_bytes(&mut conn);
        // fft(7): n = 1,024, so the sweep covers every vertex, split over
        // the two workers.
        let body = format!(
            "{{\"graph\": {}, \"memories\": [4, 8]}}",
            generate("fft", 7)
        );
        let r = conn.request("POST", "/analyze", Some(&body)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let after = phase_bytes(&mut conn);
        let delta = |phase: &str| {
            after.get(phase).copied().unwrap_or(0.0) - before.get(phase).copied().unwrap_or(0.0)
        };
        let total: f64 = after.keys().map(|phase| delta(phase)).sum();
        let unattributed = delta("unattributed");
        assert!(delta("mincut_worker") > 0.0, "{after:?}");
        assert!(
            unattributed < 0.05 * total,
            "unattributed {unattributed} of {total} bytes: {after:?}"
        );
    });
    let _ = server.kill();
    let _ = server.wait();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Satellite regression: `precompute --jobs N` parallelizes corpus
/// warming but must keep line-numbered reporting deterministic —
/// progress lines in input order, and the *first* bad line (in input
/// order) blamed regardless of which worker hit an error first.
#[test]
fn precompute_jobs_is_parallel_but_deterministic() {
    let dir = std::env::temp_dir().join(format!("graphio_cli_jobs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap().to_string();
    let corpus = format!(
        "{}\n{}\n{}",
        generate("fft", 3).trim_end(),
        generate("inner", 3).trim_end(),
        generate("diamond", 3).trim_end(),
    );
    let (_, stderr, ok) =
        run_with_stdin(&["precompute", "--store", &store, "--jobs", "4"], &corpus);
    assert!(ok, "precompute --jobs failed: {stderr}");
    assert!(
        stderr.contains("precomputed 3 graph(s) (0 already stored)"),
        "{stderr}"
    );
    // Progress lines appear in input order even though the lines were
    // warmed concurrently.
    let positions: Vec<usize> = (1..=3)
        .map(|i| {
            stderr
                .find(&format!("line {i}:"))
                .unwrap_or_else(|| panic!("line {i} missing: {stderr}"))
        })
        .collect();
    assert!(
        positions[0] < positions[1] && positions[1] < positions[2],
        "{stderr}"
    );

    // Two bad lines: the one earliest in input order wins the blame at
    // every job count.
    let bad_corpus = format!(
        "{}\nnot json\n{}\nalso not json\n",
        generate("fft", 3).trim_end(),
        generate("inner", 3).trim_end(),
    );
    for jobs in ["1", "4"] {
        let (_, stderr, ok) = run_with_stdin(
            &["precompute", "--store", &store, "--jobs", jobs],
            &bad_corpus,
        );
        assert!(!ok, "bad corpus must fail (--jobs {jobs})");
        assert!(
            stderr.contains("error: stdin line 2: invalid graph JSON"),
            "--jobs {jobs}: {stderr}"
        );
        assert!(
            !stderr.contains("stdin line 4"),
            "only the first bad line is blamed (--jobs {jobs}): {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end smoke of the cluster tier through real process boundaries:
/// `graphio cluster` spawns N serve children plus a router, and an
/// analyze through the router is byte-identical to the offline path.
#[test]
fn cluster_spawns_backends_and_routes_byte_identically() {
    use std::io::{BufRead as _, BufReader};
    let mut cluster = cli()
        .args([
            "cluster",
            "--backends",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn graphio cluster");
    let mut reader = BufReader::new(cluster.stdout.take().expect("stdout piped"));
    let mut backend_pids = Vec::new();
    let router_url = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = cluster.kill();
            panic!("cluster exited before the router came up");
        }
        if let Some(rest) = line.trim().strip_prefix("cluster backend ") {
            let pid = rest
                .split("pid=")
                .nth(1)
                .and_then(|p| p.trim().parse::<u32>().ok())
                .expect("pid in backend line");
            backend_pids.push(pid);
        } else if let Some(url) = line.trim().strip_prefix("graphio router listening on ") {
            break url.to_string();
        }
    };
    let result = std::panic::catch_unwind(|| {
        assert_eq!(
            backend_pids.len(),
            2,
            "two backend lines before the router line"
        );
        let graph = generate("fft", 4);
        let (offline, _, ok) =
            run_with_stdin(&["analyze", "--memory-sweep", "2,4", "--json"], &graph);
        assert!(ok);
        let (via_router, stderr, ok) = run_with_stdin(
            &[
                "client",
                "analyze",
                "--url",
                &router_url,
                "--memory-sweep",
                "2,4",
            ],
            &graph,
        );
        assert!(ok, "analyze via router failed: {stderr}");
        assert_eq!(via_router, offline, "router must serve offline bytes");
    });
    let _ = cluster.kill();
    let _ = cluster.wait();
    for pid in backend_pids {
        // The cluster helper's children outlive a kill -9 of the helper;
        // reap them explicitly like any harness must.
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}
