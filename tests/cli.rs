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

/// Runs `graphio args` with `stdin_data` on its stdin.
fn run(args: &[&str], stdin_data: &str) -> std::process::Output {
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
    child.wait_with_output().expect("wait")
}

fn run_with_stdin(args: &[&str], stdin_data: &str) -> (String, String, bool) {
    let out = run(args, stdin_data);
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
    // One analysis session, two Laplacian kinds (Thm4 + Thm5) -> exactly
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

/// A graph nested far past the parser's depth cap is a parse error
/// (exit 1), not a stack overflow.
#[test]
fn deeply_nested_json_fails_cleanly() {
    let out = run(&["analyze", "--memory-sweep", "4"], &"[".repeat(20_000));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error parsing graph JSON"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
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
        let out = run(args, &json);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2 (usage)");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--threads") && stderr.contains(&format!("`graphio {cmd}`")),
            "{args:?} must blame the flag and subcommand: {stderr}"
        );
    }
}

/// Bad flags follow one contract: the process exits 2 (usage) and the
/// error names both the flag and the subcommand. The kernel knobs
/// `--simd` and `--scale-tier` are gone (the solver tier follows from n,
/// and the SIMD policy changes no byte), so they are unknown flags; so is
/// the retired per-request log threshold on `serve`, `router` and
/// `cluster` (the flight recorder keeps every request's tree).
/// Out-of-range numbers are rejected before any work runs:
/// `--processors 0` (Theorem 6 needs a processor, and `POST /analyze`
/// refuses it), a negative or non-finite `--duration`, and `generate`'s
/// out-of-range sizes, which would otherwise trip a generator's assert.
/// There the "flag" is the `<size>` positional (or `--p`) and the
/// subcommand names the family.
#[test]
fn malformed_simd_and_scale_tier_flags_name_flag_and_subcommand() {
    let json = generate("fft", 3);
    let loadgen = |duration: &'static str| {
        [
            "loadgen",
            "--url",
            "http://127.0.0.1:9",
            "--duration",
            duration,
        ]
    };
    for (args, expected) in [
        (
            ["analyze", "--memory-sweep", "2,4", "--simd", "off"].as_slice(),
            "unknown flag --simd for `graphio analyze`",
        ),
        (
            &["analyze", "--memory-sweep", "2,4", "--scale-tier", "sparse"],
            "unknown flag --scale-tier for `graphio analyze`",
        ),
        (
            &["serve", "--port", "0", "--simd", "strict"],
            "unknown flag --simd for `graphio serve`",
        ),
        (
            &["serve", "--port", "0", "--scale-tier", "dense"],
            "unknown flag --scale-tier for `graphio serve`",
        ),
        (
            &["serve", "--port", "0", "--slow-log-us", "0"],
            "unknown flag --slow-log-us for `graphio serve`",
        ),
        (
            &["router", "--backends", "127.0.0.1:9", "--slow-log-us", "0"],
            "unknown flag --slow-log-us for `graphio router`",
        ),
        (
            &["cluster", "--backends", "1", "--slow-log-us", "0"],
            "unknown flag --slow-log-us for `graphio cluster`",
        ),
        (
            &["bound", "--memory", "4", "--processors", "0"],
            "invalid value \"0\" for --processors in `graphio bound`",
        ),
        (
            &[
                "analyze",
                "--memory-sweep",
                "2,4",
                "--processors",
                "0",
                "--json",
            ],
            "invalid value \"0\" for --processors in `graphio analyze`",
        ),
        (
            &loadgen("-1"),
            "invalid value \"-1\" for --duration in `graphio loadgen`",
        ),
        (
            &loadgen("nan"),
            "invalid value \"nan\" for --duration in `graphio loadgen`",
        ),
        (
            &loadgen("inf"),
            "invalid value \"inf\" for --duration in `graphio loadgen`",
        ),
        (
            &["loadgen", "--seed-bench"],
            "unknown flag --seed-bench for `graphio loadgen`",
        ),
        (
            &["loadgen", "--out", "bench.json"],
            "unknown flag --out for `graphio loadgen`",
        ),
        (
            &["generate", "strassen", "3"],
            "invalid value 3 for <size> in `graphio generate strassen`",
        ),
        (
            &["generate", "strassen", "0"],
            "invalid value 0 for <size> in `graphio generate strassen`",
        ),
        (
            &["generate", "diamond", "0"],
            "invalid value 0 for <size> in `graphio generate diamond`",
        ),
        (
            &["generate", "matmul", "0"],
            "invalid value 0 for <size> in `graphio generate matmul`",
        ),
        (
            &["generate", "inner", "0"],
            "invalid value 0 for <size> in `graphio generate inner`",
        ),
        (
            &["generate", "fft", "40"],
            "invalid value 40 for <size> in `graphio generate fft`",
        ),
        (
            &["generate", "bhk", "64"],
            "invalid value 64 for <size> in `graphio generate bhk`",
        ),
        (
            &["generate", "er", "10", "--p", "2"],
            "invalid value 2 for --p in `graphio generate er`",
        ),
    ] {
        let out = run(args, &json);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2 (usage)");
        assert!(out.stdout.is_empty(), "{args:?} must print no document");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected),
            "{args:?} must blame the flag and subcommand ({expected}): {stderr}"
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

/// Starts `graphio args` and reads its stdout up to the line that starts
/// with `banner`. Returns the child, the rest of that line (the URL) and
/// the lines printed before it.
fn spawn_listening(args: &[&str], banner: &str) -> (std::process::Child, String, Vec<String>) {
    use std::io::{BufRead as _, BufReader};

    let mut child = cli()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn graphio");
    // Read through a borrow: the pipe stays open for the child's life.
    let listening = {
        let mut reader = BufReader::new(child.stdout.as_mut().expect("stdout piped"));
        let mut boot = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read boot line") == 0 {
                break Err(boot);
            }
            if let Some(url) = line.trim().strip_prefix(banner) {
                break Ok((url.to_string(), boot));
            }
            boot.push(line.trim().to_string());
        }
    };
    match listening {
        Ok((url, boot)) => (child, url, boot),
        Err(boot) => {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "`graphio {}` exited before listening; printed {boot:?}",
                args[0]
            );
        }
    }
}

/// Starts `graphio serve --port 0` plus `extra` and returns the child,
/// the URL from its listen banner and the lines printed before it (the
/// `--store` boot line).
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String, Vec<String>) {
    spawn_listening(
        &[&["serve", "--port", "0"][..], extra].concat(),
        "graphio service listening on ",
    )
}

/// `GET {url}/trace/{trace}` until it answers 200 (each process records
/// a request just after its response flushes), returning the body.
fn poll_trace(url: &str, trace: &str) -> String {
    let path = format!("/trace/{trace}");
    for _ in 0..50 {
        let r = graphio::service::client::request("GET", url, &path, None).unwrap();
        if r.status == 200 {
            return r.body;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    panic!("trace {trace} never became queryable at {url}");
}

/// `kill -9 pid`: a crash, as the rest of the fleet sees it.
fn kill_9(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

/// Kills and reaps its processes when dropped, so a test that panics
/// leaves no server behind. `pids` are processes the test did not spawn
/// itself (the backends of `graphio cluster`); they go first, while
/// their parent still holds them and their pids cannot be reused.
#[derive(Default)]
struct Reaper {
    children: Vec<std::process::Child>,
    pids: Vec<u32>,
}

impl Reaper {
    fn of(child: std::process::Child) -> Reaper {
        Reaper {
            children: vec![child],
            pids: Vec::new(),
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for &pid in &self.pids {
            kill_9(pid);
        }
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts `graphio cluster` with `backends` serve children. Returns the
/// guard that kills the whole fleet, the router's URL and each backend's
/// URL and pid.
fn spawn_cluster(backends: usize) -> (Reaper, String, Vec<(String, u32)>) {
    let (helper, router, boot) = spawn_listening(
        &[
            "cluster",
            "--backends",
            &backends.to_string(),
            "--listen",
            "127.0.0.1:0",
        ],
        "graphio router listening on ",
    );
    // `cluster backend 0: http://127.0.0.1:40123 pid=4242`
    let fleet: Vec<(String, u32)> = boot
        .iter()
        .filter_map(|line| {
            let (_, rest) = line.strip_prefix("cluster backend ")?.split_once(": ")?;
            let (url, pid) = rest.split_once(" pid=")?;
            Some((url.to_string(), pid.parse().ok()?))
        })
        .collect();
    let mut procs = Reaper::of(helper);
    procs.pids = fleet.iter().map(|&(_, pid)| pid).collect();
    assert_eq!(fleet.len(), backends, "one line per backend: {boot:?}");
    (procs, router, fleet)
}

/// Full process-level round trip: `graphio serve` on an ephemeral port,
/// driven by `graphio client`, diffed against offline `analyze --json`.
#[test]
fn serve_and_client_round_trip_matches_offline_analyze() {
    let (mut server, url, _) = spawn_serve(&["--workers", "2"]);

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

/// `graphio client stats` against `url`, parsed.
fn served_stats(url: &str) -> graphio::graph::json::JsonValue {
    let (stats, stderr, ok) = run_with_stdin(&["client", "stats", "--url", url], "");
    assert!(ok, "client stats failed: {stderr}");
    graphio::graph::json::parse(&stats).expect("stats parse")
}

/// A counter from a `/stats` section, e.g. `("linalg", "dense_eigensolves")`.
fn stat(doc: &graphio::graph::json::JsonValue, section: &str, field: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("no {section}.{field} in {doc}"))
}

/// The warm-restart contract of `serve --store` over real processes:
/// precompute a corpus offline, boot over it and answer every analysis
/// with zero eigensolves, then `kill -9` and restart on the same store
/// with byte-identical answers, and `client batch` the corpus to the
/// concatenated analyses.
#[test]
fn precomputed_store_serves_warm_across_kill_9() {
    let dir = std::env::temp_dir().join(format!("graphio_cli_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap().to_string();
    let graphs: Vec<String> = ["fft", "bhk", "matmul"]
        .iter()
        .map(|family| generate(family, 6))
        .collect();
    let corpus = graphs.concat();
    let sweep = ["--memory-sweep", "2,4,8,16"];

    let (_, stderr, ok) = run_with_stdin(&["precompute", "--store", &store], &corpus);
    assert!(ok, "precompute failed: {stderr}");
    let (stat_out, _, ok) = run_with_stdin(&["store", "stat", "--store", &store], "");
    assert!(ok);
    assert!(stat_out.contains("\"records\":3"), "{stat_out}");
    let (ls, _, ok) = run_with_stdin(&["store", "ls", "--store", &store], "");
    assert!(ok);
    assert_eq!(ls.lines().count(), 3, "{ls}");

    let analyze_all = |url: &str| -> Vec<String> {
        graphs
            .iter()
            .map(|g| {
                let (body, stderr, ok) = run_with_stdin(
                    &[&["client", "analyze", "--url", url][..], &sweep].concat(),
                    g,
                );
                assert!(ok, "client analyze failed: {stderr}");
                body
            })
            .collect()
    };
    // Every answer came off the store: no eigensolve in this process.
    let assert_no_eigensolve = |url: &str| {
        let doc = served_stats(url);
        assert_eq!(stat(&doc, "linalg", "dense_eigensolves"), 0.0, "{doc}");
        assert_eq!(stat(&doc, "engine", "spectrum_misses"), 0.0, "{doc}");
        doc
    };

    // First boot over the precomputed store.
    let (mut server, url, boot) = spawn_serve(&["--workers", "2", "--store", &store]);
    let cold = std::panic::catch_unwind(|| {
        assert!(
            boot.iter().any(|l| l.starts_with("store: 3 record(s)")),
            "{boot:?}"
        );
        let cold = analyze_all(&url);
        let doc = assert_no_eigensolve(&url).to_string();
        assert!(doc.contains("\"enabled\":true"), "{doc}");
        assert!(doc.contains("\"shard_bytes\":"), "{doc}");
        cold
    });
    // `Child::kill` is SIGKILL: no graceful drain.
    let _ = server.kill();
    let _ = server.wait();
    let cold = cold.unwrap_or_else(|p| std::panic::resume_unwind(p));

    // Restart on the same store: the same bytes, still no eigensolve.
    let (mut server, url, _) = spawn_serve(&["--workers", "2", "--store", &store]);
    let result = std::panic::catch_unwind(|| {
        assert_eq!(analyze_all(&url), cold, "bytes changed across kill -9");
        assert_no_eigensolve(&url);
        let (batched, stderr, ok) = run_with_stdin(
            &[&["client", "batch", "--url", &url][..], &sweep].concat(),
            &corpus,
        );
        assert!(ok, "client batch failed: {stderr}");
        assert_eq!(batched, cold.concat(), "batch diverged from the analyses");
    });
    let _ = server.kill();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Past the 100 000-vertex cutoff nothing spectral is computed or
/// printed: `bound` says so in its spectral line and still reports the
/// min-cut bound, and a served analysis is the offline null document
/// with no eigensolve in the server process.
#[test]
fn past_the_cutoff_no_spectral_number_is_served() {
    let json = generate("fft", 13); // n = 114 688
    let (stdout, stderr, ok) = run_with_stdin(&["bound", "--memory", "4"], &json);
    assert!(ok, "stderr: {stderr}");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some(
            "spectral lower bound: none (n = 114688 is past the 100000-vertex cutoff \
             for a certified eigensolve)"
        ),
        "{stdout}"
    );
    assert!(
        lines
            .next()
            .is_some_and(|l| l.starts_with("convex min-cut bound: ")),
        "{stdout}"
    );
    assert_eq!(lines.next(), None, "no estimate is printed: {stdout}");

    let args = ["--memory-sweep", "4,16", "--processors", "4", "--no-sim"];
    let (offline, stderr, ok) =
        run_with_stdin(&[&["analyze", "--json"][..], &args].concat(), &json);
    assert!(ok, "stderr: {stderr}");
    assert!(
        offline.contains("\"method\":null,\"eigensolves\":0"),
        "{offline}"
    );
    let (mut server, url, _) = spawn_serve(&["--workers", "1"]);
    let result = std::panic::catch_unwind(|| {
        let (served, stderr, ok) = run_with_stdin(
            &[&["client", "analyze", "--url", &url][..], &args].concat(),
            &json,
        );
        assert!(ok, "client analyze failed: {stderr}");
        assert_eq!(served, offline);
        let doc = served_stats(&url);
        for field in ["dense_eigensolves", "scale_tier_solves", "sparse_matvecs"] {
            assert_eq!(stat(&doc, "linalg", field), 0.0, "{field}: {doc}");
        }
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
    let (server, url, _) = spawn_serve(&["--workers", "2"]);
    let _server = Reaper::of(server);

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

    let (server, url, _) = spawn_serve(&["--threads", "2"]);
    let _server = Reaper::of(server);
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
}

/// The value of the exposition sample whose name-and-labels field is
/// exactly `series`.
fn metric(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(series)).then(|| fields.next()?.parse().ok())?
    })
}

/// `-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`: the sample values a scraper
/// must accept.
fn is_sample_value(v: &str) -> bool {
    fn digits(s: &str) -> Option<&str> {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        (end > 0).then(|| &s[end..])
    }
    let rest = v.strip_prefix('-').unwrap_or(v);
    let Some(mut rest) = digits(rest) else {
        return false;
    };
    if let Some(frac) = rest.strip_prefix('.') {
        match digits(frac) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    if let Some(exp) = rest.strip_prefix(['e', 'E']) {
        match digits(exp.strip_prefix(['-', '+']).unwrap_or(exp)) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    rest.is_empty()
}

/// Every sample line is `name{labels} value`, or a histogram bucket line
/// followed by an OpenMetrics exemplar (` # {trace_id="..."} v`).
fn assert_valid_exposition(exposition: &str) {
    for line in exposition.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let exemplar = fields.len() == 5
            && fields[2] == "#"
            && fields[0].contains("_bucket")
            && fields[3]
                .strip_prefix("{trace_id=\"")
                .and_then(|t| t.strip_suffix("\"}"))
                .is_some_and(|id| !id.is_empty() && id.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(
            (fields.len() == 2 || exemplar) && is_sample_value(fields[1]),
            "invalid exposition line: {line}"
        );
    }
}

/// A slow request survives a crash through its p99 pin, with no error to
/// pin it. Hundreds of body-memo hits pull `/analyze`'s running p99 down
/// to a hit's bucket; one cold, larger graph then lands above it, is
/// pinned and written through to `--trace-store`. After `kill -9` and a
/// restart on the same store, whose ring starts empty, `GET /trace/{id}`
/// serves that request's record from disk. A process of its own keeps the
/// histogram and the recorder to this test.
#[test]
fn p99_pinned_slow_traces_persist_across_kill_9() {
    use graphio::graph::json::{parse, JsonValue};
    use graphio::service::client;

    let dir = std::env::temp_dir().join(format!("graphio_cli_p99_pin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("trace-store");
    let serve = || spawn_serve(&["--workers", "2", "--trace-store", store.to_str().unwrap()]);
    let (child, url, _) = serve();
    let mut procs = Reaper::of(child);

    let body = |family: &str, size: usize| {
        format!(
            "{{\"graph\": {}, \"memories\": [2, 4, 8]}}",
            generate(family, size).trim_end()
        )
    };
    let mut conn = client::Client::new(&url).unwrap();
    let hit = body("fft", 3);
    for _ in 0..=300 {
        let r = conn.request("POST", "/analyze", Some(&hit)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let trace = "5ca1ab1e5ca1ab1e5ca1ab1e5ca1ab1e";
    let traced = [("X-Graphio-Trace", trace.to_string())];
    let mut conn = client::Client::new(&url).unwrap();
    let r = conn
        .request_with("POST", "/analyze", Some(&body("fft", 6)), &traced)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-graphio-session"), Some("miss"));
    // The write-through runs before the worker reads the connection's
    // next request, so this answer orders it before the kill.
    assert_eq!(conn.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(conn.connects(), 1, "the cold request kept the connection");

    // `Child::kill` is SIGKILL.
    let _ = procs.children[0].kill();
    let _ = procs.children[0].wait();
    let (child, url, _) = serve();
    procs.children.push(child);
    let r = client::request("GET", &url, &format!("/trace/{trace}"), None).unwrap();
    assert_eq!(r.status, 200, "the pinned slow trace is gone: {}", r.body);
    let doc = parse(&r.body).expect("stored trace is JSON");
    assert_eq!(doc.get("trace").and_then(JsonValue::as_str), Some(trace));
    assert_eq!(doc.get("status").and_then(JsonValue::as_f64), Some(200.0));
    assert_eq!(
        doc.get("endpoint").and_then(JsonValue::as_str),
        Some("/analyze")
    );
    let spans = doc.get("spans").and_then(JsonValue::as_array);
    let names: Vec<&str> = spans
        .expect("spans array")
        .iter()
        .filter_map(|s| s.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names.first(), Some(&"/analyze"), "{names:?}");
    assert!(names.contains(&"eigensolve"), "a cold request: {names:?}");
    drop(procs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Open-loop load against a live `graphio serve` moves `/metrics` by
/// exactly the load. Through the real binary: the trace-ID echo and
/// elapsed header, the `/trace/{id}` record with its spans, `graphio loadgen`
/// at 200 rps for 0.5 s (exactly 100 arrivals), a valid text exposition
/// with an exemplar and `+Inf` = `_count`, the solver phase series, and
/// counter deltas of exactly the load (+1 for the second scrape itself).
#[test]
fn loadgen_moves_metrics_by_exactly_the_load() {
    let dir = std::env::temp_dir().join(format!("graphio_cli_metrics_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (server, url, _) = spawn_serve(&["--workers", "4"]);
    let _server = Reaper::of(server);
    let req = format!(
        "{{\"graph\": {}, \"memories\": [2,4,8]}}",
        generate("fft", 6).trim_end()
    );
    let req_file = dir.join("req.json");
    std::fs::write(&req_file, format!("{req}\n")).unwrap();

    // Warm-up: the trace ID is echoed, the elapsed header is a
    // number, and `GET /trace/{id}` serves the same trace. These reads
    // land before the first scrape, so the counter deltas stay exact.
    let trace = "00112233445566778899aabbccddeeff";
    let r = graphio::service::client::request_with(
        "POST",
        &url,
        "/analyze",
        Some(&req),
        &[("X-Graphio-Trace", trace.to_string())],
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-graphio-trace"), Some(trace));
    let elapsed = r.header("x-graphio-elapsed-us").unwrap_or("");
    assert!(elapsed.parse::<u64>().is_ok(), "elapsed header {elapsed:?}");
    let needle = format!("\"trace\":\"{trace}\"");
    let record = poll_trace(&url, trace);
    assert!(record.contains(&needle), "{record}");
    assert!(record.contains("\"spans\":["), "{record}");

    // The request histogram records just after the response flushes;
    // settle before each scrape so deltas are exact.
    let scrape = || {
        std::thread::sleep(std::time::Duration::from_millis(500));
        graphio::service::client::request("GET", &url, "/metrics", None).unwrap()
    };
    let before = scrape().body;

    let out = cli()
        .args([
            "loadgen",
            "--url",
            &url,
            "--rps",
            "200",
            "--duration",
            "0.5",
        ])
        .args([
            "--conns",
            "4",
            "--body",
            req_file.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("spawn graphio loadgen");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{report}");
    for field in ["\"requests\":100,", "\"ok\":100,", "\"errors\":0,"] {
        assert!(report.contains(field), "{field} missing: {report}");
    }

    let after = scrape();
    assert!(
        after
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "{:?}",
        after.header("content-type")
    );
    let after = after.body;
    assert_valid_exposition(&before);
    assert_valid_exposition(&after);
    assert!(after.contains(" # {trace_id=\""), "no exemplar: {after}");
    let inf = metric(
        &after,
        "graphio_request_duration_microseconds_bucket{endpoint=\"/analyze\",le=\"+Inf\"}",
    );
    let count = metric(
        &after,
        "graphio_request_duration_microseconds_count{endpoint=\"/analyze\"}",
    );
    assert!(
        inf.is_some() && inf == count,
        "+Inf {inf:?} vs _count {count:?}"
    );
    for phase in ["laplacian", "eigensolve", "mincut"] {
        let series = format!("graphio_phase_duration_microseconds_count{{phase=\"{phase}\"}}");
        assert!(metric(&after, &series).is_some(), "{series} missing");
    }

    // 100 analyzes, all hits on the warmed session; requests_total
    // also counts the second scrape.
    let delta = |series: &str| {
        let value = |expo: &str| metric(expo, series).unwrap_or_else(|| panic!("{series} missing"));
        value(&after) - value(&before)
    };
    assert_eq!(delta("graphio_service_analyze_ok_total"), 100.0);
    assert_eq!(delta("graphio_cache_hits_total"), 100.0);
    assert_eq!(
        delta("graphio_request_duration_microseconds_count{endpoint=\"/analyze\"}"),
        100.0
    );
    assert_eq!(delta("graphio_service_requests_total"), 101.0);
    let _ = std::fs::remove_dir_all(&dir);
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

/// Runs `graphio` with the whitespace-separated words of `line` as its
/// arguments and `stdin_data` on its stdin.
fn run_line(line: &str, stdin_data: &str) -> (String, String, bool) {
    run_with_stdin(&line.split_whitespace().collect::<Vec<_>>(), stdin_data)
}

/// The cluster tier through real processes: `graphio cluster` spawns
/// three serve children plus a router, and every analysis and batch
/// through the router is byte-identical to offline `analyze --json`.
/// Then a backend that owns part of the corpus is `kill -9`ed while
/// twelve batches run: every response, and every request after the
/// kill, still carries the offline bytes (the router retries the next
/// replica), and the router's `/stats` counts the ejection.
#[test]
fn cluster_spawns_backends_and_routes_byte_identically() {
    let (_fleet, router, backends) = spawn_cluster(3);
    let graphs: Vec<String> = ["fft", "bhk", "matmul"]
        .iter()
        .map(|family| generate(family, 6))
        .collect();
    let run = |command: &str, stdin: &str| {
        let (body, stderr, ok) = run_line(&format!("{command} --memory-sweep 2,4,8,16"), stdin);
        assert!(ok, "{command} failed: {stderr}");
        body
    };
    let offline: Vec<String> = graphs.iter().map(|g| run("analyze --json", g)).collect();
    let (corpus, offline_all) = (graphs.concat(), offline.concat());
    let analyze = format!("client analyze --url {router}");
    let batch = format!("client batch --url {router}");
    let assert_offline_bytes = |when: &str| {
        for (g, want) in graphs.iter().zip(&offline) {
            assert_eq!(run(&analyze, g), *want, "analyze {when}");
        }
        assert_eq!(run(&batch, &corpus), offline_all, "batch {when}");
    };
    assert_offline_bytes("before the kill");

    // The victim analyzed part of the corpus, so traffic after the kill
    // reaches a dead owner and must fail over.
    let victim = backends
        .iter()
        .position(|(backend, _)| stat(&served_stats(backend), "engine", "spectrum_misses") > 0.0)
        .expect("some backend analyzed the corpus");
    let (done, first_done) = std::sync::mpsc::channel();
    let load: Vec<String> = std::thread::scope(|s| {
        let load = s.spawn(|| {
            let batch = || {
                let body = run(&batch, &corpus);
                let _ = done.send(());
                body
            };
            (0..12).map(|_| batch()).collect()
        });
        first_done.recv().expect("first batch of the load");
        kill_9(backends[victim].1);
        load.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    });
    for (i, body) in load.iter().enumerate() {
        assert_eq!(*body, offline_all, "batch {i} of the load");
    }
    assert_offline_bytes("after the kill");

    let doc = served_stats(&router);
    assert!(stat(&doc, "router", "ejections") > 0.0, "{doc}");
    let mixed_versions = doc.get("mixed_versions").map(ToString::to_string);
    assert_eq!(mixed_versions.as_deref(), Some("false"), "{doc}");
    assert!(doc.get("uptime_seconds").is_some(), "{doc}");
}

/// The merged cluster profile over real processes: a 2 s
/// `GET /debug/profile` through the router, while fresh analyses run on
/// the backends, grafts the samples of at least two backends under
/// `backend <addr>` roots and names the `eigensolve` and `/analyze`
/// frames. `graphio profile --flamegraph` renders the same endpoint, and
/// the router and every backend publish their process gauges.
#[test]
fn cluster_profile_merges_live_backend_flamegraphs() {
    use graphio::service::client;

    let (_fleet, router, backends) = spawn_cluster(3);
    let url = router.as_str();
    let dir = std::env::temp_dir().join(format!("graphio_cli_profile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Distinct graphs, so each analyze eigensolves inside the window; the
    // bhk(11) eigensolve is long enough for the 97 Hz sampler. Each
    // backend also analyzes bhk(10) directly, so none sits idle however
    // the ring spreads the corpus.
    let corpus: String = ["fft", "bhk", "matmul"]
        .iter()
        .flat_map(|family| (5..=7).map(|size| generate(family, size)))
        .collect();
    let (big, bhk10) = (generate("bhk", 11), generate("bhk", 10));
    let req = dir.join("req.json");
    let fft6 = generate("fft", 6);
    std::fs::write(
        &req,
        format!("{{\"graph\": {fft6}, \"memories\": [2,4,8]}}"),
    )
    .unwrap();
    let run = |line: String, stdin: &str| {
        let (stdout, stderr, ok) = run_line(&line, stdin);
        assert!(ok, "graphio {line} failed: {stderr}");
        stdout
    };
    let loadgen = || {
        let body = req.display();
        run(
            format!("loadgen --url {url} --rps 100 --duration 1.5 --conns 4 --body {body}"),
            "",
        )
    };

    let flame = std::thread::scope(|s| {
        let scrape = s.spawn(|| client::request("GET", url, "/debug/profile?seconds=2", None));
        std::thread::sleep(std::time::Duration::from_millis(300));
        let load = s.spawn(loadgen);
        let direct: Vec<_> = backends
            .iter()
            .map(|(backend, _)| {
                let analyze = format!("client analyze --url {backend} --memory-sweep 2,8,32");
                s.spawn(|| run(analyze, &bhk10))
            })
            .collect();
        let batch = s.spawn(|| {
            run(
                format!("client batch --url {url} --memory-sweep 2,4,8"),
                &corpus,
            )
        });
        run(
            format!("client analyze --url {url} --memory-sweep 2,8,32"),
            &big,
        );
        batch.join().unwrap();
        load.join().unwrap();
        for analyze in direct {
            analyze.join().unwrap();
        }
        scrape.join().unwrap().expect("profile scrape").body
    });
    let stacks = graphio::obs::profile::parse_collapsed(&flame)
        .unwrap_or_else(|| panic!("malformed merged profile:\n{flame}"));
    let roots: std::collections::BTreeSet<&String> = stacks
        .iter()
        .filter_map(|(path, _)| path.first())
        .filter(|root| root.starts_with("backend "))
        .collect();
    assert!(roots.len() >= 2, "backend roots {roots:?}:\n{flame}");
    for frame in ["eigensolve", "/analyze"] {
        assert!(flame.contains(frame), "no {frame} frame:\n{flame}");
    }

    let cli_flame = dir.join("flame.txt");
    let profile = format!(
        "profile --server {url} --seconds 1 --flamegraph {}",
        cli_flame.display()
    );
    let summary = std::thread::scope(|s| {
        let load = s.spawn(loadgen);
        let summary = run(profile, "");
        load.join().unwrap();
        summary
    });
    assert!(summary.contains("samples over 1s"), "{summary}");
    assert!(std::fs::metadata(&cli_flame).unwrap().len() > 0);

    for tier in std::iter::once(url).chain(backends.iter().map(|(u, _)| u.as_str())) {
        let expo = client::request("GET", tier, "/metrics", None).unwrap().body;
        for series in [
            "process_resident_bytes",
            "graphio_recorder_dropped_spans_total",
        ] {
            assert!(
                metric(&expo, series).is_some(),
                "{series} missing at {tier}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Distributed traces over real processes: three `serve --trace-store`
/// backends behind `graphio router`. One traced `/batch` of ten graphs
/// assembles, through the router, into one tree that joins at least two
/// backends, one `backend <addr>` span each, every span inside the root
/// and every backend inside the scatter (1 ms slack: the clocks are the
/// processes' own). `graphio trace` and `graphio traces --slowest`
/// render it. An error pinned on a backend survives its `kill -9`: the
/// restarted process serves it from the trace store, and its `/metrics`
/// carries exemplars.
#[test]
fn pinned_traces_survive_kill_9_and_assemble_across_backends() {
    use graphio::graph::json::{parse, JsonValue};
    use graphio::service::client;

    let dir = std::env::temp_dir().join(format!("graphio_cli_traces_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = |i: usize| format!("{}/trace-store-{i}", dir.display());
    let backend = |i: usize| spawn_serve(&["--workers", "2", "--trace-store", &store(i)]);
    let mut procs = Reaper::default();
    let mut addrs = Vec::new();
    for i in 0..3 {
        let (child, url, _) = backend(i);
        procs.children.push(child);
        addrs.push(url.trim_start_matches("http://").to_string());
    }
    let (router, rurl, _) = spawn_listening(
        &[
            "router",
            "--backends",
            &addrs.join(","),
            "--listen",
            "127.0.0.1:0",
        ],
        "graphio router listening on ",
    );
    procs.children.push(router);

    let graphs: Vec<String> = (3..=7)
        .flat_map(|size| ["fft", "bhk"].map(|family| generate(family, size)))
        .collect();
    let req = format!(
        "{{\"graphs\": [{}], \"memories\": [2, 8, 32]}}",
        graphs.join(",")
    );
    let trace = "00112233445566778899aabbccddeeff";
    let traced = [("X-Graphio-Trace", trace.to_string())];
    let r = client::request_with("POST", &rurl, "/batch", Some(&req), &traced).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(
        r.body.matches("\"sweep\":").count(),
        graphs.len(),
        "{}",
        r.body
    );

    let field = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap();
    let joined = |doc: &JsonValue| {
        let backends = doc.get("backends").and_then(JsonValue::as_array);
        backends.map_or(0, <[_]>::len)
    };
    // `(name, dur_us)` of every span of a trace document.
    let spans = |doc: &JsonValue| -> Vec<(String, f64)> {
        let spans = doc
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        let name = |s: &JsonValue| {
            s.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        spans
            .iter()
            .map(|s| (name(s).unwrap_or_default(), field(s, "dur_us")))
            .collect()
    };
    let scatter = |doc: &JsonValue| {
        spans(doc)
            .into_iter()
            .find(|(n, _)| n.ends_with("_scatter"))
    };
    // Each process records its part just after its response flushes:
    // poll until the router's own record (the scatter anchor) and two
    // backends' have landed.
    let mut doc = JsonValue::Null;
    for _ in 0..50 {
        let r = client::request("GET", &rurl, &format!("/trace/{trace}"), None).unwrap();
        if r.status == 200 {
            doc = parse(&r.body).expect("assembled trace is JSON");
            if joined(&doc) >= 2 && scatter(&doc).is_some() {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(joined(&doc) >= 2, "expected >= 2 joined backends: {doc}");
    let (_, scatter_us) = scatter(&doc).unwrap_or_else(|| panic!("no scatter span: {doc}"));
    let tree = spans(&doc);
    let backend_us: Vec<f64> = tree
        .iter()
        .filter(|(n, _)| n.starts_with("backend "))
        .map(|&(_, us)| us)
        .collect();
    assert_eq!(
        backend_us.len(),
        joined(&doc),
        "one backend span per joined backend: {doc}"
    );
    let root_us = tree[0].1;
    assert!(
        0.0 < root_us && root_us <= field(&doc, "elapsed_us"),
        "{doc}"
    );
    assert!(tree.iter().all(|&(_, us)| us <= root_us + 1000.0), "{doc}");
    assert!(
        backend_us.iter().all(|&us| us <= scatter_us + 1000.0),
        "{doc}"
    );

    let (rendered, stderr, ok) = run_line(&format!("trace {trace} --server {rurl}"), "");
    assert!(ok, "graphio trace failed: {stderr}");
    assert!(rendered.contains(&format!("trace {trace}")), "{rendered}");
    assert!(rendered.contains("backend "), "{rendered}");
    let (slowest, stderr, ok) = run_line(&format!("traces --slowest 5 --server {rurl}"), "");
    assert!(ok, "graphio traces failed: {stderr}");
    assert!(slowest.contains(trace), "{slowest}");

    // An error is pinned and written through to the trace store before
    // the next request on the same connection is read.
    let err_trace = "deadbeefdeadbeefdeadbeefdeadbeef";
    let mut conn = client::Client::new(&format!("http://{}", addrs[0])).unwrap();
    let traced = [("X-Graphio-Trace", err_trace.to_string())];
    let r = conn
        .request_with("POST", "/analyze", Some("{broken json"), &traced)
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert_eq!(conn.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(conn.connects(), 1, "the 400 kept the connection");

    // `Child::kill` is SIGKILL. The restarted process's ring is empty,
    // so the trace can only come from the store on disk.
    let _ = procs.children[0].kill();
    let _ = procs.children[0].wait();
    let (child, url, _) = backend(0);
    procs.children.push(child);
    let mut conn = client::Client::new(&url).unwrap();
    let r = conn
        .request("GET", &format!("/trace/{err_trace}"), None)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let revived = parse(&r.body).unwrap();
    assert_eq!(
        revived.get("trace").and_then(JsonValue::as_str),
        Some(err_trace)
    );
    assert_eq!(field(&revived, "status"), 400.0);
    assert!(!spans(&revived).is_empty(), "{revived}");

    // The fresh process's histograms name recent traces per bucket: the
    // `/trace` request above was recorded before this one was read.
    let expo = conn.request("GET", "/metrics", None).unwrap().body;
    assert_eq!(conn.connects(), 1);
    assert!(expo.contains(" # {trace_id=\""), "no exemplar: {expo}");
    drop(procs);
    let _ = std::fs::remove_dir_all(&dir);
}
