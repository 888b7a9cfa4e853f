//! `graphio` command-line tool: generate computation graphs, compute I/O
//! lower bounds, run whole analysis sessions, serve them over HTTP, and
//! simulate executions from the shell.
//!
//! ```text
//! graphio generate fft 6                     # emit edge-list JSON on stdout
//! graphio bound --memory 4 < graph.json      # spectral + min-cut bounds
//! graphio analyze --memory-sweep 2,4,8,16 --threads 8 --json < graph.json
//! graphio simulate --memory 4 --policy lru < graph.json
//! graphio dot < graph.json                   # Graphviz rendering
//! graphio serve --port 7878 --workers 4      # the analysis service
//! graphio client analyze --url http://127.0.0.1:7878 \
//!     --memory-sweep 2,4,8 < graph.json      # remote analysis
//! graphio client analyze --url ... --memory-sweep 2,4,8 \
//!     --keep-alive --repeat 16 < graph.json  # one connection, 16 requests
//! graphio client batch --url ... --memory-sweep 2,4,8 \
//!     < graphs.ndjson                        # many graphs, one request
//! graphio precompute --store ./analysis-store \
//!     < graphs.ndjson                        # sweep a corpus to disk
//! graphio serve --port 7878 --store ./analysis-store  # boots hot
//! graphio store ls --store ./analysis-store  # one line per fingerprint
//! graphio store get --store ./analysis-store --fingerprint <hex> \
//!     | graphio analyze --memory-sweep 2,4,8 # stored graphs pipe back in
//! ```
//!
//! `analyze` is the cached path: one session computes each Laplacian
//! spectrum and the min-cut sweep once and serves every memory size,
//! theorem variant and processor count from the cache. `serve` keeps those
//! sessions alive *across* processes in a sharded LRU keyed by the graph's
//! structural fingerprint; `POST /analyze` responses are bit-identical to
//! `analyze --json` output for the same request.
//!
//! Every subcommand rejects flags it does not understand.

use graphio::baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions};
use graphio::graph::dot::{to_dot, DotOptions};
use graphio::graph::generators::{
    bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, inner_product, naive_matmul,
    strassen_matmul,
};
use graphio::graph::topo::{bfs_order, dfs_order, natural_order};
use graphio::graph::{CompGraph, EdgeListGraph};
use graphio::linalg::stats::sparse_matvec_count;
use graphio::pebble::{simulate, Policy};
use graphio::router::{serve_router, RouterConfig};
use graphio::service::analysis::{
    analysis_body, analyze_rows, is_certified, validate_memories, AnalyzeSpec,
};
use graphio::service::cache::CacheConfig;
use graphio::service::{client, loadgen, serve, PersistenceConfig, ServiceConfig};
use graphio::spectral::{BoundOptions, OwnedAnalyzer, HUGE_CUTOFF};
use graphio::store::{
    canonical_edge_list, decode_session, load_session, save_session, warm_session, Store,
    StoreConfig,
};
use std::collections::HashMap;
use std::io::Read;

/// Route every allocation through the counting wrapper so `serve`,
/// `router` and `cluster` can attribute bytes to the active phase
/// (`alloc_bytes`/`allocs` in trace records, per-phase counters on
/// `/metrics`). Attribution is off until the server flips the switch, so
/// offline subcommands pay one relaxed load per allocation.
#[global_allocator]
static COUNTING_ALLOC: graphio::obs::CountingAlloc = graphio::obs::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  graphio generate <family> <size> [--p <prob>] [--seed <s>]\n  \
         graphio bound --memory <M> [--processors <p>] [--threads <N>] < graph.json\n  \
         graphio analyze --memory-sweep <M1,M2,...> [--processors <p>] [--threads <N>] [--no-sim] [--json] < graph.json\n  \
         graphio simulate --memory <M> [--policy lru|fifo|belady|random] [--order natural|dfs|bfs] < graph.json\n  \
         graphio dot < graph.json\n  \
         graphio serve [--host <H>] [--port <P>] [--workers <W>] [--queue <Q>] [--cache-mb <B>] [--shards <S>] [--max-sessions <K>] [--threads <N>] [--idle-ms <T>] [--max-requests <R>] [--store <DIR>] [--store-mb <B>] [--trace-store <DIR>]\n  \
         graphio client analyze --url <http://host:port> --memory-sweep <M1,...> [--processors <p>] [--no-sim] [--keep-alive] [--repeat <N>] [--json] < graph.json\n  \
         graphio client batch --url <http://host:port> --memory-sweep <M1,...> [--processors <p>] [--no-sim] < graphs.ndjson\n  \
         graphio client register --url <http://host:port> < graph.json\n  \
         graphio client stats|health --url <http://host:port>\n  \
         graphio router --backends <host:port,host:port,...> [--listen <H:P>] [--replicas <K>] [--workers <W>] [--queue <Q>] [--health-ms <T>]\n  \
         graphio cluster [--backends <N>] [--listen <H:P>] [--replicas <K>] [--workers <W>]\n  \
         graphio loadgen --url <http://host:port> [--rps <R>] [--duration <S>] [--conns <C>] [--path <P>] [--body <FILE.ndjson: one body per line, cycled>] [--json]\n  \
         graphio trace <id> [--server <http://host:port>]\n  \
         graphio traces [--slowest <K>] [--server <http://host:port>]\n  \
         graphio profile --server <http://host:port> [--seconds <S>] [--flamegraph <FILE>]\n  \
         graphio precompute --store <DIR> [--store-mb <B>] [--threads <N>] [--jobs <J>] < graphs.ndjson\n  \
         graphio store stat|ls|compact|export --store <DIR>\n  \
         graphio store get --store <DIR> --fingerprint <HEX>\n\n\
         families: fft, bhk, matmul, strassen, inner, diamond, er"
    );
    std::process::exit(2)
}

/// Parsed arguments of one subcommand: every flag checked against an
/// allowlist so typos fail loudly instead of being silently ignored.
/// Every error path names both the offending flag *and* the subcommand,
/// so `error: ... for --threads in \`graphio analyze\`` is greppable from
/// any shell transcript.
struct Parsed {
    cmd: String,
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Parsed {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn parse_flag<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.flag(name).map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!(
                    "error: invalid value {raw:?} for {name} in `graphio {}`",
                    self.cmd
                );
                usage()
            })
        })
    }
}

/// Splits `args` into positionals and flags, rejecting any flag not named
/// in `value_flags` (which take one value) or `bool_flags`.
fn parse_args(cmd: &str, args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Parsed {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if bool_flags.contains(&a.as_str()) {
                flags.insert(a.clone(), String::new());
            } else if value_flags.contains(&a.as_str()) {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("error: flag {a} expects a value in `graphio {cmd}`");
                    usage()
                };
                flags.insert(a.clone(), value.clone());
                i += 1;
            } else {
                eprintln!("error: unknown flag {a} for `graphio {cmd}`");
                usage()
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Parsed {
        cmd: cmd.to_string(),
        positional,
        flags,
    }
}

fn read_graph_from_stdin() -> CompGraph {
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .unwrap_or_else(|e| {
            eprintln!("error reading stdin: {e}");
            std::process::exit(1);
        });
    parse_graph(&buf)
}

fn parse_graph(json: &str) -> CompGraph {
    let el = EdgeListGraph::from_json(json).unwrap_or_else(|e| {
        eprintln!("error parsing graph JSON: {e}");
        std::process::exit(1);
    });
    CompGraph::try_from(el).unwrap_or_else(|e| {
        eprintln!("invalid graph: {e}");
        std::process::exit(1);
    })
}

/// Applies `--threads N` to the process-global thread knob, which sizes
/// the convex min-cut sweep.
fn apply_threads(parsed: &Parsed) {
    if let Some(threads) = parsed.parse_flag::<usize>("--threads") {
        graphio::linalg::set_threads(threads);
    }
}

/// Parses `--processors` (default 1). Zero is a usage error: Theorem 6
/// needs at least one processor, and `POST /analyze` refuses it too.
fn parse_processors(parsed: &Parsed) -> usize {
    let p = parsed.parse_flag("--processors").unwrap_or(1);
    if p == 0 {
        eprintln!(
            "error: invalid value {:?} for --processors in `graphio {}`: must be at least 1",
            parsed.flag("--processors").unwrap_or_default(),
            parsed.cmd
        );
        usage()
    }
    p
}

/// Parses and validates a `--memory-sweep` list, printing warnings for
/// deduplicated entries and exiting on invalid ones.
fn parse_sweep(cmd: &str, raw: &str) -> Vec<usize> {
    let parsed: Vec<usize> = raw
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: invalid memory size {s:?} for --memory-sweep in `graphio {cmd}`");
                usage()
            })
        })
        .collect();
    match validate_memories(&parsed) {
        Ok((memories, warnings)) => {
            for w in warnings {
                eprintln!("warning: {w}");
            }
            memories
        }
        Err(msg) => {
            eprintln!("error: {msg} (--memory-sweep in `graphio {cmd}`)");
            usage()
        }
    }
}

/// Writes bulk output to stdout. A broken pipe (`generate ... | head`, or
/// a downstream command that rejected its flags) is a normal way for the
/// reader to hang up, so it exits 0 quietly instead of panicking; any
/// other write failure (e.g. a full disk) is a real error and exits 1.
fn write_stdout(s: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(s.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn cmd_generate(args: &[String]) {
    let parsed = parse_args("generate", args, &["--p", "--seed"], &[]);
    let [family, size] = parsed.positional.as_slice() else {
        usage()
    };
    let size: usize = size.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid size {size:?} for `graphio generate`");
        usage()
    });
    let seed: u64 = parsed.parse_flag("--seed").unwrap_or(0);
    let p: f64 = parsed.parse_flag("--p").unwrap_or(0.1);
    // The generators assert these preconditions; checking them here makes
    // an out-of-range size a usage error instead of a panic.
    let requirement = match family.as_str() {
        "fft" if size >= 26 => Some("below 26"),
        "bhk" if size >= 28 => Some("below 28"),
        "strassen" if !size.is_power_of_two() => Some("a power of two"),
        "matmul" | "inner" | "diamond" if size == 0 => Some("at least 1"),
        _ => None,
    };
    if let Some(requirement) = requirement {
        eprintln!(
            "error: invalid value {size} for <size> in `graphio generate {family}`: \
             must be {requirement}"
        );
        usage()
    }
    if family == "er" && !(0.0..=1.0).contains(&p) {
        eprintln!("error: invalid value {p} for --p in `graphio generate er`: must be in [0, 1]");
        usage()
    }
    let g = match family.as_str() {
        "fft" => fft_butterfly(size),
        "bhk" => bhk_hypercube(size),
        "matmul" => naive_matmul(size),
        "strassen" => strassen_matmul(size),
        "inner" => inner_product(size),
        "diamond" => diamond_dag(size, size),
        "er" => erdos_renyi_dag(size, p, seed),
        _ => usage(),
    };
    write_stdout(&g.to_edge_list().to_json());
    write_stdout("\n");
}

fn cmd_bound(args: &[String]) {
    let parsed = parse_args(
        "bound",
        args,
        &["--memory", "--processors", "--threads"],
        &[],
    );
    let m: usize = parsed.parse_flag("--memory").unwrap_or_else(|| usage());
    let p = parse_processors(&parsed);
    apply_threads(&parsed);
    let g = read_graph_from_stdin();
    // The CLI shares the bench harness's size-scaled tuning schedule
    // (BoundOptions::for_graph_size).
    let n = g.n();
    let opts = BoundOptions::for_graph_size(n);
    let analyzer = OwnedAnalyzer::from_graph(g);
    if !is_certified(n) {
        println!(
            "spectral lower bound: none (n = {n} is past the {HUGE_CUTOFF}-vertex cutoff \
             for a certified eigensolve)"
        );
    } else {
        let spectral = if p == 1 {
            analyzer.bound(m, &opts)
        } else {
            analyzer.parallel_bound(m, p, &opts)
        };
        match spectral {
            Ok(b) => println!(
                "spectral lower bound: {:.2}  (best k = {}, n = {n})",
                b.bound, b.best_k
            ),
            Err(e) => eprintln!("spectral bound failed: {e}"),
        }
    }
    let g = analyzer.graph();
    let mc = convex_min_cut_bound(g, m, &ConvexMinCutOptions::for_graph_size(g.n()));
    println!(
        "convex min-cut bound: {}  (max wavefront = {})",
        mc.bound, mc.max_cut
    );
}

fn cmd_analyze(args: &[String]) {
    let parsed = parse_args(
        "analyze",
        args,
        &["--memory-sweep", "--processors", "--threads"],
        &["--no-sim", "--json"],
    );
    let memories = parse_sweep(
        &parsed.cmd,
        parsed.flag("--memory-sweep").unwrap_or_else(|| usage()),
    );
    let processors = parse_processors(&parsed);
    apply_threads(&parsed);
    let want_json = parsed.has("--json");
    let spec = AnalyzeSpec {
        memories,
        processors,
        no_sim: parsed.has("--no-sim"),
    };

    let analyzer = OwnedAnalyzer::from_graph(read_graph_from_stdin());
    let matvecs_before = sparse_matvec_count();

    if want_json {
        // The exact bytes `POST /analyze` serves for the same request
        // (property-tested in crates/service/tests).
        write_stdout(&analysis_body(&analyzer, &spec));
        return;
    }

    let rows = analyze_rows(&analyzer, &spec);
    let g = analyzer.graph();
    let stats = analyzer.stats();
    let matvecs = sparse_matvec_count() - matvecs_before;
    println!(
        "analysis of graph: n = {}, edges = {}, h = {}, threads = {}",
        g.n(),
        g.num_edges(),
        // No spectrum, so no h, past the cutoff.
        if is_certified(g.n()) {
            BoundOptions::for_graph_size(g.n()).h.to_string()
        } else {
            "-".to_string()
        },
        graphio::linalg::threads::effective_threads(),
    );
    let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |b| format!("{b:.1}"));
    println!(
        "{:>8} {:>14} {:>8} {:>14} {:>14} {:>10} {:>11}",
        "M", "thm4", "best_k", "thm5", "thm6", "mincut", "sim_upper"
    );
    for r in &rows {
        println!(
            "{:>8} {:>14} {:>8} {:>14} {:>14} {:>10} {:>11}",
            r.memory,
            fmt_opt(r.thm4.map(|(b, _)| b)),
            r.thm4.map_or("-".to_string(), |(_, k)| k.to_string()),
            fmt_opt(r.thm5),
            fmt_opt(r.thm6),
            r.mincut,
            r.sim_upper.map_or("-".to_string(), |s| s.to_string()),
        );
    }
    println!(
        "eigensolves: {} ({} cache hits), sparse mat-vecs: {}, min-cut sweeps: {}",
        stats.spectrum_misses, stats.spectrum_hits, matvecs, stats.mincut_misses,
    );
}

fn cmd_simulate(args: &[String]) {
    let parsed = parse_args("simulate", args, &["--memory", "--policy", "--order"], &[]);
    let m: usize = parsed.parse_flag("--memory").unwrap_or_else(|| usage());
    let policy = match parsed.flag("--policy") {
        None | Some("lru") => Policy::Lru,
        Some("fifo") => Policy::Fifo,
        Some("belady") => Policy::Belady,
        Some("random") => Policy::Random,
        Some(_) => usage(),
    };
    let g = read_graph_from_stdin();
    let order = match parsed.flag("--order") {
        None | Some("natural") => natural_order(&g),
        Some("dfs") => dfs_order(&g),
        Some("bfs") => bfs_order(&g),
        Some(_) => usage(),
    };
    match simulate(&g, &order, m, policy, 0) {
        Ok(r) => println!(
            "simulated I/O: {} ({} reads, {} writes, peak residency {})",
            r.io(),
            r.reads,
            r.writes,
            r.peak_resident
        ),
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_serve(args: &[String]) {
    let parsed = parse_args(
        "serve",
        args,
        &[
            "--host",
            "--port",
            "--workers",
            "--queue",
            "--cache-mb",
            "--shards",
            "--max-sessions",
            "--threads",
            "--idle-ms",
            "--max-requests",
            "--store",
            "--store-mb",
            "--trace-store",
        ],
        &[],
    );
    if !parsed.positional.is_empty() {
        usage();
    }
    let defaults = ServiceConfig::default();
    let cache_defaults = CacheConfig::default();
    let config = ServiceConfig {
        host: parsed
            .flag("--host")
            .unwrap_or(defaults.host.as_str())
            .to_string(),
        port: parsed.parse_flag("--port").unwrap_or(7878),
        workers: parsed.parse_flag("--workers").unwrap_or(defaults.workers),
        queue_capacity: parsed
            .parse_flag("--queue")
            .unwrap_or(defaults.queue_capacity),
        idle_timeout: parsed
            .parse_flag::<u64>("--idle-ms")
            .map_or(defaults.idle_timeout, std::time::Duration::from_millis),
        max_requests_per_connection: parsed
            .parse_flag("--max-requests")
            .unwrap_or(defaults.max_requests_per_connection),
        cache: CacheConfig {
            shards: parsed
                .parse_flag("--shards")
                .unwrap_or(cache_defaults.shards),
            max_sessions: parsed
                .parse_flag("--max-sessions")
                .unwrap_or(cache_defaults.max_sessions),
            max_bytes: parsed
                .parse_flag::<usize>("--cache-mb")
                .map_or(cache_defaults.max_bytes, |mb| mb.saturating_mul(1 << 20)),
        },
        store: parsed.flag("--store").map(|dir| PersistenceConfig {
            dir: dir.into(),
            store: store_config(&parsed),
        }),
        trace_store: parsed.flag("--trace-store").map(Into::into),
    };
    if parsed.has("--store-mb") && config.store.is_none() {
        eprintln!("error: --store-mb requires --store in `graphio serve`");
        usage();
    }
    apply_threads(&parsed);
    let server = serve(&config).unwrap_or_else(|e| {
        eprintln!("error: failed to start server: {e}");
        std::process::exit(1);
    });
    if let Some(stats) = server.store_stats() {
        println!(
            "store: {} record(s) in {} segment(s), {} bytes on disk",
            stats.records, stats.segments, stats.bytes_on_disk
        );
    }
    // Line-buffered and parsed by the CI driver — keep the format stable.
    println!("graphio service listening on {}", server.url());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
}

/// Store sizing shared by every subcommand that opens one
/// (`--store-mb` caps the on-disk byte budget).
fn store_config(parsed: &Parsed) -> StoreConfig {
    let defaults = StoreConfig::default();
    StoreConfig {
        max_bytes: parsed
            .parse_flag::<u64>("--store-mb")
            .map_or(defaults.max_bytes, |mb| mb.saturating_mul(1 << 20)),
        ..defaults
    }
}

/// Opens the store named by `--store` (required). Inspection commands
/// pass `read_only` — no writer lock, no filesystem mutation — so they
/// can point at a store a live `serve --store` is writing.
fn open_store(parsed: &Parsed, read_only: bool) -> Store {
    let dir = parsed.flag("--store").unwrap_or_else(|| {
        eprintln!(
            "error: --store <DIR> is required for `graphio {}`",
            parsed.cmd
        );
        usage()
    });
    let opened = if read_only {
        Store::open_read_only(dir, store_config(parsed))
    } else {
        Store::open(dir, store_config(parsed))
    };
    opened.unwrap_or_else(|e| {
        eprintln!("error: cannot open store {dir}: {e}");
        std::process::exit(1);
    })
}

/// `graphio store {stat,ls,get,compact,export}` — inspect and maintain a
/// persistent analysis store offline.
fn cmd_store(args: &[String]) {
    let Some((action, rest)) = args.split_first() else {
        usage()
    };
    let value_flags: &[&str] = match action.as_str() {
        "get" => &["--store", "--store-mb", "--fingerprint"],
        "stat" | "ls" | "compact" | "export" => &["--store", "--store-mb"],
        _ => usage(),
    };
    let parsed = parse_args(&format!("store {action}"), rest, value_flags, &[]);
    // Only `compact` mutates; everything else opens lock-free/read-only.
    let store = open_store(&parsed, action != "compact");

    /// The decoded document for `fp`, or `None` with a warning — bulk
    /// commands (`ls`, `export`) keep going past one bad record so a
    /// single undecodable entry (version skew, racing compaction) does
    /// not hide the healthy rest of the store.
    fn try_fetch(
        store: &Store,
        fp: graphio::graph::Fingerprint,
    ) -> Option<(Vec<u8>, graphio::store::StoredSession)> {
        match store.get(fp) {
            Ok(Some(doc)) => match decode_session(&doc) {
                Ok(session) => Some((doc, session)),
                Err(e) => {
                    eprintln!("warning: skipping undecodable record for {fp}: {e}");
                    None
                }
            },
            Ok(None) => None,
            Err(e) => {
                eprintln!("warning: skipping unreadable record for {fp}: {e}");
                None
            }
        }
    }

    match action.as_str() {
        "stat" => {
            let s = store.stats();
            let num = |v: u64| graphio::graph::json::JsonValue::Number(v as f64);
            let doc = graphio::graph::json::JsonValue::Object(vec![
                ("records".to_string(), num(s.records)),
                ("segments".to_string(), num(s.segments)),
                ("bytes_on_disk".to_string(), num(s.bytes_on_disk)),
                ("live_bytes".to_string(), num(s.live_bytes)),
                ("compactions".to_string(), num(s.compactions)),
            ]);
            write_stdout(&(doc.to_string() + "\n"));
        }
        "ls" => {
            let mut out = String::new();
            for fp in store.fingerprints() {
                let Some((doc, session)) = try_fetch(&store, fp) else {
                    continue;
                };
                out.push_str(&format!(
                    "{fp}\tn={}\tedges={}\tspectra={}\tcuts={}\tbytes={}\n",
                    session.graph.n(),
                    session.graph.num_edges(),
                    session.export.spectra.len(),
                    session.export.cuts.len(),
                    doc.len(),
                ));
            }
            write_stdout(&out);
        }
        "get" => {
            let hex = parsed.flag("--fingerprint").unwrap_or_else(|| usage());
            let Some(fp) = graphio::graph::Fingerprint::from_hex(hex) else {
                eprintln!("error: malformed fingerprint {hex:?} for `graphio store get`");
                usage()
            };
            // `get` asked for one specific record, so absence IS the
            // error (unlike the bulk commands above).
            let Some((_, session)) = try_fetch(&store, fp) else {
                eprintln!("error: no record for fingerprint {fp}");
                std::process::exit(1);
            };
            eprintln!(
                "fingerprint {fp}: n={}, edges={}, spectra={}, cuts={}",
                session.graph.n(),
                session.graph.num_edges(),
                session.export.spectra.len(),
                session.export.cuts.len(),
            );
            // The graph goes to stdout as ordinary edge-list JSON, so it
            // pipes straight back into `graphio analyze` / `bound` /
            // `dot` — in the codec's canonical edge order, so the
            // rebuilt graph reproduces parent order (and therefore
            // simulation bytes) exactly.
            write_stdout(&canonical_edge_list(&session.graph).to_json());
            write_stdout("\n");
        }
        "compact" => {
            let before = store.stats();
            if let Err(e) = store.compact() {
                eprintln!("error: compaction failed: {e}");
                std::process::exit(1);
            }
            let after = store.stats();
            println!(
                "compacted: {} -> {} bytes ({} record(s), {} segment(s))",
                before.bytes_on_disk, after.bytes_on_disk, after.records, after.segments
            );
        }
        "export" => {
            // NDJSON of stored graphs: the exact shape `graphio
            // precompute` consumes, so a store can be rebuilt or merged
            // elsewhere.
            let mut out = String::new();
            for fp in store.fingerprints() {
                let Some((_, session)) = try_fetch(&store, fp) else {
                    continue;
                };
                // Canonical edge order: see `store get` above.
                out.push_str(&canonical_edge_list(&session.graph).to_json());
                out.push('\n');
            }
            write_stdout(&out);
        }
        _ => usage(),
    }
}

/// What one corpus line came to. `Failed` aborts the run (exit 1) once
/// printing reaches it — in input order, so the reported line is the
/// same whichever worker hit it first.
enum PrecomputeOutcome {
    Fresh {
        fp: graphio::graph::Fingerprint,
        n: usize,
    },
    Skipped,
    Failed(String),
}

/// Parses one corpus line and warms + stores it unless the store already
/// holds a warm session for its fingerprint.
fn precompute_line(store: &Store, graph: CompGraph) -> PrecomputeOutcome {
    let fp = graphio::graph::fingerprint(&graph);
    // Already stored *and* warmed? Then this line is free.
    if let Ok(Some(existing)) = load_session(store, fp) {
        if !existing.export().is_empty() {
            return PrecomputeOutcome::Skipped;
        }
    }
    let n = graph.n();
    let analyzer = OwnedAnalyzer::from_graph(graph);
    if let Err(e) = warm_session(&analyzer) {
        return PrecomputeOutcome::Failed(format!("eigensolve failed: {e}"));
    }
    if let Err(e) = save_session(store, fp, &analyzer) {
        return PrecomputeOutcome::Failed(format!("store write failed: {e}"));
    }
    PrecomputeOutcome::Fresh { fp, n }
}

/// `graphio precompute` — sweep an NDJSON corpus of graphs into a store
/// offline, so a server started with `--store` boots hot: every corpus
/// graph's spectra and min-cut sweep are already on disk and the server
/// never eigensolves for them.
///
/// `--jobs N` warms up to N corpus lines concurrently (the store's own
/// locking serializes the appends). Reporting stays deterministic:
/// outcomes are collected per line and printed in input order, so the
/// progress lines — and which error gets reported when several lines are
/// bad — are identical at every job count.
fn cmd_precompute(args: &[String]) {
    let parsed = parse_args(
        "precompute",
        args,
        &["--store", "--store-mb", "--threads", "--jobs"],
        &[],
    );
    if !parsed.positional.is_empty() {
        usage();
    }
    apply_threads(&parsed);
    let jobs: usize = parsed.parse_flag("--jobs").unwrap_or(1).max(1);
    let store = open_store(&parsed, false);
    let input = read_stdin_to_string();

    // Phase 1 (sequential, cheap): parse every line, fingerprint it, and
    // mark duplicates of an earlier line as skips — so the fresh/skipped
    // counts cannot depend on which worker wins a race.
    let mut items: Vec<(usize, Option<CompGraph>, Option<PrecomputeOutcome>)> = Vec::new();
    let mut seen_fps = std::collections::HashSet::new();
    for (line_no, line) in input.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
        if line.is_empty() {
            continue;
        }
        match graphio::graph::EdgeListGraph::from_json(line)
            .map_err(|e| format!("invalid graph JSON: {e}"))
            .and_then(|el| CompGraph::try_from(el).map_err(|e| format!("invalid graph: {e}")))
        {
            Ok(g) => {
                if seen_fps.insert(graphio::graph::fingerprint(&g)) {
                    items.push((line_no, Some(g), None));
                } else {
                    items.push((line_no, None, Some(PrecomputeOutcome::Skipped)));
                }
            }
            Err(msg) => items.push((line_no, None, Some(PrecomputeOutcome::Failed(msg)))),
        }
    }
    if items.is_empty() {
        eprintln!("error: `graphio precompute` expects one graph JSON per stdin line");
        std::process::exit(1);
    }

    // Phase 2 (parallel): warm + store, workers claiming lines off a
    // shared cursor.
    let outcomes: Vec<std::sync::Mutex<Option<PrecomputeOutcome>>> = items
        .iter_mut()
        .map(|(_, _, o)| std::sync::Mutex::new(o.take()))
        .collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let store_ref = &store;
    // The graphs move out of `items` through per-slot mutexes so workers
    // can take them without cloning.
    let work: Vec<std::sync::Mutex<Option<CompGraph>>> = items
        .iter_mut()
        .map(|(_, g, _)| std::sync::Mutex::new(g.take()))
        .collect();
    std::thread::scope(|scope| {
        let work = &work;
        let cursor = &cursor;
        let outcomes = &outcomes;
        for _ in 0..jobs.min(work.len()) {
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= work.len() {
                    return;
                }
                let Some(graph) = work[i].lock().expect("work slot").take() else {
                    continue; // pre-resolved in phase 1
                };
                let outcome = precompute_line(store_ref, graph);
                *outcomes[i].lock().expect("outcome slot") = Some(outcome);
            });
        }
    });

    // Phase 3: print in input order; the first failed line (in input
    // order) aborts exactly like the sequential path did.
    let (mut fresh, mut skipped) = (0u64, 0u64);
    for ((line_no, _, _), outcome) in items.iter().zip(outcomes) {
        match outcome
            .into_inner()
            .expect("outcome lock")
            .expect("every line resolved")
        {
            PrecomputeOutcome::Fresh { fp, n } => {
                fresh += 1;
                eprintln!("line {line_no}: {fp} n={n} precomputed");
            }
            PrecomputeOutcome::Skipped => skipped += 1,
            PrecomputeOutcome::Failed(msg) => {
                eprintln!("error: stdin line {line_no}: {msg}");
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = store.snapshot() {
        eprintln!("warning: snapshot failed: {e}");
    }
    eprintln!(
        "precomputed {fresh} graph(s) ({skipped} already stored) into {}",
        store.dir().display()
    );
}

/// Splits `host:port` (the `--listen` form). IPv6 listen addresses use
/// the usual `[::1]:port` bracket form.
fn parse_listen(cmd: &str, listen: &str) -> (String, u16) {
    let Some((host, port)) = listen.rsplit_once(':') else {
        eprintln!("error: --listen expects host:port in `graphio {cmd}`, got {listen:?}");
        usage()
    };
    let Ok(port) = port.parse::<u16>() else {
        eprintln!("error: invalid port {port:?} for --listen in `graphio {cmd}`");
        usage()
    };
    (host.trim_matches(['[', ']']).to_string(), port)
}

/// Builds a [`RouterConfig`] from shared router/cluster flags.
fn router_config(parsed: &Parsed, backends: Vec<String>) -> RouterConfig {
    let defaults = RouterConfig::over(Vec::new());
    let (host, port) = parse_listen(
        &parsed.cmd,
        parsed.flag("--listen").unwrap_or("127.0.0.1:7979"),
    );
    RouterConfig {
        host,
        port,
        backends,
        replicas: parsed.parse_flag("--replicas").unwrap_or(defaults.replicas),
        workers: parsed.parse_flag("--workers").unwrap_or(defaults.workers),
        queue_capacity: parsed
            .parse_flag("--queue")
            .unwrap_or(defaults.queue_capacity),
        health_interval: parsed
            .parse_flag::<u64>("--health-ms")
            .map_or(defaults.health_interval, std::time::Duration::from_millis),
        ..defaults
    }
}

/// `graphio router` — the fingerprint-affine cluster tier: a reverse
/// proxy fronting N `graphio serve` backends with consistent-hash
/// routing, scatter/gather batching, and failover (see DESIGN.md §8).
fn cmd_router(args: &[String]) {
    let parsed = parse_args(
        "router",
        args,
        &[
            "--backends",
            "--listen",
            "--replicas",
            "--workers",
            "--queue",
            "--health-ms",
        ],
        &[],
    );
    if !parsed.positional.is_empty() {
        usage();
    }
    let backends: Vec<String> = parsed
        .flag("--backends")
        .unwrap_or_else(|| usage())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        eprintln!("error: --backends expects at least one host:port in `graphio router`");
        usage();
    }
    let router = serve_router(&router_config(&parsed, backends)).unwrap_or_else(|e| {
        eprintln!("error: failed to start router: {e}");
        std::process::exit(1);
    });
    // Line-buffered and parsed by the CI driver — keep the format stable.
    println!("graphio router listening on {}", router.url());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    router.join();
}

/// `graphio cluster` — a test/demo helper: spawn N `graphio serve`
/// children on ephemeral ports and front them with an in-process router.
/// Prints one `cluster backend I: URL pid=P` line per child (so a test
/// harness can `kill -9` one mid-load) and then the standard router
/// listening line. The children are plain child processes: killing the
/// cluster process orphans them, so harnesses should kill the printed
/// pids too.
fn cmd_cluster(args: &[String]) {
    let parsed = parse_args(
        "cluster",
        args,
        &["--backends", "--listen", "--replicas", "--workers"],
        &[],
    );
    if !parsed.positional.is_empty() {
        usage();
    }
    let n: usize = parsed.parse_flag("--backends").unwrap_or(3).max(1);
    let workers: usize = parsed.parse_flag("--workers").unwrap_or(2);
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate own binary: {e}");
        std::process::exit(1);
    });
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let mut child = std::process::Command::new(&exe)
            .args(["serve", "--port", "0", "--workers", &workers.to_string()])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("error: failed to spawn backend {i}: {e}");
                std::process::exit(1);
            });
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = std::io::BufReader::new(stdout);
        let url = loop {
            let mut line = String::new();
            use std::io::BufRead as _;
            let read = reader.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                eprintln!("error: backend {i} exited before listening");
                std::process::exit(1);
            }
            if let Some(url) = line.trim().strip_prefix("graphio service listening on ") {
                break url.to_string();
            }
        };
        let addr = url.strip_prefix("http://").unwrap_or(&url).to_string();
        println!("cluster backend {i}: {url} pid={}", child.id());
        addrs.push(addr);
        children.push(child);
    }
    let router = match serve_router(&router_config(&parsed, addrs)) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: failed to start router: {e}");
            for mut child in children {
                let _ = child.kill();
            }
            std::process::exit(1);
        }
    };
    println!("graphio router listening on {}", router.url());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    router.join();
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// `graphio loadgen` — the open-loop load generator (see
/// [`graphio::service::loadgen`] for the coordinated-omission argument).
/// Prints one report line (`--json` for the machine-readable form).
fn cmd_loadgen(args: &[String]) {
    let parsed = parse_args(
        "loadgen",
        args,
        &[
            "--url",
            "--path",
            "--rps",
            "--duration",
            "--conns",
            "--body",
        ],
        &["--json"],
    );
    if !parsed.positional.is_empty() {
        usage();
    }
    let url = parsed.flag("--url").unwrap_or_else(|| usage());
    let rps: f64 = parsed.parse_flag("--rps").unwrap_or(100.0);
    let seconds: f64 = parsed.parse_flag("--duration").unwrap_or(5.0);
    let duration = std::time::Duration::try_from_secs_f64(seconds).unwrap_or_else(|_| {
        eprintln!(
            "error: invalid value {:?} for --duration in `graphio loadgen`: \
             must be a finite number of seconds, at least 0",
            parsed.flag("--duration").unwrap_or_default()
        );
        usage()
    });
    let mut config = loadgen::LoadgenConfig::at(url, rps, duration);
    config.conns = parsed.parse_flag("--conns").unwrap_or(config.conns);
    if let Some(path) = parsed.flag("--path") {
        config.path = path.to_string();
    }
    if let Some(file) = parsed.flag("--body") {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("error: cannot read --body {file}: {e}");
            std::process::exit(1);
        });
        // NDJSON: every non-empty line is one request body in the cycled
        // pool, so a captured request log (e.g. the per-entry bodies of a
        // `POST /batch`) replays as a mixed workload. A single-line file
        // keeps the old one-body behavior.
        config.bodies = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty())
            .map(str::to_string)
            .collect();
        if config.bodies.is_empty() {
            eprintln!("error: --body {file} contains no request bodies");
            std::process::exit(1);
        }
    } else if config.path.starts_with("/analyze") || config.path.starts_with("/graphs") {
        // Default body: a small FFT analysis over a modest sweep — the
        // cache-hit steady state every repeat measures.
        config.bodies = vec![analyze_body_json(&fft_butterfly(5), &[4, 8, 16])];
    }
    if config.bodies.is_empty() {
        config.method = "GET".to_string();
    }
    let report = loadgen::run(&config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // Humans get the readable summary; `--json` keeps the stable
    // machine-readable line (what the CI driver greps).
    if parsed.has("--json") {
        write_stdout(&(report.to_json() + "\n"));
    } else {
        write_stdout(&(report.to_human() + "\n"));
    }
}

/// An `/analyze` request body for `g` over `memories`.
fn analyze_body_json(g: &CompGraph, memories: &[usize]) -> String {
    let sweep = memories
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"graph\":{},\"memories\":[{sweep}]}}",
        g.to_edge_list().to_json()
    )
}

fn read_stdin_to_string() -> String {
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .unwrap_or_else(|e| {
            eprintln!("error reading stdin: {e}");
            std::process::exit(1);
        });
    buf
}

fn cmd_client(args: &[String]) {
    let Some((action, rest)) = args.split_first() else {
        usage()
    };
    // The allowlist depends on the action: `client stats --memory-sweep`
    // is as much a user error as any other unknown flag.
    let (value_flags, bool_flags): (&[&str], &[&str]) = match action.as_str() {
        "analyze" => (
            &["--url", "--memory-sweep", "--processors", "--repeat"],
            &["--no-sim", "--keep-alive", "--json"],
        ),
        "batch" => (&["--url", "--memory-sweep", "--processors"], &["--no-sim"]),
        "register" | "stats" | "health" => (&["--url"], &[]),
        _ => usage(),
    };
    let parsed = parse_args(&format!("client {action}"), rest, value_flags, bool_flags);
    let url = parsed.flag("--url").unwrap_or_else(|| usage());

    // For `client batch`: stdin line number of each submitted entry, so a
    // per-index rejection (`graphs[i]: ...`) can name the offending line
    // (blank lines are skipped, so index and line number diverge).
    let mut batch_lines: Option<Vec<usize>> = None;
    let response = match action.as_str() {
        "analyze" => {
            let memories = parse_sweep(
                &parsed.cmd,
                parsed.flag("--memory-sweep").unwrap_or_else(|| usage()),
            );
            let processors: usize = parsed.parse_flag("--processors").unwrap_or(1);
            let no_sim = parsed.has("--no-sim");
            let repeat: u64 = parsed.parse_flag("--repeat").unwrap_or(1).max(1);
            let graph_json = read_stdin_to_string();
            if parsed.has("--keep-alive") || repeat > 1 || parsed.has("--json") {
                // One persistent connection for all rounds; responses are
                // deterministic, so only the last is printed — or, under
                // --json, a machine-readable round-trip summary instead.
                run_keep_alive_analyze(
                    url,
                    &graph_json,
                    &memories,
                    processors,
                    no_sim,
                    repeat,
                    parsed.has("--json"),
                )
            } else {
                client::analyze(url, &graph_json, &memories, processors, no_sim)
            }
        }
        "batch" => {
            let memories = parse_sweep(
                &parsed.cmd,
                parsed.flag("--memory-sweep").unwrap_or_else(|| usage()),
            );
            let processors: usize = parsed.parse_flag("--processors").unwrap_or(1);
            // One JSON graph document (or quoted "fingerprint") per
            // non-empty stdin line — the NDJSON shape `graphio generate`
            // emits.
            let (lines, graphs): (Vec<usize>, Vec<String>) = read_stdin_to_string()
                .lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l.trim()))
                .filter(|(_, l)| !l.is_empty())
                .map(|(no, l)| (no, l.to_string()))
                .unzip();
            if graphs.is_empty() {
                eprintln!("error: `graphio client batch` expects one graph JSON per stdin line");
                std::process::exit(1);
            }
            batch_lines = Some(lines);
            client::batch(url, &graphs, &memories, processors, parsed.has("--no-sim"))
        }
        "register" => {
            let graph_json = read_stdin_to_string();
            client::request("POST", url, "/graphs", Some(graph_json.trim_end()))
        }
        "stats" => client::request("GET", url, "/stats", None),
        "health" => client::request("GET", url, "/healthz", None),
        _ => usage(),
    };

    match response {
        Ok(r) if r.status == 200 => write_stdout(&r.body),
        Ok(r) => {
            // When the server blames a batch entry by index, also name
            // the stdin line it came from.
            let line_note = batch_lines
                .as_ref()
                .zip(client::batch_blame_index(&r.body))
                .and_then(|(lines, index)| lines.get(index))
                .map(|line| format!(" (stdin line {line})"))
                .unwrap_or_default();
            eprintln!(
                "error: server returned {}: {}{line_note}",
                r.status,
                r.body.trim_end()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `--keep-alive` / `--repeat N`: issue the analyze request `repeat`
/// times over one persistent connection, verifying every round succeeds
/// and reporting the reuse ratio on stderr (stdout stays the pristine
/// response body for piping/diffing). Under `--json` the printed body is
/// replaced by a machine-readable round-trip summary — request count,
/// connects, client-side retries, and the latency digest (p50/p99, µs)
/// from a client-side [`graphio::obs::Histogram`].
fn run_keep_alive_analyze(
    url: &str,
    graph_json: &str,
    memories: &[usize],
    processors: usize,
    no_sim: bool,
    repeat: u64,
    json_summary: bool,
) -> Result<client::Response, client::ClientError> {
    let mut session = client::Client::new(url)?;
    let latency = graphio::obs::Histogram::new();
    let mut last = None;
    for round in 0..repeat {
        let started = std::time::Instant::now();
        let r = client::analyze_on(&mut session, graph_json, memories, processors, no_sim)?;
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        latency.record(us.max(1));
        if r.status != 200 {
            eprintln!(
                "error: server returned {} on round {round}: {}",
                r.status,
                r.body.trim_end()
            );
            std::process::exit(1);
        }
        last = Some(r);
    }
    eprintln!(
        "keep-alive: {repeat} requests over {} connection(s)",
        session.connects()
    );
    let mut last = last.expect("repeat >= 1");
    if json_summary {
        last.body = format!(
            "{{\"requests\":{repeat},\"connects\":{},\"retries\":{},\"latency_us\":{}}}\n",
            session.connects(),
            session.retries(),
            loadgen::latency_json(&latency.snapshot()),
        );
    }
    Ok(last)
}

/// Default server for the trace subcommands: the `graphio serve` /
/// `graphio cluster` default port.
const DEFAULT_TRACE_SERVER: &str = "http://127.0.0.1:7878";

/// `GET path` from `url`: the body of a 200, or exit 1 naming the status
/// and body the server answered, or the transport error.
fn get_ok(url: &str, path: &str) -> String {
    match client::request("GET", url, path, None) {
        Ok(r) if r.status == 200 => r.body,
        Ok(r) => {
            eprintln!("error: server returned {}: {}", r.status, r.body.trim_end());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `graphio trace <id> [--server URL]`: fetch one flight-recorder record
/// — through a router this is the assembled distributed tree — and
/// pretty-print its phase tree with per-span share of the parent.
fn cmd_trace(args: &[String]) {
    let parsed = parse_args("trace", args, &["--server"], &[]);
    let [id] = parsed.positional.as_slice() else {
        eprintln!("error: `graphio trace` expects exactly one trace id");
        usage()
    };
    let url = parsed.flag("--server").unwrap_or(DEFAULT_TRACE_SERVER);
    let body = get_ok(url, &format!("/trace/{id}"));
    let doc = graphio::graph::json::parse(&body).unwrap_or_else(|e| {
        eprintln!("error: trace response is not JSON: {e}");
        std::process::exit(1);
    });
    write_stdout(&render_trace(&doc));
}

/// `graphio traces [--slowest K] [--server URL]`: list the slowest recent
/// flight-recorder records, one line each — the candidates to feed into
/// `graphio trace <id>`.
fn cmd_traces(args: &[String]) {
    let parsed = parse_args("traces", args, &["--server", "--slowest"], &[]);
    if !parsed.positional.is_empty() {
        usage();
    }
    let url = parsed.flag("--server").unwrap_or(DEFAULT_TRACE_SERVER);
    let k: usize = parsed.parse_flag("--slowest").unwrap_or(10).max(1);
    // Over-fetch the whole ring and rank client-side: "slowest" is a
    // different order than the server's "most recent".
    let body = get_ok(url, "/traces?n=4096");
    let doc = graphio::graph::json::parse(&body).unwrap_or_else(|e| {
        eprintln!("error: traces response is not JSON: {e}");
        std::process::exit(1);
    });
    use graphio::graph::json::JsonValue;
    let mut records: Vec<&JsonValue> = doc.as_array().unwrap_or(&[]).iter().collect();
    records.sort_by_key(|r| {
        std::cmp::Reverse(r.get("elapsed_us").and_then(JsonValue::as_u64).unwrap_or(0))
    });
    let mut out = String::new();
    for record in records.into_iter().take(k) {
        let field = |key: &str| {
            record
                .get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let num = |key: &str| record.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "{}  {:>10}µs  status {}  {}  spans {}\n",
            field("trace"),
            num("elapsed_us"),
            num("status"),
            field("endpoint"),
            num("spans"),
        ));
    }
    if out.is_empty() {
        eprintln!("no recorded traces at {url}");
        return;
    }
    write_stdout(&out);
}

/// `graphio profile --server URL [--seconds S] [--flamegraph FILE]`:
/// sample a live server (through a router this merges every backend's
/// profile under `backend <addr>` frames) and summarize where the time
/// went. `--flamegraph` writes the raw collapsed-stack text, ready for
/// `flamegraph.pl` or any speedscope-style viewer.
fn cmd_profile(args: &[String]) {
    let parsed = parse_args(
        "profile",
        args,
        &["--server", "--seconds", "--flamegraph"],
        &[],
    );
    if !parsed.positional.is_empty() {
        usage();
    }
    let url = parsed.flag("--server").unwrap_or(DEFAULT_TRACE_SERVER);
    let seconds: u64 = parsed.parse_flag("--seconds").unwrap_or(2);
    let body = get_ok(url, &format!("/debug/profile?seconds={seconds}"));
    let Some(stacks) = graphio::obs::profile::parse_collapsed(&body) else {
        eprintln!("error: malformed collapsed-stack response");
        std::process::exit(1);
    };
    if let Some(path) = parsed.flag("--flamegraph") {
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote collapsed stacks to {path}");
    }
    let total: u64 = stacks.iter().map(|(_, count)| count).sum();
    if total == 0 {
        println!("no samples in {seconds}s window (is the server idle?)");
        return;
    }
    // Two views: time by leaf frame (self time — where samples actually
    // landed) and time by any-frame presence (inclusive time).
    let mut self_counts: HashMap<&str, u64> = HashMap::new();
    let mut incl_counts: HashMap<&str, u64> = HashMap::new();
    for (path, count) in &stacks {
        if let Some(leaf) = path.last() {
            *self_counts.entry(leaf).or_insert(0) += count;
        }
        let mut seen: Vec<&str> = Vec::new();
        for frame in path {
            if !seen.contains(&frame.as_str()) {
                seen.push(frame);
                *incl_counts.entry(frame).or_insert(0) += count;
            }
        }
    }
    let mut out = format!("{total} samples over {seconds}s\n\nself  (leaf frame)\n");
    fn top<'a>(counts: &HashMap<&'a str, u64>) -> Vec<(&'a str, u64)> {
        let mut rows: Vec<(&str, u64)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(12);
        rows
    }
    for (name, count) in top(&self_counts) {
        out.push_str(&format!(
            "  {:>5.1}%  {count:>7}  {name}\n",
            100.0 * count as f64 / total as f64
        ));
    }
    out.push_str("\ninclusive  (frame anywhere on stack)\n");
    for (name, count) in top(&incl_counts) {
        out.push_str(&format!(
            "  {:>5.1}%  {count:>7}  {name}\n",
            100.0 * count as f64 / total as f64
        ));
    }
    write_stdout(&out);
}

/// Renders one `GET /trace/{id}` document as an indented phase tree:
/// header scalars, then one line per span with its duration and share of
/// the parent span's duration.
fn render_trace(doc: &graphio::graph::json::JsonValue) -> String {
    use graphio::graph::json::JsonValue;
    let text = |key: &str| doc.get(key).and_then(JsonValue::as_str).unwrap_or("-");
    let num = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let mut out = format!(
        "trace {}  endpoint {}  status {}  elapsed {}µs\n",
        text("trace"),
        text("endpoint"),
        num("status"),
        num("elapsed_us"),
    );
    if let Some(fp) = doc.get("fingerprint").and_then(JsonValue::as_str) {
        out.push_str(&format!("fingerprint {fp}  session {}\n", text("outcome")));
    }
    if let Some(backends) = doc.get("backends").and_then(JsonValue::as_array) {
        let names: Vec<&str> = backends.iter().filter_map(JsonValue::as_str).collect();
        if !names.is_empty() {
            out.push_str(&format!("backends: {}\n", names.join(", ")));
        }
    }
    let dropped = num("dropped_spans");
    if dropped > 0 {
        out.push_str(&format!("dropped spans: {dropped}\n"));
    }
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match span.get("parent").and_then(JsonValue::as_u64) {
            Some(p) if (p as usize) < i => children[p as usize].push(i),
            _ => roots.push(i),
        }
    }
    fn emit(
        out: &mut String,
        spans: &[graphio::graph::json::JsonValue],
        children: &[Vec<usize>],
        index: usize,
        depth: usize,
        parent_us: Option<u64>,
    ) {
        use graphio::graph::json::JsonValue;
        let span = &spans[index];
        let name = span.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let dur = span.get("dur_us").and_then(JsonValue::as_u64).unwrap_or(0);
        let share = match parent_us {
            Some(p) if p > 0 => format!("  ({:.1}% of parent)", 100.0 * dur as f64 / p as f64),
            _ => String::new(),
        };
        out.push_str(&format!("{}{name}  {dur}µs{share}\n", "  ".repeat(depth)));
        for &child in &children[index] {
            emit(out, spans, children, child, depth + 1, Some(dur));
        }
    }
    for root in roots {
        emit(&mut out, spans, &children, root, 1, None);
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "bound" => cmd_bound(rest),
        "analyze" => cmd_analyze(rest),
        "simulate" => cmd_simulate(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "router" => cmd_router(rest),
        "cluster" => cmd_cluster(rest),
        "loadgen" => cmd_loadgen(rest),
        "trace" => cmd_trace(rest),
        "traces" => cmd_traces(rest),
        "profile" => cmd_profile(rest),
        "store" => cmd_store(rest),
        "precompute" => cmd_precompute(rest),
        "dot" => {
            let parsed = parse_args("dot", rest, &[], &[]);
            if !parsed.positional.is_empty() {
                usage();
            }
            let g = read_graph_from_stdin();
            write_stdout(&to_dot(&g, &DotOptions::default()));
        }
        _ => usage(),
    }
}
