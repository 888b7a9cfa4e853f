//! The traced pass: the workload's work replayed in process, one call into
//! each crate's public functions at a time, with a span around each call.
//!
//! Spans are recorded from this file only (name, start, end, parent and a
//! per-request trace id), kept in memory and written out when the pass
//! ends. A layer's self time is its spans' duration minus their children;
//! the root span's self time is the pass's own glue, `unspanned_ms`.
//!
//! The replay runs twice on separate state, recording off and on,
//! alternating unit by unit; the difference in wall time is the tracing
//! overhead.
//!
//! The replay follows the path the shipped code takes:
//! * offline (`graphio analyze`): parse → Laplacians → eigensolves →
//!   min-cut → session → `analysis_body`;
//! * served (`/analyze`): parse → fingerprint → [router ring] → session
//!   cache → store get/decode on a RAM miss → the offline cold path on a
//!   full miss → `analysis_body` → store encode/put when the session is new.
//!
//! `pebble.simulate` is a direct call of the simulations `analysis_body`
//! runs internally (natural order, LRU and Bélády per memory), so the
//! pebble layer's cost shows beside the body that contains it.

use crate::plan::{parse_graph, spec, Plan, MEMORIES};
use crate::util::{die, Args};
use graphio_baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions};
use graphio_graph::json;
use graphio_graph::topo::natural_order;
use graphio_graph::{fingerprint, CompGraph, EdgeListGraph, Fingerprint};
use graphio_linalg::stats::{dense_eigensolve_count, sparse_matvec_count};
use graphio_linalg::CsrMatrix;
use graphio_pebble::{simulate, Policy};
use graphio_router::{Ring, DEFAULT_REPLICAS};
use graphio_service::{analysis_body, CacheConfig, SessionCache};
use graphio_spectral::bound::smallest_eigenvalues;
use graphio_spectral::{
    BoundOptions, CutKey, LaplacianKind, OwnedAnalyzer, SessionExport, SpectrumKey,
};
use graphio_store::{decode_session, encode_session, Store, StoreConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

struct Span {
    trace: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder with one level of children under a root.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    traces: usize,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            traces: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        self.traces += 1;
        if self.on {
            let start = self.now();
            self.spans.push(Span {
                trace: self.traces,
                parent: None,
                name,
                start_ns: start,
                end_ns: start,
            });
            self.root = Some(self.spans.len() - 1);
        }
    }

    fn end(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.now();
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            trace: self.traces,
            parent: self.root,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Self time per span name, in nanoseconds. Roots report under
    /// `unspanned`.
    fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_sum[i]);
            let name = if s.parent.is_none() {
                "unspanned"
            } else {
                s.name
            };
            *out.entry(name).or_insert(0) += own;
        }
        out
    }

    fn write(&self, path: &Path) {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).unwrap_or_else(|e| die(&e.to_string())),
        );
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{id},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )
            .unwrap_or_else(|e| die(&e.to_string()));
        }
        out.flush().unwrap_or_else(|e| die(&e.to_string()));
    }
}

/// Work counters the pass accumulates beside the spans.
#[derive(Default)]
struct Counts {
    matvecs: u64,
    dense_eigensolves: u64,
    /// Laplacians the Lanczos tier solved, with their mat-vec counts, for
    /// the mat-vec share calibration after the pass.
    sparse: Vec<(CsrMatrix, u64)>,
    eigensolve_ns: u64,
}

/// One emulated server: its session cache and, for `router_churn`, its store.
struct Backend {
    cache: SessionCache,
    store: Option<Store>,
}

/// The offline cold path: Laplacians, eigensolves and min-cut as separate
/// calls, then the session seeded with their results. The Laplacians are
/// built through the session, as the engine does, so the session holds the
/// same bytes (and the cache evicts the same way) as on the server.
fn cold_session(t: &mut Tracer, counts: &mut Counts, g: CompGraph) -> OwnedAnalyzer {
    let analyzer = OwnedAnalyzer::from_graph(g);
    let n = analyzer.graph().n();
    let opts = BoundOptions::for_graph_size(n);
    let mut export = SessionExport::default();
    for kind in LaplacianKind::ALL {
        let lap = t.span("spectral.laplacian", || analyzer.laplacian(kind));
        let (mv0, de0) = (sparse_matvec_count(), dense_eigensolve_count());
        let start = Instant::now();
        let eigs = t
            .span("linalg.eigensolve", || smallest_eigenvalues(lap, &opts))
            .unwrap_or_else(|e| die(&format!("eigensolve: {e}")));
        counts.eigensolve_ns += start.elapsed().as_nanos() as u64;
        let matvecs = sparse_matvec_count() - mv0;
        counts.matvecs += matvecs;
        counts.dense_eigensolves += dense_eigensolve_count() - de0;
        if matvecs > 0 && t.on {
            counts.sparse.push((lap.clone(), matvecs));
        }
        export
            .spectra
            .push((SpectrumKey::for_options(kind, &opts, n), eigs));
    }
    let mc_opts = ConvexMinCutOptions::for_graph_size(n);
    let cut = t.span("baselines.mincut", || {
        convex_min_cut_bound(analyzer.graph(), 0, &mc_opts)
    });
    export.cuts.push((CutKey::for_options(&mc_opts), cut));
    t.span("spectral.session", || analyzer.import(&export));
    analyzer
}

/// The body of a request against a resolved session, plus the direct
/// simulation call.
fn respond(t: &mut Tracer, analyzer: &OwnedAnalyzer) -> String {
    let body = t.span("service.analysis_body", || analysis_body(analyzer, &spec()));
    t.span("pebble.simulate", || {
        let g = analyzer.graph();
        let order = natural_order(g);
        for m in MEMORIES {
            for p in [Policy::Lru, Policy::Belady] {
                black_box(simulate(g, &order, m, p, 0).ok().map(|r| r.io()));
            }
        }
    });
    body
}

/// One `/analyze` request as the server handles it.
fn serve_one(
    t: &mut Tracer,
    counts: &mut Counts,
    backends: &[Backend],
    ring: Option<&Ring>,
    body: &str,
) -> String {
    let doc = t
        .span("graph.json_parse", || json::parse(body))
        .unwrap_or_else(|e| die(&format!("request: {e}")));
    let (fp, graph) = match doc.get("graph") {
        Some(graph) => {
            let g = t
                .span("graph.json_parse", || {
                    EdgeListGraph::from_json_value(graph)
                        .ok()
                        .and_then(|el| CompGraph::try_from(el).ok())
                })
                .unwrap_or_else(|| die("request: bad graph"));
            (t.span("graph.fingerprint", || fingerprint(&g)), Some(g))
        }
        None => {
            let hex = doc
                .get("fingerprint")
                .and_then(|v| v.as_str())
                .unwrap_or("");
            let fp = Fingerprint::from_hex(hex).unwrap_or_else(|| die("request: bad fingerprint"));
            (fp, None)
        }
    };
    let backend = &backends[ring.and_then(|r| r.owner(fp)).unwrap_or(0)];
    let mut fresh = false;
    let analyzer: Arc<OwnedAnalyzer> = match t
        .span("service.cache_lookup", || backend.cache.get(fp))
    {
        Some(a) => a,
        None => {
            let stored = backend.store.as_ref().and_then(|store| {
                let bytes = t
                    .span("store.get", || store.get(fp))
                    .unwrap_or_else(|e| die(&format!("store get: {e}")))?;
                Some(t.span("store.decode", || {
                    let session = decode_session(&bytes).unwrap_or_else(|e| die(&e.to_string()));
                    let analyzer = OwnedAnalyzer::from_graph(session.graph);
                    analyzer.import(&session.export);
                    analyzer
                }))
            });
            let analyzer = stored.unwrap_or_else(|| {
                fresh = true;
                let g = graph.unwrap_or_else(|| die("fingerprint request for an unknown graph"));
                cold_session(t, counts, g)
            });
            t.span("service.cache_insert", || {
                backend.cache.insert_if_absent(fp, analyzer).0
            })
        }
    };
    let body = respond(t, &analyzer);
    if let Some(store) = &backend.store {
        if fresh || !store.contains(fp) {
            let doc = t.span("store.encode", || {
                encode_session(analyzer.graph(), &analyzer.export())
            });
            t.span("store.put", || store.put(fp, &doc))
                .unwrap_or_else(|e| die(&format!("store put: {e}")));
        }
    }
    t.span("service.cache_insert", || backend.cache.enforce_budget(fp));
    body
}

/// One replay's state: its recorder, counters and emulated servers.
struct World {
    t: Tracer,
    counts: Counts,
    backends: Vec<Backend>,
    wall_ns: u64,
    bodies: Vec<String>,
}

impl World {
    /// Fresh servers for `plan`, warmed with the plan's set-up list.
    fn new(
        plan: &Plan,
        on: bool,
        scratch: &Path,
        backends: &[String],
        ring: Option<&Ring>,
    ) -> World {
        let with_store = plan.workload == "router_churn";
        let cache_config = if with_store {
            CacheConfig {
                max_bytes: 1 << 20,
                ..CacheConfig::default()
            }
        } else {
            CacheConfig::default()
        };
        let backends = (0..backends.len().max(1))
            .map(|i| Backend {
                cache: SessionCache::new(&cache_config),
                store: with_store.then(|| {
                    Store::open(
                        scratch.join(format!("{on}-store{i}")),
                        StoreConfig::default(),
                    )
                    .unwrap_or_else(|e| die(&format!("store: {e}")))
                }),
            })
            .collect();
        let mut world = World {
            t: Tracer::new(false),
            counts: Counts::default(),
            backends,
            wall_ns: 0,
            bodies: Vec::new(),
        };
        for &g in &plan.warm {
            serve_one(
                &mut world.t,
                &mut world.counts,
                &world.backends,
                ring,
                &plan.body(g, false),
            );
        }
        world.t = Tracer::new(on);
        world.counts = Counts::default();
        world
    }

    /// Unit `k` of the replay: corpus graph `k` offline, request `k` served.
    fn step(&mut self, plan: &Plan, ring: Option<&Ring>, bodies: &[String], k: usize) {
        let start = Instant::now();
        let t = &mut self.t;
        let body = if plan.requests.is_empty() {
            t.begin("analyze");
            let g = t.span("graph.json_parse", || parse_graph(&plan.graphs[k].json));
            let analyzer = cold_session(t, &mut self.counts, g);
            respond(t, &analyzer)
        } else {
            t.begin("request");
            serve_one(t, &mut self.counts, &self.backends, ring, &bodies[k])
        };
        t.end();
        self.wall_ns += start.elapsed().as_nanos() as u64;
        self.bodies.push(body);
    }
}

/// Replays the workload twice on separate state, recording off and on,
/// alternating which goes first unit by unit so neither side gets the
/// warmer caches. Returns (untraced, traced, units).
fn replay(
    plan: &Plan,
    dir: &Path,
    limit: usize,
    scratch: &Path,
    backends: &[String],
) -> (World, World, usize) {
    let _ = std::fs::remove_dir_all(scratch);
    let ring = (plan.workload == "router_churn").then(|| Ring::new(backends, DEFAULT_REPLICAS));
    let mut off = World::new(plan, false, scratch, backends, ring.as_ref());
    let mut on = World::new(plan, true, scratch, backends, ring.as_ref());
    let requests = &plan.requests[..limit.min(plan.requests.len())];
    let bodies: Vec<String> = requests
        .iter()
        .map(|r| plan.body(r.graph, r.by_fingerprint))
        .collect();
    let (steps, units) = if requests.is_empty() {
        (plan.graphs.len(), 1)
    } else {
        (requests.len(), requests.len())
    };
    for k in 0..steps {
        if k % 2 == 0 {
            off.step(plan, ring.as_ref(), &bodies, k);
            on.step(plan, ring.as_ref(), &bodies, k);
        } else {
            on.step(plan, ring.as_ref(), &bodies, k);
            off.step(plan, ring.as_ref(), &bodies, k);
        }
    }
    for world in [&off, &on] {
        for (k, body) in world.bodies.iter().enumerate() {
            let g = requests.get(k).map_or(k, |r| r.graph);
            if *body != plan.expected(dir, g) {
                die(&format!(
                    "replayed body for {} differs from the expected body",
                    plan.graphs[g].id
                ));
            }
        }
    }
    (off, on, units)
}

/// Mean cost of one mat-vec on `lap`, in nanoseconds.
fn matvec_ns(lap: &CsrMatrix) -> f64 {
    let n = lap.dim();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = vec![0.0; n];
    for _ in 0..3 {
        lap.matvec(&x, &mut y);
    }
    let mut reps = 0u64;
    let start = Instant::now();
    while reps < 20 || start.elapsed().as_millis() < 5 {
        lap.matvec(black_box(&x), &mut y);
        black_box(&y);
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

pub fn run(args: &Args) {
    let dir = PathBuf::from(args.req("plan"));
    let limit: usize = args.num("limit", usize::MAX);
    let backends: Vec<String> = args
        .get("backends")
        .map(|b| b.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let scratch = PathBuf::from(args.req("scratch"));
    graphio_linalg::set_threads(1);
    let plan = Plan::read(&dir);
    let (untraced, traced, units) = replay(&plan, &dir, limit, &scratch, &backends);
    let _ = std::fs::remove_dir_all(&scratch);
    traced.t.write(Path::new(args.req("spans")));
    let units = units.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / units;
    let mut metrics: Vec<(String, f64)> = traced
        .t
        .self_times()
        .into_iter()
        .map(|(name, ns)| (format!("{name}_ms"), ms(ns)))
        .collect();
    let matvec_total_ns: f64 = traced
        .counts
        .sparse
        .iter()
        .map(|(lap, count)| matvec_ns(lap) * *count as f64)
        .sum();
    let share = if traced.counts.eigensolve_ns > 0 {
        matvec_total_ns / traced.counts.eigensolve_ns as f64
    } else {
        0.0
    };
    metrics.push((
        "linalg.matvecs".into(),
        traced.counts.matvecs as f64 / units,
    ));
    metrics.push((
        "linalg.dense_eigensolves".into(),
        traced.counts.dense_eigensolves as f64 / units,
    ));
    metrics.push(("linalg.matvec_share".into(), share));
    metrics.push(("trace.unit_ms".into(), ms(traced.wall_ns)));
    metrics.push((
        "trace.overhead_ms".into(),
        ms(traced.wall_ns) - ms(untraced.wall_ns),
    ));
    metrics.push(("trace.units".into(), units));
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{{}}}", fields.join(","));
}
