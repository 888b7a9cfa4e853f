//! The analysis service: the [`crate::skeleton`] tier that owns the
//! sharded session cache.
//!
//! ```text
//!   skeleton (accept loop, pool, admin routes)
//!          │ POST /analyze, /batch, /graphs
//!          ▼ fingerprint
//!   ┌──────────────────────────┐   miss   ┌──────────────────────┐
//!   │ sharded LRU session cache │────────▶│ persistent store     │
//!   │ fp → Arc<OwnedAnalyzer>   │◀────────│ (`--store DIR`)      │
//!   └──────────────────────────┘ back-fill └──────────────────────┘
//! ```
//!
//! ## API
//!
//! | Route | Body | Response |
//! |---|---|---|
//! | `POST /analyze` | `{"graph": {...} \| "fingerprint": "hex", "memories": [..], "processors"?, "no_sim"?, "mode"?}` | the canonical analysis document ([`crate::analysis`]); `"mode"` may only be `"monolithic"` |
//! | `POST /batch` | `{"graphs": [graph \| "hex", ...], "memories": [..], "processors"?, "no_sim"?, "mode"?}` | the concatenation of the per-graph `/analyze` bodies |
//! | `POST /graphs` | `{"graph": {...}}` or a bare edge-list document | `{"fingerprint", "n", "edges", "cached"}` |
//!
//! The admin routes (`/healthz`, `/stats`, `/metrics`, `/trace/{id}`,
//! `/traces`, `/debug/profile`) are the skeleton's; this tier supplies
//! the `/healthz` document, the `cache`/`store`/`engine`/`linalg`
//! sections of `/stats` and `/metrics`, and the store flush on shutdown.
//!
//! `POST /analyze` responses carry `X-Graphio-Fingerprint` and
//! `X-Graphio-Session: hit|store|miss` headers (`store` = RAM miss
//! back-filled from the persistent store, the warm-restart path; plus
//! `X-Graphio-Warnings` for deduplicated sweep points) so metadata never
//! perturbs the bit-identical body; `POST /batch` carries
//! `X-Graphio-Batch: N` and a comma-joined `X-Graphio-Session` list.
//!
//! ## Persistence (`--store DIR`)
//!
//! With a [`PersistenceConfig`], the session cache gains a disk tier
//! (`graphio_store`'s fingerprint-keyed segment log): boot warm-loads
//! the index, a RAM miss back-fills the decoded session from disk — a
//! store hit answers with **zero** eigensolves — completed analyses
//! write through (skip-if-unchanged), and graceful shutdown flushes a
//! compacted snapshot. See `DESIGN.md` §7.
//!
//! ## Relabeling semantics
//!
//! The cache key is relabeling-invariant, so a graph submitted under a
//! *different vertex numbering* than a cached structure hits the same
//! session and is answered on the session's stored representative (the
//! first-seen numbering). Spectra, bounds and min-cut values agree across
//! relabelings mathematically; what can differ from an offline run of
//! the relabeled input is numbering-dependent detail — the simulation
//! upper bound follows the representative's evaluation order, and
//! eigensolves on a permuted Laplacian may differ in final float bits.
//! The bit-identical contract is therefore stated (and tested) for
//! byte-identical graph inputs; cross-relabeling reuse trades exact
//! numbering fidelity for amortization, deliberately.

use crate::analysis::{
    analysis_body, parse_analyze, parse_graph_doc, parse_request_json, parse_spec, AnalyzeSpec,
};
use crate::cache::{CacheConfig, SessionCache};
use crate::http::{ConnectionLimits, IDLE_TIMEOUT, MAX_REQUESTS_PER_CONNECTION};
use crate::skeleton::{
    Counters, Exchange, HttpServer, Listen, PathMatch, Report, Route, SlowLogConfig, Tier,
};
use graphio_graph::json::{JsonValue, RequestDoc};
use graphio_graph::{CompGraph, Fingerprint, FingerprintMemo, Memo};
use graphio_linalg::stats::{
    dense_eigensolve_count, scalar_fallback_count, simd_kernel_call_count, sparse_eigensolve_count,
    sparse_matvec_count,
};
use graphio_obs::recorder::{self, CacheOutcome};
use graphio_spectral::OwnedAnalyzer;
use graphio_store::{load_session, save_session, Store, StoreConfig, StoreStats};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::analysis::MAX_BATCH_GRAPHS;

/// Where (and how) the server persists analysis sessions
/// (`graphio serve --store DIR`). See `graphio_store` for the on-disk
/// format; the service treats the store strictly as a second cache tier:
/// the index warm-loads at boot, RAM misses back-fill from disk (a store
/// hit performs **zero** eigensolves), completed analyses write through,
/// and graceful shutdown flushes a compacted snapshot.
#[derive(Debug, Clone)]
pub struct PersistenceConfig {
    /// Store directory (created if missing).
    pub dir: PathBuf,
    /// Segment-log sizing (byte budget, segment roll size).
    pub store: StoreConfig,
}

impl PersistenceConfig {
    /// Default store sizing in `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> PersistenceConfig {
        PersistenceConfig {
            dir: dir.into(),
            store: StoreConfig::default(),
        }
    }
}

/// Where a request's session came from, for the `X-Graphio-Session`
/// response header: `hit` (RAM), `store` (disk back-fill — the warm
/// restart path), `miss` (computed fresh this request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionSource {
    Ram,
    Disk,
    Fresh,
}

impl SessionSource {
    fn header(self) -> &'static str {
        match self {
            SessionSource::Ram => "hit",
            SessionSource::Disk => "store",
            SessionSource::Fresh => "miss",
        }
    }
}

/// Server sizing and binding knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind host (default loopback).
    pub host: String,
    /// Bind port; `0` asks the OS for an ephemeral port (read it back
    /// from [`Server::addr`]).
    pub port: u16,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue depth between the acceptor and the workers.
    pub queue_capacity: usize,
    /// How long a keep-alive connection may idle between requests before
    /// the server closes it (default [`IDLE_TIMEOUT`]).
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (default [`MAX_REQUESTS_PER_CONNECTION`]; clamped to ≥ 1).
    pub max_requests_per_connection: usize,
    /// Session-cache sizing.
    pub cache: CacheConfig,
    /// Persistent session store (`None` keeps the cache RAM-only).
    pub store: Option<PersistenceConfig>,
    /// Slow-request logging (`None` disables it).
    pub slow_log: Option<SlowLogConfig>,
    /// Persistent trace store (`--trace-store DIR`): pinned flight-
    /// recorder records (slow and error traces) write through here so the
    /// last interesting traces survive a crash or restart. `None` keeps
    /// the recorder RAM-only.
    pub trace_store: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_capacity: 256,
            idle_timeout: IDLE_TIMEOUT,
            max_requests_per_connection: MAX_REQUESTS_PER_CONNECTION,
            cache: CacheConfig::default(),
            store: None,
            slow_log: None,
            trace_store: None,
        }
    }
}

/// What an answered `/analyze` body resolved to: its session's
/// fingerprint, its validated spec and the spec's warnings. Every part is
/// a fixed function of the body's bytes.
#[derive(Debug)]
pub(crate) struct Resolution {
    fp: Fingerprint,
    spec: AnalyzeSpec,
    warnings: Vec<String>,
}

/// The most spec bytes (memory sizes plus warning text) a body-memo entry
/// may hold. A body's memory list has no length limit, and each duplicate
/// size adds a warning, so a larger resolution is answered by the full
/// path every time rather than kept: with it the memo's heap stays under
/// ≈5 MB at [`graphio_graph::MEMO_CAPACITY`] entries (≈1.1 KB each, with
/// allocation headers).
const RESOLUTION_BYTES: usize = 512;

impl Resolution {
    /// Heap bytes of the spec's memories and warnings.
    fn spec_bytes(&self) -> usize {
        let warnings: usize = self.warnings.iter().map(String::len).sum();
        self.spec.memories.len() * std::mem::size_of::<usize>() + warnings
    }
}

/// The service tier's state: the session cache and its store.
pub struct ServiceState {
    pub(crate) cache: SessionCache,
    /// `/analyze` body bytes → what they resolved to, so a repeated body
    /// skips the decode, the graph build and the content key.
    pub(crate) body_memo: Memo<Arc<Resolution>>,
    /// Labelled graph → fingerprint, so a repeated inline graph skips
    /// Weisfeiler–Leman refinement.
    pub(crate) fp_memo: FingerprintMemo,
    /// The persistent second cache tier, if configured.
    pub(crate) store: Option<Arc<Store>>,
    /// Per-fingerprint mark of the session state last persisted (the
    /// session's cumulative `spectrum_misses + mincut_misses +
    /// sim_misses` — exactly the count of artifacts
    /// computed locally). A hot session serving pure cache hits matches
    /// its mark, so steady-state requests skip the whole
    /// encode-then-discover-identical path, not just the disk append.
    pub(crate) persist_marks: std::sync::Mutex<std::collections::HashMap<u128, u64>>,
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
}

/// A running analysis server. Dropping the handle shuts it down.
pub type Server = HttpServer<ServiceState>;

/// Binds and starts serving in background threads, returning immediately.
///
/// # Errors
/// Propagates bind and store-open failures.
pub fn serve(config: &ServiceConfig) -> io::Result<Server> {
    // Opening the store *is* the boot-time index warm-load: every segment
    // is scanned (recovering past any torn tail) before the first request
    // is accepted, so fingerprint lookups can back-fill from disk
    // immediately.
    let store = config
        .store
        .as_ref()
        .map(|p| Store::open(&p.dir, p.store.clone()))
        .transpose()?
        .map(Arc::new);
    let state = Arc::new(ServiceState {
        cache: SessionCache::new(&config.cache),
        body_memo: Memo::new(),
        fp_memo: FingerprintMemo::new(),
        store,
        persist_marks: std::sync::Mutex::new(std::collections::HashMap::new()),
        workers: config.workers.max(1),
        queue_capacity: config.queue_capacity.max(1),
    });
    let listen = Listen {
        host: &config.host,
        port: config.port,
        workers: config.workers,
        queue_capacity: config.queue_capacity,
        limits: ConnectionLimits {
            idle_timeout: config.idle_timeout,
            max_requests: config.max_requests_per_connection,
        },
        slow_log: config.slow_log.as_ref(),
        trace_store: config.trace_store.as_deref(),
    };
    HttpServer::start(&listen, state)
}

impl ServiceState {
    /// Point-in-time session-cache counters (also served as `GET /stats`).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Point-in-time store counters, when persistence is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }
}

impl Tier for ServiceState {
    const NAME: &'static str = "service";
    const BUSY: &'static str = "server busy";
    const ROUTES: &'static [Route<Self>] = &[
        Route::new("POST", PathMatch::Exact("/graphs"), handle_graphs),
        Route::new("POST", PathMatch::Exact("/analyze"), handle_analyze),
        Route::new("POST", PathMatch::Exact("/batch"), handle_batch),
    ];

    fn healthz(&self) -> JsonValue {
        let num = |v: usize| JsonValue::Number(v as f64);
        JsonValue::Object(vec![
            ("status".to_string(), JsonValue::String("ok".to_string())),
            ("workers".to_string(), num(self.workers)),
            ("queue_capacity".to_string(), num(self.queue_capacity)),
            ("sessions".to_string(), num(self.cache.len())),
        ])
    }

    /// The request counters at the top level, then the `cache`, `store`,
    /// `engine`, `body_memo`, `fingerprint_memo`, `linalg` and `process`
    /// sections.
    fn report(&self, counters: &Counters, out: &mut Report) {
        counters.report(out);
        let cache = self.cache.stats();
        out.section("cache", |out| {
            out.gauge("sessions", cache.sessions as f64);
            out.gauge("bytes", cache.bytes as f64);
            out.stat("shard_bytes", || {
                let bytes = cache.shard_bytes.iter();
                JsonValue::Array(bytes.map(|&b| JsonValue::Number(b as f64)).collect())
            });
            out.counter("hits", cache.hits);
            out.counter("misses", cache.misses);
            out.counter("evictions", cache.evictions);
        });
        out.section("store", |out| {
            out.flag("enabled", self.store.is_some());
            let Some(s) = self.store_stats() else {
                return;
            };
            out.gauge("records", s.records as f64);
            out.gauge("segments", s.segments as f64);
            out.gauge("bytes_on_disk", s.bytes_on_disk as f64);
            out.gauge("live_bytes", s.live_bytes as f64);
            out.counter("hits", s.hits);
            out.counter("misses", s.misses);
            out.counter("puts", s.puts);
            out.counter("put_skips", s.put_skips);
            out.counter("evictions", s.evictions);
            out.counter("compactions", s.compactions);
            out.stat("last_compaction_unix", || {
                s.last_compaction_unix
                    .map_or(JsonValue::Null, |t| JsonValue::Number(t as f64))
            });
        });
        let e = cache.engine;
        out.section("engine", |out| {
            out.hits_misses("spectrum", e.spectrum_hits, e.spectrum_misses);
            out.hits_misses("mincut", e.mincut_hits, e.mincut_misses);
            out.hits_misses("sim", e.sim_hits, e.sim_misses);
        });
        out.memo("body_memo", self.body_memo.stats());
        out.memo("fingerprint_memo", self.fp_memo.stats());
        out.section("linalg", |out| {
            out.counter("dense_eigensolves", dense_eigensolve_count());
            out.counter("sparse_matvecs", sparse_matvec_count());
            out.counter("simd_kernel_calls", simd_kernel_call_count());
            out.counter("scalar_fallbacks", scalar_fallback_count());
            out.counter("scale_tier_solves", sparse_eigensolve_count());
        });
        out.process();
    }

    /// Part of the graceful drain: once no worker can be mid-analysis,
    /// flush a compacted snapshot so the next boot scans one tight
    /// segment. Best-effort — the log was already flushed record-by-
    /// record at write-through time, so a failure here costs compactness,
    /// not data.
    fn drain(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.snapshot() {
                eprintln!("graphio-store: shutdown snapshot failed: {e}");
            }
        }
    }
}

fn handle_graphs(state: &Arc<ServiceState>, ex: &mut Exchange<'_>) {
    let result = parse_request_json(&ex.request.body).and_then(parse_graph_doc);
    let graph = match result {
        Ok(g) => g,
        Err(msg) => return ex.fail(400, &msg),
    };
    let (n, edges) = (graph.n(), graph.num_edges());
    let (analyzer, fp, source) = session_for_graph(state, graph);
    // Persist the registration (a graph-only record when the session is
    // new): after a restart the fingerprint resolves from disk instead of
    // requiring re-registration.
    write_through(state, fp, &analyzer);
    let doc = JsonValue::Object(vec![
        ("fingerprint".to_string(), JsonValue::String(fp.to_hex())),
        ("n".to_string(), JsonValue::Number(n as f64)),
        ("edges".to_string(), JsonValue::Number(edges as f64)),
        (
            "cached".to_string(),
            JsonValue::Bool(source != SessionSource::Fresh),
        ),
    ]);
    ex.ok_json(Vec::new(), &doc);
}

/// A resolved session: the analyzer, its fingerprint, and where it came
/// from.
type Resolved = (Arc<OwnedAnalyzer>, Fingerprint, SessionSource);

/// Attempts the disk tier after a RAM miss: a stored session is decoded,
/// its spectra/min-cut caches imported, and the result back-filled into
/// the RAM cache (so the next request is a plain RAM hit). Undecodable
/// or unreadable records are treated as absent — the store is a cache of
/// recomputable artifacts, so the worst case of corruption is paying the
/// eigensolve again, never failing the request.
fn session_from_store(state: &Arc<ServiceState>, fp: Fingerprint) -> Option<Arc<OwnedAnalyzer>> {
    let store = state.store.as_ref()?;
    match load_session(store, fp) {
        Ok(Some(analyzer)) => Some(state.cache.insert_if_absent(fp, analyzer).0),
        Ok(None) => None,
        Err(e) => {
            eprintln!("graphio-store: ignoring unreadable record for {fp}: {e}");
            None
        }
    }
}

/// Persists `analyzer`'s current artifacts under `fp`. Two skip tiers:
/// the persist-mark map short-circuits before any encoding when the
/// session has computed nothing since its last save (the steady state —
/// a warm session would otherwise pay an O(n + m + h) serialization per
/// request just to discover the bytes are unchanged), and the store's
/// own CRC comparison de-duplicates whatever gets past the mark (e.g.
/// racing workers). Best-effort: a full disk must not fail the analysis
/// that already succeeded.
fn write_through(state: &ServiceState, fp: Fingerprint, analyzer: &OwnedAnalyzer) {
    let Some(store) = &state.store else {
        return;
    };
    let s = analyzer.stats();
    // sim_misses counts a newly simulated memory size, so it is saved
    // once, not on every hit.
    let mark = s.spectrum_misses + s.mincut_misses + s.sim_misses;
    {
        let marks = state.persist_marks.lock().expect("persist marks lock");
        // The mark alone is not enough: the store's byte budget may have
        // evicted this record since we last saved it, and a hot session
        // whose mark never moves would then stay unpersisted forever —
        // losing warm restarts for exactly the hottest entries. The
        // `contains` index probe keeps the skip honest.
        if marks.get(&fp.0) == Some(&mark) && store.contains(fp) {
            return;
        }
    }
    match save_session(store, fp, analyzer) {
        Ok(_) => {
            let mut marks = state.persist_marks.lock().expect("persist marks lock");
            // Far above any plausible live set; a clear only costs one
            // redundant encode per fingerprint.
            if marks.len() > 1 << 20 {
                marks.clear();
            }
            marks.insert(fp.0, mark);
        }
        Err(e) => eprintln!("graphio-store: write-through for {fp} failed: {e}"),
    }
}

/// Tells the flight recorder which session this request resolved and
/// how it was obtained — the `X-Graphio-Fingerprint` /
/// `X-Graphio-Session` headers' information, queryable after the fact
/// via `GET /trace/{id}`.
fn annotate_session(fp: Fingerprint, source: SessionSource) {
    recorder::annotate_fingerprint(fp.0);
    recorder::annotate_outcome(match source {
        SessionSource::Ram => CacheOutcome::Hit,
        SessionSource::Disk => CacheOutcome::Store,
        SessionSource::Fresh => CacheOutcome::Miss,
    });
}

/// The cached session for `fp`: RAM first, then the persistent store
/// (the warm-restart path), under one `session_lookup` span.
fn cached_session(
    state: &Arc<ServiceState>,
    fp: Fingerprint,
) -> Option<(Arc<OwnedAnalyzer>, SessionSource)> {
    let _span = graphio_obs::span!("session_lookup");
    if let Some(analyzer) = state.cache.get(fp) {
        return Some((analyzer, SessionSource::Ram));
    }
    session_from_store(state, fp).map(|analyzer| (analyzer, SessionSource::Disk))
}

/// Resolves the session for a request that carried a full graph:
/// fingerprint (memoized per labelled graph), then RAM → disk → fresh.
/// Exactly one hit-or-miss counter moves (in [`SessionCache::get`]); the
/// back-fill inserts are counter-silent.
fn session_for_graph(state: &Arc<ServiceState>, graph: CompGraph) -> Resolved {
    let fp = {
        let _span = graphio_obs::span!("fingerprint");
        state.fp_memo.fingerprint(&graph)
    };
    if let Some((analyzer, source)) = cached_session(state, fp) {
        return (analyzer, fp, source);
    }
    fresh_session(state, fp, graph)
}

/// A new session for `graph` under `fp`, which neither RAM nor the store
/// held when looked up (counter-silent, like the back-fill).
fn fresh_session(state: &Arc<ServiceState>, fp: Fingerprint, graph: CompGraph) -> Resolved {
    let (analyzer, raced) = state
        .cache
        .insert_if_absent(fp, OwnedAnalyzer::from_graph(graph));
    // A racing request may have inserted between our get and insert;
    // either way the session exists now and this request computes (or
    // shares) the analysis.
    let source = if raced {
        SessionSource::Ram
    } else {
        SessionSource::Fresh
    };
    (analyzer, fp, source)
}

/// Resolves a fingerprint hex string to its session: RAM first, then the
/// persistent store (the warm-restart path — a fingerprint analyzed
/// before the last restart back-fills from disk instead of 404ing).
fn lookup_session(hex: &str, state: &Arc<ServiceState>) -> Result<Resolved, (u16, String)> {
    let fp = Fingerprint::from_hex(hex)
        .ok_or_else(|| (400, format!("malformed fingerprint {hex:?}")))?;
    cached_session(state, fp)
        .map(|(analyzer, source)| (analyzer, fp, source))
        .ok_or_else(|| no_session(hex))
}

/// The 404 for a fingerprint with no session in RAM or the store.
fn no_session(hex: &str) -> (u16, String) {
    let msg = format!("no session for fingerprint {hex} (register via POST /graphs)");
    (404, msg)
}

/// The session an `/analyze` document names: its inline
/// `"graph"` (which wins) or its `"fingerprint"`. `absent` is the
/// fingerprint a body-memo hit already looked up in vain; the document
/// resolves to it, so neither lookup runs (or counts) twice.
fn resolve_session(
    doc: RequestDoc<'_>,
    state: &Arc<ServiceState>,
    absent: Option<Fingerprint>,
) -> Result<Resolved, (u16, String)> {
    if doc.graph.is_some() {
        let graph = parse_graph_doc(doc).map_err(|m| (400, m))?;
        return Ok(match absent {
            Some(fp) => fresh_session(state, fp, graph),
            None => session_for_graph(state, graph),
        });
    }
    let hex = doc
        .rest
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| (400, "need \"graph\" or \"fingerprint\"".to_string()))?;
    match absent {
        Some(_) => Err(no_session(hex)),
        None => lookup_session(hex, state),
    }
}

/// [`analysis_body`] under the `serialize` span: on a warm session the
/// bound arithmetic and the document bytes, on a cold one the solver
/// phases too, nested beneath it.
fn serialize(analyzer: &OwnedAnalyzer, spec: &AnalyzeSpec) -> String {
    let _span = graphio_obs::span!("serialize");
    analysis_body(analyzer, spec)
}

/// Persists what an analysis grew in the session (fresh spectra/min-cut
/// sweeps, simulations), then re-checks the shard's byte
/// budget now that the growth is visible, under one `persist` span.
fn persist(state: &ServiceState, fp: Fingerprint, analyzer: &OwnedAnalyzer) {
    let _span = graphio_obs::span!("persist");
    write_through(state, fp, analyzer);
    state.cache.enforce_budget(fp);
}

/// `POST /analyze`. A body byte-identical to one answered before has the
/// same answer, so the body memo maps its bytes straight to its
/// [`Resolution`]: a hit goes to the session without decoding anything.
/// Only a body that resolved to a session is memoized, so every error
/// (and which error wins) comes from the full path below.
fn handle_analyze(state: &Arc<ServiceState>, ex: &mut Exchange<'_>) {
    let (key, memoized) = {
        let _span = graphio_obs::span!("body_memo");
        let key = state.body_memo.bytes_key(&ex.request.body);
        (key, state.body_memo.get(key))
    };
    let mut absent = None;
    if let Some(known) = memoized {
        match cached_session(state, known.fp) {
            Some((analyzer, source)) => return answer(state, ex, analyzer, source, &known),
            // Evicted from RAM and absent from the store: the full path
            // rebuilds the session from the body.
            None => absent = Some(known.fp),
        }
    }
    // Validation order: body JSON, then the spec, then the session.
    let parsed = parse_analyze(&ex.request.body).and_then(|(doc, spec, warnings)| {
        let (analyzer, fp, source) = resolve_session(doc, state, absent)?;
        Ok((analyzer, source, Resolution { fp, spec, warnings }))
    });
    let (analyzer, source, known) = match parsed {
        Ok(parsed) => parsed,
        Err((status, msg)) => return ex.fail(status, &msg),
    };
    let known = Arc::new(known);
    if known.spec_bytes() <= RESOLUTION_BYTES {
        state.body_memo.insert(key, Arc::clone(&known));
    }
    answer(state, ex, analyzer, source, &known);
}

/// Answers an `/analyze` resolved to `analyzer`: the session's document
/// for the spec (stored per session, [`SessionCache::document`]) and the
/// metadata headers under the `serialize` span, then persist and respond.
fn answer(
    state: &Arc<ServiceState>,
    ex: &mut Exchange<'_>,
    analyzer: Arc<OwnedAnalyzer>,
    source: SessionSource,
    known: &Resolution,
) {
    let fp = known.fp;
    annotate_session(fp, source);
    let (body, extra) = {
        let _span = graphio_obs::span!("serialize");
        let spec = &known.spec;
        let body = state
            .cache
            .document(fp, &analyzer, spec, || analysis_body(&analyzer, spec));
        let mut extra = vec![
            ("X-Graphio-Fingerprint", fp.to_hex()),
            ("X-Graphio-Session", source.header().to_string()),
        ];
        if !known.warnings.is_empty() {
            extra.push(("X-Graphio-Warnings", known.warnings.join("; ")));
        }
        (body, extra)
    };
    persist(state, fp, &analyzer);
    ex.counters().analyze_ok.fetch_add(1, Ordering::Relaxed);
    ex.ok(extra, &body);
}

/// `POST /batch`: `{"graphs": [...], "memories": [...], "processors"?,
/// "no_sim"?}` — one sweep spec fanned across many graphs. Each element
/// of `graphs` is a graph document (`{"graph": ...}` or a bare edge
/// list) or a fingerprint hex string for an already-registered session.
///
/// The response body is *exactly* the concatenation of the `N`
/// individual `POST /analyze` bodies for the same graphs and spec — the
/// batch endpoint amortizes connection, parse and dispatch cost without
/// perturbing a single byte of the analysis documents (property-tested
/// in the integration suite and diffed in CI).
fn handle_batch(state: &Arc<ServiceState>, ex: &mut Exchange<'_>) {
    let parsed = parse_request_json(&ex.request.body)
        .map_err(|m| (400, m))
        .and_then(|mut doc| {
            let entries = crate::analysis::validate_batch_entries(&mut doc)?;
            let (spec, warnings) = parse_spec(&doc.rest)?;
            // Resolve every entry before running anything: a batch with a bad
            // graph fails whole, like N requests where one would 400.
            let mut items = Vec::with_capacity(entries.len());
            let mut hits = Vec::with_capacity(entries.len());
            for (i, entry) in entries.into_iter().enumerate() {
                let (analyzer, fp, source) = if let Some(hex) = entry.doc.rest.as_str() {
                    lookup_session(hex, state).map_err(|(s, m)| (s, format!("graphs[{i}]: {m}")))?
                } else {
                    let graph = parse_graph_doc(entry.doc)
                        .map_err(|m| (400, format!("graphs[{i}]: {m}")))?;
                    session_for_graph(state, graph)
                };
                items.push((analyzer, fp));
                hits.push(source.header());
            }
            Ok((items, hits, spec, warnings))
        });
    let (items, hits, spec, warnings) = match parsed {
        Ok(p) => p,
        Err((status, msg)) => return ex.fail(status, &msg),
    };

    let count = items.len();
    let spec = Arc::new(spec);
    let scatter_state = Arc::clone(state);
    let gather_started = Instant::now();
    let bodies = ex.pool().scatter(
        items,
        move |(analyzer, fp): (Arc<OwnedAnalyzer>, Fingerprint)| {
            let body = serialize(&analyzer, &spec);
            persist(&scatter_state, fp, &analyzer);
            body
        },
    );
    let mut body = String::new();
    for sub in &bodies {
        match sub {
            Some(s) => body.push_str(s),
            None => return ex.fail(500, "batch sub-analysis panicked"),
        }
    }
    let counters = ex.counters();
    counters
        .analyze_ok
        .fetch_add(count as u64, Ordering::Relaxed);
    counters.batch_ok.fetch_add(1, Ordering::Relaxed);
    let mut extra = vec![
        ("X-Graphio-Batch", count.to_string()),
        ("X-Graphio-Session", hits.join(",")),
    ];
    if !warnings.is_empty() {
        extra.push(("X-Graphio-Warnings", warnings.join("; ")));
    }
    // For a batch, "elapsed" means the scatter/gather wall time — the
    // part that amortizes — not body assembly.
    ex.ok_gathered(extra, gather_started, &body);
}
