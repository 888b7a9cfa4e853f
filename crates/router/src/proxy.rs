//! The router server: accept loop → worker pool → affinity routing with
//! failover.
//!
//! ```text
//!                        ┌────────────────────────┐
//!   client ──POST /analyze──▶ fingerprint locally │
//!                        │   (or hash pass-through)│
//!                        └───────────┬────────────┘
//!                                    ▼
//!                       consistent-hash ring (fp → owner)
//!                                    │ owner ejected / connect fail / 503
//!                                    ▼
//!                        next distinct replica clockwise …
//! ```
//!
//! The affinity invariant: the backend a fingerprint routes to is a pure
//! function of (backend set, health states, fingerprint) — so every
//! repeat of a graph lands on the backend that already holds its session
//! (RAM or store tier), and the cluster's aggregate hit rate matches a
//! single node's.
//!
//! ## Forwarding policy
//!
//! * `POST /analyze` — the router computes the WL fingerprint locally for
//!   inline-graph bodies and reads it from fingerprint-only bodies, then
//!   forwards the body **byte-untouched** to the owner: the owner's
//!   cache and store see exactly the keys they would see single-node.
//!   Bodies the router cannot key (invalid JSON, invalid graph, missing
//!   both fields) are forwarded to a deterministic fallback backend,
//!   which reproduces the single-node error bytes — including the
//!   validation *order* (spec errors before graph errors) — without the
//!   router duplicating any wording.
//! * `POST /batch` — split by owner, scattered, reassembled byte-exactly
//!   (see [`crate::batch`]).
//! * `POST /analyze` with `"mode":"compose"` and an inline graph — the
//!   one body the router does *not* forward whole: it decomposes the
//!   graph locally, scatters each distinct component to its ring-affine
//!   backend as a `POST /component`, and folds the gathered spectra into
//!   the exact compose document a single node would emit — one huge
//!   analyze parallelizes across the fleet while every component still
//!   lands on the backend that already caches its session.
//!   Fingerprint-only compose bodies pass through whole (the owner holds
//!   the session; the router cannot decompose a graph it does not have).
//! * `POST /graphs` — keyed like an inline analyze and passed through.
//! * Failover: connect failure or 503 ejects the backend (503 ejects for
//!   exactly the `Retry-After` the backend asked) and the request moves
//!   to the next distinct replica clockwise. Ejected backends are
//!   skipped while any healthy replica remains, and become last-resort
//!   candidates when none does.

use crate::batch::{batch_body, gather, remap_blame, split, split_bodies, Group};
use crate::ring::Ring;
use crate::upstream::Upstream;
use graphio_graph::json::JsonValue;
use graphio_graph::{fingerprint, DecomposeOptions, Fingerprint, FingerprintMemo};
use graphio_obs::recorder;
use graphio_service::analysis::{
    component_from_doc, compose_doc, parse_graph_doc, parse_request_json, parse_spec,
    validate_batch_entries,
};
use graphio_service::client::Response;
use graphio_service::http::{
    reason, respond_error, respond_error_with, serve_connection, write_response,
    write_response_typed, ConnectionLimits, Request, IDLE_TIMEOUT, IO_TIMEOUT,
    MAX_REQUESTS_PER_CONNECTION, READ_TIMEOUT,
};
use graphio_service::pool::{SubmitError, WorkerPool};
use graphio_service::{
    fingerprint_memo_doc, parse_traces_query, render_fingerprint_memo, traced_request, SlowLog,
    SlowLogConfig,
};
use graphio_spectral::{ComponentAnalysis, ComposePlan};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router sizing and binding knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind host (default loopback).
    pub host: String,
    /// Bind port; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Backend addresses (`host:port`).
    pub backends: Vec<String>,
    /// Virtual replicas per backend on the ring.
    pub replicas: usize,
    /// Worker threads handling client connections.
    pub workers: usize,
    /// Bounded queue depth between the acceptor and the workers.
    pub queue_capacity: usize,
    /// Active health-check cadence.
    pub health_interval: Duration,
    /// Keep-alive idle deadline for client connections.
    pub idle_timeout: Duration,
    /// Requests per client connection before close.
    pub max_requests_per_connection: usize,
    /// Slow-request logging: any request whose wall time reaches the
    /// threshold dumps its router-side phase tree as one JSON line.
    pub slow_log: Option<SlowLogConfig>,
}

impl RouterConfig {
    /// Defaults over the given backends.
    pub fn over(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            backends,
            replicas: crate::ring::DEFAULT_REPLICAS,
            workers: 4,
            queue_capacity: 256,
            health_interval: Duration::from_millis(500),
            idle_timeout: IDLE_TIMEOUT,
            max_requests_per_connection: MAX_REQUESTS_PER_CONNECTION,
            slow_log: None,
        }
    }
}

/// Shared router state.
pub(crate) struct RouterState {
    pub(crate) ring: Ring,
    pub(crate) upstreams: Vec<Upstream>,
    /// Labelled graph → fingerprint for routing inline graphs, so a
    /// repeated graph skips Weisfeiler–Leman refinement here too.
    pub(crate) fp_memo: FingerprintMemo,
    pub(crate) requests: AtomicU64,
    pub(crate) analyze_ok: AtomicU64,
    pub(crate) batch_ok: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) started: Instant,
    pub(crate) slow_log: Option<SlowLog>,
}

impl RouterState {
    /// Failover order for `fp` under current health: the ring sequence
    /// with healthy backends first (in ring order), ejected ones demoted
    /// to last-resort — a router degrades to *trying*, never to refusing
    /// while any backend might answer.
    fn candidates(&self, fp: Fingerprint) -> Vec<usize> {
        let sequence = self.ring.sequence(fp);
        let (healthy, ejected): (Vec<usize>, Vec<usize>) = sequence
            .into_iter()
            .partition(|&b| self.upstreams[b].is_healthy());
        healthy.into_iter().chain(ejected).collect()
    }

    /// Forwards to the fingerprint's replica sequence until a backend
    /// answers with something other than a connect failure or 503.
    /// Returns the final 503 when every candidate backpressures (the
    /// honest single-node behavior), or `Err` when no backend answered
    /// at all.
    fn forward_with_failover(
        &self,
        fp: Fingerprint,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace: Option<u128>,
    ) -> Result<(Response, usize), (u16, String)> {
        // Propagate the router's trace ID to the backend so its phase
        // tree (and slow-log line) joins the router's trace. Passed in
        // explicitly because batch scatter runs on scoped threads, which
        // do not inherit the request-context thread-local.
        let extra: Vec<(&str, String)> = trace
            .map(|t| vec![("X-Graphio-Trace", graphio_obs::trace_hex(t))])
            .unwrap_or_default();
        let mut last_503: Option<(Response, usize)> = None;
        let candidates = self.candidates(fp);
        let total = candidates.len();
        for (attempt, b) in candidates.into_iter().enumerate() {
            let up = &self.upstreams[b];
            // "Retried away" means the request actually moved on: the
            // last candidate's failure is *returned*, not retried, so it
            // must not inflate the counter.
            let has_next = attempt + 1 < total;
            match up.forward(method, path, body, &extra) {
                Ok(r) if r.status == 503 => {
                    let backoff = r
                        .header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs);
                    up.mark_failure(backoff);
                    if has_next {
                        up.retries.fetch_add(1, Ordering::Relaxed);
                    }
                    last_503 = Some((r, b));
                }
                Ok(r) => {
                    up.mark_success();
                    return Ok((r, b));
                }
                Err(_) => {
                    up.mark_failure(None);
                    if has_next {
                        up.retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        match last_503 {
            Some(ok) => Ok(ok),
            None => Err((503, "no backend available".to_string())),
        }
    }
}

/// A running router. Dropping the handle shuts it down.
pub struct RouterServer {
    addr: SocketAddr,
    state: Arc<RouterState>,
    pool: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    acceptor: std::sync::Mutex<Option<JoinHandle<()>>>,
    health: std::sync::Mutex<Option<JoinHandle<()>>>,
}

/// Binds the router and starts serving in background threads.
///
/// # Errors
/// Propagates bind failures; rejects an empty backend list.
pub fn serve_router(config: &RouterConfig) -> io::Result<RouterServer> {
    if config.backends.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one backend",
        ));
    }
    // Serving turns span collection on process-wide, exactly like the
    // analysis server: the router records per-endpoint request
    // histograms for `GET /metrics` and per-request phase trees for the
    // slow log — and its own flight recorder, so `GET /trace/{id}`
    // answers with the router-side tree joined to the backends'.
    recorder::attach(recorder::DEFAULT_CAPACITY);
    graphio_obs::set_enabled(true);
    // Same second switch as the analysis server: under the CLI's counting
    // allocator this attributes router-side allocations (body buffers,
    // scatter/gather assembly) to their phases; without it, it's inert.
    graphio_obs::alloc::set_enabled(true);
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let ring = Ring::new(&config.backends, config.replicas);
    let upstreams = ring
        .backends()
        .iter()
        .map(|a| Upstream::new(a))
        .collect::<Vec<_>>();
    let state = Arc::new(RouterState {
        ring,
        upstreams,
        fp_memo: FingerprintMemo::new(),
        requests: AtomicU64::new(0),
        analyze_ok: AtomicU64::new(0),
        batch_ok: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        started: Instant::now(),
        slow_log: config.slow_log.as_ref().map(SlowLog::open).transpose()?,
    });
    let pool = Arc::new(WorkerPool::new(config.workers, config.queue_capacity));
    let stop = Arc::new(AtomicBool::new(false));

    let limits = ConnectionLimits {
        idle_timeout: config.idle_timeout,
        max_requests: config.max_requests_per_connection,
    };
    let acceptor = {
        let state = Arc::clone(&state);
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("graphio-router-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &state, &pool, &stop, limits))
            .expect("spawn router acceptor")
    };
    let health = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let interval = config.health_interval;
        std::thread::Builder::new()
            .name("graphio-router-health".to_string())
            .spawn(move || health_loop(&state, &stop, interval))
            .expect("spawn router health checker")
    };

    Ok(RouterServer {
        addr,
        state,
        pool,
        stop,
        acceptor: std::sync::Mutex::new(Some(acceptor)),
        health: std::sync::Mutex::new(Some(health)),
    })
}

impl RouterServer {
    /// The bound address (resolves `port: 0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port`, ready to hand to a client.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The backend that currently owns `fp` (healthy or not), by address.
    pub fn owner_of(&self, fp: Fingerprint) -> Option<&str> {
        self.state
            .ring
            .owner(fp)
            .map(|b| self.state.upstreams[b].addr())
    }

    /// Stops accepting, joins all threads. Idempotent; callable from any
    /// thread.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.lock().expect("acceptor lock").take() {
            let _ = h.join();
        }
        if let Some(h) = self.health.lock().expect("health lock").take() {
            let _ = h.join();
        }
        self.pool.shutdown();
    }

    /// Blocks until [`RouterServer::shutdown`] is called from another
    /// thread (the CLI's foreground mode).
    pub fn join(&self) {
        let handle = self.acceptor.lock().expect("acceptor lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        if let Some(h) = self.health.lock().expect("health lock").take() {
            let _ = h.join();
        }
        self.pool.shutdown();
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<RouterState>,
    pool: &Arc<WorkerPool>,
    stop: &AtomicBool,
    limits: ConnectionLimits,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let cell = Arc::new(std::sync::Mutex::new(Some(stream)));
        let job_cell = Arc::clone(&cell);
        let job_state = Arc::clone(state);
        let submitted = pool.submit(move || {
            if let Some(stream) = job_cell.lock().expect("stream cell").take() {
                handle_connection(stream, &job_state, limits);
            }
        });
        match submitted {
            Ok(()) => {}
            Err(SubmitError::Full) => {
                if let Some(mut stream) = cell.lock().expect("stream cell").take() {
                    let body = b"{\"error\":\"router busy, retry later\"}\n";
                    let _ = write_response(
                        &mut stream,
                        503,
                        reason(503),
                        false,
                        &[("Retry-After", "1".to_string())],
                        body,
                    );
                }
            }
            Err(SubmitError::ShuttingDown) => return,
        }
    }
}

/// Active health checking: probe every backend on the cadence — ejected
/// backends only once their backoff elapses, so a dead backend costs one
/// connect attempt per backoff period, not per interval. The first round
/// runs one interval *after* boot (backends start optimistically
/// healthy; the request path discovers failures immediately either way).
fn health_loop(state: &Arc<RouterState>, stop: &AtomicBool, interval: Duration) {
    loop {
        // Sleep in short slices so shutdown stays prompt.
        let mut remaining = interval;
        while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
            let step = remaining.min(Duration::from_millis(50));
            std::thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        for up in &state.upstreams {
            if up.due_for_probe() {
                up.probe();
            }
        }
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<RouterState>, limits: ConnectionLimits) {
    serve_connection(
        stream,
        &limits,
        |stream, request, keep| {
            state.requests.fetch_add(1, Ordering::Relaxed);
            traced_request(
                request,
                &request.path,
                state.slow_log.as_ref(),
                None,
                || {
                    route(stream, request, state, keep);
                },
            );
        },
        |_| {
            state.errors.fetch_add(1, Ordering::Relaxed);
        },
    );
}

fn route(stream: &mut TcpStream, request: &Request, state: &Arc<RouterState>, keep: bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(stream, state, keep),
        ("GET", "/stats") => handle_stats(stream, state, keep),
        ("GET", "/metrics") => handle_metrics(stream, state, keep),
        ("GET", p) if p.starts_with("/trace/") => handle_trace(stream, request, state, keep),
        ("GET", p) if p == "/traces" || p.starts_with("/traces?") => {
            handle_traces(stream, request, state, keep)
        }
        ("GET", p) if p == "/debug/profile" || p.starts_with("/debug/profile?") => {
            handle_profile(stream, request, state, keep)
        }
        ("POST", "/analyze") => handle_passthrough(stream, request, state, keep, true),
        ("POST", "/graphs") => handle_passthrough(stream, request, state, keep, false),
        ("POST", "/batch") => handle_batch(stream, request, state, keep),
        ("GET" | "POST", _) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 404, keep, &format!("no route for {}", request.path));
        }
        _ => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(
                stream,
                405,
                keep,
                &format!("method {} not supported", request.method),
            );
        }
    }
}

/// A stable fallback key for bodies the router cannot fingerprint
/// (invalid JSON/graph, missing fields): hash the raw bytes so repeats of
/// the same malformed body at least hit the same backend, and forward —
/// the backend reproduces the single-node error bytes, in the single-node
/// validation order.
fn fallback_fp(body: &[u8]) -> Fingerprint {
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hi: u64 = 0x6c62_272e_07bb_0142;
    for &b in body {
        lo = (lo ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        hi = (hi ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_0163);
    }
    Fingerprint((u128::from(hi) << 64) | u128::from(lo))
}

/// The routing key of an analyze/graphs body, when it can be extracted.
/// Field precedence mirrors the server's `parse_analyze` exactly —
/// `"graph"` wins over `"fingerprint"` — so a body carrying both routes
/// to the backend that will actually cache the analysis. Inline graphs
/// are fingerprinted through `memo`.
fn route_key(doc: &JsonValue, is_analyze: bool, memo: &FingerprintMemo) -> Option<Fingerprint> {
    if is_analyze && doc.get("graph").is_none() {
        let hex = doc.get("fingerprint").and_then(JsonValue::as_str)?;
        return Fingerprint::from_hex(hex);
    }
    parse_graph_doc(doc).ok().map(|g| memo.fingerprint(&g))
}

/// Relays an upstream response to the client, preserving the
/// `X-Graphio-*` metadata and `Retry-After`, and naming the backend that
/// answered.
fn relay(stream: &mut TcpStream, response: &Response, backend: &str, keep: bool) {
    let mut extra: Vec<(&str, String)> = response
        .headers
        .iter()
        .filter(|(k, _)| k.starts_with("x-graphio-") || k == "retry-after")
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    extra.push(("X-Graphio-Backend", backend.to_string()));
    let _ = write_response(
        stream,
        response.status,
        reason(response.status),
        keep,
        &extra,
        response.body.as_bytes(),
    );
}

/// `POST /analyze` and `POST /graphs`: key, forward untouched, relay.
fn handle_passthrough(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<RouterState>,
    keep: bool,
    is_analyze: bool,
) {
    // The one validation the router must do itself: a client body that
    // is not UTF-8 cannot be forwarded through the text client (the
    // single node answers exactly this message).
    let Ok(text) = std::str::from_utf8(&request.body) else {
        state.errors.fetch_add(1, Ordering::Relaxed);
        respond_error(stream, 400, keep, "body is not UTF-8");
        return;
    };
    let parsed = graphio_graph::json::parse(text).ok();
    // Compose-mode analyzes with an inline graph scatter per component
    // instead of forwarding whole. Any other `"mode"` value (including
    // malformed ones) falls through so the backend produces the
    // single-node validation bytes.
    if is_analyze {
        if let Some(doc) = parsed.as_ref() {
            if doc.get("mode").and_then(JsonValue::as_str) == Some("compose")
                && doc.get("graph").is_some()
            {
                handle_compose(stream, doc, state, keep);
                return;
            }
        }
    }
    let fp = parsed
        .as_ref()
        .and_then(|doc| route_key(doc, is_analyze, &state.fp_memo))
        .unwrap_or_else(|| fallback_fp(&request.body));
    let trace = graphio_obs::current_trace_id();
    match state.forward_with_failover(fp, "POST", &request.path, Some(text), trace) {
        Ok((response, b)) => {
            if response.status == 200 && is_analyze {
                state.analyze_ok.fetch_add(1, Ordering::Relaxed);
            }
            if response.status >= 400 {
                state.errors.fetch_add(1, Ordering::Relaxed);
            }
            let addr = state.upstreams[b].addr().to_string();
            relay(stream, &response, &addr, keep);
        }
        Err((status, msg)) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error_with(
                stream,
                status,
                keep,
                &[("Retry-After", "1".to_string())],
                &msg,
            );
        }
    }
}

/// Fetches one component sub-analysis from the component fingerprint's
/// ring-affine backend (with failover). Returns the parsed analysis and
/// the backend index that answered.
fn fetch_component(
    state: &RouterState,
    fp: Fingerprint,
    body: &str,
    trace: Option<u128>,
) -> Result<(ComponentAnalysis, usize), (u16, String)> {
    let (response, backend) =
        state.forward_with_failover(fp, "POST", "/component", Some(body), trace)?;
    if response.status != 200 {
        let msg = graphio_graph::json::parse(&response.body)
            .ok()
            .and_then(|d| {
                d.get("error")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_else(|| response.body.trim_end().to_string());
        return Err((response.status, format!("component {}: {msg}", fp.to_hex())));
    }
    let doc = graphio_graph::json::parse(&response.body).map_err(|e| {
        (
            502,
            format!("component {}: invalid response JSON: {e}", fp.to_hex()),
        )
    })?;
    let part =
        component_from_doc(&doc).map_err(|m| (502, format!("component {}: {m}", fp.to_hex())))?;
    // WL fingerprints are deterministic, so a mismatch means the backend
    // analyzed a different graph than the router sent — never fold a
    // stranger's spectra into the composed bound.
    if part.fingerprint != fp {
        return Err((
            502,
            format!(
                "component fingerprint mismatch: sent {}, got {}",
                fp.to_hex(),
                part.fingerprint.to_hex()
            ),
        ));
    }
    Ok((part, backend))
}

/// `POST /analyze` with `"mode":"compose"` and an inline graph: decompose
/// locally, scatter one `POST /component` per *distinct* component
/// fingerprint (isomorphic components are fetched once, exactly as a
/// single node eigensolves them once), gather, and fold with the shared
/// [`compose_doc`] — the same floats in the same order as a single node,
/// so the composed body is byte-identical however it was sharded. The
/// cache-data simulation upper bound needs the whole graph, so it runs
/// on the router inside [`compose_doc`].
fn handle_compose(stream: &mut TcpStream, doc: &JsonValue, state: &Arc<RouterState>, keep: bool) {
    // Same validation order as a single node: spec errors before graph
    // errors, with the single-node wording (shared `parse_spec`) — this
    // is where compose + processors>1 is rejected.
    let (spec, warnings) = match parse_spec(doc) {
        Ok(v) => v,
        Err((status, msg)) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, status, keep, &msg);
            return;
        }
    };
    let graph = match parse_graph_doc(doc) {
        Ok(g) => g,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let whole_fp = fingerprint(&graph);
    let plan = ComposePlan::build(&graph, &DecomposeOptions::for_graph_size(graph.n()));
    let record = plan.record();
    // Distinct fingerprints in first-appearance order, each with its
    // component-graph request body.
    let mut distinct: Vec<(Fingerprint, String)> = Vec::new();
    for (fp, an) in plan.fingerprints.iter().zip(&plan.analyzers) {
        if !distinct.iter().any(|(f, _)| f == fp) {
            let body = format!("{{\"graph\":{}}}", an.graph().to_edge_list().to_json());
            distinct.push((*fp, body));
        }
    }
    let trace = graphio_obs::current_trace_id();
    let gather_started = Instant::now();
    // The scatter runs on scoped worker threads, which cannot contribute
    // to this thread's span tree — so the request thread opens one
    // `compose_scatter` span around the whole fan-out. That span is where
    // `GET /trace/{id}` splices each backend's phase tree when it
    // assembles the distributed trace.
    let outcomes: Vec<Result<(ComponentAnalysis, usize), (u16, String)>> = {
        let _scatter = graphio_obs::span::SpanGuard::enter_dynamic("compose_scatter");
        std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .iter()
                .map(|(fp, body)| {
                    let fp = *fp;
                    scope.spawn(move || fetch_component(state, fp, body, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("compose scatter thread"))
                .collect()
        })
    };
    let mut by_fp: std::collections::HashMap<Fingerprint, ComponentAnalysis> =
        std::collections::HashMap::new();
    let mut engaged: Vec<usize> = Vec::new();
    for ((fp, _), outcome) in distinct.iter().zip(outcomes) {
        match outcome {
            Ok((part, backend)) => {
                if !engaged.contains(&backend) {
                    engaged.push(backend);
                }
                by_fp.insert(*fp, part);
            }
            Err((status, msg)) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                let extra: &[(&str, String)] = if status == 503 {
                    &[("Retry-After", "1".to_string())][..]
                } else {
                    &[]
                };
                respond_error_with(stream, status, keep, extra, &msg);
                return;
            }
        }
    }
    let parts: Vec<ComponentAnalysis> = plan
        .fingerprints
        .iter()
        .map(|fp| by_fp[fp].clone())
        .collect();
    let mut body = compose_doc(&graph, &spec, &record, &parts).to_string();
    body.push('\n');
    state.analyze_ok.fetch_add(1, Ordering::Relaxed);
    let mut extra = vec![
        ("X-Graphio-Fingerprint", whole_fp.to_hex()),
        ("X-Graphio-Compose", record.components.len().to_string()),
        ("X-Graphio-Compose-Backends", engaged.len().to_string()),
    ];
    if !warnings.is_empty() {
        extra.push(("X-Graphio-Warnings", warnings.join("; ")));
    }
    if let Some(trace) = trace {
        extra.push(("X-Graphio-Trace", graphio_obs::trace_hex(trace)));
    }
    let gather_us = u64::try_from(gather_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    extra.push(("X-Graphio-Elapsed-Us", gather_us.max(1).to_string()));
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}

/// What one scattered group came back with.
enum GroupOutcome {
    /// Per-entry bodies and per-entry session headers, both tagged with
    /// original indices.
    Bodies(Vec<(usize, String)>, Vec<(usize, String)>),
    /// A per-index error, remapped to the caller's index space.
    Blame(usize, u16, String),
    /// A group-level failure (all replicas down, protocol violation).
    Failed(u16, String),
}

/// Scatters one group to its owner (with failover) and classifies the
/// result.
fn run_group(state: &RouterState, group: &Group, body: &str, trace: Option<u128>) -> GroupOutcome {
    match state.forward_with_failover(group.route_fp, "POST", "/batch", Some(body), trace) {
        Ok((response, _)) if response.status == 200 => {
            match split_bodies(&response.body, group.entries.len()) {
                Ok(bodies) => {
                    let indices: Vec<usize> = group.entries.iter().map(|(i, _)| *i).collect();
                    let tagged = indices.iter().copied().zip(bodies).collect();
                    // The session list is positional metadata: accept it
                    // only when it has exactly one value per entry — a
                    // short or missing list (e.g. an older backend)
                    // yields no sessions for the group, and the caller
                    // then omits the whole header rather than
                    // misattributing hit/miss labels to wrong entries.
                    let sessions = response
                        .header("x-graphio-session")
                        .map(|v| v.split(',').map(str::to_string).collect::<Vec<_>>())
                        .filter(|values| values.len() == indices.len())
                        .map(|values| indices.iter().copied().zip(values).collect())
                        .unwrap_or_default();
                    GroupOutcome::Bodies(tagged, sessions)
                }
                Err(msg) => GroupOutcome::Failed(502, msg),
            }
        }
        Ok((response, _)) => {
            let indices: Vec<usize> = group.entries.iter().map(|(i, _)| *i).collect();
            match remap_blame(&indices, &response.body) {
                Some((index, message)) => GroupOutcome::Blame(index, response.status, message),
                None => GroupOutcome::Failed(
                    response.status,
                    format!("backend rejected sub-batch: {}", response.body.trim_end()),
                ),
            }
        }
        Err((status, msg)) => GroupOutcome::Failed(status, msg),
    }
}

/// `POST /batch`: validate exactly like a single node, split by owner,
/// scatter, reassemble (see [`crate::batch`] for the contracts).
fn handle_batch(stream: &mut TcpStream, request: &Request, state: &Arc<RouterState>, keep: bool) {
    let validated = parse_request_json(&request.body)
        .map_err(|m| (400u16, m))
        .and_then(|doc| {
            let entries = validate_batch_entries(&doc)?.to_vec();
            let (spec, warnings) = parse_spec(&doc)?;
            Ok((entries, spec, warnings))
        });
    let (entries, spec, warnings) = match validated {
        Ok(v) => v,
        Err((status, msg)) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, status, keep, &msg);
            return;
        }
    };

    let total = entries.len();
    let (groups, local_errors) = split(&entries, &state.ring);

    // Scatter: one thread per owner group (bounded by the backend
    // count), each forwarding with failover. Scoped threads, not the
    // router's worker pool — this runs *on* a pooled worker. The trace
    // ID is captured here because scoped threads do not inherit the
    // request-context thread-local.
    let trace = graphio_obs::current_trace_id();
    let gather_started = Instant::now();
    let outcomes: Vec<GroupOutcome> = {
        // Same shape as the compose scatter: one request-thread span
        // around the fan-out, the anchor for distributed trace assembly.
        let _scatter = graphio_obs::span::SpanGuard::enter_dynamic("batch_scatter");
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .map(|group| {
                    let body = batch_body(&group.entries, &spec);
                    scope.spawn(move || run_group(state, group, &body, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread"))
                .collect()
        })
    };

    // Blame: the globally first failing entry (see module docs for why
    // the minimum over local + reported errors is exact).
    let mut first_blame: Option<(usize, u16, String)> = None;
    for (index, status, message) in local_errors
        .iter()
        .cloned()
        .chain(outcomes.iter().filter_map(|o| match o {
            GroupOutcome::Blame(i, s, m) => Some((*i, *s, m.clone())),
            _ => None,
        }))
    {
        if first_blame.as_ref().is_none_or(|(b, _, _)| index < *b) {
            first_blame = Some((index, status, message));
        }
    }
    if let Some((_, status, message)) = first_blame {
        state.errors.fetch_add(1, Ordering::Relaxed);
        respond_error(stream, status, keep, &message);
        return;
    }
    if let Some(GroupOutcome::Failed(status, msg)) = outcomes
        .iter()
        .find(|o| matches!(o, GroupOutcome::Failed(..)))
    {
        state.errors.fetch_add(1, Ordering::Relaxed);
        let extra: &[(&str, String)] = if *status == 503 {
            &[("Retry-After", "1".to_string())][..]
        } else {
            &[]
        };
        respond_error_with(stream, *status, keep, extra, msg);
        return;
    }

    let mut parts = Vec::with_capacity(total);
    let mut sessions: Vec<(usize, String)> = Vec::with_capacity(total);
    for outcome in outcomes {
        if let GroupOutcome::Bodies(bodies, group_sessions) = outcome {
            parts.extend(bodies);
            sessions.extend(group_sessions);
        }
    }
    let body = match gather(total, parts) {
        Ok(body) => body,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 502, keep, &msg);
            return;
        }
    };
    state.analyze_ok.fetch_add(total as u64, Ordering::Relaxed);
    state.batch_ok.fetch_add(1, Ordering::Relaxed);
    sessions.sort_unstable_by_key(|(i, _)| *i);
    let mut extra = vec![("X-Graphio-Batch", total.to_string())];
    // Positional header: emit only when every entry is accounted for —
    // a partial list would label the wrong graphs.
    if sessions.len() == total {
        let joined = sessions
            .iter()
            .map(|(_, s)| s.as_str())
            .collect::<Vec<_>>()
            .join(",");
        extra.push(("X-Graphio-Session", joined));
    }
    if !warnings.is_empty() {
        extra.push(("X-Graphio-Warnings", warnings.join("; ")));
    }
    if let Some(trace) = trace {
        extra.push(("X-Graphio-Trace", graphio_obs::trace_hex(trace)));
    }
    // The batch contract: elapsed is the scatter/gather wall time, the
    // figure a client tuning batch sizes actually wants.
    let gather_us = u64::try_from(gather_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    extra.push(("X-Graphio-Elapsed-Us", gather_us.max(1).to_string()));
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}

/// Splices each backend's phase tree into the router's own trace record,
/// producing the one assembled tree the router's `GET /trace/{id}`
/// returns. Pure over parsed JSON so it is unit-testable without a
/// cluster: `router` is the router's `TraceRecord::to_json` document,
/// `backends` the `(addr, record)` pairs fetched from backends that
/// answered 200 for the same trace ID.
///
/// Each contributing backend becomes one synthetic `backend <addr>` span
/// — parented to the router's scatter span (the last `*_scatter` span,
/// falling back to the root) and spanning the backend's own
/// `elapsed_us` — with the backend's phase tree re-indexed beneath it,
/// so children-sum ≤ parent holds at every level (the backend's wall
/// time sits inside the router's scatter wall time). A backend record
/// identical to the router's own is skipped as an echo: when router and
/// backends share one process (in-process tests) they share one flight
/// recorder, so a backend's `/trace` answer can be the very record the
/// router is assembling around. Identity is full-record equality, not
/// sequence-number equality — every process numbers its ring from zero,
/// so seqs collide across real backends. The assembled document gains a
/// `"backends"` array naming the joined backends.
pub fn assemble_trace(router: &JsonValue, backends: &[(String, JsonValue)]) -> JsonValue {
    let mut spans: Vec<JsonValue> = router
        .get("spans")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    // Anchor: the last scatter span the router opened, else the root.
    let mut attach = 0usize;
    for (i, span) in spans.iter().enumerate() {
        let name = span.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if name.ends_with("_scatter")
            || (matches!(span.get("parent"), Some(JsonValue::Null)) && attach == 0)
        {
            attach = i;
        }
    }
    // Echo/duplicate suppression by full-record identity: in-process all
    // tiers answer from one shared ring, so the router's own record and
    // repeated backend answers arrive as byte-identical documents.
    let mut seen: Vec<String> = vec![router.to_string()];
    let mut joined: Vec<JsonValue> = Vec::new();
    for (addr, record) in backends {
        let rendered = record.to_string();
        if seen.contains(&rendered) {
            continue;
        }
        seen.push(rendered);
        let elapsed = record
            .get("elapsed_us")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let base = spans.len();
        spans.push(JsonValue::Object(vec![
            (
                "name".to_string(),
                JsonValue::String(format!("backend {addr}")),
            ),
            ("parent".to_string(), JsonValue::Number(attach as f64)),
            ("start_us".to_string(), JsonValue::Number(0.0)),
            ("dur_us".to_string(), JsonValue::Number(elapsed)),
        ]));
        let sub = record
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        for span in sub {
            let field = |key: &str| {
                JsonValue::Number(span.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0))
            };
            let parent = match span.get("parent").and_then(JsonValue::as_f64) {
                Some(p) => (base + 1) as f64 + p,
                None => base as f64,
            };
            // Allocation attribution rides along: backend spans carry
            // `alloc_bytes`/`allocs` and the assembled view keeps them
            // (absent fields — older backends — re-emit as 0).
            spans.push(JsonValue::Object(vec![
                (
                    "name".to_string(),
                    span.get("name").cloned().unwrap_or(JsonValue::Null),
                ),
                ("parent".to_string(), JsonValue::Number(parent)),
                ("start_us".to_string(), field("start_us")),
                ("dur_us".to_string(), field("dur_us")),
                ("alloc_bytes".to_string(), field("alloc_bytes")),
                ("allocs".to_string(), field("allocs")),
            ]));
        }
        joined.push(JsonValue::String(addr.clone()));
    }
    let mut assembled: Vec<(String, JsonValue)> = match router {
        JsonValue::Object(entries) => entries
            .iter()
            .filter(|(k, _)| k != "spans")
            .cloned()
            .collect(),
        _ => Vec::new(),
    };
    assembled.push(("backends".to_string(), JsonValue::Array(joined)));
    assembled.push(("spans".to_string(), JsonValue::Array(spans)));
    JsonValue::Object(assembled)
}

/// `GET /trace/{id}` at the router: the distributed view. Fetches the
/// same path from every backend concurrently on throwaway connections
/// (like the `/stats` scrape — observability must not touch the pooled
/// request connections), then joins whatever answered into one assembled
/// tree via [`assemble_trace`]. When the router's own ring no longer has
/// the record but a backend does, the first backend record stands in as
/// the assembly root, so the trace remains queryable as long as *any*
/// tier remembers it.
/// The router's own record for `trace`. When several records share the
/// ring (in-process cluster: router and backends share one recorder, and
/// a backend's post-response work can out-sequence the router), the one
/// holding a `*_scatter` span is the router's viewpoint; otherwise the
/// newest wins, matching [`graphio_service::trace_record_json`].
fn local_router_record(trace: u128) -> Option<String> {
    let records = recorder::recorder()?.records_for(trace);
    let chosen = records
        .iter()
        .find(|r| r.nodes().iter().any(|n| n.name.ends_with("_scatter")))
        .or_else(|| records.iter().max_by_key(|r| r.seq))?;
    Some(chosen.to_json())
}

fn handle_trace(stream: &mut TcpStream, request: &Request, state: &Arc<RouterState>, keep: bool) {
    let hex = request.path["/trace/".len()..]
        .split('?')
        .next()
        .unwrap_or("")
        .to_string();
    let Some(trace) = graphio_obs::parse_trace_hex(&hex) else {
        state.errors.fetch_add(1, Ordering::Relaxed);
        respond_error(stream, 400, keep, &format!("malformed trace id {hex:?}"));
        return;
    };
    let local = local_router_record(trace).and_then(|s| graphio_graph::json::parse(&s).ok());
    let fetched: Vec<Option<(String, JsonValue)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .upstreams
            .iter()
            .map(|up| {
                let url = format!("http://{}", up.addr());
                let path = format!("/trace/{hex}");
                let addr = up.addr().to_string();
                scope.spawn(move || {
                    let response =
                        graphio_service::client::request("GET", &url, &path, None).ok()?;
                    if response.status != 200 {
                        return None;
                    }
                    Some((addr, graphio_graph::json::parse(&response.body).ok()?))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace scrape thread"))
            .collect()
    });
    let mut backends: Vec<(String, JsonValue)> = fetched.into_iter().flatten().collect();
    let root = match local {
        Some(doc) => doc,
        None if !backends.is_empty() => backends.remove(0).1,
        None => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 404, keep, &format!("no record of trace {hex}"));
            return;
        }
    };
    let body = assemble_trace(&root, &backends).to_string() + "\n";
    let mut extra: Vec<(&str, String)> = Vec::new();
    graphio_service::push_obs_headers(&mut extra);
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}

/// `GET /debug/profile?seconds=S` at the router: the cluster-wide
/// flamegraph. Every backend's `/debug/profile` is fetched concurrently
/// on throwaway connections (like `/stats` and `/trace/{id}` — never the
/// pooled request connections) while the router samples its *own* thread
/// stacks for the same window; backend stacks merge under a
/// `backend <addr>` root frame, exactly the shape `assemble_trace` gives
/// the distributed span tree. S is capped at
/// [`graphio_obs::profile::MAX_SECONDS`], well under the scrape client's
/// read timeout, so the fan-out cannot hang the handler.
fn handle_profile(stream: &mut TcpStream, request: &Request, state: &Arc<RouterState>, keep: bool) {
    let query = request.path.split_once('?').map_or("", |x| x.1);
    let seconds = match graphio_obs::profile::parse_profile_query(query) {
        Ok(s) => s,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let path = format!("/debug/profile?seconds={seconds}");
    let (local, fetched): (graphio_obs::Profile, Vec<Option<(String, String)>>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = state
                .upstreams
                .iter()
                .map(|up| {
                    let url = format!("http://{}", up.addr());
                    let path = path.clone();
                    let addr = up.addr().to_string();
                    scope.spawn(move || {
                        let response =
                            graphio_service::client::request("GET", &url, &path, None).ok()?;
                        if response.status != 200 {
                            return None;
                        }
                        Some((addr, response.body))
                    })
                })
                .collect();
            // Sample the router itself on the handler thread while the
            // backends sample themselves: one S-second window, whole
            // cluster.
            let local = graphio_obs::profile::sample_for(
                Duration::from_secs(seconds),
                graphio_obs::profile::DEFAULT_HZ,
            );
            let fetched = handles
                .into_iter()
                .map(|h| h.join().expect("profile scrape thread"))
                .collect();
            (local, fetched)
        });
    let mut body = local.to_collapsed();
    for (addr, backend_body) in fetched.into_iter().flatten() {
        body.push_str(&graphio_obs::profile::prefix_collapsed(
            &backend_body,
            &format!("backend {addr}"),
        ));
    }
    let mut extra: Vec<(&str, String)> = Vec::new();
    graphio_service::push_obs_headers(&mut extra);
    let _ = write_response_typed(
        stream,
        200,
        "OK",
        keep,
        "text/plain; charset=utf-8",
        &extra,
        body.as_bytes(),
    );
}

/// `GET /traces` at the router: the router's own recent flight-recorder
/// records (each one a distributed request the router fronted), same
/// query vocabulary as the backends'.
fn handle_traces(stream: &mut TcpStream, request: &Request, state: &Arc<RouterState>, keep: bool) {
    let (n, min_us, status) = match parse_traces_query(&request.path) {
        Ok(parsed) => parsed,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let records = recorder::recorder()
        .map(|r| r.recent(n, min_us, status))
        .unwrap_or_default();
    let summaries: Vec<String> = records.iter().map(|r| r.to_summary_json()).collect();
    let body = format!("[{}]\n", summaries.join(","));
    let mut extra: Vec<(&str, String)> = Vec::new();
    graphio_service::push_obs_headers(&mut extra);
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}

fn handle_healthz(stream: &mut TcpStream, state: &Arc<RouterState>, keep: bool) {
    let healthy = state.upstreams.iter().filter(|u| u.is_healthy()).count();
    let doc = JsonValue::Object(vec![
        (
            "status".to_string(),
            JsonValue::String(if healthy > 0 { "ok" } else { "degraded" }.to_string()),
        ),
        ("role".to_string(), JsonValue::String("router".to_string())),
        (
            "backends".to_string(),
            JsonValue::Number(state.upstreams.len() as f64),
        ),
        ("healthy".to_string(), JsonValue::Number(healthy as f64)),
    ]);
    let body = doc.to_string() + "\n";
    let _ = write_response(stream, 200, "OK", keep, &[], body.as_bytes());
}

/// `GET /metrics`: Prometheus text exposition of the router's counters,
/// per-backend health/traffic gauges, and every latency histogram in the
/// process-wide registry (request durations per endpoint; the router has
/// no analysis phases of its own, so phase series here come from the
/// registry being shared when backends run in-process, e.g. under test).
fn handle_metrics(stream: &mut TcpStream, state: &Arc<RouterState>, keep: bool) {
    let mut m = graphio_obs::MetricsText::new();
    m.gauge(
        "graphio_router_uptime_seconds",
        &[],
        state.started.elapsed().as_secs_f64(),
    );
    m.counter(
        "graphio_router_requests_total",
        &[],
        state.requests.load(Ordering::Relaxed),
    );
    m.counter(
        "graphio_router_analyze_ok_total",
        &[],
        state.analyze_ok.load(Ordering::Relaxed),
    );
    m.counter(
        "graphio_router_batch_ok_total",
        &[],
        state.batch_ok.load(Ordering::Relaxed),
    );
    m.counter(
        "graphio_router_errors_total",
        &[],
        state.errors.load(Ordering::Relaxed),
    );
    render_fingerprint_memo(&mut m, &state.fp_memo.stats());
    let healthy = state.upstreams.iter().filter(|u| u.is_healthy()).count();
    m.gauge("graphio_router_backends", &[], state.upstreams.len() as f64);
    m.gauge("graphio_router_backends_healthy", &[], healthy as f64);
    for up in &state.upstreams {
        let labels = [("backend", up.addr())];
        m.gauge(
            "graphio_router_backend_healthy",
            &labels,
            f64::from(u8::from(up.is_healthy())),
        );
        m.counter(
            "graphio_router_backend_requests_total",
            &labels,
            up.requests.load(Ordering::Relaxed),
        );
        m.counter(
            "graphio_router_backend_retries_total",
            &labels,
            up.retries.load(Ordering::Relaxed),
        );
        m.counter(
            "graphio_router_backend_ejections_total",
            &labels,
            up.ejections.load(Ordering::Relaxed),
        );
        m.counter(
            "graphio_router_backend_restorations_total",
            &labels,
            up.restorations.load(Ordering::Relaxed),
        );
    }
    graphio_obs::render_registered(&mut m);
    recorder::render(&mut m);
    graphio_obs::alloc::render(&mut m);
    graphio_obs::procfs::render(&mut m);
    let body = m.into_string();
    let mut extra: Vec<(&str, String)> = Vec::new();
    graphio_service::push_obs_headers(&mut extra);
    let _ = write_response_typed(
        stream,
        200,
        "OK",
        keep,
        "text/plain; version=0.0.4",
        &extra,
        body.as_bytes(),
    );
}

/// `GET /stats`: router-local counters plus every backend's own `/stats`
/// document, with cross-backend version/uptime digests (a mixed-version
/// ring or a freshly-restarted backend is exactly what this endpoint
/// exists to surface). Each backend entry carries `scrape_us`, the wall
/// time its `/stats` scrape took from the router's vantage point.
fn handle_stats(stream: &mut TcpStream, state: &Arc<RouterState>, keep: bool) {
    let num = |v: u64| JsonValue::Number(v as f64);
    // Scrape every backend's /stats concurrently on throwaway
    // connections: the scrape is observability, so it must not touch the
    // pooled request connections or the per-backend request counters,
    // and one hung backend must cost one read timeout — not one per
    // backend, serially.
    let scraped: Vec<(Result<graphio_service::client::Response, String>, u64)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = state
                .upstreams
                .iter()
                .map(|up| {
                    let url = format!("http://{}", up.addr());
                    scope.spawn(move || {
                        let started = Instant::now();
                        let result = graphio_service::client::request("GET", &url, "/stats", None)
                            .map_err(|e| e.to_string());
                        // Per-backend scrape wall time (µs): the figure
                        // that spots the one slow/hung backend hiding
                        // behind the concurrent scatter.
                        let scrape_us =
                            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        (result, scrape_us.max(1))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stats scrape thread"))
                .collect()
        });
    let mut backend_docs = Vec::new();
    let mut versions: Vec<String> = Vec::new();
    let mut retries = 0u64;
    let mut ejections = 0u64;
    let mut rebalances = 0u64;
    for (up, (scrape, scrape_us)) in state.upstreams.iter().zip(scraped) {
        let mut entry = vec![
            ("addr".to_string(), JsonValue::String(up.addr().to_string())),
            ("healthy".to_string(), JsonValue::Bool(up.is_healthy())),
            ("scrape_us".to_string(), num(scrape_us)),
            (
                "requests".to_string(),
                num(up.requests.load(Ordering::Relaxed)),
            ),
            (
                "retries".to_string(),
                num(up.retries.load(Ordering::Relaxed)),
            ),
            (
                "ejections".to_string(),
                num(up.ejections.load(Ordering::Relaxed)),
            ),
        ];
        retries += up.retries.load(Ordering::Relaxed);
        ejections += up.ejections.load(Ordering::Relaxed);
        rebalances +=
            up.ejections.load(Ordering::Relaxed) + up.restorations.load(Ordering::Relaxed);
        match scrape {
            Ok(r) if r.status == 200 => {
                if let Ok(doc) = graphio_graph::json::parse(&r.body) {
                    if let Some(v) = doc.get("version").and_then(JsonValue::as_str) {
                        if !versions.iter().any(|existing| existing == v) {
                            versions.push(v.to_string());
                        }
                    }
                    entry.push(("stats".to_string(), doc));
                }
            }
            Ok(r) => entry.push((
                "error".to_string(),
                JsonValue::String(format!("status {}", r.status)),
            )),
            Err(e) => entry.push(("error".to_string(), JsonValue::String(e))),
        }
        backend_docs.push(JsonValue::Object(entry));
    }
    versions.sort();
    let doc = JsonValue::Object(vec![
        (
            "version".to_string(),
            JsonValue::String(env!("CARGO_PKG_VERSION").to_string()),
        ),
        (
            "uptime_seconds".to_string(),
            num(state.started.elapsed().as_secs()),
        ),
        (
            "router".to_string(),
            JsonValue::Object(vec![
                (
                    "requests".to_string(),
                    num(state.requests.load(Ordering::Relaxed)),
                ),
                (
                    "analyze_ok".to_string(),
                    num(state.analyze_ok.load(Ordering::Relaxed)),
                ),
                (
                    "batch_ok".to_string(),
                    num(state.batch_ok.load(Ordering::Relaxed)),
                ),
                (
                    "errors".to_string(),
                    num(state.errors.load(Ordering::Relaxed)),
                ),
                ("retries".to_string(), num(retries)),
                ("ejections".to_string(), num(ejections)),
                ("ring_rebalances".to_string(), num(rebalances)),
                (
                    "fingerprint_memo".to_string(),
                    fingerprint_memo_doc(&state.fp_memo.stats()),
                ),
                (
                    "replicas".to_string(),
                    JsonValue::Number(state.ring.replicas() as f64),
                ),
            ]),
        ),
        ("process".to_string(), graphio_service::process_stats_doc()),
        (
            "mixed_versions".to_string(),
            JsonValue::Bool(versions.len() > 1),
        ),
        (
            "backend_versions".to_string(),
            JsonValue::Array(versions.into_iter().map(JsonValue::String).collect()),
        ),
        ("backends".to_string(), JsonValue::Array(backend_docs)),
    ]);
    let body = doc.to_string() + "\n";
    let _ = write_response(stream, 200, "OK", keep, &[], body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Affinity regression: a body carrying BOTH `graph` and
    /// `fingerprint` must route by the graph — that is the field the
    /// backend analyzes and caches (`parse_analyze` precedence), so
    /// routing by the fingerprint would warm a duplicate session on the
    /// wrong backend.
    #[test]
    fn route_key_prefers_graph_like_the_server() {
        let g = graphio_graph::generators::fft_butterfly(3);
        let other = graphio_graph::generators::inner_product(4);
        let body = format!(
            "{{\"fingerprint\":\"{}\",\"graph\":{},\"memories\":[2]}}",
            fingerprint(&other).to_hex(),
            g.to_edge_list().to_json()
        );
        let doc = graphio_graph::json::parse(&body).unwrap();
        let memo = FingerprintMemo::new();
        assert_eq!(route_key(&doc, true, &memo), Some(fingerprint(&g)));
        assert_eq!(route_key(&doc, true, &memo), Some(fingerprint(&g)));
        assert_eq!(
            memo.stats().hits,
            1,
            "a repeated graph routes from the memo"
        );
        // Without a graph, the fingerprint field routes.
        let fp_only = format!(
            "{{\"fingerprint\":\"{}\",\"memories\":[2]}}",
            fingerprint(&other).to_hex()
        );
        let doc = graphio_graph::json::parse(&fp_only).unwrap();
        assert_eq!(route_key(&doc, true, &memo), Some(fingerprint(&other)));
    }

    #[test]
    fn fallback_fp_is_stable_per_body() {
        assert_eq!(fallback_fp(b"abc"), fallback_fp(b"abc"));
        assert_ne!(fallback_fp(b"abc"), fallback_fp(b"abd"));
    }
}
