//! The router tier on the [`graphio_service::skeleton`]: affinity
//! routing with failover.
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
//! The skeleton owns the accept loop, the connection lifecycle and the
//! admin routes; this tier owns `POST /analyze`, `/graphs` and `/batch`,
//! the health loop, the per-backend `/stats` rows and `/metrics` series,
//! and one backend fan-out (`RouterState::fan_out`) behind the
//! cluster-wide `/stats`, `/trace/{id}` and `/debug/profile`.
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
//! * `POST /graphs` — keyed like an inline analyze and passed through.
//! * Failover: connect failure or 503 ejects the backend (503 ejects for
//!   exactly the `Retry-After` the backend asked) and the request moves
//!   to the next distinct replica clockwise. Ejected backends are
//!   skipped while any healthy replica remains, and become last-resort
//!   candidates when none does.

use crate::batch::{batch_body, gather, remap_blame, split, split_bodies, Group};
use crate::ring::Ring;
use crate::upstream::Upstream;
use graphio_graph::json::{JsonValue, RequestDoc};
use graphio_graph::{Fingerprint, FingerprintMemo, Memo};
use graphio_obs::recorder;
use graphio_service::analysis::{
    parse_graph_doc, parse_request_json, parse_spec, validate_batch_entries,
};
use graphio_service::client::Response;
use graphio_service::http::{ConnectionLimits, IDLE_TIMEOUT, MAX_REQUESTS_PER_CONNECTION};
use graphio_service::skeleton::{
    sample, Counters, Exchange, HttpServer, Listen, PathMatch, Report, Route, Tier,
};
use graphio_service::SlowLogConfig;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// The router tier's state: the ring and its backends.
pub struct RouterState {
    pub(crate) ring: Ring,
    pub(crate) upstreams: Vec<Upstream>,
    /// `/analyze` body bytes → the fingerprint they routed by, so a
    /// repeated body skips the decode and the content key.
    pub(crate) body_memo: Memo<Fingerprint>,
    /// Labelled graph → fingerprint for routing inline graphs, so a
    /// repeated graph skips Weisfeiler–Leman refinement here too.
    pub(crate) fp_memo: FingerprintMemo,
    health: Mutex<Option<JoinHandle<()>>>,
    health_stop: AtomicBool,
}

/// One backend's answer to a [`RouterState::fan_out`]: the response (or
/// the transport error) and the wall time it took, in µs (≥ 1).
type Scrape = (Result<Response, String>, u64);

impl RouterState {
    /// The backend that currently owns `fp` (healthy or not), by address.
    pub fn owner_of(&self, fp: Fingerprint) -> Option<&str> {
        self.ring.owner(fp).map(|b| self.upstreams[b].addr())
    }

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

    /// `GET path` from every backend at once, each on a throwaway
    /// connection, while `local` runs on the calling thread. Fan-outs are
    /// observability: they must not touch the pooled request connections
    /// or the per-backend request counters, and one hung backend must
    /// cost one read timeout, not one per backend. Returns `local`'s
    /// value and one [`Scrape`] per backend, in backend order.
    fn fan_out<R>(&self, path: &str, local: impl FnOnce() -> R) -> (R, Vec<Scrape>) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .upstreams
                .iter()
                .map(|up| {
                    let url = format!("http://{}", up.addr());
                    scope.spawn(move || {
                        let started = Instant::now();
                        let result = graphio_service::client::request("GET", &url, path, None)
                            .map_err(|e| e.to_string());
                        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        (result, us.max(1))
                    })
                })
                .collect();
            let local = local();
            let scrapes = handles
                .into_iter()
                .map(|h| h.join().expect("backend fan-out thread"))
                .collect();
            (local, scrapes)
        })
    }

    /// [`RouterState::fan_out`] reduced to the backends that answered
    /// 200, as `(addr, body)`.
    fn fan_out_ok<R>(&self, path: &str, local: impl FnOnce() -> R) -> (R, Vec<(String, String)>) {
        let (local, scrapes) = self.fan_out(path, local);
        let bodies = (self.upstreams.iter().zip(scrapes))
            .filter_map(|(up, (result, _))| {
                let response = result.ok().filter(|r| r.status == 200)?;
                Some((up.addr().to_string(), response.body))
            })
            .collect();
        (local, bodies)
    }
}

/// A running router. Dropping the handle shuts it down.
pub type RouterServer = HttpServer<RouterState>;

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
    let ring = Ring::new(&config.backends, config.replicas);
    let upstreams = ring.backends().iter().map(|a| Upstream::new(a)).collect();
    let state = Arc::new(RouterState {
        ring,
        upstreams,
        body_memo: Memo::new(),
        fp_memo: FingerprintMemo::new(),
        health: Mutex::new(None),
        health_stop: AtomicBool::new(false),
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
        trace_store: None,
    };
    let server = HttpServer::start(&listen, Arc::clone(&state))?;
    let interval = config.health_interval;
    let health = std::thread::Builder::new()
        .name("graphio-router-health".to_string())
        .spawn(move || health_loop(&state, interval))
        .expect("spawn router health checker");
    *server.health.lock().expect("health lock") = Some(health);
    Ok(server)
}

/// Active health checking: probe every backend on the cadence — ejected
/// backends only once their backoff elapses, so a dead backend costs one
/// connect attempt per backoff period, not per interval. The first round
/// runs one interval *after* boot (backends start optimistically
/// healthy; the request path discovers failures immediately either way).
fn health_loop(state: &RouterState, interval: Duration) {
    let stopped = || state.health_stop.load(Ordering::SeqCst);
    loop {
        // Sleep in short slices so shutdown stays prompt.
        let mut remaining = interval;
        while !remaining.is_zero() && !stopped() {
            let step = remaining.min(Duration::from_millis(50));
            std::thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
        if stopped() {
            return;
        }
        for up in &state.upstreams {
            if up.due_for_probe() {
                up.probe();
            }
        }
    }
}

impl Tier for RouterState {
    const NAME: &'static str = "router";
    const BUSY: &'static str = "router busy";
    const ROUTES: &'static [Route<Self>] = &[
        Route::new("POST", PathMatch::Exact("/analyze"), handle_passthrough),
        Route::new("POST", PathMatch::Exact("/graphs"), handle_passthrough),
        Route::new("POST", PathMatch::Exact("/batch"), handle_batch),
    ];

    fn healthz(&self) -> JsonValue {
        let healthy = self.upstreams.iter().filter(|u| u.is_healthy()).count();
        JsonValue::Object(vec![
            (
                "status".to_string(),
                JsonValue::String(if healthy > 0 { "ok" } else { "degraded" }.to_string()),
            ),
            ("role".to_string(), JsonValue::String("router".to_string())),
            (
                "backends".to_string(),
                JsonValue::Number(self.upstreams.len() as f64),
            ),
            ("healthy".to_string(), JsonValue::Number(healthy as f64)),
        ])
    }

    /// The `router` section (request counters, failover totals, the
    /// routing memo), then the fleet: `/stats` embeds every backend's own
    /// `/stats` document with cross-backend version digests (a
    /// mixed-version ring or a freshly restarted backend is what this
    /// endpoint exists to surface), `/metrics` one labeled series per
    /// backend.
    fn report(&self, counters: &Counters, out: &mut Report) {
        let num = |v: u64| JsonValue::Number(v as f64);
        let total = |pick: fn(&Upstream) -> u64| self.upstreams.iter().map(pick).sum::<u64>();
        out.section("router", |out| {
            counters.report(out);
            let ejections = total(|u| u.ejections.load(Ordering::Relaxed));
            out.stat("retries", || {
                num(total(|u| u.retries.load(Ordering::Relaxed)))
            });
            out.stat("ejections", || num(ejections));
            out.stat("ring_rebalances", || {
                num(ejections + total(|u| u.restorations.load(Ordering::Relaxed)))
            });
            out.memo("body_memo", self.body_memo.stats());
            out.memo("fingerprint_memo", self.fp_memo.stats());
            out.stat("replicas", || num(self.ring.replicas() as u64));
            let healthy = self.upstreams.iter().filter(|u| u.is_healthy()).count();
            out.metric_gauge("backends", self.upstreams.len() as f64);
            out.metric_gauge("backends_healthy", healthy as f64);
        });
        out.process();
        // Only `/stats` scrapes the backends: per backend, the scrape wall
        // time and the entry it ends with — its own `/stats` document, or
        // the error (an unparsable 200 ends with neither).
        let scraped: Vec<(u64, Option<(&str, JsonValue)>)> = out
            .for_stats(|| self.fan_out("/stats", || ()).1)
            .unwrap_or_default()
            .into_iter()
            .map(|(result, scrape_us)| {
                let tail = match result {
                    Ok(r) if r.status == 200 => graphio_graph::json::parse(&r.body)
                        .ok()
                        .map(|doc| ("stats", doc)),
                    Ok(r) => Some(("error", JsonValue::String(format!("status {}", r.status)))),
                    Err(e) => Some(("error", JsonValue::String(e))),
                };
                (scrape_us, tail)
            })
            .collect();
        let mut versions: Vec<String> = scraped
            .iter()
            .filter_map(|(_, tail)| match tail {
                Some(("stats", doc)) => doc.get("version")?.as_str().map(str::to_string),
                _ => None,
            })
            .collect();
        versions.sort();
        versions.dedup();
        out.stat("mixed_versions", || JsonValue::Bool(versions.len() > 1));
        out.stat("backend_versions", || {
            JsonValue::Array(versions.into_iter().map(JsonValue::String).collect())
        });
        let mut scraped = scraped.into_iter();
        let rows = self.upstreams.iter().map(|up| {
            let (scrape_us, tail) = scraped.next().unwrap_or_default();
            let row = move |out: &mut Report| {
                let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
                out.stat("addr", || JsonValue::String(up.addr().to_string()));
                out.flag("healthy", up.is_healthy());
                out.stat("scrape_us", || num(scrape_us));
                out.counter("requests", load(&up.requests));
                out.counter("retries", load(&up.retries));
                out.counter("ejections", load(&up.ejections));
                out.metric_counter("restorations", load(&up.restorations));
                if let Some((key, value)) = tail {
                    out.stat(key, || value);
                }
            };
            (up.addr().to_string(), row)
        });
        out.rows("backends", "backend", rows);
    }

    /// The distributed view: the router's own record plus every
    /// backend's record for the same ID (fetched by one fan-out), joined
    /// into one tree by `join_trace`.
    fn trace(&self, trace: u128, _: impl FnOnce() -> Option<String>) -> Option<String> {
        let path = format!("/trace/{}", graphio_obs::trace_hex(trace));
        let (local, fetched) = self.fan_out_ok(&path, || local_router_record(trace));
        join_trace(trace, local.as_deref(), fetched)
    }

    /// The cluster-wide flamegraph: every backend samples itself for the
    /// same window (one fan-out) while the router samples its own stacks
    /// on the handler thread; backend stacks merge under a
    /// `backend <addr>` root frame, the shape [`assemble_trace`] gives
    /// the distributed span tree. `seconds` is capped well under the
    /// scrape client's read timeout, so the fan-out cannot hang.
    fn profile(&self, seconds: u64) -> String {
        let path = format!("/debug/profile?seconds={seconds}");
        let (local, fetched) = self.fan_out_ok(&path, || sample(seconds));
        let mut body = local.to_collapsed();
        for (addr, backend_body) in fetched {
            body.push_str(&graphio_obs::profile::prefix_collapsed(
                &backend_body,
                &format!("backend {addr}"),
            ));
        }
        body
    }

    /// Stops and joins the health loop.
    fn drain(&self) {
        self.health_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.lock().expect("health lock").take() {
            let _ = h.join();
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
fn route_key(doc: RequestDoc<'_>, is_analyze: bool, memo: &FingerprintMemo) -> Option<Fingerprint> {
    if is_analyze && doc.graph.is_none() {
        let hex = doc.rest.get("fingerprint").and_then(JsonValue::as_str)?;
        return Fingerprint::from_hex(hex);
    }
    parse_graph_doc(doc).ok().map(|g| memo.fingerprint(&g))
}

/// Relays an upstream response to the client, preserving the
/// `X-Graphio-*` metadata and `Retry-After`, and naming the backend that
/// answered.
fn relay(ex: &mut Exchange<'_>, response: &Response, backend: &str) {
    let mut extra: Vec<(&str, String)> = response
        .headers
        .iter()
        .filter(|(k, _)| k.starts_with("x-graphio-") || k == "retry-after")
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    extra.push(("X-Graphio-Backend", backend.to_string()));
    ex.send(response.status, &extra, &response.body);
}

/// Answers a failure the fleet reported, asking the client to retry in a
/// second when it was backpressure (503).
fn fail_upstream(ex: &mut Exchange<'_>, status: u16, message: &str) {
    let retry = [("Retry-After", "1".to_string())];
    let extra: &[(&str, String)] = if status == 503 { &retry } else { &[] };
    ex.fail_with(status, extra, message);
}

/// `POST /analyze` and `POST /graphs`: key, forward untouched, relay.
/// An `/analyze` body byte-identical to one a backend answered routes by
/// the body memo, without decoding it.
fn handle_passthrough(state: &Arc<RouterState>, ex: &mut Exchange<'_>) {
    let request = ex.request;
    let is_analyze = request.path == "/analyze";
    // The one validation the router must do itself: a client body that
    // is not UTF-8 cannot be forwarded through the text client (the
    // single node answers exactly this message).
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return ex.fail(400, "body is not UTF-8");
    };
    let (key, memoized) = if is_analyze {
        let _span = graphio_obs::span!("body_memo");
        let key = state.body_memo.bytes_key(&request.body);
        (Some(key), state.body_memo.get(key))
    } else {
        (None, None)
    };
    let routed = memoized.or_else(|| {
        let doc = graphio_graph::json::parse_request(text).ok()?;
        route_key(doc, is_analyze, &state.fp_memo)
    });
    let fp = routed.unwrap_or_else(|| fallback_fp(&request.body));
    let trace = graphio_obs::current_trace_id();
    match state.forward_with_failover(fp, "POST", &request.path, Some(text), trace) {
        Ok((response, b)) => {
            let counters = ex.counters();
            if response.status == 200 && is_analyze {
                counters.analyze_ok.fetch_add(1, Ordering::Relaxed);
                // Like the service, memoize only a body that resolved.
                if let (Some(key), Some(fp), None) = (key, routed, memoized) {
                    state.body_memo.insert(key, fp);
                }
            }
            if response.status >= 400 {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            relay(ex, &response, state.upstreams[b].addr());
        }
        Err((status, msg)) => fail_upstream(ex, status, &msg),
    }
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
fn handle_batch(state: &Arc<RouterState>, ex: &mut Exchange<'_>) {
    let validated = parse_request_json(&ex.request.body)
        .map_err(|m| (400u16, m))
        .and_then(|mut doc| {
            let entries = validate_batch_entries(&mut doc)?;
            let (spec, warnings) = parse_spec(&doc.rest)?;
            Ok((entries, spec, warnings))
        });
    let (entries, spec, warnings) = match validated {
        Ok(v) => v,
        Err((status, msg)) => return ex.fail(status, &msg),
    };

    let total = entries.len();
    let (groups, local_errors) = split(entries, &state.ring, &state.fp_memo);

    // Scatter: one thread per owner group (bounded by the backend
    // count), each forwarding with failover. Scoped threads, not the
    // router's worker pool — this runs *on* a pooled worker. The trace
    // ID is captured here because scoped threads do not inherit the
    // request-context thread-local.
    let trace = graphio_obs::current_trace_id();
    let gather_started = Instant::now();
    let outcomes: Vec<GroupOutcome> = {
        // The scatter runs on scoped worker threads, which cannot
        // contribute to this thread's span tree — so the request thread
        // opens one span around the whole fan-out. That span is where
        // `GET /trace/{id}` splices each backend's phase tree when it
        // assembles the distributed trace.
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
        return ex.fail(status, &message);
    }
    if let Some(GroupOutcome::Failed(status, msg)) = outcomes
        .iter()
        .find(|o| matches!(o, GroupOutcome::Failed(..)))
    {
        return fail_upstream(ex, *status, msg);
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
        Err(msg) => return ex.fail(502, &msg),
    };
    let counters = ex.counters();
    counters
        .analyze_ok
        .fetch_add(total as u64, Ordering::Relaxed);
    counters.batch_ok.fetch_add(1, Ordering::Relaxed);
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
    ex.ok_gathered(extra, gather_started, &body);
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
/// falling back to the root; a `router` document without spans makes
/// each one a root) and spanning the backend's own
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
    // Anchor: the last scatter span the router opened, else the root;
    // with no router spans at all, each backend is a root of its own.
    let is_scatter = |span: &JsonValue| {
        let name = span.get("name").and_then(JsonValue::as_str);
        name.is_some_and(|n| n.ends_with("_scatter"))
    };
    let attach = match spans.iter().rposition(is_scatter) {
        Some(i) => JsonValue::Number(i as f64),
        None if spans.is_empty() => JsonValue::Null,
        None => JsonValue::Number(0.0),
    };
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
            ("parent".to_string(), attach.clone()),
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

/// The router's `GET /trace/{id}` document: its own record (`local`)
/// with the backends' `/trace` bodies grafted on by [`assemble_trace`].
/// Without a router record (the router inserts it only after its
/// response flushes, and the ring can evict it) the root is a bare
/// `{"trace": id}` with no spans, and every backend grafts under it as a
/// root of its own; no backend record is promoted to stand in for the
/// router's, so the trace stays queryable as long as *any* tier
/// remembers it. `None` when none does.
fn join_trace(trace: u128, local: Option<&str>, fetched: Vec<(String, String)>) -> Option<String> {
    let backends: Vec<(String, JsonValue)> = fetched
        .into_iter()
        .filter_map(|(addr, body)| Some((addr, graphio_graph::json::parse(&body).ok()?)))
        .collect();
    let root = match local.and_then(|s| graphio_graph::json::parse(s).ok()) {
        Some(doc) => doc,
        None if !backends.is_empty() => JsonValue::Object(vec![(
            "trace".to_string(),
            JsonValue::String(graphio_obs::trace_hex(trace)),
        )]),
        None => return None,
    };
    Some(assemble_trace(&root, &backends).to_string())
}

/// The router's own record for `trace`. When several records share the
/// ring (in-process cluster: router and backends share one recorder, and
/// a backend's post-response work can out-sequence the router), the one
/// holding a `*_scatter` span is the router's viewpoint; otherwise the
/// newest wins, as a service's own `GET /trace/{id}` picks.
fn local_router_record(trace: u128) -> Option<String> {
    let records = recorder::recorder()?.records_for(trace);
    let chosen = records
        .iter()
        .find(|r| r.nodes().iter().any(|n| n.name.ends_with("_scatter")))
        .or_else(|| records.iter().max_by_key(|r| r.seq))?;
    Some(chosen.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::fingerprint;

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
        let doc = || graphio_graph::json::parse_request(&body).unwrap();
        let memo = FingerprintMemo::new();
        assert_eq!(route_key(doc(), true, &memo), Some(fingerprint(&g)));
        assert_eq!(route_key(doc(), true, &memo), Some(fingerprint(&g)));
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
        let doc = graphio_graph::json::parse_request(&fp_only).unwrap();
        assert_eq!(route_key(doc, true, &memo), Some(fingerprint(&other)));
    }

    #[test]
    fn fallback_fp_is_stable_per_body() {
        assert_eq!(fallback_fp(b"abc"), fallback_fp(b"abc"));
        assert_ne!(fallback_fp(b"abc"), fallback_fp(b"abd"));
    }

    /// The router's record lands only after its response flushes, so a
    /// `/trace` query can find backend records alone. Neither backend is
    /// promoted to the root: both graft under a span-less root, both are
    /// named in `backends`, and every span's parent is an earlier span.
    #[test]
    fn join_trace_without_a_router_record_promotes_no_backend() {
        let trace = 0xabc;
        let backend = |elapsed: u32, phase: &str| {
            format!(
                "{{\"trace\":\"00000000000000000000000000000abc\",\"endpoint\":\"/batch\",\
                 \"status\":200,\"elapsed_us\":{elapsed},\"seq\":1,\"spans\":[\
                 {{\"name\":\"/batch\",\"parent\":null,\"start_us\":0,\"dur_us\":{elapsed}}},\
                 {{\"name\":\"{phase}\",\"parent\":0,\"start_us\":1,\"dur_us\":5}}]}}"
            )
        };
        let fetched = vec![
            ("b1".to_string(), backend(40, "eigensolve")),
            ("b2".to_string(), backend(30, "mincut")),
        ];
        assert_eq!(join_trace(trace, None, Vec::new()), None);
        let doc = join_trace(trace, None, fetched).expect("backends remember the trace");
        let doc = graphio_graph::json::parse(&doc).unwrap();
        assert_eq!(
            doc.get("trace").and_then(JsonValue::as_str),
            Some("00000000000000000000000000000abc")
        );
        assert_eq!(
            doc.get("elapsed_us"),
            None,
            "no backend's scalars at the root"
        );
        let joined: Vec<&str> = doc
            .get("backends")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(joined, ["b1", "b2"]);
        let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(
            names,
            [
                "backend b1",
                "/batch",
                "eigensolve",
                "backend b2",
                "/batch",
                "mincut"
            ]
        );
        let parents: Vec<Option<f64>> = spans
            .iter()
            .map(|s| s.get("parent").and_then(JsonValue::as_f64))
            .collect();
        assert_eq!(
            parents,
            [None, Some(0.0), Some(1.0), None, Some(3.0), Some(4.0)]
        );
    }
}
