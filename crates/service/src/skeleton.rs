//! The server skeleton both HTTP tiers mount: the analysis service
//! ([`crate::server`]) and the cluster router (`graphio_router`).
//!
//! ```text
//!                 ┌────────────┐  submit   ┌──────────────┐  route table
//!  TCP accept ───▶│ bounded    │──────────▶│ worker pool  │──▶ admin routes
//!  (one thread)   │ queue      │  Full →   │ (W threads)  │    + Tier::ROUTES
//!                 └────────────┘  503 +    └──────────────┘    (404 / 405)
//!                                 Retry-After
//! ```
//!
//! The skeleton owns everything the tiers share:
//!
//! * **Lifecycle.** [`HttpServer::start`] binds, spawns the acceptor and
//!   the worker pool; [`HttpServer::shutdown`] (or drop) sets the stop
//!   flag, joins the acceptor, drains the pool and then runs the tier's
//!   [`Tier::drain`]. The acceptor answers a full queue itself with
//!   `503 + Retry-After` ("server busy" / "router busy") and counts it in
//!   `rejected`; every accepted connection counts in `connections`.
//! * **Connections.** Each pooled job runs the keep-alive request loop
//!   ([`serve_connection`]); each request runs inside the observability
//!   envelope — trace ID, a root span named by endpoint, the request
//!   histogram, the flight recorder (pinning slow and error traces, and
//!   writing them through to the trace store), the slow log.
//! * **Routes.** One table per tier: the admin routes below, then the
//!   tier's [`Tier::ROUTES`]; a miss answers 404 for `GET`/`POST` and 405
//!   for any other method. A request's endpoint label (histograms, trace
//!   records) is the matching row's path, or `"other"`, so the route set
//!   is written once.
//! * **Counters.** A tier declares each counter once, with its `/stats`
//!   key and its `/metrics` family and kind, through a [`Report`]; the
//!   same declaration renders both formats.
//!
//! | Admin route | Response |
//! |---|---|
//! | `GET /healthz` | [`Tier::healthz`] |
//! | `GET /stats` | `version`, `uptime_seconds`, then [`Tier::report`] as JSON |
//! | `GET /metrics` | the same report as Prometheus text, plus the histogram registry, recorder, allocation and `/proc` series |
//! | `GET /trace/{id}` | [`Tier::trace`] (404 when no tier remembers it) |
//! | `GET /traces?n=&min_us=&status=` | recent flight-recorder summaries, newest first |
//! | `GET /debug/profile?seconds=S` | [`Tier::profile`], collapsed stacks |

use crate::http::{
    respond_error, serve_connection, write_response, ConnectionLimits, Request, IO_TIMEOUT,
    READ_TIMEOUT,
};
use crate::pool::{SubmitError, WorkerPool};
use graphio_graph::json::JsonValue;
use graphio_graph::{Fingerprint, MemoStats};
use graphio_obs::recorder;
use graphio_obs::MetricsText;
use graphio_store::{Store, StoreConfig};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The request-latency histogram family (`le` in microseconds), labeled
/// by endpoint. The phase histograms live under
/// [`graphio_obs::PHASE_FAMILY`].
pub const REQUEST_FAMILY: &str = "graphio_request_duration_microseconds";

/// What a tier plugs into the skeleton.
pub trait Tier: Send + Sync + Sized + 'static {
    /// Names the `graphio_{NAME}_*` request counters and the threads.
    const NAME: &'static str;
    /// Leads the 503 body sent when the accept queue is full.
    const BUSY: &'static str;
    /// The tier's own routes, matched after the admin routes.
    const ROUTES: &'static [Route<Self>];

    /// The `GET /healthz` document.
    fn healthz(&self) -> JsonValue;

    /// Declares the tier's counters, including the shared request
    /// `counters` wherever the tier places them.
    fn report(&self, counters: &Counters, out: &mut Report);

    /// The `GET /trace/{id}` body (without the trailing newline), `None`
    /// for a 404. By default, this process's record, which `local` looks
    /// up: the live flight recorder first, then the persistent trace
    /// store.
    fn trace(&self, _trace: u128, local: impl FnOnce() -> Option<String>) -> Option<String> {
        local()
    }

    /// The `GET /debug/profile` body. By default, this process sampled
    /// for `seconds` on the handler thread.
    fn profile(&self, seconds: u64) -> String {
        sample(seconds).to_collapsed()
    }

    /// Runs once on shutdown, after the worker pool drained.
    fn drain(&self) {}
}

/// How a route matches a request path.
#[derive(Debug, Clone, Copy)]
pub enum PathMatch {
    /// Exactly this path.
    Exact(&'static str),
    /// This path, optionally followed by a `?query`.
    Query(&'static str),
    /// Any path under this prefix, e.g. `/trace/` + an ID. Labels as the
    /// prefix without its trailing slash.
    Prefix(&'static str),
}

impl PathMatch {
    fn matches(self, path: &str) -> bool {
        match self {
            PathMatch::Exact(p) => path == p,
            PathMatch::Query(p) => path
                .strip_prefix(p)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('?')),
            PathMatch::Prefix(p) => path.starts_with(p),
        }
    }

    fn label(self) -> &'static str {
        match self {
            PathMatch::Exact(p) | PathMatch::Query(p) => p,
            PathMatch::Prefix(p) => p.trim_end_matches('/'),
        }
    }
}

/// One row of a route table.
pub struct Route<T> {
    method: &'static str,
    path: PathMatch,
    handler: fn(&Arc<T>, &mut Exchange<'_>),
}

impl<T> Route<T> {
    /// A row serving `method` on `path` with `handler`, which writes
    /// exactly one response on its [`Exchange`].
    pub const fn new(
        method: &'static str,
        path: PathMatch,
        handler: fn(&Arc<T>, &mut Exchange<'_>),
    ) -> Route<T> {
        Route {
            method,
            path,
            handler,
        }
    }
}

/// The admin routes every tier serves, ahead of its own.
struct Admin<T>(std::marker::PhantomData<T>);

impl<T: Tier> Admin<T> {
    const ROUTES: &'static [Route<T>] = &[
        Route::new("GET", PathMatch::Exact("/healthz"), handle_healthz),
        Route::new("GET", PathMatch::Exact("/stats"), handle_stats),
        Route::new("GET", PathMatch::Exact("/metrics"), handle_metrics),
        Route::new("GET", PathMatch::Prefix("/trace/"), handle_trace),
        Route::new("GET", PathMatch::Query("/traces"), handle_traces),
        Route::new("GET", PathMatch::Query("/debug/profile"), handle_profile),
    ];

    fn table() -> impl Iterator<Item = &'static Route<T>> {
        Self::ROUTES.iter().chain(T::ROUTES)
    }
}

/// The static endpoint label a request records under: the matching route
/// row's path, with everything else folded into `"other"` so an attacker
/// probing random paths cannot mint unbounded histogram label values.
fn endpoint_label<T: Tier>(path: &str) -> &'static str {
    Admin::<T>::table()
        .find(|r| r.path.matches(path))
        .map_or("other", |r| r.path.label())
}

/// The request counters both tiers keep, keyed on `/stats` by field name.
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections accepted. With keep-alive, `requests > connections` is
    /// the evidence that connection reuse is happening.
    pub connections: AtomicU64,
    /// Requests served (every request on every connection).
    pub requests: AtomicU64,
    /// Connections answered 503 because the accept queue was full.
    pub rejected: AtomicU64,
    /// Analyses answered 200 (a batch counts each of its graphs).
    pub analyze_ok: AtomicU64,
    /// Batches answered 200.
    pub batch_ok: AtomicU64,
    /// Requests answered with an error status.
    pub errors: AtomicU64,
}

impl Counters {
    /// Declares the six counters into `out`, in field order.
    pub fn report(&self, out: &mut Report) {
        for (key, counter) in [
            ("connections", &self.connections),
            ("requests", &self.requests),
            ("rejected", &self.rejected),
            ("analyze_ok", &self.analyze_ok),
            ("batch_ok", &self.batch_ok),
            ("errors", &self.errors),
        ] {
            out.counter(key, counter.load(Ordering::Relaxed));
        }
    }
}

/// One scrape of a tier's counters, rendering either the `/stats` JSON
/// document or the `/metrics` exposition from the same declarations.
///
/// A declaration names its `/stats` key and its kind; the `/metrics`
/// family follows from both: `{prefix}_{key}` for a gauge,
/// `{prefix}_{key}_total` for a counter. The prefix is `graphio_{tier}`
/// at the top level, `graphio_{key}` inside a [`Report::section`] (which
/// nests on `/stats` only), and `{prefix}_{label}` inside
/// [`Report::rows`] (an array on `/stats`, labeled series on `/metrics`).
pub struct Report {
    prefix: String,
    sink: Sink,
}

enum Sink {
    /// Open JSON objects, innermost last.
    Stats(Vec<Vec<(String, JsonValue)>>),
    /// The exposition and the labels of the current row.
    Metrics(MetricsText, Vec<(&'static str, String)>),
}

impl Report {
    fn new(tier: &str, sink: Sink) -> Report {
        Report {
            prefix: format!("graphio_{tier}"),
            sink,
        }
    }

    /// A counter: a number on `/stats`, a counter on `/metrics`.
    pub fn counter(&mut self, key: &str, value: u64) {
        self.stat(key, || JsonValue::Number(value as f64));
        self.metric_counter(key, value);
    }

    /// A gauge: a number on `/stats`, a gauge on `/metrics`.
    pub fn gauge(&mut self, key: &str, value: f64) {
        self.stat(key, || JsonValue::Number(value));
        self.metric_gauge(key, value);
    }

    /// A flag: a boolean on `/stats`, a 0/1 gauge on `/metrics`.
    pub fn flag(&mut self, key: &str, on: bool) {
        self.stat(key, || JsonValue::Bool(on));
        self.metric_gauge(key, f64::from(u8::from(on)));
    }

    /// A cache's hit and miss counters, `{name}_hits` and
    /// `{name}_misses` — listed misses first on `/stats` (they are the
    /// work done), hits first on `/metrics`.
    pub fn hits_misses(&mut self, name: &str, hits: u64, misses: u64) {
        let (hits_key, misses_key) = (format!("{name}_hits"), format!("{name}_misses"));
        self.stat(&misses_key, || JsonValue::Number(misses as f64));
        self.stat(&hits_key, || JsonValue::Number(hits as f64));
        self.metric_counter(&hits_key, hits);
        self.metric_counter(&misses_key, misses);
    }

    /// A `/stats`-only entry; `value` runs only when rendering `/stats`.
    pub fn stat(&mut self, key: &str, value: impl FnOnce() -> JsonValue) {
        if let Sink::Stats(frames) = &mut self.sink {
            let frame = frames.last_mut().expect("an open object");
            frame.push((key.to_string(), value()));
        }
    }

    /// A `/metrics`-only counter.
    pub fn metric_counter(&mut self, key: &str, value: u64) {
        let family = format!("{}_{key}_total", self.prefix);
        self.metric(|m, labels| m.counter(&family, labels, value));
    }

    /// A `/metrics`-only gauge.
    pub fn metric_gauge(&mut self, key: &str, value: f64) {
        let family = format!("{}_{key}", self.prefix);
        self.metric(|m, labels| m.gauge(&family, labels, value));
    }

    fn metric(&mut self, emit: impl FnOnce(&mut MetricsText, &[(&str, &str)])) {
        if let Sink::Metrics(m, labels) = &mut self.sink {
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            emit(m, &labels);
        }
    }

    /// `Some(compute())` when rendering `/stats`, else `None` — for data
    /// only `/stats` shows and that is costly to gather.
    pub fn for_stats<R>(&self, compute: impl FnOnce() -> R) -> Option<R> {
        matches!(self.sink, Sink::Stats(_)).then(compute)
    }

    /// A nested `/stats` object whose families are `graphio_{key}_*`.
    pub fn section(&mut self, key: &str, body: impl FnOnce(&mut Report)) {
        let object = self.nested(format!("graphio_{key}"), body);
        self.stat(key, || object);
    }

    /// One entry per `(label value, row)`: an array of objects on
    /// `/stats`, series labeled `label="value"` under
    /// `{prefix}_{label}_*` on `/metrics`.
    pub fn rows<F: FnOnce(&mut Report)>(
        &mut self,
        key: &str,
        label: &'static str,
        rows: impl IntoIterator<Item = (String, F)>,
    ) {
        let prefix = format!("{}_{label}", self.prefix);
        let mut items = Vec::new();
        for (value, row) in rows {
            if let Sink::Metrics(_, labels) = &mut self.sink {
                *labels = vec![(label, value)];
            }
            items.push(self.nested(prefix.clone(), row));
        }
        if let Sink::Metrics(_, labels) = &mut self.sink {
            labels.clear();
        }
        self.stat(key, || JsonValue::Array(items));
    }

    /// Runs `body` in a fresh `/stats` object under `prefix`, returning
    /// the object (`Null` on `/metrics`).
    fn nested(&mut self, prefix: String, body: impl FnOnce(&mut Report)) -> JsonValue {
        let outer = std::mem::replace(&mut self.prefix, prefix);
        if let Sink::Stats(frames) = &mut self.sink {
            frames.push(Vec::new());
        }
        body(self);
        self.prefix = outer;
        self.close()
    }

    fn close(&mut self) -> JsonValue {
        match &mut self.sink {
            Sink::Stats(frames) => JsonValue::Object(frames.pop().expect("an open object")),
            Sink::Metrics(..) => JsonValue::Null,
        }
    }

    /// A [`graphio_graph::Memo`]'s section under `key`: both tiers keep a
    /// `fingerprint_memo` (labelled graph → fingerprint) and a
    /// `body_memo` (`/analyze` body → what it resolved to).
    pub fn memo(&mut self, key: &str, s: MemoStats) {
        self.section(key, |out| {
            out.gauge("entries", s.entries as f64);
            out.gauge("capacity", s.capacity as f64);
            out.counter("hits", s.hits);
            out.counter("misses", s.misses);
            out.counter("resets", s.resets);
        });
    }

    /// The `process` object of `/stats`, read live from `/proc`:
    /// `{"available":false}` on platforms without procfs so the key is
    /// always present. (`/metrics` carries the same figures as the
    /// `process_*` gauges every tier appends.)
    pub fn process(&mut self) {
        self.stat("process", || {
            let snapshot = graphio_obs::procfs::process_snapshot();
            let mut doc = vec![("available".to_string(), JsonValue::Bool(snapshot.is_some()))];
            if let Some(p) = snapshot {
                doc.extend(
                    [
                        ("resident_bytes", p.resident_bytes as f64),
                        ("virtual_bytes", p.virtual_bytes as f64),
                        ("threads", p.threads as f64),
                        ("open_fds", p.open_fds as f64),
                        ("cpu_user_seconds", p.cpu_user_seconds),
                        ("cpu_system_seconds", p.cpu_system_seconds),
                    ]
                    .map(|(k, v)| (k.to_string(), JsonValue::Number(v))),
                );
            }
            JsonValue::Object(doc)
        });
    }

    /// `version` and `uptime_seconds`, which lead every tier's report.
    fn head(&mut self, started: Instant) {
        self.stat("version", || {
            JsonValue::String(env!("CARGO_PKG_VERSION").to_string())
        });
        self.gauge("uptime_seconds", started.elapsed().as_secs() as f64);
    }
}

/// Where slow-log lines go.
#[derive(Debug, Clone)]
pub enum SlowLogTarget {
    /// One JSON line per slow request on the server's stderr.
    Stderr,
    /// Appended to a file (created if missing) — what the tests and CI
    /// use, so the lines can be parsed back.
    File(PathBuf),
}

/// Slow-request logging (`--slow-log-us N`): any request whose total
/// wall time reaches the threshold dumps its phase tree as one JSON
/// line ([`graphio_obs::TraceSummary::to_json`]). Threshold 0 logs every
/// request — the e2e tests use that to assert tree structure.
#[derive(Debug, Clone)]
pub struct SlowLogConfig {
    /// Log requests taking at least this many microseconds.
    pub threshold_us: u64,
    /// Where the lines go.
    pub target: SlowLogTarget,
    /// Size-based rotation (`--slow-log-rotate-mb N`): when a write would
    /// push a [`SlowLogTarget::File`] past this many bytes, the file is
    /// renamed to `<path>.1` (replacing any previous `.1`) and a fresh
    /// file opened — one generation of history, bounded disk. `None`
    /// (and the stderr target) never rotates.
    pub rotate_bytes: Option<u64>,
}

/// The opened slow-log sink: threshold plus a serialized writer.
struct SlowLog {
    threshold_us: u64,
    sink: Mutex<SlowSink>,
    /// `(path, limit)` when file rotation is configured.
    rotate: Option<(PathBuf, u64)>,
}

struct SlowSink {
    writer: Box<dyn io::Write + Send>,
    /// Bytes in the current file (seeded from its length at open so
    /// rotation carries across restarts); meaningless for stderr.
    written: u64,
}

impl SlowLog {
    fn open(config: &SlowLogConfig) -> io::Result<SlowLog> {
        let sink = match &config.target {
            SlowLogTarget::Stderr => SlowSink {
                writer: Box::new(io::stderr()),
                written: 0,
            },
            SlowLogTarget::File(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                let written = file.metadata().map(|m| m.len()).unwrap_or(0);
                SlowSink {
                    writer: Box::new(file),
                    written,
                }
            }
        };
        let rotate = match (&config.target, config.rotate_bytes) {
            (SlowLogTarget::File(path), Some(limit)) => Some((path.clone(), limit.max(1))),
            _ => None,
        };
        Ok(SlowLog {
            threshold_us: config.threshold_us,
            sink: Mutex::new(sink),
            rotate,
        })
    }

    /// Writes one line. Best-effort: a full disk must not fail requests,
    /// and neither may a failed rotation (the line goes to the old file).
    fn log(&self, line: &str) {
        let mut sink = self.sink.lock().expect("slow log lock");
        let incoming = line.len() as u64 + 1;
        if let Some((path, limit)) = &self.rotate {
            if sink.written > 0 && sink.written + incoming > *limit {
                let mut rotated = path.as_os_str().to_owned();
                rotated.push(".1");
                if std::fs::rename(path, &rotated).is_ok() {
                    if let Ok(file) = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                    {
                        sink.writer = Box::new(file);
                        sink.written = 0;
                    }
                }
            }
        }
        let _ = writeln!(sink.writer, "{line}");
        let _ = sink.writer.flush();
        sink.written += incoming;
    }
}

/// Binding and sizing knobs the skeleton takes from a tier's config.
#[derive(Debug, Clone, Copy)]
pub struct Listen<'a> {
    /// Bind host.
    pub host: &'a str,
    /// Bind port; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded queue depth between the acceptor and the workers.
    pub queue_capacity: usize,
    /// Keep-alive idle deadline and per-connection request cap.
    pub limits: ConnectionLimits,
    /// Slow-request logging (`None` disables it).
    pub slow_log: Option<&'a SlowLogConfig>,
    /// Persistent trace store directory: pinned flight-recorder records
    /// write through here so the last interesting traces survive a
    /// restart. `None` keeps the recorder RAM-only.
    pub trace_store: Option<&'a Path>,
}

/// What the acceptor and every worker share.
struct Core {
    stop: AtomicBool,
    pool: WorkerPool,
    counters: Counters,
    limits: ConnectionLimits,
    slow_log: Option<SlowLog>,
    trace_store: Option<Store>,
    started: Instant,
}

/// A running tier. Dropping the handle shuts it down; it derefs to the
/// tier's state.
pub struct HttpServer<T: Tier> {
    addr: SocketAddr,
    core: Arc<Core>,
    tier: Arc<T>,
    /// Behind a mutex so `shutdown(&self)` can be called from any thread
    /// — including while another thread blocks in [`HttpServer::join`].
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Tier> HttpServer<T> {
    /// Binds and starts serving `tier` in background threads, returning
    /// immediately.
    ///
    /// # Errors
    /// Propagates bind, slow-log and trace-store open failures.
    pub fn start(listen: &Listen<'_>, tier: Arc<T>) -> io::Result<HttpServer<T>> {
        // Serving is the long-lived mode that wants phase histograms and
        // request traces; the offline CLI keeps spans at their free
        // default. Attaching the flight recorder also flips spans on, so
        // `GET /trace/{id}` works out of the box. Allocation attribution
        // is a second relaxed-load switch: per-phase `alloc_bytes` appear
        // whenever the binary runs under `graphio_obs::CountingAlloc`
        // (the CLI installs it); without the wrapper it is inert.
        recorder::attach(recorder::DEFAULT_CAPACITY);
        graphio_obs::set_enabled(true);
        graphio_obs::alloc::set_enabled(true);
        let listener = TcpListener::bind((listen.host, listen.port))?;
        let addr = listener.local_addr()?;
        // The trace store reuses the session store's segment log, keyed
        // by trace ID; opening it warm-loads the index, so pinned traces
        // from before a restart answer `GET /trace/{id}` immediately.
        let trace_store = listen
            .trace_store
            .map(|dir| Store::open(dir, StoreConfig::default()))
            .transpose()?;
        let core = Arc::new(Core {
            stop: AtomicBool::new(false),
            pool: WorkerPool::new(listen.workers, listen.queue_capacity),
            counters: Counters::default(),
            limits: listen.limits,
            slow_log: listen.slow_log.map(SlowLog::open).transpose()?,
            trace_store,
            started: Instant::now(),
        });
        let acceptor = {
            let (core, tier) = (Arc::clone(&core), Arc::clone(&tier));
            std::thread::Builder::new()
                .name(format!("graphio-{}-acceptor", T::NAME))
                .spawn(move || accept_loop(&listener, &core, &tier))
                .expect("spawn acceptor thread")
        };
        Ok(HttpServer {
            addr,
            core,
            tier,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port`, ready to hand to a client.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops accepting connections, drains in-flight work, joins all
    /// threads and runs the tier's [`Tier::drain`]. Callable from any
    /// thread; idempotent.
    pub fn shutdown(&self) {
        if self.core.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// Blocks until the acceptor exits — i.e. until
    /// [`HttpServer::shutdown`] is called from another thread, or forever
    /// for a foreground server that only dies with the process — then
    /// drains the pool and the tier (both idempotent).
    pub fn join(&self) {
        let handle = self.acceptor.lock().expect("acceptor lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.core.pool.shutdown();
        self.tier.drain();
    }
}

impl<T: Tier> std::ops::Deref for HttpServer<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.tier
    }
}

impl<T: Tier> Drop for HttpServer<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<T: Tier>(listener: &TcpListener, core: &Arc<Core>, tier: &Arc<T>) {
    for stream in listener.incoming() {
        if core.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            // Persistent accept errors (fd exhaustion under overload)
            // must not busy-spin the acceptor while workers hold the very
            // fds that need releasing.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        core.counters.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // The stream lives in a shared cell so the acceptor can take it
        // back and answer 503 itself when the queue rejects the job (the
        // closure — including anything it captured — is consumed by a
        // failed submit).
        let cell = Arc::new(Mutex::new(Some(stream)));
        let job = {
            let (cell, core, tier) = (Arc::clone(&cell), Arc::clone(core), Arc::clone(tier));
            move || {
                if let Some(stream) = cell.lock().expect("stream cell").take() {
                    handle_connection(stream, &core, &tier);
                }
            }
        };
        match core.pool.submit(job) {
            Ok(()) => {}
            Err(SubmitError::Full) => {
                core.counters.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(mut stream) = cell.lock().expect("stream cell").take() {
                    let retry = [("Retry-After", "1".to_string())];
                    let busy = format!("{}, retry later", T::BUSY);
                    respond_error(&mut stream, 503, false, &retry, &busy);
                }
            }
            Err(SubmitError::ShuttingDown) => return,
        }
    }
}

/// One pooled connection: the keep-alive request loop, each request
/// counted, traced and dispatched through the route table.
fn handle_connection<T: Tier>(stream: TcpStream, core: &Core, tier: &Arc<T>) {
    serve_connection(
        stream,
        &core.limits,
        |stream, request, keep| {
            core.counters.requests.fetch_add(1, Ordering::Relaxed);
            traced_request::<T>(core, request, || {
                let mut ex = Exchange {
                    stream,
                    request,
                    keep,
                    core,
                };
                dispatch(tier, &mut ex);
            });
        },
        |_| {
            core.counters.errors.fetch_add(1, Ordering::Relaxed);
        },
    );
}

fn dispatch<T: Tier>(tier: &Arc<T>, ex: &mut Exchange<'_>) {
    let request = ex.request;
    let (method, path) = (request.method.as_str(), request.path.as_str());
    match Admin::<T>::table().find(|r| r.method == method && r.path.matches(path)) {
        Some(route) => (route.handler)(tier, ex),
        None if matches!(method, "GET" | "POST") => {
            ex.fail(404, &format!("no route for {path}"));
        }
        None => ex.fail(405, &format!("method {method} not supported")),
    }
}

/// The per-request observability envelope: open a request context
/// (honoring an incoming `X-Graphio-Trace` or minting one), run the
/// handler under a root span named by endpoint, then record the
/// request-latency histogram (with the trace ID as the bucket's
/// exemplar), insert the completed request into the flight recorder —
/// pinning slow (≥ the endpoint's running p99) and error traces, and
/// writing pinned records through to the trace store when one is
/// configured — and emit a slow-log line when the request met the
/// threshold.
fn traced_request<T: Tier>(core: &Core, request: &Request, handler: impl FnOnce()) {
    let trace = request
        .header("x-graphio-trace")
        .and_then(graphio_obs::parse_trace_hex)
        .unwrap_or_else(graphio_obs::mint_trace_id);
    let endpoint = endpoint_label::<T>(&request.path);
    // Clear any annotations a previous request on this worker thread left
    // behind (e.g. a response written outside a traced scope).
    let _ = recorder::take_annotations();
    let guard = graphio_obs::begin_request(trace);
    {
        let _root = graphio_obs::span::SpanGuard::enter_dynamic(endpoint);
        handler();
    }
    let Some(summary) = guard.finish() else {
        return;
    };
    let elapsed = summary.elapsed_us.max(1);
    let hist = graphio_obs::histogram(REQUEST_FAMILY, "endpoint", endpoint);
    let (status, fingerprint, outcome) = recorder::take_annotations();
    if let Some(rec) = recorder::recorder() {
        // Tail-based retention: pin errors and requests at or above the
        // endpoint's running p99 (from the histogram *before* this
        // sample), so the interesting tail outlives ring eviction.
        let p99 = hist.snapshot().p99();
        let pin = status >= 400 || (p99 > 0 && elapsed >= p99);
        let mut record = graphio_obs::TraceRecord::from_summary(
            &summary,
            endpoint,
            status,
            fingerprint,
            outcome,
        );
        record.seq = rec.insert(record, pin);
        if let Some(store) = core.trace_store.as_ref().filter(|_| pin) {
            // The stored bytes are the `/trace/{id}` body. Best-effort,
            // like the session write-through: a full disk must not fail
            // the request that already succeeded.
            if let Err(e) = store.put(Fingerprint(trace), record.to_json().as_bytes()) {
                eprintln!("graphio-trace-store: write-through failed: {e}");
            }
        }
    }
    hist.record_with_exemplar(elapsed, trace);
    if let Some(slow) = &core.slow_log {
        if summary.elapsed_us >= slow.threshold_us {
            slow.log(&summary.to_json(endpoint));
        }
    }
}

/// One request being answered: the stream to answer on, the request, and
/// the connection disposition every response must advertise.
pub struct Exchange<'a> {
    stream: &'a mut TcpStream,
    /// The request being answered.
    pub request: &'a Request,
    keep: bool,
    core: &'a Core,
}

impl Exchange<'_> {
    /// The tier's request counters.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// The worker pool this request runs on (for scatter work).
    pub fn pool(&self) -> &WorkerPool {
        &self.core.pool
    }

    /// Counts an error and answers `{"error": message}` with `status`.
    pub fn fail(&mut self, status: u16, message: &str) {
        self.fail_with(status, &[], message);
    }

    /// [`Exchange::fail`] with extra headers (e.g. `Retry-After`).
    pub fn fail_with(&mut self, status: u16, extra: &[(&str, String)], message: &str) {
        self.core.counters.errors.fetch_add(1, Ordering::Relaxed);
        respond_error(self.stream, status, self.keep, extra, message);
    }

    /// Writes a response as given: status, `extra` headers, JSON body.
    pub fn send(&mut self, status: u16, extra: &[(&str, String)], body: &str) {
        self.write(status, "application/json", extra, body);
    }

    /// The socket write, under one `respond` span.
    fn write(&mut self, status: u16, content_type: &str, extra: &[(&str, String)], body: &str) {
        let _span = graphio_obs::span!("respond");
        let (stream, keep, body) = (&mut *self.stream, self.keep, body.as_bytes());
        let _ = write_response(stream, status, keep, content_type, extra, body);
    }

    /// A 200 with `extra` headers plus the observability headers every
    /// 200 carries: the trace ID (echoed end-to-end so a response can be
    /// correlated with its slow-log line) and server-side elapsed
    /// microseconds (clamped to ≥ 1, so "present and positive" is a
    /// testable contract).
    pub fn ok(&mut self, extra: Vec<(&str, String)>, body: &str) {
        self.ok_typed("application/json", extra, None, body);
    }

    /// [`Exchange::ok`] for a JSON document (newline-terminated).
    pub fn ok_json(&mut self, extra: Vec<(&str, String)>, doc: &JsonValue) {
        self.ok(extra, &(doc.to_string() + "\n"));
    }

    /// [`Exchange::ok`] for a scatter/gather response, whose elapsed
    /// header is the wall time since `gathered` — the part a client
    /// tuning batch sizes wants — rather than the whole request's.
    pub fn ok_gathered(&mut self, extra: Vec<(&str, String)>, gathered: Instant, body: &str) {
        let us = u64::try_from(gathered.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.ok_typed("application/json", extra, Some(us), body);
    }

    /// A 200 carrying the observability headers; `elapsed_us` defaults
    /// to the request's own elapsed time.
    fn ok_typed(
        &mut self,
        content_type: &str,
        mut extra: Vec<(&str, String)>,
        elapsed_us: Option<u64>,
        body: &str,
    ) {
        if let Some(trace) = graphio_obs::current_trace_id() {
            extra.push(("X-Graphio-Trace", graphio_obs::trace_hex(trace)));
        }
        if let Some(us) = elapsed_us.or_else(graphio_obs::request_elapsed_us) {
            extra.push(("X-Graphio-Elapsed-Us", us.max(1).to_string()));
        }
        self.write(200, content_type, &extra, body);
    }
}

fn handle_healthz<T: Tier>(tier: &Arc<T>, ex: &mut Exchange<'_>) {
    ex.ok_json(Vec::new(), &tier.healthz());
}

/// The tier's report rendered into `sink`, after the shared head.
fn report<T: Tier>(tier: &T, core: &Core, sink: Sink) -> Report {
    let mut out = Report::new(T::NAME, sink);
    out.head(core.started);
    tier.report(&core.counters, &mut out);
    out
}

fn handle_stats<T: Tier>(tier: &Arc<T>, ex: &mut Exchange<'_>) {
    let doc = report(&**tier, ex.core, Sink::Stats(vec![Vec::new()])).close();
    ex.ok_json(Vec::new(), &doc);
}

/// `GET /metrics`: Prometheus text exposition of the tier's report, then
/// the live histogram registry (request latency per endpoint, per-phase
/// pipeline histograms), the flight recorder's health, per-phase
/// allocations and the `/proc` gauges. Validated by
/// `graphio_obs::expo::parse` in the test suite and CI.
fn handle_metrics<T: Tier>(tier: &Arc<T>, ex: &mut Exchange<'_>) {
    let sink = Sink::Metrics(MetricsText::new(), Vec::new());
    let Sink::Metrics(mut m, _) = report(&**tier, ex.core, sink).sink else {
        unreachable!("a metrics report");
    };
    graphio_obs::render_registered(&mut m);
    recorder::render(&mut m);
    graphio_obs::alloc::render(&mut m);
    graphio_obs::procfs::render(&mut m);
    ex.ok_typed(
        "text/plain; version=0.0.4",
        Vec::new(),
        None,
        &m.into_string(),
    );
}

/// `GET /trace/{id}`: the tier's record for one trace ID. 400 for a
/// malformed ID, 404 when no tier remembers it (the ring is bounded; an
/// unpinned record eventually evicts).
fn handle_trace<T: Tier>(tier: &Arc<T>, ex: &mut Exchange<'_>) {
    let request = ex.request;
    let hex = request.path["/trace/".len()..]
        .split('?')
        .next()
        .unwrap_or("");
    let Some(trace) = graphio_obs::parse_trace_hex(hex) else {
        ex.fail(400, &format!("malformed trace id {hex:?}"));
        return;
    };
    let trace_store = ex.core.trace_store.as_ref();
    match tier.trace(trace, || local_trace(trace_store, trace)) {
        Some(body) => ex.ok(Vec::new(), &(body + "\n")),
        None => ex.fail(404, &format!("no record of trace {hex}")),
    }
}

/// Resolves one trace ID in this process: the live flight-recorder ring
/// first (main or pinned), then the persistent trace store, which holds
/// the [`graphio_obs::TraceRecord::to_json`] bytes the ring served, so
/// callers cannot tell which tier answered. A stored record is served
/// only if it parses as a JSON object whose `"trace"` is `trace`;
/// anything else (including the binary records older versions wrote) is
/// logged and ignored.
fn local_trace(trace_store: Option<&Store>, trace: u128) -> Option<String> {
    if let Some(record) = recorder::recorder().and_then(|r| r.get(trace)) {
        return Some(record.to_json());
    }
    let doc = trace_store?.get(Fingerprint(trace)).ok().flatten()?;
    let hex = graphio_obs::trace_hex(trace);
    let why = match String::from_utf8(doc) {
        Err(_) => "not UTF-8".to_string(),
        Ok(body) => match graphio_graph::json::parse(&body) {
            Err(e) => e.to_string(),
            Ok(doc) if doc.get("trace").and_then(JsonValue::as_str) == Some(&hex) => {
                return Some(body)
            }
            Ok(_) => "not a record of this trace".to_string(),
        },
    };
    eprintln!("graphio-trace-store: ignoring unreadable record for {hex}: {why}");
    None
}

/// `GET /traces?n=K&min_us=U&status=S`: summaries of the most recent
/// matching flight-recorder records, newest first.
fn handle_traces<T: Tier>(_: &Arc<T>, ex: &mut Exchange<'_>) {
    let request = ex.request;
    let (n, min_us, status) = match parse_traces_query(&request.path) {
        Ok(parsed) => parsed,
        Err(msg) => {
            ex.fail(400, &msg);
            return;
        }
    };
    let records = recorder::recorder()
        .map(|r| r.recent(n, min_us, status))
        .unwrap_or_default();
    let summaries: Vec<String> = records.iter().map(|r| r.to_summary_json()).collect();
    ex.ok(Vec::new(), &format!("[{}]\n", summaries.join(",")));
}

/// Parses the `GET /traces` query string (`n`, `min_us`, `status`) with
/// defaults `(50, 0, None)`; an unparsable or unknown parameter is a 400.
fn parse_traces_query(path: &str) -> Result<(usize, u64, Option<u16>), String> {
    let query = path.split_once('?').map_or("", |x| x.1);
    let (mut n, mut min_us, mut status) = (50usize, 0u64, None);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "n" => n = value.parse().map_err(|_| format!("bad n: {value:?}"))?,
            "min_us" => {
                min_us = value
                    .parse()
                    .map_err(|_| format!("bad min_us: {value:?}"))?;
            }
            "status" => {
                status = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad status: {value:?}"))?,
                );
            }
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok((n, min_us, status))
}

/// `GET /debug/profile?seconds=S`: runs the sampling profiler for S
/// seconds (capped well under the HTTP client's read timeout, so a
/// router's fan-out never times out) and serves collapsed-stack text.
/// The handler thread *is* the sampler — there is no background
/// profiling thread — so the cost is zero until someone asks.
fn handle_profile<T: Tier>(tier: &Arc<T>, ex: &mut Exchange<'_>) {
    let request = ex.request;
    let query = request.path.split_once('?').map_or("", |x| x.1);
    match graphio_obs::profile::parse_profile_query(query) {
        Ok(seconds) => {
            let body = tier.profile(seconds);
            ex.ok_typed("text/plain; charset=utf-8", Vec::new(), None, &body);
        }
        Err(msg) => ex.fail(400, &msg),
    }
}

/// This process's stacks sampled for `seconds` at the default rate.
pub fn sample(seconds: u64) -> graphio_obs::Profile {
    graphio_obs::profile::sample_for(
        Duration::from_secs(seconds),
        graphio_obs::profile::DEFAULT_HZ,
    )
}
