//! Monotonic-clock phase spans with a thread-local trace tree.
//!
//! A span is an RAII guard over one named phase of work
//! (`let _s = span!("eigensolve");`). On drop it records the phase's
//! duration into that phase's [`Series`] and, when the current thread is
//! inside a traced request, appends a node to the request's phase tree.
//! The process keeps one registry of series: one per distinct
//! `(family, label key, label value)`, holding the histogram and, for a
//! phase, its allocation counters (`crate::alloc`). A [`PhaseSite`]
//! resolves its phase's series once and caches the reference.
//!
//! ## Cost model
//!
//! Spans are **globally disabled by default** so the offline CLI and the
//! test suite pay one relaxed atomic load per span site — no clock read,
//! no allocation, nothing. The serving paths ([`set_enabled`] is called
//! by `graphio serve`, `graphio router` and the loadgen) flip the flag
//! on; an enabled span costs two `Instant::now()` calls, one lock-free
//! histogram record, a seqlock frame push/pop on the thread's published
//! profiler stack (`crate::profile`), two thread-local allocation-total
//! reads and two swaps of the thread's current-phase cell
//! (`crate::alloc`), and (inside a traced request only) one `Vec` push.
//!
//! ## Trace trees
//!
//! [`begin_request`] opens a per-request context on the current thread:
//! it stamps the request's start instant and trace ID, and — when spans
//! are enabled — collects every span that opens on this thread into a
//! parent-linked node list (the phase tree), up to [`RECORD_NODES`]
//! nodes. [`RequestGuard::finish`] yields the completed [`TraceSummary`],
//! which the serving tiers store as the request's flight-recorder
//! [`TraceRecord`](crate::recorder::TraceRecord) (DESIGN.md §11). Work
//! scattered to *other* threads (the batch fan-out) still records phase
//! histograms but does not appear in the scattering request's tree — the
//! tree is a per-thread causal spine, not a distributed trace.

use crate::alloc::PhaseAllocs;
use crate::hist::Histogram;
use crate::recorder::RECORD_NODES;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global span switch. Off by default: see the module cost model.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables span recording process-wide.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether spans are currently recording.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Series registry
// ---------------------------------------------------------------------

/// One registered series, `family{label_key="label_value"}`: its
/// histogram and, for a phase, that phase's exclusive allocation
/// counters (unused by other families). Entries are leaked — a series,
/// once minted, lives for the process — so the record path and the
/// allocation hook hold a `&'static` with no lock.
pub struct Series {
    /// The live histogram.
    pub hist: Histogram,
    pub(crate) allocs: PhaseAllocs,
}

/// One registered series with its key, as [`registered`] lists it.
pub struct RegisteredHist {
    /// Metric family name, e.g. `graphio_phase_duration_microseconds`.
    pub family: &'static str,
    /// Label key, e.g. `phase` or `endpoint`.
    pub label_key: &'static str,
    /// Label value, e.g. `eigensolve` or `/analyze`.
    pub label_value: &'static str,
    /// The series.
    pub series: &'static Series,
}

/// Every series the process exposes on `/metrics`, keyed (and so
/// ordered) by `(family, label_key, label_value)`. Keys compare by
/// content, so a heap copy of a name finds the literal's series.
type SeriesKey = (&'static str, &'static str, &'static str);
static REGISTRY: Mutex<BTreeMap<SeriesKey, &'static Series>> = Mutex::new(BTreeMap::new());

/// The metric family every `span!` phase records into.
pub const PHASE_FAMILY: &str = "graphio_phase_duration_microseconds";

/// Looks up (or registers) the series `family{label_key="label_value"}`.
/// Locks the registry, so call sites resolve once and cache the result.
fn series(
    family: &'static str,
    label_key: &'static str,
    label_value: &'static str,
) -> &'static Series {
    let mut map = REGISTRY.lock().expect("obs registry lock");
    map.entry((family, label_key, label_value))
        .or_insert_with(|| {
            Box::leak(Box::new(Series {
                hist: Histogram::new(),
                allocs: PhaseAllocs::new(),
            }))
        })
}

/// The series of the `span!` phase `name`.
pub(crate) fn phase(name: &'static str) -> &'static Series {
    series(PHASE_FAMILY, "phase", name)
}

/// The histogram of the series `family{label_key="label_value"}`,
/// registered on first use. Locks the registry; callers cache it.
pub fn histogram(
    family: &'static str,
    label_key: &'static str,
    label_value: &'static str,
) -> &'static Histogram {
    &series(family, label_key, label_value).hist
}

/// Every registered series, in key order, so exposition output is
/// deterministic.
#[must_use]
pub fn registered() -> Vec<RegisteredHist> {
    let map = REGISTRY.lock().expect("obs registry lock");
    map.iter()
        .map(
            |(&(family, label_key, label_value), &series)| RegisteredHist {
                family,
                label_key,
                label_value,
                series,
            },
        )
        .collect()
}

/// A phase's series, resolved on the first enabled span that names it
/// and cached: one per `span!` site. A caller that picks the name at
/// runtime (the skeleton's request roots) opens through a fresh site,
/// which resolves by name, without allocating, on that one call.
pub struct PhaseSite {
    series: OnceLock<&'static Series>,
}

impl PhaseSite {
    /// A new, unresolved site.
    #[must_use]
    pub const fn new() -> PhaseSite {
        PhaseSite {
            series: OnceLock::new(),
        }
    }
}

impl Default for PhaseSite {
    fn default() -> Self {
        PhaseSite::new()
    }
}

/// Opens a phase span. Prefer the [`span!`](crate::span!) macro, which allocates the
/// per-site cache.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SITE: $crate::span::PhaseSite = $crate::span::PhaseSite::new();
        $crate::span::SpanGuard::enter($name, &SITE)
    }};
}

// ---------------------------------------------------------------------
// Trace trees
// ---------------------------------------------------------------------

/// One node of a request's phase tree. `Copy` (and heap-free: the name
/// is a `span!` literal) so the flight recorder can hold nodes inline in
/// fixed-size seqlock slots.
#[derive(Debug, Clone, Copy)]
pub struct TraceNode {
    /// The phase name (`span!` literal).
    pub name: &'static str,
    /// Index of the enclosing span in [`TraceSummary::nodes`], if any.
    pub parent: Option<usize>,
    /// Microseconds from the request root to this span opening.
    pub start_us: u64,
    /// The span's duration in microseconds.
    pub dur_us: u64,
    /// Bytes allocated on this thread while the span was open
    /// (*inclusive* — covers child spans, like `dur_us`). Zero unless the
    /// binary installed [`crate::alloc::CountingAlloc`] and enabled it.
    pub alloc_bytes: u64,
    /// Allocation count over the same window, same inclusivity.
    pub allocs: u64,
}

struct RequestCtx {
    trace: u128,
    start: Instant,
    /// Tree collection is active only when spans were enabled at
    /// [`begin_request`] time (flipping the flag mid-request must not
    /// produce a half-tree).
    collect: bool,
    nodes: Vec<TraceNode>,
    stack: Vec<usize>,
    dropped: u64,
}

thread_local! {
    static REQUEST: RefCell<Option<RequestCtx>> = const { RefCell::new(None) };
}

/// A completed request trace: the ID, total elapsed time, and the phase
/// tree (empty when spans were disabled). A cold large analyze can open
/// thousands of mat-vec spans; past [`RECORD_NODES`] they still feed
/// phase histograms but are left out of the tree and counted in
/// `dropped_spans`. Spans open in order and parents open before their
/// children, so the kept prefix is itself a valid tree.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The request's trace ID (see [`mint_trace_id`]).
    pub trace: u128,
    /// Wall time from [`begin_request`] to [`RequestGuard::finish`].
    pub elapsed_us: u64,
    /// The phase tree, in span-open order; `parent` indexes into this.
    pub nodes: Vec<TraceNode>,
    /// Spans opened past [`RECORD_NODES`] and left out of `nodes`.
    pub dropped_spans: u64,
}

impl TraceNode {
    /// One span object of the trace-record schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let parent = match self.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"dur_us\":{},\
             \"alloc_bytes\":{},\"allocs\":{}}}",
            self.name, self.start_us, self.dur_us, self.alloc_bytes, self.allocs
        )
    }
}

/// RAII for one traced request on the current thread. Dropping without
/// [`RequestGuard::finish`] discards the trace.
pub struct RequestGuard {
    /// Defends against nested `begin_request` on one thread: only the
    /// outermost guard owns (and clears) the thread-local context.
    owner: bool,
}

/// Opens a request context on this thread: stamps the start instant and
/// trace ID, and begins phase-tree collection if spans are enabled.
/// Nested calls return an inert guard (the outer request keeps its tree).
pub fn begin_request(trace: u128) -> RequestGuard {
    REQUEST.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_some() {
            return RequestGuard { owner: false };
        }
        *slot = Some(RequestCtx {
            trace,
            start: Instant::now(),
            collect: enabled(),
            nodes: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        });
        RequestGuard { owner: true }
    })
}

impl RequestGuard {
    /// Closes the request and returns its trace. Elapsed time is measured
    /// here; the phase tree is whatever spans closed on this thread.
    #[must_use]
    pub fn finish(self) -> Option<TraceSummary> {
        if !self.owner {
            return None;
        }
        let ctx = REQUEST.with(|cell| cell.borrow_mut().take())?;
        // Suppress the Drop clear; the context is already taken.
        std::mem::forget(self);
        Some(TraceSummary {
            trace: ctx.trace,
            elapsed_us: ctx.start.elapsed().as_micros() as u64,
            nodes: ctx.nodes,
            dropped_spans: ctx.dropped,
        })
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if self.owner {
            REQUEST.with(|cell| cell.borrow_mut().take());
        }
    }
}

/// Microseconds since the current thread's request began, if a request
/// context is active. This is the `X-Graphio-Elapsed-Us` source: always
/// available (request contexts are stamped regardless of the span flag).
#[must_use]
pub fn request_elapsed_us() -> Option<u64> {
    REQUEST.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|ctx| ctx.start.elapsed().as_micros() as u64)
    })
}

/// The current thread's active trace ID, if inside a request.
#[must_use]
pub fn current_trace_id() -> Option<u128> {
    REQUEST.with(|cell| cell.borrow().as_ref().map(|ctx| ctx.trace))
}

// ---------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------

/// An open phase span; closes (and records) on drop.
pub struct SpanGuard {
    /// `None` when spans were disabled at entry — drop is then a no-op.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    start: Instant,
    hist: &'static Histogram,
    /// This span's node index in the thread's trace tree, when collected.
    node: Option<usize>,
    /// Thread-cumulative `(bytes, allocs)` at entry; drop differences a
    /// second reading to charge the node (zero deltas when the counting
    /// allocator is absent or off).
    alloc0: (u64, u64),
    /// Whether this span's frame was published to the profiler stack
    /// (false only during TLS teardown); guards the matching pop.
    published: bool,
    /// The enclosing span's allocation counters, restored on close.
    outer: Option<&'static PhaseAllocs>,
}

impl SpanGuard {
    /// Opens the span named `name`, whose series `site` caches (the
    /// [`span!`](crate::span!) macro body). Disabled: one relaxed load,
    /// no clock read. `site` must only ever open spans of one name.
    #[inline]
    pub fn enter(name: &'static str, site: &PhaseSite) -> SpanGuard {
        if !enabled() {
            return SpanGuard { live: None };
        }
        SpanGuard::open(name, site.series.get_or_init(|| phase(name)))
    }

    fn open(name: &'static str, series: &'static Series) -> SpanGuard {
        let start = Instant::now();
        // Snapshot allocation totals before the node push below, so the
        // tree's own bookkeeping is charged to the parent phase.
        let alloc0 = crate::alloc::thread_totals();
        let node = REQUEST.with(|cell| {
            let mut slot = cell.borrow_mut();
            let ctx = slot.as_mut().filter(|c| c.collect)?;
            if ctx.nodes.len() >= RECORD_NODES {
                ctx.dropped += 1;
                return None;
            }
            let parent = ctx.stack.last().copied();
            let start_us = ctx.start.elapsed().as_micros() as u64;
            ctx.nodes.push(TraceNode {
                name,
                parent,
                start_us,
                dur_us: 0,
                alloc_bytes: 0,
                allocs: 0,
            });
            let index = ctx.nodes.len() - 1;
            ctx.stack.push(index);
            Some(index)
        });
        let published = crate::profile::push_frame(name);
        let outer = crate::alloc::swap_current(Some(&series.allocs));
        SpanGuard {
            live: Some(LiveSpan {
                start,
                hist: &series.hist,
                node,
                alloc0,
                published,
                outer,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_us = live.start.elapsed().as_micros() as u64;
        let (bytes_now, allocs_now) = crate::alloc::thread_totals();
        crate::alloc::swap_current(live.outer);
        if live.published {
            crate::profile::pop_frame();
        }
        live.hist.record(dur_us);
        if let Some(index) = live.node {
            REQUEST.with(|cell| {
                let mut slot = cell.borrow_mut();
                if let Some(ctx) = slot.as_mut() {
                    if let Some(node) = ctx.nodes.get_mut(index) {
                        node.dur_us = dur_us;
                        node.alloc_bytes = bytes_now.saturating_sub(live.alloc0.0);
                        node.allocs = allocs_now.saturating_sub(live.alloc0.1);
                    }
                    // Drop order nests, but a span can legitimately cross
                    // into finish-less cleanup; only pop our own frame.
                    if ctx.stack.last() == Some(&index) {
                        ctx.stack.pop();
                    }
                }
            });
        }
    }
}

// ---------------------------------------------------------------------
// Trace IDs
// ---------------------------------------------------------------------

/// Per-process counter folded into trace IDs so IDs minted within one
/// clock tick stay distinct.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Mints a 128-bit trace ID: wall-clock nanoseconds mixed with the
/// process ID and a process-local counter, diffused through SplitMix64.
/// Not cryptographic — unique enough to correlate a trace record with a
/// response header across a cluster.
#[must_use]
pub fn mint_trace_id() -> u128 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = mix(nanos ^ (u64::from(std::process::id()) << 32));
    let lo = mix(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nanos.rotate_left(17));
    (u128::from(hi) << 64) | u128::from(lo)
}

/// The 32-hex-character wire form of a trace ID (the `X-Graphio-Trace`
/// header value).
#[must_use]
pub fn trace_hex(trace: u128) -> String {
    format!("{trace:032x}")
}

/// Parses a 32-hex-character trace ID; `None` on any other shape.
#[must_use]
pub fn parse_trace_hex(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// The span flag is process-global; tests that toggle it serialize here
/// so the parallel test harness cannot interleave them.
#[cfg(test)]
pub(crate) static FLAG_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = FLAG_LOCK.lock().unwrap();
        set_enabled(false);
        {
            let _s = crate::span!("obs_test_disabled_phase");
        }
        assert!(!registered()
            .iter()
            .any(|r| r.label_value == "obs_test_disabled_phase"));
    }

    #[test]
    fn enabled_spans_build_a_parented_tree() {
        let _flag = FLAG_LOCK.lock().unwrap();
        set_enabled(true);
        let guard = begin_request(mint_trace_id());
        {
            let _root = crate::span!("obs_test_root");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = crate::span!("obs_test_child");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let summary = guard.finish().expect("owner guard yields a summary");
        set_enabled(false);
        assert_eq!(summary.nodes.len(), 2);
        let root = &summary.nodes[0];
        let child = &summary.nodes[1];
        assert_eq!(root.name, "obs_test_root");
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(0));
        assert!(child.dur_us <= root.dur_us, "{summary:?}");
        assert!(root.dur_us <= summary.elapsed_us, "{summary:?}");
        let json =
            crate::TraceRecord::from_summary(&summary, "/analyze", 200, None, None).to_json();
        assert!(json.contains(&trace_hex(summary.trace)));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn trace_ids_roundtrip_and_differ() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        assert_eq!(parse_trace_hex(&trace_hex(a)), Some(a));
        assert_eq!(parse_trace_hex("zz"), None);
        assert_eq!(parse_trace_hex(&"f".repeat(31)), None);
    }

    #[test]
    fn elapsed_is_stamped_even_when_disabled() {
        let _flag = FLAG_LOCK.lock().unwrap();
        set_enabled(false);
        assert_eq!(request_elapsed_us(), None);
        let guard = begin_request(7);
        assert_eq!(current_trace_id(), Some(7));
        assert!(request_elapsed_us().is_some());
        let summary = guard.finish().unwrap();
        assert_eq!(summary.trace, 7);
        assert!(summary.nodes.is_empty(), "no tree without spans");
        assert_eq!(request_elapsed_us(), None);
    }

    #[test]
    fn nested_request_guards_are_inert() {
        let outer = begin_request(1);
        let inner = begin_request(2);
        assert_eq!(current_trace_id(), Some(1));
        assert!(inner.finish().is_none());
        assert_eq!(current_trace_id(), Some(1), "inner finish keeps outer");
        assert_eq!(outer.finish().unwrap().trace, 1);
    }
}
