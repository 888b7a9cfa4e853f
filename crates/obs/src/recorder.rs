//! A bounded, lock-free flight recorder: the last N completed requests,
//! queryable by trace ID.
//!
//! The span layer records *aggregates* (phase histograms); the recorder
//! keeps the per-request view. Every completed request leaves one
//! fixed-size [`TraceRecord`] — trace ID, endpoint, status, fingerprint,
//! cache outcome, total time, and the flattened phase tree — in a ring
//! buffer that `GET /trace/{id}` and `GET /traces` can read back after
//! the fact. It is the only record of a finished request: the service's
//! trace store persists pinned records as the same `/trace/{id}` JSON.
//!
//! ## Ring layout and the seqlock invariant
//!
//! The ring is a power-of-two array of seqlock cells (`crate::seqlock`),
//! each holding one plain [`TraceRecord`]. A **writer** claims a slot by
//! `head.fetch_add(1)` (distinct writers claim distinct sequence numbers,
//! hence — until the ring wraps — distinct slots) and writes it under the
//! cell's even→odd CAS, which only contends when the ring wraps a full
//! lap within one write's duration. There is **no mutex anywhere on this
//! path** — recording can never block a request thread on another
//! thread's descheduling. A **reader** takes a validated bitwise copy and
//! skips slots that are empty or mid-write. Torn copies are safe to
//! *make* because [`TraceRecord`] is `Copy` and owns no heap: phase names
//! are `&'static str` and the node list is a fixed inline array.
//!
//! That inline array is why a tree holds at most [`RECORD_NODES`] nodes:
//! a slot must be memcpy-able, so the span layer stops collecting at that
//! cap (in span-open order — parents always precede children, so the
//! kept prefix is a valid tree) and counts the overflow in
//! `dropped_spans`.
//!
//! ## Tail-based retention
//!
//! Interesting traces — errors, and requests slow enough that the caller
//! pins them (top-percentile by the endpoint's log₂ histogram) — are
//! *also* written to a second, smaller ring with the same mechanics.
//! Pinned records therefore survive main-ring eviction by construction:
//! the fast path's churn (thousands of sub-millisecond hits) laps the
//! main ring without touching the pinned one. Persistence of pinned
//! records across process death is layered on top by the service tier
//! (`serve --trace-store DIR`), not here.

use crate::seqlock::SeqCell;
use crate::span::{TraceNode, TraceSummary};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Phase-tree nodes kept per request: the span layer's collection cap
/// and the record's inline array. Larger trees keep their first
/// `RECORD_NODES` spans in open order (a valid tree prefix); see module
/// docs.
pub const RECORD_NODES: usize = 64;

/// Default main-ring capacity (slots) for [`attach`] callers.
pub const DEFAULT_CAPACITY: usize = 1024;

/// How a request's analysis session was obtained (the
/// `X-Graphio-Session` header vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Session was already warm in the in-memory cache.
    Hit,
    /// Session was restored from the persistent store.
    Store,
    /// Session was computed from scratch.
    Miss,
}

impl CacheOutcome {
    /// The wire form (`X-Graphio-Session` value).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Store => "store",
            CacheOutcome::Miss => "miss",
        }
    }
}

const EMPTY_NODE: TraceNode = TraceNode {
    name: "",
    parent: None,
    start_us: 0,
    dur_us: 0,
    alloc_bytes: 0,
    allocs: 0,
};

/// One completed request, as the recorder stores it: fixed-size and
/// heap-free so a slot can be copied under the seqlock protocol.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Global insertion sequence number (newer records have larger
    /// values); assigned by [`Recorder::insert`].
    pub seq: u64,
    /// The request's 128-bit trace ID.
    pub trace: u128,
    /// The endpoint label (`endpoint_label` vocabulary).
    pub endpoint: &'static str,
    /// The HTTP status the request answered with (0 if never annotated).
    pub status: u16,
    /// The graph fingerprint, when the handler resolved one.
    pub fingerprint: Option<u128>,
    /// How the session was obtained, when the handler resolved one.
    pub outcome: Option<CacheOutcome>,
    /// Total request wall time in microseconds.
    pub elapsed_us: u64,
    /// Spans opened past [`RECORD_NODES`] and left out of the tree.
    pub dropped_spans: u64,
    /// Number of valid entries in `nodes`.
    pub len: usize,
    /// The flattened phase tree; `parent` indexes into this prefix.
    pub nodes: [TraceNode; RECORD_NODES],
}

impl TraceRecord {
    /// Builds a record from a finished request's [`TraceSummary`].
    ///
    /// # Panics
    /// If the summary holds more than [`RECORD_NODES`] nodes, which a
    /// summary from [`crate::span::RequestGuard::finish`] never does.
    #[must_use]
    pub fn from_summary(
        summary: &TraceSummary,
        endpoint: &'static str,
        status: u16,
        fingerprint: Option<u128>,
        outcome: Option<CacheOutcome>,
    ) -> TraceRecord {
        let len = summary.nodes.len();
        let mut nodes = [EMPTY_NODE; RECORD_NODES];
        nodes[..len].copy_from_slice(&summary.nodes);
        TraceRecord {
            seq: 0,
            trace: summary.trace,
            endpoint,
            status,
            fingerprint,
            outcome,
            elapsed_us: summary.elapsed_us,
            dropped_spans: summary.dropped_spans,
            len,
            nodes,
        }
    }

    /// The valid phase-tree prefix.
    #[must_use]
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes[..self.len]
    }

    /// The record as one JSON object — the `GET /trace/{id}` body, and
    /// the bytes `serve --trace-store` persists: `trace`, `endpoint`,
    /// `status`, `fingerprint`, `outcome`, `elapsed_us`, `dropped_spans`,
    /// `seq` and the `spans` tree (DESIGN.md §11).
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self.nodes().iter().map(TraceNode::to_json).collect();
        format!("{}[{}]}}", self.json_head(), spans.join(","))
    }

    /// A one-line summary object — the `GET /traces` list entry: every
    /// scalar field of the record, plus the span count instead of the
    /// tree itself.
    #[must_use]
    pub fn to_summary_json(&self) -> String {
        format!("{}{}}}", self.json_head(), self.len)
    }

    /// The scalar fields both renderings share, up to and including the
    /// `"spans":` key.
    fn json_head(&self) -> String {
        let fingerprint = match self.fingerprint {
            Some(fp) => format!("\"{fp:032x}\""),
            None => "null".to_string(),
        };
        let outcome = match self.outcome {
            Some(o) => format!("\"{}\"", o.as_str()),
            None => "null".to_string(),
        };
        format!(
            "{{\"trace\":\"{}\",\"endpoint\":\"{}\",\"status\":{},\"fingerprint\":{fingerprint},\
             \"outcome\":{outcome},\"elapsed_us\":{},\"dropped_spans\":{},\"seq\":{},\"spans\":",
            crate::span::trace_hex(self.trace),
            self.endpoint,
            self.status,
            self.elapsed_us,
            self.dropped_spans,
            self.seq,
        )
    }
}

const EMPTY_RECORD: TraceRecord = TraceRecord {
    seq: 0,
    trace: 0,
    endpoint: "",
    status: 0,
    fingerprint: None,
    outcome: None,
    elapsed_us: 0,
    dropped_spans: 0,
    len: 0,
    nodes: [EMPTY_NODE; RECORD_NODES],
};

/// A power-of-two seqlock ring.
struct Ring {
    slots: Box<[SeqCell<TraceRecord>]>,
    mask: u64,
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.next_power_of_two().max(8);
        Ring {
            slots: (0..capacity).map(|_| SeqCell::new(EMPTY_RECORD)).collect(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    /// Writes `record` into the next slot (stamping `record.seq` unless
    /// the caller pre-stamped a cross-ring identity) and returns the
    /// claimed sequence number. Lock-free: the only contention is the
    /// per-slot even→odd CAS, held for the duration of one memcpy.
    fn push(&self, mut record: TraceRecord, stamp: bool) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        if stamp {
            record.seq = seq;
        }
        self.slots[(seq & self.mask) as usize].write(|slot| *slot = record);
        seq
    }

    /// Every currently readable record, in no particular order. A slot
    /// that stays torn over the read's retries is being overwritten with
    /// newer data and is skipped.
    fn scan(&self) -> Vec<TraceRecord> {
        self.slots.iter().filter_map(SeqCell::read).collect()
    }

    /// Slots holding a stable record right now (written, not mid-write).
    fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_written()).count()
    }
}

/// The flight recorder: a main ring for every completed request plus a
/// smaller pinned ring for tail retention (errors and top-percentile
/// latency). See module docs for the concurrency protocol.
pub struct Recorder {
    ring: Ring,
    pinned: Ring,
    /// Sum of `dropped_spans` over every inserted record — the recorder's
    /// health counter on `/metrics` (trees cut at [`RECORD_NODES`]).
    dropped_spans: AtomicU64,
}

impl Recorder {
    /// A recorder with `capacity` main-ring slots (rounded up to a power
    /// of two, minimum 8) and `capacity / 8` pinned slots.
    #[must_use]
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            ring: Ring::new(capacity),
            pinned: Ring::new(capacity / 8),
            dropped_spans: AtomicU64::new(0),
        }
    }

    /// Records one completed request; `pin` additionally copies it into
    /// the pinned ring so it outlives main-ring churn. Returns the
    /// record's sequence number. Lock-free on every path.
    pub fn insert(&self, record: TraceRecord, pin: bool) -> u64 {
        if record.dropped_spans > 0 {
            self.dropped_spans
                .fetch_add(record.dropped_spans, Ordering::Relaxed);
        }
        let seq = self.ring.push(record, true);
        if pin {
            // Pre-stamp the main-ring sequence number so the same request
            // carries one identity in both rings.
            let mut pinned = record;
            pinned.seq = seq;
            let _ = self.pinned.push(pinned, false);
        }
        seq
    }

    /// The most recent record for `trace`, searching both rings.
    #[must_use]
    pub fn get(&self, trace: u128) -> Option<TraceRecord> {
        self.ring
            .scan()
            .into_iter()
            .chain(self.pinned.scan())
            .filter(|r| r.trace == trace)
            .max_by_key(|r| r.seq)
    }

    /// Every record for `trace` across both rings, oldest first. When
    /// several tiers share one process (and therefore one recorder —
    /// in-process cluster tests), one trace has one record per tier;
    /// callers that care which tier's viewpoint they get (the router's
    /// `/trace/{id}` assembly root) pick from these instead of
    /// [`Recorder::get`]'s newest-wins.
    #[must_use]
    pub fn records_for(&self, trace: u128) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self
            .ring
            .scan()
            .into_iter()
            .chain(self.pinned.scan())
            .filter(|r| r.trace == trace)
            .collect();
        all.sort_by_key(|r| r.seq);
        all.dedup_by_key(|r| r.seq);
        all
    }

    /// The `n` most recent records matching the filters (minimum elapsed
    /// microseconds; exact status), newest first. A pinned record sits in
    /// both rings under one `seq` and is listed once; distinct requests
    /// that share a trace ID (a client retrying with its
    /// `X-Graphio-Trace`, or two tiers in one process) are listed apart.
    #[must_use]
    pub fn recent(&self, n: usize, min_us: u64, status: Option<u16>) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self
            .ring
            .scan()
            .into_iter()
            .chain(self.pinned.scan())
            .filter(|r| r.elapsed_us >= min_us && status.is_none_or(|s| r.status == s))
            .collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.dedup_by_key(|r| r.seq);
        all.truncate(n);
        all
    }

    /// Every record currently held by the pinned ring (tail retention),
    /// newest first. (The service persists pinned records as it inserts
    /// them, not through this view.)
    #[must_use]
    pub fn pinned(&self) -> Vec<TraceRecord> {
        let mut all = self.pinned.scan();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all
    }

    /// Total records ever inserted (not the number currently held).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.ring.head.load(Ordering::Relaxed)
    }

    /// Total spans dropped from inserted records' trees.
    #[must_use]
    pub fn dropped_spans_total(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// `(occupied, capacity)` of the main ring.
    #[must_use]
    pub fn ring_occupancy(&self) -> (usize, usize) {
        (self.ring.occupancy(), self.ring.slots.len())
    }

    /// `(occupied, capacity)` of the pinned ring.
    #[must_use]
    pub fn pinned_occupancy(&self) -> (usize, usize) {
        (self.pinned.occupancy(), self.pinned.slots.len())
    }
}

/// Appends the flight recorder's health series to a `/metrics`
/// exposition: total dropped spans and live/pinned ring occupancy against
/// capacity. Emits nothing when no recorder is attached.
pub fn render(out: &mut crate::expo::MetricsText) {
    let Some(r) = recorder() else {
        return;
    };
    out.counter(
        "graphio_recorder_dropped_spans_total",
        &[],
        r.dropped_spans_total(),
    );
    out.counter("graphio_recorder_inserted_total", &[], r.inserted());
    for (ring, (occupied, capacity)) in [
        ("live", r.ring_occupancy()),
        ("pinned", r.pinned_occupancy()),
    ] {
        out.gauge(
            "graphio_recorder_ring_occupancy",
            &[("ring", ring)],
            occupied as f64,
        );
        out.gauge(
            "graphio_recorder_ring_capacity",
            &[("ring", ring)],
            capacity as f64,
        );
    }
}

// ---------------------------------------------------------------------
// Process-global recorder
// ---------------------------------------------------------------------

/// The process-global recorder, attached once by the serving paths.
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Attaches the process-global recorder (idempotent — the first capacity
/// wins) and flips span recording on: a recorder without spans would
/// store empty trees, so attaching implies [`crate::span::set_enabled`].
pub fn attach(capacity: usize) -> &'static Recorder {
    let recorder = GLOBAL.get_or_init(|| Recorder::new(capacity));
    crate::span::set_enabled(true);
    recorder
}

/// The attached recorder, if any. Request paths treat `None` as
/// "recording disabled" at the cost of one `OnceLock` load.
#[must_use]
pub fn recorder() -> Option<&'static Recorder> {
    GLOBAL.get()
}

// ---------------------------------------------------------------------
// Per-request annotations
// ---------------------------------------------------------------------

/// What a handler knows about its request that the span layer does not:
/// response status, resolved fingerprint, cache outcome. Handlers set
/// these through the thread-local side channel below; `traced_request`
/// consumes them when it assembles the [`TraceRecord`].
#[derive(Clone, Copy, Default)]
struct Annotations {
    status: u16,
    fingerprint: Option<u128>,
    outcome: Option<CacheOutcome>,
}

thread_local! {
    static ANNOTATIONS: Cell<Annotations> = const { Cell::new(Annotations { status: 0, fingerprint: None, outcome: None }) };
}

/// Records the response status for the current request (the HTTP writer
/// calls this — last write wins, matching what actually hit the wire).
pub fn annotate_status(status: u16) {
    ANNOTATIONS.with(|a| {
        let mut v = a.get();
        v.status = status;
        a.set(v);
    });
}

/// Records the resolved graph fingerprint for the current request.
pub fn annotate_fingerprint(fingerprint: u128) {
    ANNOTATIONS.with(|a| {
        let mut v = a.get();
        v.fingerprint = Some(fingerprint);
        a.set(v);
    });
}

/// Records the session cache outcome for the current request.
pub fn annotate_outcome(outcome: CacheOutcome) {
    ANNOTATIONS.with(|a| {
        let mut v = a.get();
        v.outcome = Some(outcome);
        a.set(v);
    });
}

/// Takes (and clears) the current thread's annotations:
/// `(status, fingerprint, outcome)`. A status of 0 means no response was
/// written through the annotating writer.
#[must_use]
pub fn take_annotations() -> (u16, Option<u128>, Option<CacheOutcome>) {
    ANNOTATIONS.with(|a| {
        let v = a.replace(Annotations::default());
        (v.status, v.fingerprint, v.outcome)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace: u128, elapsed_us: u64, status: u16) -> TraceRecord {
        let summary = TraceSummary {
            trace,
            elapsed_us,
            nodes: vec![TraceNode {
                name: "test_phase",
                parent: None,
                start_us: 0,
                dur_us: elapsed_us,
                alloc_bytes: 0,
                allocs: 0,
            }],
            dropped_spans: 0,
        };
        TraceRecord::from_summary(
            &summary,
            "/analyze",
            status,
            Some(7),
            Some(CacheOutcome::Hit),
        )
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let r = Recorder::new(16);
        r.insert(record(42, 100, 200), false);
        let got = r.get(42).expect("present");
        assert_eq!(got.trace, 42);
        assert_eq!(got.elapsed_us, 100);
        assert_eq!(got.status, 200);
        assert_eq!(got.fingerprint, Some(7));
        assert_eq!(got.outcome, Some(CacheOutcome::Hit));
        assert_eq!(got.nodes().len(), 1);
        assert_eq!(got.nodes()[0].name, "test_phase");
        assert!(r.get(999).is_none());
    }

    #[test]
    fn ring_evicts_oldest_but_pins_survive() {
        let r = Recorder::new(8);
        r.insert(record(1, 10, 200), true); // pinned
        r.insert(record(2, 10, 200), false);
        for t in 3..100 {
            r.insert(record(t, 10, 200), false);
        }
        assert!(r.get(2).is_none(), "unpinned record lapped out");
        let pinned = r.get(1).expect("pinned record survives main-ring churn");
        assert_eq!(pinned.trace, 1);
        assert_eq!(r.pinned().len(), 1);
    }

    #[test]
    fn health_counters_track_drops_and_occupancy() {
        let r = Recorder::new(16);
        assert_eq!(r.dropped_spans_total(), 0);
        assert_eq!(r.ring_occupancy(), (0, 16));
        let mut dropped = record(1, 10, 200);
        dropped.dropped_spans = 3;
        r.insert(dropped, true);
        r.insert(record(2, 10, 200), false);
        assert_eq!(r.dropped_spans_total(), 3);
        assert_eq!(r.ring_occupancy().0, 2);
        assert_eq!(r.pinned_occupancy(), (1, 8), "capacity/8 floored at 8");
    }

    #[test]
    fn recent_filters_and_orders_newest_first() {
        let r = Recorder::new(64);
        r.insert(record(1, 10, 200), false);
        r.insert(record(2, 500, 200), false);
        r.insert(record(3, 20, 503), false);
        r.insert(record(4, 900, 200), false);
        let all = r.recent(10, 0, None);
        assert_eq!(
            all.iter().map(|x| x.trace).collect::<Vec<_>>(),
            vec![4, 3, 2, 1]
        );
        let slow = r.recent(10, 100, None);
        assert_eq!(slow.iter().map(|x| x.trace).collect::<Vec<_>>(), vec![4, 2]);
        let errors = r.recent(10, 0, Some(503));
        assert_eq!(errors.iter().map(|x| x.trace).collect::<Vec<_>>(), vec![3]);
        assert_eq!(r.recent(1, 0, None).len(), 1);
    }

    /// A request that opens more than [`RECORD_NODES`] spans keeps the
    /// first `RECORD_NODES` in open order and counts the rest as dropped,
    /// in the record and in the recorder's health counter.
    #[test]
    fn oversized_trees_truncate_to_a_valid_prefix() {
        const PAIRS: usize = 40;
        let _flag = crate::span::FLAG_LOCK.lock().unwrap();
        crate::span::set_enabled(true);
        let guard = crate::span::begin_request(5);
        {
            let _root = crate::span!("obs_test_deep_root");
            for _ in 0..PAIRS {
                let _child = crate::span!("obs_test_deep_child");
                let _leaf = crate::span!("obs_test_deep_leaf");
            }
        }
        let summary = guard.finish().expect("owner guard yields a summary");
        crate::span::set_enabled(false);
        let total = 1 + 2 * PAIRS;
        assert!(total > RECORD_NODES);
        let rec = TraceRecord::from_summary(&summary, "/analyze", 200, None, None);
        assert_eq!(rec.len, RECORD_NODES);
        assert_eq!(rec.dropped_spans, (total - RECORD_NODES) as u64);
        // Open order: the root, then (child, leaf) pairs, each leaf under
        // the child just opened and every child under the root.
        for (i, node) in rec.nodes().iter().enumerate() {
            let (name, parent) = match i {
                0 => ("obs_test_deep_root", None),
                _ if i % 2 == 1 => ("obs_test_deep_child", Some(0)),
                _ => ("obs_test_deep_leaf", Some(i - 1)),
            };
            assert_eq!((node.name, node.parent), (name, parent), "node {i}");
        }
        let r = Recorder::new(16);
        r.insert(rec, false);
        assert_eq!(r.dropped_spans_total(), (total - RECORD_NODES) as u64);
    }

    /// Two requests under one trace ID (a retry reusing its
    /// `X-Graphio-Trace`) are two entries in `recent`, even when one of
    /// them is also in the pinned ring.
    #[test]
    fn recent_lists_each_request_once_even_when_traces_repeat() {
        let r = Recorder::new(16);
        let first = r.insert(record(8, 10, 503), true);
        let second = r.insert(record(8, 20, 200), false);
        assert_ne!(first, second);
        let listed = r.recent(10, 0, None);
        assert_eq!(
            listed.iter().map(|x| x.seq).collect::<Vec<_>>(),
            vec![second, first]
        );
    }

    #[test]
    fn json_shapes_contain_every_field() {
        let rec = record(0xabcd, 123, 200);
        let json = rec.to_json();
        for needle in [
            "\"trace\":\"0000000000000000000000000000abcd\"",
            "\"endpoint\":\"/analyze\"",
            "\"status\":200",
            "\"outcome\":\"hit\"",
            "\"elapsed_us\":123",
            "\"spans\":[{\"name\":\"test_phase\"",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        let summary = rec.to_summary_json();
        assert!(summary.contains("\"spans\":1"), "{summary}");
        assert!(!summary.contains("\"name\""), "summary has no tree");
    }

    #[test]
    fn annotations_are_per_thread_and_taken_once() {
        annotate_status(503);
        annotate_fingerprint(9);
        annotate_outcome(CacheOutcome::Miss);
        let handle = std::thread::spawn(take_annotations);
        let (status, fp, outcome) = take_annotations();
        assert_eq!(
            (status, fp, outcome),
            (503, Some(9), Some(CacheOutcome::Miss))
        );
        let (status, _, _) = take_annotations();
        assert_eq!(status, 0, "taking clears");
        let other = handle.join().unwrap();
        assert_eq!(other.0, 0, "annotations do not leak across threads");
    }

    /// The acceptance-criterion stress test: 8 threads record
    /// continuously while a reader snapshots; every observed record must
    /// be internally consistent (elapsed mirrors the trace ID), proving
    /// torn copies are never surfaced.
    #[test]
    fn concurrent_writers_never_tear_reads() {
        let r = std::sync::Arc::new(Recorder::new(64));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..8u64)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let trace = u128::from((t << 32) | i);
                        // elapsed_us encodes the trace so a torn copy is
                        // detectable.
                        r.insert(record(trace, (t << 32) | i, 200), i.is_multiple_of(64));
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        // Read only once a writer is running: on a busy machine the 200
        // reads below can otherwise finish before any writer is scheduled.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while r.inserted() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut observed = 0u64;
        for _ in 0..200 {
            for rec in r.recent(usize::MAX, 0, None) {
                assert_eq!(
                    u128::from(rec.elapsed_us),
                    rec.trace,
                    "torn record surfaced"
                );
                assert_eq!(rec.endpoint, "/analyze");
                observed += 1;
            }
            if let Some(rec) = r.get(u128::from(3u64 << 32)) {
                assert_eq!(rec.elapsed_us, 3u64 << 32);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0);
        assert!(observed > 0, "reader saw records during the stress");
        assert_eq!(r.inserted(), total);
    }
}
