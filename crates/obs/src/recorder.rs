//! A bounded, lock-free flight recorder: the last N completed requests,
//! queryable by trace ID.
//!
//! PR 7's span layer records *aggregates* (phase histograms) and dumps a
//! phase tree only when a request trips the slow-log threshold. The
//! recorder closes the gap between those two: every completed request
//! leaves one fixed-size [`TraceRecord`] — trace ID, endpoint, status,
//! fingerprint, cache outcome, total time, and the flattened phase tree —
//! in a ring buffer that `GET /trace/{id}` and `GET /traces` can read
//! back after the fact.
//!
//! ## Ring layout and the seqlock invariant
//!
//! The ring is a power-of-two array of slots. Each slot pairs an
//! `AtomicU64` version counter with a plain [`TraceRecord`] payload:
//!
//! * a **writer** claims a slot by `head.fetch_add(1)` (distinct writers
//!   claim distinct sequence numbers, hence — until the ring wraps —
//!   distinct slots), CASes the slot's version from even to odd, writes
//!   the payload, then stores version+2 (even again). The CAS only
//!   contends when the ring wraps a full lap within one write's duration;
//!   the loser spins for the few instructions the winner needs. There is
//!   **no mutex anywhere on this path** — recording can never block a
//!   request thread on another thread's descheduling.
//! * a **reader** loads the version (odd or zero means mid-write or
//!   never written: skip), bitwise-copies the payload, then re-loads the
//!   version; a change means the copy may be torn and is discarded. Torn
//!   copies are safe to *make* (never dereferenced before validation)
//!   because [`TraceRecord`] is `Copy` and owns no heap: phase names are
//!   `&'static str` and the node list is a fixed inline array.
//!
//! That inline array is why [`RECORD_NODES`] is smaller than
//! [`crate::span::MAX_TRACE_NODES`]: a slot must be memcpy-able, so the
//! tree is truncated (in span-open order — parents always precede
//! children, so any prefix is a valid tree) and the overflow is counted
//! in `dropped_spans`.
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

use crate::span::{TraceNode, TraceSummary};
use std::cell::Cell;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Phase-tree nodes kept inline per record. Trees deeper than this are
/// truncated in span-open order (a valid tree prefix); see module docs.
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

    /// Parses the wire form.
    #[must_use]
    pub fn parse(s: &str) -> Option<CacheOutcome> {
        match s {
            "hit" => Some(CacheOutcome::Hit),
            "store" => Some(CacheOutcome::Store),
            "miss" => Some(CacheOutcome::Miss),
            _ => None,
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
    /// Spans dropped from the tree (span-layer cap plus ring truncation).
    pub dropped_spans: u64,
    /// Number of valid entries in `nodes`.
    pub len: usize,
    /// The flattened phase tree; `parent` indexes into this prefix.
    pub nodes: [TraceNode; RECORD_NODES],
}

impl TraceRecord {
    /// Builds a record from a finished request's [`TraceSummary`],
    /// truncating the tree to [`RECORD_NODES`].
    #[must_use]
    pub fn from_summary(
        summary: &TraceSummary,
        endpoint: &'static str,
        status: u16,
        fingerprint: Option<u128>,
        outcome: Option<CacheOutcome>,
    ) -> TraceRecord {
        let len = summary.nodes.len().min(RECORD_NODES);
        let truncated = (summary.nodes.len() - len) as u64;
        let mut nodes = [EMPTY_NODE; RECORD_NODES];
        nodes[..len].copy_from_slice(&summary.nodes[..len]);
        TraceRecord {
            seq: 0,
            trace: summary.trace,
            endpoint,
            status,
            fingerprint,
            outcome,
            elapsed_us: summary.elapsed_us,
            dropped_spans: summary.dropped_spans + truncated,
            len,
            nodes,
        }
    }

    /// The valid phase-tree prefix.
    #[must_use]
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes[..self.len]
    }

    /// Whether the request answered with an error status.
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }

    /// The record as one JSON object — the `GET /trace/{id}` body. A
    /// superset of the slow-log line schema (DESIGN.md §10): same
    /// `trace`/`endpoint`/`elapsed_us`/`dropped_spans`/`spans` fields,
    /// plus `status`, `fingerprint`, `outcome` and `seq`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace\":\"{}\",\"endpoint\":\"{}\",\"status\":{},",
            crate::span::trace_hex(self.trace),
            self.endpoint,
            self.status,
        );
        match self.fingerprint {
            Some(fp) => out.push_str(&format!("\"fingerprint\":\"{fp:032x}\",")),
            None => out.push_str("\"fingerprint\":null,"),
        }
        match self.outcome {
            Some(o) => out.push_str(&format!("\"outcome\":\"{}\",", o.as_str())),
            None => out.push_str("\"outcome\":null,"),
        }
        out.push_str(&format!(
            "\"elapsed_us\":{},\"dropped_spans\":{},\"seq\":{},\"spans\":[",
            self.elapsed_us, self.dropped_spans, self.seq,
        ));
        for (i, node) in self.nodes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&node.to_json());
        }
        out.push_str("]}");
        out
    }

    /// A one-line summary object — the `GET /traces` list entry: every
    /// scalar field of the record, plus the span count instead of the
    /// tree itself.
    #[must_use]
    pub fn to_summary_json(&self) -> String {
        let fp = match self.fingerprint {
            Some(fp) => format!("\"{fp:032x}\""),
            None => "null".to_string(),
        };
        let outcome = match self.outcome {
            Some(o) => format!("\"{}\"", o.as_str()),
            None => "null".to_string(),
        };
        format!(
            "{{\"trace\":\"{}\",\"endpoint\":\"{}\",\"status\":{},\"fingerprint\":{fp},\
             \"outcome\":{outcome},\"elapsed_us\":{},\"dropped_spans\":{},\"seq\":{},\"spans\":{}}}",
            crate::span::trace_hex(self.trace),
            self.endpoint,
            self.status,
            self.elapsed_us,
            self.dropped_spans,
            self.seq,
            self.len,
        )
    }
}

/// One seqlock slot: version counter plus plain payload. Even version =
/// stable, odd = mid-write, zero = never written.
struct Slot {
    version: AtomicU64,
    record: UnsafeCell<TraceRecord>,
}

/// SAFETY: concurrent access to `record` is mediated by the seqlock
/// protocol on `version` (see module docs): writers gain exclusivity via
/// the even→odd CAS, and readers validate their bitwise copy against an
/// unchanged version before using it.
unsafe impl Sync for Slot {}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            record: UnsafeCell::new(TraceRecord {
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
            }),
        }
    }
}

/// A power-of-two seqlock ring.
struct Ring {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.next_power_of_two().max(8);
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::empty()).collect();
        Ring {
            slots: slots.into_boxed_slice(),
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
        let slot = &self.slots[(seq & self.mask) as usize];
        loop {
            let v = slot.version.load(Ordering::Relaxed);
            if v & 1 == 1 {
                // Another writer lapped the ring onto this slot and is
                // mid-write; it finishes in a bounded number of steps.
                std::hint::spin_loop();
                continue;
            }
            if slot
                .version
                .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the successful even→odd CAS above grants this
                // thread exclusive write access until the release store.
                unsafe { std::ptr::write(slot.record.get(), record) };
                slot.version.store(v + 2, Ordering::Release);
                return seq;
            }
        }
    }

    /// A validated copy of one slot, or `None` if empty or under
    /// concurrent rewrite (bounded retries; callers treat a persistently
    /// torn slot as absent — it is being overwritten with newer data).
    fn read(&self, index: usize) -> Option<TraceRecord> {
        let slot = &self.slots[index];
        for _ in 0..4 {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                return None;
            }
            // SAFETY: the copy may race a writer, which is why it is a
            // plain bitwise copy of a heap-free `Copy` payload, used only
            // after the version check below proves it was not torn.
            let copy = unsafe { std::ptr::read(slot.record.get()) };
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) == v1 {
                return Some(copy);
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Every currently readable record, in no particular order.
    fn scan(&self) -> Vec<TraceRecord> {
        (0..self.slots.len()).filter_map(|i| self.read(i)).collect()
    }

    /// Slots holding a stable record right now (written, not mid-write).
    fn occupancy(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                let v = s.version.load(Ordering::Relaxed);
                v != 0 && v & 1 == 0
            })
            .count()
    }
}

/// The flight recorder: a main ring for every completed request plus a
/// smaller pinned ring for tail retention (errors and top-percentile
/// latency). See module docs for the concurrency protocol.
pub struct Recorder {
    ring: Ring,
    pinned: Ring,
    /// Sum of `dropped_spans` over every inserted record — the recorder's
    /// health counter on `/metrics` (trees truncated by the span cap or
    /// the inline-array cap).
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
    /// microseconds; exact status), newest first. Records present in both
    /// rings are deduplicated by trace ID.
    #[must_use]
    pub fn recent(&self, n: usize, min_us: u64, status: Option<u16>) -> Vec<TraceRecord> {
        let mut best: std::collections::HashMap<u128, TraceRecord> =
            std::collections::HashMap::new();
        for r in self.ring.scan().into_iter().chain(self.pinned.scan()) {
            if r.elapsed_us < min_us {
                continue;
            }
            if let Some(s) = status {
                if r.status != s {
                    continue;
                }
            }
            match best.entry(r.trace) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if e.get().seq < r.seq {
                        e.insert(r);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(r);
                }
            }
        }
        let mut all: Vec<TraceRecord> = best.into_values().collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.truncate(n);
        all
    }

    /// Every record currently held by the pinned ring (tail retention),
    /// newest first. The service tier persists these to the trace store.
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

    #[test]
    fn oversized_trees_truncate_to_a_valid_prefix() {
        let nodes: Vec<TraceNode> = (0..RECORD_NODES + 10)
            .map(|i| TraceNode {
                name: "deep",
                parent: i.checked_sub(1),
                start_us: i as u64,
                dur_us: 1,
                alloc_bytes: 0,
                allocs: 0,
            })
            .collect();
        let summary = TraceSummary {
            trace: 5,
            elapsed_us: 100,
            nodes,
            dropped_spans: 3,
        };
        let rec = TraceRecord::from_summary(&summary, "/analyze", 200, None, None);
        assert_eq!(rec.len, RECORD_NODES);
        assert_eq!(rec.dropped_spans, 3 + 10);
        for (i, node) in rec.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                assert!(p < i, "parents precede children after truncation");
            }
        }
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
