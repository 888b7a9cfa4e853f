//! # graphio_obs — std-only observability layer
//!
//! Three pieces, all dependency-free so every crate in the workspace
//! (including `graphio_linalg`, which otherwise depends only on the rand
//! shim) can instrument itself:
//!
//! - [`span`](mod@span): monotonic-clock phase spans with a thread-local phase
//!   stack. `span!("eigensolve")` returns an RAII guard; when tracing is
//!   disabled (the default — only the long-running servers and the
//!   loadgen enable it) a span site costs one relaxed atomic load and no
//!   clock read. Enabled spans record into per-(family, phase) histograms
//!   and, inside a [`span::begin_request`] scope, build a parented phase
//!   tree for the request's flight-recorder record.
//! - [`hist`]: fixed-bucket log2 latency histograms — lock-free striped
//!   atomic recording, mergeable snapshots, p50/p90/p99 at ≤2× relative
//!   error and the maximum exactly.
//! - [`expo`]: Prometheus text exposition rendering for `GET /metrics`
//!   (including per-bucket trace-ID exemplars), plus a validating parser
//!   used by the test suite and CI to assert the bodies we serve
//!   actually parse.
//! - [`recorder`]: a bounded, lock-free flight recorder — the last N
//!   completed requests as fixed-size records in a seqlock ring, plus a
//!   pinned ring for tail-based retention of slow and error traces.
//!   `GET /trace/{id}` and `GET /traces` read it back.
//! - [`profile`]: a sampling profiler over per-thread published span
//!   stacks (one seqlock cell per thread, the recorder's cell type). `GET /debug/profile?seconds=S`
//!   samples the registered threads and renders collapsed-stack
//!   flamegraph text; the router merges backend profiles under
//!   `backend <addr>` frames.
//! - [`alloc`]: a `GlobalAlloc` wrapper attributing allocation bytes and
//!   counts to the innermost open span, whose counters the span swaps
//!   into a thread-local current-phase cell — per-phase counters on
//!   `/metrics`, per-node `alloc_bytes`/`allocs` in trace records.
//! - [`procfs`]: std-only `/proc` readers (RSS, per-thread CPU, fd and
//!   thread counts) behind golden-tested parsers, exposed as
//!   `process_*`/`thread_*` gauges.
//!
//! Trace IDs are 128-bit, wire-encoded as 32 hex chars in the
//! `X-Graphio-Trace` header: minted at the router, propagated to
//! backends, echoed in responses.

pub mod alloc;
pub mod expo;
pub mod hist;
pub mod procfs;
pub mod profile;
pub mod recorder;
mod seqlock;
pub mod span;

pub use alloc::CountingAlloc;
pub use expo::{parse as parse_metrics, render_registered, Exposition, MetricsText};
pub use hist::{bucket_index, bucket_upper_bound, Exemplar, HistSnapshot, Histogram, BUCKETS};
pub use profile::Profile;
pub use recorder::{CacheOutcome, Recorder, TraceRecord, RECORD_NODES};
pub use span::{
    begin_request, current_trace_id, enabled, histogram, mint_trace_id, parse_trace_hex,
    registered, request_elapsed_us, set_enabled, trace_hex, RequestGuard, TraceNode, TraceSummary,
    PHASE_FAMILY,
};
