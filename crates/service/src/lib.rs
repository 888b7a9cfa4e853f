//! `graphio_service` — a zero-dependency analysis server over the
//! spectral engine.
//!
//! Jain & Zaharia's central structural fact — the Laplacian spectrum is a
//! per-graph artifact independent of memory size, theorem variant and
//! processor count — is exactly the shape of a server-side cache: one
//! expensive eigensolve, amortized across unbounded cheap bound queries.
//! This crate turns the in-process [`OwnedAnalyzer`] session into a
//! network service with that amortization as its core invariant:
//!
//! The same amortization argument applies one layer down: a connection
//! is an artifact independent of the requests it carries, so the server
//! speaks persistent HTTP/1.1 (keep-alive request loop per connection)
//! and offers `POST /batch` to fan one request's sub-analyses across the
//! worker pool — TCP, parse and dispatch costs amortize across requests
//! exactly as eigensolves amortize across queries.
//!
//! * [`http`] — a hand-rolled HTTP/1.1 subset over `std::net` with
//!   strict request framing (the workspace builds fully offline; no web
//!   framework),
//! * [`pool`] — a bounded worker pool with `503 + Retry-After`
//!   backpressure, a deadlock-free [`WorkerPool::scatter`] fan-out for
//!   batch work, and graceful shutdown,
//! * [`cache`] — a sharded LRU of analysis sessions keyed by the
//!   relabeling-invariant graph [`fingerprint`],
//! * [`analysis`] — the deterministic analysis document shared with the
//!   offline CLI (`POST /analyze` responses are bit-identical to
//!   `graphio analyze --json`),
//! * [`skeleton`] — the server skeleton this tier and the cluster router
//!   both mount: accept loop, connection lifecycle, the admin routes
//!   (`/healthz`, `/stats`, `/metrics`, `/trace/{id}`, `/traces`,
//!   `/debug/profile`) with the 404/405 fallbacks, and the declarative
//!   counter set behind `/stats` and `/metrics`,
//! * [`server`] — the service tier on that skeleton: it owns
//!   `POST /analyze`, `/batch`, `/component` and `/graphs`, the
//!   `cache`/`store`/`engine` counters, and the store flush on shutdown,
//! * [`client`] — a minimal blocking client (`graphio client ...`, CI
//!   driver, integration tests).
//!
//! ```no_run
//! use graphio_service::{serve, ServiceConfig};
//!
//! let server = serve(&ServiceConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! # server.shutdown();
//! ```
//!
//! [`OwnedAnalyzer`]: graphio_spectral::OwnedAnalyzer
//! [`fingerprint`]: graphio_graph::fingerprint

pub mod analysis;
pub mod cache;
pub mod client;
pub mod http;
pub mod loadgen;
pub mod pool;
pub mod server;
pub mod skeleton;

pub use analysis::{
    analysis_body, analysis_doc, parse_graph_doc, parse_request_json, parse_spec,
    validate_memories, AnalyzeSpec,
};
pub use cache::{CacheConfig, CacheStats, SessionCache};
pub use client::{Client, ClientError, Response};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use pool::{PoolSnapshot, SubmitError, WorkerPool};
pub use server::{serve, PersistenceConfig, Server, ServiceConfig, MAX_BATCH_GRAPHS};
pub use skeleton::{SlowLogConfig, SlowLogTarget, REQUEST_FAMILY};
