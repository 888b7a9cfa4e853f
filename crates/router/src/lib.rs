//! `graphio_router` — the fingerprint-affine cluster tier.
//!
//! Bounds are pure functions of the graph, so the 128-bit WL fingerprint
//! is a perfect shard key: routing the same graph to the same backend
//! every time maximizes that backend's session-cache and store hit rates,
//! which is where all the cluster's throughput lives (a warm hit answers
//! in microseconds; a cold miss pays eigensolves). This crate is an
//! HTTP/1.1 reverse proxy that fronts N `graphio_service` backends with
//! exactly that policy:
//!
//! * [`ring`] — a deterministic consistent-hash ring (virtual replicas;
//!   insertion-order-independent; removing one of N backends remaps only
//!   ≈ 1/N of keys — property-tested),
//! * [`upstream`] — per-backend pooled keep-alive connections (reusing
//!   [`graphio_service::client::Client`]), active `GET /healthz` checks,
//!   ejection with exponential backoff,
//! * [`batch`] — `POST /batch` scatter/gather: split by owner, forward,
//!   reassemble the byte-exact single-node concatenation with per-index
//!   blame remapped to the caller's indices,
//! * [`proxy`] — the router tier on the server skeleton it shares with
//!   the service ([`graphio_service::skeleton`], which owns the accept
//!   loop, the connection lifecycle and the admin routes `/healthz`,
//!   `/stats`, `/metrics`, `/trace/{id}`, `/traces`, `/debug/profile`).
//!   The router owns `POST /analyze`, `/graphs` and `/batch`, failover
//!   (connect failure or 503 → next distinct replica clockwise,
//!   `Retry-After` honored as the ejection backoff), the health loop,
//!   and the fleet view behind its admin routes: `/stats` aggregation,
//!   the assembled `/trace/{id}` and the merged `/debug/profile`.
//!
//! The contract with clients is transparency: every response body the
//! router produces — analyze, fingerprint-only analyze, batch, and their
//! error cases — is byte-identical to what a single `graphio serve`
//! handling all the traffic would have produced (asserted in
//! `tests/router.rs` and, over real processes with a backend `kill -9`ed
//! mid-load, in the workspace's `tests/cli.rs`).
//!
//! ```no_run
//! use graphio_router::{serve_router, RouterConfig};
//!
//! let router = serve_router(&RouterConfig::over(vec![
//!     "127.0.0.1:7878".to_string(),
//!     "127.0.0.1:7879".to_string(),
//! ]))
//! .unwrap();
//! println!("routing on {}", router.url());
//! # router.shutdown();
//! ```

pub mod batch;
pub mod proxy;
pub mod ring;
pub mod upstream;

pub use proxy::{assemble_trace, serve_router, RouterConfig, RouterServer};
pub use ring::{Ring, DEFAULT_REPLICAS};
pub use upstream::Upstream;
