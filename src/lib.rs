//! # graphio — spectral lower bounds on the I/O complexity of computation graphs
//!
//! A from-scratch Rust implementation of Jain & Zaharia, *"Spectral Lower
//! Bounds on the I/O Complexity of Computation Graphs"* (SPAA 2020),
//! including every substrate the paper's evaluation depends on:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`graph`] | computation DAGs, the §6 generators (FFT, matmul, Strassen, Bellman–Held–Karp, Erdős–Rényi), a §6.1-style tracing frontend |
//! | [`linalg`] | dense Householder+QL and sparse deflated-Lanczos symmetric eigensolvers |
//! | [`spectral`] | the paper's contribution: Theorems 4/5/6 bounds, §5 closed forms (hypercube, butterfly spectrum of Theorem 7, Erdős–Rényi) |
//! | [`pebble`] | the §3 two-level-memory execution simulator (upper bounds) |
//! | [`baselines`] | the §6.3 convex min-cut baseline and an exact tiny-graph optimum oracle |
//! | [`service`] | the HTTP analysis server: sharded session cache + worker pool, `graphio serve` / `graphio client` / `graphio loadgen` |
//! | [`store`] | persistent content-addressed session store: CRC32-framed segment log + binary codec, `graphio store` / `graphio precompute`, `serve --store` |
//! | [`router`] | the fingerprint-affine cluster tier: consistent-hash reverse proxy with scatter/gather batching and failover, `graphio router` / `graphio cluster` |
//! | [`obs`] | observability: phase-tracing spans, lock-free log₂ latency histograms, Prometheus text exposition (`GET /metrics`), the flight recorder (`GET /trace/{id}`), a sampling profiler (`GET /debug/profile`), per-phase allocation counters, `/proc` gauges |
//!
//! ## Quickstart
//!
//! ```
//! use graphio::prelude::*;
//!
//! // The computation graph of a 2^5-point FFT.
//! let g = fft_butterfly(5);
//!
//! // Lower-bound the I/O of ANY evaluation order with fast memory M = 4.
//! let lower = spectral_bound(&g, 4, &BoundOptions::default()).unwrap();
//!
//! // Upper-bound it by simulating a depth-first order under LRU.
//! let order = graphio::graph::topo::dfs_order(&g);
//! let upper = simulate(&g, &order, 4, Policy::Lru, 0).unwrap();
//!
//! assert!(lower.bound <= upper.io() as f64);
//! ```

// Runs the README's library quickstart as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use graphio_baselines as baselines;
pub use graphio_graph as graph;
pub use graphio_linalg as linalg;
pub use graphio_obs as obs;
pub use graphio_pebble as pebble;
pub use graphio_router as router;
pub use graphio_service as service;
pub use graphio_spectral as spectral;
pub use graphio_store as store;

/// One-stop imports for the common workflow: generate or trace a graph,
/// compute lower bounds, simulate executions.
pub mod prelude {
    pub use graphio_baselines::{convex_min_cut_bound, exact_optimal_io, ConvexMinCutOptions};
    pub use graphio_graph::generators::{
        bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, inner_product, naive_matmul,
        strassen_matmul,
    };
    pub use graphio_graph::{fingerprint, CompGraph, Fingerprint, GraphBuilder, OpKind, Tracer};
    pub use graphio_linalg::set_threads;
    pub use graphio_pebble::{simulate, Policy};
    pub use graphio_service::{serve, ServiceConfig};
    pub use graphio_spectral::{
        parallel_spectral_bound, spectral_bound, spectral_bound_original, BoundOptions,
        EigenMethod, LaplacianKind, OwnedAnalyzer, ScaleTier, SpectralBound,
    };
    pub use graphio_store::{load_session, save_session, warm_session, Store, StoreConfig};
}
