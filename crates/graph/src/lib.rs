//! Computation graphs (CDAGs) for I/O-complexity analysis.
//!
//! A computation is modelled as a directed acyclic graph in which every
//! vertex is a single operation (inputs included) and an edge `u → v` means
//! `v` consumes the value produced by `u` (paper §3). This crate provides:
//!
//! * [`CompGraph`] — an immutable CSR (both directions) DAG with O(1) degree
//!   and adjacency queries, plus [`GraphBuilder`] with full validation.
//! * [`generators`] — the computation graphs evaluated in the paper's §6
//!   (FFT butterfly, naive and Strassen matrix multiplication,
//!   Bellman–Held–Karp hypercube, Erdős–Rényi) and supporting families
//!   (inner product, diamond/stencil DAGs, trees, layered random DAGs).
//! * [`trace`] — the §6.1 "solver" frontend: operator-overloaded values
//!   that record an ordinary Rust computation into a `CompGraph`.
//! * [`topo`] — topological evaluation orders (deterministic and random).
//! * [`dot`] — Graphviz export.
//! * [`json`] — the JSON edge-list interchange format used by the CLI.
//! * [`fingerprint`](mod@fingerprint) — relabeling-invariant structural hashes, the cache
//!   key of the analysis service; [`FingerprintMemo`], their bounded
//!   per-labelling memo; and [`Memo`], the bounded seeded-key map behind
//!   it and the servers' request-body memos.

pub mod dag;
pub mod dot;
pub mod fingerprint;
pub mod generators;
pub mod json;
pub mod ops;
pub mod topo;
pub mod trace;

pub use dag::{CompGraph, EdgeListGraph, GraphBuilder, GraphError};
pub use fingerprint::{fingerprint, Fingerprint, FingerprintMemo, Memo, MemoStats, MEMO_CAPACITY};
pub use ops::OpKind;
pub use trace::{Tracer, Tv};
