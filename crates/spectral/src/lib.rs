//! Spectral lower bounds on the I/O complexity of computation graphs.
//!
//! This crate is the core contribution of Jain & Zaharia, *"Spectral Lower
//! Bounds on the I/O Complexity of Computation Graphs"* (SPAA 2020):
//! lower bounds on the number of fast↔slow memory transfers (`J*_G`, §3.1)
//! any evaluation order of a computation DAG must incur, computed from the
//! smallest eigenvalues of a graph Laplacian.
//!
//! The pipeline (paper §4):
//!
//! 1. [`laplacian`] turns the directed graph `G` into the out-degree
//!    normalized undirected Laplacian `L̃` (each directed edge `(u,v)`
//!    becomes an undirected edge of weight `1/d_out(u)`), or the plain
//!    Laplacian `L`.
//! 2. [`partition`] realizes Lemma 1 / Theorem 2: any contiguous
//!    `k`-partition of an evaluation order prices the boundary edges, and
//!    the quadratic form `tr(XᵀL̃XW^{(k)})` computes exactly that price.
//! 3. [`bound`] relaxes topological orders to orthogonal matrices, applies
//!    the trace inequality of [`qap`], and maximizes over `k`:
//!    * Theorem 4 — `J*_G ≥ ⌊n/k⌋·Σᵢ₌₁ᵏ λᵢ(L̃) − 2kM`,
//!    * Theorem 5 — same with `λ(L)/max d_out` (closed-form friendly),
//!    * Theorem 6 — the `p`-processor parallel variant with `⌊n/(kp)⌋`.
//! 4. [`closed_form`] instantiates §5 analytically: the Bellman–Held–Karp
//!    hypercube, the FFT butterfly (including the Theorem 7 / Appendix A
//!    closed-form butterfly spectrum with multiplicities), and Erdős–Rényi
//!    random graphs.
//! 5. [`published`] provides the previously published asymptotic bounds the
//!    paper compares against in §6.2.
//! 6. [`engine`] owns a per-graph analysis session: Laplacians built once,
//!    spectra and min-cut sweeps cached, all Theorem 4/5/6 consumers served
//!    without recomputation — the seam every scaling layer plugs into.

pub mod bound;
pub mod closed_form;
pub mod engine;
pub mod laplacian;
pub mod partition;
pub mod published;
pub mod qap;

pub use bound::{
    is_certified, parallel_spectral_bound, spectral_bound, spectral_bound_original, BoundOptions,
    EigenMethod, ScaleTier, SpectralBound, DENSE_CUTOFF, HUGE_CUTOFF,
};
pub use engine::{
    CutKey, EngineStats, LaplacianKind, MethodKey, OwnedAnalyzer, SessionExport, SpectrumKey,
};
pub use laplacian::{normalized_laplacian, unnormalized_laplacian};
