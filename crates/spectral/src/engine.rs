//! The per-graph spectral analysis engine.
//!
//! The paper's solver (§6.5) computes the `h` smallest Laplacian
//! eigenvalues **once** per graph and then maximizes the Theorem 4
//! objective over `k` — the spectrum is independent of the memory size
//! `M`, the processor count `p`, and the Theorem 4/5/6 variant's
//! optimization, so recomputing it per `(M, variant, p)` combination
//! (as the original bench harness did) wastes the dominant cost of the
//! whole pipeline.
//!
//! An [`OwnedAnalyzer`] session owns its graph, so it serves one-shot
//! consumers (the CLI, benches, examples) and outlives any single request
//! in the analysis service's cross-request cache alike:
//!
//! * each Laplacian (normalized `L̃` / unnormalized `L`) is **built once**,
//! * spectra are **cached** keyed by `(Laplacian kind, h, eigensolver
//!   options)` with per-key *single-flight*: concurrent requests for the
//!   same spectrum block on one solve instead of racing to duplicate it,
//!   so a session performs **at most one eigensolve per key** no matter
//!   how many threads hit it (solver errors are not cached and retry),
//! * the maximum wavefront cut of the convex min-cut baseline (also
//!   `M`-independent) is cached the same way keyed by its sweep strategy,
//! * the simulated upper bound — the better of LRU and Bélády over the
//!   graph's natural topological order — is cached the same way keyed by
//!   the memory size `M`, so a warm request re-simulates nothing.
//!
//! The three caches share one single-flight memo implementation, and
//! every downstream consumer — Theorem 4/5/6 bounds across arbitrary
//! memory sweeps, closed-form comparisons, the CLI's `analyze` command,
//! the analysis server, the per-figure bench modules — pulls from them.
//! Bounds served by the engine are **bit-identical** to the direct
//! [`spectral_bound`] / [`spectral_bound_original`] /
//! [`parallel_spectral_bound`] calls: both paths build the same Laplacian,
//! call the same eigensolver with the same options, and evaluate the same
//! theorem form.
//!
//! The session is `Sync`: interior caches sit behind locks, so concurrent
//! consumers (per-`M` worker threads, server workers) can share one
//! session.
//!
//! [`spectral_bound`]: crate::bound::spectral_bound
//! [`spectral_bound_original`]: crate::bound::spectral_bound_original
//! [`parallel_spectral_bound`]: crate::bound::parallel_spectral_bound

use crate::bound::{BoundOptions, EigenMethod, SpectralBound, Theorem};
use crate::laplacian::{normalized_laplacian, unnormalized_laplacian};
use graphio_baselines::convex_mincut::{
    convex_min_cut_bound, ConvexMinCutOptions, ConvexMinCutResult, VertexSweep,
};
use graphio_graph::topo::natural_order;
use graphio_graph::CompGraph;
use graphio_linalg::{CsrMatrix, LinalgError};
use graphio_pebble::{simulate, Policy};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which Laplacian of the computation graph a spectrum belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaplacianKind {
    /// The out-degree-normalized `L̃` of Theorem 4 (and Theorem 6).
    Normalized,
    /// The plain `L` of Theorem 5 and the closed-form comparisons.
    Unnormalized,
}

impl LaplacianKind {
    /// Both kinds, in cache-slot order.
    pub const ALL: [LaplacianKind; 2] = [LaplacianKind::Normalized, LaplacianKind::Unnormalized];

    fn slot(self) -> usize {
        match self {
            LaplacianKind::Normalized => 0,
            LaplacianKind::Unnormalized => 1,
        }
    }

    /// Builds this Laplacian of `g`.
    pub(crate) fn build(self, g: &CompGraph) -> CsrMatrix {
        match self {
            LaplacianKind::Normalized => normalized_laplacian(g),
            LaplacianKind::Unnormalized => unnormalized_laplacian(g),
        }
    }
}

/// Canonical cache key for one eigensolve: `EigenMethod::Auto` is resolved
/// against the graph size so it shares a slot with the explicit method it
/// would dispatch to, and `fixed_k` is deliberately absent (it only affects
/// the cheap `k`-maximization, not the spectrum).
///
/// Public (with [`MethodKey`] and [`CutKey`]) so session snapshots can be
/// serialized and restored by the persistence layer (`graphio_store`):
/// a stored spectrum is only reusable if its *key* round-trips exactly.
/// `Ord` gives snapshots a canonical ordering, so exporting the same
/// session twice yields identical bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpectrumKey {
    /// Which Laplacian the spectrum belongs to.
    pub kind: LaplacianKind,
    /// Number of smallest eigenvalues computed (already clamped to `n`).
    pub h: usize,
    /// The resolved eigensolver (never `Auto`).
    pub method: MethodKey,
}

/// The resolved eigensolver half of a [`SpectrumKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MethodKey {
    /// The dense O(n³) solver.
    Dense,
    /// Deflated Lanczos with every result-determining option pinned
    /// (`tol` as raw bits so the key is `Eq`/`Hash` without float caveats),
    /// plus the revision of the solver's sweep policy, which moves the
    /// last digits of its values for the same options.
    Lanczos {
        /// Krylov subspace dimension.
        subspace: usize,
        /// Convergence tolerance, as `f64::to_bits`.
        tol_bits: u64,
        /// Maximum restart sweeps.
        max_sweeps: usize,
        /// Starting-vector seed.
        seed: u64,
        /// The sweep policy that computed the spectrum
        /// ([`graphio_linalg::lanczos::SWEEP_POLICY_REVISION`] for a fresh
        /// solve; a spectrum restored from an older store may carry an
        /// older one, and then no lookup of a fresh key finds it).
        revision: u8,
    },
}

impl MethodKey {
    /// The solver's wire name (`"method"` in analyze documents):
    /// `dense` / `lanczos`.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKey::Dense => "dense",
            MethodKey::Lanczos { .. } => "lanczos",
        }
    }
}

impl SpectrumKey {
    /// Mirrors the dispatch in [`crate::bound::smallest_eigenvalues`]
    /// exactly (via [`BoundOptions::resolved_method`]), so cached results
    /// are the ones direct calls would produce.
    pub fn for_options(kind: LaplacianKind, opts: &BoundOptions, n: usize) -> Self {
        let method = match opts.resolved_method(n) {
            EigenMethod::Dense => MethodKey::Dense,
            EigenMethod::Lanczos(o) => MethodKey::Lanczos {
                subspace: o.subspace,
                tol_bits: o.tol.to_bits(),
                max_sweeps: o.max_sweeps,
                seed: o.seed,
                revision: graphio_linalg::lanczos::SWEEP_POLICY_REVISION,
            },
            EigenMethod::Auto => unreachable!("resolved_method never returns Auto"),
        };
        SpectrumKey {
            kind,
            h: opts.h.min(n),
            method,
        }
    }
}

/// Cache key for the convex min-cut baseline (`threads` is excluded — it
/// does not change the result). Public for the same serialization reasons
/// as [`SpectrumKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CutKey {
    /// The full per-vertex sweep.
    All,
    /// A deterministic random sample of vertices.
    Sample {
        /// Number of vertices evaluated.
        count: usize,
        /// Sampling seed.
        seed: u64,
    },
}

impl CutKey {
    /// The cache key [`OwnedAnalyzer::min_cut`] uses for `opts`.
    pub fn for_options(opts: &ConvexMinCutOptions) -> Self {
        match opts.sweep {
            VertexSweep::All => CutKey::All,
            VertexSweep::Sample { count, seed } => CutKey::Sample { count, seed },
        }
    }
}

/// A serializable snapshot of everything expensive a session has computed:
/// the cached spectra (keyed by [`SpectrumKey`]), min-cut sweep results
/// (keyed by [`CutKey`]) and simulated upper bounds (keyed by memory). The
/// graph itself is *not* included — the caller owns it (and the
/// persistence layer stores it alongside).
///
/// Entries are sorted by key, so exporting an unchanged session always
/// yields the same value (and, downstream, the same encoded bytes — which
/// is how the store's write-through skips no-op appends).
///
/// Produced by [`OwnedAnalyzer::export`]; consumed by
/// [`OwnedAnalyzer::import`], which seeds a fresh session's caches so
/// later bound requests are pure cache hits — zero eigensolves, zero
/// min-cut sweeps, zero simulations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionExport {
    /// Cached spectra: the `h` smallest eigenvalues per key, ascending.
    pub spectra: Vec<(SpectrumKey, Vec<f64>)>,
    /// Cached min-cut sweep results per sweep strategy.
    pub cuts: Vec<(CutKey, ConvexMinCutResult)>,
    /// Cached simulated upper bounds per memory size, sorted by memory;
    /// `None` where no policy could run at that memory.
    pub sims: Vec<(usize, Option<u64>)>,
}

impl SessionExport {
    /// True when the snapshot carries no computed artifacts.
    pub fn is_empty(&self) -> bool {
        self.spectra.is_empty() && self.cuts.is_empty() && self.sims.is_empty()
    }
}

/// Cache-effectiveness counters for one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Eigensolves actually executed.
    pub spectrum_misses: u64,
    /// Spectrum requests served from cache.
    pub spectrum_hits: u64,
    /// Min-cut sweeps actually executed.
    pub mincut_misses: u64,
    /// Min-cut requests served from cache.
    pub mincut_hits: u64,
    /// Simulated upper bounds actually computed (one per memory size).
    pub sim_misses: u64,
    /// Simulated upper bounds served from cache.
    pub sim_hits: u64,
}

/// A single-flight memo: the outer map hands every caller of a key the
/// same slot, and the slot's own mutex is held across the computation, so
/// a second caller with the same key blocks and then reads the first
/// one's result instead of duplicating it. Different keys use different
/// slots and proceed in parallel. Failures leave the slot empty, so the
/// next caller retries.
#[derive(Debug)]
struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Clone + Eq + Hash + Ord, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn slot(&self, key: K) -> Arc<Mutex<Option<V>>> {
        Arc::clone(
            self.slots
                .lock()
                .expect("memo lock")
                .entry(key)
                .or_default(),
        )
    }

    /// The cached value under `key`, or `compute`'s result stored there. A
    /// hit or a miss is counted either way; an error is returned uncached.
    fn get_or_try<E>(&self, key: K, compute: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        let slot = self.slot(key);
        let mut value = slot.lock().expect("memo slot lock");
        if let Some(hit) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = compute()?;
        *value = Some(computed.clone());
        Ok(computed)
    }

    /// [`Memo::get_or_try`] for a computation that cannot fail.
    fn get_or(&self, key: K, compute: impl FnOnce() -> V) -> V {
        match self.get_or_try(key, || Ok::<V, Infallible>(compute())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// Every filled slot, sorted by key. Slots whose computation is still
    /// in flight are skipped: `try_lock` keeps the snapshot non-blocking,
    /// and an in-flight value simply lands in the next one.
    fn snapshot(&self) -> Vec<(K, V)> {
        let mut entries: Vec<(K, V)> = {
            let slots = self.slots.lock().expect("memo lock");
            slots
                .iter()
                .filter_map(|(key, slot)| {
                    let value = slot.try_lock().ok()?;
                    Some((key.clone(), value.as_ref()?.clone()))
                })
                .collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Stores `value` under `key` unless the slot already holds one (a
    /// fresher local result wins). No counter moves.
    fn seed(&self, key: K, value: V) {
        let slot = self.slot(key);
        let mut current = slot.lock().expect("memo slot lock");
        if current.is_none() {
            *current = Some(value);
        }
    }

    /// Number of slots, filled or not.
    fn len(&self) -> usize {
        self.slots.lock().expect("memo lock").len()
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A per-graph spectral analysis session (see the module docs). It owns
/// its graph, so it can live in a cross-request cache (the analysis
/// service's session cache) and be shared between worker threads.
pub struct OwnedAnalyzer {
    graph: CompGraph,
    laplacians: [OnceLock<CsrMatrix>; 2],
    /// The `h` smallest eigenvalues per solve, shared by `Arc`.
    spectra: Memo<SpectrumKey, Arc<Vec<f64>>>,
    cuts: Memo<CutKey, ConvexMinCutResult>,
    /// Simulated upper bounds keyed by memory size.
    sims: Memo<usize, Option<u64>>,
}

impl OwnedAnalyzer {
    /// Opens an analysis session on `graph`. Nothing is computed until the
    /// first request.
    pub fn from_graph(graph: CompGraph) -> Self {
        OwnedAnalyzer {
            graph,
            laplacians: [OnceLock::new(), OnceLock::new()],
            spectra: Memo::new(),
            cuts: Memo::new(),
            sims: Memo::new(),
        }
    }

    /// The graph under analysis.
    pub fn graph(&self) -> &CompGraph {
        &self.graph
    }

    /// The size-scaled default options for this graph
    /// ([`BoundOptions::for_graph_size`]).
    pub fn default_options(&self) -> BoundOptions {
        BoundOptions::for_graph_size(self.graph.n())
    }

    /// The requested Laplacian, built on first use and cached.
    pub fn laplacian(&self, kind: LaplacianKind) -> &CsrMatrix {
        self.laplacians[kind.slot()].get_or_init(|| {
            let _span = graphio_obs::span!("laplacian");
            kind.build(&self.graph)
        })
    }

    /// The `h` smallest eigenvalues of the requested Laplacian, computed
    /// once per distinct `(kind, h, eigensolver options)` and cached, with
    /// single-flight de-duplication of concurrent same-key solves.
    /// Errors are not cached; a failed solve is retried on the next call.
    ///
    /// # Errors
    /// Propagates eigensolver failures ([`LinalgError`]).
    pub fn spectrum(
        &self,
        kind: LaplacianKind,
        opts: &BoundOptions,
    ) -> Result<Arc<Vec<f64>>, LinalgError> {
        let key = SpectrumKey::for_options(kind, opts, self.graph.n());
        self.spectra.get_or_try(key, || {
            let _span = graphio_obs::span!("eigensolve");
            crate::bound::smallest_eigenvalues(self.laplacian(kind), opts).map(Arc::new)
        })
    }

    fn theorem_bound(
        &self,
        theorem: Theorem,
        memory: usize,
        opts: &BoundOptions,
    ) -> Result<SpectralBound, LinalgError> {
        let eigs = self.spectrum(theorem.laplacian(), opts)?;
        Ok(theorem.evaluate(&self.graph, &eigs, memory, opts.fixed_k))
    }

    /// Theorem 4 — bit-identical to [`crate::bound::spectral_bound`], with
    /// the eigensolve served from cache.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn bound(&self, memory: usize, opts: &BoundOptions) -> Result<SpectralBound, LinalgError> {
        self.theorem_bound(Theorem::Four, memory, opts)
    }

    /// Theorem 5 — bit-identical to
    /// [`crate::bound::spectral_bound_original`], with the eigensolve
    /// served from cache.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn bound_original(
        &self,
        memory: usize,
        opts: &BoundOptions,
    ) -> Result<SpectralBound, LinalgError> {
        self.theorem_bound(Theorem::Five, memory, opts)
    }

    /// Theorem 6 — bit-identical to
    /// [`crate::bound::parallel_spectral_bound`], with the eigensolve
    /// served from cache.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    pub fn parallel_bound(
        &self,
        memory: usize,
        processors: usize,
        opts: &BoundOptions,
    ) -> Result<SpectralBound, LinalgError> {
        self.theorem_bound(Theorem::Six(processors), memory, opts)
    }

    /// Theorem 4 across a memory sweep — exactly one eigensolve however
    /// many memory sizes are requested.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn memory_sweep(
        &self,
        memories: &[usize],
        opts: &BoundOptions,
    ) -> Result<Vec<SpectralBound>, LinalgError> {
        memories.iter().map(|&m| self.bound(m, opts)).collect()
    }

    /// The convex min-cut baseline's sweep result (`M`-independent),
    /// computed once per sweep strategy and cached.
    pub fn min_cut(&self, opts: &ConvexMinCutOptions) -> ConvexMinCutResult {
        self.cuts.get_or(CutKey::for_options(opts), || {
            let _span = graphio_obs::span!("mincut");
            // Memory 0 keeps the cached result M-independent; bounds for a
            // concrete M are derived in `min_cut_bound`.
            convex_min_cut_bound(&self.graph, 0, opts)
        })
    }

    /// The convex min-cut lower bound `2·max(0, max_cut − M)` for one
    /// memory size, derived from the cached sweep.
    pub fn min_cut_bound(&self, memory: usize, opts: &ConvexMinCutOptions) -> u64 {
        2 * self.min_cut(opts).max_cut.saturating_sub(memory as u64)
    }

    /// The simulated upper bound at each of `memories` — the fewer I/Os
    /// of LRU and Bélády over [`natural_order`], `None` where neither
    /// policy fits in memory — simulated once per memory size and cached.
    /// The order is built once per call, on its first miss.
    pub fn sim_uppers(&self, memories: &[usize]) -> Vec<Option<u64>> {
        let mut order: Option<Vec<usize>> = None;
        memories
            .iter()
            .map(|&m| {
                self.sims.get_or(m, || {
                    let _span = graphio_obs::span!("simulate");
                    let order = order.get_or_insert_with(|| natural_order(&self.graph));
                    [Policy::Lru, Policy::Belady]
                        .iter()
                        .filter_map(|&p| simulate(&self.graph, order, m, p, 0).ok().map(|r| r.io()))
                        .min()
                })
            })
            .collect()
    }

    /// Snapshots every cached spectrum, min-cut result and simulated upper
    /// bound into a serializable [`SessionExport`] (sorted by key;
    /// in-flight solves are skipped). The persistence layer stores this
    /// next to the graph so a future process can [`OwnedAnalyzer::import`]
    /// it instead of re-solving.
    pub fn export(&self) -> SessionExport {
        SessionExport {
            spectra: self
                .spectra
                .snapshot()
                .into_iter()
                .map(|(key, eigs)| (key, eigs.to_vec()))
                .collect(),
            cuts: self.cuts.snapshot(),
            sims: self.sims.snapshot(),
        }
    }

    /// Seeds this session's caches from a previously exported snapshot.
    /// Slots already computed locally are kept; hit/miss counters do not
    /// move. After importing a snapshot produced by an identical graph,
    /// bound requests covered by the snapshot perform **zero** eigensolves,
    /// **zero** min-cut sweeps and **zero** simulations.
    ///
    /// Lanczos spectra computed under an older sweep policy
    /// ([`MethodKey::Lanczos`]'s `revision`) are skipped: no lookup of a
    /// fresh key can reach them, so they would only take cache bytes and be
    /// written back on the next save.
    ///
    /// The caller is responsible for pairing snapshots with the right
    /// graph (the store keys both by the same structural fingerprint);
    /// importing another graph's spectra silently yields wrong bounds.
    pub fn import(&self, snapshot: &SessionExport) {
        for (key, eigs) in &snapshot.spectra {
            if matches!(key.method, MethodKey::Lanczos { revision, .. }
                if revision != graphio_linalg::lanczos::SWEEP_POLICY_REVISION)
            {
                continue;
            }
            self.spectra.seed(key.clone(), Arc::new(eigs.clone()));
        }
        for (key, cut) in &snapshot.cuts {
            self.cuts.seed(key.clone(), cut.clone());
        }
        for &(m, best) in &snapshot.sims {
            self.sims.seed(m, best);
        }
    }

    /// Cache-effectiveness counters for this session.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            spectrum_misses: self.spectra.misses(),
            spectrum_hits: self.spectra.hits(),
            mincut_misses: self.cuts.misses(),
            mincut_hits: self.cuts.hits(),
            sim_misses: self.sims.misses(),
            sim_hits: self.sims.hits(),
        }
    }

    /// Approximate heap footprint of the session: the graph plus every
    /// cached Laplacian (its arrays' capacities, padding included),
    /// spectrum and simulated bound. The service's session cache charges
    /// this against its byte budget; it grows as caches fill, so the
    /// cache re-reads it on every touch.
    pub fn approx_bytes(&self) -> usize {
        let lap_bytes: usize = self
            .laplacians
            .iter()
            .filter_map(OnceLock::get)
            .map(CsrMatrix::heap_bytes)
            .sum();
        let spec_bytes: usize = self
            .spectra
            .snapshot()
            .iter()
            .map(|(_, eigs)| eigs.len() * 8 + 64)
            .sum();
        // Per memoized memory: the map entry, its slot and the slot's
        // mutex — the same flat overhead a spectrum entry carries.
        let sim_bytes = self.sims.len() * 64;
        self.graph.approx_bytes() + lap_bytes + spec_bytes + sim_bytes
    }
}

impl std::fmt::Debug for OwnedAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnedAnalyzer")
            .field("n", &self.graph.n())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::{spectral_bound, spectral_bound_original};
    use graphio_graph::generators::{bhk_hypercube, fft_butterfly};

    #[test]
    fn cache_keys_canonicalize_auto_dispatch() {
        // Auto on a small graph == explicit Dense; h clamps to n.
        let auto = BoundOptions::default();
        let dense = BoundOptions {
            method: EigenMethod::Dense,
            ..Default::default()
        };
        let a = SpectrumKey::for_options(LaplacianKind::Normalized, &auto, 50);
        let d = SpectrumKey::for_options(LaplacianKind::Normalized, &dense, 50);
        assert_eq!(a, d);
        assert_eq!(a.h, 50);
        // Auto above the cutoff == explicit default Lanczos.
        let a_big = SpectrumKey::for_options(LaplacianKind::Normalized, &auto, 10_000);
        let l_big = SpectrumKey::for_options(
            LaplacianKind::Normalized,
            &BoundOptions {
                method: EigenMethod::Lanczos(Default::default()),
                ..Default::default()
            },
            10_000,
        );
        assert_eq!(a_big, l_big);
        // fixed_k shares the spectrum slot.
        let fixed = BoundOptions {
            fixed_k: Some(3),
            ..Default::default()
        };
        assert_eq!(
            a,
            SpectrumKey::for_options(LaplacianKind::Normalized, &fixed, 50)
        );
    }

    #[test]
    fn served_bounds_match_direct_calls_exactly() {
        let g = fft_butterfly(5);
        let an = OwnedAnalyzer::from_graph(g.clone());
        let opts = BoundOptions::default();
        for m in [1usize, 4, 16] {
            let direct = spectral_bound(&g, m, &opts).unwrap();
            let served = an.bound(m, &opts).unwrap();
            assert_eq!(direct.bound.to_bits(), served.bound.to_bits());
            assert_eq!(direct.raw.to_bits(), served.raw.to_bits());
            assert_eq!(direct.best_k, served.best_k);
            assert_eq!(direct.eigenvalues, served.eigenvalues);

            let direct5 = spectral_bound_original(&g, m, &opts).unwrap();
            let served5 = an.bound_original(m, &opts).unwrap();
            assert_eq!(direct5.bound.to_bits(), served5.bound.to_bits());
            assert_eq!(direct5.best_k, served5.best_k);
        }
        assert!(an.approx_bytes() > g.approx_bytes());
    }

    #[test]
    fn sweep_and_parallel_bounds_share_one_spectrum() {
        let an = OwnedAnalyzer::from_graph(bhk_hypercube(6));
        let opts = an.default_options();
        let sweep = an.memory_sweep(&[2, 4, 8, 16], &opts).unwrap();
        assert_eq!(sweep.len(), 4);
        for p in [1usize, 2, 4] {
            let _ = an.parallel_bound(4, p, &opts).unwrap();
        }
        let stats = an.stats();
        assert_eq!(stats.spectrum_misses, 1, "{stats:?}");
        assert_eq!(stats.spectrum_hits, 6, "{stats:?}");
    }

    #[test]
    fn min_cut_is_cached_and_memory_derived() {
        let g = fft_butterfly(4);
        let an = OwnedAnalyzer::from_graph(g.clone());
        let opts = ConvexMinCutOptions::default();
        let direct = convex_min_cut_bound(&g, 3, &opts);
        assert_eq!(an.min_cut_bound(3, &opts), direct.bound);
        assert_eq!(an.min_cut_bound(100, &opts), 0);
        let stats = an.stats();
        assert_eq!(stats.mincut_misses, 1);
        assert_eq!(stats.mincut_hits, 1);
    }

    #[test]
    fn analyzer_is_sync_and_shareable() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<OwnedAnalyzer>();
        let an = OwnedAnalyzer::from_graph(fft_butterfly(4));
        let opts = an.default_options();
        std::thread::scope(|s| {
            for m in [2usize, 4, 8] {
                let an = &an;
                let opts = &opts;
                s.spawn(move || an.bound(m, opts).unwrap());
            }
        });
        let stats = an.stats();
        assert_eq!(stats.spectrum_hits + stats.spectrum_misses, 3);
        assert!(stats.spectrum_misses >= 1);
    }

    #[test]
    fn export_import_roundtrips_without_recomputation() {
        let g = fft_butterfly(4);
        let warm = OwnedAnalyzer::from_graph(g.clone());
        let opts = warm.default_options();
        let mc = ConvexMinCutOptions::default();
        let direct: Vec<_> = [2usize, 4, 8]
            .iter()
            .map(|&m| {
                (
                    warm.bound(m, &opts).unwrap(),
                    warm.bound_original(m, &opts).unwrap(),
                    warm.min_cut_bound(m, &mc),
                )
            })
            .collect();
        let sims = warm.sim_uppers(&[8, 2, 4]);
        let snapshot = warm.export();
        assert_eq!(snapshot.spectra.len(), 2, "both Laplacian kinds cached");
        assert_eq!(snapshot.cuts.len(), 1);
        assert_eq!(
            snapshot.sims.iter().map(|&(m, _)| m).collect::<Vec<_>>(),
            vec![2, 4, 8],
            "sims export sorted by memory"
        );
        assert!(!snapshot.is_empty());
        // A second export of the unchanged session is identical (the
        // determinism the store's skip-if-unchanged write-through needs).
        assert_eq!(snapshot, warm.export());

        let restored = OwnedAnalyzer::from_graph(g);
        restored.import(&snapshot);
        for (m, (b4, b5, mc_bound)) in [2usize, 4, 8].into_iter().zip(&direct) {
            let r4 = restored.bound(m, &opts).unwrap();
            assert_eq!(b4.bound.to_bits(), r4.bound.to_bits());
            assert_eq!(b4.best_k, r4.best_k);
            let r5 = restored.bound_original(m, &opts).unwrap();
            assert_eq!(b5.bound.to_bits(), r5.bound.to_bits());
            assert_eq!(*mc_bound, restored.min_cut_bound(m, &mc));
        }
        assert_eq!(restored.sim_uppers(&[8, 2, 4]), sims);
        let stats = restored.stats();
        assert_eq!(
            (stats.spectrum_misses, stats.mincut_misses, stats.sim_misses),
            (0, 0, 0),
            "imported session must not recompute: {stats:?}"
        );
    }

    #[test]
    fn sim_uppers_match_direct_simulation_and_are_memoized_per_memory() {
        let g = fft_butterfly(4);
        let an = OwnedAnalyzer::from_graph(g.clone());
        let order = natural_order(&g);
        let direct = |m: usize| {
            [Policy::Lru, Policy::Belady]
                .iter()
                .filter_map(|&p| simulate(&g, &order, m, p, 0).ok().map(|r| r.io()))
                .min()
        };
        // M = 1 fits no vertex with two parents: both policies fail.
        assert_eq!(an.sim_uppers(&[1, 4, 8]), vec![None, direct(4), direct(8)]);
        assert_eq!(an.sim_uppers(&[8, 16]), vec![direct(8), direct(16)]);
        let stats = an.stats();
        assert_eq!((stats.sim_misses, stats.sim_hits), (4, 1), "{stats:?}");
        let bytes = an.approx_bytes();
        an.sim_uppers(&[32]);
        assert!(an.approx_bytes() > bytes, "the memo is charged");
    }

    /// A session charges its graph, each built Laplacian's array
    /// capacities (padding included), its spectra and its simulations.
    #[test]
    fn approx_bytes_charges_what_the_session_holds() {
        let g = bhk_hypercube(4);
        let an = OwnedAnalyzer::from_graph(g.clone());
        assert_eq!(an.approx_bytes(), g.approx_bytes());
        let opts = BoundOptions::default();
        let h = an.spectrum(LaplacianKind::Normalized, &opts).unwrap().len();
        an.sim_uppers(&[4, 8]);
        let lt = an.laplacian(LaplacianKind::Normalized);
        // 16 rows of 5 entries: two blocks of 5 steps, 8 lanes each.
        assert_eq!(lt.heap_bytes(), 3 * 8 + 2 * 5 * 8 * (4 + 8));
        let l = an.laplacian(LaplacianKind::Unnormalized);
        assert_eq!(
            an.approx_bytes(),
            g.approx_bytes() + lt.heap_bytes() + l.heap_bytes() + (h * 8 + 64) + 2 * 64
        );
    }

    #[test]
    fn concurrent_same_memory_simulations_single_flight() {
        let an = OwnedAnalyzer::from_graph(fft_butterfly(5));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let an = &an;
                s.spawn(move || an.sim_uppers(&[8]));
            }
        });
        let stats = an.stats();
        assert_eq!((stats.sim_misses, stats.sim_hits), (1, 7), "{stats:?}");
    }

    #[test]
    fn import_keeps_locally_computed_slots_and_empty_export_is_noop() {
        let g = fft_butterfly(3);
        let an = OwnedAnalyzer::from_graph(g.clone());
        let opts = an.default_options();
        let local = an.bound(4, &opts).unwrap();
        // An import carrying a bogus spectrum under the same key must not
        // clobber the locally computed value.
        let mut snapshot = an.export();
        for (_, eigs) in &mut snapshot.spectra {
            eigs.iter_mut().for_each(|e| *e += 1.0);
        }
        an.import(&snapshot);
        let after = an.bound(4, &opts).unwrap();
        assert_eq!(local.bound.to_bits(), after.bound.to_bits());

        let fresh = OwnedAnalyzer::from_graph(g);
        fresh.import(&SessionExport::default());
        assert!(fresh.export().is_empty());
        assert_eq!(fresh.stats(), EngineStats::default());
    }

    #[test]
    fn concurrent_same_key_requests_single_flight() {
        // 16 threads hammer the same spectrum key; single-flight must
        // collapse them to exactly one eigensolve.
        let g = bhk_hypercube(7);
        let an = OwnedAnalyzer::from_graph(g);
        let opts = an.default_options();
        std::thread::scope(|s| {
            for _ in 0..16 {
                let an = &an;
                let opts = &opts;
                s.spawn(move || an.bound(8, opts).unwrap());
            }
        });
        let stats = an.stats();
        assert_eq!(stats.spectrum_misses, 1, "{stats:?}");
        assert_eq!(stats.spectrum_hits, 15, "{stats:?}");
    }
}
