//! The sharded LRU session cache.
//!
//! One [`OwnedAnalyzer`] session per graph fingerprint, shared across
//! requests: the first request for a graph pays the eigensolve, every
//! later request for the same structure (under *any* vertex numbering —
//! the fingerprint is relabeling-invariant) reuses the cached spectra.
//! This is the server-side shape of the paper's key structural fact: the
//! spectrum is a per-graph artifact independent of memory size, theorem
//! variant and processor count, so it amortizes across unbounded queries.
//!
//! The map is split into `N` shards, each behind its own mutex and picked
//! by fingerprint bits, so concurrent requests for *different* graphs
//! never contend on one lock (same-graph requests share a session and
//! contend only inside the engine's per-key single-flight slots, which is
//! exactly the contention that deduplicates work). Eviction is LRU per
//! shard under both a session-count cap and a byte budget; session sizes
//! are re-read on every eviction pass because a session's caches grow
//! after insertion, and the server re-runs the pass via
//! [`SessionCache::enforce_budget`] after each analysis completes — a
//! shard serving only cache hits still converges back under its budget,
//! without size-summing work on the per-hit fast path. Evicting a
//! session that requests still hold is safe — the `Arc` keeps it alive
//! until the last request drops it.
//!
//! Each entry also keeps one served-document slot: the last
//! `(AnalyzeSpec, body)` an `/analyze` on the session answered
//! ([`SessionCache::document`]). A repeat of that spec sends the stored
//! bytes instead of rebuilding them; the slot's bytes count against the
//! byte budget like the session's own caches.

use crate::analysis::AnalyzeSpec;
use graphio_graph::Fingerprint;
use graphio_spectral::{EngineStats, OwnedAnalyzer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sizing knobs for [`SessionCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independently locked shards (clamped to ≥ 1).
    pub shards: usize,
    /// Maximum cached sessions across all shards.
    pub max_sessions: usize,
    /// Byte budget across all shards (graph + cached Laplacians/spectra).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            max_sessions: 64,
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

struct Entry {
    analyzer: Arc<OwnedAnalyzer>,
    last_used: u64,
    /// The last document served from this session, and its spec.
    served: Option<(AnalyzeSpec, Arc<str>)>,
}

impl Entry {
    fn new(analyzer: Arc<OwnedAnalyzer>, last_used: u64) -> Entry {
        Entry {
            analyzer,
            last_used,
            served: None,
        }
    }

    /// The session's bytes plus its served-document slot's.
    fn bytes(&self) -> usize {
        let served = self.served.as_ref().map_or(0, |(spec, body)| {
            std::mem::size_of::<(AnalyzeSpec, Arc<str>)>()
                + spec.memories.len() * std::mem::size_of::<usize>()
                + body.len()
        });
        self.analyzer.approx_bytes() + served
    }
}

type Shard = HashMap<u128, Entry>;

/// Point-in-time cache counters (see [`SessionCache::stats`]).
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Sessions currently cached.
    pub sessions: usize,
    /// Approximate bytes held by cached sessions.
    pub bytes: usize,
    /// Approximate bytes per shard (indexed by shard id) — the gauge that
    /// makes a hot shard visible before its byte budget starts evicting.
    pub shard_bytes: Vec<usize>,
    /// Lookups that found a session.
    pub hits: u64,
    /// Lookups that had to create (or could not find) a session.
    pub misses: u64,
    /// Sessions evicted by the count cap or byte budget.
    pub evictions: u64,
    /// Engine counters summed over the *currently cached* sessions —
    /// `engine.spectrum_misses ≤ kinds × sessions` is the server-side
    /// proof that repeated requests do not repeat eigensolves.
    pub engine: EngineStats,
}

/// See the module docs.
pub struct SessionCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard caps: totals divided across shards, at least 1 session.
    sessions_per_shard: usize,
    bytes_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SessionCache {
    /// Creates an empty cache sized by `config`.
    pub fn new(config: &CacheConfig) -> SessionCache {
        let shards = config.shards.max(1);
        SessionCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            sessions_per_shard: (config.max_sessions / shards).max(1),
            bytes_per_shard: (config.max_bytes / shards).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<Shard> {
        // High bits: WL mixing makes every bit uniform, and not reusing
        // the low bits keeps shard choice independent of any downstream
        // HashMap bucketing of the same value.
        &self.shards[(fp.0 >> 64) as u64 as usize % self.shards.len()]
    }

    fn touch(&self, entry: &mut Entry) -> Arc<OwnedAnalyzer> {
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&entry.analyzer)
    }

    /// The session for `fp` if cached (refreshes recency).
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<OwnedAnalyzer>> {
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        match shard.get_mut(&fp.0) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(self.touch(entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Re-runs eviction on the shard holding `fp`. The server calls this
    /// after each analysis completes: sessions grow *after* insertion
    /// (every first-time eigensolve or min-cut sweep adds to the
    /// session's caches), so insert-time eviction alone would let a
    /// shard whose entries only ever get hit exceed its byte budget
    /// indefinitely. Running the check here — once the growth is
    /// actually visible in `approx_bytes`, off the per-hit fast path —
    /// keeps the budget honest without adding size-summing work under
    /// the shard lock on every lookup.
    pub fn enforce_budget(&self, fp: Fingerprint) {
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        self.evict(&mut shard);
    }

    /// Inserts a ready-made session for `fp` unless one is already
    /// cached, returning the cached-or-inserted session and whether a
    /// concurrent insert won the race. **No hit/miss counter moves**: this
    /// is the back-fill half of a lookup whose miss the caller already
    /// recorded via [`SessionCache::get`] — the persistent store's disk
    /// read happens between the two calls, outside any shard lock.
    pub fn insert_if_absent(
        &self,
        fp: Fingerprint,
        analyzer: OwnedAnalyzer,
    ) -> (Arc<OwnedAnalyzer>, bool) {
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        if let Some(entry) = shard.get_mut(&fp.0) {
            return (self.touch(entry), true);
        }
        let analyzer = Arc::new(analyzer);
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        shard.insert(fp.0, Entry::new(Arc::clone(&analyzer), last_used));
        self.evict(&mut shard);
        (analyzer, false)
    }

    /// The document `analyzer` (the session cached under `fp`) serves
    /// for `spec`: the slot's bytes when it holds `spec`, else `render()`'s,
    /// which then fill the slot. A session no longer cached under `fp`
    /// (evicted, or replaced after an eviction) renders without storing.
    /// Counter-silent, like [`SessionCache::insert_if_absent`].
    pub fn document(
        &self,
        fp: Fingerprint,
        analyzer: &Arc<OwnedAnalyzer>,
        spec: &AnalyzeSpec,
        render: impl FnOnce() -> String,
    ) -> Arc<str> {
        let ours = |entry: &Entry| Arc::ptr_eq(&entry.analyzer, analyzer);
        {
            let shard = self.shard(fp).lock().expect("cache shard lock");
            let slot = shard
                .get(&fp.0)
                .filter(|e| ours(e))
                .and_then(|e| e.served.as_ref());
            if let Some((_, body)) = slot.filter(|(served, _)| served == spec) {
                return Arc::clone(body);
            }
        }
        // Render outside the lock: a cold session's first document runs
        // the eigensolves.
        let body: Arc<str> = render().into();
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        if let Some(entry) = shard.get_mut(&fp.0).filter(|e| ours(e)) {
            entry.served = Some((spec.clone(), Arc::clone(&body)));
        }
        body
    }

    /// Evicts least-recently-used entries until the shard fits both its
    /// session cap and its byte budget. Always keeps at least one entry so
    /// a single over-budget session cannot thrash forever.
    fn evict(&self, shard: &mut Shard) {
        loop {
            let over_count = shard.len() > self.sessions_per_shard;
            let over_bytes = shard.len() > 1
                && shard.values().map(Entry::bytes).sum::<usize>() > self.bytes_per_shard;
            if !over_count && !over_bytes {
                return;
            }
            let Some(&oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            else {
                return;
            };
            shard.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when no session is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters, including engine stats summed over cached
    /// sessions.
    pub fn stats(&self) -> CacheStats {
        let mut sessions = 0usize;
        let mut bytes = 0usize;
        let mut shard_bytes = Vec::with_capacity(self.shards.len());
        let mut engine = EngineStats::default();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            sessions += shard.len();
            let mut this_shard = 0usize;
            for entry in shard.values() {
                this_shard += entry.bytes();
                let s = entry.analyzer.stats();
                engine.spectrum_misses += s.spectrum_misses;
                engine.spectrum_hits += s.spectrum_hits;
                engine.mincut_misses += s.mincut_misses;
                engine.mincut_hits += s.mincut_hits;
                engine.sim_misses += s.sim_misses;
                engine.sim_hits += s.sim_hits;
            }
            bytes += this_shard;
            shard_bytes.push(this_shard);
        }
        CacheStats {
            sessions,
            bytes,
            shard_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::fingerprint;
    use graphio_graph::generators::{diamond_dag, fft_butterfly};

    fn session(k: usize) -> OwnedAnalyzer {
        OwnedAnalyzer::from_graph(diamond_dag(k, k))
    }

    /// The server's lookup: a counted `get`, then on a miss the
    /// counter-silent `insert_if_absent`. Returns `(session, was_cached)`.
    fn lookup(
        cache: &SessionCache,
        fp: Fingerprint,
        make: impl FnOnce() -> OwnedAnalyzer,
    ) -> (Arc<OwnedAnalyzer>, bool) {
        match cache.get(fp) {
            Some(analyzer) => (analyzer, true),
            None => cache.insert_if_absent(fp, make()),
        }
    }

    #[test]
    fn caches_and_reuses_sessions() {
        let cache = SessionCache::new(&CacheConfig::default());
        let g = fft_butterfly(3);
        let fp = fingerprint(&g);
        let (a, hit) = lookup(&cache, fp, || OwnedAnalyzer::from_graph(g.clone()));
        assert!(!hit);
        let (b, hit) = lookup(&cache, fp, || panic!("must reuse the session"));
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&cache.get(fp).unwrap(), &a));
        let stats = cache.stats();
        assert_eq!((stats.sessions, stats.hits, stats.misses), (1, 2, 1));
    }

    #[test]
    fn count_cap_evicts_least_recently_used() {
        let cache = SessionCache::new(&CacheConfig {
            shards: 1,
            max_sessions: 2,
            max_bytes: usize::MAX,
        });
        let fps: Vec<Fingerprint> = (2..5)
            .map(|k| {
                let g = diamond_dag(k, k);
                let fp = fingerprint(&g);
                lookup(&cache, fp, || session(k));
                fp
            })
            .collect();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(fps[0]).is_none(), "oldest session must go");
        assert!(cache.get(fps[2]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_but_keeps_one() {
        let cache = SessionCache::new(&CacheConfig {
            shards: 1,
            max_sessions: 100,
            max_bytes: 1, // everything is over budget
        });
        for k in 2..6 {
            lookup(&cache, fingerprint(&diamond_dag(k, k)), || session(k));
        }
        assert_eq!(cache.len(), 1, "budget evicts down to a single session");
        assert!(cache.stats().bytes > 1);
    }

    /// Regression test for byte-budget staleness: a cached session grows
    /// on every *hit* that triggers a new eigensolve or min-cut sweep,
    /// and historically eviction only ran on insert — so a shard whose
    /// sessions only ever got hit could exceed `max_bytes` forever.
    /// `enforce_budget` (run by the server after every analysis) must
    /// re-check the budget once the growth is visible.
    #[test]
    fn byte_budget_is_reenforced_when_cached_sessions_grow() {
        let a = diamond_dag(4, 4);
        let b = diamond_dag(5, 5);
        let (fp_a, fp_b) = (fingerprint(&a), fingerprint(&b));
        // Budget that admits exactly the two idle sessions: analysis
        // sessions materialize Laplacians/spectra lazily, so any growth
        // at all puts the shard over budget without an insert happening.
        let budget = OwnedAnalyzer::from_graph(a.clone()).approx_bytes()
            + OwnedAnalyzer::from_graph(b.clone()).approx_bytes();
        let cache = SessionCache::new(&CacheConfig {
            shards: 1,
            max_sessions: 16,
            max_bytes: budget,
        });
        lookup(&cache, fp_a, || OwnedAnalyzer::from_graph(a));
        lookup(&cache, fp_b, || OwnedAnalyzer::from_graph(b));
        assert_eq!(cache.len(), 2, "both idle sessions fit the budget");

        // Repeated queries against the cached session grow it past the
        // budget without a single insert happening.
        let grown = cache.get(fp_a).expect("session a is cached");
        let opts = grown.default_options();
        for m in [2usize, 4, 8] {
            let _ = grown.bound(m, &opts);
            let _ = grown.bound_original(m, &opts);
        }
        let stale = cache.stats();
        assert!(
            stale.sessions == 2 && stale.bytes > budget,
            "the grown shard must exceed the budget for this test to bite: {stale:?}"
        );

        // The post-analysis enforcement observes the growth and evicts
        // the LRU session; the grown (just-used) one is kept, and the
        // "always keep one" rule stops a single over-budget session from
        // thrashing.
        cache.enforce_budget(fp_a);
        let stats = cache.stats();
        assert!(
            stats.evictions >= 1 && stats.sessions == 1,
            "enforce_budget must evict the over-budget shard: {stats:?}"
        );
        assert!(cache.get(fp_a).is_some(), "the grown session is kept");
        assert!(cache.get(fp_b).is_none(), "LRU session b was evicted");
        cache.enforce_budget(fp_a); // idempotent at one session
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_if_absent_backfills_without_counting() {
        let cache = SessionCache::new(&CacheConfig::default());
        let g = fft_butterfly(3);
        let fp = fingerprint(&g);
        assert!(cache.get(fp).is_none()); // the caller-recorded miss
        let (a, raced) = cache.insert_if_absent(fp, OwnedAnalyzer::from_graph(g.clone()));
        assert!(!raced);
        let (b, raced) = cache.insert_if_absent(fp, OwnedAnalyzer::from_graph(g));
        assert!(raced, "second insert finds the first");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        // Only the explicit get() moved a counter; the back-fills did not.
        assert_eq!((stats.hits, stats.misses, stats.sessions), (0, 1, 1));
    }

    #[test]
    fn document_slot_replays_one_spec_and_is_charged() {
        let cache = SessionCache::new(&CacheConfig::default());
        let g = fft_butterfly(3);
        let fp = fingerprint(&g);
        let (an, _) = lookup(&cache, fp, || OwnedAnalyzer::from_graph(g));
        let idle = cache.stats().bytes;
        let (two, four) = (AnalyzeSpec::sweep(vec![2]), AnalyzeSpec::sweep(vec![4]));
        let first = cache.document(fp, &an, &two, || "two\n".to_string());
        let again = cache.document(fp, &an, &two, || panic!("must replay the slot"));
        assert!(Arc::ptr_eq(&first, &again));
        assert!(cache.stats().bytes >= idle + "two\n".len());
        // Another spec renders and takes the one slot over.
        assert_eq!(
            &*cache.document(fp, &an, &four, || "four\n".to_string()),
            "four\n"
        );
        assert_eq!(&*cache.document(fp, &an, &two, || "2\n".to_string()), "2\n");
        // A session that is not the cached one renders and stores nothing.
        let stranger = Arc::new(OwnedAnalyzer::from_graph(fft_butterfly(3)));
        assert_eq!(
            &*cache.document(fp, &stranger, &two, || "x\n".to_string()),
            "x\n"
        );
        assert_eq!(
            &*cache.document(fp, &an, &two, || panic!("slot kept")),
            "2\n"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "the slot moves no counter"
        );
    }

    #[test]
    fn stats_report_per_shard_byte_gauges() {
        let cache = SessionCache::new(&CacheConfig {
            shards: 4,
            max_sessions: 64,
            max_bytes: usize::MAX,
        });
        for k in 2..8 {
            let g = diamond_dag(k, k);
            lookup(&cache, fingerprint(&g), || {
                OwnedAnalyzer::from_graph(g.clone())
            });
        }
        let stats = cache.stats();
        assert_eq!(stats.shard_bytes.len(), 4);
        assert_eq!(stats.shard_bytes.iter().sum::<usize>(), stats.bytes);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn shards_hold_disjoint_fingerprints() {
        let cache = SessionCache::new(&CacheConfig {
            shards: 4,
            max_sessions: 64,
            max_bytes: usize::MAX,
        });
        let fps: Vec<Fingerprint> = (2..10)
            .map(|k| {
                let g = diamond_dag(k, 2);
                let fp = fingerprint(&g);
                lookup(&cache, fp, || OwnedAnalyzer::from_graph(g));
                fp
            })
            .collect();
        assert_eq!(cache.len(), fps.len());
        for fp in fps {
            assert!(cache.get(fp).is_some());
        }
    }
}
