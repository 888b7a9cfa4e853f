//! `graphio_store` — a persistent, content-addressed store for analysis
//! sessions.
//!
//! The paper's bounds are pure functions of the computation graph: the
//! Laplacian spectra behind Theorems 4/5/6 and the min-cut sweep depend on
//! nothing but the structure, so once computed they are valid forever —
//! exactly the "statically analyzable" artifacts worth computing once and
//! reusing (cf. Kwasniewski et al., arXiv:2105.07203). The analysis
//! service (PRs 2–3) already amortizes them across requests in RAM; this
//! crate makes that amortization survive process death:
//!
//! * [`codec`] — a versioned, explicitly little-endian binary encoding of
//!   graphs, spectra, min-cut results, simulated upper bounds and whole
//!   session snapshots, CRC32
//!   per record, pinned by a golden-bytes test;
//! * [`segment`] — an append-only segment log keyed by the 128-bit
//!   relabeling-invariant WL fingerprint, with an in-memory index,
//!   crash-safe appends (flush-before-index) and temp+rename compaction,
//!   torn-tail recovery, and a configurable byte budget;
//! * session-level helpers on this module — [`save_session`] /
//!   [`load_session`] / [`warm_session`] — gluing an
//!   [`OwnedAnalyzer`] to the log so a
//!   server (or the `graphio precompute` CLI) can persist a session and a
//!   later process can restore it and serve bounds **bit-identically with
//!   zero eigensolves**.
//!
//! `serve --trace-store DIR` reuses [`Store`] as a log of pinned flight-
//! recorder traces keyed by trace ID. Those records are the `GET
//! /trace/{id}` JSON bytes, opaque to this crate; [`codec`] has no trace
//! format.
//!
//! ```no_run
//! use graphio_graph::{fingerprint, generators::fft_butterfly};
//! use graphio_spectral::OwnedAnalyzer;
//! use graphio_store::{load_session, save_session, warm_session, Store, StoreConfig};
//!
//! let store = Store::open("analysis-store", StoreConfig::default()).unwrap();
//! let g = fft_butterfly(8);
//! let fp = fingerprint(&g);
//! let analyzer = OwnedAnalyzer::from_graph(g);
//! warm_session(&analyzer).unwrap();          // materialize spectra + min-cut
//! save_session(&store, fp, &analyzer).unwrap();
//! // ... any process, any time later:
//! let restored = load_session(&store, fp).unwrap().unwrap();
//! // restored serves every bound from the imported caches — 0 eigensolves.
//! ```

pub mod codec;
pub mod segment;

pub use codec::{
    canonical_edge_list, decode_session, encode_session, CodecError, StoredSession, SESSION_VERSION,
};
pub use segment::{Store, StoreConfig, StoreStats};

use graphio_baselines::convex_mincut::ConvexMinCutOptions;
use graphio_graph::Fingerprint;
use graphio_linalg::LinalgError;
use graphio_spectral::{is_certified, BoundOptions, LaplacianKind, OwnedAnalyzer};
use std::io;

/// Materializes every artifact the canonical analysis document needs —
/// both Laplacian spectra under the size-scaled option schedule and the
/// min-cut sweep — so that a subsequent [`save_session`] captures a
/// snapshot from which *any* memory sweep, theorem variant and processor
/// count is answerable without recomputation. This is the work
/// `graphio precompute` does per corpus graph. Where the document serves
/// no spectral bound ([`is_certified`]), no spectrum is computed.
///
/// # Errors
/// Propagates eigensolver failures ([`LinalgError`]).
pub fn warm_session(analyzer: &OwnedAnalyzer) -> Result<(), LinalgError> {
    let n = analyzer.graph().n();
    if is_certified(n) {
        let opts = BoundOptions::for_graph_size(n);
        analyzer.spectrum(LaplacianKind::Normalized, &opts)?;
        analyzer.spectrum(LaplacianKind::Unnormalized, &opts)?;
    }
    analyzer.min_cut(&ConvexMinCutOptions::for_graph_size(n));
    Ok(())
}

/// Persists `analyzer`'s graph and computed artifacts under `fp`,
/// skipping the append when the stored document is already byte-identical
/// (sessions stop changing once their spectra are materialized, so steady
/// state writes nothing). Returns whether a record was written.
///
/// # Errors
/// Propagates filesystem failures.
pub fn save_session(store: &Store, fp: Fingerprint, analyzer: &OwnedAnalyzer) -> io::Result<bool> {
    let doc = encode_session(analyzer.graph(), &analyzer.export());
    store.put(fp, &doc)
}

/// Restores the session stored under `fp`, if any: decodes the graph,
/// opens a fresh [`OwnedAnalyzer`] on it and imports the stored spectra,
/// min-cut results and simulated upper bounds, so requests covered by the
/// snapshot perform zero eigensolves and zero simulations (records
/// written before codec version 3 carry no simulations; those are
/// recomputed on first use). A record that fails to decode is surfaced as
/// [`io::ErrorKind::InvalidData`], not panicked on — the store is a
/// cache, and the caller can always recompute.
///
/// # Errors
/// Propagates filesystem failures and decode failures.
pub fn load_session(store: &Store, fp: Fingerprint) -> io::Result<Option<OwnedAnalyzer>> {
    let Some(doc) = store.get(fp)? else {
        return Ok(None);
    };
    let session = decode_session(&doc).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("stored session {fp} is undecodable: {e}"),
        )
    })?;
    let analyzer = OwnedAnalyzer::from_graph(session.graph);
    analyzer.import(&session.export);
    Ok(Some(analyzer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::{fingerprint, generators::fft_butterfly};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "graphio_store_lib_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_save_load_serves_bounds_bit_identically_with_zero_solves() {
        let dir = tmp_dir("warmload");
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let g = fft_butterfly(4);
        let fp = fingerprint(&g);
        let analyzer = OwnedAnalyzer::from_graph(g);
        warm_session(&analyzer).unwrap();
        assert!(save_session(&store, fp, &analyzer).unwrap());
        // Steady state: saving the unchanged session writes nothing.
        assert!(!save_session(&store, fp, &analyzer).unwrap());

        let restored = load_session(&store, fp).unwrap().expect("stored");
        let opts = analyzer.default_options();
        for m in [2usize, 4, 8, 16] {
            let a = analyzer.bound(m, &opts).unwrap();
            let b = restored.bound(m, &opts).unwrap();
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
            assert_eq!(a.best_k, b.best_k);
            let a5 = analyzer.bound_original(m, &opts).unwrap();
            let b5 = restored.bound_original(m, &opts).unwrap();
            assert_eq!(a5.bound.to_bits(), b5.bound.to_bits());
        }
        let stats = restored.stats();
        assert_eq!(stats.spectrum_misses, 0, "all spectra imported: {stats:?}");
        assert!(load_session(&store, Fingerprint(42)).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
