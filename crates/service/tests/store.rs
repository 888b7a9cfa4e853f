//! Behavioral tests of the `serve --store` integration that do not need
//! process-global counter isolation (that lives in
//! `tests/warm_restart.rs`): fingerprint-only back-fill across restarts,
//! batch over a warm store, `/stats` store metrics and per-shard cache
//! gauges, and torn-tail tolerance at the service level.

use graphio_graph::generators::{bhk_hypercube, diamond_dag, fft_butterfly};
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::CompGraph;
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, PersistenceConfig, Server, ServiceConfig};
use graphio_spectral::OwnedAnalyzer;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graphio_service_store_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_server(dir: &PathBuf) -> Server {
    serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        store: Some(PersistenceConfig::at(dir)),
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

fn graph_json(g: &CompGraph) -> String {
    g.to_edge_list().to_json()
}

fn offline_body(g: &CompGraph, memories: &[usize]) -> String {
    analysis_body(
        &OwnedAnalyzer::from_graph(g.clone()),
        &AnalyzeSpec::sweep(memories.to_vec()),
    )
}

#[test]
fn fingerprint_only_requests_backfill_across_restarts() {
    let dir = tmp_dir("fp_backfill");
    let g = fft_butterfly(3);
    let fp_hex = {
        let server = store_server(&dir);
        // Register only — no analysis ran, so the store holds a
        // graph-only record.
        let r = client::request(
            "POST",
            &server.url(),
            "/graphs",
            Some(&format!("{{\"graph\":{}}}", graph_json(&g))),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = parse(&r.body).unwrap();
        doc.get("fingerprint")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    // New server, same store: the fingerprint resolves from disk even
    // though this process never saw the graph bytes.
    let server = store_server(&dir);
    let body = format!("{{\"fingerprint\":\"{fp_hex}\",\"memories\":[2,4]}}");
    let r = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-graphio-session"), Some("store"));
    assert_eq!(r.body, offline_body(&g, &[2, 4]));
    // Unknown fingerprints still 404 (the store was consulted).
    let bogus = format!(
        "{{\"fingerprint\":\"{}\",\"memories\":[2]}}",
        "ab".repeat(16)
    );
    let r = client::request("POST", &server.url(), "/analyze", Some(&bogus)).unwrap();
    assert_eq!(r.status, 404);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_over_a_warm_store_matches_offline_concatenation() {
    let dir = tmp_dir("batch_warm");
    let memories = [2usize, 4, 8];
    let graphs = [fft_butterfly(3), diamond_dag(4, 4), bhk_hypercube(3)];
    {
        let server = store_server(&dir);
        for g in &graphs {
            let r = client::analyze(&server.url(), &graph_json(g), &memories, 1, false).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        server.shutdown();
    }
    let server = store_server(&dir);
    let jsons: Vec<String> = graphs.iter().map(graph_json).collect();
    let r = client::batch(&server.url(), &jsons, &memories, 1, false).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(
        r.header("x-graphio-session"),
        Some("store,store,store"),
        "every batch entry back-filled from disk"
    );
    let expected: String = graphs.iter().map(|g| offline_body(g, &memories)).collect();
    assert_eq!(r.body, expected);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_report_store_metrics_and_shard_gauges() {
    let dir = tmp_dir("stats");
    let server = store_server(&dir);
    let g = fft_butterfly(3);
    client::analyze(&server.url(), &graph_json(&g), &[2, 4], 1, false).unwrap();
    let r = client::request("GET", &server.url(), "/stats", None).unwrap();
    let doc = parse(&r.body).unwrap();
    let store = doc.get("store").expect("store sub-document");
    assert_eq!(store.get("enabled"), Some(&JsonValue::Bool(true)));
    assert_eq!(store.get("records").and_then(JsonValue::as_f64), Some(1.0));
    assert!(store.get("puts").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    assert!(
        store
            .get("bytes_on_disk")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(store.get("segments").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    assert!(store.get("last_compaction_unix").is_some());
    let shard_bytes = doc
        .get("cache")
        .and_then(|c| c.get("shard_bytes"))
        .and_then(JsonValue::as_array)
        .expect("per-shard byte gauges");
    assert_eq!(shard_bytes.len(), ServiceConfig::default().cache.shards);
    let total: f64 = shard_bytes.iter().filter_map(JsonValue::as_f64).sum();
    assert_eq!(
        Some(total),
        doc.get("cache")
            .and_then(|c| c.get("bytes"))
            .and_then(JsonValue::as_f64),
        "shard gauges sum to the cache byte gauge"
    );
    server.shutdown();

    // RAM-only servers advertise the store as disabled.
    let ramonly = serve(&ServiceConfig::default()).unwrap();
    let r = client::request("GET", &ramonly.url(), "/stats", None).unwrap();
    let doc = parse(&r.body).unwrap();
    assert_eq!(
        doc.get("store").and_then(|s| s.get("enabled")),
        Some(&JsonValue::Bool(false))
    );
    ramonly.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn final record (simulated crash mid-append) costs at most that
/// record: the restarted server recovers every complete one and simply
/// recomputes the torn graph.
#[test]
fn torn_store_tail_degrades_to_recompute() {
    let dir = tmp_dir("torn");
    let memories = [2usize, 4];
    let g1 = fft_butterfly(3);
    let g2 = diamond_dag(5, 5);
    {
        let server = serve(&ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            store: Some(PersistenceConfig::at(&dir)),
            ..Default::default()
        })
        .unwrap();
        client::analyze(&server.url(), &graph_json(&g1), &memories, 1, false).unwrap();
        client::analyze(&server.url(), &graph_json(&g2), &memories, 1, false).unwrap();
        // Drop releases the writer lock; the snapshot leaves one compact
        // segment holding both records (g1 then g2, oldest first), whose
        // tail we then tear like a crash mid-append would.
        drop(server);
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .max()
        .expect("a segment exists");
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let server = store_server(&dir);
    for g in [&g1, &g2] {
        let r = client::analyze(&server.url(), &graph_json(g), &memories, 1, false).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, offline_body(g, &memories));
    }
    let store = server.store_stats().unwrap();
    assert_eq!(
        (store.hits, store.misses),
        (1, 1),
        "one record recovered, the torn one recomputed: {store:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `/stats` → (`engine.sim_misses`, `store.puts`).
fn sims_and_puts(server: &Server) -> (f64, f64) {
    let r = client::request("GET", &server.url(), "/stats", None).unwrap();
    let doc = parse(&r.body).unwrap();
    let field = |section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap()
    };
    (field("engine", "sim_misses"), field("store", "puts"))
}

/// Simulated upper bounds persist with the session (codec v3): a session
/// restored from the store serves `/analyze` with zero simulations and
/// the offline bytes, and a newly simulated memory is written through
/// once, not on every later hit.
#[test]
fn restored_sessions_serve_without_simulating() {
    let dir = tmp_dir("sims_v3");
    let g = bhk_hypercube(4);
    {
        let server = store_server(&dir);
        let r = client::analyze(&server.url(), &graph_json(&g), &[4, 8], 1, false).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(sims_and_puts(&server), (2.0, 1.0));
        // Pure hits move neither the simulation count nor the store.
        for _ in 0..3 {
            client::analyze(&server.url(), &graph_json(&g), &[8, 4], 1, false).unwrap();
        }
        assert_eq!(sims_and_puts(&server), (2.0, 1.0));
        // A new memory simulates once and is saved once.
        client::analyze(&server.url(), &graph_json(&g), &[4, 16], 1, false).unwrap();
        client::analyze(&server.url(), &graph_json(&g), &[4, 16], 1, false).unwrap();
        assert_eq!(sims_and_puts(&server), (3.0, 2.0));
    }
    let server = store_server(&dir);
    let r = client::analyze(&server.url(), &graph_json(&g), &[4, 8, 16], 1, false).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-graphio-session"), Some("store"));
    assert_eq!(r.body, offline_body(&g, &[4, 8, 16]));
    assert_eq!(
        sims_and_puts(&server).0,
        0.0,
        "restored sims are not recomputed"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version-2 record (no simulated-bounds section) still restores: the
/// response bytes are the offline bytes, its simulations are recomputed
/// lazily, and the record is rewritten once in the current version.
#[test]
fn version_2_records_restore_and_recompute_simulations() {
    use graphio_store::{decode_session, encode_session, Store, StoreConfig, SESSION_VERSION};
    let dir = tmp_dir("sims_v2");
    let g = fft_butterfly(4);
    let fp = graphio_graph::fingerprint(&g);
    {
        let warm = OwnedAnalyzer::from_graph(g.clone());
        analysis_body(&warm, &AnalyzeSpec::sweep(vec![4, 8]));
        let mut export = warm.export();
        export.sims.clear();
        // A v3 document with no sims is the v2 document plus an empty
        // trailing section (pinned by the codec's golden tests).
        let mut doc = encode_session(&g, &export);
        doc[0] = 2;
        doc.truncate(doc.len() - 4);
        assert!(decode_session(&doc).unwrap().export.sims.is_empty());
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.put(fp, &doc).unwrap();
    }
    {
        let server = store_server(&dir);
        let r = client::analyze(&server.url(), &graph_json(&g), &[4, 8], 1, false).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.header("x-graphio-session"), Some("store"));
        assert_eq!(r.body, offline_body(&g, &[4, 8]));
        assert_eq!(sims_and_puts(&server), (2.0, 1.0));
    }
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let doc = store.get(fp).unwrap().expect("record present");
    assert_eq!(doc[0], SESSION_VERSION);
    assert_eq!(decode_session(&doc).unwrap().export.sims.len(), 2);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record whose Lanczos spectra were stored under sweep policy 0 (codec
/// tag 1, written before the policy had revisions) still restores, but
/// its spectra miss: both are recomputed under the current policy and the
/// bytes equal offline `analyze`, even though the stored values were
/// tampered with to make any reuse visible. The old spectra are not
/// carried into the session, so its next save holds only current ones.
#[test]
fn old_sweep_policy_spectra_are_recomputed() {
    use graphio_spectral::MethodKey;
    use graphio_store::{decode_session, encode_session, load_session, Store, StoreConfig};
    let dir = tmp_dir("old_policy");
    let g = bhk_hypercube(9);
    let fp = graphio_graph::fingerprint(&g);
    let memories = [4usize, 16];
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    {
        let warm = OwnedAnalyzer::from_graph(g.clone());
        analysis_body(&warm, &AnalyzeSpec::sweep(memories.to_vec()));
        let mut export = warm.export();
        assert_eq!(export.spectra.len(), 2);
        for (key, values) in &mut export.spectra {
            let MethodKey::Lanczos { revision, .. } = &mut key.method else {
                panic!("bhk(9) is on the Lanczos tier: {key:?}");
            };
            *revision = 0;
            values.iter_mut().for_each(|v| *v *= 0.5);
        }
        let doc = encode_session(&g, &export);
        assert_eq!(decode_session(&doc).unwrap().export, export);
        store.put(fp, &doc).unwrap();
    }
    let restored = load_session(&store, fp).unwrap().expect("record present");
    let body = analysis_body(&restored, &AnalyzeSpec::sweep(memories.to_vec()));
    assert_eq!(body, offline_body(&g, &memories));
    assert_eq!(
        restored.stats().spectrum_misses,
        2,
        "both spectra recomputed"
    );
    let kept = restored.export().spectra;
    assert_eq!(kept.len(), 2);
    for (key, _) in &kept {
        assert!(matches!(
            key.method,
            MethodKey::Lanczos { revision, .. }
                if revision == graphio_linalg::lanczos::SWEEP_POLICY_REVISION
        ));
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record written while the single-sweep estimate existed holds its
/// spectra under codec method tag 2, which no longer decodes. The server
/// reads such a record as absent: it answers 200 with the offline null
/// document and writes the new session through over the old record.
#[test]
fn method_tag_2_records_are_replaced_by_the_null_document() {
    use graphio_graph::generators::path_dag;
    use graphio_spectral::{SessionExport, HUGE_CUTOFF};
    use graphio_store::{decode_session, encode_session, CodecError, Store, StoreConfig};
    let dir = tmp_dir("method_tag_2");
    let g = path_dag(HUGE_CUTOFF + 1);
    let fp = graphio_graph::fingerprint(&g);
    let memories = [4usize, 16];
    {
        // Version byte and graph, then one spectrum keyed by tag 2 and
        // three empty sections (cuts, decompositions, simulated bounds).
        let mut doc = encode_session(&g, &SessionExport::default());
        doc.truncate(doc.len() - 16);
        doc.extend(1u32.to_le_bytes()); // 1 spectrum
        doc.push(0); // kind = Normalized
        doc.extend(8u64.to_le_bytes()); // h = 8
        doc.push(2); // method tag 2
        for field in [96u64, 16, 0x5eed] {
            doc.extend(field.to_le_bytes()); // steps, window, seed
        }
        doc.extend(1u32.to_le_bytes()); // 1 eigenvalue
        doc.extend(0f64.to_bits().to_le_bytes());
        doc.extend([0u8; 12]);
        assert!(matches!(
            decode_session(&doc),
            Err(CodecError::BadTag {
                what: "method",
                tag: 2
            })
        ));
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.put(fp, &doc).unwrap();
    }
    {
        let server = store_server(&dir);
        let r = client::analyze(&server.url(), &graph_json(&g), &memories, 1, false).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.header("x-graphio-session"), Some("miss"));
        assert_eq!(r.body, offline_body(&g, &memories));
        assert!(r.body.contains("\"method\":null"), "{}", r.body);
        server.shutdown();
    }
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let doc = store.get(fp).unwrap().expect("record present");
    let back = decode_session(&doc).expect("the new session replaced the old record");
    assert_eq!(back.graph, g);
    assert!(
        back.export.spectra.is_empty(),
        "no eigensolve past the cutoff"
    );
    assert_eq!(back.export.cuts.len(), 1);
    assert_eq!(back.export.sims.len(), memories.len());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
