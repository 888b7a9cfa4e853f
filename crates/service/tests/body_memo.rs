//! The `/analyze` body memo: a byte-identical body skips the decode and
//! goes straight to its session, and answers exactly what the full path
//! answers — the same bytes, the same headers (warnings included), after
//! an eviction too — while a re-spelled body takes the full path and still
//! skips refinement.

use graphio_graph::generators::{diamond_dag, fft_butterfly};
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::{CompGraph, MEMO_CAPACITY};
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, CacheConfig, PersistenceConfig, Server, ServiceConfig};
use graphio_spectral::OwnedAnalyzer;

fn server_with(cache: CacheConfig, store: Option<PersistenceConfig>) -> Server {
    serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        cache,
        store,
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

fn graph_json(g: &CompGraph) -> String {
    g.to_edge_list().to_json()
}

fn analyze_body(g: &CompGraph, memories: &str) -> String {
    format!("{{\"graph\":{},\"memories\":{memories}}}", graph_json(g))
}

fn offline_body(g: &CompGraph, memories: &[usize]) -> String {
    analysis_body(
        &OwnedAnalyzer::from_graph(g.clone()),
        &AnalyzeSpec::sweep(memories.to_vec()),
    )
}

fn post(url: &str, body: &str) -> client::Response {
    client::request("POST", url, "/analyze", Some(body)).unwrap()
}

/// `/stats` → `section.key`.
fn stat(url: &str, section: &str, key: &str) -> f64 {
    let r = client::request("GET", url, "/stats", None).unwrap();
    let doc = parse(&r.body).unwrap();
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no {section}.{key} in {}", r.body))
}

/// The same body twice is one body-memo hit; `capacity + 1` distinct
/// bodies (each resolved to a session; the first one above, then
/// `capacity` more) reset the memo once.
#[test]
fn body_memo_counts_hits_and_resets() {
    let server = server_with(CacheConfig::default(), None);
    let url = server.url();
    let g = fft_butterfly(3);
    let body = analyze_body(&g, "[2,4]");
    assert_eq!(post(&url, &body).status, 200);
    let hits = stat(&url, "body_memo", "hits");
    assert_eq!(post(&url, &body).body, offline_body(&g, &[2, 4]));
    assert_eq!(stat(&url, "body_memo", "hits"), hits + 1.0);

    // Distinct bytes, one spec: `"pad"` is not a field the server reads.
    let fp = graphio_graph::fingerprint(&g).to_hex();
    let mut session = client::Client::new(&url).unwrap();
    let resets = stat(&url, "body_memo", "resets");
    for pad in 0..MEMO_CAPACITY {
        let body = format!("{{\"fingerprint\":\"{fp}\",\"memories\":[2,4],\"pad\":{pad}}}");
        let r = session.request("POST", "/analyze", Some(&body)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    assert_eq!(stat(&url, "body_memo", "resets"), resets + 1.0);
    assert_eq!(stat(&url, "body_memo", "capacity"), MEMO_CAPACITY as f64);
    server.shutdown();
}

/// A duplicate memory size is dropped with a warning; the memo hit
/// replays that warning with the bytes.
#[test]
fn a_hit_replays_the_warnings_header() {
    let server = server_with(CacheConfig::default(), None);
    let url = server.url();
    let g = fft_butterfly(3);
    let body = analyze_body(&g, "[4,4,8]");
    let first = post(&url, &body);
    let warning = first.header("x-graphio-warnings").map(str::to_string);
    assert_eq!(
        warning.as_deref(),
        Some("duplicate memory size 4 dropped from sweep")
    );
    let hits = stat(&url, "body_memo", "hits");
    let again = post(&url, &body);
    assert_eq!(stat(&url, "body_memo", "hits"), hits + 1.0);
    assert_eq!(again.header("x-graphio-warnings"), warning.as_deref());
    assert_eq!(again.body, first.body);
    assert_eq!(again.body, offline_body(&g, &[4, 8]));
    server.shutdown();
}

/// A body whose spec would hold many memories or warnings is answered in
/// full every time and never kept: memory lists have no length limit, so
/// memoizing them would let large bodies pin unbounded heap.
#[test]
fn a_large_spec_is_not_memoized() {
    let server = server_with(CacheConfig::default(), None);
    let url = server.url();
    let g = fft_butterfly(3);
    let fp = graphio_graph::fingerprint(&g).to_hex();
    assert_eq!(post(&url, &analyze_body(&g, "[2]")).status, 200);
    let ones = vec!["1"; 200].join(",");
    let body = format!("{{\"fingerprint\":\"{fp}\",\"memories\":[{ones}]}}");
    let first = post(&url, &body);
    assert_eq!(first.status, 200, "{}", first.body);
    let entries = stat(&url, "body_memo", "entries");
    let hits = stat(&url, "body_memo", "hits");
    let again = post(&url, &body);
    assert_eq!(stat(&url, "body_memo", "entries"), entries);
    assert_eq!(stat(&url, "body_memo", "hits"), hits);
    assert_eq!(again.body, first.body);
    assert_eq!(
        again.header("x-graphio-warnings"),
        first.header("x-graphio-warnings")
    );
    assert_eq!(again.body, offline_body(&g, &[1]));
    server.shutdown();
}

/// A one-session cache evicts `g`'s session when `h` arrives. `g`'s
/// memoized body then finds no session in RAM — nor in the store, when
/// there is none — and the full path rebuilds it from the body: the same
/// bytes, with one cache miss for the request, not two.
fn evicted_session_answers_the_same_bytes(store: Option<PersistenceConfig>) {
    let with_store = store.is_some();
    let cache = CacheConfig {
        shards: 1,
        max_sessions: 1,
        ..CacheConfig::default()
    };
    let server = server_with(cache, store);
    let url = server.url();
    let (g, h) = (fft_butterfly(3), diamond_dag(3, 3));
    let body = analyze_body(&g, "[2,4]");
    let first = post(&url, &body);
    assert_eq!(first.header("x-graphio-session"), Some("miss"));
    assert_eq!(post(&url, &analyze_body(&h, "[2]")).status, 200);
    assert_eq!(server.cache_stats().evictions, 1);

    let (misses, hits) = (server.cache_stats().misses, stat(&url, "body_memo", "hits"));
    let again = post(&url, &body);
    assert_eq!(stat(&url, "body_memo", "hits"), hits + 1.0);
    assert_eq!(
        server.cache_stats().misses,
        misses + 1,
        "one lookup counted"
    );
    let source = if with_store { "store" } else { "miss" };
    assert_eq!(again.header("x-graphio-session"), Some(source));
    assert_eq!(again.body, first.body);
    assert_eq!(again.body, offline_body(&g, &[2, 4]));
    server.shutdown();
}

#[test]
fn evicted_session_answers_the_same_bytes_in_ram() {
    evicted_session_answers_the_same_bytes(None);
}

#[test]
fn evicted_session_answers_the_same_bytes_from_the_store() {
    let dir = std::env::temp_dir().join(format!("graphio_body_memo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    evicted_session_answers_the_same_bytes(Some(PersistenceConfig::at(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memoized fingerprint-only body whose session is gone from RAM (and
/// there is no store) answers the same 404 as a body never seen.
#[test]
fn evicted_fingerprint_body_answers_the_plain_404() {
    let cache = CacheConfig {
        shards: 1,
        max_sessions: 1,
        ..CacheConfig::default()
    };
    let server = server_with(cache, None);
    let url = server.url();
    let g = fft_butterfly(3);
    assert_eq!(post(&url, &analyze_body(&g, "[2]")).status, 200);
    let fp = graphio_graph::fingerprint(&g).to_hex();
    let body = format!("{{\"fingerprint\":\"{fp}\",\"memories\":[2]}}");
    assert_eq!(post(&url, &body).status, 200);
    assert_eq!(
        post(&url, &analyze_body(&diamond_dag(3, 3), "[2]")).status,
        200
    );
    let gone = post(&url, &body);
    assert_eq!(gone.status, 404);
    let fresh = serve(&ServiceConfig::default()).unwrap();
    let never_seen = post(&fresh.url(), &body);
    assert_eq!(
        (gone.status, gone.body),
        (never_seen.status, never_seen.body)
    );
    fresh.shutdown();
    server.shutdown();
}

/// Two spellings of one graph are two body keys, but one fingerprint,
/// one refinement and one session; both answer the same bytes.
#[test]
fn respelled_bodies_share_one_fingerprint_and_refine_once() {
    let server = server_with(CacheConfig::default(), None);
    let url = server.url();
    let g = fft_butterfly(3);
    let compact = analyze_body(&g, "[2,4]");
    let spaced = format!(
        "{{ \"memories\" : [2, 4], \"graph\" : {} }}",
        graph_json(&g)
    );
    let (a, b) = (post(&url, &compact), post(&url, &spaced));
    assert_eq!(stat(&url, "body_memo", "misses"), 2.0);
    assert_eq!(stat(&url, "body_memo", "entries"), 2.0);
    assert_eq!(
        stat(&url, "fingerprint_memo", "misses"),
        1.0,
        "one refinement"
    );
    assert_eq!(stat(&url, "fingerprint_memo", "hits"), 1.0);
    assert_eq!(
        a.header("x-graphio-fingerprint"),
        b.header("x-graphio-fingerprint")
    );
    assert_eq!(b.header("x-graphio-session"), Some("hit"));
    assert_eq!(a.body, b.body);
    assert_eq!(a.body, offline_body(&g, &[2, 4]));
    assert_eq!(server.cache_stats().sessions, 1);
    server.shutdown();
}
