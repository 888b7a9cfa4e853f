//! `/batch` renders each entry through its session's served-document
//! slot, the one `/analyze` uses, so the two endpoints share that slot
//! and the byte budget it is charged to. A `/batch` entry may replace an
//! `/analyze` slot or evict an `/analyze` session; either way the next
//! `/analyze` answers the same bytes as before.

use graphio_graph::generators::{diamond_dag, fft_butterfly};
use graphio_graph::CompGraph;
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, CacheConfig, Server, ServiceConfig};
use graphio_spectral::OwnedAnalyzer;

fn server_with(cache: CacheConfig) -> Server {
    serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        cache,
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

fn graph_json(g: &CompGraph) -> String {
    g.to_edge_list().to_json()
}

fn analyze(url: &str, g: &CompGraph, memories: &str) -> client::Response {
    let body = format!("{{\"graph\":{},\"memories\":{memories}}}", graph_json(g));
    let r = client::request("POST", url, "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    r
}

fn batch(url: &str, g: &CompGraph, memories: &[usize]) -> String {
    let r = client::batch(url, &[graph_json(g)], memories, 1, false).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    r.body
}

fn offline_body(g: &CompGraph, memories: &[usize]) -> String {
    analysis_body(
        &OwnedAnalyzer::from_graph(g.clone()),
        &AnalyzeSpec::sweep(memories.to_vec()),
    )
}

/// A `/batch` with another spec replaces the slot `/analyze` filled; the
/// repeated `/analyze` renders again and answers its first bytes.
#[test]
fn batch_displacing_an_analyze_slot_keeps_its_bytes() {
    let server = server_with(CacheConfig::default());
    let url = server.url();
    let g = fft_butterfly(3);
    let first = analyze(&url, &g, "[2,4]");
    assert_eq!(first.body, offline_body(&g, &[2, 4]));
    assert_eq!(batch(&url, &g, &[8]), offline_body(&g, &[8]));
    assert_eq!(server.cache_stats().sessions, 1, "one shared session");

    let again = analyze(&url, &g, "[2,4]");
    assert_eq!(again.header("x-graphio-session"), Some("hit"));
    assert_eq!(again.body, first.body);
    assert_eq!(batch(&url, &g, &[8]), offline_body(&g, &[8]));
    server.shutdown();
}

/// A `/batch` entry's stored body counts against the shard budget: on a
/// one-shard cache whose budget holds `g`'s analyzed session and `h`'s
/// idle one but not `h` once `/batch` has rendered it, storing `h`'s body
/// evicts `g`. The next `/analyze` of `g` rebuilds it: the same bytes.
#[test]
fn batch_render_over_the_budget_evicts_an_analyze_session() {
    let (g, h) = (diamond_dag(4, 4), fft_butterfly(5));
    // The same requests on an unbounded cache measure both sessions.
    let (g_bytes, h_bytes) = {
        let probe = server_with(CacheConfig::default());
        let url = probe.url();
        analyze(&url, &g, "[2,4]");
        let g_bytes = probe.cache_stats().bytes;
        batch(&url, &h, &[4, 8]);
        let total = probe.cache_stats().bytes;
        probe.shutdown();
        (g_bytes, total - g_bytes)
    };
    let h_idle = OwnedAnalyzer::from_graph(h.clone()).approx_bytes();
    assert!(h_idle < h_bytes, "rendering grows h: {h_idle} vs {h_bytes}");

    let server = server_with(CacheConfig {
        shards: 1,
        max_sessions: 16,
        max_bytes: g_bytes + h_bytes - 1,
    });
    let url = server.url();
    let first = analyze(&url, &g, "[2,4]");
    assert_eq!(batch(&url, &h, &[4, 8]), offline_body(&h, &[4, 8]));
    let stats = server.cache_stats();
    assert!(
        stats.evictions == 1 && stats.sessions == 1,
        "storing h's batch body evicts g: {stats:?}"
    );

    let again = analyze(&url, &g, "[2,4]");
    assert_eq!(again.header("x-graphio-session"), Some("miss"));
    assert_eq!(again.body, first.body);
    assert_eq!(again.body, offline_body(&g, &[2, 4]));
    server.shutdown();
}
