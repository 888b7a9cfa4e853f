//! Integration tests of the analysis server over real sockets: routing,
//! validation, cache amortization, backpressure, keep-alive connection
//! reuse, `POST /batch`, and the bit-identical equivalence between
//! `POST /analyze` and the offline analysis path.

use graphio_graph::generators::{bhk_hypercube, diamond_dag, fft_butterfly, naive_matmul};
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::{fingerprint, CompGraph};
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, Server, ServiceConfig};
use graphio_spectral::OwnedAnalyzer;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

fn test_server(workers: usize, queue: usize) -> Server {
    serve(&ServiceConfig {
        workers,
        queue_capacity: queue,
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

/// Writes `raw` on a fresh connection and returns everything the server
/// sends until it closes (or the 3 s safety timeout trips).
fn raw_roundtrip(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream.write_all(raw).unwrap();
    let mut out = Vec::new();
    stream
        .read_to_end(&mut out)
        .expect("server must close the connection");
    String::from_utf8_lossy(&out).to_string()
}

/// `/stats` counters relevant to connection reuse.
fn reuse_counters(doc: &JsonValue) -> (f64, f64) {
    (
        doc.get("connections").and_then(JsonValue::as_f64).unwrap(),
        doc.get("requests").and_then(JsonValue::as_f64).unwrap(),
    )
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
fn healthz_and_stats_respond() {
    let server = test_server(2, 32);
    let health = client::request("GET", &server.url(), "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let doc = parse(&health.body).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));

    let stats = client::request("GET", &server.url(), "/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let doc = parse(&stats.body).unwrap();
    assert!(doc.get("cache").is_some());
    assert!(doc.get("engine").is_some());
    // The cluster router's aggregated stats key off these two fields to
    // flag mixed-version rings and freshly-restarted backends.
    assert_eq!(
        doc.get("version").and_then(JsonValue::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(doc
        .get("uptime_seconds")
        .and_then(JsonValue::as_f64)
        .is_some());
}

/// Reads one numeric counter out of the `/stats` `linalg` block.
fn linalg_counter(url: &str, field: &str) -> f64 {
    let stats = client::request("GET", url, "/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    parse(&stats.body)
        .unwrap()
        .get("linalg")
        .and_then(|l| l.get(field))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("/stats linalg block missing {field}"))
}

#[test]
fn stats_linalg_block_moves_with_scale_tier_solves() {
    let server = test_server(2, 32);
    let url = server.url();
    // All five counters must be present from the start.
    for field in [
        "dense_eigensolves",
        "sparse_matvecs",
        "simd_kernel_calls",
        "scalar_fallbacks",
        "scale_tier_solves",
    ] {
        assert!(linalg_counter(&url, field) >= 0.0);
    }
    let matvecs_before = linalg_counter(&url, "sparse_matvecs");
    let tier_before = linalg_counter(&url, "scale_tier_solves");
    // n = 484 sits past the dense cutoff, so this analyze dispatches
    // through the sparse scale tier (deflated Lanczos).
    let g = diamond_dag(22, 22);
    let r = client::analyze(&url, &graph_json(&g), &[4], 1, true).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        linalg_counter(&url, "sparse_matvecs") > matvecs_before,
        "Lanczos analyze must run sparse mat-vecs"
    );
    assert!(
        linalg_counter(&url, "scale_tier_solves") > tier_before,
        "past-cutoff analyze must count as a scale-tier solve"
    );
}

#[test]
fn analyze_matches_offline_path_bit_for_bit() {
    let server = test_server(2, 32);
    let memories = [2usize, 4, 8, 16];
    for g in [fft_butterfly(4), naive_matmul(3), diamond_dag(5, 5)] {
        let remote = client::analyze(&server.url(), &graph_json(&g), &memories, 1, false).unwrap();
        assert_eq!(remote.status, 200, "{}", remote.body);
        assert_eq!(remote.body, offline_body(&g, &memories));
    }
}

/// The property-test form of the acceptance criterion: random graphs and
/// random sweeps round-trip through the server byte-identically to the
/// offline analyzer, whether the session is cold or cached.
#[test]
fn analyze_equivalence_property() {
    use graphio_graph::generators::{erdos_renyi_dag, layered_random_dag};
    let server = test_server(4, 64);
    for seed in 0..12u64 {
        let g = if seed % 2 == 0 {
            erdos_renyi_dag(8 + (seed as usize * 3) % 40, 0.3, seed)
        } else {
            layered_random_dag(2 + seed as usize % 3, 2 + seed as usize % 5, 0.5, seed)
        };
        let memories: Vec<usize> = (0..1 + (seed as usize % 4))
            .map(|i| 1 + ((seed as usize).wrapping_mul(7) + 3 * i) % 32)
            .collect();
        // Deduplicate like validate_memories will, to build the expected
        // spec (the server answers the deduplicated sweep).
        let mut deduped = Vec::new();
        for &m in &memories {
            if !deduped.contains(&m) {
                deduped.push(m);
            }
        }
        let offline = offline_body(&g, &deduped);
        for round in 0..2 {
            let remote =
                client::analyze(&server.url(), &graph_json(&g), &memories, 1, false).unwrap();
            assert_eq!(remote.status, 200, "{}", remote.body);
            assert_eq!(remote.body, offline, "seed {seed} round {round}");
        }
    }
}

#[test]
fn sessions_amortize_eigensolves_across_requests_and_relabelings() {
    let server = test_server(4, 64);
    let g = bhk_hypercube(5);
    let fp = fingerprint(&g);
    for _ in 0..5 {
        let r = client::analyze(&server.url(), &graph_json(&g), &[4, 8], 1, true).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(
            r.header("x-graphio-fingerprint"),
            Some(fp.to_hex().as_str())
        );
    }
    // A relabeled copy of the same structure must hit the same session.
    let el = g.to_edge_list();
    let n = el.ops.len() as u32;
    let perm: Vec<u32> = (0..n).rev().collect();
    let mut ops = el.ops.clone();
    for (v, op) in el.ops.iter().enumerate() {
        ops[perm[v] as usize] = *op;
    }
    let relabeled = graphio_graph::EdgeListGraph {
        ops,
        edges: el
            .edges
            .iter()
            .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
            .collect(),
    };
    let r = client::analyze(&server.url(), &relabeled.to_json(), &[4, 8], 1, true).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-graphio-session"), Some("hit"));
    // Documented relabeling semantics: a structurally equal submission is
    // answered on the session's canonical (first-seen) representative.
    let spec = AnalyzeSpec {
        memories: vec![4, 8],
        processors: 1,
        no_sim: true,
    };
    assert_eq!(
        r.body,
        analysis_body(&OwnedAnalyzer::from_graph(g.clone()), &spec)
    );

    // ≤ 1 eigensolve per (fingerprint, Laplacian kind): one session, two
    // kinds, any number of requests.
    let stats = server.cache_stats();
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.engine.spectrum_misses, 2, "{stats:?}");
    assert!(stats.engine.spectrum_hits >= 2 * 5);
}

/// `/stats` → (`engine.sim_misses`, `engine.sim_hits`,
/// `fingerprint_memo.misses`, `fingerprint_memo.hits`).
fn memo_counters(url: &str) -> (f64, f64, f64, f64) {
    let r = client::request("GET", url, "/stats", None).unwrap();
    let doc = parse(&r.body).unwrap();
    let field = |section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap()
    };
    (
        field("engine", "sim_misses"),
        field("engine", "sim_hits"),
        field("fingerprint_memo", "misses"),
        field("fingerprint_memo", "hits"),
    )
}

/// A warm `/analyze` hit does no simulation and no Weisfeiler–Leman
/// refinement; overlapping sweeps simulate only the new memories; and
/// the bytes stay the cold session's throughout.
#[test]
fn warm_hits_run_no_simulation_and_no_refinement() {
    let server = test_server(2, 16);
    let url = server.url();
    let g = fft_butterfly(4);
    let json = graph_json(&g);
    let r = client::analyze(&url, &json, &[4, 8], 1, false).unwrap();
    assert_eq!(r.body, offline_body(&g, &[4, 8]));
    assert_eq!(memo_counters(&url), (2.0, 0.0, 1.0, 0.0));
    let r = client::analyze(&url, &json, &[4, 8], 1, false).unwrap();
    assert_eq!(r.header("x-graphio-session"), Some("hit"));
    assert_eq!(r.body, offline_body(&g, &[4, 8]));
    assert_eq!(
        memo_counters(&url),
        (2.0, 2.0, 1.0, 1.0),
        "a warm hit neither simulates nor refines"
    );
    let r = client::analyze(&url, &json, &[8, 16], 1, false).unwrap();
    assert_eq!(r.body, offline_body(&g, &[8, 16]));
    assert_eq!(memo_counters(&url).0, 3.0, "only M = 16 is new");
    server.shutdown();
}

/// The fingerprint memo is keyed by the labelled graph: a relabelled
/// isomorphic copy misses the memo but refines to the same fingerprint
/// and hits the same session; a graph one edge away misses the memo and
/// gets its own fingerprint and session.
#[test]
fn fingerprint_memo_resolves_relabellings_and_near_misses() {
    let server = test_server(2, 16);
    let url = server.url();
    let g = naive_matmul(3);
    let r = client::analyze(&url, &graph_json(&g), &[4], 1, true).unwrap();
    let fp = r.header("x-graphio-fingerprint").unwrap().to_string();
    assert_eq!(fp, fingerprint(&g).to_hex());

    let mut relabelled = g.to_edge_list();
    let n = relabelled.ops.len() as u32;
    relabelled.ops.reverse();
    for e in &mut relabelled.edges {
        *e = (n - 1 - e.0, n - 1 - e.1);
    }
    let r = client::analyze(&url, &relabelled.to_json(), &[4], 1, true).unwrap();
    assert_eq!(r.header("x-graphio-fingerprint"), Some(fp.as_str()));
    assert_eq!(r.header("x-graphio-session"), Some("hit"));
    assert_eq!(memo_counters(&url).2, 2.0, "a new labelling refines once");

    let mut denser = g.to_edge_list();
    let first = denser.edges[0];
    denser.edges.push(first);
    let r = client::analyze(&url, &denser.to_json(), &[4], 1, true).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_ne!(r.header("x-graphio-fingerprint"), Some(fp.as_str()));
    assert_eq!(r.header("x-graphio-session"), Some("miss"));
    assert_eq!(memo_counters(&url).2, 3.0);
    assert_eq!(server.cache_stats().sessions, 2);
    server.shutdown();
}

#[test]
fn register_then_analyze_by_fingerprint() {
    let server = test_server(2, 32);
    let g = fft_butterfly(3);
    let reg = client::request("POST", &server.url(), "/graphs", Some(&graph_json(&g))).unwrap();
    assert_eq!(reg.status, 200);
    let doc = parse(&reg.body).unwrap();
    let fp = doc.get("fingerprint").and_then(JsonValue::as_str).unwrap();
    assert_eq!(fp, fingerprint(&g).to_hex());
    assert_eq!(doc.get("cached"), Some(&JsonValue::Bool(false)));

    let body = format!("{{\"fingerprint\":\"{fp}\",\"memories\":[2,4]}}");
    let r = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.body, offline_body(&g, &[2, 4]));

    // Unknown fingerprints are a clean 404.
    let body = format!(
        "{{\"fingerprint\":\"{}\",\"memories\":[2]}}",
        "0".repeat(32)
    );
    let r = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 404);
}

#[test]
fn invalid_requests_are_rejected_cleanly() {
    let server = test_server(2, 32);
    let url = server.url();
    let g = graph_json(&fft_butterfly(3));

    // Memory 0 / empty sweep / missing memories.
    for bad in [
        format!("{{\"graph\":{g},\"memories\":[0,4]}}"),
        format!("{{\"graph\":{g},\"memories\":[]}}"),
        format!("{{\"graph\":{g}}}"),
        format!("{{\"graph\":{g},\"memories\":[4],\"processors\":0}}"),
        format!("{{\"graph\":{g},\"memories\":[4],\"no_sim\":7}}"),
        "{not json".to_string(),
        r#"{"graph":{"ops":["Add"],"edges":[[0,0]]},"memories":[4]}"#.to_string(),
    ] {
        let r = client::request("POST", &url, "/analyze", Some(&bad)).unwrap();
        assert_eq!(r.status, 400, "body {bad} gave {}: {}", r.status, r.body);
        assert!(parse(&r.body).unwrap().get("error").is_some());
    }

    // Duplicate sweep points are accepted but flagged.
    let dup = format!("{{\"graph\":{g},\"memories\":[4,4,8]}}");
    let r = client::request("POST", &url, "/analyze", Some(&dup)).unwrap();
    assert_eq!(r.status, 200);
    assert!(r
        .header("x-graphio-warnings")
        .is_some_and(|w| w.contains("duplicate memory size 4")));

    // Unknown routes and methods.
    let r = client::request("GET", &url, "/nope", None).unwrap();
    assert_eq!(r.status, 404);
    let r = client::request("DELETE", &url, "/analyze", None).unwrap();
    assert_eq!(r.status, 405);
}

/// Acceptance criterion: ≥ 64 concurrent in-flight requests across ≥ 4
/// distinct graphs with keep-alive enabled — each client thread issues
/// two requests over one persistent connection, no deadlock, per-request
/// results deterministic, and `/stats` shows requests served strictly
/// greater than connections accepted.
#[test]
fn stress_64_concurrent_requests_across_4_graphs() {
    let server = test_server(8, 128);
    let url = server.url();
    let graphs: Vec<CompGraph> = vec![
        fft_butterfly(4),
        bhk_hypercube(4),
        naive_matmul(3),
        diamond_dag(6, 6),
    ];
    let memories = [2usize, 4, 8, 16];
    let expected: Vec<String> = graphs.iter().map(|g| offline_body(g, &memories)).collect();
    let payloads: Vec<String> = graphs.iter().map(graph_json).collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let url = &url;
                let payloads = &payloads;
                let expected = &expected;
                s.spawn(move || {
                    let which = i % payloads.len();
                    let mut session = client::Client::new(url).expect("url");
                    for round in 0..2 {
                        let r =
                            client::analyze_on(&mut session, &payloads[which], &memories, 1, false)
                                .unwrap_or_else(|e| panic!("request {i} round {round}: {e}"));
                        assert_eq!(r.status, 200, "request {i}: {}", r.body);
                        assert_eq!(
                            r.body, expected[which],
                            "request {i} round {round} diverged"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress worker panicked");
        }
    });

    let stats = server.cache_stats();
    assert_eq!(stats.sessions, 4);
    // ≤ 1 eigensolve per (fingerprint, Laplacian kind) even under full
    // concurrency: the engine's single-flight makes this exact.
    assert_eq!(stats.engine.spectrum_misses, 8, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, 128);

    let r = client::request("GET", &url, "/stats", None).unwrap();
    let (connections, requests) = reuse_counters(&parse(&r.body).unwrap());
    assert!(
        requests > connections,
        "keep-alive must amortize connections: {requests} requests over {connections} connections"
    );
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = test_server(2, 32);
    let g = fft_butterfly(3);
    let mut session = client::Client::new(&server.url()).unwrap();
    let first = client::analyze_on(&mut session, &graph_json(&g), &[2, 4], 1, true).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-graphio-session"), Some("miss"));
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = client::analyze_on(&mut session, &graph_json(&g), &[2, 4], 1, true).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(
        second.header("x-graphio-session"),
        Some("hit"),
        "second request on the connection must hit the session cache"
    );
    assert_eq!(second.body, first.body);

    // Same connection serves the stats read too: one connection, three
    // requests — reuse visible in the counters it returns.
    let stats = session.request("GET", "/stats", None).unwrap();
    assert_eq!(session.connects(), 1, "all requests on one connection");
    let (connections, requests) = reuse_counters(&parse(&stats.body).unwrap());
    assert_eq!((connections, requests), (1.0, 3.0));
}

#[test]
fn idle_keep_alive_connection_is_closed_by_the_deadline() {
    let server = serve(&ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        idle_timeout: Duration::from_millis(150),
        ..Default::default()
    })
    .unwrap();
    // One keep-alive request, then silence: the server must close the
    // connection on its own (read_to_end returning proves EOF arrived —
    // on a still-open connection it would error out at the 3 s timeout).
    let response = raw_roundtrip(server.addr(), b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("Connection: keep-alive"), "{response}");
}

#[test]
fn max_requests_per_connection_cap_closes_and_client_reconnects() {
    let server = serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        max_requests_per_connection: 2,
        ..Default::default()
    })
    .unwrap();
    let mut session = client::Client::new(&server.url()).unwrap();
    for round in 0..4 {
        let r = session.request("GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200, "round {round}");
        // Odd rounds are each connection's second request — the response
        // that hits the cap must advertise the close.
        let expected = if round % 2 == 0 {
            "keep-alive"
        } else {
            "close"
        };
        assert_eq!(r.header("connection"), Some(expected), "round {round}");
    }
    assert_eq!(
        session.connects(),
        2,
        "4 requests at 2 per connection must use exactly 2 connections"
    );
}

#[test]
fn malformed_request_closes_the_connection() {
    let server = test_server(2, 32);
    // A malformed first request followed by a pipelined valid one: the
    // server must answer 400 with `Connection: close` and never serve
    // the second request on a connection it cannot frame-sync.
    let response = raw_roundtrip(
        server.addr(),
        b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhiGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(
        !response.contains("HTTP/1.1 200"),
        "no second response after a framing error: {response}"
    );
}

/// Property-style sweep of the framing laxities that become smuggling
/// vectors under keep-alive: every variation of duplicate/conflicting
/// `Content-Length`, `Transfer-Encoding` (any value, any casing), and
/// whitespace between header name and colon must be a 400 that closes
/// the connection.
#[test]
fn smuggling_shaped_framing_is_rejected_with_400_and_close() {
    let server = test_server(2, 32);
    let mut cases: Vec<String> = Vec::new();
    // Duplicate Content-Length: equal and conflicting values, either
    // casing, with the duplicate before and after an innocuous header.
    for (a, b) in [("2", "2"), ("2", "5"), ("0", "2")] {
        for name in ["Content-Length", "content-length", "CONTENT-LENGTH"] {
            cases.push(format!(
                "POST /analyze HTTP/1.1\r\n{name}: {a}\r\nHost: x\r\nContent-Length: {b}\r\n\r\nhi"
            ));
        }
    }
    // A single list-valued Content-Length is the same ambiguity.
    cases.push("POST /analyze HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\nhi".to_string());
    // Transfer-Encoding in any form, even alongside a Content-Length.
    for te in ["chunked", "identity", "gzip, chunked"] {
        for name in ["Transfer-Encoding", "transfer-encoding"] {
            cases.push(format!("POST /analyze HTTP/1.1\r\n{name}: {te}\r\n\r\n"));
            cases.push(format!(
                "POST /analyze HTTP/1.1\r\nContent-Length: 2\r\n{name}: {te}\r\n\r\nhi"
            ));
        }
    }
    // Whitespace between header name and colon (RFC 9112 §5.1).
    for line in [
        "Content-Length : 2",
        "Content-Length\t: 2",
        "Content Length: 2",
    ] {
        cases.push(format!("POST /analyze HTTP/1.1\r\n{line}\r\n\r\nhi"));
    }
    for raw in &cases {
        let response = raw_roundtrip(server.addr(), raw.as_bytes());
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{raw:?} must get 400, got: {response}"
        );
        assert!(
            response.contains("Connection: close"),
            "{raw:?} must close: {response}"
        );
    }
}

#[test]
fn batch_is_bit_identical_to_concatenated_individual_analyzes() {
    let server = test_server(4, 64);
    let url = server.url();
    let graphs = [fft_butterfly(3), naive_matmul(2), diamond_dag(4, 4)];
    let memories = [2usize, 4, 8];
    let payloads: Vec<String> = graphs.iter().map(graph_json).collect();

    let expected: String = graphs.iter().map(|g| offline_body(g, &memories)).collect();
    for round in 0..2 {
        let r = client::batch(&url, &payloads, &memories, 1, false).unwrap();
        assert_eq!(r.status, 200, "round {round}: {}", r.body);
        assert_eq!(r.header("x-graphio-batch"), Some("3"));
        assert_eq!(r.body, expected, "round {round} diverged from offline");
    }
    // ...and identical to what N individual /analyze calls serve.
    let individual: String = payloads
        .iter()
        .map(|p| client::analyze(&url, p, &memories, 1, false).unwrap().body)
        .collect();
    assert_eq!(individual, expected);
    assert_eq!(server.cache_stats().sessions, 3);
}

/// The property-test form of the batch acceptance criterion: random
/// graph sets and sweeps, batch vs. per-graph concatenation, cold and
/// cached.
#[test]
fn batch_equivalence_property() {
    use graphio_graph::generators::{erdos_renyi_dag, layered_random_dag};
    let server = test_server(4, 64);
    let url = server.url();
    for seed in 0..6u64 {
        let count = 1 + (seed as usize) % 4;
        let graphs: Vec<CompGraph> = (0..count)
            .map(|i| {
                let s = seed.wrapping_mul(31).wrapping_add(i as u64);
                if (seed + i as u64).is_multiple_of(2) {
                    erdos_renyi_dag(6 + ((s as usize) * 5) % 24, 0.3, s)
                } else {
                    layered_random_dag(2 + s as usize % 3, 2 + s as usize % 4, 0.5, s)
                }
            })
            .collect();
        let memories: Vec<usize> = (0..1 + (seed as usize % 3))
            .map(|i| 1 + ((seed as usize).wrapping_mul(11) + 5 * i) % 24)
            .collect();
        let payloads: Vec<String> = graphs.iter().map(graph_json).collect();
        let expected: String = payloads
            .iter()
            .map(|p| {
                let r = client::analyze(&url, p, &memories, 1, false).unwrap();
                assert_eq!(r.status, 200, "{}", r.body);
                r.body
            })
            .collect();
        let r = client::batch(&url, &payloads, &memories, 1, false).unwrap();
        assert_eq!(r.status, 200, "seed {seed}: {}", r.body);
        assert_eq!(
            r.header("x-graphio-batch"),
            Some(count.to_string().as_str())
        );
        assert_eq!(r.body, expected, "seed {seed} diverged");
    }
}

#[test]
fn batch_accepts_fingerprints_and_rejects_bad_requests() {
    let server = test_server(2, 32);
    let url = server.url();
    let g = fft_butterfly(3);
    let reg = client::request("POST", &url, "/graphs", Some(&graph_json(&g))).unwrap();
    let fp = parse(&reg.body)
        .unwrap()
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();

    // A mixed batch: one registered fingerprint, one inline graph.
    let inline = graph_json(&naive_matmul(2));
    let body = format!("{{\"graphs\":[\"{fp}\",{inline}],\"memories\":[2,4]}}");
    let r = client::request("POST", &url, "/batch", Some(&body)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let expected = offline_body(&g, &[2, 4]) + &offline_body(&naive_matmul(2), &[2, 4]);
    assert_eq!(r.body, expected);
    assert_eq!(r.header("x-graphio-session"), Some("hit,miss"));

    for (bad, status) in [
        (r#"{"memories":[2]}"#.to_string(), 400),
        (r#"{"graphs":[],"memories":[2]}"#.to_string(), 400),
        (format!("{{\"graphs\":[{inline}]}}"), 400),
        (
            format!("{{\"graphs\":[{inline},{{}}],\"memories\":[2]}}"),
            400,
        ),
        (
            format!("{{\"graphs\":[\"{}\"],\"memories\":[2]}}", "0".repeat(32)),
            404,
        ),
    ] {
        let r = client::request("POST", &url, "/batch", Some(&bad)).unwrap();
        assert_eq!(r.status, status, "body {bad} gave {}: {}", r.status, r.body);
        assert!(parse(&r.body).unwrap().get("error").is_some());
    }
    // Positional blame: the 400 for a bad entry names its index.
    let bad = format!("{{\"graphs\":[{inline},{{}}],\"memories\":[2]}}");
    let r = client::request("POST", &url, "/batch", Some(&bad)).unwrap();
    assert!(r.body.contains("graphs[1]"), "{}", r.body);
}

/// A full queue answers 503 + Retry-After instead of hanging or dropping
/// the connection.
#[test]
fn backpressure_responds_503_with_retry_after() {
    // One worker, tiny queue; the worker is blocked by a connection that
    // never sends its request (it parks in read_request until timeout).
    let server = test_server(1, 1);
    let addr = server.addr();
    let _blocker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let _queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Worker busy + queue full → this connection must get the 503.
    let mut rejected = TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    rejected
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    rejected.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After: 1"), "{response}");
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let server = test_server(2, 16);
    let url = server.url();
    let r = client::request("GET", &url, "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    server.shutdown();
    server.shutdown();
    assert!(client::request("GET", &url, "/healthz", None).is_err());
}
