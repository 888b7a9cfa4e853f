//! Integration tests of the cluster tier over real sockets: response
//! bytes through the router must equal a single-node `graphio_service`
//! server's bytes — for analyze, fingerprint-only analyze, batch, and
//! their error cases — and the router must survive a dead backend via
//! failover with the bytes unchanged.

use graphio_graph::generators::{
    bhk_hypercube, diamond_dag, fft_butterfly, inner_product, naive_matmul, strassen_matmul,
};
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::{fingerprint, CompGraph};
use graphio_router::{serve_router, RouterConfig, RouterServer};
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, Server, ServiceConfig};
use graphio_spectral::OwnedAnalyzer;
use std::time::Duration;

/// A 3-backend cluster plus a single-node reference server answering the
/// same traffic — the byte-equality oracle.
struct Cluster {
    backends: Vec<Server>,
    router: RouterServer,
    reference: Server,
}

fn cluster(n: usize) -> Cluster {
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..Default::default()
    };
    let backends: Vec<Server> = (0..n).map(|_| serve(&config).expect("backend")).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = serve_router(&RouterConfig {
        health_interval: Duration::from_millis(100),
        ..RouterConfig::over(addrs)
    })
    .expect("router");
    let reference = serve(&config).expect("reference");
    Cluster {
        backends,
        router,
        reference,
    }
}

fn graph_zoo() -> Vec<CompGraph> {
    vec![
        fft_butterfly(4),
        bhk_hypercube(3),
        naive_matmul(3),
        strassen_matmul(1),
        inner_product(6),
        diamond_dag(4, 4),
    ]
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
fn analyze_bytes_match_single_node_for_a_zoo() {
    let c = cluster(3);
    let memories = [2usize, 4, 8];
    for g in graph_zoo() {
        let via_router =
            client::analyze(&c.router.url(), &graph_json(&g), &memories, 1, false).unwrap();
        let via_single =
            client::analyze(&c.reference.url(), &graph_json(&g), &memories, 1, false).unwrap();
        assert_eq!(via_router.status, 200, "{}", via_router.body);
        assert_eq!(
            via_router.body, via_single.body,
            "router must be transparent"
        );
        assert_eq!(via_router.body, offline_body(&g, &memories));
        assert!(
            via_router.header("x-graphio-backend").is_some(),
            "router names the answering backend"
        );
    }
}

#[test]
fn repeat_analyzes_are_affine_and_hit_the_session_cache() {
    let c = cluster(3);
    let memories = [2usize, 4];
    for g in graph_zoo() {
        let first = client::analyze(&c.router.url(), &graph_json(&g), &memories, 1, false).unwrap();
        let second =
            client::analyze(&c.router.url(), &graph_json(&g), &memories, 1, false).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body);
        assert_eq!(
            first.header("x-graphio-backend"),
            second.header("x-graphio-backend"),
            "same fingerprint must route to the same backend"
        );
        assert_eq!(
            second.header("x-graphio-session"),
            Some("hit"),
            "affinity means the second request is a session-cache hit"
        );
    }
}

#[test]
fn fingerprint_only_analyze_routes_to_the_owner() {
    let c = cluster(3);
    let memories = [2usize, 4];
    for g in graph_zoo() {
        let fp = fingerprint(&g);
        // Register through the router: the owner backend now holds the
        // session under its own key.
        let registered = client::request(
            "POST",
            &c.router.url(),
            "/graphs",
            Some(graph_json(&g).trim_end()),
        )
        .unwrap();
        assert_eq!(registered.status, 200, "{}", registered.body);
        let doc = parse(&registered.body).unwrap();
        assert_eq!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            Some(fp.to_hex().as_str())
        );
        // Fingerprint-only analyze passes through untouched and must
        // find the session on the owner.
        let body = format!("{{\"fingerprint\":\"{}\",\"memories\":[2,4]}}", fp.to_hex());
        let r = client::request("POST", &c.router.url(), "/analyze", Some(&body)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, offline_body(&g, &memories));
    }
}

#[test]
fn batch_scatter_gather_is_byte_exact_and_spans_backends() {
    let c = cluster(3);
    let memories = [2usize, 4, 8];
    let zoo = graph_zoo();
    // Register one graph so the batch can mix an inline entry with a
    // fingerprint entry (on both the cluster and the reference).
    let fp_entry = {
        let g = &zoo[0];
        for url in [c.router.url(), c.reference.url()] {
            let r =
                client::request("POST", &url, "/graphs", Some(graph_json(g).trim_end())).unwrap();
            assert_eq!(r.status, 200);
        }
        format!("\"{}\"", fingerprint(g).to_hex())
    };
    let mut entries: Vec<String> = zoo
        .iter()
        .map(|g| graph_json(g).trim().to_string())
        .collect();
    entries.insert(1, fp_entry);
    let via_router = client::batch(&c.router.url(), &entries, &memories, 1, false).unwrap();
    let via_single = client::batch(&c.reference.url(), &entries, &memories, 1, false).unwrap();
    assert_eq!(via_router.status, 200, "{}", via_router.body);
    assert_eq!(
        via_router.body, via_single.body,
        "scatter/gather must be loss-free"
    );
    assert_eq!(
        via_router.header("x-graphio-batch"),
        Some(entries.len().to_string().as_str())
    );
    // The zoo's fingerprints spread over the ring: more than one backend
    // must have seen traffic for this one client request.
    let stats = client::request("GET", &c.router.url(), "/stats", None).unwrap();
    let doc = parse(&stats.body).unwrap();
    let busy = doc
        .get("backends")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter(|b| b.get("requests").and_then(JsonValue::as_f64).unwrap_or(0.0) > 0.0)
        .count();
    assert!(busy >= 2, "batch hit only {busy} backend(s)");
    drop(c.backends);
}

/// Compose mode was removed: `"mode":"compose"` is rejected with a 400
/// whose bytes match the single node's, whether the graph is sent
/// inline or named by fingerprint — the router forwards both bodies
/// whole. The compose-only `POST /component` route is gone.
#[test]
fn compose_error_bytes_and_fingerprint_passthrough_match_single_node() {
    let c = cluster(3);
    let g = fft_butterfly(5);
    for url in [c.router.url(), c.reference.url()] {
        let registered =
            client::request("POST", &url, "/graphs", Some(graph_json(&g).trim_end())).unwrap();
        assert_eq!(registered.status, 200, "{}", registered.body);
    }
    let inline = format!(
        "{{\"graph\":{},\"memories\":[8,64],\"mode\":\"compose\"}}",
        graph_json(&g)
    );
    let by_fingerprint = format!(
        "{{\"fingerprint\":\"{}\",\"memories\":[8,64],\"mode\":\"compose\"}}",
        fingerprint(&g).to_hex()
    );
    for body in [&inline, &by_fingerprint] {
        let via_router = client::request("POST", &c.router.url(), "/analyze", Some(body)).unwrap();
        let via_single =
            client::request("POST", &c.reference.url(), "/analyze", Some(body)).unwrap();
        assert_eq!(via_router.status, 400, "{}", via_router.body);
        assert_eq!(via_router.body, via_single.body);
        assert!(
            via_router.body.contains("compose mode was removed"),
            "{}",
            via_router.body
        );
    }
    let component = format!("{{\"graph\":{}}}", graph_json(&g));
    for url in [c.router.url(), c.reference.url()] {
        let r = client::request("POST", &url, "/component", Some(&component)).unwrap();
        assert_eq!(r.status, 404, "{}", r.body);
    }
}

#[test]
fn batch_blame_is_remapped_to_the_callers_indices() {
    let c = cluster(3);
    let memories = [2usize, 4];
    let good = graph_json(&fft_butterfly(3)).trim().to_string();
    let bad = "{\"ops\":[\"Input\"],\"edges\":[[0,9]]}".to_string();
    for entries in [
        vec![good.clone(), bad.clone(), good.clone()],
        vec![good.clone(), good.clone(), bad.clone()],
        vec![bad.clone(), good.clone()],
    ] {
        let via_router = client::batch(&c.router.url(), &entries, &memories, 1, false).unwrap();
        let via_single = client::batch(&c.reference.url(), &entries, &memories, 1, false).unwrap();
        assert_eq!(via_router.status, 400);
        assert_eq!(via_router.status, via_single.status);
        assert_eq!(
            via_router.body, via_single.body,
            "per-index blame must carry the caller's index"
        );
    }
    // An unknown fingerprint earlier in the batch must win the blame
    // race over a later unparseable entry, exactly as single-node.
    let unknown = format!("\"{}\"", "ab".repeat(16));
    let entries = vec![unknown, bad];
    let via_router = client::batch(&c.router.url(), &entries, &memories, 1, false).unwrap();
    let via_single = client::batch(&c.reference.url(), &entries, &memories, 1, false).unwrap();
    assert_eq!(via_router.status, 404);
    assert_eq!(via_router.body, via_single.body);
}

#[test]
fn malformed_requests_reproduce_single_node_bytes() {
    let c = cluster(2);
    for (path, body) in [
        ("/analyze", "{not json"),
        ("/analyze", "{\"memories\":[2]}"),
        ("/analyze", "{\"graph\":{\"ops\":[]},\"memories\":[2]}"),
        ("/analyze", "{\"fingerprint\":\"zz\",\"memories\":[2]}"),
        (
            "/analyze",
            "{\"graph\":{\"ops\":[\"Input\"]},\"memories\":[]}",
        ),
        ("/batch", "{\"graphs\":[],\"memories\":[2]}"),
        ("/batch", "{\"memories\":[2]}"),
        ("/batch", "{\"graphs\":[\"zz\"],\"memories\":[0]}"),
    ] {
        let via_router = client::request("POST", &c.router.url(), path, Some(body)).unwrap();
        let via_single = client::request("POST", &c.reference.url(), path, Some(body)).unwrap();
        assert_eq!(
            (via_router.status, via_router.body.as_str()),
            (via_single.status, via_single.body.as_str()),
            "error parity for {path} {body:?}"
        );
    }
}

#[test]
fn failover_survives_a_dead_backend_with_identical_bytes() {
    // A slow health cadence so the *request path* discovers the death:
    // the first analyze owned by the dead backend must fail over inline
    // (connect failure → retry next replica), not ride on a probe that
    // already ejected it.
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..Default::default()
    };
    let backends: Vec<Server> = (0..3).map(|_| serve(&config).expect("backend")).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = serve_router(&RouterConfig {
        health_interval: Duration::from_secs(30),
        ..RouterConfig::over(addrs)
    })
    .expect("router");
    let reference = serve(&config).expect("reference");
    let c = Cluster {
        backends,
        router,
        reference,
    };
    let memories = [2usize, 4];
    let zoo = graph_zoo();
    // Kill the backend that owns the first zoo graph.
    let dead_addr = c
        .router
        .owner_of(fingerprint(&zoo[0]))
        .expect("owner")
        .to_string();
    let dead_index = c
        .backends
        .iter()
        .position(|b| b.addr().to_string() == dead_addr)
        .expect("owner is one of ours");
    c.backends[dead_index].shutdown();

    // Every graph — including those owned by the dead backend — must
    // still answer with single-node bytes, via failover.
    for g in &zoo {
        let r = client::analyze(&c.router.url(), &graph_json(g), &memories, 1, false).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, offline_body(g, &memories));
        assert_ne!(
            r.header("x-graphio-backend"),
            Some(dead_addr.as_str()),
            "the dead backend cannot have answered"
        );
    }
    // A batch spanning the dead backend's keys also survives whole.
    let entries: Vec<String> = zoo
        .iter()
        .map(|g| graph_json(g).trim().to_string())
        .collect();
    let batched = client::batch(&c.router.url(), &entries, &memories, 1, false).unwrap();
    assert_eq!(batched.status, 200, "{}", batched.body);
    let mut expected = String::new();
    for g in &zoo {
        expected.push_str(&offline_body(g, &memories));
    }
    assert_eq!(batched.body, expected);

    // The router observed the failure: retries and an ejection.
    let stats = client::request("GET", &c.router.url(), "/stats", None).unwrap();
    let doc = parse(&stats.body).unwrap();
    let router_doc = doc.get("router").unwrap();
    assert!(
        router_doc
            .get("retries")
            .and_then(JsonValue::as_f64)
            .unwrap()
            >= 1.0
    );
    assert!(
        router_doc
            .get("ejections")
            .and_then(JsonValue::as_f64)
            .unwrap()
            >= 1.0
    );
    assert!(
        router_doc
            .get("ring_rebalances")
            .and_then(JsonValue::as_f64)
            .unwrap()
            >= 1.0
    );
}

#[test]
fn backpressuring_backend_fails_over_to_the_next_replica() {
    use std::io::{Read as _, Write as _};
    // A fake backend that answers every request 503 + Retry-After, and a
    // real one. The request must land on the real one.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            );
        }
    });
    let real = serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..Default::default()
    })
    .unwrap();
    let router = serve_router(&RouterConfig {
        health_interval: Duration::from_millis(100),
        ..RouterConfig::over(vec![fake_addr.clone(), real.addr().to_string()])
    })
    .unwrap();
    // Find a *small* graph owned by the fake backend so the 503 path is
    // actually exercised (64 distinct seeds make a miss astronomically
    // unlikely; small n keeps the debug-mode eigensolve fast).
    let g = (0..64u64)
        .map(|seed| graphio_graph::generators::erdos_renyi_dag(10, 0.3, seed))
        .find(|g| router.owner_of(fingerprint(g)) == Some(fake_addr.as_str()))
        .expect("some seed lands on the fake backend");
    let memories = [2usize, 4];
    let r = client::analyze(&router.url(), &graph_json(&g), &memories, 1, false).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.body, offline_body(&g, &memories));
    assert_eq!(
        r.header("x-graphio-backend"),
        Some(real.addr().to_string().as_str())
    );
}

#[test]
fn stats_aggregate_backends_and_flag_versions() {
    let c = cluster(2);
    // Drive one request through so counters are nonzero.
    let g = fft_butterfly(3);
    client::analyze(&c.router.url(), &graph_json(&g), &[2, 4], 1, false).unwrap();
    let stats = client::request("GET", &c.router.url(), "/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let doc = parse(&stats.body).unwrap();
    assert_eq!(
        doc.get("mixed_versions"),
        Some(&JsonValue::Bool(false)),
        "same binary everywhere"
    );
    let versions = doc
        .get("backend_versions")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(versions.len(), 1);
    let backends = doc.get("backends").and_then(JsonValue::as_array).unwrap();
    assert_eq!(backends.len(), 2);
    for b in backends {
        assert_eq!(b.get("healthy"), Some(&JsonValue::Bool(true)));
        let upstream_stats = b.get("stats").expect("live backends embed their stats");
        assert!(upstream_stats.get("uptime_seconds").is_some());
        assert!(upstream_stats.get("cache").is_some());
    }
    let health = client::request("GET", &c.router.url(), "/healthz", None).unwrap();
    let hdoc = parse(&health.body).unwrap();
    assert_eq!(hdoc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(hdoc.get("healthy").and_then(JsonValue::as_f64), Some(2.0));
}

#[test]
fn health_checker_ejects_and_restores() {
    // One dead port, one live backend: the checker must eject the dead
    // one within a few probe intervals, and healthz must say degraded
    // only when everything is down.
    let dead_port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let real = serve(&ServiceConfig::default()).unwrap();
    let router = serve_router(&RouterConfig {
        health_interval: Duration::from_millis(50),
        ..RouterConfig::over(vec![
            format!("127.0.0.1:{dead_port}"),
            real.addr().to_string(),
        ])
    })
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let health = client::request("GET", &router.url(), "/healthz", None).unwrap();
        let doc = parse(&health.body).unwrap();
        let healthy = doc.get("healthy").and_then(JsonValue::as_f64).unwrap();
        if healthy == 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health checker never ejected the dead backend"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The router's accept loop is the service's: a full queue answers 503
/// with `Retry-After` and the router's busy text, and `/stats` counts
/// both the rejection and every accepted connection.
#[test]
fn full_router_queue_answers_503_and_counts_it() {
    use std::io::Read as _;
    use std::net::TcpStream;
    let backend = serve(&ServiceConfig::default()).unwrap();
    let router = serve_router(&RouterConfig {
        workers: 1,
        queue_capacity: 1,
        ..RouterConfig::over(vec![backend.addr().to_string()])
    })
    .unwrap();
    // An idle connection holds the only worker; a second one holds the
    // only queue slot.
    let hold_worker = TcpStream::connect(router.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let hold_queue = TcpStream::connect(router.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut third = TcpStream::connect(router.addr()).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    third.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
    assert!(response.contains("\r\nRetry-After: 1\r\n"), "{response}");
    assert!(
        response.ends_with("\r\n\r\n{\"error\":\"router busy, retry later\"}\n"),
        "{response}"
    );
    drop((hold_worker, hold_queue));
    std::thread::sleep(Duration::from_millis(300));
    let stats = client::request("GET", &router.url(), "/stats", None).unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body);
    let doc = parse(&stats.body).unwrap();
    let counter = |key: &str| doc.get("router").and_then(|r| r.get(key)?.as_f64());
    assert_eq!(counter("rejected"), Some(1.0));
    assert_eq!(counter("connections"), Some(4.0), "3 held + this scrape");
    let metrics = client::request("GET", &router.url(), "/metrics", None).unwrap();
    let expo = graphio_obs::parse_metrics(&metrics.body).unwrap();
    assert_eq!(expo.value("graphio_router_rejected_total", &[]), Some(1.0));
}

/// `/batch` routes its inline graphs through the router's fingerprint
/// memo, as `/analyze` does: replaying a batch of N inline graphs is N
/// memo hits, and the bytes do not change.
#[test]
fn batch_split_fingerprints_inline_graphs_through_the_memo() {
    let c = cluster(2);
    let entries: Vec<String> = graph_zoo()
        .iter()
        .map(|g| graph_json(g).trim().to_string())
        .collect();
    let memo_hits = || {
        let stats = client::request("GET", &c.router.url(), "/stats", None).unwrap();
        let doc = parse(&stats.body).unwrap();
        let memo = doc.get("router").and_then(|r| r.get("fingerprint_memo"));
        memo.and_then(|m| m.get("hits")?.as_f64()).unwrap()
    };
    let first = client::batch(&c.router.url(), &entries, &[2, 4], 1, false).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let before = memo_hits();
    let replay = client::batch(&c.router.url(), &entries, &[2, 4], 1, false).unwrap();
    assert_eq!(memo_hits() - before, entries.len() as f64);
    assert_eq!(replay.body, first.body);
    let single = client::batch(&c.reference.url(), &entries, &[2, 4], 1, false).unwrap();
    assert_eq!(replay.body, single.body);
}
