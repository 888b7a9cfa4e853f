//! Router observability end-to-end: `/metrics` exposition with
//! per-backend series, trace-ID propagation client → router → backend
//! and back, slow-log phase trees at both tiers, and per-backend
//! `scrape_us` in `GET /stats`.

use graphio_graph::generators::fft_butterfly;
use graphio_graph::json::{parse, JsonValue};
use graphio_router::{serve_router, RouterConfig, RouterServer};
use graphio_service::{client, serve, Server, ServiceConfig, SlowLogConfig, SlowLogTarget};
use std::time::Duration;

fn backends(n: usize, slow_log: Option<SlowLogConfig>) -> Vec<Server> {
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        slow_log,
        ..Default::default()
    };
    (0..n).map(|_| serve(&config).expect("backend")).collect()
}

fn router_over(backends: &[Server], slow_log: Option<SlowLogConfig>) -> RouterServer {
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    serve_router(&RouterConfig {
        health_interval: Duration::from_millis(100),
        slow_log,
        ..RouterConfig::over(addrs)
    })
    .expect("router")
}

/// Held by a test that floods the process-wide flight recorder, and by
/// one that expects its own record to stay among the newest
/// `GET /traces?n=100` summaries: the two never overlap.
fn flight_recorder_to_itself() -> std::sync::MutexGuard<'static, ()> {
    static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());
    RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn analyze_body_for(k: usize) -> String {
    format!(
        "{{\"graph\":{},\"memories\":[2,4]}}",
        fft_butterfly(k).to_edge_list().to_json()
    )
}

/// The router's `/metrics` parses and validates like the service's, and
/// carries router counters plus one labeled series per backend.
#[test]
fn router_metrics_exposition_is_valid_with_per_backend_series() {
    let backends = backends(2, None);
    let router = router_over(&backends, None);
    let body = analyze_body_for(4);
    for _ in 0..3 {
        let r = client::request("POST", &router.url(), "/analyze", Some(&body)).unwrap();
        assert_eq!(r.status, 200);
    }
    std::thread::sleep(Duration::from_millis(150));
    let r = client::request("GET", &router.url(), "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(r
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let expo = graphio_obs::parse_metrics(&r.body)
        .unwrap_or_else(|e| panic!("invalid router exposition: {e}\n{}", r.body));
    assert!(expo.value("graphio_router_requests_total", &[]).unwrap() >= 3.0);
    assert_eq!(
        expo.value("graphio_router_analyze_ok_total", &[]),
        Some(3.0)
    );
    assert_eq!(expo.value("graphio_router_backends", &[]), Some(2.0));
    assert_eq!(
        expo.value("graphio_router_backends_healthy", &[]),
        Some(2.0)
    );
    // One labeled series per backend, and the per-backend request
    // counters account for all forwarded traffic.
    let mut labeled = expo.label_values("graphio_router_backend_requests_total", "backend");
    labeled.sort();
    let mut addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    addrs.sort();
    assert_eq!(labeled, addrs);
    let forwarded: f64 = addrs
        .iter()
        .map(|a| {
            expo.value(
                "graphio_router_backend_requests_total",
                &[("backend", a.as_str())],
            )
            .unwrap()
        })
        .sum();
    assert_eq!(forwarded, 3.0);
    // Recorder health and process gauges surface at the router tier too
    // (same series names as the service, scraped per process in a real
    // cluster).
    for name in [
        "graphio_recorder_dropped_spans_total",
        "graphio_recorder_inserted_total",
        "process_resident_bytes",
        "process_threads",
        "process_open_fds",
    ] {
        assert!(
            expo.value(name, &[]).is_some(),
            "metric {name} missing from router /metrics"
        );
    }
    for ring in ["live", "pinned"] {
        assert!(
            expo.value("graphio_recorder_ring_occupancy", &[("ring", ring)])
                .is_some(),
            "ring occupancy {ring} missing from router /metrics"
        );
    }
    // The router records its own request-latency histograms per
    // endpoint. In-process backends share the registry (one process, one
    // registry), so the count is at least the router's 3 — exactly 6
    // here, router + backend sides of each request.
    let analyze_count = expo
        .value(
            "graphio_request_duration_microseconds_count",
            &[("endpoint", "/analyze")],
        )
        .expect("router /analyze latency histogram");
    assert!(analyze_count >= 3.0);
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// One trace ID, three observation points: the client-sent trace comes
/// back in the routed response header, appears in the router's slow log,
/// and appears in the backend's slow log (the router injects it on the
/// forwarded request). Both phase trees are structurally consistent.
#[test]
fn trace_id_flows_client_to_router_to_backend_and_back() {
    let dir = std::env::temp_dir();
    let backend_log = dir.join(format!("graphio_obs_backend_{}.jsonl", std::process::id()));
    let router_log = dir.join(format!("graphio_obs_router_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&backend_log);
    let _ = std::fs::remove_file(&router_log);
    let slow = |path: &std::path::Path| {
        Some(SlowLogConfig {
            threshold_us: 0,
            target: SlowLogTarget::File(path.to_path_buf()),
            rotate_bytes: None,
        })
    };
    let backends = backends(2, slow(&backend_log));
    let router = router_over(&backends, slow(&router_log));

    let sent_trace = "feedfacecafebeef0123456789abcdef";
    let mut session = client::Client::new(&router.url()).unwrap();
    let body = analyze_body_for(4);
    let r = session
        .request_with(
            "POST",
            "/analyze",
            Some(&body),
            &[("X-Graphio-Trace", sent_trace.to_string())],
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.header("x-graphio-trace"),
        Some(sent_trace),
        "the routed response must echo the client trace"
    );
    assert!(
        r.header("x-graphio-backend").is_some(),
        "relay names the answering backend"
    );

    let find_line = |path: &std::path::Path| -> String {
        for _ in 0..50 {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            if let Some(line) = text.lines().find(|l| l.contains(sent_trace)) {
                return line.to_string();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!(
            "no slow-log line with trace {sent_trace} in {}",
            path.display()
        );
    };
    for (tier, path) in [("router", &router_log), ("backend", &backend_log)] {
        let doc = parse(&find_line(path)).expect("slow-log line parses");
        assert_eq!(
            doc.get("trace").and_then(JsonValue::as_str),
            Some(sent_trace),
            "{tier} slow log must carry the end-to-end trace"
        );
        assert_eq!(
            doc.get("endpoint").and_then(JsonValue::as_str),
            Some("/analyze")
        );
        let elapsed = doc.get("elapsed_us").and_then(JsonValue::as_f64).unwrap();
        let spans = match doc.get("spans") {
            Some(JsonValue::Array(spans)) => spans,
            other => panic!("{tier}: spans must be an array, got {other:?}"),
        };
        assert!(!spans.is_empty());
        let root_dur = spans[0].get("dur_us").and_then(JsonValue::as_f64).unwrap();
        assert!(root_dur <= elapsed, "{tier}: root span outlasts request");
        let child_sum: f64 = spans[1..]
            .iter()
            .filter(|s| s.get("parent").and_then(JsonValue::as_f64) == Some(0.0))
            .map(|s| s.get("dur_us").and_then(JsonValue::as_f64).unwrap())
            .sum();
        assert!(
            child_sum <= root_dur,
            "{tier}: children ({child_sum}) exceed root ({root_dur})"
        );
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    let _ = std::fs::remove_file(&backend_log);
    let _ = std::fs::remove_file(&router_log);
}

/// Trace assembly is a pure function over parsed records. A backend's
/// phase tree is grafted under a synthetic `backend <addr>` span that
/// parents to the router's scatter span, with every backend span index
/// re-based; a backend record identical to the router's own (the shared
/// in-process recorder answering for "both" tiers) is skipped as an
/// echo; joined backends are named in the `backends` array.
#[test]
fn assemble_trace_grafts_backend_trees_under_the_scatter_span() {
    let router_json = concat!(
        "{\"trace\":\"00000000000000000000000000000abc\",\"endpoint\":\"/batch\",",
        "\"status\":200,\"elapsed_us\":100,\"seq\":7,\"spans\":[",
        "{\"name\":\"/batch\",\"parent\":null,\"start_us\":0,\"dur_us\":100},",
        "{\"name\":\"batch_scatter\",\"parent\":0,\"start_us\":10,\"dur_us\":80}]}"
    );
    let router_doc = parse(router_json).unwrap();
    let backend_doc = parse(concat!(
        "{\"trace\":\"00000000000000000000000000000abc\",\"endpoint\":\"/batch\",",
        "\"status\":200,\"elapsed_us\":40,\"seq\":3,\"spans\":[",
        "{\"name\":\"/batch\",\"parent\":null,\"start_us\":0,\"dur_us\":40},",
        "{\"name\":\"eigensolve\",\"parent\":0,\"start_us\":5,\"dur_us\":30}]}"
    ))
    .unwrap();
    // Identical to the router's record: the shared-recorder echo, skipped.
    let echo_doc = parse(router_json).unwrap();
    let assembled = graphio_router::assemble_trace(
        &router_doc,
        &[
            ("127.0.0.1:9001".to_string(), backend_doc),
            ("127.0.0.1:9002".to_string(), echo_doc),
        ],
    );
    let joined: Vec<&str> = assembled
        .get("backends")
        .and_then(JsonValue::as_array)
        .expect("backends array")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(joined, ["127.0.0.1:9001"], "echo record must be skipped");
    let spans = assembled
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("assembled spans");
    // Router's 2 spans + 1 synthetic + the joined backend's 2.
    assert_eq!(spans.len(), 5);
    let name = |i: usize| spans[i].get("name").and_then(JsonValue::as_str).unwrap();
    let parent = |i: usize| spans[i].get("parent").and_then(JsonValue::as_f64);
    let dur = |i: usize| spans[i].get("dur_us").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(name(2), "backend 127.0.0.1:9001");
    assert_eq!(parent(2), Some(1.0), "synthetic span parents the scatter");
    assert_eq!(dur(2), 40.0, "synthetic span covers the backend's elapsed");
    assert_eq!(name(3), "/batch");
    assert_eq!(parent(3), Some(2.0), "backend root re-bases to the graft");
    assert_eq!(name(4), "eigensolve");
    assert_eq!(parent(4), Some(3.0), "backend children re-index by base+1");
    // Scalars (trace, status, elapsed) come from the router record.
    assert_eq!(
        assembled.get("trace").and_then(JsonValue::as_str),
        Some("00000000000000000000000000000abc")
    );
    assert_eq!(
        assembled.get("elapsed_us").and_then(JsonValue::as_f64),
        Some(100.0)
    );
}

/// Without a `*_scatter` span the graft anchors at the root, so
/// single-backend relays (`/analyze`) still assemble a sane tree.
#[test]
fn assemble_trace_falls_back_to_the_root_anchor() {
    let router_doc = parse(concat!(
        "{\"trace\":\"00000000000000000000000000000def\",\"endpoint\":\"/analyze\",",
        "\"status\":200,\"elapsed_us\":50,\"seq\":9,\"spans\":[",
        "{\"name\":\"/analyze\",\"parent\":null,\"start_us\":0,\"dur_us\":50}]}"
    ))
    .unwrap();
    let backend_doc =
        parse("{\"seq\":2,\"elapsed_us\":20,\"spans\":[{\"name\":\"/analyze\",\"parent\":null,\"start_us\":0,\"dur_us\":20}]}")
            .unwrap();
    let assembled = graphio_router::assemble_trace(&router_doc, &[("b1".to_string(), backend_doc)]);
    let spans = assembled
        .get("spans")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(spans.len(), 3);
    assert_eq!(
        spans[1].get("parent").and_then(JsonValue::as_f64),
        Some(0.0),
        "no scatter span: the synthetic backend span parents the root"
    );
}

/// Tentpole e2e at the router tier: a routed request's trace is
/// queryable back through the router. `GET /trace/{id}` answers one
/// assembled document — root scalars from the router's own record, the
/// scatter span anchoring at least one joined backend tree, and a
/// `backends` array naming the contributors. (`GET /traces` lists the
/// request; garbage queries 400/404.)
#[test]
fn router_trace_endpoint_returns_assembled_tree() {
    let _alone = flight_recorder_to_itself();
    let backends = backends(2, None);
    let router = router_over(&backends, None);
    let g4 = fft_butterfly(4).to_edge_list().to_json();
    let g5 = fft_butterfly(5).to_edge_list().to_json();
    let batch = format!("{{\"graphs\":[{g4},{g5}],\"memories\":[2,4]}}");
    let sent_trace = "a0b1c2d3e4f5a6b7c8d9e0f1a2b3c4d5";
    let mut session = client::Client::new(&router.url()).unwrap();
    let mut record_body = None;
    // Retry until the assembly is complete: the router's own record (the
    // scatter anchor) and the backend's both land just *after* their
    // response bytes flush, in either order.
    for _ in 0..50 {
        let r = session
            .request_with(
                "POST",
                "/batch",
                Some(&batch),
                &[("X-Graphio-Trace", sent_trace.to_string())],
            )
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        std::thread::sleep(Duration::from_millis(50));
        let r =
            client::request("GET", &router.url(), &format!("/trace/{sent_trace}"), None).unwrap();
        if r.status == 200 && r.body.contains("batch_scatter") && r.body.contains("backend ") {
            record_body = Some(r.body);
            break;
        }
    }
    let record_body = record_body.expect("routed trace never assembled fully");
    let doc = parse(&record_body).expect("assembled trace is valid JSON");
    assert_eq!(
        doc.get("trace").and_then(JsonValue::as_str),
        Some(sent_trace)
    );
    assert_eq!(
        doc.get("endpoint").and_then(JsonValue::as_str),
        Some("/batch")
    );
    let joined = doc
        .get("backends")
        .and_then(JsonValue::as_array)
        .expect("assembled document names its joined backends");
    assert!(!joined.is_empty(), "at least one backend tree joined");
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("spans");
    let scatter = spans
        .iter()
        .position(|s| s.get("name").and_then(JsonValue::as_str) == Some("batch_scatter"))
        .expect("the router's scatter span anchors the assembly");
    assert!(
        spans.iter().any(|s| {
            s.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.starts_with("backend "))
                && s.get("parent").and_then(JsonValue::as_f64) == Some(scatter as f64)
        }),
        "a synthetic backend span parents the scatter: {record_body}"
    );
    // Children-of-root durations stay inside the root span at every
    // assembled level (the invariant the synthetic spans must preserve).
    let root_dur = spans[0]
        .get("dur_us")
        .and_then(JsonValue::as_f64)
        .expect("root dur");
    let child_sum: f64 = spans[1..]
        .iter()
        .filter(|s| s.get("parent").and_then(JsonValue::as_f64) == Some(0.0))
        .map(|s| s.get("dur_us").and_then(JsonValue::as_f64).unwrap_or(0.0))
        .sum();
    assert!(child_sum <= root_dur);

    let r = client::request("GET", &router.url(), "/traces?n=100", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.body.contains(sent_trace),
        "router /traces lists the routed request"
    );
    let r = client::request("GET", &router.url(), "/trace/not-hex", None).unwrap();
    assert_eq!(r.status, 400);
    let r = client::request(
        "GET",
        &router.url(),
        "/trace/ffffffffffffffffffffffffffff0001",
        None,
    )
    .unwrap();
    assert_eq!(r.status, 404, "unknown trace 404s through the router");
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Routed `/batch` carries the trace and a positive scatter/gather
/// elapsed header; routed `/stats` reports a positive per-backend
/// `scrape_us`.
#[test]
fn batch_headers_and_stats_scrape_us_through_the_router() {
    let backends = backends(2, None);
    let router = router_over(&backends, None);
    let g4 = fft_butterfly(4).to_edge_list().to_json();
    let g5 = fft_butterfly(5).to_edge_list().to_json();
    let batch = format!("{{\"graphs\":[{g4},{g5}],\"memories\":[2,4]}}");
    let r = client::request("POST", &router.url(), "/batch", Some(&batch)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let trace = r.header("x-graphio-trace").expect("batch trace header");
    assert_eq!(trace.len(), 32);
    let elapsed: u64 = r
        .header("x-graphio-elapsed-us")
        .expect("batch elapsed header")
        .parse()
        .unwrap();
    assert!(elapsed > 0 && elapsed < 60_000_000);

    let r = client::request("GET", &router.url(), "/stats", None).unwrap();
    assert_eq!(r.status, 200);
    let doc = parse(&r.body).unwrap();
    let Some(JsonValue::Array(entries)) = doc.get("backends") else {
        panic!("stats backends array missing: {}", r.body)
    };
    assert_eq!(entries.len(), 2);
    for entry in entries {
        let scrape_us = entry
            .get("scrape_us")
            .and_then(JsonValue::as_f64)
            .expect("per-backend scrape_us");
        assert!(scrape_us >= 1.0, "scrape_us must be positive");
        assert!(scrape_us < 60_000_000.0);
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Tentpole at the router tier: `GET /debug/profile` fans out to every
/// backend while the router samples itself; the merged collapsed-stack
/// body parses, backend samples sit under `backend <addr>` root frames
/// (the same shape `assemble_trace` gives the span tree), and the strict
/// query vocabulary still 400s.
#[test]
fn router_profile_fans_out_and_merges_under_backend_frames() {
    let _alone = flight_recorder_to_itself();
    let backends = backends(2, None);
    let router = router_over(&backends, None);

    // Keep analysis phases alive on the backends for the whole window.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let url = router.url();
    let load = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let bodies = [analyze_body_for(5), analyze_body_for(6)];
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = client::request("POST", &url, "/analyze", Some(&bodies[i % 2]));
                i += 1;
            }
        })
    };
    let r = client::request("GET", &router.url(), "/debug/profile?seconds=1", None).unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    load.join().unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let stacks = graphio_obs::profile::parse_collapsed(&r.body)
        .unwrap_or_else(|| panic!("malformed merged profile:\n{}", r.body));
    assert!(!stacks.is_empty(), "loaded window must catch samples");
    // Every merged backend frame names a real backend address.
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| format!("backend {}", b.addr()))
        .collect();
    let backend_roots: Vec<&str> = stacks
        .iter()
        .filter_map(|(path, _)| path.first())
        .filter(|f| f.starts_with("backend "))
        .map(String::as_str)
        .collect();
    assert!(
        !backend_roots.is_empty(),
        "backend frames must appear in the merge:\n{}",
        r.body
    );
    for root in &backend_roots {
        assert!(
            addrs.iter().any(|a| a == root),
            "unknown backend frame {root}"
        );
    }

    let r = client::request("GET", &router.url(), "/debug/profile?seconds=99", None).unwrap();
    assert_eq!(r.status, 400, "oversized window must be refused");
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
