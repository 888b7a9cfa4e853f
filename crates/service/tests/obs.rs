//! Observability end-to-end: `/metrics` exposition validity, the
//! per-request trace/elapsed headers, flight-recorder phase trees, and the
//! bit-identity guarantee that spans never perturb analysis bodies.

use graphio_graph::generators::{fft_butterfly, naive_matmul};
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::CompGraph;
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, Server, ServiceConfig};
use std::time::Duration;

fn test_server() -> Server {
    serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    })
    .expect("bind test server")
}

fn graph_json(g: &CompGraph) -> String {
    g.to_edge_list().to_json()
}

fn scrape_metrics(url: &str) -> (graphio_obs::Exposition, String) {
    // The request histogram records just *after* the response bytes
    // flush, so a scrape racing the previous response could read one
    // sample short; settle first.
    std::thread::sleep(Duration::from_millis(150));
    let r = client::request("GET", url, "/metrics", None).expect("GET /metrics");
    assert_eq!(r.status, 200);
    assert!(
        r.header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "metrics must be text exposition, got {:?}",
        r.header("content-type")
    );
    let expo = graphio_obs::parse_metrics(&r.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", r.body));
    (expo, r.body)
}

/// The exposition parses line-by-line, histograms are structurally valid
/// (cumulative monotone buckets, `+Inf == _count`, `_sum` present — all
/// enforced inside `parse_metrics`), every `/stats` counter family is
/// present, and the request/phase histograms move with traffic.
#[test]
fn metrics_exposition_is_valid_and_counts_requests() {
    let server = test_server();
    let g = fft_butterfly(4);
    let body_req = format!("{{\"graph\":{},\"memories\":[2,4]}}", graph_json(&g));
    let r = client::request("POST", &server.url(), "/analyze", Some(&body_req)).unwrap();
    assert_eq!(r.status, 200);

    let (before, _) = scrape_metrics(&server.url());
    for name in [
        "graphio_service_uptime_seconds",
        "graphio_service_connections_total",
        "graphio_service_requests_total",
        "graphio_service_analyze_ok_total",
        "graphio_service_errors_total",
        "graphio_cache_sessions",
        "graphio_cache_hits_total",
        "graphio_cache_misses_total",
        "graphio_engine_spectrum_misses_total",
        "graphio_linalg_dense_eigensolves_total",
        // Recorder health (satellite): drop counter plus ring occupancy.
        "graphio_recorder_dropped_spans_total",
        "graphio_recorder_inserted_total",
        // Process gauges from /proc (this suite runs on Linux CI).
        "process_resident_bytes",
        "process_virtual_bytes",
        "process_threads",
        "process_open_fds",
    ] {
        assert!(
            before.value(name, &[]).is_some(),
            "metric {name} missing from /metrics"
        );
    }
    // Labeled recorder/process series: live+pinned ring occupancy and
    // capacity, and CPU split by mode.
    for ring in ["live", "pinned"] {
        for name in [
            "graphio_recorder_ring_occupancy",
            "graphio_recorder_ring_capacity",
        ] {
            assert!(
                before.value(name, &[("ring", ring)]).is_some(),
                "metric {name}{{ring=\"{ring}\"}} missing from /metrics"
            );
        }
    }
    for mode in ["user", "system"] {
        assert!(
            before
                .value("process_cpu_seconds_total", &[("mode", mode)])
                .is_some(),
            "process_cpu_seconds_total{{mode=\"{mode}\"}} missing"
        );
    }
    // The analysis phases the acceptance bar names, as histogram series.
    for phase in ["laplacian", "eigensolve", "mincut"] {
        let count = before
            .value(
                "graphio_phase_duration_microseconds_count",
                &[("phase", phase)],
            )
            .unwrap_or_else(|| panic!("phase histogram {phase} missing"));
        assert!(count >= 1.0, "phase {phase} recorded no samples");
    }

    // Counters move by exactly the traffic sent between two scrapes.
    const N: u64 = 5;
    for _ in 0..N {
        let r = client::request("POST", &server.url(), "/analyze", Some(&body_req)).unwrap();
        assert_eq!(r.status, 200);
    }
    let (after, _) = scrape_metrics(&server.url());
    let delta = |name: &str, labels: &[(&str, &str)]| {
        after.value(name, labels).unwrap_or(0.0) - before.value(name, labels).unwrap_or(0.0)
    };
    // +1: the second scrape's own GET /metrics has been counted by the
    // time its handler renders.
    assert_eq!(
        delta("graphio_service_requests_total", &[]),
        (N + 1) as f64,
        "requests_total must move by exactly the request count"
    );
    assert_eq!(delta("graphio_service_analyze_ok_total", &[]), N as f64);
    assert_eq!(
        delta(
            "graphio_request_duration_microseconds_count",
            &[("endpoint", "/analyze")],
        ),
        N as f64,
        "the /analyze latency histogram must record every request"
    );
    // All N repeats hit the session cached by the warm-up request.
    assert_eq!(delta("graphio_cache_hits_total", &[]), N as f64);
    server.shutdown();
}

/// Satellite: every 200 carries `X-Graphio-Trace` (32 hex chars) and
/// `X-Graphio-Elapsed-Us` (positive, under a minute), across `/analyze`,
/// `/graphs`, `/batch` (where elapsed is the scatter/gather wall time)
/// and `/metrics` itself.
#[test]
fn every_200_carries_trace_and_positive_elapsed_headers() {
    let server = test_server();
    let g = naive_matmul(2);
    let analyze = format!("{{\"graph\":{},\"memories\":[2,4]}}", graph_json(&g));
    let batch = format!(
        "{{\"graphs\":[{0},{0}],\"memories\":[2,4]}}",
        graph_json(&g)
    );
    let register = format!("{{\"graph\":{}}}", graph_json(&g));
    let checks: [(&str, &str, Option<&str>); 4] = [
        ("POST", "/analyze", Some(&analyze)),
        ("POST", "/batch", Some(&batch)),
        ("POST", "/graphs", Some(&register)),
        ("GET", "/metrics", None),
    ];
    for (method, path, body) in checks {
        let r = client::request(method, &server.url(), path, body).unwrap();
        assert_eq!(r.status, 200, "{path} failed: {}", r.body);
        let trace = r
            .header("x-graphio-trace")
            .unwrap_or_else(|| panic!("{path}: missing X-Graphio-Trace"));
        assert_eq!(trace.len(), 32, "{path}: trace {trace:?} is not 32 hex");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));
        let elapsed: u64 = r
            .header("x-graphio-elapsed-us")
            .unwrap_or_else(|| panic!("{path}: missing X-Graphio-Elapsed-Us"))
            .parse()
            .expect("elapsed header parses");
        assert!(elapsed > 0, "{path}: elapsed must be positive");
        assert!(
            elapsed < 60_000_000,
            "{path}: elapsed {elapsed}µs exceeds a minute"
        );
    }
    server.shutdown();
}

/// The bit-identity contract survives instrumentation: the same spec
/// produces byte-identical analysis bodies with span collection off and
/// on (spans observe phases; they must never perturb results).
#[test]
fn analysis_bodies_are_byte_identical_with_spans_on_and_off() {
    let spec = AnalyzeSpec {
        memories: vec![2, 4, 8],
        processors: 1,
        no_sim: false,
    };
    let was = graphio_obs::enabled();
    graphio_obs::set_enabled(false);
    let off = analysis_body(
        &graphio_spectral::OwnedAnalyzer::from_graph(fft_butterfly(4)),
        &spec,
    );
    graphio_obs::set_enabled(true);
    let on = analysis_body(
        &graphio_spectral::OwnedAnalyzer::from_graph(fft_butterfly(4)),
        &spec,
    );
    graphio_obs::set_enabled(was);
    assert_eq!(off.as_bytes(), on.as_bytes());
}

/// Sends `method path body` with a client-chosen trace ID until
/// `GET /trace/{id}` answers 200, returning the status of the last send
/// and the trace body. Retrying absorbs two benign races: the recorder
/// inserts just *after* the response flushes, and a sibling test toggles
/// the global span switch off briefly (a request landing in that window
/// records nothing).
fn send_until_recorded(
    server: &Server,
    method: &str,
    path: &str,
    body: &str,
    trace: &str,
) -> (u16, String) {
    let mut session = client::Client::new(&server.url()).expect("connect");
    let mut last_status = 0;
    for _ in 0..50 {
        let r = session
            .request_with(
                method,
                path,
                Some(body),
                &[("X-Graphio-Trace", trace.to_string())],
            )
            .expect("send traced request");
        last_status = r.status;
        std::thread::sleep(Duration::from_millis(50));
        let r = client::request("GET", &server.url(), &format!("/trace/{trace}"), None).unwrap();
        if r.status == 200 {
            return (last_status, r.body);
        }
    }
    panic!("trace {trace} never became queryable (last send: {last_status})");
}

/// Tentpole: the flight recorder makes `X-Graphio-Trace` queryable.
/// A client-supplied trace ID comes back verbatim from `GET /trace/{id}`
/// as a full phase tree, shows up in `GET /traces` summaries, and the
/// query vocabulary rejects garbage (malformed hex → 400, unknown trace
/// → 404, unknown query parameter → 400).
#[test]
fn trace_endpoints_serve_recorded_requests() {
    let server = test_server();
    let g = fft_butterfly(4);
    let body = format!("{{\"graph\":{},\"memories\":[2,4]}}", graph_json(&g));
    let sent_trace = "0f1e2d3c4b5a69788796a5b4c3d2e1f0";
    let (status, record_body) = send_until_recorded(&server, "POST", "/analyze", &body, sent_trace);
    assert_eq!(status, 200);
    let doc = parse(&record_body).expect("trace record is valid JSON");
    assert_eq!(
        doc.get("trace").and_then(JsonValue::as_str),
        Some(sent_trace)
    );
    assert_eq!(
        doc.get("endpoint").and_then(JsonValue::as_str),
        Some("/analyze")
    );
    assert_eq!(doc.get("status").and_then(JsonValue::as_f64), Some(200.0));
    let elapsed = doc
        .get("elapsed_us")
        .and_then(JsonValue::as_f64)
        .expect("elapsed_us");
    assert!(elapsed >= 1.0);
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("spans array");
    assert!(!spans.is_empty(), "an /analyze trace records phases");
    // The root span is the endpoint span; children stay inside it.
    let root_dur = spans[0]
        .get("dur_us")
        .and_then(JsonValue::as_f64)
        .expect("root dur_us");
    assert!(root_dur <= elapsed);

    // The summary listing carries the same request.
    let r = client::request("GET", &server.url(), "/traces?n=100", None).unwrap();
    assert_eq!(r.status, 200);
    let listing = parse(&r.body).expect("traces listing is valid JSON");
    let summaries = listing.as_array().expect("listing is an array");
    let ours = summaries
        .iter()
        .find(|s| s.get("trace").and_then(JsonValue::as_str) == Some(sent_trace))
        .expect("recorded trace appears in GET /traces");
    assert_eq!(
        ours.get("spans").and_then(JsonValue::as_f64),
        Some(spans.len() as f64),
        "summary span count matches the full record"
    );

    // Filters apply: a status filter that matches nothing hides it.
    let r = client::request("GET", &server.url(), "/traces?n=100&status=404", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        !r.body.contains(sent_trace),
        "status filter must exclude 200s"
    );

    // Query-vocabulary errors.
    let r = client::request("GET", &server.url(), "/trace/not-hex", None).unwrap();
    assert_eq!(r.status, 400, "malformed trace id is a client error");
    let r = client::request(
        "GET",
        &server.url(),
        "/trace/00000000000000000000000000000001",
        None,
    )
    .unwrap();
    assert_eq!(r.status, 404, "unknown trace is not found");
    let r = client::request("GET", &server.url(), "/traces?bogus=1", None).unwrap();
    assert_eq!(r.status, 400, "unknown query parameter is rejected");
    server.shutdown();
}

/// The span names of one traced `/analyze` of `body`, sent once, in
/// record order (the root first). Polls `/trace/{id}` because the record
/// lands only after the response flushes.
fn traced_span_names(server: &Server, body: &str, trace: &str) -> Vec<String> {
    let header = [("X-Graphio-Trace", trace.to_string())];
    let r = client::request_with("POST", &server.url(), "/analyze", Some(body), &header).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    for _ in 0..50 {
        let t = client::request("GET", &server.url(), &format!("/trace/{trace}"), None).unwrap();
        if t.status == 200 {
            let doc = parse(&t.body).expect("trace record is valid JSON");
            let spans = doc.get("spans").and_then(JsonValue::as_array);
            return spans
                .expect("spans array")
                .iter()
                .filter_map(|s| s.get("name").and_then(JsonValue::as_str))
                .map(str::to_string)
                .collect();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("trace {trace} never became queryable");
}

/// A traced warm request names every phase it runs, in order. A body
/// answered before is a body-memo hit: `body_memo` (hash and lookup),
/// `session_lookup` (RAM, then store), `serialize` (the session's stored
/// document and the metadata headers), `persist` (store write-through
/// and the cache's byte budget) and `respond` (the socket write). A new
/// spelling of the same graph misses the body memo and inserts `parse`
/// (bytes to edge list, then the spec), `graph_build` (edge list to
/// validated graph) and `fingerprint` (memo lookup, refinement on a miss)
/// after `body_memo`. Neither simulates: the session memoizes that.
#[test]
fn traced_hits_name_fingerprint_and_session_lookup() {
    let server = test_server();
    let g = fft_butterfly(4);
    let body = format!("{{\"graph\":{},\"memories\":[2,4]}}", graph_json(&g));
    let r = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200);
    let hit = traced_span_names(&server, &body, "1f2e3d4c5b6a79880796a5b4c3d2e1f0");
    let hit_path = [
        "/analyze",
        "body_memo",
        "session_lookup",
        "serialize",
        "persist",
        "respond",
    ];
    assert_eq!(hit, hit_path, "body-memo hit phases");
    let respelled = format!("{{ \"memories\": [2, 4], \"graph\": {} }}", graph_json(&g));
    let miss = traced_span_names(&server, &respelled, "2f2e3d4c5b6a79880796a5b4c3d2e1f0");
    let miss_path = [
        "/analyze",
        "body_memo",
        "parse",
        "graph_build",
        "fingerprint",
        "session_lookup",
        "serialize",
        "persist",
        "respond",
    ];
    assert_eq!(miss, miss_path, "body-memo miss phases");
    server.shutdown();
}

/// Acceptance bar: recording must never perturb responses. The body a
/// server with the flight recorder attached (every `serve()` attaches
/// it) returns for `POST /analyze` is byte-identical to the analysis
/// document computed directly — the same contract `graphio analyze
/// --json` relies on, now holding through record insertion.
#[test]
fn analyze_bodies_are_byte_identical_with_recorder_attached() {
    let server = test_server();
    assert!(
        graphio_obs::recorder::recorder().is_some(),
        "serve() must attach the flight recorder"
    );
    let g = fft_butterfly(4);
    let body = format!("{{\"graph\":{},\"memories\":[2,4,8]}}", graph_json(&g));
    let r = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200);
    let spec = AnalyzeSpec {
        memories: vec![2, 4, 8],
        processors: 1,
        no_sim: false,
    };
    let reference = analysis_body(
        &graphio_spectral::OwnedAnalyzer::from_graph(fft_butterfly(4)),
        &spec,
    );
    assert_eq!(
        r.body.as_bytes(),
        reference.as_bytes(),
        "recorder must not perturb analysis bodies"
    );
    server.shutdown();
}

/// Tail-based retention: an error response (status ≥ 400) is pinned and
/// written through to `--trace-store` as the very `/trace/{id}` body the
/// ring served, so the trace outlives both the ring and the process.
#[test]
fn pinned_error_traces_persist_to_the_trace_store() {
    use graphio_store::{Store, StoreConfig};
    let dir = std::env::temp_dir().join(format!("graphio_trace_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = serve(&ServiceConfig {
        workers: 2,
        trace_store: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("bind trace-store server");
    let sent_trace = "deadbeefdeadbeefdeadbeefdeadbeef";
    let (status, live) =
        send_until_recorded(&server, "POST", "/analyze", "{this is not json", sent_trace);
    assert_eq!(status, 400, "malformed body is a client error");
    server.shutdown();
    // After shutdown, the record must still be in the store, holding the
    // exact JSON the ring served. (Read-only: the server's own store
    // handle keeps the in-process write lock until it drops.)
    let store = Store::open_read_only(&dir, StoreConfig::default()).expect("reopen trace store");
    let trace = graphio_obs::parse_trace_hex(sent_trace).unwrap();
    let bytes = store
        .get(graphio_graph::Fingerprint(trace))
        .expect("store read")
        .expect("pinned error trace persisted");
    let stored = String::from_utf8(bytes).expect("stored trace is UTF-8");
    assert_eq!(stored + "\n", live);
    assert!(live.contains("\"status\":400,"), "{live}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace-store record that is not this trace's JSON document is never
/// served: a binary record in the layout older versions wrote, bytes that
/// are not JSON, and JSON naming another trace all answer 404.
#[test]
fn unreadable_trace_store_records_answer_404() {
    use graphio_store::{Store, StoreConfig};
    let dir = std::env::temp_dir().join(format!("graphio_trace_legacy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ids = [
        "000000000000000000000000000000a1",
        "000000000000000000000000000000a2",
        "000000000000000000000000000000a3",
    ];
    // The version-2 binary layout older versions wrote, for trace 0xa1.
    let legacy: String = [
        "02",                               // trace record version
        "a1000000000000000000000000000000", // trace
        "02000000",                         // endpoint len = 2
        "2f74",                             // "/t"
        "f7010000",                         // status = 503
        "00",                               // no fingerprint
        "03",                               // outcome = miss
        "0700000000000000",                 // elapsed_us = 7
        "0000000000000000",                 // dropped_spans = 0
        "0100000000000000",                 // seq = 1
        "01000000",                         // 1 span
        "01000000",                         // name len = 1
        "78",                               // "x"
        "ffffffff",                         // parent = none
        "0000000000000000",                 // start_us = 0
        "0700000000000000",                 // dur_us = 7
        "0900000000000000",                 // alloc_bytes = 9
        "0200000000000000",                 // allocs = 2
    ]
    .concat();
    let legacy: Vec<u8> = (0..legacy.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&legacy[i..i + 2], 16).unwrap())
        .collect();
    let other = format!(
        "{{\"trace\":\"{}\",\"status\":400,\"spans\":[]}}",
        "f".repeat(32)
    );
    {
        let store = Store::open(&dir, StoreConfig::default()).expect("open trace store");
        for (id, doc) in ids
            .iter()
            .zip([legacy, b"{not json".to_vec(), other.into_bytes()])
        {
            let trace = graphio_obs::parse_trace_hex(id).unwrap();
            store.put(graphio_graph::Fingerprint(trace), &doc).unwrap();
        }
    }
    let server = serve(&ServiceConfig {
        workers: 2,
        trace_store: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("bind trace-store server");
    for id in ids {
        let r = client::request("GET", &server.url(), &format!("/trace/{id}"), None).unwrap();
        assert_eq!(r.status, 404, "{id}: {}", r.body);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every request's flight-recorder record is a JSON phase tree whose
/// trace matches the response's `X-Graphio-Trace`, whose root span covers
/// its children, and whose children's durations sum to no more than the
/// root's.
#[test]
fn phase_tree_is_consistent_and_trace_matches_response() {
    let server = test_server();

    let g = fft_butterfly(4);
    let body = format!("{{\"graph\":{},\"memories\":[2,4]}}", graph_json(&g));
    let sent_trace = "00112233445566778899aabbccddeeff";
    let mut session = client::Client::new(&server.url()).unwrap();
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
        "the response must echo the client-supplied trace ID"
    );
    // The recorder inserts just after the response flushes; poll briefly.
    let path = format!("/trace/{sent_trace}");
    let mut record = client::request("GET", &server.url(), &path, None).unwrap();
    for _ in 0..50 {
        if record.status == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        record = client::request("GET", &server.url(), &path, None).unwrap();
    }
    assert_eq!(record.status, 200, "no record for trace {sent_trace}");
    let doc = parse(&record.body).expect("trace record is valid JSON");
    assert_eq!(
        doc.get("trace").and_then(JsonValue::as_str),
        Some(sent_trace)
    );
    assert_eq!(
        doc.get("endpoint").and_then(JsonValue::as_str),
        Some("/analyze")
    );
    let elapsed = doc
        .get("elapsed_us")
        .and_then(JsonValue::as_f64)
        .expect("elapsed_us");
    let spans = match doc.get("spans") {
        Some(JsonValue::Array(spans)) => spans,
        other => panic!("spans must be an array, got {other:?}"),
    };
    assert!(!spans.is_empty(), "an /analyze request records phases");
    let field = |span: &JsonValue, name: &str| span.get(name).and_then(JsonValue::as_f64);
    // Node 0 is the root (endpoint) span: no parent, duration within the
    // request's elapsed time.
    let root = &spans[0];
    assert!(
        root.get("parent")
            .is_none_or(|p| matches!(p, JsonValue::Null)),
        "span 0 must be the root"
    );
    let root_dur = field(root, "dur_us").expect("root dur_us");
    assert!(root_dur <= elapsed, "root span cannot outlast the request");
    // Children of the root: each inside the root's window, durations
    // summing to no more than the root's (phases don't overlap on one
    // thread).
    let mut child_sum = 0.0;
    for span in &spans[1..] {
        let start = field(span, "start_us").expect("start_us");
        let dur = field(span, "dur_us").expect("dur_us");
        assert!(start + dur <= elapsed + 1.0, "span escapes the request");
        if span.get("parent").and_then(JsonValue::as_f64) == Some(0.0) {
            child_sum += dur;
        }
    }
    assert!(
        child_sum <= root_dur,
        "child span durations ({child_sum}) must sum to <= root ({root_dur})"
    );
    server.shutdown();
}
