//! Continuous-profiling end-to-end at the service tier, run under the
//! counting allocator exactly like the shipped binary: `/debug/profile`
//! samples live traffic into collapsed-stack text, analysis bodies stay
//! byte-identical while the sampler runs, the query vocabulary rejects
//! garbage, and trace records carry per-span allocation attribution.

use graphio_graph::generators::fft_butterfly;
use graphio_graph::json::{parse, JsonValue};
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_service::{client, serve, Server, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[global_allocator]
static COUNTING: graphio_obs::CountingAlloc = graphio_obs::CountingAlloc;

/// Tests in this binary share the server-side global switches; serialize.
static SERVER_LOCK: Mutex<()> = Mutex::new(());

fn test_server() -> Server {
    serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    })
    .expect("bind test server")
}

fn analyze_body() -> String {
    format!(
        "{{\"graph\":{},\"memories\":[2,4,8]}}",
        fft_butterfly(6).to_edge_list().to_json()
    )
}

/// Hammers `/analyze` from a background thread until told to stop, so the
/// sampling window actually observes analysis phases on worker threads.
fn under_load<T>(server: &Server, f: impl FnOnce() -> T) -> T {
    let stop = Arc::new(AtomicBool::new(false));
    let url = server.url();
    let body = analyze_body();
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = client::request("POST", &url, "/analyze", Some(&body));
            }
        })
    };
    let out = f();
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    out
}

/// Tentpole e2e: `GET /debug/profile?seconds=1` under analyze load
/// answers parseable collapsed-stack text whose samples land in named
/// request/phase frames — at least 90% attributed to the endpoint roots
/// the service opens for every request.
#[test]
fn debug_profile_samples_live_traffic_into_named_frames() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let server = test_server();
    let body = under_load(&server, || {
        let r = client::request("GET", &server.url(), "/debug/profile?seconds=1", None)
            .expect("GET /debug/profile");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.header("content-type")
                .is_some_and(|ct| ct.starts_with("text/plain")),
            "profile must be plain text, got {:?}",
            r.header("content-type")
        );
        r.body
    });
    let stacks = graphio_obs::profile::parse_collapsed(&body)
        .unwrap_or_else(|| panic!("malformed collapsed stacks:\n{body}"));
    let total: u64 = stacks.iter().map(|(_, c)| c).sum();
    assert!(total > 0, "a loaded 1s window must catch samples:\n{body}");
    // ≥90% of samples attribute to named phases rooted at a request
    // endpoint (the root span `traced_request` opens). The remainder is
    // the worker-pool fraction caught between requests.
    let attributed: u64 = stacks
        .iter()
        .filter(|(path, _)| path.first().is_some_and(|f| f.starts_with('/')))
        .map(|(_, c)| c)
        .sum();
    assert!(
        attributed * 10 >= total * 9,
        "only {attributed}/{total} samples under endpoint roots:\n{body}"
    );
    assert!(
        stacks
            .iter()
            .any(|(path, _)| path.iter().any(|f| f == "/analyze")),
        "the hammered endpoint must appear:\n{body}"
    );
    server.shutdown();
}

/// Acceptance bar: `/analyze` bodies are byte-identical whether or not
/// the profiler is sampling (and with allocation attribution live, since
/// this whole binary runs under the counting allocator).
#[test]
fn analysis_bodies_are_byte_identical_while_profiling() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let server = test_server();
    let body = analyze_body();
    let quiet = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(quiet.status, 200);
    // Re-request while a 1s sampling window is in flight.
    let url = server.url();
    let sampler =
        std::thread::spawn(move || client::request("GET", &url, "/debug/profile?seconds=1", None));
    std::thread::sleep(Duration::from_millis(100));
    let sampled = client::request("POST", &server.url(), "/analyze", Some(&body)).unwrap();
    assert_eq!(sampled.status, 200);
    assert_eq!(
        quiet.body.as_bytes(),
        sampled.body.as_bytes(),
        "sampling must not perturb analysis bodies"
    );
    // And both match the offline reference computation.
    let spec = AnalyzeSpec {
        memories: vec![2, 4, 8],
        processors: 1,
        no_sim: false,
    };
    let reference = analysis_body(
        &graphio_spectral::OwnedAnalyzer::new(std::sync::Arc::new(fft_butterfly(6))),
        &spec,
    );
    assert_eq!(quiet.body.as_bytes(), reference.as_bytes());
    assert_eq!(sampler.join().unwrap().unwrap().status, 200);
    server.shutdown();
}

/// The strict query vocabulary: out-of-range windows and unknown
/// parameters 400 (never silently clamp — a 31s ask would outlive the
/// router's scrape timeout, so it must be refused loudly).
#[test]
fn profile_query_vocabulary_rejects_garbage() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let server = test_server();
    for bad in [
        "/debug/profile?seconds=0",
        "/debug/profile?seconds=31",
        "/debug/profile?seconds=abc",
        "/debug/profile?hz=50",
        "/debug/profile?seconds=2&bogus=1",
    ] {
        let r = client::request("GET", &server.url(), bad, None).unwrap();
        assert_eq!(
            r.status, 400,
            "{bad} must 400, got {}: {}",
            r.status, r.body
        );
    }
    server.shutdown();
}

/// Per-span allocation attribution reaches the trace records: an analyze
/// request's `GET /trace/{id}` phase tree carries `alloc_bytes`/`allocs`,
/// and the root (inclusive, like `dur_us`) allocated something.
#[test]
fn trace_records_carry_allocation_attribution() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let server = test_server();
    let body = analyze_body();
    let sent_trace = "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a";
    let mut session = client::Client::new(&server.url()).unwrap();
    let mut record = None;
    for _ in 0..50 {
        let r = session
            .request_with(
                "POST",
                "/analyze",
                Some(&body),
                &[("X-Graphio-Trace", sent_trace.to_string())],
            )
            .unwrap();
        assert_eq!(r.status, 200);
        std::thread::sleep(Duration::from_millis(50));
        let r =
            client::request("GET", &server.url(), &format!("/trace/{sent_trace}"), None).unwrap();
        if r.status == 200 {
            record = Some(r.body);
            break;
        }
    }
    let record = record.expect("trace never recorded");
    let doc = parse(&record).expect("trace record is valid JSON");
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("spans array");
    assert!(!spans.is_empty());
    for span in spans {
        assert!(
            span.get("alloc_bytes")
                .and_then(JsonValue::as_u64)
                .is_some(),
            "every span carries alloc_bytes: {record}"
        );
        assert!(
            span.get("allocs").and_then(JsonValue::as_u64).is_some(),
            "every span carries allocs: {record}"
        );
    }
    let root = &spans[0];
    assert!(
        root.get("alloc_bytes").and_then(JsonValue::as_u64).unwrap() > 0,
        "the request root must have allocated (inclusive accounting): {record}"
    );
    // Per-phase counters surface on /metrics under this binary's
    // counting allocator.
    let m = client::request("GET", &server.url(), "/metrics", None).unwrap();
    assert_eq!(m.status, 200);
    let expo = graphio_obs::parse_metrics(&m.body).expect("valid exposition");
    let endpoint_bytes = expo
        .value("graphio_phase_alloc_bytes_total", &[("phase", "/analyze")])
        .expect("per-phase alloc counter for the endpoint root");
    assert!(endpoint_bytes > 0.0);
    server.shutdown();
}
