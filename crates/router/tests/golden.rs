//! Characterization golden for the admin surface of both tiers: the
//! ordered key tree of `GET /stats`, the ordered `/metrics` family names
//! outside the histogram registry, and the `GET /healthz` body — for the
//! service (RAM-only and `--store`) and for the router over 2 backends.
//! Values vary from run to run; the shapes pinned here must not.

use graphio_graph::generators::fft_butterfly;
use graphio_graph::json::{parse, JsonValue};
use graphio_router::{serve_router, RouterConfig};
use graphio_service::{client, serve, PersistenceConfig, ServiceConfig};
use std::time::Duration;

/// Every key path of `doc` in document order (`a.b`, array elements as
/// `a[]`), each listed once.
fn key_tree(doc: &JsonValue) -> Vec<String> {
    fn walk(value: &JsonValue, prefix: &str, out: &mut Vec<String>) {
        match value {
            JsonValue::Object(entries) => {
                for (key, child) in entries {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    if !out.contains(&path) {
                        out.push(path.clone());
                    }
                    walk(child, &path, out);
                }
            }
            JsonValue::Array(items) => {
                for item in items {
                    walk(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// The `# TYPE` family names of a `/metrics` body in order, minus the
/// histogram registry (its families depend on which requests ran) and the
/// per-phase allocation counters (present only under the counting
/// allocator the CLI installs).
fn families(body: &str) -> Vec<String> {
    body.lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_once(' '))
        .filter(|(name, kind)| *kind != "histogram" && !name.starts_with("graphio_phase_alloc"))
        .map(|(name, _)| name.to_string())
        .collect()
}

fn get(url: &str, path: &str) -> String {
    let r = client::request("GET", url, path, None).unwrap();
    assert_eq!(r.status, 200, "GET {path}: {}", r.body);
    r.body
}

/// Asserts `actual` equals the golden line list, printing the actual list
/// on mismatch so an intended change can be reviewed line by line.
fn assert_golden(what: &str, actual: &[String], golden: &str) {
    let expected: Vec<&str> = golden.split_whitespace().collect();
    assert_eq!(
        actual,
        expected,
        "{what} changed; actual:\n{}",
        actual.join("\n")
    );
}

fn drive(url: &str) {
    let body = format!(
        "{{\"graph\":{},\"memories\":[2,4]}}",
        fft_butterfly(3).to_edge_list().to_json()
    );
    let r = client::request("POST", url, "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200);
}

const SERVICE_STATS_HEAD: &str = "
version uptime_seconds connections requests rejected analyze_ok batch_ok errors
cache cache.sessions cache.bytes cache.shard_bytes cache.hits cache.misses cache.evictions
store store.enabled";

const STORE_KEYS: &str = "
store.records store.segments store.bytes_on_disk store.live_bytes store.hits
store.misses store.puts store.put_skips store.evictions store.compactions
store.last_compaction_unix";

const SERVICE_STATS_TAIL: &str = "
engine engine.spectrum_misses engine.spectrum_hits engine.mincut_misses
engine.mincut_hits engine.sim_misses engine.sim_hits
body_memo body_memo.entries body_memo.capacity
body_memo.hits body_memo.misses body_memo.resets
fingerprint_memo fingerprint_memo.entries fingerprint_memo.capacity
fingerprint_memo.hits fingerprint_memo.misses fingerprint_memo.resets
linalg linalg.dense_eigensolves linalg.sparse_matvecs linalg.simd_kernel_calls
linalg.scalar_fallbacks linalg.scale_tier_solves
process process.available process.resident_bytes process.virtual_bytes
process.threads process.open_fds process.cpu_user_seconds process.cpu_system_seconds";

const SERVICE_FAMILIES_HEAD: &str = "
graphio_service_uptime_seconds graphio_service_connections_total
graphio_service_requests_total graphio_service_rejected_total
graphio_service_analyze_ok_total graphio_service_batch_ok_total
graphio_service_errors_total graphio_cache_sessions graphio_cache_bytes
graphio_cache_hits_total graphio_cache_misses_total graphio_cache_evictions_total
graphio_store_enabled";

const STORE_FAMILIES: &str = "
graphio_store_records graphio_store_segments graphio_store_bytes_on_disk
graphio_store_live_bytes graphio_store_hits_total graphio_store_misses_total
graphio_store_puts_total graphio_store_put_skips_total graphio_store_evictions_total
graphio_store_compactions_total";

const SERVICE_FAMILIES_TAIL: &str = "
graphio_engine_spectrum_hits_total graphio_engine_spectrum_misses_total
graphio_engine_mincut_hits_total graphio_engine_mincut_misses_total
graphio_engine_sim_hits_total graphio_engine_sim_misses_total
graphio_body_memo_entries graphio_body_memo_capacity
graphio_body_memo_hits_total graphio_body_memo_misses_total
graphio_body_memo_resets_total
graphio_fingerprint_memo_entries graphio_fingerprint_memo_capacity
graphio_fingerprint_memo_hits_total graphio_fingerprint_memo_misses_total
graphio_fingerprint_memo_resets_total
graphio_linalg_dense_eigensolves_total graphio_linalg_sparse_matvecs_total
graphio_linalg_simd_kernel_calls_total graphio_linalg_scalar_fallbacks_total
graphio_linalg_scale_tier_solves_total";

/// Families every tier appends after its own: the flight recorder's
/// health series and the `/proc` gauges.
const SHARED_FAMILIES: &str = "
graphio_recorder_dropped_spans_total graphio_recorder_inserted_total
graphio_recorder_ring_occupancy graphio_recorder_ring_capacity
process_resident_bytes process_virtual_bytes process_threads process_open_fds
process_cpu_seconds_total thread_cpu_seconds_total";

fn service_stats(with_store: bool) -> String {
    let store = if with_store { STORE_KEYS } else { "" };
    format!("{SERVICE_STATS_HEAD} {store} {SERVICE_STATS_TAIL}")
}

fn service_families(with_store: bool) -> String {
    let store = if with_store { STORE_FAMILIES } else { "" };
    format!("{SERVICE_FAMILIES_HEAD} {store} {SERVICE_FAMILIES_TAIL} {SHARED_FAMILIES}")
}

fn check_service(config: &ServiceConfig, with_store: bool) {
    let server = serve(config).expect("service");
    let url = server.url();
    assert_eq!(
        get(&url, "/healthz"),
        "{\"status\":\"ok\",\"workers\":2,\"queue_capacity\":64,\"sessions\":0}\n"
    );
    drive(&url);
    let stats = parse(&get(&url, "/stats")).unwrap();
    assert_golden(
        "service /stats",
        &key_tree(&stats),
        &service_stats(with_store),
    );
    let metrics = get(&url, "/metrics");
    assert_golden(
        "service /metrics",
        &families(&metrics),
        &service_families(with_store),
    );
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..Default::default()
    }
}

#[test]
fn service_admin_surface_is_pinned() {
    check_service(&service_config(), false);
}

#[test]
fn service_with_store_admin_surface_is_pinned() {
    let dir = std::env::temp_dir().join(format!("graphio_golden_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        store: Some(PersistenceConfig::at(&dir)),
        ..service_config()
    };
    check_service(&config, true);
    let _ = std::fs::remove_dir_all(&dir);
}

const ROUTER_STATS: &str = "
version uptime_seconds
router router.connections router.requests router.rejected router.analyze_ok
router.batch_ok router.errors
router.retries router.ejections router.ring_rebalances
router.body_memo router.body_memo.entries router.body_memo.capacity
router.body_memo.hits router.body_memo.misses router.body_memo.resets
router.fingerprint_memo router.fingerprint_memo.entries router.fingerprint_memo.capacity
router.fingerprint_memo.hits router.fingerprint_memo.misses router.fingerprint_memo.resets
router.replicas
process process.available process.resident_bytes process.virtual_bytes
process.threads process.open_fds process.cpu_user_seconds process.cpu_system_seconds
mixed_versions backend_versions backends
backends[].addr backends[].healthy backends[].scrape_us backends[].requests
backends[].retries backends[].ejections backends[].stats";

const ROUTER_FAMILIES: &str = "
graphio_router_uptime_seconds graphio_router_connections_total
graphio_router_requests_total graphio_router_rejected_total
graphio_router_analyze_ok_total graphio_router_batch_ok_total
graphio_router_errors_total
graphio_body_memo_entries graphio_body_memo_capacity
graphio_body_memo_hits_total graphio_body_memo_misses_total
graphio_body_memo_resets_total
graphio_fingerprint_memo_entries graphio_fingerprint_memo_capacity
graphio_fingerprint_memo_hits_total graphio_fingerprint_memo_misses_total
graphio_fingerprint_memo_resets_total
graphio_router_backends graphio_router_backends_healthy
graphio_router_backend_healthy graphio_router_backend_requests_total
graphio_router_backend_retries_total graphio_router_backend_ejections_total
graphio_router_backend_restorations_total";

#[test]
fn router_admin_surface_is_pinned() {
    let backends: Vec<_> = (0..2)
        .map(|_| serve(&service_config()).expect("backend"))
        .collect();
    let router = serve_router(&RouterConfig {
        health_interval: Duration::from_millis(100),
        ..RouterConfig::over(backends.iter().map(|b| b.addr().to_string()).collect())
    })
    .expect("router");
    let url = router.url();
    assert_eq!(
        get(&url, "/healthz"),
        "{\"status\":\"ok\",\"role\":\"router\",\"backends\":2,\"healthy\":2}\n"
    );
    drive(&url);
    let stats = parse(&get(&url, "/stats")).unwrap();
    // Each backend entry embeds that backend's own `/stats` document.
    let backend_stats = service_stats(false)
        .split_whitespace()
        .map(|k| format!("backends[].stats.{k}"))
        .collect::<Vec<_>>()
        .join(" ");
    assert_golden(
        "router /stats",
        &key_tree(&stats),
        &format!("{ROUTER_STATS} {backend_stats}"),
    );
    let metrics = get(&url, "/metrics");
    assert_golden(
        "router /metrics",
        &families(&metrics),
        &format!("{ROUTER_FAMILIES} {SHARED_FAMILIES}"),
    );
}
