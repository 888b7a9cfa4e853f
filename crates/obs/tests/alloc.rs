//! Allocation-attribution integration tests, run under the counting
//! allocator exactly as a server binary would be. The load-bearing
//! scenario is worker-pool thread reuse: the per-thread cumulative
//! counters persist across requests on the same thread, so per-span
//! deltas must isolate each request — bytes from request 1 must never
//! leak into request 2's nodes or phases.

use graphio_obs::span::SpanGuard;
use std::sync::Mutex;

#[global_allocator]
static COUNTING: graphio_obs::CountingAlloc = graphio_obs::CountingAlloc;

/// Tests in this binary share the process-global span/alloc switches and
/// the global phase table, so they serialize.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// The bytes the global table currently attributes to `name`.
fn phase_bytes(name: &str) -> u64 {
    graphio_obs::alloc::snapshot()
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0, |&(_, bytes, _)| bytes)
}

/// One simulated request on the current thread: a root span wrapping a
/// `phase` span that allocates `payload` bytes (kept alive until the
/// spans close so dealloc cannot confuse the picture), returning the
/// phase node's recorded `(alloc_bytes, allocs)`.
fn run_request(trace: u128, phase: &'static str, payload: usize) -> (u64, u64) {
    let guard = graphio_obs::begin_request(trace);
    let buf;
    {
        let _root = SpanGuard::enter_dynamic("request_root");
        {
            let _span = SpanGuard::enter_dynamic(phase);
            buf = vec![0xA5u8; payload];
        }
    }
    let summary = guard.finish().expect("request summary");
    assert!(buf.iter().all(|&b| b == 0xA5));
    let node = summary
        .nodes
        .iter()
        .find(|n| n.name == phase)
        .expect("phase node recorded");
    (node.alloc_bytes, node.allocs)
}

#[test]
fn thread_reuse_isolates_per_request_attribution() {
    let _guard = FLAG_LOCK.lock().unwrap();
    graphio_obs::set_enabled(true);
    graphio_obs::alloc::set_enabled(true);

    // Both requests run sequentially on ONE thread — the worker-pool
    // reuse shape — with phase names unique to this test so parallel
    // tests in other binaries cannot pollute the assertions.
    let handle = std::thread::spawn(|| {
        let first = run_request(0x1001, "alloc_reuse_phase_one", 64 * 1024);
        let one_after_first = phase_bytes("alloc_reuse_phase_one");
        let second = run_request(0x1002, "alloc_reuse_phase_two", 32 * 1024);
        let one_after_second = phase_bytes("alloc_reuse_phase_one");
        (first, second, one_after_first, one_after_second)
    });
    let (first, second, one_after_first, one_after_second) = handle.join().unwrap();

    // Each node owns at least its payload, plus bounded bookkeeping slack
    // (the node-vec growth inside the span) — and crucially, request 2's
    // node must NOT contain request 1's 64KiB, which it would if the
    // guard diffed against a stale or zero baseline on the reused thread.
    assert!(
        first.0 >= 64 * 1024,
        "first phase owns its payload: {first:?}"
    );
    assert!(
        second.0 >= 32 * 1024,
        "second phase owns its payload: {second:?}"
    );
    assert!(
        second.0 < 64 * 1024,
        "second request must not absorb the first request's bytes: {second:?}"
    );
    assert!(first.1 >= 1 && second.1 >= 1, "alloc counts recorded");

    // The global (exclusive, per-phase) table: phase one's counter is
    // settled once its request finishes — request 2 on the same thread
    // must not move it.
    assert!(one_after_first >= 64 * 1024);
    assert_eq!(
        one_after_first, one_after_second,
        "a finished phase's counter must not move during the next request"
    );
    assert!(phase_bytes("alloc_reuse_phase_two") >= 32 * 1024);
}

#[test]
fn nodes_are_inclusive_and_table_is_exclusive() {
    let _guard = FLAG_LOCK.lock().unwrap();
    graphio_obs::set_enabled(true);
    graphio_obs::alloc::set_enabled(true);

    let guard = graphio_obs::begin_request(0x2001);
    let (outer_buf, inner_buf);
    {
        let _root = SpanGuard::enter_dynamic("alloc_incl_outer");
        outer_buf = vec![1u8; 16 * 1024];
        let inner_table_before = phase_bytes("alloc_incl_inner");
        {
            let _inner = SpanGuard::enter_dynamic("alloc_incl_inner");
            inner_buf = vec![2u8; 8 * 1024];
        }
        assert!(
            phase_bytes("alloc_incl_inner") >= inner_table_before + 8 * 1024,
            "exclusive table charges the innermost phase"
        );
    }
    let summary = guard.finish().expect("summary");
    drop((outer_buf, inner_buf));
    let node = |name: &str| {
        summary
            .nodes
            .iter()
            .find(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
    };
    // Node accounting is inclusive, like dur_us: the outer span's bytes
    // contain the inner span's.
    assert!(node("alloc_incl_inner").alloc_bytes >= 8 * 1024);
    assert!(
        node("alloc_incl_outer").alloc_bytes >= node("alloc_incl_inner").alloc_bytes + 16 * 1024
    );
}

#[test]
fn disabled_attribution_records_nothing() {
    let _guard = FLAG_LOCK.lock().unwrap();
    graphio_obs::set_enabled(true);
    graphio_obs::alloc::set_enabled(false);

    let guard = graphio_obs::begin_request(0x3001);
    let buf;
    {
        let _span = SpanGuard::enter_dynamic("alloc_disabled_phase");
        buf = vec![3u8; 4 * 1024];
    }
    let summary = guard.finish().expect("summary");
    drop(buf);
    let node = summary
        .nodes
        .iter()
        .find(|n| n.name == "alloc_disabled_phase")
        .expect("span still recorded");
    assert_eq!(node.alloc_bytes, 0, "switch off ⇒ zero attribution");
    assert_eq!(node.allocs, 0);
    assert_eq!(phase_bytes("alloc_disabled_phase"), 0);
    graphio_obs::alloc::set_enabled(true);
}

/// `(bytes, allocs)` the per-phase counters currently hold for `name`.
fn phase_totals(name: &str) -> (u64, u64) {
    graphio_obs::alloc::snapshot()
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or((0, 0), |&(_, bytes, allocs)| (bytes, allocs))
}

#[test]
fn call_sites_sharing_a_literal_share_one_sample() {
    let _guard = FLAG_LOCK.lock().unwrap();
    graphio_obs::set_enabled(true);
    graphio_obs::alloc::set_enabled(true);

    let (bytes, allocs) = phase_totals("alloc_shared_literal");
    let (first, second);
    {
        let _s = graphio_obs::span!("alloc_shared_literal");
        first = vec![1u8; 3000];
    }
    {
        let _s = graphio_obs::span!("alloc_shared_literal");
        second = vec![2u8; 5000];
    }
    drop((first, second));
    let mut m = graphio_obs::MetricsText::new();
    graphio_obs::alloc::render(&mut m);
    let text = m.into_string();
    graphio_obs::parse_metrics(&text).expect("alloc metrics parse");
    // Both families, one sample each, holding both call sites' charges.
    let samples: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("{phase=\"alloc_shared_literal\"} "))
        .collect();
    assert_eq!(
        samples,
        [
            format!(
                "graphio_phase_alloc_bytes_total{{phase=\"alloc_shared_literal\"}} {}",
                bytes + 8000
            ),
            format!(
                "graphio_phase_allocs_total{{phase=\"alloc_shared_literal\"}} {}",
                allocs + 2
            ),
        ]
    );
}

/// More distinct nested spans than the profiler publishes frames for
/// (`profile::MAX_STACK` = 32): the innermost still owns its bytes.
const NESTED: [&str; 34] = [
    "alloc_nest_00",
    "alloc_nest_01",
    "alloc_nest_02",
    "alloc_nest_03",
    "alloc_nest_04",
    "alloc_nest_05",
    "alloc_nest_06",
    "alloc_nest_07",
    "alloc_nest_08",
    "alloc_nest_09",
    "alloc_nest_10",
    "alloc_nest_11",
    "alloc_nest_12",
    "alloc_nest_13",
    "alloc_nest_14",
    "alloc_nest_15",
    "alloc_nest_16",
    "alloc_nest_17",
    "alloc_nest_18",
    "alloc_nest_19",
    "alloc_nest_20",
    "alloc_nest_21",
    "alloc_nest_22",
    "alloc_nest_23",
    "alloc_nest_24",
    "alloc_nest_25",
    "alloc_nest_26",
    "alloc_nest_27",
    "alloc_nest_28",
    "alloc_nest_29",
    "alloc_nest_30",
    "alloc_nest_31",
    "alloc_nest_32",
    "alloc_nest_33",
];

/// Opens `NESTED[depth..]` inside one another and allocates `payload`
/// bytes in the innermost span.
fn nest(depth: usize, payload: usize) -> Vec<u8> {
    let _s = SpanGuard::enter_dynamic(NESTED[depth]);
    if depth + 1 < NESTED.len() {
        nest(depth + 1, payload)
    } else {
        vec![7u8; payload]
    }
}

#[test]
fn allocations_in_deep_stacks_land_on_the_innermost_span() {
    let _guard = FLAG_LOCK.lock().unwrap();
    graphio_obs::set_enabled(true);
    graphio_obs::alloc::set_enabled(true);

    assert!(NESTED.len() > graphio_obs::profile::MAX_STACK);
    let buf = nest(0, 16 * 1024);
    assert!(buf.iter().all(|&b| b == 7));
    assert!(
        phase_bytes(NESTED[33]) >= 16 * 1024,
        "the innermost span owns its payload"
    );
    for outer in &NESTED[..33] {
        assert!(
            phase_bytes(outer) < 16 * 1024,
            "{outer} must not absorb the innermost span's bytes"
        );
    }
}
