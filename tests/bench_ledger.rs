//! The committed offline speed ledger, `BENCH_linalg.json`, must be the
//! full output of the current `examples/linalg_sweep.rs`: every row
//! carries the example's column set, and every row's tier is the one the
//! production schedule picks for its size today (`"none"` past the
//! cutoff, where the analysis runs no eigensolve and the row's
//! `eigensolve_s` is `null`). Regenerate it with
//!
//! ```text
//! cargo run --release --example linalg_sweep > BENCH_linalg.json
//! ```

use graphio::graph::json::{self, JsonValue};
use graphio::service::analysis::is_certified;
use graphio::spectral::ScaleTier;

/// The columns `linalg_sweep` writes, in order.
const COLUMNS: [&str; 12] = [
    "graph",
    "n",
    "nnz",
    "tier",
    "laplacian_s",
    "matvec_simd_us",
    "matvec_scalar_us",
    "matvec_speedup",
    "eigensolve_s",
    "mincut_s",
    "analyze_s",
    "restored_s",
];

#[test]
fn committed_ledger_is_a_full_sweep_of_the_current_example() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_linalg.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_linalg.json");
    let doc = json::parse(&text).expect("BENCH_linalg.json parses");
    assert_eq!(
        doc.get("bench").and_then(JsonValue::as_str),
        Some("linalg_sweep")
    );
    let rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows");
    let mut largest = 0;
    for row in rows {
        let JsonValue::Object(entries) = row else {
            panic!("ledger row is not an object: {row}");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, COLUMNS, "stale ledger row: {row}");
        let n = row.get("n").and_then(JsonValue::as_u64).expect("n") as usize;
        let tier = if !is_certified(n) {
            "none"
        } else if ScaleTier::of(n) == ScaleTier::Dense {
            "dense"
        } else {
            "sparse"
        };
        for column in &COLUMNS[4..] {
            let value = row.get(column);
            if *column == "eigensolve_s" && tier == "none" {
                assert_eq!(
                    value,
                    Some(&JsonValue::Null),
                    "eigensolve past the cutoff: {row}"
                );
                continue;
            }
            let x = value.and_then(JsonValue::as_f64);
            assert!(
                x.is_some_and(|x| x.is_finite() && x >= 0.0),
                "{column} is not a non-negative number in {row}"
            );
        }
        assert_eq!(
            row.get("tier").and_then(JsonValue::as_str),
            Some(tier),
            "tier label is stale for n = {n}"
        );
        largest = largest.max(n);
    }
    // `linalg_sweep -- quick` stops at n ≤ 20 000; the committed ledger
    // is the full run up to n ≈ 10⁶.
    assert!(largest >= 1_000_000, "committed ledger is a quick run");
}
