//! Worker-thread configuration for the parallel kernels.
//!
//! Every parallel kernel in this crate (sparse mat-vec, Householder panel
//! updates, blocked Gram–Schmidt) takes an explicit thread count; callers
//! that don't care use the process-global knob ([`effective_threads`]),
//! which defaults to the machine's available parallelism. The CLI's
//! `--threads N` and the bench harness both set it via [`set_threads`].
//!
//! All kernels are *chunk-deterministic*: for a fixed input they produce
//! bit-identical results regardless of the thread count, because each
//! output element is always computed by the same sequence of operations —
//! threading only changes which worker runs it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// 0 means "available parallelism"; any other value is the thread count.
static GLOBAL: AtomicUsize = AtomicUsize::new(0);

fn available() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Sets the process-global thread count; `0` restores the default, the
/// machine's available parallelism.
pub fn set_threads(n: usize) {
    GLOBAL.store(n, Ordering::Relaxed);
}

/// The concrete thread count kernels should use right now (≥ 1).
pub fn effective_threads() -> usize {
    match GLOBAL.load(Ordering::Relaxed) {
        0 => available(),
        n => n,
    }
}

/// Splits `0..total` into at most `parts` contiguous, non-empty ranges.
pub(crate) fn even_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(total.max(1));
    let chunk = total.div_ceil(parts);
    (0..total)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(total))
        .collect()
}

/// Splits row indices `0..=l` of a lower-triangular sweep into `parts`
/// ranges of approximately equal *work* (row `r` costs `r + 1` operations),
/// using the square-root rule: boundary `t` sits near `(l+1)·√(t/parts)`.
pub(crate) fn triangle_ranges(rows: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(rows.max(1));
    let mut bounds: Vec<usize> = (0..=parts)
        .map(|t| ((rows as f64) * (t as f64 / parts as f64).sqrt()).round() as usize)
        .collect();
    bounds[0] = 0;
    bounds[parts] = rows;
    for t in 1..parts {
        bounds[t] = bounds[t].clamp(bounds[t - 1], rows);
    }
    (0..parts)
        .map(|t| bounds[t]..bounds[t + 1])
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = even_ranges(total, parts);
                let mut covered = 0;
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    expected_start = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn triangle_ranges_cover_and_balance() {
        let ranges = triangle_ranges(1000, 4);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 1000);
        let work: Vec<usize> = ranges
            .iter()
            .map(|r| r.clone().map(|i| i + 1).sum())
            .collect();
        let max = *work.iter().max().unwrap() as f64;
        let min = *work.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "imbalanced: {work:?}");
    }

    #[test]
    fn fixed_and_auto_resolve() {
        let before = GLOBAL.load(Ordering::Relaxed);
        set_threads(4);
        assert_eq!(effective_threads(), 4);
        set_threads(0);
        assert_eq!(effective_threads(), available());
        assert!(available() >= 1);
        set_threads(before);
    }
}
