//! The process-global worker-thread knob.
//!
//! The kernels in this crate are serial. The knob lives here because it
//! is the one thread count a request has: the CLI's `--threads N` and the
//! bench harness set it via [`set_threads`], and the convex min-cut sweep
//! (`graphio_baselines`) reads it through [`effective_threads`] to size
//! its per-vertex workers.

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

/// The concrete thread count parallel callers should use right now (≥ 1).
pub fn effective_threads() -> usize {
    match GLOBAL.load(Ordering::Relaxed) {
        0 => available(),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
