//! The crate's one seqlock: a version counter over a plain `Copy` payload.
//!
//! Even version = stable, odd = mid-write, zero = never written.
//!
//! * A **writer** CASes the version from even to odd, fences, writes the
//!   payload, then release-stores version+2. The CAS only contends when
//!   two writers meet on one cell (the recorder's ring lapping itself
//!   within one write); the loser spins for the few instructions the
//!   winner needs. A cell with a single writer (a thread's profiler
//!   stack) pays one uncontended CAS.
//! * A **reader** loads the version, bitwise-copies the payload, then
//!   re-loads the version; a change means the copy may be torn and is
//!   discarded. Torn copies are safe to *make* (never used before
//!   validation) because the payload is `Copy` and owns no heap.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// See the module docs.
pub(crate) struct SeqCell<T> {
    version: AtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: concurrent access to `value` is mediated by the seqlock
// protocol on `version`: writers gain exclusivity via the even→odd CAS,
// and readers validate their bitwise copy against an unchanged version
// before using it.
unsafe impl<T: Copy + Send> Sync for SeqCell<T> {}

impl<T: Copy> SeqCell<T> {
    /// A never-written cell holding `value`.
    pub(crate) const fn new(value: T) -> SeqCell<T> {
        SeqCell {
            version: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Mutates the payload under the seqlock. Lock-free: the only
    /// contention is the even→odd CAS against another writer.
    pub(crate) fn write(&self, f: impl FnOnce(&mut T)) {
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & 1 == 0
                && self
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // Orders the odd version before the payload writes.
                fence(Ordering::Release);
                // SAFETY: the successful even→odd CAS grants this thread
                // exclusive write access until the release store below.
                f(unsafe { &mut *self.value.get() });
                self.version.store(v + 2, Ordering::Release);
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// A validated copy, or `None` if the cell was never written or stays
    /// under rewrite for a few retries (callers treat that as absent).
    pub(crate) fn read(&self) -> Option<T> {
        for _ in 0..4 {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 == 0 {
                return None;
            }
            if v1 & 1 == 0 {
                // SAFETY: the copy may race a writer, which is why it is a
                // plain bitwise copy of a heap-free `Copy` payload, used
                // only after the version check below proves it untorn.
                let copy = unsafe { std::ptr::read(self.value.get()) };
                fence(Ordering::Acquire);
                if self.version.load(Ordering::Relaxed) == v1 {
                    return Some(copy);
                }
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Whether the cell holds a stable payload right now (written at
    /// least once, not mid-write).
    pub(crate) fn is_written(&self) -> bool {
        let v = self.version.load(Ordering::Relaxed);
        v != 0 && v & 1 == 0
    }
}
