//! Per-phase allocation attribution through a `GlobalAlloc` wrapper.
//!
//! [`CountingAlloc`] forwards every call to the system allocator and —
//! when attribution is enabled — charges the allocation to the innermost
//! active span on the allocating thread (read from the thread's published
//! profile stack, [`crate::profile::current_frame`]). Two sinks receive
//! the charge:
//!
//! * a fixed-size global table of per-phase counters, rendered on
//!   `/metrics` as `graphio_phase_alloc_bytes_total{phase=...}` and
//!   `graphio_phase_allocs_total{phase=...}`;
//! * per-thread cumulative counters ([`thread_totals`]) that the span
//!   layer snapshots at span open/close, giving every trace node an
//!   *inclusive* `alloc_bytes`/`allocs` (like `dur_us`, a node's figure
//!   covers its children on the same thread).
//!
//! ## Contract
//!
//! The hook is installed with `#[global_allocator]` by the binaries that
//! want attribution; it is **default-off** and costs one relaxed atomic
//! load per allocation while off — the same contract as
//! [`crate::span!`]. While on, it performs only `Cell` and atomic
//! operations: the hook never allocates, never locks, and never touches
//! lazily-initialized TLS (const-init `Cell`s read through `try_with`, so
//! allocation during TLS teardown degrades to the `unattributed` phase
//! instead of recursing or aborting).
//!
//! Attribution to the *innermost* phase means the global table is an
//! exclusive accounting (a parent phase is charged only for bytes
//! allocated outside any child span), while trace nodes are inclusive —
//! both are stated on the metrics and trace docs they feed.

use crate::expo::MetricsText;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Global attribution switch. Off by default: see the module contract.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables allocation attribution process-wide. A no-op
/// unless a binary installed [`CountingAlloc`] as its global allocator.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether allocation attribution is currently recording.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Phase charged when no span is active on the allocating thread.
pub const UNATTRIBUTED: &str = "unattributed";

/// Phase charged when the table is full (more distinct phase-name call
/// sites than `TABLE_SIZE` — far beyond this codebase's span count).
pub const OVERFLOW: &str = "other";

/// Slots in the phase table. Power of two; keyed by phase-name pointer
/// identity (a `span!` literal has one address per call site), so the
/// hook's lookup is a short linear probe over atomics.
const TABLE_SIZE: usize = 512;

struct PhaseCell {
    /// The phase name's data pointer (0 = empty slot) and length. Two
    /// words because `&'static str` is a fat pointer; `name_len` is
    /// published with release ordering after the claiming CAS.
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    bytes: AtomicU64,
    allocs: AtomicU64,
}

impl PhaseCell {
    const fn new() -> PhaseCell {
        PhaseCell {
            name_ptr: AtomicUsize::new(0),
            name_len: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }
}

static TABLE: [PhaseCell; TABLE_SIZE] = [const { PhaseCell::new() }; TABLE_SIZE];

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's cumulative attributed `(bytes, allocs)`. The span
/// layer differences two readings to charge a trace node.
#[must_use]
pub fn thread_totals() -> (u64, u64) {
    (
        THREAD_BYTES.try_with(Cell::get).unwrap_or(0),
        THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
    )
}

fn bump(name: &'static str, bytes: u64) {
    let ptr = name.as_ptr() as usize;
    // Fibonacci hash of the pointer; literals are word-aligned so the low
    // bits alone would collide.
    let mut i = ptr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - 9);
    for _ in 0..16 {
        i &= TABLE_SIZE - 1;
        let cell = &TABLE[i];
        let cur = cell.name_ptr.load(Ordering::Relaxed);
        let claimed = cur == ptr
            || (cur == 0
                && match cell
                    .name_ptr
                    .compare_exchange(0, ptr, Ordering::AcqRel, Ordering::Relaxed)
                {
                    Ok(_) => {
                        cell.name_len.store(name.len(), Ordering::Release);
                        true
                    }
                    Err(raced) => raced == ptr,
                });
        if claimed {
            cell.bytes.fetch_add(bytes, Ordering::Relaxed);
            cell.allocs.fetch_add(1, Ordering::Relaxed);
            return;
        }
        i += 1;
    }
    // Probe exhausted: charge the shared overflow phase. Its slot is
    // claimed through the same path, and OVERFLOW's probe window can only
    // exhaust if the table truly has no room anywhere near its hash —
    // accept losing the sample then rather than looping.
    if !std::ptr::eq(name, OVERFLOW) {
        bump(OVERFLOW, bytes);
    }
}

#[inline]
fn record(size: usize) {
    if !enabled() {
        return;
    }
    let name = crate::profile::current_frame().unwrap_or(UNATTRIBUTED);
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    bump(name, size as u64);
}

/// The instrumenting allocator. Install in a binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` verbatim; the accounting
// side-effects touch only atomics and const-init `Cell` TLS (no
// allocation, no locks — see the module contract), so the allocator's
// own invariants are exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        // Only growth is new demand; shrink/move is not an allocation the
        // phase asked for.
        if !p.is_null() && new_size > layout.size() {
            record(new_size - layout.size());
        }
        p
    }
}

/// Every phase with attributed allocations, as `(phase, bytes, allocs)`,
/// duplicate names merged (two call sites may intern the same literal
/// separately) and sorted by phase name.
#[must_use]
pub fn snapshot() -> Vec<(String, u64, u64)> {
    let mut merged: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for cell in &TABLE {
        let ptr = cell.name_ptr.load(Ordering::Acquire);
        if ptr == 0 {
            continue;
        }
        let len = cell.name_len.load(Ordering::Acquire);
        if len == 0 {
            // Claimed but the length store has not landed yet; the next
            // scrape will see it.
            continue;
        }
        // SAFETY: (ptr, len) were published from a live `&'static str`.
        let name: &'static str = unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
        };
        let entry = merged.entry(name).or_insert((0, 0));
        entry.0 += cell.bytes.load(Ordering::Relaxed);
        entry.1 += cell.allocs.load(Ordering::Relaxed);
    }
    let mut all: Vec<(String, u64, u64)> = merged
        .into_iter()
        .map(|(name, (bytes, allocs))| (name.to_string(), bytes, allocs))
        .collect();
    all.sort();
    all
}

/// Appends the per-phase allocation counters to a `/metrics` exposition.
/// Exclusive accounting: a phase is charged only for allocations made
/// while it was the innermost active span.
pub fn render(out: &mut MetricsText) {
    for (phase, bytes, allocs) in snapshot() {
        out.counter(
            "graphio_phase_alloc_bytes_total",
            &[("phase", &phase)],
            bytes,
        );
        out.counter("graphio_phase_allocs_total", &[("phase", &phase)], allocs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs unit-test binary does not install CountingAlloc, so drive
    // `record`/`bump` directly; the end-to-end path (hook + span layer)
    // is covered by the crate's integration test, which does install it.
    #[test]
    fn bump_attributes_by_phase_and_snapshot_merges() {
        bump("alloc_test_phase_a", 100);
        bump("alloc_test_phase_a", 28);
        bump("alloc_test_phase_b", 7);
        let snap = snapshot();
        let a = snap
            .iter()
            .find(|(n, _, _)| n == "alloc_test_phase_a")
            .expect("phase a present");
        assert_eq!((a.1, a.2), (128, 2));
        let b = snap
            .iter()
            .find(|(n, _, _)| n == "alloc_test_phase_b")
            .expect("phase b present");
        assert_eq!((b.1, b.2), (7, 1));
    }

    #[test]
    fn record_respects_the_switch_and_charges_thread_totals() {
        set_enabled(false);
        let before = thread_totals();
        record(64);
        assert_eq!(thread_totals(), before, "disabled record must not count");
        set_enabled(true);
        record(64);
        record(36);
        let after = thread_totals();
        set_enabled(false);
        assert_eq!(after.0 - before.0, 100);
        assert_eq!(after.1 - before.1, 2);
        // No span active on this thread: charged to the fallback phase.
        assert!(snapshot().iter().any(|(n, _, _)| n == UNATTRIBUTED));
    }

    #[test]
    fn render_emits_both_families() {
        bump("alloc_test_render", 42);
        let mut m = MetricsText::new();
        render(&mut m);
        let text = m.into_string();
        let expo = crate::expo::parse(&text).expect("alloc metrics parse");
        assert!(expo
            .value(
                "graphio_phase_alloc_bytes_total",
                &[("phase", "alloc_test_render")]
            )
            .is_some_and(|v| v >= 42.0));
        assert!(expo
            .value(
                "graphio_phase_allocs_total",
                &[("phase", "alloc_test_render")]
            )
            .is_some_and(|v| v >= 1.0));
    }
}
