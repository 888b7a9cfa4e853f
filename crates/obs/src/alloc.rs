//! Per-phase allocation attribution through a `GlobalAlloc` wrapper.
//!
//! [`CountingAlloc`] forwards every call to the system allocator and —
//! when attribution is enabled — charges the allocation to the innermost
//! open span on the allocating thread. Two sinks receive the charge:
//!
//! * per-phase counters, rendered on `/metrics` as
//!   `graphio_phase_alloc_bytes_total{phase=...}` and
//!   `graphio_phase_allocs_total{phase=...}`. Each phase name owns one
//!   leaked counter pair, registered by name (call sites sharing a
//!   literal share the pair). A span resolves its pair when it opens —
//!   once per `span!` site, like its histogram — and swaps it into the
//!   thread's current-phase cell until it closes;
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
//! operations: the hook never allocates, never locks, never probes, and
//! never touches lazily-initialized TLS (const-init `Cell`s read through
//! `try_with`, so allocation during TLS teardown degrades to the
//! `unattributed` phase instead of recursing or aborting).
//!
//! Attribution to the *innermost* phase means the per-phase counters are
//! an exclusive accounting (a parent phase is charged only for bytes
//! allocated outside any child span), while trace nodes are inclusive —
//! both are stated on the metrics and trace docs they feed.

use crate::expo::MetricsText;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// One phase's exclusive allocation counters.
pub(crate) struct PhaseAllocs {
    bytes: AtomicU64,
    allocs: AtomicU64,
}

impl PhaseAllocs {
    const fn new() -> PhaseAllocs {
        PhaseAllocs {
            bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }
}

static UNATTRIBUTED_ALLOCS: PhaseAllocs = PhaseAllocs::new();

/// Every named phase's counters, keyed by name. Entries are leaked, like
/// the phase histograms, so a span holds a `&'static` with no lock.
static PHASES: Mutex<BTreeMap<&'static str, &'static PhaseAllocs>> = Mutex::new(BTreeMap::new());

/// The counters of phase `name`, registered on first use. Allocates and
/// locks: spans call it when they resolve their phase, never the hook.
pub(crate) fn phase_allocs(name: &'static str) -> &'static PhaseAllocs {
    if name == UNATTRIBUTED {
        return &UNATTRIBUTED_ALLOCS;
    }
    let mut phases = PHASES.lock().expect("alloc phase registry lock");
    phases
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(PhaseAllocs::new())))
}

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The innermost open span's counters; `None` outside every span.
    static CURRENT: Cell<Option<&'static PhaseAllocs>> = const { Cell::new(None) };
}

/// Makes `phase` the current thread's innermost phase and returns the
/// one it replaces; a closing span passes that back to restore it.
pub(crate) fn swap_current(phase: Option<&'static PhaseAllocs>) -> Option<&'static PhaseAllocs> {
    CURRENT.try_with(|c| c.replace(phase)).ok().flatten()
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

#[inline]
fn record(size: usize) {
    if !enabled() {
        return;
    }
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let phase = CURRENT
        .try_with(Cell::get)
        .ok()
        .flatten()
        .unwrap_or(&UNATTRIBUTED_ALLOCS);
    phase.bytes.fetch_add(size as u64, Ordering::Relaxed);
    phase.allocs.fetch_add(1, Ordering::Relaxed);
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
/// sorted by phase name.
#[must_use]
pub fn snapshot() -> Vec<(String, u64, u64)> {
    let phases = PHASES.lock().expect("alloc phase registry lock");
    let mut all: Vec<(String, u64, u64)> = phases
        .iter()
        .map(|(&name, &phase)| (name, phase))
        .chain([(UNATTRIBUTED, &UNATTRIBUTED_ALLOCS)])
        .filter_map(|(name, phase)| {
            let allocs = phase.allocs.load(Ordering::Relaxed);
            let bytes = phase.bytes.load(Ordering::Relaxed);
            (allocs > 0).then(|| (name.to_string(), bytes, allocs))
        })
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
    // `record` directly; the end-to-end path (hook + span layer) is
    // covered by the crate's integration test, which does install it.

    /// Serializes the tests that flip the process-wide switch.
    static SWITCH: Mutex<()> = Mutex::new(());

    /// Records one allocation per entry of `sizes` with `name` as the
    /// thread's innermost phase, as an open span of that name would.
    fn record_in(name: &'static str, sizes: &[usize]) {
        let outer = swap_current(Some(phase_allocs(name)));
        for &size in sizes {
            record(size);
        }
        swap_current(outer);
    }

    #[test]
    fn bump_attributes_by_phase_and_snapshot_merges() {
        // A second copy of the name at another address: registration is
        // by name, so it shares the first copy's counters.
        let copy: &'static str = Box::leak(String::from("alloc_test_phase_a").into_boxed_str());
        let _switch = SWITCH.lock().unwrap();
        set_enabled(true);
        record_in("alloc_test_phase_a", &[100]);
        record_in(copy, &[28]);
        record_in("alloc_test_phase_b", &[7]);
        set_enabled(false);
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
        assert_eq!(
            snap.iter()
                .filter(|(n, _, _)| n == "alloc_test_phase_a")
                .count(),
            1
        );
    }

    #[test]
    fn record_respects_the_switch_and_charges_thread_totals() {
        let _switch = SWITCH.lock().unwrap();
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
        let _switch = SWITCH.lock().unwrap();
        set_enabled(true);
        record_in("alloc_test_render", &[42]);
        set_enabled(false);
        let mut m = MetricsText::new();
        render(&mut m);
        let text = m.into_string();
        let expo = crate::expo::parse(&text).expect("alloc metrics parse");
        assert_eq!(
            expo.value(
                "graphio_phase_alloc_bytes_total",
                &[("phase", "alloc_test_render")]
            ),
            Some(42.0)
        );
        assert_eq!(
            expo.value(
                "graphio_phase_allocs_total",
                &[("phase", "alloc_test_render")]
            ),
            Some(1.0)
        );
    }
}
