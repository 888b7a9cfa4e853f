//! Sampling profiler over published span stacks.
//!
//! Every thread that opens spans publishes its current span-stack through
//! a per-thread seqlock cell (`crate::seqlock`, the same cell the flight
//! recorder's ring is made of; only the owning thread writes its own
//! stack, so its CAS never contends). A sampler walks the
//! registered slots at a fixed rate and aggregates the snapshots into
//! stack-path sample counts — the collapsed-stack format `flamegraph.pl`
//! and speedscope consume (`frame;frame;frame count` per line).
//!
//! ## Cost model
//!
//! Publication rides the span switch: when spans are disabled (the
//! offline CLI, the test suite) nothing is published and nothing is
//! registered — the same one-relaxed-load contract as [`crate::span!`].
//! When spans are enabled, each span open/close additionally performs one
//! version CAS, one version store and one array write into the thread's
//! slot; there is no lock and no allocation on the span path (the slot
//! itself is created once per thread). Sampling costs nothing until somebody asks: the
//! `GET /debug/profile?seconds=S` handler *is* the sampler — it loops for
//! its window, snapshotting every registered slot, and renders the
//! aggregate. No background thread runs between requests.
//!
//! ## What a sample means
//!
//! One sample = one (thread, tick) observation of a non-empty stack.
//! Threads with an empty stack (parked workers, the acceptor) are idle by
//! definition and contribute nothing, so every counted sample is
//! attributed to named phases by construction; snapshots torn by a
//! concurrent push/pop are discarded and counted in
//! [`Profile::torn`], never rendered as an `unknown` frame.

use crate::seqlock::SeqCell;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frames published per thread. Stacks deeper than this keep an accurate
/// depth counter (pops stay balanced) but only the outermost `MAX_STACK`
/// names; samples of such stacks gain a trailing `truncated` frame.
pub const MAX_STACK: usize = 32;

/// Default sampling rate. Deliberately off the 100 Hz USER_HZ beat so the
/// sampler does not phase-lock with kernel tick accounting.
pub const DEFAULT_HZ: u64 = 97;

/// Longest window `parse_profile_query` accepts. The HTTP client this
/// repo ships reads with a 60-second timeout; the router's fan-out must
/// finish a backend's window well inside that.
pub const MAX_SECONDS: u64 = 30;

/// Window used when `GET /debug/profile` carries no `seconds` parameter.
pub const DEFAULT_SECONDS: u64 = 2;

#[derive(Clone, Copy)]
struct PublishedStack {
    /// True stack depth; may exceed [`MAX_STACK`].
    depth: usize,
    /// The outermost `depth.min(MAX_STACK)` frame names, root first.
    frames: [&'static str; MAX_STACK],
}

const EMPTY_STACK: PublishedStack = PublishedStack {
    depth: 0,
    frames: [""; MAX_STACK],
};

/// One thread's published stack. The owning thread is the only writer
/// (span open/close); samplers on other threads take validated copies.
type StackSlot = SeqCell<PublishedStack>;

/// Every thread that ever published a stack. Slots are leaked (a thread's
/// slot outlives the thread; an exited thread's guards all dropped, so
/// its slot reads as idle forever) — bounded by the process's worker-pool
/// size, not by request count. A slot is registered after its first
/// write, so a sampler never meets a never-written one.
static REGISTRY: Mutex<Vec<&'static StackSlot>> = Mutex::new(Vec::new());

thread_local! {
    /// The current thread's slot, `None` until its first published span.
    static SLOT: Cell<Option<&'static StackSlot>> = const { Cell::new(None) };
}

/// Publishes a frame push on the current thread's slot, registering the
/// slot on first use. Returns false when TLS is tearing down (the caller
/// must then skip the matching pop).
pub(crate) fn push_frame(name: &'static str) -> bool {
    let Ok(slot) = SLOT.try_with(Cell::get) else {
        return false;
    };
    let push = |s: &mut PublishedStack| {
        if s.depth < MAX_STACK {
            s.frames[s.depth] = name;
        }
        s.depth += 1;
    };
    if let Some(slot) = slot {
        slot.write(push);
        return true;
    }
    let slot: &'static StackSlot = Box::leak(Box::new(SeqCell::new(EMPTY_STACK)));
    if SLOT.try_with(|c| c.set(Some(slot))).is_err() {
        return false;
    }
    slot.write(push);
    REGISTRY.lock().expect("profile registry lock").push(slot);
    true
}

/// Publishes the matching frame pop.
pub(crate) fn pop_frame() {
    if let Ok(Some(slot)) = SLOT.try_with(Cell::get) {
        slot.write(|s| s.depth = s.depth.saturating_sub(1));
    }
}

/// An aggregated sampling window.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Distinct stack paths (root-first) with their sample counts.
    pub stacks: Vec<(Vec<&'static str>, u64)>,
    /// Total samples attributed (one per thread per tick with a
    /// non-empty stack).
    pub samples: u64,
    /// Samples whose stack exceeded [`MAX_STACK`] (rendered with a
    /// trailing `truncated` frame).
    pub truncated: u64,
    /// Snapshots discarded because the owner was mid-update.
    pub torn: u64,
    /// Sampler ticks taken over the window.
    pub ticks: u64,
    /// Registered thread slots at the end of the window.
    pub threads: usize,
}

/// Samples every registered thread for `duration` at `hz`, excluding the
/// calling thread (the sampler would otherwise profile itself waiting).
#[must_use]
pub fn sample_for(duration: Duration, hz: u64) -> Profile {
    let interval = Duration::from_nanos(1_000_000_000 / hz.max(1));
    let deadline = Instant::now() + duration;
    let own = SLOT.try_with(Cell::get).ok().flatten();
    let mut counts: HashMap<Vec<&'static str>, u64> = HashMap::new();
    let mut profile = Profile::default();
    loop {
        // Re-read the registry each tick so threads spawned mid-window
        // are picked up.
        let slots: Vec<&'static StackSlot> =
            REGISTRY.lock().expect("profile registry lock").clone();
        profile.threads = slots.len();
        for slot in slots {
            if own.is_some_and(|own| std::ptr::eq(slot, own)) {
                continue;
            }
            match slot.read() {
                None => profile.torn += 1,
                Some(s) if s.depth == 0 => {}
                Some(s) => {
                    let depth = s.depth.min(MAX_STACK);
                    let mut key = s.frames[..depth].to_vec();
                    if s.depth > MAX_STACK {
                        profile.truncated += 1;
                        key.push("truncated");
                    }
                    *counts.entry(key).or_insert(0) += 1;
                    profile.samples += 1;
                }
            }
        }
        profile.ticks += 1;
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(interval);
    }
    profile.stacks = counts.into_iter().collect();
    // Hot paths first; ties broken by path so output is deterministic.
    profile
        .stacks
        .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    profile
}

impl Profile {
    /// The collapsed-stack text: one `frame;frame;frame count` line per
    /// distinct path, hottest first — ready for `flamegraph.pl` or
    /// speedscope.
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.stacks {
            out.push_str(&path.join(";"));
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses collapsed-stack text back into `(path, count)` entries,
/// skipping blank lines. Returns `None` on any malformed line — the CLI
/// and the router treat that as a bad upstream body.
#[must_use]
pub fn parse_collapsed(text: &str) -> Option<Vec<(Vec<String>, u64)>> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (path, count) = line.rsplit_once(' ')?;
        let count: u64 = count.parse().ok()?;
        if path.is_empty() {
            return None;
        }
        out.push((path.split(';').map(str::to_string).collect(), count));
    }
    Some(out)
}

/// Prefixes every line of collapsed-stack text with `prefix;` — how the
/// router grafts a backend's profile under its `backend <addr>` frame,
/// mirroring `/trace/{id}` assembly.
#[must_use]
pub fn prefix_collapsed(text: &str, prefix: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        out.push_str(prefix);
        out.push(';');
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Parses the `GET /debug/profile` query: an optional
/// `?seconds=S` (1..=[`MAX_SECONDS`]), defaulting to
/// [`DEFAULT_SECONDS`]. Any other parameter or value is an error (the
/// query vocabulary is strict, like `/traces`).
pub fn parse_profile_query(query: &str) -> Result<u64, String> {
    let mut seconds = DEFAULT_SECONDS;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("invalid seconds value {value:?}"))?;
                if seconds == 0 || seconds > MAX_SECONDS {
                    return Err(format!("seconds must be in 1..={MAX_SECONDS}"));
                }
            }
            other => return Err(format!("unknown profile parameter {other:?}")),
        }
    }
    Ok(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// The innermost frame this thread has published, if any.
    fn own_top() -> Option<&'static str> {
        let stack = SLOT.with(Cell::get)?.read()?;
        let depth = stack.depth.min(MAX_STACK);
        (depth > 0).then(|| stack.frames[depth - 1])
    }

    #[test]
    fn collapsed_roundtrips_and_prefixes() {
        let profile = Profile {
            stacks: vec![(vec!["/analyze", "eigensolve"], 7), (vec!["/analyze"], 2)],
            samples: 9,
            ..Profile::default()
        };
        let text = profile.to_collapsed();
        assert_eq!(text, "/analyze;eigensolve 7\n/analyze 2\n");
        let parsed = parse_collapsed(&text).expect("roundtrip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, vec!["/analyze", "eigensolve"]);
        assert_eq!(parsed[0].1, 7);
        let prefixed = prefix_collapsed(&text, "backend 127.0.0.1:9001");
        assert_eq!(
            prefixed,
            "backend 127.0.0.1:9001;/analyze;eigensolve 7\nbackend 127.0.0.1:9001;/analyze 2\n"
        );
        assert!(parse_collapsed("no-count-here\n").is_none());
        assert!(parse_collapsed(" 5\n").is_none());
    }

    #[test]
    fn profile_query_vocabulary_is_strict() {
        assert_eq!(parse_profile_query(""), Ok(DEFAULT_SECONDS));
        assert_eq!(parse_profile_query("seconds=5"), Ok(5));
        assert!(parse_profile_query("seconds=0").is_err());
        assert!(parse_profile_query("seconds=31").is_err());
        assert!(parse_profile_query("seconds=abc").is_err());
        assert!(parse_profile_query("bogus=1").is_err());
    }

    #[test]
    fn sampler_sees_a_published_stack_from_another_thread() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let worker = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                assert!(push_frame("profile_test_outer"));
                assert!(push_frame("profile_test_inner"));
                assert_eq!(own_top(), Some("profile_test_inner"));
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                pop_frame();
                assert_eq!(own_top(), Some("profile_test_outer"));
                pop_frame();
                assert_eq!(own_top(), None);
            })
        };
        // Sample until the worker's two-frame stack shows up.
        let mut seen = false;
        for _ in 0..100 {
            let p = sample_for(Duration::from_millis(10), 200);
            if p.stacks
                .iter()
                .any(|(path, _)| path.as_slice() == ["profile_test_outer", "profile_test_inner"])
            {
                seen = true;
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(seen, "sampler never observed the worker's stack");
    }

    #[test]
    fn deep_stacks_keep_balanced_depth_and_truncate_in_samples() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let worker = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..MAX_STACK + 4 {
                    assert!(push_frame("profile_test_deep"));
                }
                assert_eq!(own_top(), Some("profile_test_deep"));
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                for _ in 0..MAX_STACK + 4 {
                    pop_frame();
                }
                assert_eq!(own_top(), None);
            })
        };
        let mut truncated = false;
        for _ in 0..100 {
            let p = sample_for(Duration::from_millis(10), 200);
            if p.stacks
                .iter()
                .any(|(path, _)| path.last().copied() == Some("truncated"))
            {
                assert!(p.truncated > 0);
                truncated = true;
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(truncated, "overflowing stack never sampled as truncated");
    }
}
