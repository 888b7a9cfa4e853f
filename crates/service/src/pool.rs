//! A bounded worker pool with backpressure and graceful shutdown.
//!
//! The accept loop hands each connection to [`WorkerPool::submit`], which
//! either enqueues it or fails fast with [`SubmitError::Full`] — the
//! server turns that into `503 Service Unavailable` + `Retry-After`
//! instead of letting the queue (and memory) grow without bound. Workers
//! are plain OS threads: an analysis request is dominated by eigensolves,
//! which run serially on the worker that handles it (only the min-cut
//! sweep spawns `--threads` helpers), so the pool's size sets how many
//! distinct sessions solve at once.
//!
//! Shutdown is graceful: already-queued jobs are drained, then workers
//! exit and are joined.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a job was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — retry later (backpressure).
    Full,
    /// The pool is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => f.write_str("queue full"),
            SubmitError::ShuttingDown => f.write_str("shutting down"),
        }
    }
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
    active: AtomicUsize,
    processed: AtomicU64,
    panicked: AtomicU64,
}

/// Point-in-time pool counters (see [`WorkerPool::snapshot`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolSnapshot {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub active: usize,
    /// Jobs that ran to completion without panicking.
    pub processed: u64,
    /// Jobs that panicked (caught; the worker survived).
    pub panicked: u64,
}

/// See the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` worker threads sharing a queue of at most
    /// `capacity` pending jobs (both clamped to ≥ 1).
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            active: AtomicUsize::new(0),
            processed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("graphio-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues `job`, failing fast instead of blocking when the queue is
    /// at capacity.
    ///
    /// # Errors
    /// [`SubmitError::Full`] at capacity, [`SubmitError::ShuttingDown`]
    /// after [`WorkerPool::shutdown`].
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Current queue/active/processed counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            queued: self.shared.state.lock().expect("pool lock").queue.len(),
            active: self.shared.active.load(Ordering::Relaxed),
            processed: self.shared.processed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }

    /// Maximum number of queued jobs.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.lock().expect("workers lock").len()
    }

    /// Runs `work` over every item, fanning out across the pool, and
    /// returns the results in input order (`None` where `work` panicked).
    ///
    /// Deadlock-free by construction even when called *from* a pooled
    /// worker (the `POST /batch` handler does exactly that): the items
    /// live in a shared deque that the calling thread drains itself, and
    /// the submitted jobs are only *helpers* that steal from the same
    /// deque. A saturated pool — every worker busy, queue full — just
    /// means no helper ever runs and the caller computes everything
    /// inline; the caller blocks only while helpers are actively
    /// computing items they already claimed.
    pub fn scatter<T, R>(
        &self,
        items: Vec<T>,
        work: impl Fn(T) -> R + Send + Sync + 'static,
    ) -> Vec<Option<R>>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        struct Batch<T, R> {
            pending: Mutex<VecDeque<(usize, T)>>,
            results: Mutex<Vec<Option<R>>>,
            /// Items fully accounted for (computed or panicked).
            done: Mutex<usize>,
            all_done: Condvar,
        }

        fn drain<T, R>(batch: &Batch<T, R>, work: &(impl Fn(T) -> R + Sync)) {
            loop {
                let item = batch.pending.lock().expect("batch lock").pop_front();
                let Some((i, t)) = item else { return };
                let result = catch_unwind(AssertUnwindSafe(|| work(t))).ok();
                batch.results.lock().expect("batch results")[i] = result;
                let mut done = batch.done.lock().expect("batch done");
                *done += 1;
                batch.all_done.notify_all();
            }
        }

        let total = items.len();
        let batch = Arc::new(Batch {
            pending: Mutex::new(items.into_iter().enumerate().collect()),
            results: Mutex::new((0..total).map(|_| None).collect()),
            done: Mutex::new(0),
            all_done: Condvar::new(),
        });
        let work = Arc::new(work);
        // One drain() loop empties the whole deque, so more helpers than
        // workers is pure queue pollution — they would sit as no-op jobs
        // in the same bounded queue the acceptor needs for incoming
        // connections. Failed submits are fine — the caller picks up the
        // slack.
        let helpers = total.saturating_sub(1).min(self.workers());
        for _ in 0..helpers {
            let batch = Arc::clone(&batch);
            let work = Arc::clone(&work);
            if self.submit(move || drain(&batch, &*work)).is_err() {
                break;
            }
        }
        drain(&batch, &*work);
        let mut done = batch.done.lock().expect("batch done");
        while *done < total {
            done = batch.all_done.wait(done).expect("batch wait");
        }
        drop(done);
        let results = std::mem::take(&mut *batch.results.lock().expect("batch results"));
        results
    }

    /// Stops accepting work, drains the queue, and joins every worker.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.not_empty.wait(state).expect("pool wait");
            }
        };
        shared.active.fetch_add(1, Ordering::Relaxed);
        // A panicking request handler must not take the worker (and the
        // server's capacity) down with it.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.processed.fetch_add(1, Ordering::Relaxed);
        }
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(4, 64);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        assert_eq!(pool.snapshot().processed, 32);
    }

    #[test]
    fn rejects_when_full() {
        let pool = WorkerPool::new(1, 2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap(); // worker is now busy
        pool.submit(|| {}).unwrap();
        pool.submit(|| {}).unwrap();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Full));
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
        let pool = WorkerPool::new(2, 128);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(pool.submit(|| {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn scatter_returns_results_in_input_order() {
        let pool = WorkerPool::new(4, 32);
        let results = pool.scatter((0..50usize).collect(), |i| i * i);
        assert_eq!(
            results,
            (0..50usize).map(|i| Some(i * i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scatter_completes_inline_when_the_pool_is_saturated() {
        // One worker, blocked; zero queue slack for helpers. scatter is
        // called from the outside, so the calling thread must do all the
        // work itself instead of deadlocking.
        let pool = WorkerPool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        pool.submit(|| {}).unwrap(); // fill the queue
        let results = pool.scatter(vec![1, 2, 3], |i| i + 10);
        assert_eq!(results, vec![Some(11), Some(12), Some(13)]);
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn scatter_reports_panicked_items_as_none() {
        let pool = WorkerPool::new(2, 16);
        let results = pool.scatter(vec![1usize, 2, 3, 4], |i| {
            assert!(i != 3, "boom");
            i
        });
        assert_eq!(results, vec![Some(1), Some(2), None, Some(4)]);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.submit(|| panic!("boom")).unwrap();
        let done = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.store(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 1);
        assert_eq!(pool.snapshot().panicked, 1);
    }
}
