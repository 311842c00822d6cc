//! Fixed-size worker pool with a bounded job queue.
//!
//! Jobs are boxed closures; submission is non-blocking and fails fast
//! with [`SubmitError::QueueFull`] when the queue is at capacity, which
//! the HTTP layer maps to `503 Service Unavailable` — under overload
//! the engine sheds load instead of queueing unboundedly. A pool that
//! could not spawn a single worker thread answers every submission
//! with `QueueFull` rather than queueing jobs nobody will run.
//!
//! Each job is stamped with its enqueue time; the worker that dequeues
//! it measures the queue wait and hands it to the closure, which is
//! how the `fairrank_queue_wait_us` histograms and per-trace
//! `queue_us` spans are fed — the measurement happens exactly where
//! the queue is drained, not where the submitter guesses.

use crate::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A pool job: the closure receives the time it spent queued.
type Job = Box<dyn FnOnce(Duration) + Send + 'static>;

/// A queued job with its enqueue timestamp.
struct QueuedJob {
    job: Job,
    enqueued: Instant,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The pool is shutting down.
    ShuttingDown,
}

struct State {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    job_ready: Condvar,
    queue_capacity: usize,
    /// Workers currently executing a job (observability gauge).
    busy: AtomicU64,
}

impl Shared {
    fn new(queue_capacity: usize) -> Shared {
        Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            busy: AtomicU64::new(0),
        }
    }
}

/// A pool of worker threads draining a bounded FIFO queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least 1) with the given queue bound.
    /// Threads the OS refuses are skipped: the pool runs on the ones
    /// that did start.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(Shared::new(queue_capacity));
        let workers = (0..workers.max(1))
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fairrank-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (excludes jobs being executed).
    pub fn queued(&self) -> usize {
        lock_recover(&self.shared.state).jobs.len()
    }

    /// Workers currently executing a job (an observability gauge,
    /// exported as `fairrank_workers_busy` in `GET /metrics`).
    pub fn busy(&self) -> u64 {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Enqueue a job, failing fast when the queue is full (or when no
    /// worker thread exists to drain it).
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = lock_recover(&self.shared.state);
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if self.workers.is_empty() || state.jobs.len() >= self.shared.queue_capacity {
            return Err(SubmitError::QueueFull);
        }
        state.jobs.push_back(QueuedJob {
            job,
            enqueued: Instant::now(),
        });
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Drain the queue and join every worker. Queued jobs still run;
    /// new submissions are rejected.
    pub fn shutdown(mut self) {
        {
            let mut state = lock_recover(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Signal shutdown but do not join: detached workers finish the
        // queue in the background. Call [`WorkerPool::shutdown`] for a
        // clean join.
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.job_ready.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock_recover(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = wait_recover(&shared.job_ready, state);
            }
        };
        // A panicking job must not kill the worker: catch and keep
        // serving. The submitting side observes the panic as a
        // disconnected result channel.
        let waited = job.enqueued.elapsed();
        shared.busy.fetch_add(1, Ordering::Relaxed);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || (job.job)(waited)));
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }))
            .unwrap();
        }
        for _ in 0..32 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        pool.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        // one worker blocked on a gate → queue fills
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        pool.try_submit(Box::new(move |_| {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        // worker busy; fill the queue
        pool.try_submit(Box::new(|_| {})).unwrap();
        pool.try_submit(Box::new(|_| {})).unwrap();
        assert_eq!(
            pool.try_submit(Box::new(|_| {})),
            Err(SubmitError::QueueFull)
        );
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(Box::new(|_| panic!("boom"))).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_submit(Box::new(move |_| tx.send(42).unwrap()))
            .unwrap();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42
        );
        pool.shutdown();
    }

    #[test]
    fn shutdown_runs_queued_jobs() {
        let pool = WorkerPool::new(2, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0, 1);
        assert_eq!(pool.workers(), 1);
        pool.shutdown();
    }

    #[test]
    fn pool_without_live_workers_rejects_instead_of_queueing() {
        // what `new` leaves behind when the OS refuses every thread
        let pool = WorkerPool {
            shared: Arc::new(Shared::new(4)),
            workers: Vec::new(),
        };
        assert_eq!(pool.workers(), 0);
        assert_eq!(
            pool.try_submit(Box::new(|_| {})),
            Err(SubmitError::QueueFull)
        );
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn queue_wait_reflects_time_spent_queued() {
        // single worker held at a gate: the second job's measured wait
        // must cover the time the gate stayed closed
        let pool = WorkerPool::new(1, 8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (wait_tx, wait_rx) = mpsc::channel();
        pool.try_submit(Box::new(move |_| gate_rx.recv().unwrap()))
            .unwrap();
        pool.try_submit(Box::new(move |waited| wait_tx.send(waited).unwrap()))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate_tx.send(()).unwrap();
        let waited = wait_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        assert!(waited >= std::time::Duration::from_millis(15), "{waited:?}");
        pool.shutdown();
    }
}
