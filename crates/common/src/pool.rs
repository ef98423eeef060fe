//! A fixed-size worker pool over std threads and bounded channels.
//!
//! The `rcc-crypto` pooled verifier authenticates frames on this pool, and
//! the `rcc-execution` conflict-aware executor runs independent transaction
//! groups on it. The deployed node uses neither (it verifies and executes
//! inline); the deployment benchmark's replay compares both against the
//! inline paths. The pool is deliberately tiny — plain `std::thread`
//! workers pulling boxed jobs from one bounded `sync_channel` — because the
//! workspace vendors no async runtime and the determinism argument is
//! easiest to audit when scheduling is this simple.
//!
//! Determinism: [`WorkerPool::run_ordered`] tags every job with its
//! submission index and reassembles results in that order, so callers observe
//! submission order regardless of which worker finished first.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How many jobs may queue per worker before submission back-pressures.
const QUEUE_PER_WORKER: usize = 4;

/// A fixed pool of worker threads executing boxed jobs from a bounded queue.
pub struct WorkerPool {
    injector: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (`workers` is clamped to at least
    /// one — a zero-width pipeline is a configuration error, not a mode).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (injector, source) = sync_channel::<Job>(workers * QUEUE_PER_WORKER);
        let source = Arc::new(Mutex::new(source));
        let workers = (0..workers)
            .map(|i| {
                let source: Arc<Mutex<Receiver<Job>>> = Arc::clone(&source);
                std::thread::Builder::new()
                    .name(format!("rcc-worker-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to *pull*; run the job unlocked
                        // so the other workers keep draining the queue.
                        let job = match source.lock() {
                            Ok(receiver) => receiver.recv(),
                            Err(_) => return,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // pool dropped: drain and exit
                        }
                    })
                    // rcc-lint: allow(panic) — pool construction happens at
                    // node boot; an OS that cannot spawn a thread leaves no
                    // degraded mode to fall back to.
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs every job on the pool and returns the results **in submission
    /// order**, blocking until all jobs finished. Jobs run concurrently up to
    /// the pool width; submission back-pressures on the bounded queue.
    pub fn run_ordered<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let total = jobs.len();
        // rcc-lint: allow(unbounded-channel) — occupancy is bounded by the
        // jobs in flight: at most `total` results are ever queued, and the
        // injector's own bounded queue back-pressures submission upstream.
        let (results_tx, results_rx) = std::sync::mpsc::channel::<(usize, T)>();
        // rcc-lint: allow(panic) — the injector `Option` exists solely so
        // `Drop` can hang up the channel; a live pool always holds it.
        let injector = self.injector.as_ref().expect("pool is live");
        for (index, job) in jobs.into_iter().enumerate() {
            let results_tx = results_tx.clone();
            injector
                .send(Box::new(move || {
                    // A disconnected result channel means the caller already
                    // panicked; dropping the result is the right response.
                    let _ = results_tx.send((index, job()));
                }))
                // rcc-lint: allow(panic) — workers only exit after the
                // injector is dropped; a send failing on a live pool means
                // a worker thread died, which propagates that panic.
                .expect("worker pool hung up");
        }
        drop(results_tx);
        let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            // rcc-lint: allow(panic) — a worker that panicked mid-job drops
            // its sender without reporting; re-raising the panic on the
            // submitting thread is deliberate (silently returning fewer
            // results would corrupt the ordered pipeline downstream).
            let (index, value) = results_rx.recv().expect("a worker panicked mid-job");
            slots[index] = Some(value);
        }
        slots
            .into_iter()
            // rcc-lint: allow(panic) — every index in 0..total was submitted
            // exactly once and the loop above received exactly `total`
            // results, so each slot is filled by construction.
            .map(|slot| slot.expect("every index reported"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Stagger finishing times so out-of-order completion is
                    // actually exercised.
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * i
                }
            })
            .collect();
        let results = pool.run_ordered(jobs);
        let expected: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn zero_width_pools_clamp_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run_ordered(vec![|| 7]), vec![7]);
    }

    #[test]
    fn a_pool_survives_many_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..50u32 {
            let jobs: Vec<_> = (0..8u32).map(|i| move || round + i).collect();
            let results = pool.run_ordered(jobs);
            assert_eq!(results, (0..8).map(|i| round + i).collect::<Vec<_>>());
        }
    }
}
