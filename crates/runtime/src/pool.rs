//! A reclaim pool for per-worker engine state.
//!
//! The driver creates one [`MorselSource::Worker`](crate::MorselSource::Worker) per
//! worker thread and hands it back through
//! [`retire_worker`](crate::MorselSource::retire_worker) when the worker's loop
//! ends. A [`WorkerPool`] is the natural home for those retired workers: a prepared
//! plan embeds one, [`MorselSource::worker`](crate::MorselSource::worker) pops a
//! recycled worker (warm caches and all) instead of building a cold one, and
//! `retire_worker` pushes it back. Because the pool lives in the *plan* — not in
//! the per-execution morsel source — worker state survives not only across the
//! morsels of one run but across **repeated executions** of the same prepared
//! query: the pairwise baselines keep their merge-join left sort permutations this
//! way, so a warm parallel rerun skips every left sort the cold run paid for.
//!
//! The pool is a plain mutex-guarded stack: acquisition order is unspecified, and
//! workers must therefore be interchangeable (any worker must produce correct
//! results for any morsel — caches may differ, answers may not).

use std::sync::{Mutex, MutexGuard, PoisonError};

/// A mutex-guarded stack of reusable per-worker states.
///
/// Cloning a `WorkerPool` yields a fresh **empty** pool: pooled workers are caches,
/// and caches do not follow clones (a cloned plan starts cold, exactly like a newly
/// prepared one).
///
/// The pool is panic-tolerant by construction: the lock is held only around plain
/// `Vec` push/pop (never across user code — `acquire_or` runs its `fresh` closure
/// *after* releasing the lock), and poisoning left behind by a panicked worker
/// thread is recovered, so a crashed query never makes the pool unusable for the
/// next one.
#[derive(Debug, Default)]
pub struct WorkerPool<W> {
    workers: Mutex<Vec<W>>,
}

impl<W> WorkerPool<W> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        WorkerPool { workers: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<W>> {
        // A poisoned pool holds parked workers, which are caches of valid state —
        // the panic that poisoned the lock cannot have corrupted them mid-push.
        self.workers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pops a retired worker, or builds a fresh one with `fresh` when the pool is
    /// empty (first execution, or more threads than ever retired). `fresh` runs
    /// without the pool lock held, so a panicking constructor cannot poison the
    /// pool.
    pub fn acquire_or(&self, fresh: impl FnOnce() -> W) -> W {
        let recycled = self.lock().pop();
        recycled.unwrap_or_else(fresh)
    }

    /// Returns a worker (and its warmed caches) to the pool for later executions.
    pub fn release(&self, worker: W) {
        self.lock().push(worker);
    }

    /// Number of workers currently parked in the pool.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the pool holds no parked worker.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<W> Clone for WorkerPool<W> {
    fn clone(&self) -> Self {
        WorkerPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_prefers_pooled_workers_and_falls_back_to_fresh() {
        let pool: WorkerPool<Vec<u32>> = WorkerPool::new();
        assert!(pool.is_empty());
        let fresh = pool.acquire_or(|| vec![1]);
        assert_eq!(fresh, vec![1]);
        pool.release(vec![2, 3]);
        assert_eq!(pool.len(), 1);
        let recycled = pool.acquire_or(|| vec![1]);
        assert_eq!(recycled, vec![2, 3], "the pooled worker wins over the fresh closure");
        assert!(pool.is_empty());
    }

    #[test]
    fn clones_start_cold() {
        let pool: WorkerPool<u8> = WorkerPool::new();
        pool.release(7);
        let clone = pool.clone();
        assert!(clone.is_empty(), "caches do not follow clones");
        assert_eq!(pool.len(), 1);
    }

    /// The PR 6 contract, pinned per structure: a panicked worker may poison the
    /// pool's mutex, but the next query must see byte-identical pool contents —
    /// the lock is never held across user code, so the parked workers are intact.
    #[test]
    fn a_poisoned_pool_serves_byte_identical_workers() {
        let pool: WorkerPool<Vec<u32>> = WorkerPool::new();
        pool.release(vec![1, 2, 3]);
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.workers.lock().unwrap();
            panic!("worker dies while holding the pool lock");
        }));
        assert!(unwind.is_err());
        assert!(pool.workers.is_poisoned(), "the panic must actually poison the mutex");
        assert_eq!(pool.len(), 1, "a poisoned pool still counts its workers");
        let worker = pool.acquire_or(Vec::new);
        assert_eq!(worker, vec![1, 2, 3], "recovered state is byte-identical");
        pool.release(worker);
        assert_eq!(pool.len(), 1, "release works on a poisoned pool too");
    }

    #[test]
    fn pool_is_shared_across_threads() {
        let pool: WorkerPool<usize> = WorkerPool::new();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let pool = &pool;
                scope.spawn(move || pool.release(i));
            }
        });
        assert_eq!(pool.len(), 4, "every thread's release lands in the shared pool");
        let mut drained: Vec<usize> = (0..4).map(|_| pool.acquire_or(|| 99)).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }
}
