//! Panic-isolated scoped worker threads.
//!
//! The workspace lint gate (`no-direct-thread-spawn-outside-runtime`) funnels
//! every thread spawn through this crate so panic isolation is never skipped by
//! accident. [`scoped_workers`] is the general-purpose entry point for callers
//! outside the morsel driver — e.g. `gj-service`'s session replay and the
//! benchmark's service workloads: it runs a closure on `n` scoped threads, catches
//! panics at each worker boundary, and returns one typed result per worker.

use crate::exec::{panic_payload, ExecError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f(worker_index)` on `threads` scoped OS threads and joins them all.
///
/// Each worker's panic (if any) is caught at the thread boundary and surfaced
/// as [`ExecError::WorkerPanicked`] in that worker's slot — one worker blowing
/// up never takes down the caller or the other workers. `threads` is clamped
/// to ≥ 1; results are indexed by worker.
pub fn scoped_workers<T, F>(threads: usize, f: F) -> Vec<Result<T, ExecError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    let mut results: Vec<Result<T, ExecError>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|i| scope.spawn(move || catch_unwind(AssertUnwindSafe(|| f(i)))))
            .collect();
        for handle in handles {
            let joined = match handle.join() {
                Ok(caught) => caught,
                Err(payload) => Err(payload),
            };
            results.push(
                joined.map_err(|payload| ExecError::WorkerPanicked {
                    payload: panic_payload(payload),
                }),
            );
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_worker() {
        let results = scoped_workers(4, |i| i * 10);
        let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, [0, 10, 20, 30]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(scoped_workers(0, |i| i).len(), 1);
    }

    #[test]
    fn one_panicking_worker_does_not_poison_the_rest() {
        let results = scoped_workers(3, |i| {
            assert!(i != 1, "worker 1 blows up");
            i
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[2], Ok(2));
        match &results[1] {
            Err(ExecError::WorkerPanicked { payload }) => {
                assert!(payload.contains("worker 1 blows up"), "{payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
