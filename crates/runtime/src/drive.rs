//! The morsel driver: scoped workers, a shared job pool, and the ordered merge.
//!
//! [`try_drive`] is the runtime's engine-independent core. It spawns `threads`
//! scoped worker threads (std-only, no external thread pool); each worker
//! repeatedly claims the next unclaimed morsel from the [`JobQueue`], runs it
//! through the engine's [`MorselSource`] into the morsel's private shard, and hands
//! the completed shard to the merger. The merger absorbs shards strictly **in
//! morsel order** — shards finishing out of order wait in a pending map — so the
//! sink observes the serial emission stream regardless of scheduling.
//!
//! Serial execution is the one-worker case of the same loop, not a separate path:
//! with one worker the loop runs **on the calling thread** (nothing is spawned),
//! and because a single worker's emission order *is* the serial order, its rows go
//! straight into the sink — row at a time, with an immediate `Break` — instead of
//! through shards. Under a monitor that cannot trip, that worker also hands its
//! engine an inert [`ExecCtx`], so the unmonitored serial run stays tick-free.
//!
//! Per-worker engine state ([`MorselSource::Worker`]) lives for the whole worker
//! loop: an engine can keep its executor, search buffers, or constraint store alive
//! across every morsel the worker claims, instead of re-allocating per job.
//!
//! When a worker's loop ends the driver reads its [`Counters`]
//! ([`MorselSource::counters`]) and sums every worker's into the
//! [`DriveReport`] — once, here, for every engine — and drops the worker.
//!
//! # Fault tolerance
//!
//! Each worker's whole loop runs under `catch_unwind` (the one-worker loop on the
//! calling thread included): a panic anywhere in engine
//! code trips the queue's stop flag, is recorded as
//! [`ExecError::WorkerPanicked`] on the shared [`ExecMonitor`], and surfaces as a
//! typed `Err` from [`try_drive`] — never as a propagated panic, and never leaving
//! a poisoned lock behind (every shared lock here recovers from poisoning). The
//! monitor is additionally polled at every morsel boundary, and engines poll it
//! *inside* morsels through the [`ExecCtx`] the driver threads into
//! [`MorselSource::run_morsel`] / [`count_morsel`](MorselSource::count_morsel), so
//! cancellations and deadlines are honored with bounded latency even during one
//! long morsel. A row budget is accounted row by row on both the row and the
//! counting path (each worker may overshoot by the one row it was delivering, never
//! by a morsel). The [`drive`] wrapper keeps the infallible signature for callers
//! without a budget (and re-raises worker panics).

use crate::counters::Counters;
use crate::exec::{panic_payload, ExecCtx, ExecError, ExecMonitor};
use crate::morsel::Morsel;
use crate::psink::{ParallelSink, ShardSink};
use crate::queue::JobQueue;
use gj_storage::fault::{sites, FailpointHit};
use gj_storage::Val;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// A range-restricted engine execution: everything the runtime needs to drive an
/// engine in parallel.
///
/// Implementations run the query restricted to first-GAO-attribute values in
/// `[morsel.lo, morsel.hi)` and emit every output row **in variable-id order** (the
/// sink protocol's row shape), in the engine's serial emission order.
pub trait MorselSource: Sync {
    /// Reusable per-worker state (executor, scratch buffers, constraint store);
    /// created once per worker thread and carried across every claimed morsel.
    type Worker;

    /// Creates the state for one worker thread; it lives until the worker's loop
    /// ends and is dropped with it.
    fn worker(&self) -> Self::Worker;

    /// The work counters this worker accumulated over the morsels it ran. The
    /// driver reads them once, when the worker's loop ends, and sums every
    /// worker's into [`DriveReport::counters`]. The default reports none.
    fn counters(&self, _worker: &Self::Worker) -> Counters {
        Counters::default()
    }

    /// Runs one morsel, emitting rows until exhaustion, until `emit` breaks, or
    /// until the engine's [`ExecWatch`](crate::ExecWatch) (derived from `ctx`)
    /// observes a stop — engines must poll `ctx` inside long searches so a tripped
    /// stop flag, cancel token or deadline is honored with bounded latency.
    fn run_morsel(
        &self,
        worker: &mut Self::Worker,
        morsel: Morsel,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    );

    /// Counting fast path: the number of output rows in one morsel. Engines with a
    /// dedicated counting mode (e.g. Minesweeper's batch counting) should override
    /// this; the default enumerates and counts. The same in-loop polling duty as
    /// [`run_morsel`](Self::run_morsel) applies — a stopped run may return a
    /// partial count (the driver discards it).
    fn count_morsel(&self, worker: &mut Self::Worker, morsel: Morsel, ctx: &ExecCtx<'_>) -> u64 {
        let mut rows = 0;
        self.run_morsel(worker, morsel, ctx, &mut |_| {
            rows += 1;
            ControlFlow::Continue(())
        });
        rows
    }
}

/// What a parallel run did, for `RunStats` in `gj-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Number of morsels the output space was partitioned into.
    pub morsels: usize,
    /// Worker threads used (1 = the calling thread; nothing was spawned).
    pub threads: usize,
    /// Rows delivered into the sink (by the ordered merge, or directly by a
    /// single worker).
    pub rows: u64,
    /// Morsels actually executed (smaller than `morsels` under early termination).
    pub morsels_run: usize,
    /// The engine's work counters, summed over every worker that finished its
    /// loop (a worker that panicked contributes none).
    pub counters: Counters,
}

/// The ordered merge: absorbs completed shards into the sink in morsel order.
struct Merger<'s, K: ParallelSink> {
    sink: &'s mut K,
    /// Next morsel index the sink is waiting for.
    next: usize,
    /// Completed shards that finished ahead of `next`.
    pending: BTreeMap<usize, K::Shard>,
    rows: u64,
    satisfied: bool,
}

impl<'s, K: ParallelSink> Merger<'s, K> {
    fn new(sink: &'s mut K) -> Self {
        Merger { sink, next: 0, pending: BTreeMap::new(), rows: 0, satisfied: false }
    }

    /// Registers morsel `job`'s completed shard and absorbs every shard that is now
    /// contiguous with the absorbed prefix. Returns `Break` once the sink is
    /// satisfied (sticky).
    fn complete(&mut self, job: usize, shard: K::Shard) -> ControlFlow<()> {
        self.pending.insert(job, shard);
        while let Some(shard) = self.pending.remove(&self.next) {
            self.next += 1;
            if self.satisfied {
                continue; // the sink broke earlier: drop trailing shards
            }
            let (rows, flow) = self.sink.absorb(shard);
            self.rows += rows;
            self.satisfied = flow.is_break();
        }
        if self.satisfied {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Where a worker's rows go while it runs a morsel, and how they reach the sink
/// once the morsel is done — the only thing that differs between one worker and
/// many.
trait Lanes<K: ParallelSink> {
    /// Exactly one worker drives these lanes, so the queue's stop flag is only ever
    /// set by that worker itself and its engine need not watch it.
    const SOLO: bool;

    /// The row target of one morsel.
    type Lane: ShardSink;

    /// Hands out morsel `job`'s lane to the worker that claimed it.
    fn open(&self, job: usize) -> Self::Lane;

    /// Takes back morsel `job`'s finished lane; `Break` once the sink is satisfied.
    fn close(&self, job: usize, lane: Self::Lane) -> ControlFlow<()>;

    /// `(rows delivered into the sink, morsels delivered)`, once every worker is done.
    fn delivered(self) -> (u64, usize);
}

/// Many workers: one private shard per morsel, absorbed into the sink in morsel
/// order by the [`Merger`].
struct Sharded<'s, K: ParallelSink> {
    shards: Vec<Mutex<Option<K::Shard>>>,
    merger: Mutex<Merger<'s, K>>,
}

impl<'s, K: ParallelSink> Sharded<'s, K> {
    /// One shard per morsel, created up front (shard creation needs `&sink`, which
    /// the merger then borrows mutably).
    fn new(sink: &'s mut K, morsels: usize) -> Self {
        let shards = (0..morsels).map(|_| Mutex::new(Some(sink.shard()))).collect();
        Sharded { shards, merger: Mutex::new(Merger::new(sink)) }
    }
}

impl<K: ParallelSink> Lanes<K> for Sharded<'_, K> {
    const SOLO: bool = false;
    type Lane = K::Shard;

    fn open(&self, job: usize) -> K::Shard {
        self.shards[job]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            // gj-lint: allow(no-panic-in-engines) — double-claim means corrupt results; aborting the worker is the safe outcome
            .expect("every job is claimed exactly once")
    }

    fn close(&self, job: usize, shard: K::Shard) -> ControlFlow<()> {
        self.merger.lock().unwrap_or_else(PoisonError::into_inner).complete(job, shard)
    }

    fn delivered(self) -> (u64, usize) {
        let merger = self.merger.into_inner().unwrap_or_else(PoisonError::into_inner);
        (merger.rows, merger.next)
    }
}

/// One worker: its emission order is the serial order, so every lane *is* the
/// sink — rows are pushed straight into it, and a `Break` stops the engine at that
/// row.
struct Direct<'s, K> {
    /// The sink, lent to the open lane and returned when the lane closes.
    sink: Cell<Option<&'s mut K>>,
    rows: Cell<u64>,
    morsels: Cell<usize>,
}

/// The lane of [`Direct`]: the sink itself, plus what this morsel delivered.
struct DirectLane<'s, K> {
    sink: &'s mut K,
    rows: u64,
    flow: ControlFlow<()>,
}

impl<K: ParallelSink> ShardSink for DirectLane<'_, K> {
    fn push(&mut self, row: &[Val]) -> ControlFlow<()> {
        self.rows += 1;
        self.flow = self.sink.push(row);
        self.flow
    }

    fn push_count(&mut self, rows: u64) {
        let mut shard = self.sink.shard();
        shard.push_count(rows);
        let (rows, flow) = self.sink.absorb(shard);
        self.rows += rows;
        self.flow = flow;
    }
}

impl<'s, K: ParallelSink> Lanes<K> for Direct<'s, K> {
    const SOLO: bool = true;
    type Lane = DirectLane<'s, K>;

    fn open(&self, _job: usize) -> DirectLane<'s, K> {
        let sink = self
            .sink
            .take()
            // gj-lint: allow(no-panic-in-engines) — the one worker closes each lane before opening the next; a second open means a corrupt driver loop
            .expect("the single worker holds one lane at a time");
        DirectLane { sink, rows: 0, flow: ControlFlow::Continue(()) }
    }

    fn close(&self, _job: usize, lane: DirectLane<'s, K>) -> ControlFlow<()> {
        self.rows.set(self.rows.get() + lane.rows);
        self.morsels.set(self.morsels.get() + 1);
        self.sink.set(Some(lane.sink));
        lane.flow
    }

    fn delivered(self) -> (u64, usize) {
        (self.rows.get(), self.morsels.get())
    }
}

/// Fires the driver-level failpoint `site` when a registry is attached: an
/// injected panic unwinds the worker, an injected trip aborts the run (`Break`).
fn failpoint(monitor: &ExecMonitor, site: &str) -> ControlFlow<()> {
    match monitor.failpoints().and_then(|fp| fp.hit(site)) {
        // gj-lint: allow(no-panic-in-engines) — fault-injection failpoint: the panic IS the fault under test
        Some(FailpointHit::Panic) => panic!("failpoint panic: {site}"),
        Some(FailpointHit::Trip) => {
            monitor.trip_budget();
            ControlFlow::Break(())
        }
        None => ControlFlow::Continue(()),
    }
}

/// One worker's claim/run/merge loop; returns the worker's counters. Runs under
/// `catch_unwind` in [`run_worker`]; everything here must leave shared state
/// consistent if it unwinds.
fn worker_loop<S: MorselSource, K: ParallelSink, L: Lanes<K>>(
    source: &S,
    morsels: &[Morsel],
    queue: &JobQueue,
    lanes: &L,
    monitor: &ExecMonitor,
) -> Counters {
    let mut worker = source.worker();
    // A lone worker under a monitor that cannot trip has nothing to watch: the
    // inert context lets engines run their tick-free search.
    let ctx = if L::SOLO && !monitor.can_trip() {
        ExecCtx::none()
    } else {
        ExecCtx::for_drive(monitor, queue)
    };
    let capped = monitor.has_row_cap();
    loop {
        // Morsel-boundary checks: budget state, then the claim failpoint.
        if monitor.check() || failpoint(monitor, sites::MORSEL_CLAIM).is_break() {
            queue.stop();
            break;
        }
        let Some(job) = queue.claim() else { break };
        let mut lane = lanes.open(job);
        let mut found = 0;
        if K::COUNT_ONLY && !capped {
            found = source.count_morsel(&mut worker, morsels[job], &ctx);
            lane.push_count(found);
        } else {
            // A row cap is accounted as rows are found — also for counting sinks,
            // which therefore take the row path — so a budget bounds the work and
            // not just the answer.
            source.run_morsel(&mut worker, morsels[job], &ctx, &mut |row| {
                if queue.is_stopped() {
                    return ControlFlow::Break(());
                }
                if capped && monitor.note_rows(1) {
                    queue.stop();
                    return ControlFlow::Break(());
                }
                found += 1;
                let flow = lane.push(row);
                if lane.wants_global_stop() {
                    queue.stop();
                }
                flow
            });
        }
        if !capped {
            // Nothing to trip: this only keeps the delivered-row total that an
            // injected budget abort reports.
            monitor.note_rows(found);
        }
        if failpoint(monitor, sites::SHARD_MERGE).is_break() || lanes.close(job, lane).is_break() {
            queue.stop();
            break;
        }
    }
    source.counters(&worker)
}

/// [`worker_loop`] at the worker's panic boundary: a panic is recorded on the
/// monitor and stops the other workers (and the worker reports no counters).
fn run_worker<S: MorselSource, K: ParallelSink, L: Lanes<K>>(
    source: &S,
    morsels: &[Morsel],
    queue: &JobQueue,
    lanes: &L,
    monitor: &ExecMonitor,
) -> Counters {
    let caught =
        catch_unwind(AssertUnwindSafe(|| worker_loop(source, morsels, queue, lanes, monitor)));
    caught.unwrap_or_else(|payload| {
        monitor.trip(ExecError::WorkerPanicked { payload: panic_payload(payload) });
        queue.stop();
        Counters::default()
    })
}

/// Runs `morsels` of `source` on `threads` workers under `monitor`, delivering
/// every morsel's output into `sink` in morsel order.
///
/// With one worker — one thread asked for, or a single morsel — the worker loop
/// runs on the calling thread and pushes rows straight into `sink`; serial
/// execution is exactly this case over [`Morsel::whole_axis`]. More workers run on
/// scoped threads and merge per-morsel shards in order. A monitor that cannot trip
/// by itself (no token, deadline, row cap or failpoints) makes the one-worker case
/// hand engines an inert context; a [`trip`](ExecMonitor::trip) by the monitor's
/// owner is then honoured at morsel boundaries only.
///
/// # Errors
///
/// Returns the first [`ExecError`] tripped on `monitor` — a cancel, deadline or
/// row-budget abort, or a worker panic (caught at the worker boundary; the panic
/// payload rides in the error and shared state stays reusable). On an `Err` the
/// sink holds a meaningless prefix of the output and must be discarded.
pub fn try_drive<S: MorselSource, K: ParallelSink>(
    source: &S,
    morsels: &[Morsel],
    threads: usize,
    sink: &mut K,
    monitor: &ExecMonitor,
) -> Result<DriveReport, ExecError> {
    let n = morsels.len();
    let threads = threads.max(1).min(n.max(1));
    let queue = JobQueue::new(n);
    let ((rows, morsels_run), counters) = if threads == 1 {
        let lanes =
            Direct { sink: Cell::new(Some(sink)), rows: Cell::new(0), morsels: Cell::new(0) };
        let counters = run_worker(source, morsels, &queue, &lanes, monitor);
        (lanes.delivered(), counters)
    } else {
        let lanes = Sharded::new(sink, n);
        let counters = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| run_worker(source, morsels, &queue, &lanes, monitor)))
                .collect();
            // `run_worker` catches every panic, so a join never fails.
            workers.into_iter().fold(Counters::default(), |mut sum, worker| {
                sum.merge(worker.join().unwrap_or_default());
                sum
            })
        });
        (lanes.delivered(), counters)
    };
    let report = DriveReport { morsels: n, threads, rows, morsels_run, counters };
    match monitor.take_reason() {
        Some(reason) => Err(reason),
        None => Ok(report),
    }
}

/// Infallible wrapper around [`try_drive`] with an unlimited monitor, for callers
/// without a budget.
///
/// # Panics
///
/// Re-raises a worker panic as a panic in the calling thread; no other
/// [`ExecError`] can occur without a budget.
pub fn drive<S: MorselSource, K: ParallelSink>(
    source: &S,
    morsels: &[Morsel],
    threads: usize,
    sink: &mut K,
) -> DriveReport {
    let monitor = ExecMonitor::unlimited();
    match try_drive(source, morsels, threads, sink, &monitor) {
        Ok(report) => report,
        // gj-lint: allow(no-panic-in-engines) — documented infallible wrapper ("# Panics"); limit-free runs cannot abort
        Err(err) => panic!("{err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CancelToken, QueryBudget};
    use crate::sink::{CollectSink, CountSink, ExistsSink, FirstK};
    use gj_storage::fault::{FailAction, FailpointRegistry};
    use gj_storage::POS_INF;
    use std::sync::Arc;

    /// A toy source that emits `(v, v)` for every v in the morsel ∩ [0, n).
    struct Iota {
        n: Val,
    }

    impl MorselSource for Iota {
        type Worker = Vec<Val>;

        fn worker(&self) -> Vec<Val> {
            vec![0; 2]
        }

        fn run_morsel(
            &self,
            scratch: &mut Vec<Val>,
            m: Morsel,
            ctx: &ExecCtx<'_>,
            emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
        ) {
            let mut watch = ctx.watch();
            for v in m.lo.max(0)..m.hi.min(self.n) {
                if watch.tick() {
                    return;
                }
                scratch[0] = v;
                scratch[1] = v;
                if emit(scratch).is_break() {
                    return;
                }
            }
        }
    }

    fn tile(bounds: &[Val]) -> Vec<Morsel> {
        let mut lo = -1;
        let mut morsels = Vec::new();
        for &b in bounds {
            morsels.push(Morsel::new(lo, b));
            lo = b;
        }
        morsels.push(Morsel::new(lo, POS_INF));
        morsels
    }

    #[test]
    fn counts_add_up_across_workers() {
        let source = Iota { n: 1000 };
        let morsels = tile(&[100, 300, 301, 999]);
        for threads in [1, 2, 4, 8] {
            let mut sink = CountSink::new();
            let report = drive(&source, &morsels, threads, &mut sink);
            assert_eq!(sink.rows(), 1000, "threads {threads}");
            assert_eq!(report.rows, 1000);
            assert_eq!(report.morsels, 5);
            assert_eq!(report.morsels_run, 5);
        }
    }

    /// [`Iota`] counting its rows into its worker's counters, with the largest
    /// morsel's rows as the high-water mark.
    struct CountedIota(Iota);

    impl MorselSource for CountedIota {
        type Worker = (Vec<Val>, Counters);

        fn worker(&self) -> Self::Worker {
            (self.0.worker(), Counters::default())
        }

        fn run_morsel(
            &self,
            (scratch, counters): &mut Self::Worker,
            m: Morsel,
            ctx: &ExecCtx<'_>,
            emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
        ) {
            let mut rows = 0;
            self.0.run_morsel(scratch, m, ctx, &mut |row| {
                rows += 1;
                emit(row)
            });
            counters.merge(Counters {
                results: rows,
                peak_intermediate: rows,
                ..Counters::default()
            });
        }

        fn counters(&self, (_, counters): &Self::Worker) -> Counters {
            *counters
        }
    }

    #[test]
    fn the_report_sums_every_workers_counters() {
        let source = CountedIota(Iota { n: 1000 });
        let morsels = tile(&[100, 300, 301, 999]);
        for threads in [1, 2, 4] {
            let mut sink = CountSink::new();
            let report = drive(&source, &morsels, threads, &mut sink);
            let expected =
                Counters { results: 1000, peak_intermediate: 698, ..Counters::default() };
            assert_eq!(report.counters, expected, "threads {threads}");
        }
        // A source without counters reports none.
        let report = drive(&Iota { n: 1000 }, &morsels, 2, &mut CountSink::new());
        assert_eq!(report.counters, Counters::default());
    }

    #[test]
    fn collect_preserves_the_serial_emission_order() {
        let source = Iota { n: 200 };
        let morsels = tile(&[13, 50, 51, 120, 180]);
        let expected: Vec<Vec<Val>> = (0..200).map(|v| vec![v, v]).collect();
        for threads in [2, 7] {
            let mut sink = CollectSink::new();
            drive(&source, &morsels, threads, &mut sink);
            assert_eq!(sink.into_rows(), expected, "threads {threads}");
        }
    }

    #[test]
    fn first_k_is_the_serial_prefix_and_skips_trailing_morsels() {
        let source = Iota { n: 10_000 };
        let morsels = tile(&(1..100).map(|i| i * 100).collect::<Vec<_>>());
        let mut sink = FirstK::new(7);
        let report = drive(&source, &morsels, 4, &mut sink);
        assert_eq!(sink.into_rows(), (0..7).map(|v| vec![v, v]).collect::<Vec<_>>());
        assert!(
            report.morsels_run < report.morsels,
            "early termination must leave morsels unclaimed ({report:?})"
        );
    }

    #[test]
    fn exists_stops_early_on_any_row() {
        let source = Iota { n: 1_000_000 };
        let morsels = tile(&(1..200).map(|i| i * 5000).collect::<Vec<_>>());
        let mut sink = ExistsSink::new();
        let report = drive(&source, &morsels, 8, &mut sink);
        assert!(sink.found());
        assert!(report.morsels_run <= report.morsels);
    }

    #[test]
    fn empty_domain_yields_nothing() {
        let source = Iota { n: 0 };
        let morsels = tile(&[10]);
        let mut sink = CollectSink::new();
        let report = drive(&source, &morsels, 4, &mut sink);
        assert!(sink.rows().is_empty());
        assert_eq!(report.rows, 0);
        assert_eq!(report.morsels_run, 2);
    }

    #[test]
    fn more_threads_than_morsels_is_fine() {
        let source = Iota { n: 50 };
        let mut sink = CountSink::new();
        let report = drive(&source, &[Morsel::whole_axis()], 16, &mut sink);
        assert_eq!(sink.rows(), 50);
        assert_eq!(report.threads, 1, "threads are clamped to the morsel count");
    }

    #[test]
    fn cancelled_token_surfaces_as_a_typed_error() {
        let source = Iota { n: 100_000 };
        let morsels = tile(&[50_000]);
        let token = CancelToken::new();
        token.cancel();
        let budget = QueryBudget::new().with_cancel_token(token);
        let monitor = ExecMonitor::new(&budget);
        let mut sink = CountSink::new();
        let err = try_drive(&source, &morsels, 2, &mut sink, &monitor).unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn row_budget_aborts_the_run() {
        let source = Iota { n: 10_000 };
        let morsels = tile(&[2000, 4000, 6000, 8000]);
        let budget = QueryBudget::new().with_max_rows(10);
        let monitor = ExecMonitor::new(&budget);
        let mut sink = CollectSink::new();
        let err = try_drive(&source, &morsels, 4, &mut sink, &monitor).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");
    }

    #[test]
    fn counting_runs_see_the_row_budget_row_by_row() {
        // Under a row cap a counting sink takes the row path, so the budget trips
        // at the row that overruns it: one worker stops at exactly cap + 1, and
        // each of several workers overshoots by at most the row it was delivering.
        let source = Iota { n: 10_000 };
        let morsels = tile(&(1..10).map(|i| i * 1000).collect::<Vec<_>>());
        let budget = QueryBudget::new().with_max_rows(10);
        for threads in [1u64, 4] {
            let monitor = ExecMonitor::new(&budget);
            let mut sink = CountSink::new();
            match try_drive(&source, &morsels, threads as usize, &mut sink, &monitor) {
                Err(ExecError::BudgetExceeded { rows, budget: 10 }) => {
                    assert!((11..=10 + threads).contains(&rows), "threads {threads}: {rows}");
                }
                other => panic!("expected a budget abort, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread_and_feeds_the_sink_directly() {
        /// Records the thread its morsels ran on.
        struct Here(Mutex<Vec<std::thread::ThreadId>>);
        impl MorselSource for Here {
            type Worker = ();
            fn worker(&self) {}
            fn run_morsel(
                &self,
                _w: &mut (),
                m: Morsel,
                ctx: &ExecCtx<'_>,
                emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
            ) {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(std::thread::current().id());
                assert!(
                    ctx.watch().is_inert(),
                    "an unlimited monitor hands one worker an inert watch"
                );
                for v in m.lo.max(0)..m.hi.min(100) {
                    if emit(&[v]).is_break() {
                        return;
                    }
                }
            }
        }
        let source = Here(Mutex::new(Vec::new()));
        let morsels = tile(&[10, 20]);
        // An arbitrary serial sink that breaks on its first row sees exactly that
        // row: nothing is buffered in a shard first, and no later morsel runs.
        let mut seen = Vec::new();
        let mut sink = crate::psink::Ordered::new(|row: &[Val]| {
            seen.push(row.to_vec());
            ControlFlow::Break(())
        });
        let report = drive(&source, &morsels, 1, &mut sink);
        assert_eq!(seen, vec![vec![0]]);
        assert_eq!((report.threads, report.rows, report.morsels_run), (1, 1, 1));
        let ran_on = source.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(ran_on, vec![std::thread::current().id()]);
    }

    #[test]
    fn worker_panic_is_caught_and_typed() {
        struct Bomb;
        impl MorselSource for Bomb {
            type Worker = ();
            fn worker(&self) {}
            fn run_morsel(
                &self,
                _w: &mut (),
                m: Morsel,
                _ctx: &ExecCtx<'_>,
                _emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
            ) {
                if m.lo >= 10 {
                    panic!("engine bug at {}", m.lo);
                }
            }
        }
        let morsels = tile(&[10, 20, 30]);
        let monitor = ExecMonitor::unlimited();
        let mut sink = CollectSink::new();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = try_drive(&Bomb, &morsels, 2, &mut sink, &monitor);
        std::panic::set_hook(prev);
        match result {
            Err(ExecError::WorkerPanicked { payload }) => {
                assert!(payload.contains("engine bug"), "{payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn morsel_claim_failpoints_fire_in_the_driver() {
        let source = Iota { n: 1000 };
        let morsels = tile(&[250, 500, 750]);
        let fp = Arc::new(FailpointRegistry::new());
        fp.arm_after(sites::MORSEL_CLAIM, FailAction::Trip, 1, 1);
        let budget = QueryBudget::new().with_failpoints(fp.clone());
        let monitor = ExecMonitor::new(&budget);
        let mut sink = CountSink::new();
        let err = try_drive(&source, &morsels, 1, &mut sink, &monitor).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }));
        assert_eq!(fp.fired().as_deref(), Some(sites::MORSEL_CLAIM));
    }

    #[test]
    fn counting_path_honors_the_stop_flag_inside_a_single_morsel() {
        // One huge morsel on the COUNT_ONLY path: only the in-engine watch can see
        // the cancel, so a bounded number of ticks later the run must abort.
        let source = Iota { n: Val::MAX };
        let morsels = [Morsel::whole_axis()];
        let token = CancelToken::new();
        let budget = QueryBudget::new().with_cancel_token(token.clone());
        let monitor = ExecMonitor::new(&budget);
        let mut sink = CountSink::new();
        // Cancel once the single morsel is already running: only the in-engine
        // watch can observe it (the morsel would otherwise run for years).
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            token.cancel();
        });
        let err = try_drive(&source, &morsels, 1, &mut sink, &monitor).unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err, ExecError::Cancelled);
    }

    /// A sink whose first `absorb` panics — *while the worker holds the merger
    /// mutex*, poisoning it mid-run.
    struct PoisonOnFirstAbsorb {
        inner: CollectSink,
        armed: bool,
    }

    impl crate::sink::Sink for PoisonOnFirstAbsorb {
        fn push(&mut self, row: &[Val]) -> ControlFlow<()> {
            crate::sink::Sink::push(&mut self.inner, row)
        }
    }

    impl ParallelSink for PoisonOnFirstAbsorb {
        type Shard = <CollectSink as ParallelSink>::Shard;

        fn shard(&self) -> Self::Shard {
            self.inner.shard()
        }

        fn absorb(&mut self, shard: Self::Shard) -> (u64, ControlFlow<()>) {
            if self.armed {
                self.armed = false;
                panic!("absorb dies while holding the merger lock");
            }
            self.inner.absorb(shard)
        }
    }

    /// The poison-tolerance contract at the shard-merge mutex: an `absorb` that
    /// panics poisons the merger lock mid-run, the fault surfaces as a typed
    /// [`ExecError::WorkerPanicked`], and a fresh run over the same source is
    /// byte-identical to the serial answer — nothing sticks.
    #[test]
    fn a_poisoned_merger_surfaces_worker_panicked_and_reruns_byte_identical() {
        let source = Iota { n: 400 };
        let morsels = tile(&[100, 200, 300]);
        let budget = QueryBudget::new();
        let monitor = ExecMonitor::new(&budget);
        let mut sink = PoisonOnFirstAbsorb { inner: CollectSink::new(), armed: true };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = try_drive(&source, &morsels, 4, &mut sink, &monitor);
        std::panic::set_hook(prev);
        match result {
            Err(ExecError::WorkerPanicked { payload }) => {
                assert!(payload.contains("merger lock"), "{payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }

        let mut serial = CollectSink::new();
        drive(&source, &morsels, 1, &mut serial);
        let expected = serial.into_rows();
        let rerun_monitor = ExecMonitor::new(&budget);
        let mut rerun = CollectSink::new();
        let report = try_drive(&source, &morsels, 4, &mut rerun, &rerun_monitor)
            .expect("the fault must not stick to source or morsels");
        assert_eq!(rerun.into_rows(), expected, "byte-identical after the poisoned run");
        assert_eq!(report.rows, 400);
    }
}
