//! # gj-runtime
//!
//! The morsel-driven parallel execution runtime shared by every engine in this
//! workspace — the generalisation of the paper's Section 4.10 multi-threading
//! (partition the output space on the first GAO attribute, work-steal jobs from a
//! shared pool) from a count-only Minesweeper special case into infrastructure that
//! LFTJ, Minesweeper and any future engine drive through one protocol.
//!
//! The runtime is built from four pieces:
//!
//! * [`morsel`] — partitioning of the first GAO attribute into [`Morsel`]s
//!   (half-open value ranges that tile the output space) at equal quantiles of
//!   estimated work, a key weighing its trie fanout squared — on a power-law graph
//!   the costliest of 16 LFTJ morsels fell from 59–77 % of the work to 12–18 %;
//! * [`queue`] — a std-only [`JobQueue`]: workers claim the next unclaimed morsel
//!   with a single `fetch_add` (the same work-stealing behaviour the paper gets from
//!   the LogicBlox job pool), plus a shared stop flag for early termination;
//! * [`sink`] — the unified [`Sink`] execution protocol (rows in,
//!   [`ControlFlow`](std::ops::ControlFlow) out) and its concrete sinks, shared by
//!   serial and parallel execution;
//! * [`psink`] / [`drive()`] — the shard-and-merge layer: every [`ParallelSink`]
//!   hands out one [`ShardSink`] per morsel, workers fill shards independently, and
//!   the merge absorbs them **in morsel order**, which makes the parallel row stream
//!   identical to the serial emission order (not merely a permutation of it).
//!
//! Engines plug in by implementing [`MorselSource`]: a range-restricted execution of
//! one morsel, plus an optional counting fast path. `gj-lftj` restricts the root
//! leapfrog intersection, `gj-minesweeper` restricts the CDS frontier; the runtime
//! never needs to know how a search is actually performed.
//!
//! Per-worker engine state lives for the whole worker loop and ends with it:
//! when the loop ends the driver reads the worker's [`Counters`]
//! ([`MorselSource::counters`]), sums them into the run's [`DriveReport`] and
//! drops the worker. Nothing an engine builds in a worker outlives one execution.
//!
//! Early termination propagates across workers: a sink that answers
//! [`ControlFlow::Break`](std::ops::ControlFlow::Break) during the merge (`first_k`
//! reached, `exists` answered) trips the queue's stop flag, workers stop claiming
//! morsels, and in-flight morsels abort at their next row.
//!
//! Execution is fault-tolerant end to end: [`try_drive`] threads an [`ExecCtx`]
//! (budget monitor + stop flag) into every [`MorselSource`] call, engines poll it
//! at a coarse stride through an [`ExecWatch`], and worker panics are caught at
//! the worker boundary and surfaced as typed [`ExecError`]s — see [`exec`].
//!
//! ```
//! use gj_runtime::{drive, CountSink, ExecCtx, JobQueue, Morsel, MorselSource, Val};
//! use std::ops::ControlFlow;
//!
//! /// A toy engine: "outputs" every value of its domain, range-restricted.
//! struct Iota(Val);
//! impl MorselSource for Iota {
//!     type Worker = ();
//!     fn worker(&self) {}
//!     fn run_morsel(
//!         &self,
//!         _w: &mut (),
//!         m: Morsel,
//!         ctx: &ExecCtx<'_>,
//!         emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
//!     ) {
//!         let mut watch = ctx.watch();
//!         for v in m.lo.max(0)..m.hi.min(self.0) {
//!             if watch.tick() || emit(&[v]).is_break() {
//!                 return;
//!             }
//!         }
//!     }
//! }
//!
//! let morsels = [Morsel::new(-1, 40), Morsel::new(40, 70), Morsel::new(70, Val::MAX)];
//! let mut count = CountSink::new();
//! let report = drive(&Iota(100), &morsels, 3, &mut count);
//! assert_eq!(count.rows(), 100);
//! assert_eq!(report.morsels, 3);
//! let _ = JobQueue::new(0);
//! ```

pub mod counters;
pub mod drive;
pub mod exec;
pub mod morsel;
pub mod psink;
pub mod queue;
pub mod sink;
pub mod workers;

pub use counters::Counters;
pub use drive::{drive, try_drive, DriveReport, MorselSource};
pub use exec::{
    panic_payload, CancelToken, ExecCtx, ExecError, ExecMonitor, ExecWatch, QueryBudget,
    CHECK_STRIDE,
};
pub use morsel::{partition_first_attribute, partition_values, Morsel};
pub use psink::{Ordered, ParallelSink, ShardSink};
pub use queue::JobQueue;
pub use sink::{CollectSink, CountSink, ExistsSink, FirstK, Sink};
pub use workers::scoped_workers;

/// Re-exported value type, so engine-independent callers need only this crate.
pub use gj_storage::Val;
