//! The shard-and-merge layer over the [`Sink`] protocol.
//!
//! Parallel execution cannot push rows from many workers into one `&mut` sink, so a
//! [`ParallelSink`] splits the work in two: each morsel gets a private
//! [`ShardSink`] that a single worker fills without any synchronisation, and the
//! driver *absorbs* completed shards back into the sink **in morsel order**. Because
//! morsels tile the first GAO attribute in increasing order and engines emit each
//! morsel in their serial order, the absorbed row stream is identical to the serial
//! emission — `par_collect` returns exactly what `collect` returns, and `first_k`
//! under parallel execution is still the serial prefix.
//!
//! Early termination propagates in both directions:
//!
//! * a shard answering `Break` stops its own morsel (e.g. a `first_k` shard that
//!   already holds `k` rows — no morsel ever needs more);
//! * [`ParallelSink::absorb`] answering `Break` (the merged prefix satisfied the
//!   sink) trips the queue's stop flag via the driver, so unclaimed morsels are
//!   never run;
//! * a shard reporting [`wants_global_stop`](ShardSink::wants_global_stop) stops
//!   every worker immediately — `exists` needs *any* row, not the first one, so it
//!   must not wait for the morsel-order merge.
//!
//! [`CountSink`] additionally opts into the counting fast path
//! ([`ParallelSink::COUNT_ONLY`]): the driver asks the engine for per-morsel counts
//! ([`MorselSource::count_morsel`](crate::MorselSource)) and no row is ever
//! materialised (under a row budget it takes the row path instead, so the budget is
//! accounted row by row). Arbitrary user sinks run in parallel through [`Ordered`],
//! which buffers each morsel's rows and replays them in serial order.
//!
//! With a single worker none of the shard machinery is used: that worker's emission
//! order is the serial order, so the driver pushes its rows straight into the sink
//! ([`Sink::push`]) and only hands a count through a shard.

use crate::sink::{CollectSink, CountSink, ExistsSink, FirstK, Sink};
use gj_storage::Val;
use std::ops::ControlFlow;

/// A sink that can be driven by the parallel morsel runtime.
///
/// The driver calls [`shard`](Self::shard) once per morsel up front, hands each
/// shard to the worker that claims the morsel, and then [`absorb`](Self::absorb)s
/// completed shards in morsel order (never skipping one, never out of order).
pub trait ParallelSink: Sink + Send {
    /// Per-morsel accumulator, filled by exactly one worker at a time.
    type Shard: ShardSink;

    /// When `true`, the driver skips row emission entirely and feeds the engine's
    /// per-morsel counts to [`ShardSink::push_count`] instead — the zero
    /// materialisation path for counting sinks. A run whose budget caps rows is
    /// the exception: its rows are accounted one by one, so they arrive through
    /// [`push`](ShardSink::push) like any other sink's.
    const COUNT_ONLY: bool = false;

    /// Creates an empty shard for one morsel.
    fn shard(&self) -> Self::Shard;

    /// Merges one completed shard (in morsel order). Returns the number of rows
    /// delivered into the sink and whether the sink is satisfied
    /// ([`ControlFlow::Break`] stops the whole parallel run).
    fn absorb(&mut self, shard: Self::Shard) -> (u64, ControlFlow<()>);
}

/// The per-morsel half of a [`ParallelSink`]: a single-owner row accumulator.
pub trait ShardSink: Send {
    /// Receives one output row of the morsel; `Break` stops this morsel only.
    fn push(&mut self, row: &[Val]) -> ControlFlow<()>;

    /// Receives a whole morsel's output count at once (counting fast path; only
    /// called when the owning sink sets [`ParallelSink::COUNT_ONLY`]).
    fn push_count(&mut self, _rows: u64) {
        // gj-lint: allow(no-panic-in-engines) — protocol guard: COUNT_ONLY sinks must override; silently dropping counts would corrupt results
        unreachable!("push_count is only driven for COUNT_ONLY parallel sinks");
    }

    /// Whether every other worker should stop too, before the ordered merge reaches
    /// this shard (`exists`-style sinks: any row anywhere answers the query).
    fn wants_global_stop(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------------

/// Shard of [`CountSink`]: a plain counter.
#[derive(Debug, Default)]
pub struct CountShard {
    rows: u64,
}

impl ShardSink for CountShard {
    fn push(&mut self, _row: &[Val]) -> ControlFlow<()> {
        self.rows += 1;
        ControlFlow::Continue(())
    }

    fn push_count(&mut self, rows: u64) {
        self.rows += rows;
    }
}

/// Shard of the row-delivering sinks: rows stored in one flat buffer (no per-row
/// allocation on the worker side), optionally capped at `limit` rows.
#[derive(Debug)]
pub struct RowShard {
    buf: Vec<Val>,
    width: usize,
    rows: usize,
    limit: usize,
}

impl RowShard {
    /// A shard that accepts every row of its morsel.
    pub fn unbounded() -> Self {
        RowShard { buf: Vec::new(), width: 0, rows: 0, limit: usize::MAX }
    }

    /// A shard that stops its morsel after `limit` rows — a morsel can never
    /// contribute more than `limit` rows to a `first_k(limit)` answer.
    pub fn capped(limit: usize) -> Self {
        RowShard { buf: Vec::new(), width: 0, rows: 0, limit }
    }

    /// The buffered rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Val]> {
        // `width` is 0 only while no row was pushed; chunks_exact(0) would panic.
        self.buf.chunks_exact(self.width.max(1)).take(self.rows)
    }
}

impl ShardSink for RowShard {
    fn push(&mut self, row: &[Val]) -> ControlFlow<()> {
        if self.rows < self.limit {
            debug_assert!(self.width == 0 || self.width == row.len());
            self.width = row.len();
            self.buf.extend_from_slice(row);
            self.rows += 1;
        }
        if self.rows < self.limit {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

/// Shard of [`ExistsSink`]: one bit, with the global-stop hint set as soon as any
/// row is seen.
#[derive(Debug, Default)]
pub struct ExistsShard {
    found: bool,
}

impl ShardSink for ExistsShard {
    fn push(&mut self, _row: &[Val]) -> ControlFlow<()> {
        self.found = true;
        ControlFlow::Break(())
    }

    fn wants_global_stop(&self) -> bool {
        self.found
    }
}

// ---------------------------------------------------------------------------------
// ParallelSink implementations
// ---------------------------------------------------------------------------------

impl ParallelSink for CountSink {
    type Shard = CountShard;
    const COUNT_ONLY: bool = true;

    fn shard(&self) -> CountShard {
        CountShard::default()
    }

    fn absorb(&mut self, shard: CountShard) -> (u64, ControlFlow<()>) {
        self.rows += shard.rows;
        (shard.rows, ControlFlow::Continue(()))
    }
}

/// Replays a shard's buffered rows into a serial sink, stopping at the sink's break.
fn replay(sink: &mut impl Sink, shard: &RowShard) -> (u64, ControlFlow<()>) {
    let mut delivered = 0;
    for row in shard.iter() {
        delivered += 1;
        if sink.push(row).is_break() {
            return (delivered, ControlFlow::Break(()));
        }
    }
    (delivered, ControlFlow::Continue(()))
}

impl ParallelSink for CollectSink {
    type Shard = RowShard;

    fn shard(&self) -> RowShard {
        RowShard::unbounded()
    }

    fn absorb(&mut self, shard: RowShard) -> (u64, ControlFlow<()>) {
        replay(self, &shard)
    }
}

impl ParallelSink for FirstK {
    type Shard = RowShard;

    fn shard(&self) -> RowShard {
        RowShard::capped(self.limit)
    }

    fn absorb(&mut self, shard: RowShard) -> (u64, ControlFlow<()>) {
        replay(self, &shard)
    }
}

impl ParallelSink for ExistsSink {
    type Shard = ExistsShard;

    fn shard(&self) -> ExistsShard {
        ExistsShard::default()
    }

    fn absorb(&mut self, shard: ExistsShard) -> (u64, ControlFlow<()>) {
        if shard.found {
            self.found = true;
            (1, ControlFlow::Break(()))
        } else {
            (0, ControlFlow::Continue(()))
        }
    }
}

/// Adapter that makes *any* serial [`Sink`] parallel-capable: each morsel's rows are
/// buffered in a [`RowShard`] and replayed into the inner sink in morsel order, so
/// the inner sink observes exactly the serial emission order.
#[derive(Debug, Default)]
pub struct Ordered<S>(pub S);

impl<S> Ordered<S> {
    /// Wraps a serial sink for parallel execution.
    pub fn new(sink: S) -> Self {
        Ordered(sink)
    }

    /// Consumes the adapter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.0
    }
}

impl<S: Sink> Sink for Ordered<S> {
    fn push(&mut self, binding: &[Val]) -> ControlFlow<()> {
        self.0.push(binding)
    }
}

impl<S: Sink + Send> ParallelSink for Ordered<S> {
    type Shard = RowShard;

    fn shard(&self) -> RowShard {
        RowShard::unbounded()
    }

    fn absorb(&mut self, shard: RowShard) -> (u64, ControlFlow<()>) {
        replay(&mut self.0, &shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_shards_store_rows_flat_and_replay_them() {
        let mut shard = RowShard::unbounded();
        assert!(shard.push(&[1, 2]).is_continue());
        assert!(shard.push(&[3, 4]).is_continue());
        let rows: Vec<Vec<Val>> = shard.iter().map(<[Val]>::to_vec).collect();
        assert_eq!(rows, vec![vec![1, 2], vec![3, 4]]);
        let mut collect = CollectSink::new();
        let (delivered, flow) = collect.absorb(shard);
        assert_eq!(delivered, 2);
        assert!(flow.is_continue());
        assert_eq!(collect.rows().len(), 2);
    }

    #[test]
    fn capped_shards_break_their_morsel_at_the_limit() {
        let mut shard = RowShard::capped(2);
        assert!(shard.push(&[1]).is_continue());
        assert!(shard.push(&[2]).is_break());
        assert!(shard.push(&[3]).is_break());
        assert_eq!(shard.iter().count(), 2);
        // Absorbing two shards of 2 into first_k(3) stops mid-second-shard.
        let mut first = FirstK::new(3);
        let mut a = RowShard::capped(3);
        let mut b = RowShard::capped(3);
        for v in [1, 2] {
            let _ = a.push(&[v]);
        }
        for v in [3, 4] {
            let _ = b.push(&[v]);
        }
        assert!(first.absorb(a).1.is_continue());
        let (delivered, flow) = first.absorb(b);
        assert_eq!(delivered, 1);
        assert!(flow.is_break());
        assert_eq!(first.into_rows(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn count_shards_take_whole_morsel_counts() {
        let mut sink = CountSink::new();
        let mut shard = sink.shard();
        shard.push_count(41);
        assert!(shard.push(&[7]).is_continue());
        let (rows, flow) = sink.absorb(shard);
        assert_eq!(rows, 42);
        assert!(flow.is_continue());
        assert_eq!(sink.rows(), 42);
        const { assert!(CountSink::COUNT_ONLY) };
    }

    #[test]
    fn exists_shards_request_a_global_stop() {
        let mut sink = ExistsSink::new();
        let mut shard = sink.shard();
        assert!(!shard.wants_global_stop());
        assert!(shard.push(&[1]).is_break());
        assert!(shard.wants_global_stop());
        let (_, flow) = sink.absorb(shard);
        assert!(flow.is_break());
        assert!(sink.found());
        // An empty shard leaves the sink unsatisfied.
        let mut sink = ExistsSink::new();
        let empty = sink.shard();
        assert!(sink.absorb(empty).1.is_continue());
        assert!(!sink.found());
    }

    #[test]
    fn ordered_wraps_any_serial_sink() {
        let mut seen = Vec::new();
        {
            let mut ordered = Ordered::new(|b: &[Val]| {
                seen.push(b.to_vec());
                ControlFlow::Continue(())
            });
            let mut shard = ordered.shard();
            let _ = shard.push(&[5, 6]);
            assert!(ordered.absorb(shard).1.is_continue());
        }
        assert_eq!(seen, vec![vec![5, 6]]);
    }
}
