//! LFTJ as a [`MorselSource`]: the engine half of parallel LeapFrog TrieJoin.
//!
//! The `gj-runtime` morsel driver partitions the first GAO attribute into ranges;
//! this adapter runs the query restricted to each range with
//! [`run_range_ctx`](LftjExecutor::run_range_ctx) and emits each output binding re-ordered
//! into **variable-id order** (the sink protocol's row shape). Because the executor
//! emits in lexicographic GAO order and morsels tile the first attribute in
//! increasing order, the runtime's ordered merge reproduces the exact serial
//! emission stream.
//!
//! A counting sink takes [`count_morsel`](MorselSource::count_morsel), which runs
//! [`count_range_ctx`](LftjExecutor::count_range_ctx): a GAO suffix of one atom
//! per position is multiplied out from range sizes, and the last GAO level is
//! counted from the loop above it, without a search or an emitted row, by one
//! pass against bitmaps of the slices that loop reuses (a slice gets one on the
//! use that pays for it, never larger than its trie level). Row caps, `FirstK`
//! and collects take the row path.
//!
//! Per-worker state mirrors Minesweeper's `MsWorker` pattern: each worker thread
//! builds **one** [`LftjExecutor`] and carries it
//! across every morsel it claims — the trie iterators, per-depth cursor buffers,
//! filter tables, the split of contiguous root levels out of the leapfrog
//! rotation and the tail (fixed at construction: the indexes do not change) and
//! the bitmaps of reused slices (never more words than their trie level has
//! entries) are reused instead of being
//! rebuilt per job — plus the variable-order scratch row.
//! An ablation test below checks that the reused executor is behaviourally
//! identical (same rows, same per-morsel result and exploration counts) to
//! building a fresh executor per morsel.
//!
//! Each worker accumulates the [`Counters`] of the morsels it ran; the driver
//! sums every worker's into its report, so parallel executions report the same
//! `bindings_explored` count serial ones do.

use crate::executor::LftjExecutor;
use gj_query::BoundQuery;
use gj_runtime::{Counters, ExecCtx, Morsel, MorselSource};
use gj_storage::Val;
use std::ops::ControlFlow;

/// A bound query exposed to the parallel runtime through LFTJ.
#[derive(Debug)]
pub struct LftjMorsels<'a> {
    bq: &'a BoundQuery,
}

/// Per-worker state of [`LftjMorsels`]: one executor reused across every claimed
/// morsel, the GAO → variable-id scratch row, and the worker's accumulated
/// counters.
pub struct LftjWorker<'a> {
    exec: LftjExecutor<'a>,
    scratch: Vec<Val>,
    counters: Counters,
}

impl<'a> LftjMorsels<'a> {
    /// Wraps a bound query for morsel-driven execution.
    pub fn new(bq: &'a BoundQuery) -> Self {
        LftjMorsels { bq }
    }
}

impl<'a> MorselSource for LftjMorsels<'a> {
    type Worker = LftjWorker<'a>;

    fn worker(&self) -> LftjWorker<'a> {
        LftjWorker {
            exec: LftjExecutor::new(self.bq),
            scratch: vec![0; self.bq.num_vars()],
            counters: Counters::default(),
        }
    }

    fn run_morsel(
        &self,
        worker: &mut LftjWorker<'a>,
        morsel: Morsel,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) {
        let gao = &self.bq.gao;
        let LftjWorker { exec, scratch, counters } = worker;
        counters.merge(exec.run_range_ctx(morsel.lo, morsel.hi, ctx, &mut |binding| {
            for (pos, &v) in gao.iter().enumerate() {
                scratch[v] = binding[pos];
            }
            emit(scratch)
        }));
    }

    fn count_morsel(&self, worker: &mut LftjWorker<'a>, morsel: Morsel, ctx: &ExecCtx<'_>) -> u64 {
        let stats = worker.exec.count_range_ctx(morsel.lo, morsel.hi, ctx);
        worker.counters.merge(stats);
        stats.results
    }

    fn counters(&self, worker: &LftjWorker<'a>) -> Counters {
        worker.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{CatalogQuery, Instance};
    use gj_runtime::{drive, partition_first_attribute, CollectSink, CountSink};
    use gj_storage::Graph;

    fn bound(q: &gj_query::Query) -> (Instance, gj_query::Query) {
        let g = Graph::new_undirected(8, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        for (i, step) in [2usize, 3, 5, 4].iter().enumerate() {
            let name = format!("v{}", i + 1);
            inst.add_relation(name, gj_storage::Relation::from_values((0..8).step_by(*step)));
        }
        (inst, q.clone())
    }

    /// The serial emission, re-ordered into variable-id order.
    fn serial_rows(bq: &BoundQuery) -> Vec<Vec<Val>> {
        let mut rows = Vec::new();
        let all = Morsel::whole_axis();
        LftjExecutor::new(bq).run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |b| {
            rows.push(bq.binding_to_var_order(b));
            ControlFlow::Continue(())
        });
        rows
    }

    #[test]
    fn parallel_lftj_matches_serial_counts_and_order() {
        let (inst, q) = bound(&CatalogQuery::ThreeClique.query());
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let serial = crate::executor::count(&bq);
        let source = LftjMorsels::new(&bq);
        let morsels = partition_first_attribute(&bq, 4);
        let mut count = CountSink::new();
        drive(&source, &morsels, 4, &mut count);
        assert_eq!(count.rows(), serial);
        let mut collect = CollectSink::new();
        drive(&source, &morsels, 2, &mut collect);
        assert_eq!(collect.into_rows(), serial_rows(&bq));
    }

    /// Ablation: one executor reused across morsels (the worker behaviour) must be
    /// indistinguishable — per-morsel result counts, exploration counts, and the
    /// emitted rows — from the historical build-one-executor-per-morsel behaviour.
    #[test]
    fn reused_executor_matches_per_morsel_executors() {
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
            let (inst, q) = bound(&cq.query());
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let morsels = partition_first_attribute(&bq, 8);
            assert!(morsels.len() > 1, "the ablation needs a real partition");
            let mut reused = LftjExecutor::new(&bq);
            let mut total = 0;
            for m in &morsels {
                let mut fresh_rows: Vec<Val> = Vec::new();
                let fresh = LftjExecutor::new(&bq).run_range_ctx(
                    m.lo,
                    m.hi,
                    &ExecCtx::none(),
                    &mut |binding| {
                        fresh_rows.extend_from_slice(binding);
                        ControlFlow::Continue(())
                    },
                );
                let mut reused_rows: Vec<Val> = Vec::new();
                let stats = reused.run_range_ctx(m.lo, m.hi, &ExecCtx::none(), &mut |binding| {
                    reused_rows.extend_from_slice(binding);
                    ControlFlow::Continue(())
                });
                assert_eq!(stats, fresh, "{} morsel {m:?}", q.name);
                assert_eq!(reused_rows, fresh_rows, "{} morsel {m:?}", q.name);
                total += stats.results;
            }
            assert_eq!(total, crate::executor::count(&bq), "{}", q.name);
        }
    }

    /// Signed domains: the morsel tiling starts at NEG_INF, so rows with negative
    /// first-attribute values are enumerated by exactly one morsel and the
    /// parallel rows stay byte-identical to the serial emission.
    #[test]
    fn negative_domains_partition_without_loss() {
        let mut inst = Instance::new();
        inst.add_relation("r", gj_storage::Relation::from_pairs((-10..10).map(|i| (i, i + 1))));
        let q = gj_query::QueryBuilder::new("2-path")
            .atom("r", &["a", "b"])
            .atom("r", &["b", "c"])
            .build();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let serial = crate::executor::count(&bq);
        assert_eq!(serial, 19, "b ranges over -9..=9");
        let morsels = partition_first_attribute(&bq, 6);
        assert!(morsels.len() > 1, "the test needs a real partition");
        assert_eq!(morsels[0].lo, gj_storage::NEG_INF);
        let mut sink = CollectSink::new();
        drive(&LftjMorsels::new(&bq), &morsels, 4, &mut sink);
        let expected = serial_rows(&bq);
        assert_eq!(expected.len() as u64, serial);
        assert_eq!(sink.into_rows(), expected);
    }

    /// The driver sums the workers' counters: the parallel exploration count
    /// equals the sum of the serial per-morsel counts.
    #[test]
    fn the_drive_sums_bindings_explored_over_workers() {
        let (inst, q) = bound(&CatalogQuery::ThreeClique.query());
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let morsels = partition_first_attribute(&bq, 6);
        assert!(morsels.len() > 1, "the test needs a real partition");
        let expected: u64 = morsels
            .iter()
            .map(|m| {
                LftjExecutor::new(&bq)
                    .run_range_ctx(m.lo, m.hi, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()))
                    .bindings_explored
            })
            .sum();
        for threads in [1, 3] {
            let mut sink = CountSink::new();
            let report = drive(&LftjMorsels::new(&bq), &morsels, threads, &mut sink);
            assert_eq!(report.counters.bindings_explored, expected, "threads {threads}");
            assert_eq!(report.counters.results, sink.rows(), "threads {threads}");
        }
    }

    /// Early termination inside one morsel must not poison the reused executor for
    /// the next morsel.
    #[test]
    fn reuse_survives_early_termination() {
        let (inst, q) = bound(&CatalogQuery::ThreePath.query());
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let morsels = partition_first_attribute(&bq, 6);
        let mut exec = LftjExecutor::new(&bq);
        // Break immediately in the first morsel ...
        let (lo, hi) = (morsels[0].lo, morsels[0].hi);
        let stats = exec.run_range_ctx(lo, hi, &ExecCtx::none(), &mut |_| ControlFlow::Break(()));
        assert!(stats.results <= 1);
        // ... then run every morsel to completion: totals must still be exact.
        let total: u64 = morsels
            .iter()
            .map(|m| {
                exec.run_range_ctx(m.lo, m.hi, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()))
                    .results
            })
            .sum();
        assert_eq!(total, crate::executor::count(&bq));
    }
}
