//! Multi-threaded Minesweeper (Section 4.10 of the paper), on the shared runtime.
//!
//! The output space is partitioned into `p = threads × granularity` morsels by
//! splitting the value range of the first GAO attribute between values present in
//! the data, at equal quantiles of estimated work, a first-level key weighing its
//! trie fanout squared (`gj_runtime::partition_first_attribute` — lifted from this
//! module into the runtime so LFTJ shares it). Equal key counts left a power-law
//! graph's hubs, which have the lowest ids, in the first morsel. Morsels go into a
//! shared queue; worker threads repeatedly grab the next unclaimed one (a simple
//! form of work stealing — exactly the behaviour the paper gets from the LogicBlox
//! job pool). The granularity factor `f` trades the work-stealing benefit around
//! what the work estimate misses against per-job overhead; the paper uses `f = 1`
//! for acyclic and `f = 8` for cyclic queries (Table 5).
//!
//! An [`MsPlan`] holds a bound query, its configuration and the idle executors
//! of its last drive; [`MsPlan::morsels`] is Minesweeper's [`MorselSource`]. Each
//! worker thread checks **one** [`MinesweeperExecutor`] out of the plan when it
//! claims its first morsel and carries it across every morsel it claims —
//! [`run_range_ctx`](MinesweeperExecutor::run_range_ctx) recycles the CDS node
//! arena and keeps the probers' Idea 4 gap memos warm, instead of paying a fresh
//! executor (and a fresh CDS) per job. When the worker ends, its executor goes back
//! to the plan, so the next drive starts with the node arena and every point list
//! already grown: a warm execution allocates nothing. A checked-out executor
//! forgets its memos and probe cursors, so every execution counts exactly what a
//! fresh executor would. The plan owns the query and configuration its executors
//! were built for, so no drive can hand an executor another query's indexes. Each
//! worker accumulates the [`Counters`] of its morsels, and the driver sums every
//! worker's into its report, so parallel executions report the same engine
//! counters serial ones do.
//!
//! A serial Minesweeper execution in `gj-core` is this same source driven by one
//! worker over the single whole-axis morsel. A `PreparedQuery` keeps one
//! `MsPlan`, which therefore holds at most as many idle executors as its
//! executions ever ran workers at once. Use `PreparedQuery::par_count(threads)` in
//! `gj-core` for a parallel count, or drive [`MsPlan::morsels`] through
//! `gj_runtime::drive` directly.

use crate::engine::{MinesweeperExecutor, MsConfig};
use gj_query::BoundQuery;
use gj_runtime::{Counters, ExecCtx, Morsel, MorselSource};
use gj_storage::Val;
use std::ops::ControlFlow;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bound query prepared for Minesweeper: the query, its configuration, and the
/// idle executors the last drive's workers handed back (see the
/// [module docs](self)). Every executor in it was built for this query and
/// configuration. A clone starts with no idle executors.
pub struct MsPlan {
    bq: BoundQuery,
    config: MsConfig,
    idle: Mutex<Vec<MinesweeperExecutor>>,
}

impl MsPlan {
    /// A plan with no idle executors yet.
    pub fn new(bq: BoundQuery, config: MsConfig) -> Self {
        MsPlan { bq, config, idle: Mutex::default() }
    }

    /// The bound query.
    pub fn bound_query(&self) -> &BoundQuery {
        &self.bq
    }

    /// The engine configuration.
    pub fn config(&self) -> &MsConfig {
        &self.config
    }

    /// The plan as a [`MorselSource`] whose workers check executors out of the
    /// plan and hand them back when they end.
    pub fn morsels(&self) -> MsMorsels<'_> {
        MsMorsels { plan: self }
    }

    /// An idle executor with its memos forgotten, or a new one when none is idle.
    fn checkout(&self) -> MinesweeperExecutor {
        let idle = self.executors().pop();
        match idle {
            Some(mut exec) => {
                exec.forget_memos();
                exec
            }
            None => MinesweeperExecutor::new(&self.bq, self.config.clone()),
        }
    }

    /// The number of idle executors.
    pub(crate) fn idle(&self) -> usize {
        self.executors().len()
    }

    /// The idle list; an executor is pushed or popped whole, so a panic while
    /// the lock was held leaves a valid list behind.
    fn executors(&self) -> MutexGuard<'_, Vec<MinesweeperExecutor>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for MsPlan {
    fn clone(&self) -> Self {
        MsPlan::new(self.bq.clone(), self.config.clone())
    }
}

impl std::fmt::Debug for MsPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsPlan")
            .field("bq", &self.bq)
            .field("config", &self.config)
            .field("idle", &self.idle())
            .finish()
    }
}

/// Minesweeper as a [`MorselSource`] for the `gj-runtime` morsel driver, made by
/// [`MsPlan::morsels`].
///
/// Row emission re-orders bindings into **variable-id order** (the sink protocol's
/// row shape) and disables Idea 8 batch counting (a counting-only optimisation);
/// the counting fast path ([`MorselSource::count_morsel`]) keeps the configuration
/// exactly as given, multiplicities included.
#[derive(Debug, Clone, Copy)]
pub struct MsMorsels<'a> {
    plan: &'a MsPlan,
}

/// Per-worker state of [`MsMorsels`]: the executor checked out of the plan on
/// the worker's first morsel and returned to it when the worker ends, the
/// variable-order scratch row of the row path, and the worker's accumulated
/// counters.
pub struct MsWorker<'a> {
    plan: &'a MsPlan,
    exec: Option<MinesweeperExecutor>,
    scratch: Vec<Val>,
    counters: Counters,
}

impl Drop for MsWorker<'_> {
    fn drop(&mut self) {
        // A panic may have unwound through the executor mid-update: drop it.
        if let (Some(exec), false) = (self.exec.take(), std::thread::panicking()) {
            self.plan.executors().push(exec);
        }
    }
}

impl<'a> MorselSource for MsMorsels<'a> {
    type Worker = MsWorker<'a>;

    fn worker(&self) -> MsWorker<'a> {
        MsWorker { plan: self.plan, exec: None, scratch: Vec::new(), counters: Counters::default() }
    }

    fn run_morsel(
        &self,
        worker: &mut MsWorker<'a>,
        morsel: Morsel,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) {
        let gao = &self.plan.bq.gao;
        let MsWorker { exec, scratch, counters, .. } = worker;
        let exec = exec.get_or_insert_with(|| self.plan.checkout());
        // A row sink needs every output as its own binding.
        exec.set_batch_counting(false);
        scratch.resize(gao.len(), 0);
        counters.merge(exec.run_range_ctx(morsel.lo, morsel.hi, ctx, &mut |binding, _| {
            for (pos, &v) in gao.iter().enumerate() {
                scratch[v] = binding[pos];
            }
            emit(scratch)
        }));
    }

    fn count_morsel(&self, worker: &mut MsWorker<'a>, morsel: Morsel, ctx: &ExecCtx<'_>) -> u64 {
        let exec = worker.exec.get_or_insert_with(|| self.plan.checkout());
        exec.set_batch_counting(self.plan.config.idea8_batch_counting);
        let mut rows = 0;
        let stats = exec.run_range_ctx(morsel.lo, morsel.hi, ctx, &mut |_, multiplicity| {
            rows += multiplicity;
            ControlFlow::Continue(())
        });
        worker.counters.merge(stats);
        rows
    }

    fn counters(&self, worker: &MsWorker<'a>) -> Counters {
        worker.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{CatalogQuery, Instance};
    use gj_runtime::{drive, partition_first_attribute, CollectSink, CountSink};
    use gj_storage::{Graph, Relation};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_instance(seed: u64, n: u32, p: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let g = Graph::new_undirected(n as usize, edges);
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        inst.add_relation("v1", Relation::from_values((0..n as i64).step_by(3)));
        inst.add_relation("v2", Relation::from_values((0..n as i64).step_by(2)));
        inst
    }

    /// Drives a full parallel count through the runtime.
    fn par_count(bq: &BoundQuery, config: &MsConfig, threads: usize, parts: usize) -> u64 {
        let morsels = partition_first_attribute(bq, parts);
        let mut sink = CountSink::new();
        let plan = MsPlan::new(bq.clone(), config.clone());
        drive(&plan.morsels(), &morsels, threads, &mut sink);
        sink.rows()
    }

    #[test]
    fn parallel_count_matches_sequential_on_cyclic_query() {
        let inst = random_instance(11, 60, 0.12);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let sequential = crate::engine::count(&bq, &MsConfig::default());
        for (threads, granularity) in [(2, 1), (4, 2), (3, 8)] {
            assert_eq!(
                par_count(&bq, &MsConfig::default(), threads, threads * granularity),
                sequential,
                "threads={threads} f={granularity}"
            );
        }
    }

    #[test]
    fn parallel_count_matches_sequential_on_acyclic_query() {
        let inst = random_instance(12, 50, 0.1);
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let sequential = crate::engine::count(&bq, &MsConfig::default());
        assert_eq!(par_count(&bq, &MsConfig::default(), 4, 8), sequential);
    }

    #[test]
    fn batch_counting_multiplicities_survive_the_parallel_count() {
        let inst = random_instance(15, 50, 0.12);
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let plain = MsConfig { idea8_batch_counting: false, ..MsConfig::default() };
        let sequential = crate::engine::count(&bq, &plain);
        assert_eq!(par_count(&bq, &MsConfig::default(), 4, 8), sequential);
    }

    #[test]
    fn morsel_rows_reproduce_the_serial_emission_order() {
        let inst = random_instance(16, 40, 0.15);
        let q = CatalogQuery::FourCycle.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let mut expected = Vec::new();
        let all = Morsel::whole_axis();
        let mut exec = MinesweeperExecutor::new(&bq, MsConfig::default());
        exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |binding, _| {
            expected.push(bq.binding_to_var_order(binding));
            ControlFlow::Continue(())
        });
        let morsels = partition_first_attribute(&bq, 6);
        assert!(morsels.len() > 1, "test needs a real partition");
        let mut sink = CollectSink::new();
        drive(&MsPlan::new(bq, MsConfig::default()).morsels(), &morsels, 3, &mut sink);
        assert_eq!(sink.into_rows(), expected);
    }

    #[test]
    fn mixing_count_and_row_paths_on_one_worker_stays_correct() {
        // A worker whose executor first served the counting path must not batch
        // count on the row path (batch multiplicities would be collapsed to single
        // rows); each morsel sets the executor's batch counting for its path.
        let inst = random_instance(18, 40, 0.15);
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let plan = MsPlan::new(bq.clone(), MsConfig::default());
        let source = plan.morsels();
        let morsels = partition_first_attribute(&bq, 4);
        let mut worker = source.worker();
        let counted: u64 =
            morsels.iter().map(|&m| source.count_morsel(&mut worker, m, &ExecCtx::none())).sum();
        let mut rows = 0u64;
        for &m in &morsels {
            source.run_morsel(&mut worker, m, &ExecCtx::none(), &mut |_| {
                rows += 1;
                ControlFlow::Continue(())
            });
        }
        assert_eq!(rows, counted, "row path after count path must emit every row");
        assert_eq!(counted, crate::engine::count(&bq, &MsConfig::default()));
        // And switching back to counting still batch-counts correctly.
        let recounted: u64 =
            morsels.iter().map(|&m| source.count_morsel(&mut worker, m, &ExecCtx::none())).sum();
        assert_eq!(recounted, counted);
    }

    #[test]
    fn workers_reuse_one_executor_across_morsels() {
        // Driving several morsels through a single worker must agree with the
        // sequential count — the executor reset path is exercised directly here.
        let inst = random_instance(17, 45, 0.15);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let plan = MsPlan::new(bq.clone(), MsConfig::default());
        let source = plan.morsels();
        let morsels = partition_first_attribute(&bq, 8);
        let mut worker = source.worker();
        let total: u64 =
            morsels.iter().map(|&m| source.count_morsel(&mut worker, m, &ExecCtx::none())).sum();
        assert_eq!(total, crate::engine::count(&bq, &MsConfig::default()));
    }

    /// Through the actual multi-threaded driver, counts agree with the serial
    /// engine for every thread/granularity mix, and the driver sums every
    /// worker's counters into its report.
    #[test]
    fn parallel_counters_sum_and_counts_stay_exact() {
        let inst = random_instance(21, 60, 0.12);
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::ThreePath] {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let sequential = crate::engine::count(&bq, &MsConfig::default());
            for (threads, parts) in [(2, 6), (4, 16), (3, 24)] {
                let plan = MsPlan::new(bq.clone(), MsConfig::default());
                let source = plan.morsels();
                let morsels = partition_first_attribute(&bq, parts);
                let mut sink = CountSink::new();
                let report = drive(&source, &morsels, threads, &mut sink);
                assert_eq!(sink.rows(), sequential, "{} t={threads} p={parts}", q.name);
                let counters = report.counters;
                assert_eq!(counters.results, sequential, "{} t={threads} p={parts}", q.name);
                assert!(counters.cds_nodes >= 1, "{} t={threads} p={parts}", q.name);
            }
        }
    }

    /// Drives over one plan repeat a fresh plan's counters exactly (the
    /// checked-out executors forget their memos), and every worker hands its
    /// executor back when it ends: the plan never holds more idle executors than
    /// the widest drive had workers.
    #[test]
    fn pooled_drives_repeat_the_counters_of_fresh_executors() {
        let inst = random_instance(22, 60, 0.12);
        for cq in [CatalogQuery::ThreePath, CatalogQuery::ThreeClique] {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let morsels = partition_first_attribute(&bq, 8);
            let count = |plan: &MsPlan, threads| {
                let mut sink = CountSink::new();
                (drive(&plan.morsels(), &morsels, threads, &mut sink).counters, sink.rows())
            };
            let plan = MsPlan::new(bq.clone(), MsConfig::default());
            let fresh = count(&plan.clone(), 1);
            for threads in [1, 1, 2, 1, 2] {
                let (counters, rows) = count(&plan, threads);
                assert_eq!(rows, fresh.1, "{} t={threads}", q.name);
                if threads == 1 {
                    assert_eq!(counters, fresh.0, "{} pooled vs fresh", q.name);
                }
                assert!(plan.idle() <= 2, "{}: {} idle executors", q.name, plan.idle());
            }
            assert!(plan.idle() >= 1, "{}: no executor came back", q.name);
            assert_eq!(plan.clone().idle(), 0, "a clone starts empty");
        }
    }
}
