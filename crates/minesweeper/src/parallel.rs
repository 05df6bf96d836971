//! Multi-threaded Minesweeper (Section 4.10 of the paper), on the shared runtime.
//!
//! The output space is partitioned into `p = threads × granularity` morsels by
//! splitting the value range of the first GAO attribute at quantiles of the values
//! actually present in the data (`gj_runtime::partition_first_attribute` — lifted
//! from this module into the runtime so LFTJ shares it). Morsels go into a shared
//! queue; worker threads repeatedly grab the next unclaimed one (a simple form of
//! work stealing — exactly the behaviour the paper gets from the LogicBlox job
//! pool). The granularity factor `f` trades the work-stealing benefit on skewed
//! partitions against per-job overhead; the paper uses `f = 1` for acyclic and
//! `f = 8` for cyclic queries (Table 5).
//!
//! [`MsMorsels`] is Minesweeper's [`MorselSource`]: each worker thread builds **one**
//! [`MinesweeperExecutor`] and carries it across every morsel it claims —
//! [`run_range_ctx`](MinesweeperExecutor::run_range_ctx) recycles the CDS node
//! arena and keeps the probers' Idea 4 gap memos warm, instead of paying a fresh
//! executor (and a fresh CDS) per job. Each worker accumulates the [`Counters`]
//! of its morsels, and the driver sums every worker's into its report, so
//! parallel executions report the same engine counters serial ones do.
//!
//! A serial Minesweeper execution in `gj-core` is this same source driven by one
//! worker over the single whole-axis morsel. Use
//! `PreparedQuery::par_count(threads)` in `gj-core` for a parallel count, or
//! drive [`MsMorsels`] through `gj_runtime::drive` directly.

use crate::engine::{MinesweeperExecutor, MsConfig};
use gj_query::BoundQuery;
use gj_runtime::{Counters, ExecCtx, Morsel, MorselSource};
use gj_storage::Val;
use std::ops::ControlFlow;

/// Minesweeper as a [`MorselSource`] for the `gj-runtime` morsel driver.
///
/// Row emission re-orders bindings into **variable-id order** (the sink protocol's
/// row shape) and disables Idea 8 batch counting (a counting-only optimisation);
/// the counting fast path ([`MorselSource::count_morsel`]) keeps the configuration
/// exactly as given, multiplicities included.
#[derive(Debug)]
pub struct MsMorsels<'a> {
    bq: &'a BoundQuery,
    config: MsConfig,
}

/// Per-worker state of [`MsMorsels`]: the executor reused across claimed morsels
/// (tagged with the configuration it was built for, so a worker that switches
/// between the counting and the row path rebuilds instead of serving rows from a
/// batch-counting executor), the variable-order scratch row, and the worker's
/// accumulated counters.
pub struct MsWorker {
    exec: Option<(MinesweeperExecutor, bool)>,
    scratch: Vec<Val>,
    counters: Counters,
}

impl<'a> MsMorsels<'a> {
    /// Wraps a bound query for morsel-driven execution under `config`.
    pub fn new(bq: &'a BoundQuery, config: MsConfig) -> Self {
        MsMorsels { bq, config }
    }

    /// The worker's executor for the counting (`counting = true`, configuration as
    /// given) or row (`counting = false`, Idea 8 batch counting disabled — a
    /// counting-only optimisation whose multiplicities a row sink cannot express)
    /// path, creating or rebuilding it when the cached one served the other path.
    fn executor<'w>(
        &self,
        worker: &'w mut MsWorker,
        counting: bool,
    ) -> &'w mut MinesweeperExecutor {
        if worker.exec.as_ref().is_none_or(|&(_, kind)| kind != counting) {
            worker.exec = None;
        }
        let (exec, _) = worker.exec.get_or_insert_with(|| {
            let config = if counting {
                self.config.clone()
            } else {
                MsConfig { idea8_batch_counting: false, ..self.config.clone() }
            };
            (MinesweeperExecutor::new(self.bq, config), counting)
        });
        exec
    }
}

impl<'a> MorselSource for MsMorsels<'a> {
    type Worker = MsWorker;

    fn worker(&self) -> MsWorker {
        MsWorker { exec: None, scratch: vec![0; self.bq.num_vars()], counters: Counters::default() }
    }

    fn run_morsel(
        &self,
        worker: &mut MsWorker,
        morsel: Morsel,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) {
        let gao = &self.bq.gao;
        if worker.exec.as_ref().is_none_or(|&(_, kind)| kind) {
            self.executor(worker, false);
        }
        let MsWorker { exec, scratch, counters } = worker;
        let Some((exec, _)) = exec.as_mut() else { return };
        counters.merge(exec.run_range_ctx(morsel.lo, morsel.hi, ctx, &mut |binding, _| {
            for (pos, &v) in gao.iter().enumerate() {
                scratch[v] = binding[pos];
            }
            emit(scratch)
        }));
    }

    fn count_morsel(&self, worker: &mut MsWorker, morsel: Morsel, ctx: &ExecCtx<'_>) -> u64 {
        let exec = self.executor(worker, true);
        let mut rows = 0;
        let stats = exec.run_range_ctx(morsel.lo, morsel.hi, ctx, &mut |_, multiplicity| {
            rows += multiplicity;
            ControlFlow::Continue(())
        });
        worker.counters.merge(stats);
        rows
    }

    fn counters(&self, worker: &MsWorker) -> Counters {
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
        drive(&MsMorsels::new(bq, config.clone()), &morsels, threads, &mut sink);
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
        drive(&MsMorsels::new(&bq, MsConfig::default()), &morsels, 3, &mut sink);
        assert_eq!(sink.into_rows(), expected);
    }

    #[test]
    fn mixing_count_and_row_paths_on_one_worker_stays_correct() {
        // A worker whose executor was first built for batch counting must not serve
        // the row path with it (batch multiplicities would be collapsed to single
        // rows); the adapter rebuilds on the path switch.
        let inst = random_instance(18, 40, 0.15);
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let source = MsMorsels::new(&bq, MsConfig::default());
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
        let source = MsMorsels::new(&bq, MsConfig::default());
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
                let source = MsMorsels::new(&bq, MsConfig::default());
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
}
