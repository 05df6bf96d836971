//! Prepared queries: the prepare/execute split.
//!
//! [`Database::prepare`] does everything that can be amortised — query validation,
//! GAO selection, sub-query splitting, and trie-index construction against the
//! database's shared [`IndexCache`](gj_query::IndexCache) — once, and hands back a
//! [`PreparedQuery`] that can be executed any number of times. This mirrors the
//! setting of the paper's experiments (data and query fixed, algorithms swapped) and
//! the classic prepared-statement runtime of the LogicBlox system the paper
//! benchmarks: under repeated traffic, index builds amortise across millions of
//! executions instead of being paid per call.
//!
//! Every execution goes through one fallible entry point,
//! [`try_run_parallel`](PreparedQuery::try_run_parallel): any
//! [`ParallelSink`] (count, collect, the first `k` rows, an existence probe, a
//! closure wrapped in [`Ordered`](gj_runtime::Ordered)), any thread count, any [`QueryBudget`]; an abort
//! is always an `Err`, and a completed run reports one cross-engine [`RunStats`].
//! [`count`](PreparedQuery::count), [`collect`](PreparedQuery::collect) and the
//! other infallible methods are that call under a budget that cannot trip.
//!
//! # Warm-cache reuse
//!
//! ```
//! use graphjoin::{CatalogQuery, Database, Engine, Graph};
//!
//! let graph = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
//! let mut db = Database::new();
//! db.add_graph(graph);
//! let q = CatalogQuery::ThreeClique.query();
//!
//! // First preparation builds the trie indexes ...
//! let cold = db.prepare(&q, &Engine::Lftj).unwrap();
//! assert!(cold.indexes_built() > 0);
//! // ... and every execution of it reuses them.
//! for _ in 0..3 {
//!     assert_eq!(cold.count().unwrap(), 2);
//! }
//! // Preparing again — even for a different engine — hits the shared cache.
//! let warm = db.prepare(&q, &Engine::minesweeper()).unwrap();
//! assert_eq!(warm.indexes_built(), 0);
//! assert_eq!(warm.count().unwrap(), 2);
//! ```

use crate::database::{same_shape, Database, Engine, EngineError, QueryOutput};
use crate::sink::{CollectSink, CountSink};
use gj_baselines::{GraphEngine, JoinAlgo, PairwiseMorsels, PairwisePlan};
use gj_lftj::LftjMorsels;
use gj_minesweeper::{HybridPlan, MsConfig, MsPlan};
use gj_query::{lftj_gao, BindReport, BoundQuery, CatalogQuery, Query, VarId};
use gj_runtime::{
    partition_first_attribute, try_drive, Counters, ExecCtx, ExecError, ExecMonitor, Morsel,
    MorselSource, ParallelSink, QueryBudget,
};
use gj_storage::{Graph, Val};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Morsels per thread for parallel LFTJ (Minesweeper takes the factor from
/// [`MsConfig::granularity`]). The paper's Table 5 uses `f = 8` for cyclic queries.
/// The morsels hold about equal estimated work (a first-level key weighs its fanout
/// squared), and the over-split lets the job pool work-steal around what that
/// estimate misses.
const LFTJ_GRANULARITY: usize = 8;

/// Morsels per thread for the parallel pairwise baselines. Each morsel re-runs the
/// whole left-deep chain on a base slice, so the per-morsel overhead (a key sort of
/// the restricted left side per merge join) is higher than the trie engines' —
/// a moderate over-split still lets the pool work-steal around skew, which the
/// base's equal-count cut does not balance (a hub key weighs what a leaf key does).
const PAIRWISE_GRANULARITY: usize = 4;

/// A counter an engine reports by name through [`RunStats::extra`]: the name and
/// the field of [`Counters`] it reads.
type Extra = (&'static str, fn(&Counters) -> u64);

/// LFTJ's named counters.
const LFTJ_EXTRAS: &[Extra] = &[("bindings_explored", |c| c.bindings_explored)];

/// Minesweeper's named counters.
const MS_EXTRAS: &[Extra] = &[
    ("iterations", |c| c.iterations),
    ("probes", |c| c.probes),
    ("probes_skipped", |c| c.probes_skipped),
    ("constraints_inserted", |c| c.constraints_inserted),
    ("cached_intervals", |c| c.cached_intervals),
    ("truncations", |c| c.truncations),
    ("complete_node_hits", |c| c.complete_node_hits),
    ("cds_nodes", |c| c.cds_nodes),
    ("free_tuple_steps", |c| c.free_tuple_steps),
    ("backjumps", |c| c.backjumps),
    ("batched_runs", |c| c.batched_runs),
];

/// The pairwise baselines' named counters.
const PAIRWISE_EXTRAS: &[Extra] = &[
    ("materialized_rows", |c| c.materialized_rows),
    ("peak_intermediate", |c| c.peak_intermediate),
];

/// Cross-engine execution statistics: one shape for every engine, reported by
/// every completed execution (an aborted one returns its `Err` instead). The
/// engine's work counters (probe counts, CDS sizes, materialised rows, …) are one
/// [`Counters`] value, and [`extra`](Self::extra) looks up the ones the engine
/// reports by name.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// One-time preparation cost of the [`PreparedQuery`] that produced this
    /// execution: validation, GAO selection and trie-index construction. Amortised
    /// across executions — near zero when the index cache was warm.
    pub prepare: Duration,
    /// Per-execution setup before the drive: partitioning the first attribute
    /// and constructing the engine's morsel source.
    pub bind: Duration,
    /// The drive: every worker's executor construction and search, and the merge.
    pub run: Duration,
    /// Number of output rows delivered (to the sink, or counted).
    pub rows: u64,
    /// Worker threads used (index builds during prepare, or parallel execution).
    pub threads: usize,
    /// Morsels the output space was partitioned into (0 when it was not: a
    /// one-thread run, or a first attribute too small to split).
    pub morsels: usize,
    /// Trie indexes built during prepare (0 when the shared cache was warm).
    pub indexes_built: usize,
    /// The engine's work counters, summed over its workers: `bindings_explored`
    /// for LFTJ, `probes`, `cds_nodes`, … for Minesweeper, `peak_intermediate`
    /// for the pairwise baselines; all zero for the count-only engines.
    pub counters: Counters,
    /// The counters the engine reports by name — what [`extra`](Self::extra)
    /// answers.
    reported: &'static [Extra],
}

impl RunStats {
    /// Looks up an engine-specific counter by name: `Some` for exactly the
    /// counters the engine that ran reports (`bindings_explored` for LFTJ; eleven
    /// for Minesweeper, `probes` and `cds_nodes` among them; `materialized_rows`
    /// and `peak_intermediate` for the pairwise baselines), `None` for every other
    /// name, and for every name when a count-only engine ran.
    pub fn extra(&self, name: &str) -> Option<u64> {
        self.reported.iter().find(|(n, _)| *n == name).map(|(_, get)| get(&self.counters))
    }
}

/// Which specialised graph-engine program a prepared query maps to.
#[derive(Debug, Clone, Copy)]
enum GraphOp {
    Triangles,
    FourCliques,
}

/// The engine-specific half of a prepared query — the only thing
/// [`PreparedQuery::execute`] dispatches on.
#[derive(Debug, Clone)]
enum Plan {
    /// LFTJ: a bound query (GAO + cache-shared trie indexes).
    Lftj(BoundQuery),
    /// Minesweeper: a bound query, the engine configuration, and the idle
    /// executors the last drive's workers handed back, so a warm execution reuses
    /// their node arenas and point lists instead of allocating its own.
    Minesweeper(MsPlan),
    /// Pairwise baselines: the prepared left-deep plan — join order chosen, every
    /// atom's rows copied into columnar intermediates, right-side probe structures
    /// (hash tables / sort permutations) prebuilt and shared by every execution.
    Pairwise(Box<PairwisePlan>),
    /// The hybrid and the specialised graph engine, which only produce counts.
    CountOnly(CountOnly),
}

/// The count-only engines as a morsel source. They take no range restriction, so
/// they are only ever driven over [`Morsel::whole_axis`], and
/// [`PreparedQuery::execute`] only lets counting sinks reach them.
#[derive(Debug, Clone)]
enum CountOnly {
    /// The hybrid: both sub-queries bound.
    Hybrid(Box<HybridPlan>, MsConfig),
    /// The specialised graph engine: CSR adjacency loaded.
    Graph(Box<GraphEngine>, GraphOp),
}

impl MorselSource for CountOnly {
    type Worker = ();

    fn worker(&self) {}

    /// Counting sinks take the row path when the budget caps rows (the cap is
    /// accounted row by row): a count-only engine has no rows to show, so it
    /// delivers its count as that many empty rows.
    fn run_morsel(
        &self,
        worker: &mut (),
        morsel: Morsel,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) {
        for _ in 0..self.count_morsel(worker, morsel, ctx) {
            if emit(&[]).is_break() {
                return;
            }
        }
    }

    fn count_morsel(&self, _worker: &mut (), _morsel: Morsel, ctx: &ExecCtx<'_>) -> u64 {
        match self {
            CountOnly::Hybrid(plan, config) => plan.count_ctx(config, ctx),
            CountOnly::Graph(engine, GraphOp::Triangles) => engine.triangle_count(ctx),
            CountOnly::Graph(engine, GraphOp::FourCliques) => engine.four_clique_count(ctx),
        }
    }
}

/// A query prepared against a [`Database`] for one [`Engine`]: binding, GAO
/// selection and index construction already paid. Executions borrow the database
/// immutably, so any number of prepared queries can serve traffic concurrently.
///
/// Every execution — any sink, any thread count, with or without a budget — goes
/// through one path, [`try_run_parallel`](Self::try_run_parallel): partition the
/// first attribute, drive the engine's `gj_runtime::MorselSource` over the
/// morsels, assemble [`RunStats`]. A serial execution is the one-worker case (one
/// whole-axis morsel, run on the calling thread, rows pushed straight into the
/// sink). The six infallible methods — [`count`](Self::count),
/// [`count_with_stats`](Self::count_with_stats), [`par_count`](Self::par_count),
/// [`collect`](Self::collect), [`par_collect`](Self::par_collect) and
/// [`run_parallel`](Self::run_parallel) — are that call under a [`QueryBudget`]
/// that cannot trip. Any other answer is a sink: `FirstK::new(k)` for the first
/// `k` rows, `ExistsSink::new()` for an existence probe, `Ordered::new(closure)`
/// for a row-at-a-time callback.
///
/// See the [module docs](self) for the warm-cache reuse pattern.
#[derive(Debug, Clone)]
pub struct PreparedQuery<'db> {
    db: &'db Database,
    query: Query,
    engine: Engine,
    plan: Plan,
    prepare: Duration,
    report: BindReport,
}

/// The infallible API: `result` comes from
/// [`try_run_parallel`](PreparedQuery::try_run_parallel) under a budget that cannot
/// trip, so the only [`ExecError`] it can hold is a caught worker panic — re-raised
/// here, on the caller's thread.
fn infallible<T>(result: Result<T, EngineError>) -> Result<T, EngineError> {
    match result {
        // gj-lint: allow(no-panic-in-engines) — documented contract of the infallible wrappers: an engine bug caught at the worker boundary is re-raised, not returned
        Err(EngineError::Exec(err)) => panic!("{err}"),
        other => other,
    }
}

/// The single morsel of a one-worker run.
const WHOLE_AXIS: &[Morsel] = &[Morsel::whole_axis()];

/// The partition of a run on `threads` workers: a one-thread run has nothing to
/// split, so it never pays for `partition`, nor for a `Vec`.
fn morsels_for(threads: usize, partition: impl FnOnce() -> Vec<Morsel>) -> Cow<'static, [Morsel]> {
    if threads == 1 {
        Cow::Borrowed(WHOLE_AXIS)
    } else {
        Cow::Owned(partition())
    }
}

/// One execution in flight: what [`PreparedQuery::try_run_parallel`] threads
/// through its drive.
struct Execution<'a, K> {
    sink: &'a mut K,
    threads: usize,
    monitor: ExecMonitor,
    stats: RunStats,
    started: Instant,
}

impl<K: ParallelSink> Execution<'_, K> {
    /// Drives `source` over `morsels` — the one place an engine runs — and records
    /// the drive's share of the statistics, with the counters the engine reports
    /// by name. `bind` ends where the drive starts.
    fn drive<S: MorselSource>(
        &mut self,
        source: &S,
        morsels: &[Morsel],
        reported: &'static [Extra],
    ) -> Result<(), ExecError> {
        self.stats.bind = self.started.elapsed();
        let run_start = Instant::now();
        let driven = try_drive(source, morsels, self.threads, self.sink, &self.monitor);
        self.stats.run = run_start.elapsed();
        let report = driven?;
        self.stats.rows = report.rows;
        self.stats.threads = self.stats.threads.max(report.threads);
        self.stats.morsels = if morsels.len() > 1 { report.morsels } else { 0 };
        self.stats.counters = report.counters;
        self.stats.reported = reported;
        Ok(())
    }
}

impl<'db> PreparedQuery<'db> {
    /// Prepares `query` for `engine` over `db` (called by [`Database::prepare`]).
    pub(crate) fn new(
        db: &'db Database,
        query: &Query,
        engine: &Engine,
        gao: Option<Vec<VarId>>,
    ) -> Result<Self, EngineError> {
        let start = Instant::now();
        // One structural check for every engine, so each rejects a malformed query
        // (no atom, a repeated variable, …) with the same typed error.
        query.validate().map_err(EngineError::Bind)?;
        let threads = db.prepare_threads();
        let cache = db.cache();
        let bind = |gao| {
            BoundQuery::with_cache(db.instance(), query, gao, cache, threads)
                .map_err(EngineError::Bind)
        };
        let pairwise = |algo, limits| {
            db.instance().validate_query(query).map_err(EngineError::Bind)?;
            let plan = PairwisePlan::new(db.instance(), query, algo, limits)
                .map_err(EngineError::Baseline)?;
            Ok::<_, EngineError>((Plan::Pairwise(Box::new(plan)), BindReport::default()))
        };
        let (plan, report) = match engine {
            Engine::Lftj => {
                let gao = gao.or_else(|| Some(lftj_gao(query, db.instance())));
                let (bq, report) = bind(gao)?;
                (Plan::Lftj(bq), report)
            }
            Engine::Minesweeper(config) => {
                let (bq, report) = bind(gao)?;
                (Plan::Minesweeper(MsPlan::new(bq, config.clone())), report)
            }
            Engine::Hybrid { split, config } => {
                let (plan, report) =
                    HybridPlan::with_cache(db.instance(), query, *split, cache, threads)
                        .map_err(EngineError::Unsupported)?;
                (Plan::CountOnly(CountOnly::Hybrid(Box::new(plan), config.clone())), report)
            }
            Engine::HashJoin(limits) => pairwise(JoinAlgo::Hash, *limits)?,
            Engine::SortMergeJoin(limits) => pairwise(JoinAlgo::SortMerge, *limits)?,
            Engine::GraphEngine => {
                let op = if same_shape(query, &CatalogQuery::ThreeClique.query()) {
                    GraphOp::Triangles
                } else if same_shape(query, &CatalogQuery::FourClique.query()) {
                    GraphOp::FourCliques
                } else {
                    return Err(EngineError::Unsupported(format!(
                        "the graph engine only supports 3-clique and 4-clique, not {}",
                        query.name
                    )));
                };
                let graph = db.edge_graph().map_err(EngineError::Unsupported)?;
                let engine = Box::new(GraphEngine::load(&dense_ranks(graph)));
                (Plan::CountOnly(CountOnly::Graph(engine, op)), BindReport::default())
            }
        };
        Ok(PreparedQuery {
            db,
            query: query.clone(),
            engine: engine.clone(),
            plan,
            prepare: start.elapsed(),
            report,
        })
    }

    /// The database this query was prepared against. The borrow is the point:
    /// holding a `PreparedQuery` keeps the database immutable, so cached plans and
    /// `Arc`-shared indexes can never go stale mid-execution.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The engine this query was prepared for.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The global attribute order the plan executes in, as variable names: the
    /// pinned order of [`Database::prepare_with_gao`], or else the engine's own
    /// choice ([`gj_query::lftj_gao`] for LFTJ, [`gj_query::select_gao`] for
    /// Minesweeper). `None` for engines that run no GAO (pairwise plans, the
    /// hybrid, the graph engine).
    pub fn gao(&self) -> Option<Vec<&str>> {
        let bq = match &self.plan {
            Plan::Lftj(bq) => bq,
            Plan::Minesweeper(plan) => plan.bound_query(),
            _ => return None,
        };
        Some(bq.gao.iter().map(|&v| bq.query.var_names[v].as_str()).collect())
    }

    /// Number of trie indexes the preparation had to build — 0 when the database's
    /// shared index cache was already warm.
    pub fn indexes_built(&self) -> usize {
        self.report.indexes_built
    }

    /// Worker threads the index builds were sharded across.
    pub fn build_threads(&self) -> usize {
        self.report.build_threads.max(1)
    }

    /// Whether row sinks (`collect`, `FirstK`, `ExistsSink`, …) are supported: the
    /// hybrid and the specialised graph engine only produce counts.
    pub fn supports_enumeration(&self) -> bool {
        !matches!(self.plan, Plan::CountOnly(_))
    }

    /// Counts the output rows. Supported by every engine; uses the engine's
    /// counting fast path (e.g. Minesweeper's batch counting, LFTJ's last-level
    /// count) rather than delivering rows.
    pub fn count(&self) -> Result<u64, EngineError> {
        self.par_count(1)
    }

    /// Counts the output rows and reports the execution statistics.
    pub fn count_with_stats(&self) -> Result<(u64, RunStats), EngineError> {
        let mut sink = CountSink::new();
        let stats = self.run_parallel(&mut sink, 1)?;
        Ok((sink.rows(), stats))
    }

    /// Counts the output rows on `threads` worker threads — the parallel
    /// counterpart of [`count`](Self::count), using the engine's per-morsel
    /// counting fast path (no row is materialised).
    pub fn par_count(&self, threads: usize) -> Result<u64, EngineError> {
        let mut sink = CountSink::new();
        self.run_parallel(&mut sink, threads)?;
        Ok(sink.rows())
    }

    /// Materialises every output row (in **variable-id order**), in the engine's
    /// deterministic emission order: LFTJ and Minesweeper emit in lexicographic GAO
    /// order, the pairwise baselines in the order of their streamed final join.
    /// The count-only engines (hybrid, graph engine) return
    /// [`EngineError::Unsupported`]; use [`count`](Self::count) for those.
    pub fn collect(&self) -> Result<QueryOutput, EngineError> {
        self.par_collect(1)
    }

    /// Materialises every output row on `threads` worker threads. The ordered
    /// shard merge makes the result identical to [`collect`](Self::collect) —
    /// same rows, same order.
    pub fn par_collect(&self, threads: usize) -> Result<QueryOutput, EngineError> {
        let mut sink = CollectSink::new();
        self.run_parallel(&mut sink, threads)?;
        Ok(sink.into_rows())
    }

    /// [`try_run_parallel`](Self::try_run_parallel) under a budget that cannot
    /// trip: the infallible execution of any sink on `threads` workers.
    ///
    /// ```
    /// use graphjoin::{CatalogQuery, CountSink, Database, Engine, ExistsSink, FirstK, Graph};
    ///
    /// let graph = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]);
    /// let mut db = Database::new();
    /// db.add_graph(graph);
    /// let prepared = db.prepare(&CatalogQuery::ThreeClique.query(), &Engine::Lftj)?;
    ///
    /// // Same rows, same order as the serial run — the morsel-ordered merge
    /// // makes parallel output identical to serial emission.
    /// let serial = prepared.collect()?;
    /// assert_eq!(prepared.par_collect(4)?, serial);
    ///
    /// // Any ParallelSink works; CountSink takes the zero-materialisation path.
    /// let mut sink = CountSink::new();
    /// let stats = prepared.run_parallel(&mut sink, 4)?;
    /// assert_eq!(sink.rows(), serial.len() as u64);
    /// assert_eq!(stats.rows, 2);
    ///
    /// // The first k rows are the serial emission prefix; an existence probe
    /// // stops every worker at the first row any of them finds.
    /// let mut first = FirstK::new(1);
    /// prepared.run_parallel(&mut first, 4)?;
    /// assert_eq!(first.into_rows(), serial[..1].to_vec());
    /// let mut exists = ExistsSink::new();
    /// prepared.run_parallel(&mut exists, 4)?;
    /// assert!(exists.found());
    /// # Ok::<(), graphjoin::EngineError>(())
    /// ```
    pub fn run_parallel<K: ParallelSink>(
        &self,
        sink: &mut K,
        threads: usize,
    ) -> Result<RunStats, EngineError> {
        infallible(self.try_run_parallel(sink, threads, &QueryBudget::new()))
    }

    /// The one execution path: executes the query into `sink` on `threads` worker
    /// threads under `budget`, and reports the run's [`RunStats`].
    ///
    /// One thread drives a single whole-axis morsel on the calling thread: rows
    /// reach the sink row at a time, as the engine finds them, and a `Break` stops
    /// the search at that row. More threads partition the first GAO attribute into
    /// `threads × granularity` morsels (Minesweeper takes the factor from
    /// [`MsConfig::granularity`]; a first attribute too small to split stays one
    /// morsel), workers claim morsels from a shared work-stealing pool, and
    /// per-morsel output shards are merged into `sink` **in morsel order** — so the
    /// sink observes exactly the serial emission stream, and a sink that breaks
    /// (`FirstK` full, `ExistsSink` answered) stops every worker. The pairwise
    /// baselines partition their plan's base relation on its first column; their
    /// [`ExecLimits`](gj_baselines::ExecLimits) budget aggregates across workers.
    /// The count-only engines (hybrid, graph engine) serve counting sinks
    /// ([`CountSink`]) at any thread count and return [`EngineError::Unsupported`]
    /// for every row sink, `ExistsSink` included.
    ///
    /// Each worker builds its engine state once, reuses it across the morsels it
    /// claims (LFTJ's and Minesweeper's executors, the pairwise engines' two
    /// intermediate buffers) and drops it when the run ends — except a
    /// Minesweeper executor, which goes back to the prepared query's plan for the
    /// next execution, its node arena kept and its memos forgotten on checkout, so
    /// it counts exactly what a fresh one would. The counters workers accumulate
    /// are summed into [`RunStats::counters`].
    ///
    /// Every worker runs under `catch_unwind`, and the engines poll `budget`
    /// cooperatively — at morsel boundaries and inside each morsel, bounded by one
    /// check stride ([`CHECK_STRIDE`](gj_runtime::CHECK_STRIDE) inner-loop steps).
    /// An abort is always an `Err`: the first reason any worker trips surfaces as
    /// a typed [`EngineError::Exec`], never as a panic or a silently truncated
    /// answer, and a pairwise materialisation overrun as
    /// [`EngineError::Baseline`]. A row budget is accounted as rows are found, so
    /// it bounds the work and not just the answer. On `Err` the sink holds a
    /// meaningless prefix and must be discarded.
    ///
    /// ```
    /// use graphjoin::{
    ///     CancelToken, CatalogQuery, CountSink, Database, Engine, EngineError, ExecError, Graph,
    ///     QueryBudget,
    /// };
    /// use std::time::Duration;
    ///
    /// let graph = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
    /// let mut db = Database::new();
    /// db.add_graph(graph);
    /// let prepared = db.prepare(&CatalogQuery::ThreeClique.query(), &Engine::Lftj)?;
    /// let count = |budget: &QueryBudget| {
    ///     let mut sink = CountSink::new();
    ///     prepared.try_run_parallel(&mut sink, 1, budget).map(|_| sink.rows())
    /// };
    ///
    /// // An unlimited budget behaves exactly like `count`.
    /// assert_eq!(count(&QueryBudget::new())?, 2);
    ///
    /// // A cancel token aborts the run cleanly from any thread ...
    /// let token = CancelToken::new();
    /// token.cancel();
    /// let budget = QueryBudget::new().with_cancel_token(token);
    /// assert_eq!(count(&budget), Err(EngineError::Exec(ExecError::Cancelled)));
    ///
    /// // ... and so does a wall-clock deadline. The prepared query survives the
    /// // abort: re-running it gives the exact answer again.
    /// let budget = QueryBudget::new().with_timeout(Duration::ZERO);
    /// assert_eq!(count(&budget), Err(EngineError::Exec(ExecError::DeadlineExceeded)));
    /// assert_eq!(count(&QueryBudget::new())?, 2);
    /// # Ok::<(), graphjoin::EngineError>(())
    /// ```
    pub fn try_run_parallel<K: ParallelSink>(
        &self,
        sink: &mut K,
        threads: usize,
        budget: &QueryBudget,
    ) -> Result<RunStats, EngineError> {
        if !K::COUNT_ONLY && !self.supports_enumeration() {
            return Err(EngineError::Unsupported(format!(
                "{} only supports counting",
                self.engine.label()
            )));
        }
        let threads = threads.max(1);
        let mut run = Execution {
            sink,
            threads,
            monitor: ExecMonitor::new(budget),
            stats: RunStats {
                prepare: self.prepare,
                threads: self.build_threads(),
                indexes_built: self.report.indexes_built,
                ..RunStats::default()
            },
            started: Instant::now(),
        };
        match &self.plan {
            Plan::Lftj(bq) => {
                let morsels = morsels_for(threads, || {
                    partition_first_attribute(bq, threads * LFTJ_GRANULARITY)
                });
                run.drive(&LftjMorsels::new(bq), &morsels, LFTJ_EXTRAS)?;
            }
            Plan::Minesweeper(plan) => {
                let morsels = morsels_for(threads, || {
                    let parts = threads * plan.config().granularity.max(1);
                    partition_first_attribute(plan.bound_query(), parts)
                });
                run.drive(&plan.morsels(), &morsels, MS_EXTRAS)?;
            }
            Plan::Pairwise(plan) => {
                let morsels =
                    morsels_for(threads, || plan.partition(threads * PAIRWISE_GRANULARITY));
                let source = PairwiseMorsels::new(plan);
                let driven = run.drive(&source, &morsels, PAIRWISE_EXTRAS);
                // Collect the aggregated budget state before surfacing any
                // error: a monitor trip outranks the pairwise materialisation
                // budget, which in turn fails the run (the sink may have received
                // a partial prefix by then).
                let pairwise = source.finish();
                driven?;
                run.stats.counters = pairwise.map_err(EngineError::Baseline)?;
            }
            Plan::CountOnly(source) => run.drive(source, WHOLE_AXIS, &[])?,
        }
        Ok(run.stats)
    }
}

/// `graph` with every endpoint relabelled to its rank among the distinct
/// endpoints. The CSR sizes its per-node arrays by the largest id, so a sparse id
/// space would cost the graph engine memory and time in the ids instead of the
/// edges. Ranks keep the id order, so clique counts and their loop order are
/// unchanged. A graph with no more node ids than edge endpoints already sizes
/// its arrays by its edges and is returned as it is.
fn dense_ranks(graph: Graph) -> Graph {
    if graph.num_nodes() <= 2 * graph.num_edges() {
        return graph;
    }
    let mut ids: Vec<u32> = graph.edges().iter().flat_map(|&(a, b)| [a, b]).collect();
    ids.sort_unstable();
    ids.dedup();
    let rank = |v: u32| ids.partition_point(|&id| id < v) as u32;
    let edges = graph.edges().iter().map(|&(a, b)| (rank(a), rank(b))).collect();
    Graph::new(ids.len(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{ExistsSink, FirstK};
    use gj_baselines::ExecLimits;
    use gj_runtime::Ordered;
    use gj_storage::{Graph, Relation};

    /// The first `k` rows of `prepared` on `threads` workers.
    fn first_k(prepared: &PreparedQuery<'_>, k: usize, threads: usize) -> QueryOutput {
        let mut sink = FirstK::new(k);
        prepared.run_parallel(&mut sink, threads).unwrap();
        sink.into_rows()
    }

    /// Whether `prepared` has a row, probed on `threads` workers.
    fn exists(prepared: &PreparedQuery<'_>, threads: usize) -> bool {
        let mut sink = ExistsSink::new();
        prepared.run_parallel(&mut sink, threads).unwrap();
        sink.found()
    }

    fn two_triangle_db() -> Database {
        let graph = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut db = Database::new();
        db.add_graph(graph);
        db.add_relation("v1", Relation::from_values(vec![0, 1, 3]));
        db.add_relation("v2", Relation::from_values(vec![2, 3, 4]));
        db.add_relation("v3", Relation::from_values(vec![0, 2]));
        db.add_relation("v4", Relation::from_values(vec![1, 4]));
        db
    }

    /// The graph engine counts over the endpoints' dense ranks: a sparse id space
    /// (an endpoint at 4 000 000, one at `u32::MAX`) prepares without per-id
    /// arrays and counts what LFTJ counts.
    #[test]
    fn the_graph_engine_counts_over_sparse_node_ids() {
        let far: [Val; 4] = [3, 9, 4_000_000, Val::from(u32::MAX)];
        let k4 =
            far.iter().flat_map(|&a| far.iter().filter(move |&&b| b != a).map(move |&b| (a, b)));
        let relations = [
            (Relation::from_pairs(vec![(0, 4_000_000), (4_000_000, 0)]), [0, 0]),
            (Relation::from_pairs(k4.chain([(9, 11), (11, 9)])), [4, 1]),
        ];
        for (edge, expected) in relations {
            let mut db = Database::new();
            db.add_relation("edge", edge);
            for (query, want) in
                [CatalogQuery::ThreeClique, CatalogQuery::FourClique].iter().zip(expected)
            {
                let q = query.query();
                let graph = db.prepare(&q, &Engine::GraphEngine).unwrap().count().unwrap();
                assert_eq!(graph, db.count(&q, &Engine::Lftj).unwrap(), "{}", q.name);
                assert_eq!(graph, want, "{}", q.name);
            }
        }
    }

    #[test]
    fn prepare_once_execute_many() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
        assert!(prepared.indexes_built() > 0);
        for _ in 0..3 {
            assert_eq!(prepared.count().unwrap(), 2);
        }
        // Re-preparing hits the shared cache, for any engine over the same indexes.
        for engine in [Engine::Lftj, Engine::minesweeper()] {
            let warm = db.prepare(&q, &engine).unwrap();
            assert_eq!(warm.indexes_built(), 0, "{}", engine.label());
            assert_eq!(warm.count().unwrap(), 2);
        }
    }

    #[test]
    fn sinks_agree_with_counts_across_engines() {
        let db = two_triangle_db();
        let q = CatalogQuery::FourCycle.query();
        for engine in [
            Engine::Lftj,
            Engine::minesweeper(),
            Engine::HashJoin(ExecLimits::default()),
            Engine::SortMergeJoin(ExecLimits::default()),
        ] {
            let prepared = db.prepare(&q, &engine).unwrap();
            let count = prepared.count().unwrap();
            // A counting sink behind `Ordered` takes the row path, row at a time.
            let mut count_sink = Ordered::new(CountSink::new());
            prepared.run_parallel(&mut count_sink, 1).unwrap();
            assert_eq!(count_sink.into_inner().rows(), count, "{}", engine.label());
            let rows = prepared.collect().unwrap();
            assert_eq!(rows.len() as u64, count, "{}", engine.label());
            assert_eq!(exists(&prepared, 1), count > 0, "{}", engine.label());
            // FirstK is a prefix of collect, for every k.
            for k in [0, 1, rows.len(), rows.len() + 3] {
                let prefix = first_k(&prepared, k, 1);
                assert_eq!(prefix, rows[..k.min(rows.len())].to_vec(), "{}", engine.label());
            }
        }
    }

    #[test]
    fn run_stats_report_rows_and_extras() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let prepared = db.prepare(&q, &Engine::minesweeper()).unwrap();
        let (count, stats) = prepared.count_with_stats().unwrap();
        assert_eq!(count, 2);
        assert_eq!(stats.rows, 2);
        assert!(stats.extra("probes").unwrap() > 0);
        assert!(stats.threads >= 1);
        let lftj = db.prepare(&q, &Engine::Lftj).unwrap();
        let (_, stats) = lftj.count_with_stats().unwrap();
        assert!(stats.extra("bindings_explored").unwrap() >= 2);
        assert_eq!(stats.indexes_built, 0, "second prepare over the same db is warm");
    }

    #[test]
    fn count_only_engines_count_and_reject_every_row_sink() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let prepared = db.prepare(&q, &Engine::GraphEngine).unwrap();
        assert!(!prepared.supports_enumeration());
        assert_eq!(prepared.count().unwrap(), 2);
        assert!(matches!(prepared.collect(), Err(EngineError::Unsupported(_))));
        let unsupported = |result| matches!(result, Err(EngineError::Unsupported(_)));
        assert!(unsupported(prepared.run_parallel(&mut ExistsSink::new(), 1)));
        let q = CatalogQuery::TwoLollipop.query();
        let hybrid = Engine::hybrid_for(CatalogQuery::TwoLollipop).unwrap();
        let prepared = db.prepare(&q, &hybrid).unwrap();
        assert!(unsupported(prepared.run_parallel(&mut FirstK::new(1), 1)));
        assert!(unsupported(prepared.run_parallel(&mut ExistsSink::new(), 1)));
        assert_eq!(prepared.count().unwrap(), db.count(&q, &Engine::Lftj).unwrap());
    }

    #[test]
    fn run_parallel_matches_serial_for_every_sink() {
        let db = two_triangle_db();
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
            let q = cq.query();
            for engine in [Engine::Lftj, Engine::minesweeper()] {
                let prepared = db.prepare(&q, &engine).unwrap();
                let count = prepared.count().unwrap();
                let rows = prepared.collect().unwrap();
                for threads in [1, 2, 4] {
                    let label = format!("{} {} t={threads}", q.name, engine.label());
                    assert_eq!(prepared.par_count(threads).unwrap(), count, "{label}");
                    assert_eq!(prepared.par_collect(threads).unwrap(), rows, "{label}");
                    assert_eq!(exists(&prepared, threads), count > 0, "{label}");
                    for k in [0, 1, rows.len() / 2, rows.len() + 1] {
                        assert_eq!(
                            first_k(&prepared, k, threads),
                            rows[..k.min(rows.len())].to_vec(),
                            "{label} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_parallel_reports_morsels_and_threads() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
        let mut sink = CountSink::new();
        let stats = prepared.run_parallel(&mut sink, 2).unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(sink.rows(), 2);
        assert!(stats.morsels > 1, "the parallel run must actually partition");
        assert!(stats.threads >= 1 && stats.threads <= 2);
        // Serial executions report no morsels.
        let (_, serial) = prepared.count_with_stats().unwrap();
        assert_eq!(serial.morsels, 0);
    }

    #[test]
    fn run_parallel_reports_engine_extras_from_every_worker() {
        // The driver sums the workers' counters, so parallel executions report
        // the same engine extras serial ones do.
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let prepared = db.prepare(&q, &Engine::minesweeper()).unwrap();
        let mut sink = CountSink::new();
        let stats = prepared.run_parallel(&mut sink, 2).unwrap();
        assert!(stats.morsels > 1, "the run must actually partition");
        assert!(stats.extra("probes").unwrap() > 0);
        let serial_results = prepared.count().unwrap();
        assert_eq!(stats.rows, serial_results);
        let lftj = db.prepare(&q, &Engine::Lftj).unwrap();
        let mut sink = CountSink::new();
        let stats = lftj.run_parallel(&mut sink, 2).unwrap();
        assert!(stats.extra("bindings_explored").unwrap() >= stats.rows);
    }

    /// The `extra()` contract: each engine answers exactly its own counter
    /// names, at one thread and at two, and `None` for every other name.
    #[test]
    fn extra_answers_exactly_the_names_each_engine_reports() {
        let ms = [
            "iterations",
            "probes",
            "probes_skipped",
            "constraints_inserted",
            "cached_intervals",
            "truncations",
            "complete_node_hits",
            "cds_nodes",
            "free_tuple_steps",
            "backjumps",
            "batched_runs",
        ];
        let pairwise = ["materialized_rows", "peak_intermediate"];
        let universe: Vec<&str> = ["bindings_explored", "results", "rows", "no_such_counter"]
            .into_iter()
            .chain(ms)
            .chain(pairwise)
            .collect();
        let db = two_triangle_db();
        let idea8_off = MsConfig { idea8_batch_counting: false, ..MsConfig::default() };
        let lollipop = CatalogQuery::TwoLollipop;
        let cases: Vec<(Engine, CatalogQuery, &[&str])> = vec![
            (Engine::Lftj, CatalogQuery::ThreePath, &["bindings_explored"]),
            (Engine::minesweeper(), CatalogQuery::ThreePath, &ms),
            (Engine::Minesweeper(idea8_off), CatalogQuery::ThreePath, &ms),
            (Engine::HashJoin(ExecLimits::default()), CatalogQuery::ThreePath, &pairwise),
            (Engine::SortMergeJoin(ExecLimits::default()), CatalogQuery::ThreePath, &pairwise),
            (Engine::GraphEngine, CatalogQuery::ThreeClique, &[]),
            (Engine::hybrid_for(lollipop).unwrap(), lollipop, &[]),
        ];
        for (engine, cq, expected) in cases {
            let prepared = db.prepare(&cq.query(), &engine).unwrap();
            for threads in [1, 2] {
                let stats = prepared.run_parallel(&mut CountSink::new(), threads).unwrap();
                let answered: Vec<_> =
                    universe.iter().filter(|name| stats.extra(name).is_some()).collect();
                let wanted: Vec<_> =
                    universe.iter().filter(|name| expected.contains(name)).collect();
                assert_eq!(answered, wanted, "{} t={threads}", engine.label());
            }
        }
    }

    #[test]
    fn run_parallel_drives_the_pairwise_engines_through_morsels() {
        let db = two_triangle_db();
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
            let q = cq.query();
            for engine in [
                Engine::HashJoin(ExecLimits::default()),
                Engine::SortMergeJoin(ExecLimits::default()),
            ] {
                let prepared = db.prepare(&q, &engine).unwrap();
                let serial = prepared.collect().unwrap();
                for threads in [2, 4] {
                    let label = format!("{} {} t={threads}", q.name, engine.label());
                    assert_eq!(prepared.par_collect(threads).unwrap(), serial, "{label}");
                    assert_eq!(prepared.par_count(threads).unwrap(), serial.len() as u64);
                    assert_eq!(exists(&prepared, threads), !serial.is_empty());
                    let k = serial.len() / 2 + 1;
                    assert_eq!(
                        first_k(&prepared, k, threads),
                        serial[..k.min(serial.len())].to_vec(),
                        "{label}"
                    );
                }
            }
        }
        // A genuinely partitioned pairwise run reports its morsels and extras.
        let q = CatalogQuery::ThreePath.query();
        let prepared = db.prepare(&q, &Engine::HashJoin(ExecLimits::default())).unwrap();
        let mut sink = CountSink::new();
        let stats = prepared.run_parallel(&mut sink, 2).unwrap();
        assert!(stats.morsels > 1, "the pairwise parallel run must actually partition");
        assert!(stats.extra("materialized_rows").is_some());
        // Count-only engines keep rejecting row sinks and keep counting.
        let hybrid = Engine::hybrid_for(CatalogQuery::TwoLollipop).unwrap();
        let prepared = db.prepare(&CatalogQuery::TwoLollipop.query(), &hybrid).unwrap();
        assert!(matches!(prepared.par_collect(4), Err(EngineError::Unsupported(_))));
        assert_eq!(
            prepared.par_count(4).unwrap(),
            db.count(&CatalogQuery::TwoLollipop.query(), &Engine::Lftj).unwrap()
        );
        assert!(prepared.par_count(4).unwrap() > 0);
    }

    #[test]
    fn parallel_pairwise_budget_errors_propagate() {
        let db = two_triangle_db();
        let q = CatalogQuery::FourClique.query();
        let tiny = ExecLimits { max_intermediate_rows: 1 };
        let prepared = db.prepare(&q, &Engine::HashJoin(tiny)).unwrap();
        assert!(matches!(prepared.count(), Err(EngineError::Baseline(_))));
        assert!(matches!(prepared.par_count(4), Err(EngineError::Baseline(_))));
        let mut sink = CountSink::new();
        assert!(matches!(prepared.run_parallel(&mut sink, 4), Err(EngineError::Baseline(_))));
    }

    #[test]
    fn threaded_minesweeper_engine_counts_through_the_runtime() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let engine = Engine::Minesweeper(MsConfig { granularity: 2, ..MsConfig::default() });
        let prepared = db.prepare(&q, &engine).unwrap();
        assert_eq!(prepared.par_count(3).unwrap(), 2);
        let stats = prepared.run_parallel(&mut CountSink::new(), 3).unwrap();
        assert_eq!(stats.rows, 2);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn pairwise_prepare_validates_relations() {
        let mut db = Database::new();
        db.add_relation("edge", Relation::from_values(vec![1, 2, 3])); // arity 1
        let q = CatalogQuery::ThreeClique.query();
        for engine in
            [Engine::HashJoin(ExecLimits::default()), Engine::SortMergeJoin(ExecLimits::default())]
        {
            assert!(matches!(db.prepare(&q, &engine), Err(EngineError::Bind(_))));
        }
        let empty = Database::new();
        assert!(matches!(
            empty.prepare(&q, &Engine::HashJoin(ExecLimits::default())),
            Err(EngineError::Bind(_))
        ));
    }

    #[test]
    fn replacing_a_relation_invalidates_cached_indexes() {
        let mut db = Database::new();
        let small = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2)]);
        db.add_graph(small);
        let q = CatalogQuery::ThreeClique.query();
        assert_eq!(db.prepare(&q, &Engine::Lftj).unwrap().count().unwrap(), 1);
        // Replace the edge relation: the cache must not serve the stale index.
        let k4 = Graph::new_undirected(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        db.add_graph(k4);
        let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
        assert!(prepared.indexes_built() > 0, "replacement must invalidate the cache");
        assert_eq!(prepared.count().unwrap(), 4);
    }

    #[test]
    fn explicit_gao_is_honoured_by_prepare() {
        let db = two_triangle_db();
        let q = CatalogQuery::FourPath.query();
        let v = |s: &str| q.var(s).unwrap();
        let gao = vec![v("c"), v("b"), v("a"), v("d"), v("e")];
        let expected = db.prepare(&q, &Engine::Lftj).unwrap().count().unwrap();
        // A pinned order wins over every engine's own choice.
        for engine in [Engine::Lftj, Engine::minesweeper()] {
            let prepared = db.prepare_with_gao(&q, &engine, Some(gao.clone())).unwrap();
            assert_eq!(prepared.gao(), Some(vec!["c", "b", "a", "d", "e"]));
            assert_eq!(prepared.count().unwrap(), expected);
        }
    }

    #[test]
    fn prepared_queries_share_one_instance_of_each_index() {
        let db = two_triangle_db();
        let q = CatalogQuery::FourClique.query();
        let a = db.prepare(&q, &Engine::Lftj).unwrap();
        let b = db.prepare(&q, &Engine::Lftj).unwrap();
        let (Plan::Lftj(ba), Plan::Lftj(bb)) = (&a.plan, &b.plan) else {
            panic!("LFTJ plans are bound queries");
        };
        for (x, y) in ba.atoms.iter().zip(&bb.atoms) {
            assert!(std::sync::Arc::ptr_eq(&x.index, &y.index));
        }
    }
}
