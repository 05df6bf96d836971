//! The pairwise (Selinger-style) executor — PostgreSQL / MonetDB stand-ins.
//!
//! Executes the left-deep plan chosen by a Selinger-style dynamic-programming
//! planner (System-R cardinality estimates over 1..=16 atoms), joining one
//! atom at a time and materialising every intermediate **except the last**: the
//! final join is streamed row by row into the caller's sink, the way a SQL engine
//! pipelines its top operator into the client cursor. Joins run with either hash
//! joins ([`JoinAlgo::Hash`], the row-store stand-in) or sort-merge joins
//! ([`JoinAlgo::SortMerge`], the column-store stand-in). Order filters are applied
//! as soon as both of their variables are present in a materialised intermediate —
//! the same opportunity a SQL engine has — and re-checked on the streamed rows for
//! the filters that only complete at the last join.
//!
//! # Prepared plans and the morsel driver
//!
//! [`PairwisePlan`] is the prepared form: planning, the copy of every atom's rows
//! into columnar intermediates, and the right-side probe structures (hash tables /
//! sort permutations, including the streamed final join's) are built **once** and
//! shared read-only by every worker thread. An execution then only pays the
//! left-deep chain itself — the merge join's left sort included, which depends on
//! the rows the chain has materialised so far.
//!
//! The plan runs one way: through the `gj-runtime` morsel driver. The first
//! join's build side (the base of the left-deep chain, whose rows are sorted) is
//! partitioned into first-attribute ranges, [`PairwiseMorsels`] runs the whole
//! chain per range on each worker ([`PairwiseWorker`] holds the two intermediate
//! buffers the chain alternates between, reused across the worker's morsels), and
//! because both physical joins emit in **left-row order** (see the
//! `intermediate` module), concatenating the per-morsel outputs in morsel order
//! reproduces the one-worker emission stream exactly. A serial run is the
//! one-worker drive over [`Morsel::whole_axis`], as in [`pairwise_count`].
//!
//! # Budgets
//!
//! A configurable budget on result rows ([`ExecLimits`]) lets the benchmark
//! harness report the paper's "timeout" cells without exhausting memory: when a
//! materialised intermediate — or the streamed final join's output — exceeds the
//! budget, the execution aborts with
//! [`BaselineError::IntermediateBudgetExceeded`]. The budget is enforced **while
//! a join materialises** — each written row counts, *before* the order filters
//! prune it — so an exploding join aborts at the budget boundary instead of
//! materialising first and checking second: the budget is a genuine memory
//! bound, not just a post-hoc row count. Under parallel execution the per-worker
//! row counts aggregate into **one global budget**: each materialised step's
//! (pre-filter) rows are summed across all morsels, and because the morsels
//! partition every step's join output exactly, the per-step sums equal the
//! serial run's — a budget aborts the parallel run if and only if it aborts the
//! serial one, on any query. The streamed final-join rows aggregate the same
//! way. (One caveat: an
//! early-terminating sink — `first_k`, `exists` — stops the serial stream before
//! the budget is reached, while parallel workers may genuinely produce more rows
//! than the sink consumes before the stop propagates; the budget bounds the rows
//! *produced*, so a budget tighter than `threads × k` can abort a parallel
//! `first_k` that would succeed serially.)

use crate::intermediate::{Intermediate, JoinCols, RightIndex};
use crate::planner::{plan_left_deep, MAX_ATOMS};
use gj_query::{Instance, Query, VarId};
use gj_runtime::{drive, partition_values, CountSink, Counters, ExecCtx, Morsel, MorselSource};
use gj_storage::{Relation, Val};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Which physical pairwise join operator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Build/probe hash join (row-store / PostgreSQL stand-in).
    Hash,
    /// Sort-merge join (column-store / MonetDB stand-in).
    SortMerge,
}

/// Resource limits for a pairwise execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum number of rows any single materialised intermediate — or the
    /// streamed final join's output — may reach. Checked row by row while joins
    /// materialise (an overrunning join aborts at the boundary, before filters
    /// run), and applied to the **aggregate** across all workers under parallel
    /// execution (see the [module docs](self)).
    pub max_intermediate_rows: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits { max_intermediate_rows: 50_000_000 }
    }
}

/// Errors from the pairwise executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// A referenced relation is missing from the instance.
    MissingRelation(String),
    /// An intermediate grew past the configured budget (reported as a timeout in the
    /// harness, mirroring the paper's "-" cells).
    IntermediateBudgetExceeded { rows: usize, budget: usize },
    /// The left-deep plan's final schema does not cover a query variable (a
    /// variable that occurs in no atom) — rejected as a typed error rather than
    /// panicking mid-plan.
    UncoveredVariable(usize),
    /// The query has more atoms than the pairwise planner's subset DP handles;
    /// the allowed range is `1..=16`.
    UnsupportedAtomCount(usize),
    /// The query does not fit the instance or is malformed (an atom's arity
    /// differs from its relation's, a query without atoms, …); the message is
    /// [`Instance::validate_query`]'s.
    InvalidQuery(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::MissingRelation(name) => write!(f, "relation {name} not found"),
            BaselineError::IntermediateBudgetExceeded { rows, budget } => {
                write!(f, "intermediate result of {rows} rows exceeded the budget of {budget}")
            }
            BaselineError::UncoveredVariable(v) => {
                write!(f, "query variable v{v} is not covered by any join atom")
            }
            BaselineError::UnsupportedAtomCount(atoms) => {
                write!(f, "the pairwise planner supports 1..={MAX_ATOMS} atoms, not {atoms}")
            }
            BaselineError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// One prepared step of the left-deep chain: the right side's rows, the resolved
/// join columns, and the prebuilt probe structure — all shared read-only.
#[derive(Debug, Clone)]
struct JoinStep {
    right: Intermediate,
    cols: JoinCols,
    index: RightIndex,
    out_vars: Vec<VarId>,
}

/// A pairwise query prepared once: left-deep join order chosen, every atom's rows
/// copied into columnar intermediates, and each step's right-side probe
/// structure prebuilt. Every execution drives [`PairwiseMorsels`] over the plan,
/// which it shares immutably.
#[derive(Debug, Clone)]
pub struct PairwisePlan {
    limits: ExecLimits,
    num_vars: usize,
    filters: Vec<(VarId, VarId)>,
    /// The first plan atom's rows (sorted — a straight copy of its relation).
    base: Intermediate,
    /// Distinct first-column values of `base`, the morsel partition axis.
    base_first: Vec<Val>,
    /// The remaining joins in plan order; all but the last materialise.
    steps: Vec<JoinStep>,
    /// Projection from the final schema to variable-id order.
    out_cols: Vec<usize>,
}

impl PairwisePlan {
    /// Plans and prepares `query` over `instance` for the given join algorithm and
    /// budget: left-deep join order, row copies, and right-side probe structures
    /// are all built here, once.
    ///
    /// # Errors
    ///
    /// [`BaselineError::MissingRelation`] for an atom over an unknown relation,
    /// [`BaselineError::InvalidQuery`] for a query that
    /// [`Instance::validate_query`] rejects (no atom, an atom whose arity differs
    /// from its relation's, …), [`BaselineError::UnsupportedAtomCount`] for more
    /// than 16 atoms, and [`BaselineError::UncoveredVariable`] for a query
    /// variable that occurs in no atom.
    pub fn new(
        instance: &Instance,
        query: &Query,
        algo: JoinAlgo,
        limits: ExecLimits,
    ) -> Result<Self, BaselineError> {
        let relations: Vec<&Relation> = query
            .atoms
            .iter()
            .map(|a| {
                instance
                    .relation(&a.relation)
                    .ok_or_else(|| BaselineError::MissingRelation(a.relation.clone()))
            })
            .collect::<Result<_, _>>()?;
        instance.validate_query(query).map_err(BaselineError::InvalidQuery)?;
        let atoms = query.num_atoms();
        if atoms > MAX_ATOMS {
            return Err(BaselineError::UnsupportedAtomCount(atoms));
        }

        let order = plan_left_deep(query, &relations);
        let first = order[0];
        let base = Intermediate::from_relation(relations[first], &query.atoms[first].vars);
        let base_first = base.distinct_first_values();

        let mut left_vars = base.vars().to_vec();
        let mut steps = Vec::with_capacity(order.len() - 1);
        for &idx in &order[1..] {
            let right = Intermediate::from_relation(relations[idx], &query.atoms[idx].vars);
            let (cols, out_vars) = JoinCols::resolve(&left_vars, right.vars());
            let index = match algo {
                JoinAlgo::Hash => RightIndex::hash(&right, &cols.right),
                JoinAlgo::SortMerge => RightIndex::sorted(&right, &cols.right),
            };
            left_vars.clone_from(&out_vars);
            steps.push(JoinStep { right, cols, index, out_vars });
        }
        let out_cols = (0..query.num_vars())
            .map(|v| {
                left_vars.iter().position(|&s| s == v).ok_or(BaselineError::UncoveredVariable(v))
            })
            .collect::<Result<_, _>>()?;
        Ok(PairwisePlan {
            limits,
            num_vars: query.num_vars(),
            filters: query.filters.clone(),
            base,
            base_first,
            steps,
            out_cols,
        })
    }

    /// Number of materialised intermediates (the base plus every join but the
    /// last).
    fn materialised_steps(&self) -> usize {
        1 + self.steps.len().saturating_sub(1)
    }

    /// Fresh per-worker execution state: two empty intermediate buffers (the
    /// chain alternates between them, so a worker allocates at most twice over
    /// all its morsels) and the output scratch row.
    fn worker(&self) -> PairwiseWorker {
        PairwiseWorker {
            cur: Intermediate::default(),
            next: Intermediate::default(),
            scratch: vec![0; self.num_vars],
        }
    }

    /// Partitions the base's first attribute into at most `parts` morsels at equal
    /// *count* quantiles of the values present (`gj_runtime::partition_values`, the
    /// unit-weight case of the trie engines' cut, which weighs a key by its fanout
    /// squared; the base column carries no fanout, so a hub weighs what a leaf
    /// does). Fewer than two morsels means the base is too small to split — the
    /// driver runs the single morsel with one worker.
    pub fn partition(&self, parts: usize) -> Vec<Morsel> {
        partition_values(&self.base_first, parts)
    }

    /// Runs the chain with the base restricted to first-attribute values in
    /// `[lo, hi)`, streaming the final join's rows — re-ordered into
    /// **variable-id order** — into `emit` and tracking every row count in the
    /// execution's shared `budget`. Returns the number of rows emitted; a run
    /// aborted by the budget returns early and leaves the error in the budget
    /// state.
    ///
    /// Every intermediate *except the last* is materialised (that is the pairwise
    /// engine's defining limitation — a worst-case optimal engine materialises
    /// nothing), but the final join pipelines into the sink: no last
    /// intermediate is ever built, so early termination also skips the tail of
    /// the final probe scan. Rows arrive in the deterministic left-row order of
    /// the streamed join; `Database::enumerate` sorts when a canonical order is
    /// needed.
    fn run_range(
        &self,
        worker: &mut PairwiseWorker,
        lo: Val,
        hi: Val,
        budget: &BudgetState,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) -> u64 {
        if budget.exceeded() || ctx.should_stop() {
            return 0;
        }
        let mut watch = ctx.watch();
        let PairwiseWorker { cur, next, scratch } = worker;
        // The budget is checked against the restriction's row count *before* the
        // copy is paid: an overrunning base build aborts during the build, not
        // after materialising it.
        let (start, end) = self.base.first_col_range(lo, hi);
        if budget.track_step(0, end - start).is_break() {
            return 0;
        }
        cur.load_row_range(&self.base, start, end);
        cur.apply_filters(&self.filters);

        // Materialise every join but the last, alternating between the worker's
        // two buffers. Each materialised row is counted against the budget **as it
        // is written** (not after the join completes), so an overrunning join
        // aborts at the budget boundary instead of first exhausting memory. The
        // accounting is uniformly *pre-filter*: rows later pruned by the order
        // filters stay counted, which keeps the per-step aggregates an exact
        // partition of the one-worker run's — a budget aborts a one-worker run if
        // and only if it aborts a many-worker one, on any query.
        let materialised = self.steps.len().saturating_sub(1);
        for (k, step) in self.steps[..materialised].iter().enumerate() {
            next.reset(&step.out_vars);
            let mut overrun = false;
            let mut stopped = false;
            cur.stream_join(&step.right, &step.cols, &step.index, &mut |row| {
                if watch.tick() {
                    stopped = true;
                    return ControlFlow::Break(());
                }
                if budget.bump_step(k + 1).is_break() {
                    overrun = true;
                    return ControlFlow::Break(());
                }
                next.push_row(row);
                ControlFlow::Continue(())
            });
            if overrun || stopped {
                return 0;
            }
            std::mem::swap(cur, next);
            cur.apply_filters(&self.filters);
            if budget.exceeded() {
                return 0;
            }
        }

        // Stream the final join (or, for a single-atom plan, the restricted base
        // itself) straight into the sink: project each joined row to variable-id
        // order, re-check the order filters (the ones whose variables only meet at
        // this join have not been applied yet), and emit. The streamed rows still
        // count against the budget, exactly as a materialised final join would.
        let (out_cols, filters) = (&self.out_cols, &self.filters);
        let mut emitted = 0u64;
        let mut stream = |row: &[Val]| {
            if watch.tick() {
                return ControlFlow::Break(());
            }
            for (slot, &c) in scratch.iter_mut().zip(out_cols) {
                *slot = row[c];
            }
            if !filters.iter().all(|&(x, y)| scratch[x] < scratch[y]) {
                return ControlFlow::Continue(());
            }
            if budget.count_streamed().is_break() {
                return ControlFlow::Break(());
            }
            emitted += 1;
            emit(scratch)
        };
        match self.steps.last() {
            None => {
                for i in 0..cur.len() {
                    if stream(cur.row(i)).is_break() {
                        break;
                    }
                }
            }
            Some(step) => {
                cur.stream_join(&step.right, &step.cols, &step.index, &mut stream);
            }
        }
        emitted
    }
}

/// Per-worker execution state of a [`PairwisePlan`]: the two intermediate buffers
/// the chain alternates between (reused across every morsel the worker claims,
/// like the Minesweeper worker's executor) and the projection scratch row.
#[derive(Debug)]
pub struct PairwiseWorker {
    cur: Intermediate,
    next: Intermediate,
    scratch: Vec<Val>,
}

/// The shared budget/statistics ledger of one execution: per-materialised-step
/// row totals, the streamed row total, and the first budget violation. All
/// counters are atomics so parallel workers aggregate into one global budget.
#[derive(Debug)]
struct BudgetState {
    limit: usize,
    steps: Vec<AtomicU64>,
    streamed: AtomicU64,
    failed: AtomicBool,
    error: Mutex<Option<BaselineError>>,
}

impl BudgetState {
    fn new(limit: usize, materialised_steps: usize) -> Self {
        BudgetState {
            limit,
            steps: (0..materialised_steps).map(|_| AtomicU64::new(0)).collect(),
            streamed: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Whether some worker already hit the budget (cheap cross-worker check).
    fn exceeded(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Records the first budget violation (later ones are dropped).
    fn fail(&self, rows: usize) {
        if !self.failed.swap(true, Ordering::Relaxed) {
            *self.error.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                Some(BaselineError::IntermediateBudgetExceeded { rows, budget: self.limit });
        }
    }

    /// Adds one (restricted) materialised intermediate's rows to its step total;
    /// breaks when the aggregate for that step overruns the budget.
    fn track_step(&self, step: usize, rows: usize) -> ControlFlow<()> {
        let total = self.steps[step].fetch_add(rows as u64, Ordering::Relaxed) + rows as u64;
        if total as usize > self.limit {
            self.fail(total as usize);
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    /// Counts one row materialised by an in-flight join against its step total —
    /// the mid-join budget check that keeps an overrunning join from exhausting
    /// memory before it is noticed.
    fn bump_step(&self, step: usize) -> ControlFlow<()> {
        self.track_step(step, 1)
    }

    /// Counts one streamed final-join row against the budget; breaks when the
    /// aggregate stream overruns it.
    fn count_streamed(&self) -> ControlFlow<()> {
        let prev = self.streamed.fetch_add(1, Ordering::Relaxed) as usize;
        if prev >= self.limit {
            self.fail(prev + 1);
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    /// The aggregated counters, or the recorded budget violation:
    /// `materialized_rows` sums every step's rows — the rows written by the
    /// materialising joins (and the base copy), counted **before** filter pruning;
    /// across workers the sums equal the serial run's, because morsels partition
    /// each step's join output — and `peak_intermediate` is the largest step's.
    /// The final join is streamed (never materialised), so its output is not
    /// counted.
    fn finish(&self) -> Result<Counters, BaselineError> {
        if let Some(err) =
            self.error.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
        {
            return Err(err);
        }
        let mut stats = Counters::default();
        for step in &self.steps {
            let rows = step.load(Ordering::Relaxed);
            stats.materialized_rows += rows;
            stats.peak_intermediate = stats.peak_intermediate.max(rows);
        }
        Ok(stats)
    }
}

/// A [`PairwisePlan`] exposed to the `gj-runtime` morsel driver: each morsel runs
/// the whole left-deep chain with the base restricted to the morsel's
/// first-attribute range, on per-worker reused buffers. Left-row-ordered join
/// emission makes the morsel-order merge reproduce the serial stream exactly (see
/// the [module docs](self)).
///
/// One `PairwiseMorsels` instance is one execution: it owns the shared budget
/// ledger. After driving, [`finish`](Self::finish) returns the aggregated
/// statistics or the budget violation.
#[derive(Debug)]
pub struct PairwiseMorsels<'p> {
    plan: &'p PairwisePlan,
    budget: BudgetState,
}

impl<'p> PairwiseMorsels<'p> {
    /// Wraps a prepared plan for one morsel-driven execution.
    pub fn new(plan: &'p PairwisePlan) -> Self {
        let budget = BudgetState::new(plan.limits.max_intermediate_rows, plan.materialised_steps());
        PairwiseMorsels { plan, budget }
    }

    /// The aggregated materialisation statistics of the finished run, or the
    /// budget violation some worker recorded.
    pub fn finish(self) -> Result<Counters, BaselineError> {
        self.budget.finish()
    }
}

impl MorselSource for PairwiseMorsels<'_> {
    type Worker = PairwiseWorker;

    fn worker(&self) -> PairwiseWorker {
        self.plan.worker()
    }

    fn run_morsel(
        &self,
        worker: &mut PairwiseWorker,
        morsel: Morsel,
        ctx: &ExecCtx<'_>,
        emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) {
        self.plan.run_range(worker, morsel.lo, morsel.hi, &self.budget, ctx, emit);
    }
}

/// Counts the output of `query` over `instance` with the pairwise engine: a
/// one-worker drive of [`PairwiseMorsels`] over [`Morsel::whole_axis`]. The final
/// join is streamed into the counter, so the count never materialises the full
/// result.
pub fn pairwise_count(
    instance: &Instance,
    query: &Query,
    algo: JoinAlgo,
    limits: &ExecLimits,
) -> Result<u64, BaselineError> {
    let plan = PairwisePlan::new(instance, query, algo, *limits)?;
    let source = PairwiseMorsels::new(&plan);
    let mut sink = CountSink::new();
    drive(&source, &[Morsel::whole_axis()], 1, &mut sink);
    source.finish().map(|_| sink.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{naive_count, CatalogQuery, QueryBuilder};
    use gj_runtime::{CollectSink, FirstK, ParallelSink};
    use gj_storage::Graph;
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
        inst.add_relation("v3", Relation::from_values((0..n as i64).step_by(5)));
        inst.add_relation("v4", Relation::from_values((1..n as i64).step_by(4)));
        inst
    }

    /// One execution of `plan` over `morsels` on `threads` workers into `sink`:
    /// the execution's counters, or its budget violation.
    fn run(
        plan: &PairwisePlan,
        morsels: &[Morsel],
        threads: usize,
        sink: &mut impl ParallelSink,
    ) -> Result<Counters, BaselineError> {
        let source = PairwiseMorsels::new(plan);
        drive(&source, morsels, threads, sink);
        source.finish()
    }

    /// The serial reference — one worker over the whole axis: the flattened row
    /// stream (a prefix on a budget abort) and the execution's outcome.
    fn serial(plan: &PairwisePlan) -> (Vec<Val>, Result<Counters, BaselineError>) {
        let mut sink = CollectSink::new();
        let outcome = run(plan, &[Morsel::whole_axis()], 1, &mut sink);
        (sink.into_rows().concat(), outcome)
    }

    fn plan(inst: &Instance, q: &Query, algo: JoinAlgo, max_rows: usize) -> PairwisePlan {
        PairwisePlan::new(inst, q, algo, ExecLimits { max_intermediate_rows: max_rows }).unwrap()
    }

    fn wedge() -> Query {
        QueryBuilder::new("wedge").atom("edge", &["a", "b"]).atom("edge", &["b", "c"]).build()
    }

    #[test]
    fn both_algorithms_match_the_naive_count_on_all_catalog_queries() {
        let inst = random_instance(31, 22, 0.2);
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let expected = naive_count(&inst, &q);
            for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
                let got = pairwise_count(&inst, &q, algo, &ExecLimits::default()).unwrap();
                assert_eq!(got, expected, "{} with {algo:?}", q.name);
            }
        }
    }

    #[test]
    fn budget_exceeded_is_reported_for_exploding_intermediates() {
        let inst = random_instance(32, 60, 0.3);
        let q = CatalogQuery::FourClique.query();
        let limits = ExecLimits { max_intermediate_rows: 500 };
        let err = pairwise_count(&inst, &q, JoinAlgo::Hash, &limits).unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateBudgetExceeded { .. }));
    }

    #[test]
    fn missing_relation_is_an_error() {
        let inst = Instance::new();
        let q = CatalogQuery::ThreeClique.query();
        let err = pairwise_count(&inst, &q, JoinAlgo::Hash, &ExecLimits::default()).unwrap_err();
        assert!(matches!(err, BaselineError::MissingRelation(_)));
    }

    #[test]
    fn atom_counts_outside_the_planner_range_are_typed_errors() {
        // A 17-atom path over a 20-row chain has 4 answers, but the subset DP
        // plans at most 16 atoms.
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs((0..20).map(|i| (i, i + 1))));
        let vars: Vec<String> = (0..18).map(|i| format!("x{i}")).collect();
        let long = vars
            .windows(2)
            .fold(QueryBuilder::new("17-path"), |q, w| q.atom("r", &[&w[0], &w[1]]))
            .build();
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let err = PairwisePlan::new(&inst, &long, algo, ExecLimits::default()).unwrap_err();
            assert_eq!(err, BaselineError::UnsupportedAtomCount(17), "{algo:?}");
            assert_eq!(err.to_string(), "the pairwise planner supports 1..=16 atoms, not 17");
        }
    }

    /// An atom whose arity differs from its relation's is rejected before
    /// planning: the planner's distinct-count estimates would index a column the
    /// relation does not have.
    #[test]
    fn an_atom_of_the_wrong_arity_is_a_typed_error() {
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_values(0..5));
        let q = QueryBuilder::new("too-wide").atom("r", &["a", "b"]).build();
        let expected = BaselineError::InvalidQuery(
            "relation r has arity 1 but the atom uses 2 variables".to_string(),
        );
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let plan = PairwisePlan::new(&inst, &q, algo, ExecLimits::default());
            assert_eq!(plan.err(), Some(expected.clone()));
            assert_eq!(
                pairwise_count(&inst, &q, algo, &ExecLimits::default()),
                Err(expected.clone())
            );
        }
    }

    #[test]
    fn stats_show_larger_intermediates_on_cyclic_queries_than_output() {
        let inst = random_instance(33, 40, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let (rows, stats) = serial(&plan(&inst, &q, JoinAlgo::Hash, usize::MAX));
        let (count, stats) = ((rows.len() / q.num_vars()) as u64, stats.unwrap());
        // The open-wedge intermediate is much bigger than the number of triangles —
        // the effect the paper blames for the relational systems' slowness.
        assert!(
            stats.peak_intermediate > count,
            "peak {} vs count {count}",
            stats.peak_intermediate
        );
    }

    #[test]
    fn serial_drive_streams_deterministic_rows_and_stops_on_break() {
        let inst = random_instance(34, 20, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let plan = plan(&inst, &q, algo, usize::MAX);
            let (rows, outcome) = serial(&plan);
            outcome.unwrap();
            let width = q.num_vars();
            assert_eq!((rows.len() / width) as u64, naive_count(&inst, &q), "{algo:?}");
            // The streamed order is deterministic and duplicate-free (set semantics).
            let mut sorted: Vec<&[Val]> = rows.chunks_exact(width).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), rows.len() / width, "{algo:?}");
            assert_eq!(serial(&plan).0, rows, "{algo:?}: a rerun streams the same rows");
            // Early exit after two rows yields exactly the engine's first two.
            let mut first_two = FirstK::new(2);
            run(&plan, &[Morsel::whole_axis()], 1, &mut first_two).unwrap();
            assert_eq!(first_two.into_rows().concat(), rows[..2 * width], "{algo:?}");
        }
    }

    #[test]
    fn streamed_final_join_still_honours_the_row_budget() {
        // The final join is streamed, never materialised — but its output still
        // counts against the budget (the harness's timeout stand-in), so a budget
        // smaller than the result aborts just as it did before streaming.
        // An open wedge over a dense graph: the only materialised intermediate is
        // the edge list itself, while the (much larger) wedge output streams.
        let inst = random_instance(35, 40, 0.3);
        let q = wedge();
        let (rows, full_stats) = serial(&plan(&inst, &q, JoinAlgo::Hash, usize::MAX));
        let (count, full_stats) = (rows.len() / q.num_vars(), full_stats.unwrap());
        assert!(
            count as u64 > full_stats.peak_intermediate,
            "the test needs a streamed output larger than every materialised step"
        );
        let err = serial(&plan(&inst, &q, JoinAlgo::Hash, count - 1)).1.unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateBudgetExceeded { .. }));
        // An exact budget succeeds with identical (materialisation-only) stats: the
        // streamed rows are bounded but never counted as materialised.
        let (exact_rows, stats) = serial(&plan(&inst, &q, JoinAlgo::Hash, count));
        assert_eq!(exact_rows, rows);
        assert_eq!(stats.unwrap(), full_stats);
    }

    #[test]
    fn empty_relation_gives_zero() {
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::empty(2));
        let q = CatalogQuery::FourCycle.query();
        assert_eq!(
            pairwise_count(&inst, &q, JoinAlgo::SortMerge, &ExecLimits::default()).unwrap(),
            0
        );
    }

    #[test]
    fn parallel_morsels_reproduce_the_serial_stream_exactly() {
        let inst = random_instance(36, 30, 0.2);
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
            let q = cq.query();
            for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
                let plan = plan(&inst, &q, algo, usize::MAX);
                let (serial_rows, serial_stats) = serial(&plan);
                let serial_stats = serial_stats.unwrap();
                for parts in [2, 5, 16] {
                    let morsels = plan.partition(parts);
                    for threads in [1, 2, 4] {
                        let label = format!("{} {algo:?} parts {parts} threads {threads}", q.name);
                        let mut sink = CollectSink::new();
                        let par_stats = run(&plan, &morsels, threads, &mut sink).unwrap();
                        assert_eq!(sink.into_rows().concat(), serial_rows, "{label}");
                        // Per-step aggregates across morsels equal the serial
                        // intermediate sizes.
                        assert_eq!(par_stats, serial_stats, "{label}");
                        let mut count = CountSink::new();
                        run(&plan, &morsels, threads, &mut count).unwrap();
                        assert_eq!(count.rows() as usize, serial_rows.len() / q.num_vars());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_budget_aggregates_across_workers() {
        // Wedge output is much larger than any materialised step; a budget one
        // short of the output must abort the *parallel* run too, even though every
        // single morsel stays far below the budget on its own.
        let inst = random_instance(37, 40, 0.3);
        let q = wedge();
        let count = pairwise_count(&inst, &q, JoinAlgo::Hash, &ExecLimits::default()).unwrap();
        let tight = plan(&inst, &q, JoinAlgo::Hash, count as usize - 1);
        let morsels = tight.partition(16);
        assert!(morsels.len() > 4, "the test needs a real partition");
        let err = run(&tight, &morsels, 4, &mut CountSink::new()).unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateBudgetExceeded { .. }), "{err:?}");
        // The exact budget still succeeds in parallel.
        let exact = plan(&inst, &q, JoinAlgo::Hash, count as usize);
        let mut sink = CountSink::new();
        run(&exact, &exact.partition(16), 4, &mut sink).unwrap();
        assert_eq!(sink.rows(), count);
    }

    #[test]
    fn early_termination_delivers_the_serial_prefix() {
        let inst = random_instance(38, 30, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let plan = plan(&inst, &q, JoinAlgo::Hash, usize::MAX);
        let (serial_rows, _) = serial(&plan);
        assert!(serial_rows.len() >= 3 * q.num_vars(), "the test needs at least three rows");
        let mut sink = FirstK::new(3);
        run(&plan, &plan.partition(8), 4, &mut sink).unwrap();
        assert_eq!(sink.into_rows().concat(), serial_rows[..3 * q.num_vars()]);
    }

    #[test]
    fn worker_buffers_are_reused_across_morsels() {
        let inst = random_instance(39, 30, 0.2);
        let q = CatalogQuery::ThreeClique.query();
        let plan = plan(&inst, &q, JoinAlgo::Hash, usize::MAX);
        let budget = BudgetState::new(usize::MAX, plan.materialised_steps());
        let mut worker = plan.worker();
        let morsels = plan.partition(6);
        let count_all = |worker: &mut PairwiseWorker| -> u64 {
            morsels
                .iter()
                .map(|m| {
                    plan.run_range(worker, m.lo, m.hi, &budget, &ExecCtx::none(), &mut |_| {
                        ControlFlow::Continue(())
                    })
                })
                .sum()
        };
        // Driving several morsels through a single worker must agree with the
        // serial count, and a second pass over the same (reused) buffers must be
        // identical — the buffer-recycling path is exercised directly here.
        let total = count_all(&mut worker);
        let again = count_all(&mut worker);
        assert_eq!(total, again);
        assert_eq!(total, naive_count(&inst, &q));
    }

    #[test]
    fn reruns_of_one_plan_are_identical() {
        // Every execution starts from fresh workers; the shared plan must come out
        // of a run unchanged, so serial and parallel reruns repeat the first run
        // row for row.
        let inst = random_instance(42, 30, 0.2);
        for cq in [CatalogQuery::ThreePath, CatalogQuery::ThreeClique, CatalogQuery::FourCycle] {
            let q = cq.query();
            for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
                let plan = plan(&inst, &q, algo, usize::MAX);
                let first = serial(&plan);
                assert_eq!(serial(&plan), first, "{} {algo:?}", q.name);
                let morsels = plan.partition(8);
                let run_par = || {
                    let mut sink = CollectSink::new();
                    let stats = run(&plan, &morsels, 4, &mut sink);
                    (sink.into_rows().concat(), stats)
                };
                let cold = run_par();
                assert_eq!(run_par(), cold, "{} {algo:?}", q.name);
                assert_eq!(cold, first, "{} {algo:?}", q.name);
            }
        }
    }

    #[test]
    fn base_budget_aborts_before_the_copy() {
        // A budget smaller than the restricted base must abort the run during the
        // base build; the step-0 aggregate still records the attempted size.
        let inst = random_instance(43, 40, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let edge_rows = inst.relation("edge").unwrap().len();
        let (rows, outcome) = serial(&plan(&inst, &q, JoinAlgo::Hash, edge_rows - 1));
        assert!(matches!(outcome, Err(BaselineError::IntermediateBudgetExceeded { .. })));
        assert!(rows.is_empty(), "the run must abort before any row is produced");
    }

    #[test]
    fn negative_values_survive_the_morsel_partition() {
        // Morsels from `partition` must tile the whole signed axis: the first
        // morsel starts at NEG_INF, so base rows with negative first-column
        // values are not silently dropped by the parallel path.
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs((-10..10).map(|i| (i, i + 1))));
        let q = QueryBuilder::new("2-path").atom("r", &["a", "b"]).atom("r", &["b", "c"]).build();
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let plan = plan(&inst, &q, algo, usize::MAX);
            let (serial_rows, _) = serial(&plan);
            // b ranges over {-9..=9}: 19 two-paths, most through negative values.
            assert_eq!(serial_rows.len(), 19 * 3, "{algo:?}");
            let morsels = plan.partition(8);
            assert!(morsels.len() > 1, "the test needs a real partition");
            assert_eq!(morsels[0].lo, gj_storage::NEG_INF, "{algo:?}");
            for threads in [1, 4] {
                let mut sink = CollectSink::new();
                run(&plan, &morsels, threads, &mut sink).unwrap();
                assert_eq!(sink.into_rows().concat(), serial_rows, "{algo:?} threads {threads}");
            }
        }
    }

    #[test]
    fn budget_aborts_serial_and_parallel_consistently_on_filtered_queries() {
        // The budget counts pre-filter materialised rows, so a budget between the
        // post-filter and pre-filter intermediate sizes of a filtered query must
        // abort the serial AND the parallel run — not just one of them.
        let inst = random_instance(40, 30, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let stats = serial(&plan(&inst, &q, JoinAlgo::Hash, usize::MAX)).1.unwrap();
        // peak is the pre-filter wedge count; a budget just below it must trip.
        let tight = plan(&inst, &q, JoinAlgo::Hash, stats.peak_intermediate as usize - 1);
        let serial_err = serial(&tight).1.unwrap_err();
        assert!(matches!(serial_err, BaselineError::IntermediateBudgetExceeded { .. }));
        let morsels = tight.partition(8);
        assert!(morsels.len() > 1, "the test needs a real partition");
        let parallel = run(&tight, &morsels, 4, &mut CountSink::new()).unwrap_err();
        assert!(matches!(parallel, BaselineError::IntermediateBudgetExceeded { .. }));
        // And an exact pre-filter budget succeeds both ways with equal stats.
        let exact = plan(&inst, &q, JoinAlgo::Hash, stats.peak_intermediate as usize);
        let (rows, serial_stats) = serial(&exact);
        let mut sink = CountSink::new();
        let parallel_stats = run(&exact, &exact.partition(8), 4, &mut sink);
        assert_eq!(sink.rows() as usize, rows.len() / q.num_vars());
        assert_eq!(parallel_stats, serial_stats);
        serial_stats.unwrap();
    }
}
