//! The pairwise (Selinger-style) executor — PostgreSQL / MonetDB stand-ins.
//!
//! Executes the left-deep plan chosen by the [`planner`](crate::planner), joining one
//! atom at a time and materialising every intermediate **except the last**: the
//! final join is streamed row by row into the caller's sink, the way a SQL engine
//! pipelines its top operator into the client cursor. Joins run with either hash
//! joins ([`JoinAlgo::Hash`], the row-store stand-in) or sort-merge joins
//! ([`JoinAlgo::SortMerge`], the column-store stand-in). Order filters are applied
//! as soon as both of their variables are present in a materialised intermediate —
//! the same opportunity a SQL engine has — and re-checked on the streamed rows for
//! the filters that only complete at the last join.
//!
//! # Prepared plans and parallel execution
//!
//! [`PairwisePlan`] is the prepared form: planning, the copy of every atom's rows
//! into columnar [`Intermediate`]s, and the right-side probe structures
//! ([`RightIndex`] — hash tables / sort permutations, including the streamed
//! final join's) are built **once** and shared read-only by every execution and
//! every worker thread. Executions then only pay the left-deep chain itself, with
//! per-worker state ([`PairwiseWorker`]) reused across runs: the two intermediate
//! buffers the chain alternates between, plus a cache of the merge join's **left**
//! sort permutations keyed by `(step, morsel)` — the one per-execution build a
//! prepared merge-join step still had. Retired workers park in the plan's
//! [`WorkerPool`] (the runtime's `retire_worker` lifecycle hook), so buffers and
//! permutation caches survive across morsels *and* across repeated executions of
//! the same prepared query — a warm rerun pays no left sort at all.
//!
//! The plan also plugs into the `gj-runtime` morsel driver: the first join's build
//! side (the base of the left-deep chain, whose rows are sorted) is partitioned
//! into first-attribute ranges, [`PairwiseMorsels`] runs the whole chain per range
//! on each worker, and because both physical joins emit in **left-row order** (see
//! [`intermediate`](crate::intermediate)), concatenating the per-morsel outputs in
//! morsel order reproduces the serial emission stream exactly.
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
use crate::planner::plan_left_deep;
use gj_query::{Instance, Query, VarId};
use gj_runtime::{partition_values, Counters, ExecCtx, Morsel, MorselSource, WorkerPool};
use gj_storage::{Relation, Val, NEG_INF, POS_INF};
use std::collections::HashMap;
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
/// copied into columnar [`Intermediate`]s, and each step's right-side probe
/// structure prebuilt. Executions ([`run`](Self::run), or the parallel driver via
/// [`PairwiseMorsels`]) share the plan immutably.
#[derive(Debug, Clone)]
pub struct PairwisePlan {
    algo: JoinAlgo,
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
    /// Retired [`PairwiseWorker`]s, parked between executions. Workers carry the
    /// chain's intermediate buffers **and** the merge-join left-permutation cache,
    /// so pooling them makes both survive across morsels *and* across repeated
    /// executions of the same plan: a warm rerun skips every left sort the cold
    /// run paid for. Cloning the plan starts with an empty pool (caches do not
    /// follow clones).
    pool: WorkerPool<PairwiseWorker>,
}

impl PairwisePlan {
    /// Plans and prepares `query` over `instance` for the given join algorithm and
    /// budget: left-deep join order, row copies, and right-side probe structures
    /// are all built here, once.
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

        let plan = plan_left_deep(query, &relations);
        let first = plan.order[0];
        let base = Intermediate::from_relation(relations[first], &query.atoms[first].vars);
        let base_first = base.distinct_first_values();

        let mut left_vars = base.vars().to_vec();
        let mut steps = Vec::with_capacity(plan.order.len() - 1);
        for &idx in &plan.order[1..] {
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
            algo,
            limits,
            num_vars: query.num_vars(),
            filters: query.filters.clone(),
            base,
            base_first,
            steps,
            out_cols,
            pool: WorkerPool::new(),
        })
    }

    /// The join algorithm the plan was prepared for.
    pub fn algo(&self) -> JoinAlgo {
        self.algo
    }

    /// The configured execution limits.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// Number of materialised intermediates (the base plus every join but the
    /// last).
    fn materialised_steps(&self) -> usize {
        1 + self.steps.len().saturating_sub(1)
    }

    /// Fresh per-worker execution state: two reusable intermediate buffers (the
    /// chain alternates between them, so one run allocates at most twice and
    /// subsequent runs not at all), the output scratch row, and an empty
    /// merge-join left-permutation cache. Prefer
    /// [`acquire_worker`](Self::acquire_worker), which recycles a pooled worker
    /// with warm caches.
    pub fn worker(&self) -> PairwiseWorker {
        PairwiseWorker {
            cur: Intermediate::default(),
            next: Intermediate::default(),
            scratch: vec![0; self.num_vars],
            perms: HashMap::new(),
        }
    }

    /// A worker from the plan's pool (warm buffers and left-permutation cache from
    /// an earlier execution), or a fresh one when the pool is empty. Pair with
    /// [`release_worker`](Self::release_worker) so the state keeps amortising.
    pub fn acquire_worker(&self) -> PairwiseWorker {
        self.pool.acquire_or(|| self.worker())
    }

    /// Parks a worker back into the plan's pool for later executions.
    pub fn release_worker(&self, worker: PairwiseWorker) {
        self.pool.release(worker);
    }

    /// Partitions the base's first attribute into at most `parts` morsels at
    /// quantiles of the values present (the same scheme the trie engines use; see
    /// `gj_runtime::partition_values`). Fewer than two morsels means the base is
    /// too small to split — the driver runs the single morsel with one worker.
    pub fn partition(&self, parts: usize) -> Vec<Morsel> {
        partition_values(&self.base_first, parts)
    }

    /// Runs the plan serially, streaming the final join's rows — re-ordered into
    /// **variable-id order** — directly into `emit`; emission stops as soon as
    /// `emit` returns [`ControlFlow::Break`]. Returns the number of rows emitted
    /// and the materialisation statistics.
    ///
    /// Every intermediate *except the last* is materialised (that is the pairwise
    /// engine's defining limitation — a worst-case optimal engine materialises
    /// nothing), but the final join pipelines into the sink: no last
    /// [`Intermediate`] is ever built, so early termination also skips the tail of
    /// the final probe scan. Rows arrive in the deterministic left-row order of
    /// the streamed join; `Database::enumerate` sorts when a canonical order is
    /// needed.
    ///
    /// The streamed output still counts against
    /// [`ExecLimits::max_intermediate_rows`]: a final join whose output overruns
    /// the budget aborts with [`BaselineError::IntermediateBudgetExceeded`],
    /// exactly as it did when the final intermediate was materialised (the budget
    /// is the benchmark harness's stand-in for the paper's timeouts).
    pub fn run(
        &self,
        emit: &mut impl FnMut(&[Val]) -> ControlFlow<()>,
    ) -> Result<(u64, Counters), BaselineError> {
        self.run_ctx(&ExecCtx::none(), emit)
    }

    /// [`run`](Self::run) under an execution context: the materialise and stream
    /// loops poll `ctx` at the coarse check stride and stop cleanly on a trip. An
    /// aborted run returns `Ok` with a meaningless partial row count — the caller
    /// must consult the context's monitor before using the result.
    pub fn run_ctx(
        &self,
        ctx: &ExecCtx<'_>,
        emit: &mut impl FnMut(&[Val]) -> ControlFlow<()>,
    ) -> Result<(u64, Counters), BaselineError> {
        let budget = BudgetState::new(self.limits.max_intermediate_rows, self.materialised_steps());
        let mut worker = self.acquire_worker();
        let emitted = self.run_range(&mut worker, NEG_INF, POS_INF, &budget, ctx, emit);
        self.release_worker(worker);
        budget.finish().map(|stats| (emitted, stats))
    }

    /// Runs the chain with the base restricted to first-attribute values in
    /// `[lo, hi)`, tracking every row count in the (possibly shared) `budget`.
    /// Returns the number of rows emitted; a run aborted by the budget returns
    /// early and leaves the error in the budget state.
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
        let PairwiseWorker { cur, next, scratch, perms } = worker;
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
        // partition of the serial run's — a budget aborts serially if and only if
        // it aborts in parallel, on any query.
        let materialised = self.steps.len().saturating_sub(1);
        for (k, step) in self.steps[..materialised].iter().enumerate() {
            next.reset(&step.out_vars);
            let mut overrun = false;
            let mut stopped = false;
            let lperm = cached_left_perm(perms, (k, lo, hi), cur, &step.cols, &step.index);
            cur.stream_join_with(&step.right, &step.cols, &step.index, lperm, &mut |row| {
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
        // this join have not been applied yet), and emit.
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
                let lperm =
                    cached_left_perm(perms, (materialised, lo, hi), cur, &step.cols, &step.index);
                cur.stream_join_with(&step.right, &step.cols, &step.index, lperm, &mut stream);
            }
        }
        emitted
    }
}

/// Entry cap on a worker's left-permutation cache. One partitioning produces at
/// most `threads × granularity` morsels × the plan's merge steps — comfortably
/// below this — so a fixed execution configuration never hits the cap; a
/// long-lived plan driven with *varying* thread counts produces a fresh key set
/// per partitioning, and without the cap those generations would accumulate
/// without bound (each entry is O(left rows)).
const PERM_CACHE_CAP: usize = 1024;

/// Looks up (or computes and caches) the merge-join left sort permutation for one
/// `(step, morsel)` pair. Hash-join steps need no left sort and return `None`.
///
/// The cache key is `(step index, morsel lo, morsel hi)`: the chain is
/// deterministic, so the left side of a given step over a given base restriction
/// is identical on every execution — and it is always *fully* materialised by the
/// time its join runs (a budget abort returns before reaching the join), so a
/// cached permutation can never go stale. The length check is a defensive
/// revalidation only. When a new key would push the cache past
/// [`PERM_CACHE_CAP`], the stale generations are dropped wholesale and the
/// current partitioning refills from scratch.
fn cached_left_perm<'w>(
    perms: &'w mut HashMap<(usize, Val, Val), Vec<u32>>,
    key: (usize, Val, Val),
    cur: &Intermediate,
    cols: &JoinCols,
    index: &RightIndex,
) -> Option<&'w [u32]> {
    if !matches!(index, RightIndex::Sorted { .. }) {
        return None;
    }
    if perms.len() >= PERM_CACHE_CAP && !perms.contains_key(&key) {
        perms.clear();
    }
    let perm = perms.entry(key).or_insert_with(|| cur.sort_perm(&cols.left));
    if perm.len() != cur.len() {
        *perm = cur.sort_perm(&cols.left);
    }
    Some(perm)
}

/// Per-worker execution state of a [`PairwisePlan`]: the two intermediate buffers
/// the chain alternates between (reused across every morsel the worker claims,
/// like the Minesweeper worker's executor), the projection scratch row, and the
/// merge-join left-permutation cache. Workers retired through the runtime's
/// `retire_worker` lifecycle hook park in the plan's [`WorkerPool`], so the cache
/// also survives across repeated executions of the same prepared plan.
#[derive(Debug)]
pub struct PairwiseWorker {
    cur: Intermediate,
    next: Intermediate,
    scratch: Vec<Val>,
    /// `(step, morsel lo, morsel hi)` → the step's left sort permutation (merge
    /// join only; see [`cached_left_perm`]).
    perms: HashMap<(usize, Val, Val), Vec<u32>>,
}

impl PairwiseWorker {
    /// Number of cached merge-join left sort permutations.
    pub fn cached_perms(&self) -> usize {
        self.perms.len()
    }
}

/// The shared budget/statistics ledger of one execution (serial or parallel):
/// per-materialised-step row totals, the streamed row total, and the first budget
/// violation. All counters are atomics so parallel workers aggregate into one
/// global budget.
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
        self.plan.acquire_worker()
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

    /// Parks the worker (buffers + left-permutation cache) in the plan's pool, so
    /// the next execution of the same prepared plan starts with warm caches.
    fn retire_worker(&self, worker: PairwiseWorker) {
        self.plan.release_worker(worker);
    }
}

/// Counts the output of `query` over `instance` with the pairwise engine.
pub fn pairwise_count(
    instance: &Instance,
    query: &Query,
    algo: JoinAlgo,
    limits: &ExecLimits,
) -> Result<u64, BaselineError> {
    pairwise_count_with_stats(instance, query, algo, limits).map(|(count, _)| count)
}

/// Counts the output and also reports materialisation statistics. The final join
/// is streamed into a counter, so the count never materialises the full result.
pub fn pairwise_count_with_stats(
    instance: &Instance,
    query: &Query,
    algo: JoinAlgo,
    limits: &ExecLimits,
) -> Result<(u64, Counters), BaselineError> {
    pairwise_run(instance, query, algo, limits, &mut |_| ControlFlow::Continue(()))
}

/// One-shot convenience over [`PairwisePlan::new`] + [`PairwisePlan::run`]: plans,
/// prepares and runs in a single call. Under repeated traffic, build the plan once
/// and execute it many times instead.
pub fn pairwise_run(
    instance: &Instance,
    query: &Query,
    algo: JoinAlgo,
    limits: &ExecLimits,
    emit: &mut impl FnMut(&[Val]) -> ControlFlow<()>,
) -> Result<(u64, Counters), BaselineError> {
    PairwisePlan::new(instance, query, algo, *limits)?.run(emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{naive_count, CatalogQuery};
    use gj_runtime::{drive, CollectSink, CountSink, FirstK};
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
    fn stats_show_larger_intermediates_on_cyclic_queries_than_output() {
        let inst = random_instance(33, 40, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let (count, stats) =
            pairwise_count_with_stats(&inst, &q, JoinAlgo::Hash, &ExecLimits::default()).unwrap();
        // The open-wedge intermediate is much bigger than the number of triangles —
        // the effect the paper blames for the relational systems' slowness.
        assert!(
            stats.peak_intermediate > count,
            "peak {} vs count {count}",
            stats.peak_intermediate
        );
    }

    #[test]
    fn pairwise_run_streams_deterministic_rows_and_stops_on_break() {
        let inst = random_instance(34, 20, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let mut rows: Vec<Val> = Vec::new();
            let (emitted, _) = pairwise_run(&inst, &q, algo, &ExecLimits::default(), &mut |r| {
                rows.extend_from_slice(r);
                ControlFlow::Continue(())
            })
            .unwrap();
            let width = q.num_vars();
            assert_eq!(emitted as usize, rows.len() / width, "{algo:?}");
            assert_eq!(emitted, naive_count(&inst, &q), "{algo:?}");
            // The streamed order is deterministic and duplicate-free (set semantics).
            let mut sorted: Vec<&[Val]> = rows.chunks_exact(width).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len() as u64, emitted, "{algo:?}");
            // Early exit after two rows yields exactly the engine's first two.
            let mut prefix: Vec<Val> = Vec::new();
            let (two, _) = pairwise_run(&inst, &q, algo, &ExecLimits::default(), {
                &mut |r: &[Val]| {
                    prefix.extend_from_slice(r);
                    if prefix.len() == 2 * width {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                }
            })
            .unwrap();
            assert_eq!(two, 2, "{algo:?}");
            assert_eq!(prefix, rows[..2 * width], "{algo:?}");
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
        let q = gj_query::QueryBuilder::new("wedge")
            .atom("edge", &["a", "b"])
            .atom("edge", &["b", "c"])
            .build();
        let (count, full_stats) =
            pairwise_count_with_stats(&inst, &q, JoinAlgo::Hash, &ExecLimits::default()).unwrap();
        assert!(
            count > full_stats.peak_intermediate,
            "the test needs a streamed output larger than every materialised step"
        );
        let tight = ExecLimits { max_intermediate_rows: count as usize - 1 };
        let err = pairwise_count_with_stats(&inst, &q, JoinAlgo::Hash, &tight).unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateBudgetExceeded { .. }));
        // An exact budget succeeds with identical (materialisation-only) stats: the
        // streamed rows are bounded but never counted as materialised.
        let exact = ExecLimits { max_intermediate_rows: count as usize };
        let (ok, stats) = pairwise_count_with_stats(&inst, &q, JoinAlgo::Hash, &exact).unwrap();
        assert_eq!(ok, count);
        assert_eq!(stats, full_stats);
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
                let plan = PairwisePlan::new(&inst, &q, algo, ExecLimits::default()).unwrap();
                let mut serial: Vec<Val> = Vec::new();
                let (emitted, serial_stats) = plan
                    .run(&mut |row| {
                        serial.extend_from_slice(row);
                        ControlFlow::Continue(())
                    })
                    .unwrap();
                for parts in [2, 5, 16] {
                    let morsels = plan.partition(parts);
                    for threads in [1, 2, 4] {
                        let label = format!("{} {algo:?} parts {parts} threads {threads}", q.name);
                        let source = PairwiseMorsels::new(&plan);
                        let mut sink = CollectSink::new();
                        drive(&source, &morsels, threads, &mut sink);
                        let par_stats = source.finish().unwrap();
                        let flat: Vec<Val> =
                            sink.rows().iter().flat_map(|r| r.iter().copied()).collect();
                        assert_eq!(flat, serial, "{label}");
                        // Per-step aggregates across morsels equal the serial
                        // intermediate sizes.
                        assert_eq!(par_stats, serial_stats, "{label}");
                        let source = PairwiseMorsels::new(&plan);
                        let mut count = CountSink::new();
                        drive(&source, &morsels, threads, &mut count);
                        assert_eq!(count.rows(), emitted, "{label}");
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
        let q = gj_query::QueryBuilder::new("wedge")
            .atom("edge", &["a", "b"])
            .atom("edge", &["b", "c"])
            .build();
        let count = pairwise_count(&inst, &q, JoinAlgo::Hash, &ExecLimits::default()).unwrap();
        let tight = ExecLimits { max_intermediate_rows: count as usize - 1 };
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, tight).unwrap();
        let morsels = plan.partition(16);
        assert!(morsels.len() > 4, "the test needs a real partition");
        let source = PairwiseMorsels::new(&plan);
        let mut sink = CountSink::new();
        drive(&source, &morsels, 4, &mut sink);
        let err = source.finish().unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateBudgetExceeded { .. }), "{err:?}");
        // The exact budget still succeeds in parallel.
        let exact = ExecLimits { max_intermediate_rows: count as usize };
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, exact).unwrap();
        let source = PairwiseMorsels::new(&plan);
        let mut sink = CountSink::new();
        drive(&source, &plan.partition(16), 4, &mut sink);
        assert_eq!(sink.rows(), count);
        source.finish().unwrap();
    }

    #[test]
    fn early_termination_delivers_the_serial_prefix() {
        let inst = random_instance(38, 30, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, ExecLimits::default()).unwrap();
        let mut serial: Vec<Val> = Vec::new();
        plan.run(&mut |row| {
            serial.extend_from_slice(row);
            ControlFlow::Continue(())
        })
        .unwrap();
        assert!(serial.len() >= 3 * q.num_vars(), "the test needs at least three rows");
        let morsels = plan.partition(8);
        let source = PairwiseMorsels::new(&plan);
        let mut sink = FirstK::new(3);
        drive(&source, &morsels, 4, &mut sink);
        source.finish().unwrap();
        let flat: Vec<Val> = sink.into_rows().iter().flat_map(|r| r.iter().copied()).collect();
        assert_eq!(flat, serial[..3 * q.num_vars()]);
    }

    #[test]
    fn worker_buffers_are_reused_across_morsels() {
        let inst = random_instance(39, 30, 0.2);
        let q = CatalogQuery::ThreeClique.query();
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, ExecLimits::default()).unwrap();
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
    fn cached_left_permutations_keep_merge_join_output_identical() {
        // A worker that re-runs the same morsels serves the merge joins from its
        // left-permutation cache; the emitted stream must stay byte-identical and
        // the cache must stop growing once every (step, morsel) pair is seen.
        let inst = random_instance(41, 30, 0.2);
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::ThreePath, CatalogQuery::FourCycle] {
            let q = cq.query();
            let plan =
                PairwisePlan::new(&inst, &q, JoinAlgo::SortMerge, ExecLimits::default()).unwrap();
            let budget = BudgetState::new(usize::MAX, plan.materialised_steps());
            let morsels = plan.partition(6);
            assert!(morsels.len() > 1, "{}: the test needs a real partition", q.name);
            let mut worker = plan.worker();
            assert_eq!(worker.cached_perms(), 0);
            let collect = |worker: &mut PairwiseWorker| -> Vec<Val> {
                let mut rows = Vec::new();
                for m in &morsels {
                    plan.run_range(worker, m.lo, m.hi, &budget, &ExecCtx::none(), &mut |r| {
                        rows.extend_from_slice(r);
                        ControlFlow::Continue(())
                    });
                }
                rows
            };
            let cold = collect(&mut worker);
            let cached = worker.cached_perms();
            assert!(cached > 0, "{}: no permutation was cached", q.name);
            let warm = collect(&mut worker);
            assert_eq!(warm, cold, "{}: cached permutations changed the output", q.name);
            assert_eq!(worker.cached_perms(), cached, "{}: cache kept growing", q.name);
        }
    }

    #[test]
    fn perm_cache_is_bounded_under_varying_partitionings() {
        // A long-lived plan driven with many different partitionings (varying
        // thread counts) must not grow a worker's permutation cache without
        // bound: the cap drops stale generations, and results stay exact.
        let inst = random_instance(44, 40, 0.2);
        let q = CatalogQuery::ThreePath.query();
        let plan =
            PairwisePlan::new(&inst, &q, JoinAlgo::SortMerge, ExecLimits::default()).unwrap();
        let budget = BudgetState::new(usize::MAX, plan.materialised_steps());
        let mut worker = plan.worker();
        let serial = plan.run(&mut |_| ControlFlow::Continue(())).unwrap().0;
        // Hundreds of distinct partitionings -> thousands of distinct keys.
        for parts in 2..200 {
            let mut rows = 0;
            for m in plan.partition(parts) {
                rows +=
                    plan.run_range(&mut worker, m.lo, m.hi, &budget, &ExecCtx::none(), &mut |_| {
                        ControlFlow::Continue(())
                    });
            }
            assert_eq!(rows, serial, "parts {parts}");
            assert!(
                worker.cached_perms() <= PERM_CACHE_CAP,
                "cache exceeded its cap: {} at parts {parts}",
                worker.cached_perms()
            );
        }
    }

    #[test]
    fn worker_pool_survives_across_executions() {
        let inst = random_instance(42, 30, 0.2);
        let q = CatalogQuery::ThreePath.query();
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let plan = PairwisePlan::new(&inst, &q, algo, ExecLimits::default()).unwrap();
            let (first, _) = plan.run(&mut |_| ControlFlow::Continue(())).unwrap();
            // Serial reruns recycle the pooled worker (and its caches).
            let (second, _) = plan.run(&mut |_| ControlFlow::Continue(())).unwrap();
            assert_eq!(first, second, "{algo:?}");
            // Parallel executions retire their workers into the same pool; a
            // rerun over the same morsels must be byte-identical to the cold run.
            let morsels = plan.partition(8);
            let run_par = || {
                let source = PairwiseMorsels::new(&plan);
                let mut sink = CollectSink::new();
                drive(&source, &morsels, 4, &mut sink);
                source.finish().unwrap();
                sink.into_rows()
            };
            let cold = run_par();
            let warm = run_par();
            assert_eq!(cold, warm, "{algo:?}");
            assert_eq!(cold.len() as u64, first, "{algo:?}");
        }
    }

    #[test]
    fn base_budget_aborts_before_the_copy() {
        // A budget smaller than the restricted base must abort the run during the
        // base build; the step-0 aggregate still records the attempted size.
        let inst = random_instance(43, 40, 0.25);
        let q = CatalogQuery::ThreeClique.query();
        let edge_rows = inst.relation("edge").unwrap().len();
        let tight = ExecLimits { max_intermediate_rows: edge_rows - 1 };
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, tight).unwrap();
        let mut emitted = 0u64;
        let err = plan
            .run(&mut |_| {
                emitted += 1;
                ControlFlow::Continue(())
            })
            .unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateBudgetExceeded { .. }));
        assert_eq!(emitted, 0, "the run must abort before any row is produced");
    }

    #[test]
    fn negative_values_survive_the_morsel_partition() {
        // Morsels from `partition` must tile the whole signed axis: the first
        // morsel starts at NEG_INF, so base rows with negative first-column
        // values are not silently dropped by the parallel path.
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs((-10..10).map(|i| (i, i + 1))));
        let q = gj_query::QueryBuilder::new("2-path")
            .atom("r", &["a", "b"])
            .atom("r", &["b", "c"])
            .build();
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let plan = PairwisePlan::new(&inst, &q, algo, ExecLimits::default()).unwrap();
            let mut serial: Vec<Val> = Vec::new();
            let (count, _) = plan
                .run(&mut |row| {
                    serial.extend_from_slice(row);
                    ControlFlow::Continue(())
                })
                .unwrap();
            // b ranges over {-9..=9}: 19 two-paths, most through negative values.
            assert_eq!(count, 19, "{algo:?}");
            let morsels = plan.partition(8);
            assert!(morsels.len() > 1, "the test needs a real partition");
            assert_eq!(morsels[0].lo, gj_storage::NEG_INF, "{algo:?}");
            for threads in [1, 4] {
                let source = PairwiseMorsels::new(&plan);
                let mut sink = CollectSink::new();
                drive(&source, &morsels, threads, &mut sink);
                source.finish().unwrap();
                let flat: Vec<Val> = sink.rows().iter().flat_map(|r| r.iter().copied()).collect();
                assert_eq!(flat, serial, "{algo:?} threads {threads}");
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
        let generous = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, ExecLimits::default()).unwrap();
        let (_, stats) = generous.run(&mut |_| ControlFlow::Continue(())).unwrap();
        // peak is the pre-filter wedge count; a budget just below it must trip.
        let tight = ExecLimits { max_intermediate_rows: stats.peak_intermediate as usize - 1 };
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, tight).unwrap();
        let serial = plan.run(&mut |_| ControlFlow::Continue(())).unwrap_err();
        assert!(matches!(serial, BaselineError::IntermediateBudgetExceeded { .. }));
        let morsels = plan.partition(8);
        assert!(morsels.len() > 1, "the test needs a real partition");
        let source = PairwiseMorsels::new(&plan);
        let mut sink = CountSink::new();
        drive(&source, &morsels, 4, &mut sink);
        let parallel = source.finish().unwrap_err();
        assert!(matches!(parallel, BaselineError::IntermediateBudgetExceeded { .. }));
        // And an exact pre-filter budget succeeds both ways with equal stats.
        let exact = ExecLimits { max_intermediate_rows: stats.peak_intermediate as usize };
        let plan = PairwisePlan::new(&inst, &q, JoinAlgo::Hash, exact).unwrap();
        let (count, serial_stats) = plan.run(&mut |_| ControlFlow::Continue(())).unwrap();
        let source = PairwiseMorsels::new(&plan);
        let mut sink = CountSink::new();
        drive(&source, &plan.partition(8), 4, &mut sink);
        assert_eq!(sink.rows(), count);
        assert_eq!(source.finish().unwrap(), serial_stats);
    }
}
