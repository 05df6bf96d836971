//! The [`Database`] façade and engine dispatch.
//!
//! A [`Database`] owns a set of named relations, a shared [`IndexCache`] of trie
//! indexes, and prepares [`Query`]s for whichever [`Engine`] the caller selects.
//! This mirrors how the paper's experiments drive one system with many
//! algorithms: the data and the query stay fixed, only the join algorithm
//! changes — and under the prepare/execute split, the indexes are built once and
//! amortised across every execution and every engine.
//!
//! The primary API is [`Database::prepare`] →
//! [`PreparedQuery`]; [`Database::count`] /
//! [`Database::enumerate`] remain as thin one-shot shims (deprecated in spirit: they
//! prepare and execute in one call, but still benefit from the shared index cache).

use crate::prepare::PreparedQuery;
use gj_baselines::{BaselineError, ExecLimits};
use gj_minesweeper::MsConfig;
use gj_query::{BoundQuery, CatalogQuery, IndexCache, Instance, Query, VarId};
use gj_runtime::{panic_payload, ExecError};
use gj_storage::{Graph, Relation, Val};
use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Which join engine evaluates a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// LeapFrog TrieJoin (worst-case optimal).
    Lftj,
    /// Minesweeper with the given configuration (beyond worst-case).
    Minesweeper(MsConfig),
    /// The Minesweeper + LFTJ hybrid of Section 4.12. `split` is the number of
    /// leading variables forming the path part (see [`CatalogQuery::hybrid_split`]).
    Hybrid { split: usize, config: MsConfig },
    /// Selinger-style pairwise plans executed with hash joins (PostgreSQL stand-in).
    HashJoin(ExecLimits),
    /// Selinger-style pairwise plans executed with sort-merge joins (MonetDB
    /// stand-in).
    SortMergeJoin(ExecLimits),
    /// Hand-specialised clique counting over adjacency lists (GraphLab stand-in).
    /// Only supports the 3-clique and 4-clique catalog queries.
    GraphEngine,
}

impl Engine {
    /// Minesweeper with the default configuration (all ideas enabled).
    pub fn minesweeper() -> Engine {
        Engine::Minesweeper(MsConfig::default())
    }

    /// The hybrid engine for a catalog query that supports it.
    pub fn hybrid_for(query: CatalogQuery) -> Option<Engine> {
        query.hybrid_split().map(|split| Engine::Hybrid { split, config: MsConfig::default() })
    }

    /// Short name used in the benchmark tables (mirrors the paper's row labels).
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Lftj => "lb/lftj",
            Engine::Minesweeper(_) => "lb/ms",
            Engine::Hybrid { .. } => "lb/hybrid",
            Engine::HashJoin(_) => "psql",
            Engine::SortMergeJoin(_) => "monetdb",
            Engine::GraphEngine => "graphlab",
        }
    }
}

/// Errors surfaced by [`Database::prepare`] and the executions of a
/// [`PreparedQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query could not be bound against the stored relations.
    Bind(String),
    /// A pairwise baseline exceeded its materialisation budget or hit another error.
    Baseline(BaselineError),
    /// The selected engine does not support this query (e.g. the graph engine on a
    /// path query, or the hybrid on a query that cannot be split).
    Unsupported(String),
    /// The execution was aborted early but cleanly: budget, deadline, cancellation,
    /// or a panic caught at a worker boundary (see [`ExecError`]). Surfaced by the
    /// `try_*` executions of a [`PreparedQuery`] and by panic-safe preparation.
    Exec(ExecError),
    /// An incremental edit batch was rejected: unknown relation, arity mismatch, or
    /// sentinel/out-of-domain values (see [`Database::insert_rows`]).
    Edit(String),
    /// The attached disk store failed during a durable mutation (see
    /// `Database::commit_edits` in the persistence module).
    Store(gj_store::StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Bind(msg) => write!(f, "binding failed: {msg}"),
            EngineError::Baseline(err) => write!(f, "baseline execution failed: {err}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            EngineError::Exec(err) => write!(f, "execution aborted: {err}"),
            EngineError::Edit(msg) => write!(f, "edit rejected: {msg}"),
            EngineError::Store(err) => write!(f, "store error: {err}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<gj_store::StoreError> for EngineError {
    fn from(err: gj_store::StoreError) -> Self {
        EngineError::Store(err)
    }
}

impl From<BaselineError> for EngineError {
    fn from(err: BaselineError) -> Self {
        EngineError::Baseline(err)
    }
}

impl From<ExecError> for EngineError {
    fn from(err: ExecError) -> Self {
        EngineError::Exec(err)
    }
}

/// Runs a preparation under `catch_unwind`: a panic anywhere in binding or index
/// construction (including an armed `trie_build` failpoint) surfaces as
/// [`EngineError::Exec`]\([`ExecError::WorkerPanicked`]\) instead of unwinding
/// through the caller. The shared index cache recovers from the poisoned locks a
/// mid-build panic leaves behind, so the database stays usable.
fn catch_prepare<'db>(
    f: impl FnOnce() -> Result<PreparedQuery<'db>, EngineError>,
) -> Result<PreparedQuery<'db>, EngineError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            Err(EngineError::Exec(ExecError::WorkerPanicked { payload: panic_payload(payload) }))
        }
    }
}

/// The result of an enumeration: bindings in variable-id order.
pub type QueryOutput = Vec<Vec<Val>>;

/// An in-memory database of named relations with a shared trie-index cache that
/// amortises index builds across prepared queries. A graph is held as its
/// symmetric `"edge"` relation only; [`graph`](Self::graph) derives it on demand.
///
/// A database can additionally be *disk-backed* (see [`Database::open`] and
/// [`Database::persist`] in the persistence module): relations then hydrate
/// lazily from a [`gj_store::Store`] on first query, and mutations can be made
/// durable through the store's write-ahead log. Cloning a disk-backed database
/// shares the attached store (both clones commit to the same WAL).
#[derive(Debug, Clone)]
pub struct Database {
    instance: Instance,
    cache: IndexCache,
    prepare_threads: usize,
    store: Option<Arc<gj_store::Store>>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            instance: Instance::default(),
            cache: IndexCache::new(),
            prepare_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            store: None,
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a relation, dropping any cached indexes built over a
    /// previous relation of the same name. Takes a [`Relation`] or an
    /// `Arc<Relation>` (stored without a copy).
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        relation: impl Into<Arc<Relation>>,
    ) -> &mut Self {
        let name = name.into();
        self.cache.invalidate(&name);
        self.instance.add_relation(name, relation);
        self
    }

    /// Loads a graph as its symmetric `edge(a, b)` relation, replacing any
    /// `"edge"` relation before it. The graph itself is not kept: the
    /// specialised graph engine derives its adjacency from `"edge"` when it
    /// prepares. Accepts an owned, borrowed or shared [`Graph`].
    pub fn add_graph(&mut self, graph: impl Borrow<Graph>) -> &mut Self {
        self.add_relation("edge", graph.borrow().edge_relation())
    }

    /// Inserts `rows` into relation `name` incrementally: the stored relation is
    /// merged in O(n + k), and every cached trie index stacks the rows onto its own
    /// delta layer in O(k × permutations) — no index is rebuilt (see
    /// [`IndexCache::apply_edits`]). Rows already present are ignored. Returns the
    /// number of rows actually inserted.
    ///
    /// Like `add_relation`, the edit is memory-only even on a disk-backed
    /// database; use `commit_edits` (persistence module) for a WAL-durable edit.
    pub fn insert_rows(&mut self, name: &str, rows: &[Vec<Val>]) -> Result<usize, EngineError> {
        self.edit_rows(name, rows, &[])
    }

    /// Deletes `rows` from relation `name` incrementally: each cached index stacks
    /// the rows onto its own delta layer, as tombstones or as cancelled pending
    /// inserts; no base trie is rebuilt. Rows not present are ignored. Returns the
    /// number of rows actually deleted.
    pub fn delete_rows(&mut self, name: &str, rows: &[Vec<Val>]) -> Result<usize, EngineError> {
        self.edit_rows(name, &[], rows)
    }

    /// Applies one edit batch to relation `name`: `del` rows leave, `ins` rows
    /// enter, and a row named in both is deleted (the same convention as
    /// [`Relation::with_edits`]). Returns `inserted + deleted` effective rows.
    ///
    /// An insert into `"edge"` must keep every endpoint inside the graph's `u32`
    /// node domain, so the graph engine can still read the relation.
    pub fn edit_rows(
        &mut self,
        name: &str,
        ins: &[Vec<Val>],
        del: &[Vec<Val>],
    ) -> Result<usize, EngineError> {
        match self.stage_edits(name, ins, del)? {
            Some(staged) => Ok(self.apply_staged(name, staged)),
            None => Ok(0),
        }
    }

    /// Validates an edit batch against relation `name` and computes everything
    /// applying it needs, so that nothing can fail after this returns: the
    /// *effective* deltas (inserts that are new and not simultaneously deleted,
    /// deletes that currently exist — exactly what each cached index's `with_edits`
    /// requires, and what makes the edit count meaningful) and the edited
    /// relation. `None` when the batch changes nothing. Shared by
    /// [`edit_rows`](Self::edit_rows) and the durable `commit_edits` path,
    /// which must fail *before* touching the WAL: a logged batch the in-memory
    /// apply rejected would be replayed on every reopen.
    pub(crate) fn stage_edits(
        &self,
        name: &str,
        ins: &[Vec<Val>],
        del: &[Vec<Val>],
    ) -> Result<Option<StagedEdit>, EngineError> {
        let current = self
            .instance
            .relation(name)
            .ok_or_else(|| EngineError::Edit(format!("unknown relation {name:?}")))?;
        let arity = current.arity();
        for row in ins.iter().chain(del) {
            if row.len() != arity {
                return Err(EngineError::Edit(format!(
                    "row {row:?} has arity {}, relation {name:?} has arity {arity}",
                    row.len()
                )));
            }
            if !row.iter().all(|&v| gj_storage::is_finite(v)) {
                return Err(EngineError::Edit(format!("row {row:?} contains a sentinel value")));
            }
        }
        if name == "edge" {
            if let Some(row) = ins.iter().find(|row| row.iter().any(|&v| u32::try_from(v).is_err()))
            {
                return Err(EngineError::Edit(format!(
                    "edge {row:?} has endpoints outside the graph node domain"
                )));
            }
        }
        let del_batch = Relation::from_rows(arity, del.to_vec());
        let eff_ins = Relation::from_rows(
            arity,
            ins.iter()
                .filter(|r| !current.contains(r) && !del_batch.contains(r))
                .cloned()
                .collect::<Vec<_>>(),
        );
        let eff_del = Relation::from_rows(
            arity,
            del.iter().filter(|r| current.contains(r)).cloned().collect::<Vec<_>>(),
        );
        if eff_ins.is_empty() && eff_del.is_empty() {
            return Ok(None);
        }
        let updated = current.with_edits(&eff_ins, &eff_del);
        Ok(Some(StagedEdit { ins: eff_ins, del: eff_del, updated }))
    }

    /// Installs a batch staged by [`stage_edits`](Self::stage_edits): relation
    /// and cached indexes. Returns the number of effective rows.
    pub(crate) fn apply_staged(&mut self, name: &str, staged: StagedEdit) -> usize {
        self.cache.apply_edits(name, &staged.ins, &staged.del, &staged.updated);
        self.instance.add_relation(name, staged.updated);
        staged.ins.len() + staged.del.len()
    }

    /// Inserts undirected edges incrementally: both orientations enter the
    /// `"edge"` relation (self-loops are ignored, matching [`Graph::new`]) and
    /// every cached index is delta-updated. Returns the number of directed rows
    /// actually inserted.
    pub fn insert_edges(&mut self, edges: &[(u32, u32)]) -> Result<usize, EngineError> {
        self.edit_rows("edge", &symmetrize(edges), &[])
    }

    /// Deletes undirected edges incrementally (both orientations leave the
    /// `"edge"` relation). Returns the number of directed rows actually deleted.
    pub fn delete_edges(&mut self, edges: &[(u32, u32)]) -> Result<usize, EngineError> {
        self.edit_rows("edge", &[], &symmetrize(edges))
    }

    /// The underlying instance (relation catalog).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The attached disk store, if this database was opened from (or persisted
    /// and re-attached to) one.
    pub fn store(&self) -> Option<&Arc<gj_store::Store>> {
        self.store.as_ref()
    }

    /// Mutable catalog access for the persistence module (lazy-slot installs).
    pub(crate) fn instance_mut(&mut self) -> &mut Instance {
        &mut self.instance
    }

    /// Attaches the disk store that backs this database.
    pub(crate) fn set_store(&mut self, store: Arc<gj_store::Store>) {
        self.store = Some(store);
    }

    /// The graph the `"edge"` relation holds, derived from it on each call
    /// (node count: one past the largest endpoint). `None` when there is no
    /// binary `"edge"` relation or an endpoint lies outside `u32`.
    pub fn graph(&self) -> Option<Graph> {
        self.edge_graph().ok()
    }

    /// [`graph`](Self::graph), with the reason when there is none: the graph
    /// engine reports it as [`EngineError::Unsupported`].
    pub(crate) fn edge_graph(&self) -> Result<Graph, String> {
        let edge =
            self.instance.relation("edge").ok_or("the graph engine needs an edge relation")?;
        if edge.arity() != 2 {
            return Err(format!(
                "the graph engine needs a binary edge relation, not arity {}",
                edge.arity()
            ));
        }
        Graph::from_edge_relation(edge)
            .map_err(|(a, b)| format!("edge ({a}, {b}) lies outside the graph node domain"))
    }

    /// The database-level trie-index cache shared by every preparation. Exposed so
    /// benchmarks can [`clear`](IndexCache::clear) it to measure cold preparations.
    pub fn cache(&self) -> &IndexCache {
        &self.cache
    }

    /// Number of worker threads [`prepare`](Self::prepare) shards index builds
    /// across: the machine's available parallelism.
    pub fn prepare_threads(&self) -> usize {
        self.prepare_threads
    }

    /// Prepares `query` for repeated execution with `engine`: validation, GAO
    /// selection and trie-index construction happen now (against the shared index
    /// cache); every execution of the returned [`PreparedQuery`] only pays the run
    /// itself.
    ///
    /// ```
    /// use graphjoin::{CatalogQuery, Database, Engine, ExistsSink, Graph};
    ///
    /// // Two triangles sharing the edge (1, 2).
    /// let graph = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
    /// let mut db = Database::new();
    /// db.add_graph(graph);
    ///
    /// // Prepare once (builds the trie indexes) ...
    /// let prepared = db.prepare(&CatalogQuery::ThreeClique.query(), &Engine::Lftj)?;
    /// assert!(prepared.indexes_built() > 0);
    /// // ... execute many times: count, collect, or any sink.
    /// assert_eq!(prepared.count()?, 2);
    /// assert_eq!(prepared.collect()?.len(), 2);
    /// let mut exists = ExistsSink::new();
    /// prepared.run_parallel(&mut exists, 1)?;
    /// assert!(exists.found());
    ///
    /// // A second prepare — same query, different engine — finds the shared
    /// // index cache warm and builds nothing.
    /// let warm = db.prepare(&CatalogQuery::ThreeClique.query(), &Engine::minesweeper())?;
    /// assert_eq!(warm.indexes_built(), 0);
    /// assert_eq!(warm.count()?, 2);
    /// # Ok::<(), graphjoin::EngineError>(())
    /// ```
    pub fn prepare(
        &self,
        query: &Query,
        engine: &Engine,
    ) -> Result<PreparedQuery<'_>, EngineError> {
        catch_prepare(|| PreparedQuery::new(self, query, engine, None))
    }

    /// Like [`prepare`](Self::prepare), with an explicit GAO (LFTJ and Minesweeper
    /// only; the other engines ignore it).
    pub fn prepare_with_gao(
        &self,
        query: &Query,
        engine: &Engine,
        gao: Option<Vec<VarId>>,
    ) -> Result<PreparedQuery<'_>, EngineError> {
        catch_prepare(|| PreparedQuery::new(self, query, engine, gao))
    }

    /// Binds a query against the stored relations under an optional explicit GAO,
    /// taking indexes from the shared cache.
    pub fn bind(&self, query: &Query, gao: Option<Vec<VarId>>) -> Result<BoundQuery, EngineError> {
        BoundQuery::with_cache(&self.instance, query, gao, &self.cache, self.prepare_threads)
            .map(|(bq, _)| bq)
            .map_err(EngineError::Bind)
    }

    /// Counts the query's output with the selected engine.
    ///
    /// One-shot shim over [`prepare`](Self::prepare) +
    /// [`count`](crate::PreparedQuery::count), kept for convenience and backwards
    /// compatibility; under repeated traffic, prepare once and execute many times.
    pub fn count(&self, query: &Query, engine: &Engine) -> Result<u64, EngineError> {
        self.count_with_gao(query, engine, None)
    }

    /// Counts the query's output with the selected engine under an explicit GAO
    /// (LFTJ and Minesweeper only; the other engines ignore the GAO).
    ///
    /// One-shot shim over [`prepare_with_gao`](Self::prepare_with_gao) +
    /// [`count`](crate::PreparedQuery::count).
    pub fn count_with_gao(
        &self,
        query: &Query,
        engine: &Engine,
        gao: Option<Vec<VarId>>,
    ) -> Result<u64, EngineError> {
        self.prepare_with_gao(query, engine, gao)?.count()
    }

    /// Enumerates the query's output (bindings in variable-id order, sorted) with
    /// the selected engine. The graph engine and the hybrid only produce counts.
    ///
    /// One-shot shim over [`prepare`](Self::prepare) +
    /// [`collect`](crate::PreparedQuery::collect) (plus a sort, for a deterministic
    /// cross-engine order).
    pub fn enumerate(&self, query: &Query, engine: &Engine) -> Result<QueryOutput, EngineError> {
        let mut rows = self.prepare(query, engine)?.collect()?;
        rows.sort_unstable();
        Ok(rows)
    }
}

/// Both orientations of each undirected edge as `"edge"` relation rows,
/// self-loops dropped: the rows [`Database::insert_edges`] and
/// [`Database::delete_edges`] pass to [`Database::edit_rows`].
pub fn symmetrize(edges: &[(u32, u32)]) -> Vec<Vec<Val>> {
    let mut rows = Vec::with_capacity(edges.len() * 2);
    for &(a, b) in edges {
        if a != b {
            rows.push(vec![Val::from(a), Val::from(b)]);
            rows.push(vec![Val::from(b), Val::from(a)]);
        }
    }
    rows
}

/// An edit batch that [`Database::stage_edits`] validated and fully computed:
/// installing it with [`Database::apply_staged`] cannot fail.
pub(crate) struct StagedEdit {
    /// Effective inserts.
    pub(crate) ins: Relation,
    /// Effective deletes.
    pub(crate) del: Relation,
    /// The relation with the batch applied.
    updated: Relation,
}

/// Structural equality of two queries up to variable names: same atoms (relation name
/// + variable indices) and same filters.
pub(crate) fn same_shape(a: &Query, b: &Query) -> bool {
    a.num_vars() == b.num_vars()
        && a.atoms.len() == b.atoms.len()
        && a.atoms.iter().zip(&b.atoms).all(|(x, y)| x.relation == y.relation && x.vars == y.vars)
        && a.filters == b.filters
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::naive_count;

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

    #[test]
    fn every_engine_counts_triangles_identically() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let engines = [
            Engine::Lftj,
            Engine::minesweeper(),
            Engine::HashJoin(ExecLimits::default()),
            Engine::SortMergeJoin(ExecLimits::default()),
            Engine::GraphEngine,
        ];
        for engine in engines {
            assert_eq!(db.count(&q, &engine).unwrap(), 2, "{}", engine.label());
        }
    }

    #[test]
    fn all_catalog_queries_agree_across_general_purpose_engines() {
        let db = two_triangle_db();
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let expected = naive_count(db.instance(), &q);
            for engine in [
                Engine::Lftj,
                Engine::minesweeper(),
                Engine::HashJoin(ExecLimits::default()),
                Engine::SortMergeJoin(ExecLimits::default()),
            ] {
                assert_eq!(
                    db.count(&q, &engine).unwrap(),
                    expected,
                    "{} {}",
                    q.name,
                    engine.label()
                );
            }
            if let Some(hybrid) = Engine::hybrid_for(cq) {
                assert_eq!(db.count(&q, &hybrid).unwrap(), expected, "{} hybrid", q.name);
            }
        }
    }

    #[test]
    fn enumerate_returns_sorted_bindings() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        let rows = db.enumerate(&q, &Engine::Lftj).unwrap();
        assert_eq!(rows, vec![vec![0, 1, 2], vec![1, 2, 3]]);
        assert_eq!(db.enumerate(&q, &Engine::minesweeper()).unwrap(), rows);
        // The pairwise baselines now enumerate natively through the sink protocol.
        assert_eq!(db.enumerate(&q, &Engine::HashJoin(ExecLimits::default())).unwrap(), rows);
    }

    #[test]
    fn graph_engine_rejects_non_clique_queries() {
        let db = two_triangle_db();
        let err = db.count(&CatalogQuery::ThreePath.query(), &Engine::GraphEngine).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn missing_relation_is_a_bind_error() {
        let db = Database::new();
        let err = db.count(&CatalogQuery::ThreeClique.query(), &Engine::Lftj).unwrap_err();
        assert!(matches!(err, EngineError::Bind(_)));
    }

    #[test]
    fn baseline_budget_errors_are_propagated() {
        let db = two_triangle_db();
        let q = CatalogQuery::FourClique.query();
        let tiny = ExecLimits { max_intermediate_rows: 1 };
        let err = db.count(&q, &Engine::HashJoin(tiny)).unwrap_err();
        assert!(matches!(err, EngineError::Baseline(_)));
    }

    #[test]
    fn explicit_gao_is_honoured() {
        let db = two_triangle_db();
        let q = CatalogQuery::FourPath.query();
        let v = |s: &str| q.var(s).unwrap();
        let gao = vec![v("c"), v("b"), v("a"), v("d"), v("e")];
        let expected = db.count(&q, &Engine::Lftj).unwrap();
        assert_eq!(db.count_with_gao(&q, &Engine::Lftj, Some(gao.clone())).unwrap(), expected);
        assert_eq!(db.count_with_gao(&q, &Engine::minesweeper(), Some(gao)).unwrap(), expected);
    }

    #[test]
    fn engine_labels_match_the_paper_rows() {
        assert_eq!(Engine::Lftj.label(), "lb/lftj");
        assert_eq!(Engine::minesweeper().label(), "lb/ms");
        assert_eq!(Engine::hybrid_for(CatalogQuery::TwoLollipop).unwrap().label(), "lb/hybrid");
        assert_eq!(Engine::HashJoin(ExecLimits::default()).label(), "psql");
        assert_eq!(Engine::SortMergeJoin(ExecLimits::default()).label(), "monetdb");
        assert_eq!(Engine::GraphEngine.label(), "graphlab");
    }

    #[test]
    fn clones_share_relations_and_an_edit_moves_only_its_own_pointer() {
        let db = two_triangle_db();
        let mut edited = db.clone();
        let names: Vec<String> = db.instance().relation_names().map(str::to_string).collect();
        let same = |a: &Database, b: &Database, n: &str| {
            std::ptr::eq(a.instance().relation(n).unwrap(), b.instance().relation(n).unwrap())
        };
        assert!(names.iter().all(|n| same(&db, &edited, n)), "a clone copies no relation");
        let before: *const Relation = db.instance().relation("v1").unwrap();
        assert_eq!(edited.insert_rows("v1", &[vec![4]]).unwrap(), 1);
        assert!(!same(&db, &edited, "v1"), "the edit replaced the clone's slot");
        assert!(std::ptr::eq(before, db.instance().relation("v1").unwrap()));
        assert_eq!(db.instance().relation("v1").unwrap().flat_values(), &[0, 1, 3]);
        assert!(names.iter().filter(|n| *n != "v1").all(|n| same(&db, &edited, n)));
    }

    #[test]
    fn add_graph_accepts_owned_borrowed_and_shared_graphs_and_keeps_none() {
        let graph = Arc::new(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2)]));
        let mut db = Database::new();
        db.add_graph(Arc::clone(&graph));
        assert_eq!(Arc::strong_count(&graph), 1, "the database holds only the edge relation");
        db.add_graph(graph.as_ref()).add_graph(graph.as_ref().clone());
        assert_eq!(db.count(&CatalogQuery::ThreeClique.query(), &Engine::GraphEngine).unwrap(), 1);
        // The one-shot `count` shims still warm the shared cache (for the engines
        // that consume trie indexes).
        assert_eq!(db.count(&CatalogQuery::ThreeClique.query(), &Engine::Lftj).unwrap(), 1);
        assert!(!db.cache().is_empty());
    }

    #[test]
    fn incremental_edits_keep_every_engine_correct_without_rebuilds() {
        let mut db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        // Warm the cache for the trie-consuming engines.
        assert_eq!(db.count(&q, &Engine::Lftj).unwrap(), 2);
        // Close the triangle (0, 3): edges (0,1),(1,3) and (0,2),(2,3) exist.
        assert_eq!(db.insert_edges(&[(0, 3)]).unwrap(), 2);
        // Delete edge (0, 1): kills triangles {0,1,2} and {0,1,3}.
        assert_eq!(db.delete_edges(&[(0, 1)]).unwrap(), 2);
        let expected = naive_count(db.instance(), &q);
        for engine in [
            Engine::Lftj,
            Engine::minesweeper(),
            Engine::HashJoin(ExecLimits::default()),
            Engine::SortMergeJoin(ExecLimits::default()),
            Engine::GraphEngine,
        ] {
            let prepared = db.prepare(&q, &engine).unwrap();
            assert_eq!(
                prepared.indexes_built(),
                0,
                "{}: edits must not rebuild cached indexes",
                engine.label()
            );
            assert_eq!(prepared.count().unwrap(), expected, "{}", engine.label());
        }
    }

    #[test]
    fn edits_are_idempotent_and_report_effective_rows() {
        let mut db = two_triangle_db();
        assert_eq!(db.insert_edges(&[(0, 1)]).unwrap(), 0, "edge already present");
        assert_eq!(db.delete_edges(&[(0, 4)]).unwrap(), 0, "edge never existed");
        assert_eq!(db.insert_edges(&[(2, 2)]).unwrap(), 0, "self-loops are dropped");
        assert_eq!(db.insert_rows("v1", &[vec![1], vec![9]]).unwrap(), 1);
        assert_eq!(db.delete_rows("v1", &[vec![9], vec![7]]).unwrap(), 1);
        // A row named in both halves of one batch is deleted (delete wins).
        assert_eq!(db.edit_rows("v1", &[vec![0]], &[vec![0]]).unwrap(), 1);
        assert!(!db.instance().relation("v1").unwrap().contains(&[0]));
    }

    #[test]
    fn malformed_edit_batches_are_rejected() {
        let mut db = two_triangle_db();
        assert!(matches!(db.insert_rows("nope", &[vec![1]]), Err(EngineError::Edit(_))));
        assert!(matches!(db.insert_rows("v1", &[vec![1, 2]]), Err(EngineError::Edit(_))));
        assert!(matches!(
            db.insert_rows("v1", &[vec![gj_storage::POS_INF]]),
            Err(EngineError::Edit(_))
        ));
        // A failed batch leaves the relation untouched.
        assert_eq!(db.instance().relation("v1").unwrap().len(), 3);
    }

    #[test]
    fn the_graph_view_follows_edge_edits() {
        let mut db = two_triangle_db();
        assert_eq!(db.graph().unwrap().num_nodes(), 5);
        // Endpoint 7 is outside the current node range; the graph grows.
        db.insert_edges(&[(4, 7), (3, 7)]).unwrap();
        assert_eq!(db.graph().unwrap().num_nodes(), 8);
        let q = CatalogQuery::ThreeClique.query();
        assert_eq!(db.count(&q, &Engine::GraphEngine).unwrap(), naive_count(db.instance(), &q));
        // The node count is one past the largest endpoint left.
        db.delete_edges(&[(4, 7), (3, 7)]).unwrap();
        assert_eq!(db.graph().unwrap().num_nodes(), 5);
        assert_eq!(db.count(&q, &Engine::GraphEngine).unwrap(), naive_count(db.instance(), &q));
    }

    #[test]
    fn cloned_databases_start_warm_but_diverge() {
        let db = two_triangle_db();
        let q = CatalogQuery::ThreeClique.query();
        db.count(&q, &Engine::Lftj).unwrap();
        assert!(!db.cache().is_empty());
        let clone = db.clone();
        assert_eq!(clone.prepare(&q, &Engine::Lftj).unwrap().indexes_built(), 0);
        clone.cache().clear();
        assert!(!db.cache().is_empty(), "clearing the clone must not touch the original");
    }
}
