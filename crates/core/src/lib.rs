//! # graphjoin
//!
//! A graph-pattern join engine with worst-case optimal and beyond-worst-case join
//! algorithms behind one API — the Rust reproduction of *"Join Processing for Graph
//! Patterns: An Old Dog with New Tricks"*.
//!
//! The library evaluates natural join queries (graph patterns) over in-memory
//! relations with a choice of engines:
//!
//! * [`Engine::Lftj`] — LeapFrog TrieJoin, worst-case optimal (`gj-lftj`);
//! * [`Engine::Minesweeper`] — the beyond-worst-case Minesweeper algorithm with the
//!   paper's Ideas 1–8 (`gj-minesweeper`);
//! * [`Engine::Hybrid`] — Minesweeper on the path part and LFTJ on the clique part of
//!   a lollipop-style query (Section 4.12);
//! * [`Engine::HashJoin`] / [`Engine::SortMergeJoin`] — Selinger-style pairwise
//!   baselines standing in for PostgreSQL / MonetDB (`gj-baselines`);
//! * [`Engine::GraphEngine`] — a hand-specialised clique counter standing in for
//!   GraphLab (`gj-baselines`).
//!
//! The repository-level `ARCHITECTURE.md` maps the whole workspace (crate
//! dependency graph, the prepare/execute split, the `Sink` protocol, the
//! parallel ordering guarantee, per-engine feature matrix); `README.md` has the
//! quickstart and benchmark instructions.
//!
//! # Quick start
//!
//! The primary API is the prepare/execute split: [`Database::prepare`] pays for
//! binding, GAO selection and trie-index construction once (against a shared,
//! database-level index cache), and the returned [`PreparedQuery`] executes any
//! number of times through the unified [`Sink`] protocol. One fallible entry point,
//! [`PreparedQuery::try_run_parallel`], takes any sink, thread count and
//! [`QueryBudget`], and an abort is always its `Err`; `count`, `collect` and the
//! other infallible methods are that call under a budget that cannot trip.
//!
//! ```
//! use graphjoin::{CatalogQuery, Database, Engine, ExistsSink, FirstK};
//! use gj_storage::Graph;
//!
//! // Two triangles sharing the edge (1, 2).
//! let graph = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
//! let mut db = Database::new();
//! db.add_graph(graph);
//!
//! let q = CatalogQuery::ThreeClique.query();
//! // Prepare once: indexes are built now and cached at the database level ...
//! let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
//! // ... then execute as often as needed — serially or on a worker pool (the
//! // morsel-driven runtime partitions the first GAO attribute across threads).
//! assert_eq!(prepared.count().unwrap(), 2);
//! assert_eq!(prepared.par_count(4).unwrap(), 2);
//! assert_eq!(prepared.par_collect(4).unwrap(), prepared.collect().unwrap());
//! // Any other answer is a sink: the first k rows, an existence probe, ...
//! let mut first = FirstK::new(1);
//! prepared.run_parallel(&mut first, 1).unwrap();
//! assert_eq!(first.into_rows(), vec![vec![0, 1, 2]]);
//! let mut exists = ExistsSink::new();
//! prepared.run_parallel(&mut exists, 4).unwrap();
//! assert!(exists.found());
//!
//! // A second preparation — here with another engine — reuses the cached indexes.
//! let warm = db.prepare(&q, &Engine::minesweeper()).unwrap();
//! assert_eq!(warm.indexes_built(), 0);
//! assert_eq!(warm.count().unwrap(), 2);
//!
//! // One-shot shims remain for convenience.
//! assert_eq!(db.count(&q, &Engine::Lftj).unwrap(), 2);
//! ```

/// The [`Database`] façade: load relations, pick an [`Engine`], run queries.
pub mod database;
/// Disk persistence: [`Database::open`], [`Database::persist`], durable commits.
pub mod persist;
/// Prepared queries: bind once, run many, inspect [`RunStats`].
pub mod prepare;
/// Result sinks: collect, count, existence probe, first-k.
pub mod sink;
/// The paper's workload: canned queries and the generator-backed instances.
pub mod workload;

pub use database::{symmetrize, Database, Engine, EngineError, QueryOutput};
pub use prepare::{PreparedQuery, RunStats};
pub use sink::{CollectSink, CountSink, ExistsSink, FirstK, Sink};
pub use workload::{workload_database, Workload};

// The morsel-driven parallel runtime (`gj-runtime`): the sink shard layer for
// `PreparedQuery::run_parallel`, the building blocks for custom drivers, and the
// error-model types (typed aborts, cancellation, budgets) of
// `PreparedQuery::try_run_parallel`.
pub use gj_runtime::{
    drive, partition_first_attribute, try_drive, CancelToken, Counters, DriveReport, ExecCtx,
    ExecError, ExecMonitor, ExecWatch, JobQueue, Morsel, MorselSource, Ordered, ParallelSink,
    QueryBudget, ShardSink, CHECK_STRIDE,
};

// Re-export the pieces users of the façade routinely need.
pub use gj_baselines::{ExecLimits, JoinAlgo};
pub use gj_datagen::{Dataset, DatasetSpec};
pub use gj_minesweeper::MsConfig;
pub use gj_query::{
    agm_bound, naive_count, naive_join, BoundQuery, CatalogQuery, Hypergraph, IndexCache, Instance,
    LdbcQuery, Query, QueryBuilder, VarId,
};
// The fault-injection harness (`gj-storage::fault`): named failpoint sites the
// tests arm through `QueryBudget::with_failpoints` / `IndexCache::set_failpoints`.
pub use gj_storage::{fault, FailAction, FailpointHit, FailpointRegistry};
pub use gj_storage::{Graph, Relation, TrieIndex, Val};
// The paged disk store (`gj-store`) behind `Database::open` / `persist`:
// buffer-pool statistics and the typed store error surface.
pub use gj_store::{PoolStats, Store, StoreError, PAGE_SIZE};
