//! The unified execution sink protocol — re-exported from [`gj_runtime::sink`].
//!
//! The [`Sink`] trait and its concrete implementations moved into `gj-runtime` so
//! the morsel-driven parallel driver and the engines can share them without
//! depending on this crate; the public API here is unchanged. Every sink also
//! implements [`ParallelSink`](crate::ParallelSink), so the same value can be
//! passed to [`PreparedQuery::run_parallel`](crate::PreparedQuery::run_parallel)
//! at any thread count; a closure sink goes through
//! [`Ordered`](crate::Ordered).
//!
//! ```
//! use graphjoin::{CatalogQuery, Database, Engine, FirstK, Graph};
//!
//! let graph = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
//! let mut db = Database::new();
//! db.add_graph(graph);
//!
//! let prepared = db.prepare(&CatalogQuery::ThreeClique.query(), &Engine::Lftj).unwrap();
//! let mut first = FirstK::new(1);
//! prepared.run_parallel(&mut first, 1).unwrap();
//! assert_eq!(first.into_rows(), vec![vec![0, 1, 2]]);
//! ```

pub use gj_runtime::sink::{CollectSink, CountSink, ExistsSink, FirstK, Sink};
