//! # gj-query
//!
//! Logical query layer for the graph-pattern join engine.
//!
//! This crate contains everything the join algorithms need to know about a query
//! *before* touching the data (Sections 2.1, 4.1, 4.9 and Appendix A of the paper):
//!
//! * [`Query`] / [`Atom`] — natural join queries with optional `x < y` filters, built
//!   through [`QueryBuilder`];
//! * [`Hypergraph`] — the query hypergraph, with α-acyclicity (GYO reduction) and
//!   β-acyclicity (nest-point elimination) tests;
//! * [`gao`] — global attribute orders: validity of a GAO as a nested elimination
//!   order (NEO), the paper's "longest-path NEO" selection heuristic (Minesweeper,
//!   the hybrid), LFTJ's selective-variables-first order estimated from per-column
//!   distinct counts, per-atom index permutations, and the β-acyclic skeleton used
//!   by Idea 7;
//! * [`agm`] — the AGM bound computed from the fractional edge cover LP, solved with
//!   the small dense [`lp`] simplex solver;
//! * [`catalog`] — the exact benchmark queries of Section 5.1 (cliques, cycles,
//!   paths, trees, combs, lollipops);
//! * [`ldbc`] — the LDBC-style social-network workload: multi-relation patterns
//!   (k-hop friends, common-interest triangles, creator–liker–tag paths) over
//!   the typed schema emitted by `gj-datagen`;
//! * [`bind`] — database [`Instance`]s and [`BoundQuery`] (query + GAO + one
//!   GAO-consistent trie index per atom), the common input of every engine;
//! * [`cache`] — the shared, thread-safe [`IndexCache`] that lets prepared queries
//!   reuse trie indexes across bindings (and build misses in parallel);
//! * [`naive`] — an obviously-correct reference enumerator used by tests.

pub mod agm;
pub mod bind;
pub mod cache;
pub mod catalog;
pub mod gao;
pub mod hypergraph;
pub mod ldbc;
pub mod lp;
pub mod naive;
pub mod query;

pub use agm::agm_bound;
pub use bind::{BindReport, BoundAtom, BoundQuery, Instance, RelationLoader};
pub use cache::IndexCache;
pub use catalog::CatalogQuery;
pub use gao::{acyclic_skeleton, atom_index_perm, is_neo, lftj_gao, select_gao};
pub use hypergraph::Hypergraph;
pub use ldbc::LdbcQuery;
pub use naive::{naive_count, naive_join};
pub use query::{Atom, Query, QueryBuilder, VarId};
