//! # gj-storage
//!
//! Storage substrate for the graph-pattern join engine.
//!
//! This crate implements the pieces of the LogicBlox storage layer that the paper's
//! join algorithms rely on (Section 4.1, Figure 1 of the paper):
//!
//! * [`Relation`] — a sorted, deduplicated, fixed-arity relation of integer tuples.
//! * [`TrieIndex`] — a *flat trie* built over a relation for a given attribute
//!   permutation, exposing the LeapFrog TrieJoin iterator interface
//!   ([`TrieIterator`]: `open`/`up`/`next`/`seek`) as well as the least-upper-bound /
//!   greatest-lower-bound probes ([`TrieIndex::probe`]) that Minesweeper's gap
//!   extraction (`seekGap`) needs.
//! * [`Graph`] — an edge-list / CSR view of a graph used by the data generators, the
//!   specialised graph-engine baseline, and the dataset catalog.
//!
//! # Flat columnar storage layout
//!
//! A [`Relation`] stores its tuples in **one contiguous row-major buffer** of
//! `len × arity` values — there is no per-row allocation anywhere in the hot paths.
//! Rows are handed out as zero-copy `&[Val]` slices ([`Relation::row`],
//! [`Relation::iter`]), and all reordering (construction-time sorting, permuted
//! orders for index builds) happens through row-*index* permutations over the flat
//! buffer ([`Relation::sorted_row_order`]).
//!
//! # Zero-materialization index builds
//!
//! [`TrieIndex::build`] upholds the invariant that **no intermediate permuted
//! relation is ever materialized**: for any attribute permutation it sorts a row
//! index array with stable counting passes (none for the identity order, since
//! relations keep their rows sorted) and streams the trie level arrays directly out
//! of the relation's flat buffer through that order. A property test
//! (`tests/prop_trie.rs::flat_build_is_identical_to_build_through_permuted_relation`)
//! checks the result is structurally identical to the natural build of the
//! permuted rows, sorted by [`Relation::from_rows`]. The per-relation maximum value
//! is cached on the relation and copied into every index at build time, so
//! [`TrieIndex::max_value`] — which Minesweeper consults on every bind — is a field
//! read, not a level rescan.
//!
//! Values are [`Val`] (`i64`). Minesweeper uses the sentinels [`NEG_INF`] and
//! [`POS_INF`] for the open ends of gap intervals; real data must stay strictly within
//! `(NEG_INF, POS_INF)`, which every loader in this workspace guarantees (node
//! identifiers are non-negative and far below `i64::MAX`).

pub mod fault;
pub mod graph;
pub mod relation;
pub mod trie;
pub mod value;

pub use fault::{FailAction, FailpointHit, FailpointRegistry};
pub use graph::{Csr, Graph};
pub use relation::Relation;
pub use trie::{ProbeCursor, ProbeResult, TrieIndex, TrieIterator};
pub use value::{is_finite, Tuple, Val, NEG_INF, POS_INF};
