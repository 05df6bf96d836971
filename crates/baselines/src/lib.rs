//! # gj-baselines
//!
//! The comparison systems of the paper's evaluation (Section 5.1), re-implemented as
//! libraries so the benchmark harness can run them side by side with LFTJ and
//! Minesweeper:
//!
//! * [`pairwise`] — a Selinger-style pairwise join engine: a dynamic-programming
//!   optimizer over two-way join orders with textbook cardinality estimation, and a
//!   physical layer that *materialises every intermediate result*, executed with
//!   either hash joins (the row-store / PostgreSQL stand-in) or sort-merge joins (the
//!   column-store / MonetDB stand-in). This reproduces exactly the behaviour the
//!   paper attributes to the relational competitors: on cyclic self-joins the
//!   intermediates explode, regardless of the storage format. The intermediates
//!   themselves are columnar (one flat `len × arity` buffer, no per-row
//!   allocations), and a prepared [`PairwisePlan`] runs one way: over the
//!   `gj-runtime` morsel driver ([`PairwiseMorsels`]), where a serial run is the
//!   one-worker drive and more workers reproduce its row stream exactly.
//! * [`graph_engine`] — a hand-specialised clique counter over CSR adjacency lists
//!   (neighbourhood intersection), standing in for GraphLab's triangle-count /
//!   4-clique programs: very fast, but limited to exactly those patterns.
//!
//! The pairwise engine accepts a budget on materialised rows so the harness can
//! report "timeout" rows (the paper's `-` cells) without actually exhausting memory.

pub mod graph_engine;
mod intermediate;
pub mod pairwise;
mod planner;

pub use graph_engine::GraphEngine;
pub use pairwise::{
    pairwise_count, BaselineError, ExecLimits, JoinAlgo, PairwiseMorsels, PairwisePlan,
    PairwiseWorker,
};
