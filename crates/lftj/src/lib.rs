//! # gj-lftj
//!
//! LeapFrog TrieJoin (LFTJ) — the worst-case optimal multiway join algorithm of
//! Veldhuizen, as used inside LogicBlox and described in Section 2.2 / Algorithm 1 of
//! the paper.
//!
//! LFTJ processes the query variables one at a time in the global attribute order.
//! For the current variable it intersects, by *leapfrogging*, the sorted value lists
//! exposed by the trie iterators of every atom that contains the variable; for each
//! value in the intersection it descends into the next variable, and it backtracks
//! when a level is exhausted. Its running time is `Õ(N + AGM(Q))` for every query —
//! worst-case optimal — which is what lets it avoid the exploding intermediate
//! results that pairwise (Selinger-style) plans materialise on cyclic graph patterns.
//!
//! Each level's intersection is one leapfrog loop over a cursor per atom: the
//! atom's open trie level as a slice plus a position (a delta-carrying index is
//! read through its fold, so every level is a slice). A warm search allocates
//! nothing. A participant whose atom's root level, opened after the first GAO
//! position, is a run of consecutive integers (`last - first + 1 == len`) leaves
//! the rotation: it clips the bounds, and the descent finds its position by
//! subtraction (see [`executor`]). [`LeapfrogJoin`] keeps the classic
//! iterator-vector presentation.
//!
//! The public entry points are [`LftjExecutor`], [`count`] and [`enumerate`]; all of
//! them consume a [`BoundQuery`](gj_query::BoundQuery) (query + GAO + GAO-consistent
//! trie indexes) from `gj-query`. The executor has one way to run,
//! [`LftjExecutor::run_range_ctx`]: it range-restricts the root-level intersection
//! (the whole axis for an unrestricted run), stops when the emitter breaks or the
//! execution context trips, and does not consume the executor. Its counting twin,
//! [`LftjExecutor::count_range_ctx`], returns the same counters without visiting
//! what one atom decides: a GAO suffix of one atom per position is a product of
//! range sizes read off the tries' child offsets, and the last level is counted
//! from the loop above it, over slices read off child offsets and against
//! bitmaps of reused ones (see [`executor`]); [`count`] and the morsel source's
//! counting path use it. Both paths walk an inner position of two
//! participants against the bitmap of a reused last-level slice. For parallel
//! execution, [`LftjMorsels`] plugs it into the `gj-runtime` morsel driver: each
//! worker thread reuses **one** executor across every morsel it claims
//! ([`LftjWorker`] carries it plus the re-ordering scratch row).

pub mod executor;
pub mod leapfrog;
pub mod parallel;

pub use executor::{count, enumerate, LftjExecutor};
pub use leapfrog::LeapfrogJoin;
pub use parallel::{LftjMorsels, LftjWorker};
