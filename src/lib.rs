//! Reproduction package for *"Join Processing for Graph Patterns: An Old Dog with New
//! Tricks"*.
//!
//! This crate only hosts the runnable examples (`examples/`) and the cross-crate
//! integration and property tests (`tests/`); the library itself lives in the
//! workspace crates and is re-exported here for convenience:
//!
//! * [`graphjoin`] — the public façade ([`graphjoin::Database`], engines, catalog,
//!   disk persistence via [`graphjoin::Database::open`] / `persist`);
//! * [`gj_service`] — the concurrent serving layer (sessions, bounded admission,
//!   the session-history serializability checker);
//! * `gj-storage`, `gj-query`, `gj-runtime`, `gj-lftj`, `gj-minesweeper`,
//!   `gj-baselines`, `gj-datagen`, `gj-store` — the individual building blocks;
//! * `gj-bench` (not re-exported) — the `paper_tables` runner for the paper's
//!   tables and figures.
//!
//! Start with the repository-level `README.md` (quickstart, bench instructions)
//! and `ARCHITECTURE.md` (crate dependency graph, the prepare/execute split, the
//! `Sink` protocol, the parallel ordering guarantee, per-engine feature matrix,
//! and the "Persistence & serving" section for the disk store and service).

pub use gj_service;
pub use graphjoin;

/// Compiles and runs the Rust blocks of `README.md` as doctests, so the README
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
