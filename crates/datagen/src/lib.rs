//! # gj-datagen
//!
//! Synthetic graph workloads for the benchmark harness.
//!
//! The paper evaluates on SNAP graphs (Section 5.1). Those downloads are not part of
//! this repository, so the harness substitutes seeded synthetic graphs whose *regime*
//! matches each SNAP dataset: comparable node count (scaled down for the largest
//! graphs), comparable average degree, and a comparable triangle density — the three
//! properties the paper's comparisons actually hinge on (clique-rich social networks
//! versus triangle-poor peer-to-peer graphs, small versus large inputs). The
//! substitution and its rationale are documented in [`catalog`]; the
//! `paper_tables` binary of `gj-bench` prints the generated statistics next to the
//! paper's.
//!
//! * [`generators`] — seeded Erdős–Rényi and powerlaw-cluster (preferential
//!   attachment with triangle closure) generators;
//! * [`catalog`] — one [`DatasetSpec`] per SNAP dataset used in
//!   the paper, with the paper's statistics and the matched generator parameters;
//! * [`sample`] — the random node samples (`v1`, `v2`, …) with selectivity `s`
//!   (each node kept with probability `1/s`), as used by the path/tree/comb/lollipop
//!   queries, plus the heavy-tailed [`powerlaw_degrees`] sampler;
//! * [`ldbc`] — an LDBC-style social network: a typed, attributed multi-relation
//!   schema (`person`, `knows`, `post`, `hasCreator`, ternary `likes`, `tag`,
//!   `hasTag`) with degree skew and temporal correlation, described by a
//!   [`Catalog`];
//! * [`error`] — typed [`DatagenError`] rejection for out-of-range generator
//!   parameters (no silent clamping).

pub mod catalog;
pub mod error;
pub mod generators;
pub mod ldbc;
pub mod sample;

pub use catalog::{Dataset, DatasetSpec};
pub use error::DatagenError;
pub use generators::{erdos_renyi, powerlaw_cluster, try_powerlaw_cluster};
pub use ldbc::{Catalog, Domain, EntityKind, LdbcConfig, RelationMeta, SocialNetwork};
pub use sample::{node_sample, powerlaw_degrees, sample_relations};
