//! # gj-minesweeper
//!
//! Minesweeper — the "beyond worst-case" join algorithm of Ngo, Nguyen, Ré and Rudra,
//! implemented as described in Section 4 of the paper (the first practical
//! implementation of a beyond-worst-case join).
//!
//! The algorithm repeatedly asks a *constraint data structure* (CDS) for a **free
//! tuple**: a point of the output space not covered by any known **gap box** (a
//! region certified to contain no output tuple). It then probes every input relation
//! around that point; each probe either confirms membership or returns a maximal gap
//! box, which is inserted back into the CDS. When every relation confirms the point,
//! it is an output tuple. The process ends when the CDS can no longer find a free
//! tuple, i.e. the union of reported outputs and gap boxes covers the whole space.
//!
//! The implementation includes the paper's engineering ideas:
//!
//! * **Idea 1** — point lists inside CDS nodes (intervals, children and discovered
//!   free values kept per node);
//! * **Idea 2** — the moving frontier (free tuples are requested in lexicographic
//!   order, outputs advance the frontier instead of inserting unit gaps);
//! * **Idea 3** — maximal gap boxes extracted from the trie indexes (`seekGap`);
//! * **Idea 4** — a per-relation memo of the last gap to avoid repeated `seekGap`
//!   calls;
//! * **Idea 5** — caching ping-pong results as intervals in the bottom node of the
//!   chain, with backtracking and truncation;
//! * **Idea 6** — complete nodes, which short-circuit the chain walk entirely;
//! * **Idea 7** — the β-acyclic skeleton for cyclic queries (gaps from non-skeleton
//!   atoms only advance the frontier);
//! * **Idea 8** — #Minesweeper-style counting: a run of outputs that share all
//!   but the last attribute is counted from the free points of a complete
//!   last-level node instead of being enumerated;
//! * the **multi-threaded** partitioning of Section 4.10 — served through the
//!   shared `gj-runtime` morsel driver ([`MsPlan::morsels`]), with one executor
//!   reused per worker across morsels, kept warm between executions in the
//!   [`MsPlan`], and full sink support (parallel
//!   enumerate/collect/first_k, not just counting) — and the **hybrid**
//!   Minesweeper + LFTJ algorithm of Section 4.12.
//!
//! Every idea can be toggled through [`MsConfig`] so the ablation experiments
//! (Tables 1–3 of the paper) can be reproduced.

pub mod cds;
pub mod constraint;
pub mod engine;
pub mod gaps;
pub mod hybrid;
pub mod node;
pub mod parallel;

pub use cds::Cds;
pub use constraint::{Constraint, PatternComp};
pub use engine::{count, enumerate, MinesweeperExecutor, MsConfig};
pub use hybrid::{hybrid_count, HybridPlan};
pub use parallel::{MsMorsels, MsPlan, MsWorker};
