//! Stability contract for the typed-error surface.
//!
//! The short labels returned by [`ExecError::kind`] and [`RunOutcome::label`]
//! are machine-readable: benchmark outcome cells, abort-parity assertions, and
//! the fault-injection harness all match on the literal strings. This test pins
//! every one of them, so renaming a label (or adding a variant without deciding
//! its label) fails here first — loudly — instead of silently reshaping
//! downstream reports.

use graphjoin::{
    CancelToken, CatalogQuery, Database, Engine, EngineError, ExecError, ExecLimits, Graph, Query,
    QueryBudget, Relation, RunOutcome,
};
use std::time::Duration;

/// Every `ExecError` variant, constructed directly.
fn all_variants() -> Vec<ExecError> {
    vec![
        ExecError::BudgetExceeded { rows: 7, budget: 5 },
        ExecError::DeadlineExceeded,
        ExecError::Cancelled,
        ExecError::WorkerPanicked { payload: "boom".to_string() },
        ExecError::Saturated { active: 9, capacity: 8 },
    ]
}

#[test]
fn every_exec_error_kind_string_is_pinned() {
    let kinds: Vec<&str> = all_variants().iter().map(ExecError::kind).collect();
    assert_eq!(kinds, ["budget", "deadline", "cancelled", "panic", "saturated"]);
}

#[test]
fn every_display_rendering_is_pinned() {
    let rendered: Vec<String> = all_variants().iter().map(ExecError::to_string).collect();
    assert_eq!(
        rendered,
        [
            "row budget exceeded (7 rows delivered, budget 5)",
            "deadline exceeded",
            "cancelled",
            "worker panicked: boom",
            "service saturated (9 in flight, capacity 8)",
        ]
    );
}

#[test]
fn run_outcome_labels_are_pinned() {
    assert_eq!(RunOutcome::Completed.label(), "completed");
    assert!(RunOutcome::Completed.is_completed());
    for err in all_variants() {
        let outcome = RunOutcome::Aborted { reason: err.clone(), failpoint: None };
        assert_eq!(outcome.label(), err.kind(), "aborted label delegates to kind");
        assert!(!outcome.is_completed());
    }
}

/// The labels a live run reports must be the same pinned strings — the contract
/// holds end to end, not just on hand-built values.
#[test]
fn live_runs_report_the_pinned_labels() {
    let mut db = Database::new();
    let n = 24u32;
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    let q = CatalogQuery::ThreeClique.query();
    let prepared = db.prepare(&q, &graphjoin::Engine::Lftj).unwrap();

    let completed = prepared.count_outcome(1, &QueryBudget::new());
    assert_eq!(completed.outcome.label(), "completed");

    let budget = prepared.count_outcome(1, &QueryBudget::new().with_max_rows(1));
    assert_eq!(budget.outcome.label(), "budget");

    let deadline = prepared.count_outcome(1, &QueryBudget::new().with_timeout(Duration::ZERO));
    assert_eq!(deadline.outcome.label(), "deadline");

    let token = CancelToken::default();
    token.cancel();
    let cancelled = prepared.count_outcome(1, &QueryBudget::new().with_cancel_token(token));
    assert_eq!(cancelled.outcome.label(), "cancelled");
}

/// A query without atoms is rejected once, by query validation, so every engine
/// answers `prepare` with the same typed error instead of disagreeing on its
/// count.
#[test]
fn every_engine_rejects_a_query_without_atoms_alike() {
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2)]));
    let empty = Query { name: "empty".into(), var_names: vec![], atoms: vec![], filters: vec![] };
    let engines = [
        Engine::Lftj,
        Engine::minesweeper(),
        Engine::hybrid_for(CatalogQuery::TwoLollipop).expect("the lollipop splits"),
        Engine::HashJoin(ExecLimits::default()),
        Engine::SortMergeJoin(ExecLimits::default()),
        Engine::GraphEngine,
    ];
    for engine in &engines {
        match db.prepare(&empty, engine) {
            Err(EngineError::Bind(msg)) => {
                assert_eq!(msg, "a query needs at least one atom", "{}", engine.label())
            }
            Err(other) => panic!("{}: {other}", engine.label()),
            Ok(_) => panic!("{}: prepared a query without atoms", engine.label()),
        }
    }
}

/// The graph engine derives its adjacency from `edge` when it prepares. An
/// `edge` it cannot read as a graph over `u32` node ids is `Unsupported`, not a
/// panic (which `prepare` would report as `Exec`).
#[test]
fn the_graph_engine_rejects_an_edge_it_cannot_read_with_a_typed_error() {
    let q = CatalogQuery::ThreeClique.query();
    let too_big = i64::from(u32::MAX) + 1;
    let edges = [
        None,
        Some(Relation::from_values(vec![0, 1])),
        Some(Relation::from_flat(3, vec![0, 1, 2, 1, 2, 0])),
        Some(Relation::from_pairs(vec![(-1, 0), (0, -1), (0, 1), (1, 0)])),
        Some(Relation::from_pairs(vec![(0, too_big), (too_big, 0)])),
    ];
    for edge in edges {
        let case = format!("{edge:?}");
        let mut db = Database::new();
        if let Some(edge) = edge {
            db.add_relation("edge", edge);
        }
        match db.prepare(&q, &Engine::GraphEngine) {
            Err(EngineError::Unsupported(_)) => {}
            Err(other) => panic!("{case}: {other}"),
            Ok(_) => panic!("{case}: prepared the graph engine"),
        }
    }
}
