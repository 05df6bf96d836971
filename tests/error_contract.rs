//! Stability contract for the typed-error surface.
//!
//! The short labels returned by [`ExecError::kind`] are machine-readable:
//! abort-parity assertions and the fault-injection harness match on the literal
//! strings. This test pins every one of them, so renaming a label (or adding a
//! variant without deciding its label) fails here first — loudly — instead of
//! silently reshaping downstream reports.

use graphjoin::{
    CancelToken, CatalogQuery, CountSink, Database, Engine, EngineError, ExecError, ExecLimits,
    Graph, Query, QueryBudget, Relation,
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

/// The labels a live run reports must be the same pinned strings — the contract
/// holds end to end, not just on hand-built values: the one fallible entry point
/// returns each abort as an `Err` of that kind, at one thread and at four, for an
/// engine that enumerates and for a count-only one.
#[test]
fn live_runs_report_the_pinned_labels() {
    let mut db = Database::new();
    let n = 24u32;
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    let q = CatalogQuery::ThreeClique.query();
    let token = CancelToken::default();
    token.cancel();
    let aborts = [
        (QueryBudget::new().with_max_rows(1), "budget"),
        (QueryBudget::new().with_timeout(Duration::ZERO), "deadline"),
        (QueryBudget::new().with_cancel_token(token), "cancelled"),
    ];
    for engine in [Engine::Lftj, Engine::GraphEngine] {
        let prepared = db.prepare(&q, &engine).unwrap();
        for threads in [1, 4] {
            let label = format!("{} t={threads}", engine.label());
            let mut sink = CountSink::new();
            prepared.try_run_parallel(&mut sink, threads, &QueryBudget::new()).unwrap();
            assert_eq!(sink.rows(), 2024, "{label}: C(24, 3) triangles");
            for (budget, kind) in &aborts {
                match prepared.try_run_parallel(&mut CountSink::new(), threads, budget) {
                    Err(EngineError::Exec(err)) => assert_eq!(err.kind(), *kind, "{label}"),
                    other => panic!("{label}: expected a {kind} abort, got {other:?}"),
                }
            }
        }
    }
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
