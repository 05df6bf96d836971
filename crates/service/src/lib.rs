//! # gj-service
//!
//! A concurrent serving layer over the `graphjoin` engine: many sessions,
//! one shared snapshot-versioned [`Database`](graphjoin::Database), bounded
//! admission, typed rejections, and a black-box serializability checker.
//!
//! * [`Service`] owns the current database behind an epoch-stamped lock;
//!   [`Service::session`] hands out independent [`Session`] handles that
//!   execute queries against consistent snapshots (an update never tears a
//!   running query). A write clones the snapshot — one pointer copy per
//!   relation, since clones share relations — and replaces only the
//!   relation it changes; the clone starts with the snapshot's cached trie
//!   indexes and absorbs an edit through their delta layers.
//! * [`Gate`] bounds concurrency: `max_concurrent` executing queries plus a
//!   `queue_depth` wait queue, with immediate typed
//!   [`ExecError::Saturated`](gj_runtime::ExecError) rejections past that —
//!   the service sheds load, it never queues unboundedly or panics.
//! * Every query runs under a [`QueryBudget`](gj_runtime::QueryBudget):
//!   deadlines, row caps and per-query cancellation via
//!   [`CancelToken`](gj_runtime::CancelToken) all surface as typed
//!   `EngineError::Exec` aborts.
//! * [`HistoryLog`] records every successful read and every write — an
//!   edit as its batch, never as a copy of the relation; [`check_history`]
//!   replays the log serially and verifies that each session observed
//!   exactly what some single serial order of the writes would have
//!   produced.
//!
//! ```
//! use gj_service::{Service, ServiceConfig};
//! use graphjoin::{CatalogQuery, Database, Engine};
//! use gj_storage::Graph;
//!
//! let mut db = Database::new();
//! db.add_graph(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]));
//! let base = db.clone();
//!
//! let service = Service::new(db, ServiceConfig::default());
//! let session = service.session();
//! let q = CatalogQuery::ThreeClique.query();
//! assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 2);
//!
//! // Every read was recorded; the checker replays them serially.
//! service.verify_history(&base).unwrap();
//! ```

/// Bounded admission: the [`Gate`], its RAII [`Permit`]s, typed rejections.
pub mod admission;
/// History recording ([`HistoryLog`]) and the serial replay checker.
pub mod history;
/// Seeded traffic-mix traces ([`TrafficOp`]) and their concurrent replay.
pub mod replay;
/// The [`Service`] / [`Session`] surface over one shared database.
pub mod service;

pub use admission::{Gate, Permit};
pub use history::{check_history, HistoryLog, SessionEvent};
pub use replay::{generate_trace, replay, replay_verified, ReplayReport, TraceConfig, TrafficOp};
pub use service::{Service, ServiceConfig, Session};

#[cfg(test)]
mod tests {
    use super::*;
    use gj_runtime::{CancelToken, ExecError, QueryBudget};
    use gj_storage::{Graph, Relation};
    use graphjoin::{CatalogQuery, Database, Engine, EngineError};

    fn sample() -> Database {
        let mut db = Database::new();
        db.add_graph(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]));
        db
    }

    #[test]
    fn sessions_share_the_snapshot_and_record_history() {
        let db = sample();
        let base = db.clone();
        let service = Service::with_defaults(db);
        let q = CatalogQuery::ThreeClique.query();
        let s1 = service.session();
        let s2 = service.session();
        assert_eq!(s1.count(&q, &Engine::Lftj).unwrap(), 2);
        assert_eq!(s2.count(&q, &Engine::minesweeper()).unwrap(), 2);
        assert_eq!(s2.collect(&q, &Engine::Lftj).unwrap().len(), 2);
        assert_eq!(service.history().len(), 3);
        service.verify_history(&base).unwrap();
    }

    #[test]
    fn updates_bump_the_epoch_and_future_reads_see_them() {
        let db = sample();
        let base = db.clone();
        let service = Service::with_defaults(db);
        let q = CatalogQuery::ThreeClique.query();
        let session = service.session();
        assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 2);
        assert_eq!(service.epoch(), 0);
        // Shrink the edge relation to a single (bidirectional) triangle.
        let epoch = service.update_relation(
            "edge",
            Relation::from_flat(2, vec![0, 1, 1, 0, 1, 2, 2, 1, 0, 2, 2, 0]),
        );
        assert_eq!(epoch, 1);
        assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 1);
        service.verify_history(&base).unwrap();
    }

    #[test]
    fn incremental_edits_version_the_snapshot_and_replay_serially() {
        let db = sample();
        let base = db.clone();
        let service = Service::with_defaults(db);
        let q = CatalogQuery::ThreeClique.query();
        let session = service.session();
        assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 2);
        let before = service.snapshot();

        // Walk the triangle count through a delete, an edge insert, and a
        // raw-row re-insert, reading after each edit.
        assert_eq!(service.delete_edges(&[(1, 2)]).unwrap(), 1);
        assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 0);
        assert_eq!(service.insert_edges(&[(0, 3)]).unwrap(), 2);
        assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 2, "{{0, 1, 3}} and {{0, 2, 3}}");
        assert_eq!(service.edit_relation("edge", &[vec![1, 2], vec![2, 1]], &[]).unwrap(), 3);
        assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), 4);

        // A no-op batch does not bump the epoch or pollute the history.
        assert_eq!(service.insert_rows("edge", &[vec![0, 1]]).unwrap(), 3);
        assert_eq!(service.epoch(), 3);
        // A malformed batch is rejected atomically.
        assert!(service.delete_rows("nope", &[vec![1]]).is_err());
        assert_eq!(service.epoch(), 3);

        // The pre-edit snapshot still answers with the old state, and the
        // whole interleaving is serially consistent.
        assert_eq!(before.count(&q, &Engine::Lftj).unwrap(), 2);
        service.verify_history(&base).unwrap();
    }

    #[test]
    fn edge_edits_record_their_batches_and_every_epoch_counts_right() {
        let db = sample();
        let base = db.clone();
        let service = Service::with_defaults(db);
        let q = CatalogQuery::ThreeClique.query();
        let session = service.session();
        let mut counts = vec![session.count(&q, &Engine::Lftj).unwrap()];
        assert_eq!(service.insert_edges(&[(0, 3)]).unwrap(), 1);
        counts.push(session.count(&q, &Engine::Lftj).unwrap());
        assert_eq!(service.delete_edges(&[(1, 2), (2, 2)]).unwrap(), 2);
        counts.push(session.count(&q, &Engine::Lftj).unwrap());
        assert_eq!(counts, [2, 4, 2], "two triangles, K4, K4 minus the edge (1, 2)");

        // Each edit is logged as the symmetrized batch it applied (the
        // self-loop dropped), not as a copy of the relation.
        let edits: Vec<_> = service
            .history()
            .into_iter()
            .filter_map(|event| match event {
                SessionEvent::Edit { epoch, name, ins, del } => Some((epoch, name, ins, del)),
                _ => None,
            })
            .collect();
        assert_eq!(
            edits,
            [
                (1, "edge".to_string(), vec![vec![0, 3], vec![3, 0]], vec![]),
                (2, "edge".to_string(), vec![], vec![vec![1, 2], vec![2, 1]]),
            ]
        );
        service.verify_history(&base).unwrap();
    }

    #[test]
    fn an_update_records_the_relation_its_snapshot_holds() {
        let service = Service::with_defaults(sample());
        let before = service.snapshot();
        service.update_relation("edge", Relation::from_flat(2, vec![0, 1, 1, 0]));
        let [SessionEvent::Update { relation, .. }] = &service.history()[..] else {
            panic!("one update was recorded");
        };
        assert!(std::ptr::eq(&**relation, service.snapshot().instance().relation("edge").unwrap()));
        assert!(!std::ptr::eq(&**relation, before.instance().relation("edge").unwrap()));
    }

    #[test]
    fn snapshots_are_stable_across_updates() {
        let db = sample();
        let service = Service::with_defaults(db);
        let before = service.snapshot();
        service.update_relation("edge", Relation::from_flat(2, vec![0, 1, 1, 0]));
        let q = CatalogQuery::ThreeClique.query();
        // The pre-update snapshot still answers with the old state.
        assert_eq!(before.count(&q, &Engine::Lftj).unwrap(), 2);
        assert_eq!(service.snapshot().count(&q, &Engine::Lftj).unwrap(), 0);
    }

    #[test]
    fn cancellation_and_budgets_surface_as_typed_errors() {
        let db = sample();
        let service = Service::with_defaults(db);
        let session = service.session();
        let q = CatalogQuery::ThreeClique.query();
        let token = CancelToken::new();
        token.cancel();
        let budget = QueryBudget::new().with_cancel_token(token);
        match session.count_with(&q, &Engine::Lftj, &budget) {
            Err(EngineError::Exec(e)) => assert_eq!(e.kind(), "cancelled"),
            other => panic!("expected a cancelled abort, got {other:?}"),
        }
        // A cancelled read is not recorded: the history stays serially valid.
        assert!(service.history().is_empty());
    }

    #[test]
    fn saturation_rejections_are_typed_and_capacity_recovers() {
        let db = sample();
        let base = db.clone();
        let service = Service::new(
            db,
            ServiceConfig { max_concurrent: 1, queue_depth: 0, ..ServiceConfig::default() },
        );
        let probe = service.session();
        let q = CatalogQuery::ThreeClique.query();
        std::thread::scope(|s| {
            let svc = service.clone();
            let query = q.clone();
            // The blocker is a contender too: with one slot and no queue its
            // own admissions can lose the race, so it tolerates Saturated.
            let blocker = s.spawn(move || {
                let session = svc.session();
                for _ in 0..64 {
                    match session.count(&query, &Engine::Lftj) {
                        Ok(n) => assert_eq!(n, 2),
                        Err(EngineError::Exec(ExecError::Saturated { .. })) => {}
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
            });
            // Race admissions against the blocker; with one slot and no queue
            // every loser of the race gets a typed Saturated rejection.
            for _ in 0..256 {
                match probe.count(&q, &Engine::Lftj) {
                    Ok(n) => assert_eq!(n, 2),
                    Err(EngineError::Exec(ExecError::Saturated { active, capacity })) => {
                        assert!(active >= capacity, "rejection only at capacity");
                    }
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            }
            blocker.join().unwrap();
        });
        // Capacity recovered, the service still answers, and everything that
        // did succeed is serially consistent.
        assert_eq!(service.in_flight(), 0);
        assert_eq!(probe.count(&q, &Engine::Lftj).unwrap(), 2);
        service.verify_history(&base).unwrap();
    }
}
