//! Session-history recording and black-box serializability checking.
//!
//! The service appends one [`SessionEvent`] per successful read and per
//! write. Writes are recorded *while holding the database write lock*, so
//! their position in the log is their epoch order; reads record the epoch of
//! the snapshot they executed against.
//!
//! A write is recorded as what it did, never as a copy of the database: an
//! incremental edit as its batch ([`SessionEvent::Edit`]: the relation, the
//! rows the write passed to `Database::edit_rows`, the epoch it committed),
//! a wholesale replacement as the shared handle of the new relation
//! ([`SessionEvent::Update`], the same allocation the snapshot holds). The
//! log thus grows by the size of the batches, not by the size of the edited
//! relations.
//!
//! [`check_history`] replays the writes into a chain of epoch snapshots —
//! each a cheap clone of the previous one with one write applied — and
//! re-executes every read serially: the history is valid iff each read's
//! count matches what a single-threaded client would have seen at that
//! epoch. This is a black-box checker: it exercises the public
//! edit/prepare/execute surface only.

use gj_storage::{Relation, Val};
use graphjoin::{Database, Engine, Query};
use std::sync::{Arc, Mutex, PoisonError};

/// One entry in a service's history log.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// A successful read: `session`'s `seq`-th query, executed against the
    /// snapshot of `epoch`, observed `count` rows.
    Read {
        /// Session that issued the query.
        session: u64,
        /// Per-session sequence number of the query.
        seq: u64,
        /// Database epoch the query's snapshot was taken at.
        epoch: u64,
        /// The query that ran.
        query: Query,
        /// Engine it ran on.
        engine: Engine,
        /// Row count the session observed.
        count: u64,
    },
    /// A committed update: replacing relation `name` produced `epoch`.
    Update {
        /// The epoch this update produced (first write produces epoch 1).
        epoch: u64,
        /// Relation replaced.
        name: String,
        /// Its new contents, shared with the snapshot that installed them.
        relation: Arc<Relation>,
    },
    /// A committed edit batch: applying `ins`/`del` to relation `name`
    /// (through `Database::edit_rows`) produced `epoch`.
    Edit {
        /// The epoch this edit produced.
        epoch: u64,
        /// Relation edited.
        name: String,
        /// Rows the write inserted (rows already present are no-ops).
        ins: Vec<Vec<Val>>,
        /// Rows the write deleted (a row in both `ins` and `del` is deleted).
        del: Vec<Vec<Val>>,
    },
}

/// A thread-safe, append-only log of [`SessionEvent`]s.
#[derive(Debug, Default)]
pub struct HistoryLog {
    events: Mutex<Vec<SessionEvent>>,
}

impl HistoryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn record(&self, event: SessionEvent) {
        self.lock().push(event);
    }

    /// A point-in-time copy of the whole log.
    pub fn events(&self) -> Vec<SessionEvent> {
        self.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SessionEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Verifies a concurrent history against serial re-execution.
///
/// `base` must be the database state at epoch 0 (before any recorded write).
/// Replays every [`SessionEvent::Update`] and [`SessionEvent::Edit`] in log
/// order onto a clone of the previous snapshot to materialise the snapshot
/// chain (clones share every relation the write left alone), then re-runs
/// every [`SessionEvent::Read`] against its epoch's snapshot on a single
/// thread and compares counts. Returns a human-readable description of the
/// first divergence.
pub fn check_history(base: &Database, events: &[SessionEvent]) -> Result<(), String> {
    let mut snapshots: Vec<Database> = vec![base.clone()];
    for event in events {
        let (epoch, name) = match event {
            SessionEvent::Read { .. } => continue,
            SessionEvent::Update { epoch, name, .. } | SessionEvent::Edit { epoch, name, .. } => {
                (*epoch, name)
            }
        };
        if epoch as usize != snapshots.len() {
            return Err(format!(
                "write to '{name}' recorded at epoch {epoch}, expected epoch {}: \
                 writes must be logged in epoch order",
                snapshots.len()
            ));
        }
        let mut next = snapshots[snapshots.len() - 1].clone();
        if let SessionEvent::Update { relation, .. } = event {
            next.add_relation(name.as_str(), Arc::clone(relation));
        } else if let SessionEvent::Edit { ins, del, .. } = event {
            let changed = next
                .edit_rows(name, ins, del)
                .map_err(|e| format!("replaying the edit of epoch {epoch} failed: {e}"))?;
            if changed == 0 {
                return Err(format!(
                    "the edit of '{name}' recorded at epoch {epoch} changes nothing on \
                     epoch {}, yet the service published it",
                    epoch - 1
                ));
            }
        }
        snapshots.push(next);
    }
    for event in events {
        if let SessionEvent::Read { session, seq, epoch, query, engine, count } = event {
            let snapshot = snapshots.get(*epoch as usize).ok_or_else(|| {
                format!(
                    "session {session} read at epoch {epoch}, but only {} epochs exist",
                    snapshots.len()
                )
            })?;
            let serial = snapshot
                .count(query, engine)
                .map_err(|e| format!("serial re-execution of '{}' failed: {e}", query.name))?;
            if serial != *count {
                return Err(format!(
                    "session {session} query #{seq} ('{}', {engine:?}) at epoch {epoch}: \
                     observed {count}, serial replay says {serial}",
                    query.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_storage::Graph;
    use graphjoin::CatalogQuery;

    fn base() -> Database {
        let mut db = Database::new();
        db.add_graph(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]));
        db
    }

    #[test]
    fn valid_history_passes() {
        let db = base();
        let q = CatalogQuery::ThreeClique.query();
        let events = vec![
            SessionEvent::Read {
                session: 1,
                seq: 0,
                epoch: 0,
                query: q.clone(),
                engine: Engine::Lftj,
                count: 2,
            },
            SessionEvent::Update {
                epoch: 1,
                name: "edge".into(),
                relation: Arc::new(Relation::from_flat(
                    2,
                    vec![0, 1, 1, 0, 1, 2, 2, 1, 0, 2, 2, 0],
                )),
            },
            SessionEvent::Read {
                session: 2,
                seq: 0,
                epoch: 1,
                query: q,
                engine: Engine::Lftj,
                count: 1,
            },
        ];
        check_history(&db, &events).unwrap();
    }

    #[test]
    fn wrong_count_is_reported() {
        let db = base();
        let q = CatalogQuery::ThreeClique.query();
        let events = vec![SessionEvent::Read {
            session: 7,
            seq: 3,
            epoch: 0,
            query: q,
            engine: Engine::Lftj,
            count: 999,
        }];
        let err = check_history(&db, &events).unwrap_err();
        assert!(err.contains("session 7"), "diagnostic names the session: {err}");
        assert!(err.contains("999"), "diagnostic includes the bad count: {err}");
    }

    #[test]
    fn out_of_order_updates_are_rejected() {
        let db = base();
        let events = vec![SessionEvent::Update {
            epoch: 5,
            name: "x".into(),
            relation: Arc::new(Relation::from_values(vec![1])),
        }];
        assert!(check_history(&db, &events).is_err());
    }

    fn read(session: u64, epoch: u64, count: u64) -> SessionEvent {
        SessionEvent::Read {
            session,
            seq: 0,
            epoch,
            query: CatalogQuery::ThreeClique.query(),
            engine: Engine::Lftj,
            count,
        }
    }

    /// Deletes the undirected edge (1, 3), which breaks the triangle {1, 2, 3}.
    fn cut_1_3(epoch: u64) -> SessionEvent {
        SessionEvent::Edit {
            epoch,
            name: "edge".into(),
            ins: vec![],
            del: vec![vec![1, 3], vec![3, 1]],
        }
    }

    #[test]
    fn histories_with_edit_batches_pass() {
        let restore = SessionEvent::Edit {
            epoch: 2,
            name: "edge".into(),
            ins: vec![vec![1, 3], vec![3, 1], vec![0, 3], vec![3, 0]],
            del: vec![],
        };
        let events =
            vec![read(1, 0, 2), cut_1_3(1), read(2, 1, 1), restore, read(1, 2, 4), read(2, 1, 1)];
        check_history(&base(), &events).unwrap();
    }

    #[test]
    fn out_of_order_edits_are_rejected() {
        let err = check_history(&base(), &[cut_1_3(2)]).unwrap_err();
        assert!(err.contains("epoch 2"), "{err}");
        let err = check_history(&base(), &[cut_1_3(1), cut_1_3(1)]).unwrap_err();
        assert!(err.contains("expected epoch 2"), "{err}");
    }

    #[test]
    fn a_wrong_count_after_an_edit_names_its_session() {
        let events = vec![read(1, 0, 2), cut_1_3(1), read(4, 1, 2)];
        let err = check_history(&base(), &events).unwrap_err();
        assert!(err.contains("session 4") && err.contains("epoch 1"), "{err}");
        assert!(err.contains("observed 2, serial replay says 1"), "{err}");
    }

    #[test]
    fn an_edit_that_replays_as_a_no_op_is_rejected() {
        let events = vec![cut_1_3(1), cut_1_3(2)];
        let err = check_history(&base(), &events).unwrap_err();
        assert!(err.contains("changes nothing"), "{err}");
    }

    #[test]
    fn reads_at_unknown_epochs_are_rejected() {
        let db = base();
        let events = vec![SessionEvent::Read {
            session: 1,
            seq: 0,
            epoch: 3,
            query: CatalogQuery::ThreeClique.query(),
            engine: Engine::Lftj,
            count: 2,
        }];
        assert!(check_history(&db, &events).is_err());
    }
}
