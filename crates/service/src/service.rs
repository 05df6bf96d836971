//! The [`Service`]: one shared database, many concurrent sessions.
//!
//! A service owns an `Arc<Database>` behind an epoch-stamped `RwLock`.
//! Sessions read by cloning the `Arc` (a snapshot: queries never see a
//! half-applied update). A write clones the current database — one pointer
//! copy per relation, since clones share relations — replaces the one
//! relation it changes in the clone, and swaps the `Arc` under the write
//! lock, bumping the epoch. The clone starts with every trie index the
//! current snapshot's [`IndexCache`](graphjoin::IndexCache) holds, and an edit
//! patches them through their delta layers, so sessions keep reading warm
//! indexes across epochs.
//!
//! Execution is bounded on two axes: the admission [`Gate`] caps concurrent
//! queries (typed [`ExecError::Saturated`](gj_runtime::ExecError) rejections
//! past capacity), and every query runs under a
//! [`QueryBudget`](gj_runtime::QueryBudget) — the session default or a caller
//! override carrying deadlines, row caps and a
//! [`CancelToken`](gj_runtime::CancelToken).

use crate::admission::Gate;
use crate::history::{check_history, HistoryLog, SessionEvent};
use gj_runtime::QueryBudget;
use gj_storage::Relation;
use graphjoin::{symmetrize, CollectSink, CountSink, Database, Engine, EngineError, Query};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries allowed to execute concurrently (clamped to at least 1).
    pub max_concurrent: usize,
    /// Callers allowed to wait for a slot before admission rejects with
    /// `ExecError::Saturated`.
    pub queue_depth: usize,
    /// Worker threads each admitted query executes on.
    pub exec_threads: usize,
    /// Budget applied to queries issued without an explicit one.
    pub default_budget: QueryBudget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let parallelism =
            std::thread::available_parallelism().map(usize::from).unwrap_or(4).clamp(1, 8);
        ServiceConfig {
            max_concurrent: parallelism,
            queue_depth: 2 * parallelism,
            exec_threads: 1,
            default_budget: QueryBudget::new(),
        }
    }
}

/// Shared state behind every session of one service.
#[derive(Debug)]
struct ServiceInner {
    /// Epoch-stamped current database. The pair is swapped atomically under
    /// the write lock so a reader always sees a consistent (epoch, snapshot).
    db: RwLock<(u64, Arc<Database>)>,
    gate: Gate,
    history: HistoryLog,
    next_session: AtomicU64,
    config: ServiceConfig,
}

impl ServiceInner {
    fn snapshot(&self) -> (u64, Arc<Database>) {
        let guard = self.db.read().unwrap_or_else(PoisonError::into_inner);
        (guard.0, Arc::clone(&guard.1))
    }
}

/// A concurrent serving layer over one shared [`Database`].
///
/// Cheap to clone; all clones (and all [`Session`]s) share the same database,
/// admission gate and history log.
#[derive(Debug, Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Creates a service over `db` with the given configuration.
    pub fn new(db: impl Into<Arc<Database>>, config: ServiceConfig) -> Self {
        let gate = Gate::new(config.max_concurrent, config.queue_depth);
        Service {
            inner: Arc::new(ServiceInner {
                db: RwLock::new((0, db.into())),
                gate,
                history: HistoryLog::new(),
                next_session: AtomicU64::new(0),
                config,
            }),
        }
    }

    /// Creates a service with [`ServiceConfig::default`].
    pub fn with_defaults(db: impl Into<Arc<Database>>) -> Self {
        Self::new(db, ServiceConfig::default())
    }

    /// Opens a new session. Sessions are `Send` and independent: hand one to
    /// each client thread.
    pub fn session(&self) -> Session {
        Session {
            inner: Arc::clone(&self.inner),
            id: self.inner.next_session.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
        }
    }

    /// Replaces relation `name` for all *future* snapshots and returns the new
    /// epoch. In-flight queries keep their old snapshot. The recorded update
    /// event holds the same `Arc` the new snapshot's slot holds, and is
    /// recorded while the write lock is held, so log order is epoch order.
    pub fn update_relation(
        &self,
        name: impl Into<String>,
        relation: impl Into<Arc<Relation>>,
    ) -> u64 {
        let (name, relation) = (name.into(), relation.into());
        let mut guard = self.inner.db.write().unwrap_or_else(PoisonError::into_inner);
        let mut next = (*guard.1).clone();
        next.add_relation(name.clone(), Arc::clone(&relation));
        self.publish(&mut guard, next, |epoch| SessionEvent::Update { epoch, name, relation })
    }

    /// Applies one incremental edit batch to relation `name` (`ins` rows
    /// enter, `del` rows leave — see [`Database::edit_rows`]) and returns the
    /// resulting epoch. Under the write lock the current snapshot is cloned
    /// (one pointer copy per relation) and the batch is applied to the clone:
    /// only the edited relation is replaced, the clone's cached trie indexes
    /// absorb the edit through their delta layers (no rebuild), and in-flight
    /// queries keep their old snapshot. The batch itself is recorded as an
    /// [`SessionEvent::Edit`], which [`verify_history`](Self::verify_history)
    /// replays through the same `edit_rows`. A batch that changes nothing
    /// returns the current epoch without bumping it or recording anything;
    /// a rejected batch leaves the service exactly as it was.
    pub fn edit_relation(
        &self,
        name: &str,
        ins: &[Vec<i64>],
        del: &[Vec<i64>],
    ) -> Result<u64, EngineError> {
        let mut guard = self.inner.db.write().unwrap_or_else(PoisonError::into_inner);
        let mut next = (*guard.1).clone();
        if next.edit_rows(name, ins, del)? == 0 {
            return Ok(guard.0);
        }
        let (name, ins, del) = (name.to_string(), ins.to_vec(), del.to_vec());
        Ok(self.publish(&mut guard, next, |epoch| SessionEvent::Edit { epoch, name, ins, del }))
    }

    /// Incrementally inserts rows into relation `name` for all future
    /// snapshots (see [`edit_relation`](Self::edit_relation)).
    pub fn insert_rows(&self, name: &str, rows: &[Vec<i64>]) -> Result<u64, EngineError> {
        self.edit_relation(name, rows, &[])
    }

    /// Incrementally deletes rows from relation `name` for all future
    /// snapshots (see [`edit_relation`](Self::edit_relation)).
    pub fn delete_rows(&self, name: &str, rows: &[Vec<i64>]) -> Result<u64, EngineError> {
        self.edit_relation(name, &[], rows)
    }

    /// Incrementally inserts undirected edges (both orientations of the
    /// `"edge"` relation, as [`symmetrize`] spells them). Returns the
    /// resulting epoch.
    pub fn insert_edges(&self, edges: &[(u32, u32)]) -> Result<u64, EngineError> {
        self.edit_relation("edge", &symmetrize(edges), &[])
    }

    /// Incrementally deletes undirected edges (both orientations leave the
    /// `"edge"` relation). Returns the resulting epoch.
    pub fn delete_edges(&self, edges: &[(u32, u32)]) -> Result<u64, EngineError> {
        self.edit_relation("edge", &[], &symmetrize(edges))
    }

    /// The one write path: installs `next` as the snapshot of the next epoch
    /// and records `event(epoch)`, both under the caller's write lock, so log
    /// order is epoch order.
    fn publish(
        &self,
        guard: &mut (u64, Arc<Database>),
        next: Database,
        event: impl FnOnce(u64) -> SessionEvent,
    ) -> u64 {
        guard.0 += 1;
        guard.1 = Arc::new(next);
        self.inner.history.record(event(guard.0));
        guard.0
    }

    /// The current snapshot (epoch advances as updates land).
    pub fn snapshot(&self) -> Arc<Database> {
        self.inner.snapshot().1
    }

    /// The current epoch: 0 at creation, +1 per update.
    pub fn epoch(&self) -> u64 {
        self.inner.snapshot().0
    }

    /// Queries currently executing or queued for admission.
    pub fn in_flight(&self) -> usize {
        self.inner.gate.in_flight()
    }

    /// A point-in-time copy of the recorded history.
    pub fn history(&self) -> Vec<SessionEvent> {
        self.inner.history.events()
    }

    /// Black-box serializability check: replays the recorded history against
    /// `base` (the state this service was created over) on a single thread
    /// and verifies every session read. See [`check_history`].
    pub fn verify_history(&self, base: &Database) -> Result<(), String> {
        check_history(base, &self.history())
    }
}

/// One client's handle on a [`Service`]: issues queries against the current
/// snapshot, under admission control and a per-query budget.
#[derive(Debug)]
pub struct Session {
    inner: Arc<ServiceInner>,
    id: u64,
    seq: AtomicU64,
}

impl Session {
    /// This session's service-unique id (also recorded in the history log).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Counts the answers of `query` under the service's default budget.
    pub fn count(&self, query: &Query, engine: &Engine) -> Result<u64, EngineError> {
        let budget = self.inner.config.default_budget.clone();
        self.count_with(query, engine, &budget)
    }

    /// Counts the answers of `query` under an explicit `budget` (deadline,
    /// row cap, cancel token).
    ///
    /// The full pipeline: admission (may reject with a typed
    /// `ExecError::Saturated`), snapshot the current (epoch, database) pair,
    /// prepare against the shared index cache, execute on the service's
    /// worker threads, and — only on success — record the read in the
    /// history log.
    pub fn count_with(
        &self,
        query: &Query,
        engine: &Engine,
        budget: &QueryBudget,
    ) -> Result<u64, EngineError> {
        let _permit = self.inner.gate.admit().map_err(EngineError::Exec)?;
        let (epoch, db) = self.inner.snapshot();
        let prepared = db.prepare(query, engine)?;
        let mut sink = CountSink::new();
        prepared.try_run_parallel(&mut sink, self.inner.config.exec_threads, budget)?;
        self.record_read(epoch, query, engine, sink.rows());
        Ok(sink.rows())
    }

    /// Collects the answers of `query` under the service's default budget.
    /// The read is recorded by its row count.
    pub fn collect(&self, query: &Query, engine: &Engine) -> Result<Vec<Vec<i64>>, EngineError> {
        let budget = self.inner.config.default_budget.clone();
        self.collect_with(query, engine, &budget)
    }

    /// [`collect`](Self::collect) under an explicit budget, through the same
    /// pipeline as [`count_with`](Self::count_with): the rows are collected on
    /// the service's worker threads, in the serial emission order.
    pub fn collect_with(
        &self,
        query: &Query,
        engine: &Engine,
        budget: &QueryBudget,
    ) -> Result<Vec<Vec<i64>>, EngineError> {
        let _permit = self.inner.gate.admit().map_err(EngineError::Exec)?;
        let (epoch, db) = self.inner.snapshot();
        let prepared = db.prepare(query, engine)?;
        let mut sink = CollectSink::new();
        prepared.try_run_parallel(&mut sink, self.inner.config.exec_threads, budget)?;
        let rows = sink.into_rows();
        self.record_read(epoch, query, engine, rows.len() as u64);
        Ok(rows)
    }

    fn record_read(&self, epoch: u64, query: &Query, engine: &Engine, count: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.history.record(SessionEvent::Read {
            session: self.id,
            seq,
            epoch,
            query: query.clone(),
            engine: engine.clone(),
            count,
        });
    }
}
