//! Disk persistence for [`Database`]: open, persist, durable commits,
//! checkpoints.
//!
//! The division of labour with `gj-store`: the store knows pages, extents, the
//! WAL and recovery; this module knows the `Database` shape — which relations
//! exist, and how to install *lazy* catalog slots so that [`Database::open`]
//! is cheap no matter how large the image is. A relation's bytes are only read
//! (through the store's buffer pool, checksum-verified) the first time a query
//! binds it. A graph is persisted as its `"edge"` relation, like any other.
//!
//! ## Failure surfacing
//!
//! Opening, persisting and committing return typed [`StoreError`]s. Lazy
//! hydration happens *inside* `prepare`, which already runs under a
//! `catch_unwind` boundary: if the store reports an error at hydration time
//! (bit rot caught by an extent checksum, a vanished file), the loader panics
//! with the rendered error and `prepare` surfaces it as
//! `EngineError::Exec(ExecError::WorkerPanicked)` — queries fail cleanly, the
//! database object stays usable.

use crate::database::{Database, EngineError};
use gj_query::RelationLoader;
use gj_storage::fault::FailpointRegistry;
use gj_storage::{Relation, Val};
use gj_store::{Store, StoreError};
use std::path::Path;
use std::sync::Arc;

impl Database {
    /// Opens the disk store at `path` and returns a database over it.
    ///
    /// Every persisted relation is installed as a lazy slot, hydrated through
    /// the store's buffer pool on first use, so open reads no extent. WAL
    /// recovery runs inside [`Store::open`]: committed-but-not-checkpointed
    /// mutations are replayed, a torn tail from a crash is discarded.
    ///
    /// ```no_run
    /// use graphjoin::{CatalogQuery, Database, Engine, Graph};
    ///
    /// let mut db = Database::new();
    /// db.add_graph(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]));
    /// db.persist("/tmp/my-store")?;
    ///
    /// let reopened = Database::open("/tmp/my-store")?;
    /// let prepared = reopened.prepare(&CatalogQuery::ThreeClique.query(), &Engine::Lftj).unwrap();
    /// assert_eq!(prepared.count().unwrap(), 1);
    /// # Ok::<(), graphjoin::StoreError>(())
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Database, StoreError> {
        Self::open_with_failpoints(path, None)
    }

    /// [`open`](Self::open) with a fault-injection registry threaded into the
    /// store (arms `wal_append` / `page_flush` / `recovery_replay` sites).
    pub fn open_with_failpoints(
        path: impl AsRef<Path>,
        failpoints: Option<Arc<FailpointRegistry>>,
    ) -> Result<Database, StoreError> {
        let store = Arc::new(Store::open(path.as_ref(), failpoints)?);
        let mut db = Database::new();
        for name in store.relation_names() {
            db.instance_mut().add_lazy_relation(name.clone(), lazy_loader(&store, name));
        }
        db.set_store(store);
        Ok(db)
    }

    /// Writes a complete checkpoint image of this database to `path`
    /// (creating or replacing the store directory) with an empty WAL. The
    /// database itself is *not* attached to the new store; use
    /// [`Database::open`] to serve from it.
    ///
    /// Persisting hydrates every lazy slot (the image must contain full data).
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.persist_with_failpoints(path, None)
    }

    /// [`persist`](Self::persist) with a fault-injection registry threaded into
    /// the store (every page write passes the `page_flush` site).
    pub fn persist_with_failpoints(
        &self,
        path: impl AsRef<Path>,
        failpoints: Option<Arc<FailpointRegistry>>,
    ) -> Result<(), StoreError> {
        let store = Store::create(path.as_ref(), failpoints)?;
        checkpoint_into(self, &store)
    }

    /// Durably replaces relation `name`: the mutation is appended to the
    /// attached store's WAL *before* the in-memory apply, so a crash between
    /// the two replays it on the next open. Errors with
    /// [`StoreError::NotAttached`] when the database has no store. The durable
    /// counterpart of [`Database::add_graph`] is
    /// `commit_relation("edge", graph.edge_relation())`.
    pub fn commit_relation(
        &mut self,
        name: impl Into<String>,
        relation: Relation,
    ) -> Result<&mut Self, StoreError> {
        let name = name.into();
        let store = self.store().ok_or(StoreError::NotAttached)?;
        // A clone still reading the old slot through the store must load it
        // before the log replaces it.
        self.instance().hydrate_if_shared(&name);
        store.log_add_relation(&name, &relation)?;
        self.add_relation(name, relation);
        Ok(self)
    }

    /// Durably applies one incremental edit batch to relation `name`, WAL
    /// first: the *effective* delta (inserts not already present, deletes that
    /// exist) is appended to the attached store's WAL as a delta-sized edit
    /// record, then applied in memory through the same incremental path as
    /// [`Database::edit_rows`] — cached trie indexes absorb the edit in their
    /// delta layers without a rebuild. A crash before the next checkpoint
    /// replays the edit against the image base on reopen.
    ///
    /// A batch that changes nothing returns `Ok(0)` without touching the WAL.
    /// Returns [`EngineError::Store`]\([`StoreError::NotAttached`]) when the
    /// database has no store, [`EngineError::Edit`] on a malformed batch,
    /// including an `"edge"` insert with an endpoint outside `u32`.
    /// Everything that can fail in memory runs before the append, so in these
    /// cases the WAL is untouched and the store still reopens.
    ///
    /// [`EngineError::Store`]: crate::EngineError::Store
    /// [`EngineError::Edit`]: crate::EngineError::Edit
    pub fn commit_edits(
        &mut self,
        name: &str,
        ins: &[Vec<Val>],
        del: &[Vec<Val>],
    ) -> Result<usize, EngineError> {
        let Some(staged) = self.stage_edits(name, ins, del)? else { return Ok(0) };
        let store = self.store().ok_or(StoreError::NotAttached)?;
        store.log_edit(name, &staged.ins, &staged.del)?;
        Ok(self.apply_staged(name, staged))
    }

    /// Folds the WAL into a fresh checkpoint image of the attached store:
    /// hydrates everything, writes the new image, atomically renames it over
    /// the old one, truncates the WAL. Reopening afterwards replays nothing.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let store = self.store().ok_or(StoreError::NotAttached)?;
        checkpoint_into(self, store)
    }
}

/// A loader that reads `name` from `store` on first access. Store errors
/// surface as a panic with the rendered error, caught by the prepare path's
/// panic-isolation boundary (see the module docs).
fn lazy_loader(store: &Arc<Store>, name: String) -> RelationLoader {
    let store = Arc::clone(store);
    Arc::new(move || match store.load_relation(&name) {
        Ok(relation) => relation,
        // gj-lint: allow(no-panic-in-engines) — a loader has no error channel (`RelationLoader` returns a relation); the prepare path's panic boundary turns this into a typed EngineError::Exec
        Err(err) => panic!("lazy hydration of relation '{name}' failed: {err}"),
    })
}

/// Hydrates the database's full image and checkpoints it into `store`.
fn checkpoint_into(db: &Database, store: &Store) -> Result<(), StoreError> {
    let names: Vec<String> = db.instance().relation_names().map(str::to_string).collect();
    let mut image: Vec<(&str, &Relation)> = Vec::with_capacity(names.len());
    for name in &names {
        let relation = db
            .instance()
            .relation(name)
            .ok_or_else(|| StoreError::MissingRelation(name.clone()))?;
        image.push((name.as_str(), relation));
    }
    store.checkpoint(&image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Engine;
    use gj_query::CatalogQuery;
    use gj_storage::Graph;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gj-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> Database {
        let graph = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut db = Database::new();
        db.add_graph(graph);
        db.add_relation("v1", Relation::from_values(vec![0, 1, 3]));
        db.add_relation("v2", Relation::from_values(vec![2, 3, 4]));
        db
    }

    #[test]
    fn persist_open_roundtrip_is_query_identical_and_lazy() {
        let dir = scratch("roundtrip");
        let db = sample_db();
        db.persist(&dir).unwrap();

        let reopened = Database::open(&dir).unwrap();
        assert!(!reopened.instance().is_resident("edge"), "open must not hydrate relation extents");
        let q = CatalogQuery::ThreeClique.query();
        assert_eq!(
            reopened.count(&q, &Engine::Lftj).unwrap(),
            db.count(&q, &Engine::Lftj).unwrap()
        );
        assert!(reopened.instance().is_resident("edge"), "first query hydrates");
        // The graph engine reads the persisted edge relation too.
        assert_eq!(
            reopened.count(&q, &Engine::GraphEngine).unwrap(),
            db.count(&q, &Engine::GraphEngine).unwrap()
        );
        assert_eq!(reopened.instance().total_tuples(), db.instance().total_tuples());
    }

    #[test]
    fn commits_survive_reopen_without_checkpoint() {
        let dir = scratch("commits");
        sample_db().persist(&dir).unwrap();
        let mut db = Database::open(&dir).unwrap();
        db.commit_relation("v1", Relation::from_values(vec![7, 8, 9])).unwrap();
        let g2 = Graph::new_undirected(3, vec![(0, 1), (1, 2), (0, 2)]);
        db.commit_relation("edge", g2.edge_relation()).unwrap();
        drop(db);

        let reopened = Database::open(&dir).unwrap();
        assert_eq!(
            reopened.instance().relation("v1").unwrap().flat_values(),
            &[7, 8, 9],
            "committed relation replayed from the WAL"
        );
        let q = CatalogQuery::ThreeClique.query();
        assert_eq!(reopened.count(&q, &Engine::Lftj).unwrap(), 1, "committed graph replayed");
        assert_eq!(reopened.count(&q, &Engine::GraphEngine).unwrap(), 1);
    }

    #[test]
    fn checkpoint_folds_the_wal_and_preserves_state() {
        let dir = scratch("checkpoint");
        sample_db().persist(&dir).unwrap();
        let mut db = Database::open(&dir).unwrap();
        db.commit_relation("v9", Relation::from_values(vec![4, 2])).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            std::fs::metadata(dir.join("wal.gj")).unwrap().len(),
            0,
            "checkpoint truncates the WAL"
        );
        drop(db);
        let reopened = Database::open(&dir).unwrap();
        // Relations canonicalize (sort) on construction: [4, 2] stores as [2, 4].
        assert_eq!(reopened.instance().relation("v9").unwrap().flat_values(), &[2, 4]);
    }

    #[test]
    fn committed_edits_replay_incrementally_from_the_wal() {
        let dir = scratch("edit-commits");
        sample_db().persist(&dir).unwrap();
        let mut db = Database::open(&dir).unwrap();
        // v1 starts as [0, 1, 3]; the edit inserts 5 and deletes 0.
        let changed = db.commit_edits("v1", &[vec![5]], &[vec![0]]).unwrap();
        assert_eq!(changed, 2);
        assert_eq!(db.instance().relation("v1").unwrap().flat_values(), &[1, 3, 5]);
        // A no-op batch (5 already present, 9 absent) leaves the WAL alone.
        let wal_len = std::fs::metadata(dir.join("wal.gj")).unwrap().len();
        assert!(wal_len > 0, "effective edit appended a WAL record");
        assert_eq!(db.commit_edits("v1", &[vec![5]], &[vec![9]]).unwrap(), 0);
        assert_eq!(std::fs::metadata(dir.join("wal.gj")).unwrap().len(), wal_len);
        // Malformed batches fail before the WAL too.
        let err = db.commit_edits("v1", &[vec![1, 2]], &[]).unwrap_err();
        assert!(matches!(err, EngineError::Edit(_)));
        assert_eq!(std::fs::metadata(dir.join("wal.gj")).unwrap().len(), wal_len);
        drop(db);

        let reopened = Database::open(&dir).unwrap();
        assert_eq!(
            reopened.instance().relation("v1").unwrap().flat_values(),
            &[1, 3, 5],
            "edit record replayed against the image base"
        );
    }

    #[test]
    fn durable_edge_edits_reach_the_graph_view_after_a_restart() {
        let dir = scratch("edge-edits");
        let mut db = Database::new();
        db.add_graph(Graph::new_undirected(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]));
        db.persist(&dir).unwrap();
        let image_only = Database::open(&dir).unwrap().store().unwrap().pool_stats();
        let mut db = Database::open(&dir).unwrap();
        db.commit_edits("edge", &[vec![0, 2], vec![2, 0]], &[]).unwrap();
        let q = CatalogQuery::ThreeClique.query();
        assert_eq!(db.count(&q, &Engine::Lftj).unwrap(), 1);
        assert_eq!(db.count(&q, &Engine::GraphEngine).unwrap(), 1);
        drop(db);

        let reopened = Database::open(&dir).unwrap();
        assert!(!reopened.instance().is_resident("edge"), "open folds nothing");
        assert_eq!(
            reopened.store().unwrap().pool_stats(),
            image_only,
            "open with pending edge edits fetches no page beyond the header and catalog"
        );
        assert_eq!(reopened.count(&q, &Engine::Lftj).unwrap(), 1);
        assert_eq!(
            reopened.count(&q, &Engine::GraphEngine).unwrap(),
            1,
            "the graph view is derived from the edited edge relation"
        );
        assert_eq!(reopened.graph().unwrap().num_nodes(), 5);
    }

    #[test]
    fn a_deleted_edge_drops_the_nodes_it_added_after_a_restart() {
        let dir = scratch("edge-node-count");
        let mut db = Database::new();
        db.add_graph(Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]));
        db.persist(&dir).unwrap();
        let mut db = Database::open(&dir).unwrap();
        db.commit_edits("edge", &[vec![5, 6], vec![6, 5]], &[]).unwrap();
        assert_eq!(db.graph().unwrap().num_nodes(), 7);
        db.commit_edits("edge", &[], &[vec![5, 6], vec![6, 5]]).unwrap();
        assert_eq!(db.graph().unwrap().num_nodes(), 5, "the node count follows the max endpoint");
        drop(db);
        let reopened = Database::open(&dir).unwrap();
        let graph = reopened.graph().unwrap();
        assert_eq!((graph.num_nodes(), graph.num_edges()), (5, 10));
        for q in [CatalogQuery::ThreeClique.query(), CatalogQuery::FourClique.query()] {
            assert_eq!(
                reopened.count(&q, &Engine::GraphEngine).unwrap(),
                reopened.count(&q, &Engine::Lftj).unwrap(),
                "{}",
                q.name
            );
        }
    }

    #[test]
    fn an_edge_outside_the_node_domain_fails_before_the_wal_and_the_store_reopens() {
        let dir = scratch("edge-domain");
        let mut db = Database::new();
        db.add_graph(Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]));
        db.persist(&dir).unwrap();
        let mut db = Database::open(&dir).unwrap();
        let wal_len = || std::fs::metadata(dir.join("wal.gj")).unwrap().len();
        let too_big = i64::from(u32::MAX) + 1;
        for bad in [[vec![-1, 0], vec![0, -1]], [vec![too_big, 0], vec![0, too_big]]] {
            let err = db.commit_edits("edge", &bad, &[]).unwrap_err();
            assert!(matches!(err, EngineError::Edit(_)), "{err}");
            assert_eq!(wal_len(), 0, "a rejected batch is not logged");
        }
        drop(db);
        let reopened = Database::open(&dir).unwrap();
        let q = CatalogQuery::ThreeClique.query();
        assert_eq!(reopened.count(&q, &Engine::Lftj).unwrap(), 1);
        assert_eq!(reopened.count(&q, &Engine::GraphEngine).unwrap(), 1);
        assert_eq!(reopened.graph().unwrap().num_nodes(), 4);
    }

    /// A store holding `r = {1, 2}`, opened with `r` still unhydrated.
    fn opened_with_r(tag: &str) -> Database {
        let dir = scratch(tag);
        let mut db = Database::new();
        db.add_relation("r", Relation::from_values(vec![1, 2]));
        db.persist(&dir).unwrap();
        let opened = Database::open(&dir).unwrap();
        assert!(!opened.instance().is_resident("r"));
        opened
    }

    #[test]
    fn a_clone_taken_before_a_durable_commit_keeps_its_snapshot() {
        let mut a = opened_with_r("clone-snapshot");
        let b = a.clone();
        a.commit_edits("r", &[vec![3]], &[]).unwrap();
        assert_eq!(a.instance().relation("r").unwrap().len(), 3);
        assert_eq!(b.instance().relation("r").unwrap().flat_values(), &[1, 2]);

        // A durable replacement and a checkpoint after an in-memory one leave
        // an unhydrated clone's view alone too.
        let mut a = opened_with_r("clone-replace");
        let b = a.clone();
        a.commit_relation("r", Relation::from_values(vec![7])).unwrap();
        assert_eq!(b.instance().relation("r").unwrap().flat_values(), &[1, 2]);
        let mut a = opened_with_r("clone-checkpoint");
        let b = a.clone();
        a.add_relation("r", Relation::from_values(vec![7]));
        a.checkpoint().unwrap();
        assert_eq!(b.instance().relation("r").unwrap().flat_values(), &[1, 2]);
        assert_eq!(a.instance().relation("r").unwrap().flat_values(), &[7]);
    }

    #[test]
    fn one_hydration_serves_every_clone() {
        let a = opened_with_r("clone-hydration");
        let b = a.clone();
        let store = a.store().unwrap();
        let before = store.pool_stats();
        let first: *const Relation = a.instance().relation("r").unwrap();
        let loaded = store.pool_stats();
        assert!(loaded.hits + loaded.misses > before.hits + before.misses, "hydration reads pages");
        assert!(b.instance().is_resident("r"), "the clone shares the hydrated cell");
        assert!(std::ptr::eq(first, b.instance().relation("r").unwrap()));
        assert_eq!(store.pool_stats(), loaded, "the clone's read fetched no page");
    }

    #[test]
    fn commit_without_a_store_is_a_typed_error() {
        let mut db = sample_db();
        let err = db.commit_relation("x", Relation::from_values(vec![1])).unwrap_err();
        assert_eq!(err, StoreError::NotAttached);
        assert_eq!(db.checkpoint().unwrap_err(), StoreError::NotAttached);
        assert_eq!(
            db.commit_edits("v1", &[vec![9]], &[]).unwrap_err(),
            EngineError::Store(StoreError::NotAttached)
        );
    }

    #[test]
    fn memory_only_mutations_on_an_attached_db_are_not_durable() {
        let dir = scratch("volatile");
        sample_db().persist(&dir).unwrap();
        let mut db = Database::open(&dir).unwrap();
        db.add_relation("scratchpad", Relation::from_values(vec![1, 2]));
        assert!(db.instance().relation("scratchpad").is_some());
        drop(db);
        let reopened = Database::open(&dir).unwrap();
        assert!(
            reopened.instance().relation("scratchpad").is_none(),
            "plain add_relation is memory-only; use commit_relation for durability"
        );
    }

    #[test]
    fn hydration_failure_is_a_typed_exec_error_not_an_unwind() {
        let dir = scratch("hydration-fail");
        sample_db().persist(&dir).unwrap();
        let reopened = Database::open(&dir).unwrap();
        // Destroy the data file after open: the catalog is read, but extents
        // now hit bad bytes at first hydration.
        let data = dir.join("data.gj");
        let len = std::fs::metadata(&data).unwrap().len();
        let bytes = vec![0u8; len as usize];
        std::fs::write(&data, bytes).unwrap();
        // NOTE: the open store's pager holds the *old* inode on unix only if
        // the file were renamed; overwriting in place changes what reads see.
        let q = CatalogQuery::ThreeClique.query();
        let err = reopened.prepare(&q, &Engine::Lftj).unwrap_err();
        match err {
            crate::database::EngineError::Exec(e) => {
                assert_eq!(e.kind(), "panic", "hydration failure surfaces as a caught panic");
            }
            other => panic!("expected Exec error, got {other:?}"),
        }
    }
}
