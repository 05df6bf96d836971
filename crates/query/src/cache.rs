//! The shared, database-level trie-index cache.
//!
//! Every engine in this workspace consumes GAO-consistent [`TrieIndex`]es, and a
//! graph workload reuses a handful of physical indexes across *millions* of
//! executions: 4-clique needs `edge` in at most three distinct column orders, and
//! every catalog query over the same graph shares them. An [`IndexCache`] keys
//! built indexes by `(relation name, column permutation)` and hands out
//! [`Arc`]-shared references, so a prepared query never rebuilds an index another
//! query (or a previous preparation of the same query) already paid for.
//!
//! The cache is thread-safe (`RwLock` around the map) and misses can be built in
//! parallel with [`IndexCache::build_all`], which shards independent trie builds
//! across a scoped-thread job queue — the same std-only atomic pattern as the
//! `gj-runtime` morsel driver's job pool. Replacing a relation must call
//! [`IndexCache::invalidate`] with its name; the `Database` façade in `gj-core`
//! does this from `add_relation`/`add_graph`.
//!
//! Each cached index applies an edit batch on top of its own live content
//! ([`IndexCache::apply_edits`]), so every index holds the current relation, a
//! miss builds straight from it, and the cache keeps no edit state of its own.

use gj_storage::{FailpointHit, FailpointRegistry, Relation, TrieIndex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// The per-relation slice of the cache: column permutation → shared index.
type PermMap = HashMap<Vec<usize>, Arc<TrieIndex>>;

/// An index whose delta exceeds this (`max(64, live_rows / 8)`) is folded into a
/// fresh solid base. A read index's delta holds only the batches since its fold,
/// so an index crosses it when it goes unread across batches (or one batch alone
/// is that large); the threshold bounds the memory of unread delta rows.
fn compaction_threshold(live_rows: usize) -> usize {
    64.max(live_rows / 8)
}

/// A thread-safe cache of trie indexes keyed by `(relation name, permutation)`.
///
/// Cloning the cache clones its *contents* (the `Arc`s, not the tries), giving the
/// clone an independent map: a cloned `Database` starts warm but diverges freely.
/// Clones do **not** inherit an armed failpoint registry.
///
/// Every lock acquisition recovers from poisoning: a build that panicked (e.g. an
/// armed [`TRIE_BUILD`](gj_storage::fault::sites::TRIE_BUILD) failpoint) leaves
/// the cache usable — the map only ever holds fully-built indexes, so the
/// recovered state is consistent.
#[derive(Debug, Default)]
pub struct IndexCache {
    /// relation name → permutation → built index.
    entries: RwLock<HashMap<String, PermMap>>,
    /// Fault-injection registry consulted before every trie build (tests only;
    /// `None` in production, costing one mutex lock per *build*, never per hit).
    failpoints: Mutex<Option<Arc<FailpointRegistry>>>,
}

/// Read-locks `entries`, recovering from poisoning.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `entries`, recovering from poisoning.
fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        let entries = read(&self.entries).clone();
        IndexCache { entries: RwLock::new(entries), failpoints: Mutex::new(None) }
    }
}

impl IndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// Arms (or, with `None`, disarms) a fault-injection registry. Every
    /// subsequent trie build first consults the registry's
    /// [`TRIE_BUILD`](gj_storage::fault::sites::TRIE_BUILD) site.
    pub fn set_failpoints(&self, failpoints: Option<Arc<FailpointRegistry>>) {
        *self.failpoints.lock().unwrap_or_else(PoisonError::into_inner) = failpoints;
    }

    /// Fires the `trie_build` failpoint if a registry is armed. A `Trip` action is
    /// meaningless at prepare time (there is no budget monitor) and is ignored.
    /// Compaction calls it with `entries` write-locked; the failpoint mutex is
    /// separate, so the lock order is entries → failpoints.
    fn fire_trie_build(&self) {
        let registry = self.failpoints.lock().unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(registry) = registry {
            if let Some(FailpointHit::Panic) = registry.hit(gj_storage::fault::sites::TRIE_BUILD) {
                panic!("failpoint panic: trie_build");
            }
        }
    }

    /// Looks up the index for `name` under the column permutation `perm`.
    pub fn get(&self, name: &str, perm: &[usize]) -> Option<Arc<TrieIndex>> {
        read(&self.entries).get(name)?.get(perm).cloned()
    }

    /// Inserts an index, returning the cached copy (the existing one if another
    /// thread raced the build — all callers then share a single physical index).
    pub fn insert(&self, name: &str, perm: Vec<usize>, index: Arc<TrieIndex>) -> Arc<TrieIndex> {
        let mut entries = write(&self.entries);
        entries.entry(name.to_string()).or_default().entry(perm).or_insert(index).clone()
    }

    /// Returns the cached index for `(name, perm)`, building it from `relation`
    /// on a miss.
    pub fn get_or_build(&self, name: &str, relation: &Relation, perm: &[usize]) -> Arc<TrieIndex> {
        if let Some(hit) = self.get(name, perm) {
            return hit;
        }
        let built = self.build(relation, perm);
        self.insert(name, perm.to_vec(), built)
    }

    /// Builds a solid index over `relation`, after the `trie_build` failpoint.
    fn build(&self, relation: &Relation, perm: &[usize]) -> Arc<TrieIndex> {
        self.fire_trie_build();
        Arc::new(TrieIndex::build(relation, perm))
    }

    /// Drops every index built over the relation `name`. Must be called whenever
    /// that relation is replaced, or stale indexes would keep serving the old data.
    pub fn invalidate(&self, name: &str) {
        write(&self.entries).remove(name);
    }

    /// Drops every cached index (used by benchmarks to measure cold preparations).
    pub fn clear(&self) {
        write(&self.entries).clear();
    }

    /// Number of physical indexes currently cached.
    pub fn len(&self) -> usize {
        read(&self.entries).values().map(PermMap::len).sum()
    }

    /// The largest delta any cached permutation of relation `name` carries
    /// (`inserts + tombstones`), or 0 when none carries one.
    pub fn pending_delta_len(&self, name: &str) -> usize {
        read(&self.entries)
            .get(name)
            .map_or(0, |p| p.values().map(|i| i.delta_len()).fold(0, usize::max))
    }

    /// Applies an **effective** edit batch (inserts not previously live, deletes
    /// previously live — disjoint) on top of every cached index of relation `name`
    /// ([`TrieIndex::with_edits`]), in O(delta × permutations) with no rebuild.
    /// An index whose delta then exceeds `compaction_threshold(updated.len())`
    /// (`updated` is the post-edit relation) is compacted: its fold becomes a fresh
    /// solid base. Which indexes compact is decided, and the `trie_build`
    /// failpoint fired, before any is replaced, so a failed compaction changes
    /// nothing. Returns the number of indexes compacted.
    pub fn apply_edits(
        &self,
        name: &str,
        ins: &Relation,
        del: &Relation,
        updated: &Relation,
    ) -> usize {
        let mut entries = write(&self.entries);
        let Some(perms) = entries.get_mut(name) else { return 0 };
        let threshold = compaction_threshold(updated.len());
        let edited: Vec<(Vec<usize>, TrieIndex)> =
            perms.iter().map(|(perm, index)| (perm.clone(), index.with_edits(ins, del))).collect();
        let compacted = edited.iter().filter(|(_, index)| index.delta_len() > threshold).count();
        if compacted > 0 {
            self.fire_trie_build();
        }
        for (perm, index) in edited {
            let index = if index.delta_len() > threshold { index.compacted() } else { index };
            perms.insert(perm, Arc::new(index));
        }
        compacted
    }

    /// Whether the cache holds no indexes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensures an index exists for every `(name, relation, perm)` job, building the
    /// misses across up to `threads` scoped worker threads (a shared atomic counter
    /// serves as the job queue, as in Minesweeper's parallel driver). Duplicate jobs
    /// are built once. Returns `(indexes_built, threads_used)`.
    pub fn build_all(
        &self,
        jobs: &[(&str, &Relation, Vec<usize>)],
        threads: usize,
    ) -> (usize, usize) {
        // Deduplicate and drop the hits; only the misses are work.
        let mut missing: Vec<(&str, &Relation, &[usize])> = Vec::new();
        for (name, relation, perm) in jobs {
            let dup = missing.iter().any(|(n, _, p)| n == name && *p == perm.as_slice());
            if !dup && self.get(name, perm).is_none() {
                missing.push((name, relation, perm));
            }
        }
        if missing.is_empty() {
            return (0, 1);
        }
        let threads = threads.clamp(1, missing.len());
        if threads == 1 {
            for &(name, relation, perm) in &missing {
                self.get_or_build(name, relation, perm);
            }
            return (missing.len(), 1);
        }

        let built: Mutex<Vec<Option<Arc<TrieIndex>>>> = Mutex::new(vec![None; missing.len()]);
        let next = AtomicUsize::new(0);
        // gj-lint: allow(no-direct-thread-spawn-outside-runtime) — structured scoped build before any runtime driver exists; joins before returning
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let next = &next;
                let built = &built;
                let missing = &missing;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(_, relation, perm)) = missing.get(i) else { break };
                    let index = self.build(relation, perm);
                    built.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(index);
                });
            }
        });
        let built = built.into_inner().unwrap_or_else(PoisonError::into_inner);
        for ((name, _, perm), index) in missing.iter().zip(built) {
            let index = index.expect("every job was claimed by a worker");
            self.insert(name, perm.to_vec(), index);
        }
        (missing.len(), threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge() -> Relation {
        Relation::from_pairs(vec![(0, 1), (1, 0), (1, 2), (2, 1)])
    }

    #[test]
    fn get_or_build_caches_per_name_and_perm() {
        let cache = IndexCache::new();
        let r = edge();
        let a = cache.get_or_build("edge", &r, &[0, 1]);
        let b = cache.get_or_build("edge", &r, &[0, 1]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let c = cache.get_or_build("edge", &r, &[1, 0]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_drops_only_the_named_relation() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        cache.get_or_build("edge", &r, &[1, 0]);
        cache.get_or_build("other", &r, &[0, 1]);
        cache.invalidate("edge");
        assert!(cache.get("edge", &[0, 1]).is_none());
        assert!(cache.get("other", &[0, 1]).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn build_all_builds_each_missing_key_once() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        let jobs: Vec<(&str, &Relation, Vec<usize>)> = vec![
            ("edge", &r, vec![0, 1]), // hit
            ("edge", &r, vec![1, 0]), // miss
            ("edge", &r, vec![1, 0]), // duplicate of the miss
            ("other", &r, vec![0, 1]),
        ];
        let (built, threads) = cache.build_all(&jobs, 4);
        assert_eq!(built, 2);
        assert!(threads >= 1);
        assert_eq!(cache.len(), 3);
        // A second pass is fully warm.
        assert_eq!(cache.build_all(&jobs, 4), (0, 1));
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let cache_seq = IndexCache::new();
        let cache_par = IndexCache::new();
        let r = Relation::from_rows(
            3,
            (0..60).map(|i| vec![i % 5, (i * 7) % 11, i]).collect::<Vec<_>>(),
        );
        let perms: Vec<Vec<usize>> =
            vec![vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2], vec![2, 0, 1]];
        let jobs: Vec<(&str, &Relation, Vec<usize>)> =
            perms.iter().map(|p| ("r", &r, p.clone())).collect();
        cache_seq.build_all(&jobs, 1);
        cache_par.build_all(&jobs, 4);
        for p in &perms {
            let a = cache_seq.get("r", p).unwrap();
            let b = cache_par.get("r", p).unwrap();
            assert_eq!(a.level_values(0), b.level_values(0), "perm {p:?}");
        }
    }

    #[test]
    fn an_armed_trie_build_failpoint_panics_and_leaves_the_cache_usable() {
        use gj_storage::{fault::sites, FailAction};
        let cache = IndexCache::new();
        let r = edge();
        let fp = Arc::new(FailpointRegistry::new());
        fp.arm(sites::TRIE_BUILD, FailAction::Panic);
        cache.set_failpoints(Some(fp.clone()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build("edge", &r, &[0, 1])
        }));
        assert!(result.is_err());
        assert_eq!(fp.fired(), Some("trie_build".to_string()));
        // Disarm and retry: the failed build left nothing behind, the cache works.
        cache.set_failpoints(None);
        cache.get_or_build("edge", &r, &[0, 1]);
        assert_eq!(cache.len(), 1);
    }

    /// The poison-tolerance contract, pinned per structure: a build thread that
    /// panics while holding the `entries` lock leaves the cache poisoned but
    /// fully usable, and the indexes it serves afterwards are the *same shared
    /// allocations* as before the fault (`Arc::ptr_eq`, stronger than equality).
    #[test]
    fn a_poisoned_cache_serves_the_identical_shared_indexes() {
        let cache = IndexCache::new();
        let r = edge();
        let before = cache.get_or_build("edge", &r, &[0, 1]);
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.entries.write().unwrap();
            panic!("build thread dies while holding the cache lock");
        }));
        assert!(unwind.is_err());
        assert!(cache.entries.is_poisoned(), "the panic must actually poison the lock");
        let after = cache.get("edge", &[0, 1]).expect("a poisoned cache still serves reads");
        assert!(Arc::ptr_eq(&before, &after), "the recovered index is the same allocation");
        let rebuilt = cache.get_or_build("edge", &r, &[0, 1]);
        assert!(Arc::ptr_eq(&before, &rebuilt), "no spurious rebuild after recovery");
        cache.get_or_build("edge", &r, &[1, 0]);
        assert_eq!(cache.len(), 2, "writes keep working on a poisoned cache");
    }

    #[test]
    fn apply_edits_updates_every_perm_without_rebuilding_the_base() {
        let cache = IndexCache::new();
        let r = edge();
        let before_01 = cache.get_or_build("edge", &r, &[0, 1]);
        let before_10 = cache.get_or_build("edge", &r, &[1, 0]);
        let ins = Relation::from_pairs(vec![(5, 6)]);
        let del = Relation::from_pairs(vec![(0, 1)]);
        let updated = r.with_edits(&ins, &del);
        assert_eq!(cache.apply_edits("edge", &ins, &del, &updated), 0, "no compaction");
        let after_01 = cache.get("edge", &[0, 1]).unwrap();
        let after_10 = cache.get("edge", &[1, 0]).unwrap();
        assert!(after_01.shares_base(&before_01), "base trie shared, not rebuilt");
        assert!(after_10.shares_base(&before_10));
        assert!(after_01.has_delta() && after_10.has_delta());
        assert_eq!(cache.pending_delta_len("edge"), 2);
        assert!(after_01.contains(&[5, 6]) && !after_01.contains(&[0, 1]));
        assert!(after_10.contains(&[6, 5]) && !after_10.contains(&[1, 0]));
        assert_eq!(after_01.num_rows(), updated.len());
    }

    #[test]
    fn apply_edits_normalizes_cancelling_batches() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        let row = Relation::from_pairs(vec![(7, 8)]);
        let none = Relation::empty(2);
        let after_ins = r.with_edits(&row, &none);
        cache.apply_edits("edge", &row, &none, &after_ins);
        assert_eq!(cache.pending_delta_len("edge"), 1);
        // Deleting the pending insert cancels it instead of tombstoning.
        cache.apply_edits("edge", &none, &row, &r);
        assert_eq!(cache.pending_delta_len("edge"), 0);
        let idx = cache.get("edge", &[0, 1]).unwrap();
        assert!(!idx.contains(&[7, 8]));
        // Deleting a base row then re-inserting it revives the tombstone.
        let base_row = Relation::from_pairs(vec![(0, 1)]);
        cache.apply_edits("edge", &none, &base_row, &r.with_edits(&none, &base_row));
        cache.apply_edits("edge", &base_row, &none, &r);
        assert_eq!(cache.pending_delta_len("edge"), 0);
        assert!(cache.get("edge", &[0, 1]).unwrap().contains(&[0, 1]));
    }

    #[test]
    fn oversized_deltas_compact_into_fresh_solid_bases() {
        let cache = IndexCache::new();
        let r = edge();
        let before = cache.get_or_build("edge", &r, &[0, 1]);
        cache.get_or_build("edge", &r, &[1, 0]);
        // 65 inserts and a delete on a 4-row relation cross max(64, len/8).
        let ins = Relation::from_pairs((0..65).map(|i| (100 + i, i)).collect::<Vec<_>>());
        let del = Relation::from_pairs(vec![(2, 1)]);
        let updated = r.with_edits(&ins, &del);
        assert_eq!(cache.apply_edits("edge", &ins, &del, &updated), 2, "both perms compacted");
        let after = cache.get("edge", &[0, 1]).unwrap();
        assert!(!after.has_delta(), "compaction folds the delta away");
        assert!(!after.shares_base(&before), "compaction builds a fresh base");
        assert_eq!(cache.pending_delta_len("edge"), 0);
        for perm in [[0, 1], [1, 0]] {
            let (after, rebuilt) =
                (cache.get("edge", &perm).unwrap(), TrieIndex::build(&updated, &perm));
            assert_eq!(after.num_rows(), rebuilt.num_rows());
            assert_eq!(after.max_value(), rebuilt.max_value());
            for d in 0..2 {
                assert_eq!(after.level_values(d), rebuilt.level_values(d), "perm {perm:?}");
            }
            assert_eq!(after.child_offsets(0), rebuilt.child_offsets(0), "perm {perm:?}");
        }
    }

    /// A permutation built *after* edits started holds the current relation, and
    /// the next batch applies on top of it. Regression: a delete, a late perm
    /// build, then a re-insert of the deleted row once cancelled out of a delta
    /// kept against an older base, silently dropping the row from the late perm.
    #[test]
    fn late_built_perms_survive_a_delete_then_reinsert() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        let row = Relation::from_pairs(vec![(0, 1)]);
        let none = Relation::empty(2);
        let shrunk = r.with_edits(&none, &row);
        cache.apply_edits("edge", &none, &row, &shrunk);
        // Miss on a second permutation while the delete is still pending.
        cache.get_or_build("edge", &shrunk, &[1, 0]);
        // Re-inserting the row revives the [0,1] tombstone and lands on top of
        // the late-built [1,0]: both perms must be back at the full relation.
        cache.apply_edits("edge", &row, &none, &r);
        let a = cache.get("edge", &[0, 1]).unwrap();
        let b = cache.get("edge", &[1, 0]).unwrap();
        assert!(a.contains(&[0, 1]));
        assert!(b.contains(&[1, 0]), "late-built perm lost the re-inserted row");
        assert_eq!(a.num_rows(), r.len());
        assert_eq!(b.num_rows(), r.len());
    }

    /// The mirror case: an insert, a late perm build, then a delete of that row —
    /// a late perm with the row in its base must drop it.
    #[test]
    fn late_built_perms_drop_an_insert_then_delete() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        let row = Relation::from_pairs(vec![(7, 8)]);
        let none = Relation::empty(2);
        let grown = r.with_edits(&row, &none);
        cache.apply_edits("edge", &row, &none, &grown);
        cache.get_or_build("edge", &grown, &[1, 0]);
        cache.apply_edits("edge", &none, &row, &r);
        let a = cache.get("edge", &[0, 1]).unwrap();
        let b = cache.get("edge", &[1, 0]).unwrap();
        assert!(!a.contains(&[7, 8]));
        assert!(!b.contains(&[8, 7]), "late-built perm kept the deleted row");
        assert_eq!(a.num_rows(), r.len());
        assert_eq!(b.num_rows(), r.len());
    }

    #[test]
    fn apply_edits_without_cached_indexes_is_a_no_op() {
        let cache = IndexCache::new();
        let r = edge();
        let ins = Relation::from_pairs(vec![(9, 9)]);
        let none = Relation::empty(2);
        assert_eq!(cache.apply_edits("edge", &ins, &none, &r.with_edits(&ins, &none)), 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.pending_delta_len("edge"), 0);
    }

    /// Asserts that `index` is structurally the build of `relation` under `perm`.
    fn assert_built_from(index: &TrieIndex, relation: &Relation, perm: &[usize]) {
        let rebuilt = TrieIndex::build(relation, perm);
        assert_eq!(index.num_rows(), rebuilt.num_rows(), "perm {perm:?}");
        for d in 0..rebuilt.arity() {
            assert_eq!(index.level_values(d), rebuilt.level_values(d), "perm {perm:?}");
        }
        assert_eq!(index.child_offsets(0), rebuilt.child_offsets(0), "perm {perm:?}");
    }

    /// A clone shares the original's indexes, one read (folded) and one unread.
    /// Edits to the clone stack on them without changing them: the original
    /// keeps its rows, and the clone's indexes are the build of its relation.
    #[test]
    fn edits_to_a_clone_leave_the_originals_indexes_alone() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        cache.get_or_build("edge", &r, &[1, 0]);
        let (row, none) = (Relation::from_pairs(vec![(5, 6)]), Relation::empty(2));
        let live = r.with_edits(&row, &none);
        cache.apply_edits("edge", &row, &none, &live);
        assert!(cache.get("edge", &[0, 1]).unwrap().contains(&[5, 6]), "[0,1] is folded");
        let clone = cache.clone();
        let row = Relation::from_pairs(vec![(1, 2)]);
        let shrunk = live.with_edits(&none, &row);
        clone.apply_edits("edge", &none, &row, &shrunk);
        assert!(!clone.get("edge", &[0, 1]).unwrap().contains(&[1, 2]));
        assert!(!clone.get("edge", &[1, 0]).unwrap().contains(&[2, 1]));
        clone.apply_edits("edge", &row, &none, &live);
        for perm in [[0, 1], [1, 0]] {
            assert_built_from(&cache.get("edge", &perm).unwrap(), &live, &perm);
            assert_built_from(&clone.get("edge", &perm).unwrap(), &live, &perm);
        }
    }

    /// The failpoint fires before any index is replaced: a compaction that
    /// panics leaves every permutation as it was, and a retry applies the batch.
    /// Each round's map has its own hash seed, so the rounds visit the two
    /// permutations in both orders.
    #[test]
    fn a_failed_compaction_changes_no_index() {
        use gj_storage::{fault::sites, FailAction};
        let r = edge();
        let none = Relation::empty(2);
        let inserts = |from: i64, n: i64| Relation::from_pairs((from..from + n).map(|i| (i, 0)));
        // [0,1] is read after the first batch, so only [1,0] carries both batches.
        let (first, second) = (inserts(100, 40), inserts(200, 30));
        let grown = r.with_edits(&first, &none);
        let updated = grown.with_edits(&second, &none);
        for _ in 0..8 {
            let cache = IndexCache::new();
            let [a, b] = [[0, 1], [1, 0]].map(|perm| cache.get_or_build("edge", &r, &perm));
            cache.apply_edits("edge", &first, &none, &grown);
            let before = [[0, 1], [1, 0]].map(|perm| cache.get("edge", &perm).unwrap());
            assert_built_from(&before[0], &grown, &[0, 1]);
            assert!(before[0].shares_base(&a) && before[1].shares_base(&b));
            let fp = Arc::new(FailpointRegistry::new());
            fp.arm(sites::TRIE_BUILD, FailAction::Panic);
            cache.set_failpoints(Some(fp.clone()));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.apply_edits("edge", &second, &none, &updated)
            }));
            assert!(result.is_err());
            assert_eq!(fp.fired(), Some("trie_build".to_string()));
            for (perm, before) in [[0, 1], [1, 0]].iter().zip(&before) {
                assert!(Arc::ptr_eq(before, &cache.get("edge", perm).unwrap()), "{perm:?} changed");
            }
            // Reading [1,0] would fold it; its delta is still the first batch.
            assert_eq!((before[1].delta_len(), before[1].num_rows()), (40, grown.len()));
            cache.set_failpoints(None);
            assert_eq!(cache.apply_edits("edge", &second, &none, &updated), 1, "only [1,0]");
            for perm in [[0, 1], [1, 0]] {
                assert_built_from(&cache.get("edge", &perm).unwrap(), &updated, &perm);
            }
        }
    }

    #[test]
    fn clone_is_warm_but_independent() {
        let cache = IndexCache::new();
        let r = edge();
        cache.get_or_build("edge", &r, &[0, 1]);
        let clone = cache.clone();
        assert_eq!(clone.len(), 1);
        clone.invalidate("edge");
        assert_eq!(clone.len(), 0);
        assert_eq!(cache.len(), 1, "invalidating the clone must not touch the original");
    }
}
