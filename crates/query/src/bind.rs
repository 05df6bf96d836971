//! Instances and GAO-bound queries.
//!
//! An [`Instance`] is a named catalog of relations (the database). A [`BoundQuery`]
//! pairs a [`Query`] with a global attribute order and one GAO-consistent trie index
//! per atom — the exact input shape both LeapFrog TrieJoin and Minesweeper expect
//! (Section 4.1: the *GAO-consistency assumption*). Indexes are shared through
//! [`Arc`] and cached per `(relation, permutation)`, so a query like 4-clique that
//! mentions `edge` six times builds at most a handful of physical indexes.
//!
//! Binding can run against a caller-owned [`IndexCache`]
//! ([`BoundQuery::with_cache`]), in which case indexes built for one query are
//! reused by every later binding over the same relations — the backbone of the
//! prepared-query API in `gj-core` — and cache misses are built in parallel.

use crate::cache::IndexCache;
use crate::gao::{atom_gao_vars, atom_index_perm, select_gao};
use crate::query::{Query, VarId};
use gj_storage::{Relation, TrieIndex, Val};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A loader that materializes a relation on first access (e.g. reading a
/// `gj-store` extent through its buffer pool). Infallible by signature: loaders
/// that can fail report through a panic, which the prepare path catches at its
/// `catch_unwind` boundary and surfaces as a typed `WorkerPanicked` error.
pub type RelationLoader = Arc<dyn Fn() -> Relation + Send + Sync>;

/// One catalog slot: a resident relation, or a lazily hydrated one.
///
/// Both variants keep the relation behind an [`Arc`], so cloning a slot — and
/// with it an [`Instance`] — copies pointers, never rows: a clone shares every
/// relation with its source, and replacing a slot in one clone leaves the
/// other's pointer where it was. A lazy slot's cell is shared as well, so
/// hydration happens at most once across all clones (enforced by `OnceLock`,
/// thread-safe) and every clone sees the same hydrated relation, whichever of
/// them touched it first.
///
/// A lazy loader reads the store as it is at hydration time, so an unhydrated
/// shared cell must be filled before the store behind it changes, or a clone
/// would see changes made after it was taken. Durable edits stage against the
/// hydrated relation, and a checkpoint hydrates every slot of the clone that
/// writes it, so both fill the cell first; replacing a slot (in memory or
/// durably) calls [`Instance::hydrate_if_shared`] before the old cell is let
/// go.
#[derive(Clone)]
enum Slot {
    Resident(Arc<Relation>),
    Lazy { cell: Arc<OnceLock<Arc<Relation>>>, load: RelationLoader },
}

impl Slot {
    fn get(&self) -> &Relation {
        match self {
            Slot::Resident(r) => r,
            Slot::Lazy { cell, load } => cell.get_or_init(|| Arc::new(load())),
        }
    }

    fn is_resident(&self) -> bool {
        match self {
            Slot::Resident(_) => true,
            Slot::Lazy { cell, .. } => cell.get().is_some(),
        }
    }

    /// Whether another clone still reaches this slot's unhydrated cell.
    fn is_shared_unhydrated(&self) -> bool {
        match self {
            Slot::Resident(_) => false,
            Slot::Lazy { cell, .. } => cell.get().is_none() && Arc::strong_count(cell) > 1,
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Resident(r) => f.debug_tuple("Resident").field(r).finish(),
            Slot::Lazy { cell, .. } => match cell.get() {
                Some(r) => f.debug_tuple("Lazy(hydrated)").field(r).finish(),
                None => f.write_str("Lazy(unhydrated)"),
            },
        }
    }
}

/// A database instance: a set of named relations.
///
/// Cloning costs one pointer copy per relation: the clone shares every
/// relation with its source, and each side replaces its own slots
/// independently afterwards. A lazy slot's hydration is shared too: whichever
/// clone touches it first runs the loader once, for all of them (see
/// [`hydrate_if_shared`](Self::hydrate_if_shared) for keeping that snapshot
/// when the store behind the loader changes).
#[derive(Debug, Clone, Default)]
pub struct Instance {
    relations: BTreeMap<String, Slot>,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Adds (or replaces) a relation under `name`. Takes a [`Relation`] or an
    /// `Arc<Relation>`; the latter is stored as is, without a copy.
    pub fn add_relation(&mut self, name: impl Into<String>, relation: impl Into<Arc<Relation>>) {
        let name = name.into();
        self.hydrate_if_shared(&name);
        self.relations.insert(name, Slot::Resident(relation.into()));
    }

    /// Adds (or replaces) a relation under `name` whose contents are produced
    /// by `load` on first access (see [`RelationLoader`]). Until then the slot
    /// holds no data, so opening a large disk-backed catalog stays cheap.
    pub fn add_lazy_relation(&mut self, name: impl Into<String>, load: RelationLoader) {
        let name = name.into();
        self.hydrate_if_shared(&name);
        self.relations.insert(name, Slot::Lazy { cell: Arc::default(), load });
    }

    /// Looks up a relation by name, hydrating a lazy slot on first access.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(Slot::get)
    }

    /// Hydrates `name`'s slot if it is lazy, not yet hydrated and shared with
    /// another clone of this instance. Call it before replacing the slot or
    /// changing the store its loader reads, so the other clone keeps the
    /// relation as it was when the clone was taken. A slot no clone shares is
    /// left alone: nobody else could observe its loader running later.
    pub fn hydrate_if_shared(&self, name: &str) {
        if let Some(slot) = self.relations.get(name).filter(|s| s.is_shared_unhydrated()) {
            slot.get();
        }
    }

    /// Whether `name`'s slot currently holds materialized data — `false` only
    /// for a lazy slot that has never been accessed. (Observability for tests
    /// and tools; never affects query results.)
    pub fn is_resident(&self, name: &str) -> bool {
        self.relations.get(name).is_some_and(Slot::is_resident)
    }

    /// Resolves the relation an atom refers to, checking existence and arity — the
    /// per-atom half of binding, shared by every engine's prepare path.
    pub fn atom_relation(&self, atom: &crate::query::Atom) -> Result<&Relation, String> {
        let relation = self
            .relation(&atom.relation)
            .ok_or_else(|| format!("relation {} not found in the instance", atom.relation))?;
        if relation.arity() != atom.arity() {
            return Err(format!(
                "relation {} has arity {} but the atom uses {} variables",
                atom.relation,
                relation.arity(),
                atom.arity()
            ));
        }
        Ok(relation)
    }

    /// Checks that `query` can be bound against this instance: the query itself is
    /// valid and every atom's relation exists with the right arity. This is exactly
    /// the validation [`BoundQuery::with_cache`] performs, without building indexes
    /// — used by engines that read relations directly (the pairwise baselines).
    pub fn validate_query(&self, query: &Query) -> Result<(), String> {
        query.validate()?;
        for atom in &query.atoms {
            self.atom_relation(atom)?;
        }
        Ok(())
    }

    /// The names of all stored relations.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of tuples across all relations (hydrates every lazy slot).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|s| s.get().len()).sum()
    }
}

/// One atom of a [`BoundQuery`]: the atom's variables in GAO order and the trie index
/// whose level `d` corresponds to `vars[d]`.
#[derive(Debug, Clone)]
pub struct BoundAtom {
    /// Index of the atom in the original [`Query::atoms`].
    pub atom_idx: usize,
    /// The atom's variables reordered by GAO position.
    pub vars: Vec<VarId>,
    /// GAO-consistent trie index over the atom's relation.
    pub index: Arc<TrieIndex>,
}

/// A query bound to an instance: GAO, per-atom GAO-consistent indexes, and filter
/// bookkeeping shared by every engine in this workspace.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// The query being evaluated.
    pub query: Query,
    /// The global attribute order (a permutation of all `VarId`s).
    pub gao: Vec<VarId>,
    /// Position of each variable in the GAO (`var_pos[v]` is the GAO index of `v`).
    pub var_pos: Vec<usize>,
    /// One bound atom per query atom, in the query's atom order.
    pub atoms: Vec<BoundAtom>,
}

/// What binding against an [`IndexCache`] actually had to do: how many indexes were
/// missing from the cache (and therefore built), and how many worker threads the
/// builds were sharded across. A warm cache reports `indexes_built == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BindReport {
    /// Number of trie indexes built during this binding (cache misses).
    pub indexes_built: usize,
    /// Number of worker threads the missing builds were sharded across.
    pub build_threads: usize,
}

impl BoundQuery {
    /// Binds `query` against `instance` under the given GAO (or the GAO chosen by
    /// [`select_gao`] when `gao` is `None`), building every index into a private
    /// single-threaded cache.
    ///
    /// Fails if a referenced relation is missing or has the wrong arity, if a
    /// variable occurs in no atom, or if the GAO is not a permutation of the
    /// query's variables.
    pub fn new(
        instance: &Instance,
        query: &Query,
        gao: Option<Vec<VarId>>,
    ) -> Result<Self, String> {
        let cache = IndexCache::new();
        Ok(Self::with_cache(instance, query, gao, &cache, 1)?.0)
    }

    /// Binds `query` against `instance`, taking every trie index from `cache` and
    /// building the misses — sharded across up to `threads` worker threads, since
    /// each `sorted_row_order` + trie construction is independent of the others.
    ///
    /// A `None` GAO means [`select_gao`]'s longest-path NEO order, which is what
    /// Minesweeper and the hybrid run. LFTJ does not rely on this default: its
    /// prepare path passes the order [`lftj_gao`](crate::gao::lftj_gao) estimates
    /// from per-column distinct counts.
    ///
    /// This is the workhorse of the prepared-query API: with a database-level cache
    /// the first preparation pays for the index builds and every later preparation
    /// over the same relations reports `indexes_built == 0`.
    pub fn with_cache(
        instance: &Instance,
        query: &Query,
        gao: Option<Vec<VarId>>,
        cache: &IndexCache,
        threads: usize,
    ) -> Result<(Self, BindReport), String> {
        query.validate()?;
        // A variable no atom ranges over (one named only by an order filter) has
        // no finite answer set, and no trie level to search.
        if let Some(v) = (0..query.num_vars()).find(|&v| !query.atoms.iter().any(|a| a.contains(v)))
        {
            return Err(format!("variable {} is not contained in any atom", query.var_names[v]));
        }
        let gao = gao.unwrap_or_else(|| select_gao(query));
        if gao.len() != query.num_vars() {
            return Err(format!(
                "GAO has {} entries but the query has {} variables",
                gao.len(),
                query.num_vars()
            ));
        }
        let mut var_pos = vec![usize::MAX; query.num_vars()];
        for (i, &v) in gao.iter().enumerate() {
            if v >= query.num_vars() || var_pos[v] != usize::MAX {
                return Err("GAO is not a permutation of the query variables".to_string());
            }
            var_pos[v] = i;
        }

        // Resolve every atom's relation and index permutation first, so the cache
        // misses can be built in one parallel batch before the atoms are assembled.
        let mut jobs: Vec<(&str, &Relation, Vec<usize>)> = Vec::with_capacity(query.num_atoms());
        for atom in &query.atoms {
            let relation = instance.atom_relation(atom)?;
            jobs.push((atom.relation.as_str(), relation, atom_index_perm(atom, &gao)));
        }
        let (indexes_built, build_threads) = cache.build_all(&jobs, threads);

        let mut atoms = Vec::with_capacity(query.num_atoms());
        for (atom_idx, (atom, (name, _, perm))) in query.atoms.iter().zip(&jobs).enumerate() {
            let index = cache
                .get(name, perm)
                .expect("build_all guarantees an index for every requested job");
            atoms.push(BoundAtom { atom_idx, vars: atom_gao_vars(atom, &gao), index });
        }
        let bq = BoundQuery { query: query.clone(), gao, var_pos, atoms };
        Ok((bq, BindReport { indexes_built, build_threads }))
    }

    /// Number of query variables.
    pub fn num_vars(&self) -> usize {
        self.gao.len()
    }

    /// Converts a binding indexed by GAO position into one indexed by `VarId`.
    pub fn binding_to_var_order(&self, gao_binding: &[Val]) -> Vec<Val> {
        let mut out = vec![0; gao_binding.len()];
        for (pos, &v) in self.gao.iter().enumerate() {
            out[v] = gao_binding[pos];
        }
        out
    }

    /// The atoms (by position in `self.atoms`) that contain the variable at GAO
    /// position `pos`.
    pub fn atoms_at_gao_pos(&self, pos: usize) -> Vec<usize> {
        let var = self.gao[pos];
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, ba)| ba.vars.contains(&var))
            .map(|(i, _)| i)
            .collect()
    }

    /// For each GAO position, the filters `(x, y)` (meaning `x < y`) of the query
    /// where this position holds the *later* of the two variables in the GAO; stored
    /// as `(other_gao_pos, other_is_smaller)` pairs so engines can check a filter as
    /// soon as both sides are bound.
    pub fn filters_by_gao_pos(&self) -> Vec<Vec<(usize, bool)>> {
        let mut per_pos: Vec<Vec<(usize, bool)>> = vec![Vec::new(); self.num_vars()];
        for &(x, y) in &self.query.filters {
            let (px, py) = (self.var_pos[x], self.var_pos[y]);
            if px < py {
                // y is bound later: when binding y, require binding[px] < value.
                per_pos[py].push((px, true));
            } else {
                // x is bound later: when binding x, require value < binding[py].
                per_pos[px].push((py, false));
            }
        }
        per_pos
    }

    /// Sizes of the atoms' relations, in atom order (for AGM-bound computations).
    pub fn atom_sizes(&self) -> Vec<u64> {
        self.atoms.iter().map(|a| a.index.num_rows() as u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogQuery;
    use gj_storage::Graph;

    fn small_instance() -> Instance {
        let g = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        inst.add_relation("v1", Relation::from_values(vec![0, 1, 2, 3, 4]));
        inst.add_relation("v2", Relation::from_values(vec![0, 1, 2, 3, 4]));
        inst
    }

    #[test]
    fn lazy_slots_hydrate_once_on_first_access() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let mut inst = Instance::new();
        let counter = Arc::clone(&calls);
        inst.add_lazy_relation(
            "u",
            Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                Relation::from_values(vec![1, 2, 3])
            }),
        );
        assert!(!inst.is_resident("u"), "untouched lazy slot holds no data");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(inst.relation("u").unwrap().len(), 3);
        assert_eq!(inst.relation("u").unwrap().len(), 3);
        assert!(inst.is_resident("u"));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "loader ran exactly once");
        // A clone of the hydrated slot does not run the loader again.
        let clone = inst.clone();
        assert_eq!(clone.relation("u").unwrap().len(), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clones_share_one_hydration_of_a_lazy_slot() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let mut inst = Instance::new();
        let counter = Arc::clone(&calls);
        inst.add_lazy_relation(
            "u",
            Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                Relation::from_values(vec![1, 2, 3])
            }),
        );
        let clone = inst.clone();
        let a: *const Relation = clone.relation("u").unwrap();
        assert!(inst.is_resident("u"), "hydrating one clone fills the shared cell");
        assert!(std::ptr::eq(a, inst.relation("u").unwrap()));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "loader ran once for both clones");
    }

    #[test]
    fn replacing_a_shared_unhydrated_slot_hydrates_it_for_the_other_clone() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let load: RelationLoader = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Relation::from_values(vec![1, 2, 3])
        });
        let mut inst = Instance::new();
        inst.add_lazy_relation("u", Arc::clone(&load));
        // No clone shares the cell: replacing it loads nothing.
        inst.add_relation("u", Relation::from_values(vec![9]));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        inst.add_lazy_relation("u", load);
        let keep = inst.clone();
        inst.add_relation("u", Relation::from_values(vec![9]));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "the shared cell was filled before it was let go"
        );
        assert!(keep.is_resident("u"));
        assert_eq!(keep.relation("u").unwrap().len(), 3);
        assert_eq!(inst.relation("u").unwrap().len(), 1);
    }

    #[test]
    fn clones_share_relations_until_one_replaces_its_slot() {
        let inst = small_instance();
        let mut clone = inst.clone();
        for name in ["edge", "v1", "v2"] {
            assert!(std::ptr::eq(inst.relation(name).unwrap(), clone.relation(name).unwrap()));
        }
        let shared = Arc::new(Relation::from_values(vec![7]));
        clone.add_relation("v1", Arc::clone(&shared));
        assert!(std::ptr::eq(&*shared, clone.relation("v1").unwrap()), "an Arc is stored as is");
        assert!(!std::ptr::eq(inst.relation("v1").unwrap(), clone.relation("v1").unwrap()));
        assert!(std::ptr::eq(inst.relation("v2").unwrap(), clone.relation("v2").unwrap()));
    }

    #[test]
    fn lazy_slots_bind_like_resident_ones() {
        let g = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let edge = g.edge_relation();
        let mut inst = Instance::new();
        let source = edge.clone();
        inst.add_lazy_relation("edge", Arc::new(move || source.clone()));
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(bq.atoms.len(), 3);
        assert!(inst.is_resident("edge"), "binding hydrated the slot");
    }

    #[test]
    fn binding_caches_indexes_per_relation_and_perm() {
        let inst = small_instance();
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        // All three edge atoms are indexed in natural order under GAO a,b,c, so they
        // share one physical index.
        assert!(Arc::ptr_eq(&bq.atoms[0].index, &bq.atoms[1].index));
        assert!(Arc::ptr_eq(&bq.atoms[0].index, &bq.atoms[2].index));
    }

    #[test]
    fn with_cache_reuses_indexes_across_bindings() {
        let inst = small_instance();
        let cache = IndexCache::new();
        let q = CatalogQuery::FourClique.query();
        let (cold, cold_report) = BoundQuery::with_cache(&inst, &q, None, &cache, 2).unwrap();
        assert!(cold_report.indexes_built > 0);
        let (warm, warm_report) = BoundQuery::with_cache(&inst, &q, None, &cache, 2).unwrap();
        assert_eq!(warm_report.indexes_built, 0, "second binding must be fully warm");
        for (a, b) in cold.atoms.iter().zip(&warm.atoms) {
            assert!(Arc::ptr_eq(&a.index, &b.index), "warm binding must share physical indexes");
        }
        // A different query over the same relation in the same column orders is warm
        // too.
        let (_, report) =
            BoundQuery::with_cache(&inst, &CatalogQuery::ThreeClique.query(), None, &cache, 2)
                .unwrap();
        assert_eq!(report.indexes_built, 0);
    }

    #[test]
    fn missing_relation_is_an_error() {
        let inst = Instance::new();
        let q = CatalogQuery::ThreeClique.query();
        assert!(BoundQuery::new(&inst, &q, None).is_err());
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::from_values(vec![1, 2, 3]));
        let q = CatalogQuery::ThreeClique.query();
        assert!(BoundQuery::new(&inst, &q, None).is_err());
    }

    #[test]
    fn invalid_gao_is_an_error() {
        let inst = small_instance();
        let q = CatalogQuery::ThreeClique.query();
        assert!(BoundQuery::new(&inst, &q, Some(vec![0, 0, 1])).is_err());
        assert!(BoundQuery::new(&inst, &q, Some(vec![0, 1])).is_err());
    }

    #[test]
    fn binding_conversion_roundtrips() {
        let inst = small_instance();
        let q = CatalogQuery::ThreePath.query();
        // Force a non-trivial GAO: d, c, b, a.
        let gao = vec![3, 2, 1, 0];
        let bq = BoundQuery::new(&inst, &q, Some(gao)).unwrap();
        let gao_binding = vec![40, 30, 20, 10]; // d=40, c=30, b=20, a=10
        assert_eq!(bq.binding_to_var_order(&gao_binding), vec![10, 20, 30, 40]);
    }

    #[test]
    fn filters_by_gao_pos_split_correctly() {
        let inst = small_instance();
        let q = CatalogQuery::ThreeClique.query(); // a<b, b<c with natural GAO
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let per_pos = bq.filters_by_gao_pos();
        assert!(per_pos[0].is_empty());
        assert_eq!(per_pos[1], vec![(0, true)]);
        assert_eq!(per_pos[2], vec![(1, true)]);
        // Reversed GAO c,b,a: both filters now have their *first* variable later.
        let bq = BoundQuery::new(&inst, &q, Some(vec![2, 1, 0])).unwrap();
        let per_pos = bq.filters_by_gao_pos();
        assert_eq!(per_pos[1], vec![(0, false)]); // binding b requires b < c
        assert_eq!(per_pos[2], vec![(1, false)]); // binding a requires a < b
    }

    #[test]
    fn atoms_at_gao_pos_matches_membership() {
        let inst = small_instance();
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        // Whatever GAO was selected, the atoms reported for position `p` must be
        // exactly the atoms that mention the variable `gao[p]`.
        for pos in 0..bq.num_vars() {
            let var = bq.gao[pos];
            let expected: Vec<usize> = q
                .atoms
                .iter()
                .enumerate()
                .filter(|(_, a)| a.contains(var))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(bq.atoms_at_gao_pos(pos), expected);
        }
    }
}
