//! Allocation guard for the LFTJ search: the executor allocates its per-depth
//! cursor buffers once, in `LftjExecutor::new`, and every search reuses them, so a
//! *second* `run_range_ctx` on one executor — over solid tries or over tries that
//! carry a delta layer — must not touch the heap at all. The same holds for a
//! second `count_range_ctx`: the last level's bitmaps keep their words' capacity.
//! The 4-cycle's graph has a contiguous root, so those guards also cover the
//! participants the executor takes out of the leapfrog rotation. On LDBC-shaped
//! relations, a count that multiplies out a tail and a run or count that walks
//! an inner position's bitmap allocate nothing warm either.

use gj_lftj::LftjExecutor;
use gj_query::{BoundQuery, CatalogQuery, Instance, LdbcQuery, Query};
use gj_runtime::{Counters, ExecCtx, Morsel};
use gj_storage::{Graph, Relation, Val};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

fn random_edges(seed: u64, n: u32, p: f64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen_bool(p)).collect();
    Graph::new_undirected(n as usize, edges).edge_relation()
}

fn edge_instance(edge: Relation) -> Instance {
    let mut inst = Instance::new();
    inst.add_relation("edge", edge);
    inst
}

/// Runs `bq` twice on one executor and returns the second run's counters with the
/// allocations it made.
fn warm_run(bq: &BoundQuery) -> (Counters, u64) {
    let mut exec = LftjExecutor::new(bq);
    let all = Morsel::whole_axis();
    let mut run =
        || exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()));
    let cold = run();
    let (warm, allocations) = counting_alloc::allocations_during(run);
    assert_eq!(warm, cold, "a re-run on one executor repeats the first run exactly");
    assert!(warm.results > 0, "vacuous: the query has no answer");
    (warm, allocations)
}

fn assert_warm_run_allocates_nothing(bq: &BoundQuery) {
    let (warm, allocations) = warm_run(bq);
    assert_eq!(
        allocations, 0,
        "{}: a warm run of {} bindings allocated {allocations} times",
        bq.query.name, warm.bindings_explored
    );
}

/// Counts `bq` twice on one executor and returns the second count's counters with
/// the allocations the first and the second count made. Both counts report the
/// row path's counters.
fn warm_count(bq: &BoundQuery) -> (Counters, u64, u64) {
    let mut exec = LftjExecutor::new(bq);
    let all = Morsel::whole_axis();
    let mut count = || exec.count_range_ctx(all.lo, all.hi, &ExecCtx::none());
    let (cold, cold_allocations) = counting_alloc::allocations_during(&mut count);
    let (warm, allocations) = counting_alloc::allocations_during(count);
    assert_eq!(warm, cold, "a re-count on one executor repeats the first count exactly");
    assert_eq!(warm, warm_run(bq).0, "a count reports the row path's counters");
    (warm, cold_allocations, allocations)
}

/// The first count builds bitmaps (so it allocates); the second allocates nothing.
fn assert_warm_count_allocates_nothing(bq: &BoundQuery) {
    let (warm, cold_allocations, allocations) = warm_count(bq);
    assert!(cold_allocations > 0, "{}: vacuous, the count built no bitmap", bq.query.name);
    assert_eq!(
        allocations, 0,
        "{}: a warm count of {} bindings allocated {allocations} times",
        bq.query.name, warm.bindings_explored
    );
}

fn bound(inst: &Instance, query: &Query) -> BoundQuery {
    BoundQuery::new(inst, query, None).unwrap()
}

/// The 4-cycle over a graph in which every node has an edge: the `edge` trie's
/// root is the ids `0..120`, so the atoms that open it after the first GAO
/// position leave the rotation.
fn four_cycle_over_a_contiguous_root() -> BoundQuery {
    let bq = bound(&edge_instance(random_edges(8, 120, 0.06)), &CatalogQuery::FourCycle.query());
    for atom in &bq.atoms {
        assert_eq!(atom.index.first_level_values(), (0..120).collect::<Vec<Val>>());
    }
    bq
}

#[test]
fn a_warm_executor_allocates_nothing_on_the_3_clique() {
    let inst = edge_instance(random_edges(7, 120, 0.08));
    assert_warm_run_allocates_nothing(&bound(&inst, &CatalogQuery::ThreeClique.query()));
}

#[test]
fn a_warm_executor_allocates_nothing_on_the_4_cycle() {
    assert_warm_run_allocates_nothing(&four_cycle_over_a_contiguous_root());
}

#[test]
fn a_warm_count_allocates_nothing_on_the_3_clique() {
    let inst = edge_instance(random_edges(7, 120, 0.08));
    assert_warm_count_allocates_nothing(&bound(&inst, &CatalogQuery::ThreeClique.query()));
}

#[test]
fn a_warm_count_allocates_nothing_on_the_4_cycle() {
    assert_warm_count_allocates_nothing(&four_cycle_over_a_contiguous_root());
}

/// The 3-clique over `live`, solid, and over indexes whose base is `live` plus
/// `del` with every `del` row tombstoned and the edge rows whose endpoints sum to a
/// multiple of 5 moved into the insert trie: the same live relation either way.
fn solid_and_delta(live: Relation, del: Relation) -> (BoundQuery, BoundQuery) {
    let ins = Relation::from_rows(
        2,
        live.iter().filter(|r| (r[0] + r[1]) % 5 == 0).map(<[_]>::to_vec).collect(),
    );
    let base = live.with_edits(&del, &ins);
    let query = CatalogQuery::ThreeClique.query();
    let solid = bound(&edge_instance(live), &query);
    let mut delta = BoundQuery::new(&edge_instance(base), &query, Some(solid.gao.clone())).unwrap();
    for atom in &mut delta.atoms {
        atom.index = Arc::new(atom.index.with_edits(&ins, &del));
        assert!(atom.index.has_delta());
    }
    (solid, delta)
}

/// Every atom's index carries a delta layer: three rows between live nodes sit
/// in the base under tombstones. The first run folds each delta into a solid
/// trie; the counters match the solid run and the warm run, over the folds,
/// allocates nothing.
#[test]
fn a_warm_executor_allocates_nothing_over_delta_carrying_indexes() {
    let live = random_edges(9, 120, 0.08);
    let nodes: BTreeSet<Val> = live.iter().map(|r| r[0]).collect();
    let absent = nodes
        .iter()
        .flat_map(|&x| nodes.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| x != y && !live.contains(&[x, y]));
    let del = Relation::from_pairs(absent.take(3));
    let (solid, delta) = solid_and_delta(live, del);
    assert_eq!(warm_run(&delta).0, warm_run(&solid).0, "the delta layer changes no counter");
    assert_warm_run_allocates_nothing(&delta);
    let (warm, _, allocations) = warm_count(&delta);
    assert_eq!(warm, warm_count(&solid).0, "the delta layer changes no count");
    assert_eq!(allocations, 0, "a warm count over the folds allocated {allocations} times");
}

/// Tombstoned rows whose endpoints lie outside the graph leave base keys with no
/// live row under them. The fold drops such keys, so LFTJ explores exactly the
/// bindings of the solid run (presenting the dead keys explored 880 bindings here
/// against the solid run's 877).
#[test]
fn keys_whose_rows_are_all_tombstoned_add_no_bindings() {
    let live = random_edges(9, 120, 0.08);
    let del = Relation::from_pairs([(200, 201), (201, 202), (202, 200)]);
    let (solid, delta) = solid_and_delta(live, del);
    let (solid, delta) = (warm_run(&solid).0, warm_run(&delta).0);
    assert_eq!(solid.bindings_explored, 877);
    assert_eq!(delta, solid, "dead keys add no binding");
}

/// Random LDBC-shaped relations: 50 persons, 200 messages with one creator and
/// two of 10 tags each, a sparse `knows`, ten likes per person on 5 days, and a
/// three-tag sample.
fn social_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(12);
    let (persons, messages) = (50, 200);
    let mut inst = Instance::new();
    inst.add_relation("tagSample", Relation::from_values([0, 3, 7]));
    let tags = (0..messages).flat_map(|m| [(m, rng.gen_range(0..10)), (m, rng.gen_range(0..10))]);
    inst.add_relation("hasTag", Relation::from_pairs(tags.collect::<Vec<_>>()));
    let creators = (0..messages).map(|m| (m, rng.gen_range(0..persons)));
    inst.add_relation("hasCreator", Relation::from_pairs(creators.collect::<Vec<_>>()));
    let knows = (0..persons).flat_map(|c| (0..persons).map(move |p| (c, p)));
    inst.add_relation(
        "knows",
        Relation::from_pairs(knows.filter(|_| rng.gen_bool(0.1)).collect::<Vec<_>>()),
    );
    let likes = (0..persons)
        .flat_map(|p| (0..10).map(move |_| p))
        .map(|p| vec![p, rng.gen_range(0..messages), rng.gen_range(0..5)])
        .collect();
    inst.add_relation("likes", Relation::from_rows(3, likes));
    inst
}

/// `lq` over [`social_instance`] under the GAO that lists its variables as
/// `names` (LFTJ's own order on the benchmark network).
fn social(lq: LdbcQuery, names: &[&str]) -> BoundQuery {
    let q = lq.query();
    let gao = names.iter().map(|n| q.var_names.iter().position(|v| v == n).unwrap()).collect();
    BoundQuery::new(&social_instance(), &q, Some(gao)).unwrap()
}

/// `common-likes` counts `d1 b d2` as a tail: no bitmap, no allocation.
#[test]
fn a_warm_tail_count_allocates_nothing() {
    let bq = social(LdbcQuery::CommonLikes, &["m", "a", "d1", "b", "d2"]);
    let (warm, _, allocations) = warm_count(&bq);
    assert_eq!(
        allocations, 0,
        "a warm tail count of {} bindings allocated {allocations} times",
        warm.bindings_explored
    );
}

/// `deep-tag-reach` walks `likes(p, n, d)` at `n` against the bitmap of
/// `hasTag(n, t)`, the same slice under every `(m, c, p)` of one tag: the first
/// run and the first count build bitmaps, the warm ones allocate nothing.
#[test]
fn a_warm_inner_walk_allocates_nothing() {
    let bq = social(LdbcQuery::DeepTagReach, &["t", "m", "c", "p", "n", "d"]);
    let mut exec = LftjExecutor::new(&bq);
    let all = Morsel::whole_axis();
    let mut run =
        || exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()));
    let (_, cold_allocations) = counting_alloc::allocations_during(&mut run);
    assert!(cold_allocations > 0, "vacuous: the run built no bitmap");
    assert_warm_run_allocates_nothing(&bq);
    assert_warm_count_allocates_nothing(&bq);
}
