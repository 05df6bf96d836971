//! Property-based tests: LeapFrog TrieJoin must agree with the naive reference join
//! on random graphs for every catalog query, under any legal GAO, and its output size
//! must respect the AGM bound.

use gj_lftj::{count, enumerate, LftjExecutor};
use gj_query::{agm_bound, naive_join, BoundQuery, CatalogQuery, Instance};
use gj_runtime::{Counters, ExecCtx, Morsel};
use gj_storage::{Graph, Relation, Val};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// A random small graph plus sample relations, described by the raw edge choices.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..12,
        prop::collection::vec((0u32..12, 0u32..12), 0..60),
        prop::collection::vec(0i64..12, 0..8),
        prop::collection::vec(0i64..12, 0..8),
    )
        .prop_map(|(n, raw_edges, v1, v2)| {
            let n = n.max(raw_edges.iter().map(|&(a, b)| a.max(b) as usize + 1).max().unwrap_or(1));
            let g = Graph::new_undirected(n, raw_edges);
            let mut inst = Instance::new();
            inst.add_relation("edge", g.edge_relation());
            inst.add_relation(
                "v1",
                Relation::from_values(v1.into_iter().filter(|&v| v < n as i64)),
            );
            inst.add_relation(
                "v2",
                Relation::from_values(v2.into_iter().filter(|&v| v < n as i64)),
            );
            inst.add_relation("v3", Relation::from_values((0..n as i64).step_by(2)));
            inst.add_relation("v4", Relation::from_values((0..n as i64).step_by(3)));
            inst
        })
}

/// The GAO-order emission sequence and counters of one whole-axis run.
fn emission(bq: &BoundQuery) -> (Vec<Vec<Val>>, Counters) {
    let mut rows = Vec::new();
    let all = Morsel::whole_axis();
    let stats = LftjExecutor::new(bq).run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |b| {
        rows.push(b.to_vec());
        ControlFlow::Continue(())
    });
    (rows, stats)
}

/// `solid` with every other `edge` atom's index rebuilt as a base trie plus a
/// delta layer holding the same relation: the edge rows picked by `seed` live
/// only in the insert trie, and absent rows sit in the base under tombstones —
/// some between live nodes, and a triangle beyond the graph whose base keys have
/// no live row at all. Every level that two `edge` atoms share then mixes a
/// solid index and a delta-carrying one read through its fold.
fn with_mixed_indexes(inst: &Instance, solid: &BoundQuery, seed: i64) -> BoundQuery {
    let live = inst.relation("edge").unwrap();
    let ins = Relation::from_rows(
        2,
        live.iter().filter(|r| (r[0] * 7 + r[1] * 3 + seed) % 3 == 0).map(<[_]>::to_vec).collect(),
    );
    let nodes: BTreeSet<Val> = live.iter().map(|r| r[0]).collect();
    let absent = nodes
        .iter()
        .flat_map(|&x| nodes.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| x != y && (x + y + seed) % 4 == 0 && !live.contains(&[x, y]));
    let beyond = [(100, 101), (101, 102), (102, 100)].map(|(x, y)| (x + seed, y + seed));
    let del = Relation::from_pairs(absent.take(4).chain(beyond));
    let mut base_inst = inst.clone();
    base_inst.add_relation("edge", live.with_edits(&del, &ins));
    let base = BoundQuery::new(&base_inst, &solid.query, Some(solid.gao.clone())).unwrap();
    let mut mixed = solid.clone();
    let edge_atoms = mixed
        .atoms
        .iter_mut()
        .zip(&base.atoms)
        .filter(|(a, _)| solid.query.atoms[a.atom_idx].relation == "edge");
    for (atom, base_atom) in edge_atoms.step_by(2) {
        atom.index = Arc::new(base_atom.index.with_edits(&ins, &del));
    }
    mixed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lftj_matches_naive_on_all_catalog_queries(inst in arb_instance()) {
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let expected = naive_join(&inst, &q);
            prop_assert_eq!(enumerate(&bq), expected, "{}", q.name);
        }
    }

    #[test]
    fn levels_mixing_solid_and_delta_participants_match_solid_indexes(
        inst in arb_instance(),
        seed in 0i64..12,
    ) {
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let solid = BoundQuery::new(&inst, &q, None).unwrap();
            let mixed = with_mixed_indexes(&inst, &solid, seed);
            prop_assert_eq!(emission(&mixed), emission(&solid), "{}", q.name);
        }
    }

    #[test]
    fn lftj_is_gao_independent(inst in arb_instance(), seed in 0u64..1000) {
        // Evaluate the 4-cycle under a pseudo-random GAO and the default one.
        let q = CatalogQuery::FourCycle.query();
        let n = q.num_vars();
        let mut gao: Vec<usize> = (0..n).collect();
        // Cheap deterministic shuffle from the seed.
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(31).wrapping_add(i * 7) % (i + 1);
            gao.swap(i, j);
        }
        let default = BoundQuery::new(&inst, &q, None).unwrap();
        let shuffled = BoundQuery::new(&inst, &q, Some(gao)).unwrap();
        prop_assert_eq!(enumerate(&default), enumerate(&shuffled));
    }

    #[test]
    fn output_size_respects_agm_bound(inst in arb_instance()) {
        // The AGM bound ignores the order filters, so compare against the unfiltered
        // variants of the cyclic queries (drop filters before counting).
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle] {
            let mut q = cq.query();
            q.filters.clear();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let bound = agm_bound(&q, &bq.atom_sizes());
            let actual = count(&bq) as f64;
            prop_assert!(actual <= bound.bound + 1e-6,
                "{}: {} > AGM bound {}", q.name, actual, bound.bound);
        }
    }
}
