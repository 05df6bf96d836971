//! Property-based tests: LeapFrog TrieJoin must agree with the naive reference join
//! on random graphs for every catalog query, under any legal GAO, its output size
//! must respect the AGM bound, and its count must report the row path's counters.
//! A graph whose trie roots are contiguous id ranges must behave exactly as the
//! same graph relabelled with gaps, where no participant leaves the rotation.
//! On LDBC-shaped relations and a ternary one, counts that multiply out a tail
//! and searches that walk a reused slice's bitmap must report the counters an
//! independent oracle derives from the reference join of every GAO prefix.

use gj_lftj::{count, enumerate, LftjExecutor};
use gj_query::{
    agm_bound, lftj_gao, naive_join, BoundQuery, CatalogQuery, Instance, LdbcQuery, Query,
    QueryBuilder,
};
use gj_runtime::{Counters, ExecCtx, Morsel};
use gj_storage::{Graph, Relation, Val, NEG_INF, POS_INF};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
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

/// How [`relabelled_instance`] maps node `i` to a value: around zero, negative,
/// just above `i64::MIN`, just below `i64::MAX`, split between both ends (spans
/// that overflow `i64`), spread over several bitmap words, or spread too thin for
/// a bitmap.
fn relabel(mode: u8, i: Val) -> Val {
    match mode {
        0 => i,
        1 => i - 13,
        2 => NEG_INF + 1 + i,
        3 => POS_INF - 40 + i,
        4 if i % 2 == 0 => NEG_INF + 1 + i,
        4 => POS_INF - 40 + i,
        5 => 3 * i + i % 2 - 30,
        _ => i * 1_000 - 7_000,
    }
}

/// A random graph on up to 24 nodes whose node ids are relabelled by `mode`, with
/// `v1`..`v4` sampled from the relabelled nodes.
fn relabelled_instance() -> impl Strategy<Value = (Instance, Vec<Val>)> {
    (2usize..24, prop::collection::vec((0u32..24, 0u32..24), 0..140), 0u8..7, 0u64..1 << 32)
        .prop_map(|(n, raw_edges, mode, seed)| {
            let n = n.max(raw_edges.iter().map(|&(a, b)| a.max(b) as usize + 1).max().unwrap_or(1));
            let edge = Graph::new_undirected(n, raw_edges).edge_relation();
            let edge = Relation::from_pairs(
                edge.iter().map(|r| (relabel(mode, r[0]), relabel(mode, r[1]))),
            );
            let nodes: Vec<Val> = (0..n as Val).map(|i| relabel(mode, i)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut inst = Instance::new();
            inst.add_relation("edge", edge);
            for name in ["v1", "v2", "v3", "v4"] {
                let sample = nodes.iter().copied().filter(|_| rng.gen_bool(0.5));
                inst.add_relation(name, Relation::from_values(sample));
            }
            (inst, nodes)
        })
}

/// Tiles the whole axis into morsels cut at a random subset of `values`, listed in
/// a random order.
fn shuffled_morsels(values: &[Val], rng: &mut StdRng) -> Vec<Morsel> {
    let mut cuts: Vec<Val> = values.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let bounds: Vec<Val> = std::iter::once(NEG_INF).chain(cuts).chain([POS_INF]).collect();
    let mut morsels: Vec<Morsel> = bounds.windows(2).map(|w| Morsel::new(w[0], w[1])).collect();
    for i in (1..morsels.len()).rev() {
        morsels.swap(i, rng.gen_range(0..i + 1));
    }
    morsels
}

/// The edit a [`contiguous_case`] applies on top of its covered graph.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// None: every root is contiguous.
    None,
    /// The solid graph without a middle node's edges: a root with one hole.
    SolidHole,
    /// A delta batch deleting every edge of a middle node, opening a hole.
    DeltaHole,
    /// A delta batch inserting a node at `first + len`, extending the range.
    DeltaExtend,
}

/// A graph on `n` nodes in which every node has an edge, an [`Edit`] of it, the
/// offset of its contiguous labelling (node `i` is `i + offset`; `0`, `-13`, just
/// above `i64::MIN` or just below `i64::MAX`) and a seed for samples and morsels.
fn contiguous_case() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Edit, u8, u64)> {
    let edits = [Edit::None, Edit::SolidHole, Edit::DeltaHole, Edit::DeltaExtend];
    (
        3usize..20,
        prop::collection::vec((0u32..20, 0u32..20), 0..100),
        0usize..4,
        0u8..4,
        0u64..1 << 32,
    )
        .prop_map(move |(n, raw, edit, offset, seed)| {
            let edit = edits[edit];
            let mut edges: Vec<(u32, u32)> =
                raw.into_iter().filter(|&(a, b)| (a as usize) < n && (b as usize) < n).collect();
            edges.extend((0..n as u32).map(|i| (i, (i + 1) % n as u32)));
            (n, edges, edit, offset, seed)
        })
}

/// One labelling of a [`contiguous_case`]: node `i` is `scale * i + offset`.
#[derive(Debug, Clone, Copy)]
struct Labelling {
    scale: Val,
    offset: Val,
}

impl Labelling {
    fn of(&self, i: Val) -> Val {
        self.scale * i + self.offset
    }

    /// The node index of a labelled value.
    fn index(&self, v: Val) -> Val {
        v.wrapping_sub(self.offset) / self.scale
    }

    /// A morsel bound over node indexes: the infinities stay, node `i` is labelled.
    fn bound(&self, i: Val) -> Val {
        if i == NEG_INF || i == POS_INF {
            i
        } else {
            self.of(i)
        }
    }

    fn edges(&self, edges: &[(Val, Val)]) -> Relation {
        Relation::from_pairs(edges.iter().flat_map(|&(a, b)| {
            let (a, b) = (self.of(a), self.of(b));
            [(a, b), (b, a)]
        }))
    }

    fn nodes(&self, nodes: &[Val]) -> Relation {
        Relation::from_values(nodes.iter().map(|&i| self.of(i)))
    }
}

/// Whether a trie root level is a run of consecutive integers.
fn is_contiguous(root: &[Val]) -> bool {
    root.last().is_some_and(|&last| last.abs_diff(root[0]) == root.len() as u64 - 1)
}

/// A [`contiguous_case`]'s edges by node index: the graph, and the edit's
/// inserted and deleted edges.
struct EditedGraph {
    base: Vec<(Val, Val)>,
    ins: Vec<(Val, Val)>,
    del: Vec<(Val, Val)>,
}

/// Builds `q` over `graph` in `label`, with the edit applied as a delta layer on
/// every `edge` index (`delta`) or to the solid relation.
fn bind_labelled(
    q: &gj_query::Query,
    label: Labelling,
    graph: &EditedGraph,
    samples: &[Vec<Val>],
    delta: bool,
    gao: Option<Vec<usize>>,
) -> BoundQuery {
    let (base, ins, del) =
        (label.edges(&graph.base), label.edges(&graph.ins), label.edges(&graph.del));
    let mut inst = Instance::new();
    inst.add_relation("edge", if delta { base } else { base.with_edits(&ins, &del) });
    for (name, sample) in ["v1", "v2", "v3", "v4"].into_iter().zip(samples) {
        inst.add_relation(name, label.nodes(sample));
    }
    let mut bq = BoundQuery::new(&inst, q, gao).unwrap();
    if delta {
        for atom in bq.atoms.iter_mut().filter(|a| q.atoms[a.atom_idx].relation == "edge") {
            atom.index = Arc::new(atom.index.with_edits(&ins, &del));
        }
    }
    bq
}

/// Random relations of the LDBC shapes — `likes(p, m, d)`, `hasCreator(m, c)`,
/// `knows(p, c)`, `hasTag(m, t)`, `tagSample(t)` — and a ternary `r(a, b, c)`,
/// over the indexes `0..12` relabelled by one [`relabel`] mode (so around zero,
/// near either end of `i64`, or spread), with the relabelled values.
fn social_instance() -> impl Strategy<Value = (Instance, Vec<Val>)> {
    let triples = || prop::collection::vec((0..12i64, 0..12i64, 0..12i64), 0..80);
    let pairs = || prop::collection::vec((0..12i64, 0..12i64), 0..40);
    let sample = prop::collection::vec(0..12i64, 0..6);
    ((triples(), triples()), pairs(), pairs(), pairs(), sample, 0u8..7).prop_map(
        |((likes, r), creator, knows, tags, sample, mode)| {
            let l = |i: Val| relabel(mode, i);
            let ternary = |rows: Vec<(Val, Val, Val)>| {
                Relation::from_rows(
                    3,
                    rows.into_iter().map(|(a, b, c)| vec![l(a), l(b), l(c)]).collect(),
                )
            };
            let binary = |rows: Vec<(Val, Val)>| {
                Relation::from_pairs(rows.into_iter().map(|(a, b)| (l(a), l(b))))
            };
            let mut inst = Instance::new();
            inst.add_relation("likes", ternary(likes));
            inst.add_relation("hasCreator", binary(creator));
            inst.add_relation("knows", binary(knows));
            inst.add_relation("hasTag", binary(tags));
            inst.add_relation("tagSample", Relation::from_values(sample.into_iter().map(l)));
            inst.add_relation("r", ternary(r));
            (inst, (0..12).map(l).collect())
        },
    )
}

/// The LDBC reads whose counts end in a tail or whose searches walk a reused
/// slice, and ternary queries whose filters stop a tail: between two would-be
/// tail variables (`c < e`), and on a tail atom's second level (`p < c`).
fn tail_queries() -> Vec<Query> {
    let ldbc = [
        LdbcQuery::CommonLikes,
        LdbcQuery::TaggedCreatorPath,
        LdbcQuery::MutualFans,
        LdbcQuery::DeepTagReach,
        LdbcQuery::CreatorFan,
    ];
    let pair = |name: &str| {
        QueryBuilder::new(name).atom("r", &["a", "b", "c"]).atom("r", &["a", "d", "e"])
    };
    ldbc.iter()
        .map(LdbcQuery::query)
        .chain([
            QueryBuilder::new("ternary").atom("r", &["a", "b", "c"]).build(),
            pair("ternary-pair").build(),
            pair("filter-between-tails").lt("c", "e").build(),
            QueryBuilder::new("filter-on-second-level")
                .atom("knows", &["p", "q"])
                .atom("r", &["q", "b", "c"])
                .lt("p", "c")
                .build(),
        ])
        .collect()
}

/// Per GAO depth `d`, the first GAO value of each binding LFTJ explores there:
/// the reference join of every atom projected onto `gao[..=d]`, under the
/// filters between those variables.
fn explored_by_depth(inst: &Instance, bq: &BoundQuery) -> Vec<Vec<Val>> {
    let q = &bq.query;
    let name = |v: usize| q.var_names[v].as_str();
    (1..=bq.num_vars())
        .map(|depth| {
            let prefix = &bq.gao[..depth];
            let (mut sub, mut builder) = (Instance::new(), QueryBuilder::new("prefix"));
            for (i, atom) in q.atoms.iter().enumerate() {
                let cols: Vec<usize> =
                    (0..atom.arity()).filter(|&c| prefix.contains(&atom.vars[c])).collect();
                if cols.is_empty() {
                    continue;
                }
                let rows = inst.relation(&atom.relation).unwrap().iter();
                let rows = rows.map(|r| cols.iter().map(|&c| r[c]).collect()).collect();
                sub.add_relation(format!("atom{i}"), Relation::from_rows(cols.len(), rows));
                let vars: Vec<&str> = cols.iter().map(|&c| name(atom.vars[c])).collect();
                builder = builder.atom(&format!("atom{i}"), &vars);
            }
            for &(x, y) in
                q.filters.iter().filter(|(x, y)| prefix.contains(x) && prefix.contains(y))
            {
                builder = builder.lt(name(x), name(y));
            }
            let pq = builder.build();
            let first = pq.var(name(bq.gao[0])).unwrap();
            naive_join(&sub, &pq).iter().map(|row| row[first]).collect()
        })
        .collect()
}

/// A seeded permutation of `0..n`.
fn shuffled_gao(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut gao: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        gao.swap(i, rng.gen_range(0..i + 1));
    }
    gao
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under LFTJ's own GAO and a random one, one executor counts and another
    /// runs every morsel, in shuffled order, so a tail's ranges or a bitmap kept
    /// from another morsel would show. Both report the prefix oracle's counters,
    /// and the run emits the reference join's rows in lexicographic GAO order.
    #[test]
    fn tails_and_inner_walks_report_the_prefix_oracles_counters(
        (inst, values) in social_instance(),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for q in tail_queries() {
            let gaos = [lftj_gao(&q, &inst), shuffled_gao(q.num_vars(), &mut rng)];
            for gao in gaos {
                let bq = BoundQuery::new(&inst, &q, Some(gao.clone())).unwrap();
                let explored = explored_by_depth(&inst, &bq);
                let mut expected: Vec<Vec<Val>> = naive_join(&inst, &q)
                    .iter()
                    .map(|row| gao.iter().map(|&v| row[v]).collect())
                    .collect();
                expected.sort_unstable();
                let (mut counter, mut runner) = (LftjExecutor::new(&bq), LftjExecutor::new(&bq));
                for m in shuffled_morsels(&values, &mut rng) {
                    let inside = |v: &&Val| m.lo <= **v && **v < m.hi;
                    let per_depth: Vec<u64> =
                        explored.iter().map(|d| d.iter().filter(inside).count() as u64).collect();
                    let oracle = Counters {
                        results: per_depth[per_depth.len() - 1],
                        bindings_explored: per_depth.iter().sum(),
                        ..Counters::default()
                    };
                    let counted = counter.count_range_ctx(m.lo, m.hi, &ExecCtx::none());
                    let mut rows = Vec::new();
                    let ran = runner.run_range_ctx(m.lo, m.hi, &ExecCtx::none(), &mut |b| {
                        rows.push(b.to_vec());
                        ControlFlow::Continue(())
                    });
                    let want: Vec<Vec<Val>> =
                        expected.iter().filter(|row| inside(&&row[0])).cloned().collect();
                    prop_assert_eq!(counted, oracle, "{} {:?} morsel {:?}: count", q.name, gao, m);
                    prop_assert_eq!(ran, oracle, "{} {:?} morsel {:?}: run", q.name, gao, m);
                    prop_assert_eq!(rows, want, "{} {:?} morsel {:?}: rows", q.name, gao, m);
                }
            }
        }
    }

    /// One executor counts every morsel, in shuffled order, so a bitmap kept from
    /// another morsel's slice would show; each count must report the counters of a
    /// fresh executor's row path over the same morsel.
    #[test]
    fn a_reused_count_reports_the_row_paths_counters(
        (inst, nodes) in relabelled_instance(),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let mut counter = LftjExecutor::new(&bq);
            let mut total = Counters::default();
            for m in shuffled_morsels(&nodes, &mut rng) {
                let counted = counter.count_range_ctx(m.lo, m.hi, &ExecCtx::none());
                let emitted = LftjExecutor::new(&bq).run_range_ctx(
                    m.lo,
                    m.hi,
                    &ExecCtx::none(),
                    &mut |_| ControlFlow::Continue(()),
                );
                prop_assert_eq!(counted, emitted, "{} morsel {:?}", q.name, m);
                total.merge(counted);
            }
            prop_assert_eq!(total, emission(&bq).1, "{}", q.name);
        }
    }

    /// Node `i` labelled `i + c` (contiguous roots, so participants leave the
    /// rotation) against `2i + c'` (no contiguous root): one executor per
    /// labelling counts and runs every morsel, in one shuffled order, and both
    /// labellings report the same counters and the same rows, in order.
    #[test]
    fn contiguous_roots_agree_with_a_relabelling_that_has_none(
        (n, edges, edit, offset, seed) in contiguous_case(),
    ) {
        let n = n as Val;
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(Val, Val)> = edges.iter().map(|&(a, b)| (a as Val, b as Val)).collect();
        let middle = rng.gen_range(1..n - 1);
        let mut graph = EditedGraph { base: edges, ins: vec![], del: vec![] };
        match edit {
            Edit::None => {}
            Edit::SolidHole | Edit::DeltaHole => {
                let touches = |&(a, b): &(Val, Val)| a == middle || b == middle;
                graph.del = graph.base.iter().copied().filter(touches).collect();
            }
            Edit::DeltaExtend => graph.ins = vec![(n, middle), (n, 0)],
        }
        let delta = matches!(edit, Edit::DeltaHole | Edit::DeltaExtend);
        let nodes = if matches!(edit, Edit::DeltaExtend) { n + 1 } else { n };
        // Every sample holds two nodes at least, so none is contiguous in `2i + c'`.
        // Half are a run of nodes, which a taken-out participant must clip to.
        let samples: Vec<Vec<Val>> = (0..4)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    let first = rng.gen_range(0..nodes - 1);
                    return (first..=rng.gen_range(first + 1..nodes)).collect();
                }
                let mut s: Vec<Val> = (0..nodes).filter(|_| rng.gen_bool(0.5)).collect();
                s.extend([0, nodes - 1]);
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let (contiguous, spread) = match offset {
            0 => (Labelling { scale: 1, offset: 0 }, Labelling { scale: 2, offset: 0 }),
            1 => (Labelling { scale: 1, offset: -13 }, Labelling { scale: 2, offset: 5 }),
            2 => (
                Labelling { scale: 1, offset: NEG_INF + 1 },
                Labelling { scale: 2, offset: NEG_INF + 1 },
            ),
            _ => (
                Labelling { scale: 1, offset: POS_INF - nodes },
                Labelling { scale: 2, offset: POS_INF - 2 * nodes + 1 },
            ),
        };
        let indexes: Vec<Val> = (0..nodes).collect();
        let morsels = shuffled_morsels(&indexes, &mut rng);
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let a = bind_labelled(&q, contiguous, &graph, &samples, delta, None);
            let b = bind_labelled(&q, spread, &graph, &samples, false, Some(a.gao.clone()));
            let edge_root = a.atoms.iter().find(|x| q.atoms[x.atom_idx].relation == "edge");
            let holed = matches!(edit, Edit::SolidHole | Edit::DeltaHole);
            prop_assert_eq!(
                is_contiguous(edge_root.unwrap().index.first_level_values()),
                !holed,
                "{}: the edge root is contiguous unless a node lost its edges",
                q.name
            );
            let oracle_roots = b.atoms.iter().map(|x| x.index.first_level_values());
            prop_assert!(
                !oracle_roots.into_iter().any(is_contiguous),
                "{}: the oracle has a contiguous root",
                q.name
            );
            let (mut ea, mut eb) = (LftjExecutor::new(&a), LftjExecutor::new(&b));
            for &Morsel { lo, hi } in &morsels {
                let m = |label: Labelling| (label.bound(lo), label.bound(hi));
                let ((alo, ahi), (blo, bhi)) = (m(contiguous), m(spread));
                let counts = (
                    ea.count_range_ctx(alo, ahi, &ExecCtx::none()),
                    eb.count_range_ctx(blo, bhi, &ExecCtx::none()),
                );
                let (mut rows_a, mut rows_b) = (Vec::new(), Vec::new());
                let runs = (
                    ea.run_range_ctx(alo, ahi, &ExecCtx::none(), &mut |r| {
                        rows_a.push(r.iter().map(|&v| contiguous.index(v)).collect::<Vec<_>>());
                        ControlFlow::Continue(())
                    }),
                    eb.run_range_ctx(blo, bhi, &ExecCtx::none(), &mut |r| {
                        rows_b.push(r.iter().map(|&v| spread.index(v)).collect::<Vec<_>>());
                        ControlFlow::Continue(())
                    }),
                );
                prop_assert_eq!(counts.0, runs.0, "{} morsel {:?}: count", q.name, (lo, hi));
                prop_assert_eq!(counts.1, runs.1, "{} morsel {:?}: oracle count", q.name, (lo, hi));
                prop_assert_eq!(runs.0, runs.1, "{} morsel {:?}: counters", q.name, (lo, hi));
                prop_assert_eq!(rows_a, rows_b, "{} morsel {:?}: rows", q.name, (lo, hi));
            }
        }
    }

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
