//! Workspace-level property tests: on arbitrary small graphs and samples, all join
//! engines must agree with the naive reference join on every catalog query, and the
//! AGM bound must hold. These are the strongest end-to-end invariants in the
//! repository — any unsoundness in the trie indexes, the CDS, the skeleton logic or
//! the pairwise planner shows up here.

use gj_query::naive_join;
use graphjoin::{agm_bound, CatalogQuery, Database, Engine, ExecLimits, Graph, MsConfig, Relation};
use proptest::prelude::*;

/// Strategy: a random undirected graph (as raw edge picks) plus two node samples.
fn arb_database() -> impl Strategy<Value = Database> {
    (
        2usize..14,
        prop::collection::vec((0u32..14, 0u32..14), 0..70),
        prop::collection::vec(0i64..14, 0..10),
        prop::collection::vec(0i64..14, 0..10),
    )
        .prop_map(|(n, raw_edges, v1, v2)| {
            let n = n.max(raw_edges.iter().map(|&(a, b)| a.max(b) as usize + 1).max().unwrap_or(1));
            let graph = Graph::new_undirected(n, raw_edges);
            let mut db = Database::new();
            db.add_graph(graph);
            db.add_relation("v1", Relation::from_values(v1.into_iter().filter(|&v| v < n as i64)));
            db.add_relation("v2", Relation::from_values(v2.into_iter().filter(|&v| v < n as i64)));
            db.add_relation("v3", Relation::from_values((0..n as i64).step_by(2)));
            db.add_relation("v4", Relation::from_values((0..n as i64).step_by(3)));
            db
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LFTJ, Minesweeper (several configurations) and the pairwise baselines agree
    /// with the naive join on every catalog query.
    #[test]
    fn all_engines_agree_with_the_naive_join(db in arb_database()) {
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let expected = naive_join(db.instance(), &q).len() as u64;
            let engines = vec![
                Engine::Lftj,
                Engine::minesweeper(),
                Engine::Minesweeper(MsConfig::baseline()),
                Engine::Minesweeper(MsConfig {
                    idea4_gap_memo: false,
                    idea5_caching: false,
                    idea6_complete_nodes: false,
                    idea7_skeleton: false,
                    ..MsConfig::default()
                }),
                Engine::HashJoin(ExecLimits::default()),
                Engine::SortMergeJoin(ExecLimits::default()),
            ];
            for engine in engines {
                let got = db.count(&q, &engine).unwrap();
                prop_assert_eq!(got, expected, "{} with {}", q.name, engine.label());
            }
            if let Some(hybrid) = Engine::hybrid_for(cq) {
                prop_assert_eq!(db.count(&q, &hybrid).unwrap(), expected, "{} hybrid", q.name);
            }
        }
    }

    /// The specialised graph engine agrees with the relational definition of cliques.
    #[test]
    fn graph_engine_agrees_on_cliques(db in arb_database()) {
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourClique] {
            let q = cq.query();
            let expected = db.count(&q, &Engine::Lftj).unwrap();
            prop_assert_eq!(db.count(&q, &Engine::GraphEngine).unwrap(), expected, "{}", q.name);
        }
    }

    /// The output never exceeds the AGM bound (checked on the unfiltered cyclic
    /// patterns, since the bound ignores order filters).
    #[test]
    fn output_respects_the_agm_bound(db in arb_database()) {
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourClique, CatalogQuery::FourCycle] {
            let mut q = cq.query();
            q.filters.clear();
            let bq = db.bind(&q, None).unwrap();
            let bound = agm_bound(&q, &bq.atom_sizes());
            let actual = db.count(&q, &Engine::Lftj).unwrap() as f64;
            prop_assert!(actual <= bound.bound + 1e-6, "{}: {} > {}", q.name, actual, bound.bound);
        }
    }

    /// Parallel Minesweeper partitions the output space without losing or double
    /// counting anything.
    #[test]
    fn parallel_minesweeper_agrees(db in arb_database(), threads in 2usize..5, granularity in 1usize..4) {
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::ThreePath] {
            let q = cq.query();
            let expected = db.count(&q, &Engine::minesweeper()).unwrap();
            let engine = Engine::Minesweeper(MsConfig { granularity, ..MsConfig::default() });
            let parallel = db.prepare(&q, &engine).unwrap().par_count(threads).unwrap();
            prop_assert_eq!(parallel, expected, "{}", q.name);
        }
    }

    /// Minesweeper is correct under any legal GAO, NEO or not.
    #[test]
    fn minesweeper_is_gao_independent(db in arb_database(), seed in 0u64..500) {
        let q = CatalogQuery::ThreePath.query();
        let n = q.num_vars();
        let mut gao: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(37).wrapping_add(i * 11) % (i + 1);
            gao.swap(i, j);
        }
        let expected = db.count(&q, &Engine::Lftj).unwrap();
        let got = db.count_with_gao(&q, &Engine::minesweeper(), Some(gao.clone())).unwrap();
        prop_assert_eq!(got, expected, "GAO {:?}", gao);
    }
}
