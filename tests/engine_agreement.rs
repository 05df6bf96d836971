//! Cross-crate integration tests: every engine must produce identical answers on
//! every benchmark query, across several random graphs and selectivities.

use graphjoin::{workload_database, CatalogQuery, Database, Engine, ExecLimits, Graph, MsConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// A seeded random undirected graph over `n` nodes with edge probability `p`,
/// shared behind `Arc` so many workload databases can reuse it without copies.
fn random_graph(seed: u64, n: u32, p: f64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen_bool(p)).collect();
    Arc::new(Graph::new_undirected(n as usize, edges))
}

#[test]
fn all_engines_agree_on_all_catalog_queries() {
    let graph = random_graph(1, 40, 0.12);
    for cq in CatalogQuery::all() {
        let db = workload_database(graph.clone(), cq, 4, 99);
        let q = cq.query();
        let reference = db.count(&q, &Engine::Lftj).unwrap();
        let mut engines = vec![
            Engine::minesweeper(),
            Engine::HashJoin(ExecLimits::default()),
            Engine::SortMergeJoin(ExecLimits::default()),
        ];
        if let Some(h) = Engine::hybrid_for(cq) {
            engines.push(h);
        }
        if matches!(cq, CatalogQuery::ThreeClique | CatalogQuery::FourClique) {
            engines.push(Engine::GraphEngine);
        }
        for engine in engines {
            assert_eq!(
                db.count(&q, &engine).unwrap(),
                reference,
                "{} with {}",
                q.name,
                engine.label()
            );
        }
    }
}

#[test]
fn engines_agree_across_selectivities() {
    let graph = random_graph(2, 60, 0.08);
    for selectivity in [2u32, 10, 50] {
        for cq in [CatalogQuery::ThreePath, CatalogQuery::TwoComb, CatalogQuery::TwoTree] {
            let db = workload_database(graph.clone(), cq, selectivity, 7);
            let q = cq.query();
            assert_eq!(
                db.count(&q, &Engine::Lftj).unwrap(),
                db.count(&q, &Engine::minesweeper()).unwrap(),
                "{} selectivity {selectivity}",
                q.name
            );
        }
    }
}

#[test]
fn lftj_and_minesweeper_enumerate_identical_bindings() {
    let graph = random_graph(3, 30, 0.15);
    for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
        let db = workload_database(graph.clone(), cq, 3, 5);
        let q = cq.query();
        assert_eq!(
            db.enumerate(&q, &Engine::Lftj).unwrap(),
            db.enumerate(&q, &Engine::minesweeper()).unwrap(),
            "{}",
            q.name
        );
    }
}

#[test]
fn parallel_minesweeper_agrees_with_sequential() {
    let graph = random_graph(4, 70, 0.1);
    for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
        let db = workload_database(graph.clone(), cq, 5, 13);
        let q = cq.query();
        let sequential = db.count(&q, &Engine::minesweeper()).unwrap();
        let f = if cq.is_cyclic() { 8 } else { 1 };
        let engine = Engine::Minesweeper(MsConfig { granularity: f, ..MsConfig::default() });
        let parallel = db.prepare(&q, &engine).unwrap().par_count(4).unwrap();
        assert_eq!(parallel, sequential, "{}", q.name);
    }
}

#[test]
fn empty_graph_gives_zero_everywhere() {
    let graph = Arc::new(Graph::new_undirected(10, vec![]));
    for cq in CatalogQuery::all() {
        let db = workload_database(graph.clone(), cq, 2, 1);
        let q = cq.query();
        assert_eq!(db.count(&q, &Engine::Lftj).unwrap(), 0, "{}", q.name);
        assert_eq!(db.count(&q, &Engine::minesweeper()).unwrap(), 0, "{}", q.name);
    }
}

#[test]
fn triangle_counts_match_the_graph_utility_on_dataset_standins() {
    // The datagen catalog, the storage triangle counter, LFTJ and the graph engine
    // must all agree about the number of triangles.
    let graph = Arc::new(graphjoin::Dataset::CaGrQc.generate_scaled(0.15));
    let db = workload_database(graph.clone(), CatalogQuery::ThreeClique, 1, 1);
    let q = CatalogQuery::ThreeClique.query();
    let expected = graph.triangle_count();
    assert_eq!(db.count(&q, &Engine::Lftj).unwrap(), expected);
    assert_eq!(db.count(&q, &Engine::GraphEngine).unwrap(), expected);
}

/// The graph engine reads the current `edge` relation, so its 3- and 4-clique
/// counts equal LFTJ's however `edge` got there: replaced after `add_graph`,
/// replaced durably, reopened from the store, or installed as a plain relation.
#[test]
fn graph_engine_counts_the_current_edge_relation() {
    let cliques = [CatalogQuery::ThreeClique.query(), CatalogQuery::FourClique.query()];
    let assert_counts = |db: &Database, expected: [u64; 2], case: &str| {
        for (q, expected) in cliques.iter().zip(expected) {
            assert_eq!(db.count(q, &Engine::Lftj).unwrap(), expected, "{case}: {}", q.name);
            assert_eq!(db.count(q, &Engine::GraphEngine).unwrap(), expected, "{case}: {}", q.name);
        }
    };
    // A triangle plus a pendant edge, then edge relations without its cliques.
    let triangle = Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
    let path = Graph::new_undirected(4, vec![(0, 1), (1, 2), (2, 3)]);
    let k4 = Graph::new_undirected(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);

    let mut db = Database::new();
    db.add_graph(&triangle);
    assert_counts(&db, [1, 0], "add_graph");
    db.add_relation("edge", path.edge_relation());
    assert_counts(&db, [0, 0], "add_relation after add_graph");

    let dir = std::env::temp_dir().join(format!("gj-graph-view-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    db.add_graph(&triangle);
    db.persist(&dir).unwrap();
    let mut db = Database::open(&dir).unwrap();
    db.commit_relation("edge", k4.edge_relation()).unwrap();
    assert_counts(&db, [4, 1], "commit_relation");
    drop(db);
    assert_counts(&Database::open(&dir).unwrap(), [4, 1], "reopened after commit_relation");
    let _ = std::fs::remove_dir_all(&dir);

    let mut db = Database::new();
    db.add_relation("edge", k4.edge_relation());
    assert_counts(&db, [4, 1], "edge only as a relation");
}
