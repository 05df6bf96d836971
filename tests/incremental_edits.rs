//! Cross-crate tests for the delta-trie edit path: incremental inserts and
//! deletes must update every cached `(relation, permutation)` index through
//! its delta layer — no trie rebuild, observable as `indexes_built() == 0` on
//! a re-prepare — while every engine, serial and parallel, answers exactly as
//! a from-scratch database built over the edited data.

use graphjoin::{CatalogQuery, Database, Engine, ExecLimits, Graph, MsConfig};

/// Engines whose counts we compare against a from-scratch rebuild.
fn engines() -> Vec<Engine> {
    vec![
        Engine::Lftj,
        Engine::Minesweeper(MsConfig::default()),
        Engine::Minesweeper(MsConfig { granularity: 8, ..MsConfig::default() }),
        Engine::HashJoin(ExecLimits::default()),
        Engine::SortMergeJoin(ExecLimits::default()),
        Engine::GraphEngine,
    ]
}

/// A database with the same logical content as `db` but no shared state: the
/// edited `"edge"` relation re-enters through `add_graph`.
fn rebuilt_from_scratch(db: &Database) -> Database {
    let mut fresh = Database::new();
    fresh.add_graph(db.graph().expect("test databases carry a graph"));
    fresh
}

/// Acceptance: on a 30k-node indexed relation, an edge insert/delete batch
/// updates all cached permutations without a full trie rebuild.
#[test]
fn edits_on_a_30k_node_graph_rebuild_no_indexes() {
    let mut db = Database::new();
    db.add_graph(gj_datagen::erdos_renyi(30_000, 60_000, 77));
    let q = CatalogQuery::ThreeClique.query();

    // Warm the cache for both trie engines (several permutations of "edge").
    let cold = db.prepare(&q, &Engine::Lftj).unwrap();
    assert!(cold.indexes_built() > 0, "cold preparation builds indexes");
    let before_lftj = cold.count().unwrap();
    db.prepare(&q, &Engine::minesweeper()).unwrap();

    // Edit: close a triangle among fresh high-degree-free nodes and delete a
    // couple of existing edges.
    let existing: Vec<(u32, u32)> = db.graph().unwrap().edges()[..2].to_vec();
    let inserted =
        db.insert_edges(&[(29_990, 29_991), (29_991, 29_992), (29_990, 29_992)]).unwrap();
    assert_eq!(inserted, 6, "three new undirected edges, both orientations each");
    assert!(db.delete_edges(&existing).unwrap() > 0);

    // Every cached permutation absorbed the edit through its delta layer.
    let warm = db.prepare(&q, &Engine::Lftj).unwrap();
    assert_eq!(warm.indexes_built(), 0, "edits must not invalidate cached indexes");
    let warm_ms = db.prepare(&q, &Engine::minesweeper()).unwrap();
    assert_eq!(warm_ms.indexes_built(), 0);

    let fresh = rebuilt_from_scratch(&db);
    let expected = fresh.count(&q, &Engine::Lftj).unwrap();
    assert_eq!(warm.count().unwrap(), expected);
    assert_eq!(warm_ms.count().unwrap(), expected);
    assert!(
        warm.count().unwrap() > before_lftj,
        "the inserted triangle must be visible through the folded tries"
    );
}

/// Regression (delta-aware partitioning): edits whose keys fall entirely
/// outside the base trie's first-level min/max used to be dropped by
/// `partition_first_attribute`, which read only the base level-0 values — a
/// parallel run then never visited the delta-only range. Every engine at 4
/// threads must see rows inserted far outside the original value range.
#[test]
fn out_of_range_edits_survive_parallel_partitioning() {
    // Node ids clustered in [50, 80): the base level-0 range is narrow.
    let edges: Vec<(u32, u32)> =
        (50..79).map(|a| (a, a + 1)).chain([(50, 52), (60, 62), (70, 72)]).collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(80, edges));
    let q = CatalogQuery::ThreeClique.query();

    // Warm every engine's indexes before editing.
    for engine in engines() {
        db.prepare(&q, &engine).unwrap();
    }

    // New triangles strictly below and strictly above the base key range.
    db.insert_edges(&[(2, 5), (5, 9), (2, 9)]).unwrap();
    db.insert_edges(&[(700, 701), (701, 702), (700, 702)]).unwrap();
    // And delete one in-range triangle edge so tombstones ride along.
    db.delete_edges(&[(50, 52)]).unwrap();

    let fresh = rebuilt_from_scratch(&db);
    for engine in engines() {
        let expected = fresh.count(&q, &engine).unwrap();
        let prepared = db.prepare(&q, &engine).unwrap();
        assert_eq!(
            prepared.count().unwrap(),
            expected,
            "serial {} must see out-of-range edits",
            engine.label()
        );
        assert_eq!(
            prepared.par_count(4).unwrap(),
            expected,
            "parallel {} must partition the live (base + delta) key range",
            engine.label()
        );
    }
}
