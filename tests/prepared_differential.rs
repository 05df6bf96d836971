//! Cross-engine differential tests for the prepared-query API: over random small
//! instances and every catalog query, all supporting engines must report identical
//! counts through `PreparedQuery`, the rows of a `FirstK::new(k)` sink must be a
//! prefix of `collect()`, and warm re-preparations must be answered entirely from the
//! shared index cache.

use gj_baselines::BaselineError;
use graphjoin::{
    naive_count, CatalogQuery, CountSink, Database, Engine, EngineError, ExecError, ExecLimits,
    ExistsSink, FirstK, Graph, MsConfig, Ordered, Query, QueryBudget, QueryBuilder, Relation, Val,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::ControlFlow;

/// A random database: a seeded undirected graph plus the node samples every catalog
/// query draws on.
fn random_database(seed: u64, n: u32, p: f64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen_bool(p)).collect();
    database_over(Graph::new_undirected(n as usize, edges))
}

/// `graph` plus the node samples every catalog query draws on.
fn database_over(graph: Graph) -> Database {
    let n = graph.num_nodes() as i64;
    let mut db = Database::new();
    db.add_graph(graph);
    for (i, step) in [3usize, 2, 5, 4].iter().enumerate() {
        let name = format!("v{}", i + 1);
        db.add_relation(name, Relation::from_values((0..n).step_by(*step)));
    }
    db
}

/// The engines that support full enumeration through the sink protocol.
fn enumeration_engines() -> Vec<Engine> {
    vec![
        Engine::Lftj,
        Engine::minesweeper(),
        Engine::Minesweeper(MsConfig { idea8_batch_counting: false, ..MsConfig::default() }),
        Engine::HashJoin(ExecLimits::default()),
        Engine::SortMergeJoin(ExecLimits::default()),
    ]
}

#[test]
fn all_supporting_engines_count_identically_through_prepare() {
    for seed in [1u64, 2, 3] {
        let db = random_database(seed, 24, 0.18);
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let expected = naive_count(db.instance(), &q);
            let mut engines = enumeration_engines();
            if let Some(hybrid) = Engine::hybrid_for(cq) {
                engines.push(hybrid);
            }
            if matches!(cq, CatalogQuery::ThreeClique | CatalogQuery::FourClique) {
                engines.push(Engine::GraphEngine);
            }
            for engine in engines {
                let prepared = db.prepare(&q, &engine).unwrap();
                assert_eq!(
                    prepared.count().unwrap(),
                    expected,
                    "seed {seed} {} {}",
                    q.name,
                    engine.label()
                );
                // An existence probe is a row sink: the count-only engines
                // reject it like every other.
                let mut exists = ExistsSink::new();
                let probed = prepared.run_parallel(&mut exists, 1);
                let tag = format!("seed {seed} {} {}", q.name, engine.label());
                if prepared.supports_enumeration() {
                    probed.unwrap();
                    assert_eq!(exists.found(), expected > 0, "{tag}");
                } else {
                    assert!(matches!(probed, Err(EngineError::Unsupported(_))), "{tag}");
                }
                // One execution path: the serial count is the one-worker drive of
                // a counting sink, so both report the same rows and the same
                // engine counters, every field of them.
                let (_, serial) = prepared.count_with_stats().unwrap();
                let mut sink = CountSink::new();
                let driven = prepared.run_parallel(&mut sink, 1).unwrap();
                let tag = format!("seed {seed} {} {}", q.name, engine.label());
                assert_eq!((sink.rows(), driven.rows, serial.rows), (expected, expected, expected));
                assert_eq!(driven.counters, serial.counters, "{tag}");
                assert_eq!((driven.morsels, serial.morsels), (0, 0), "{tag}");
            }
        }
    }
}

/// Edits after the first preparations land in the cached tries as delta
/// layers; every engine — Minesweeper with Idea 8 on and off included — must
/// count over the delta-carrying indexes exactly as over rebuilt ones.
#[test]
fn engines_count_identically_over_delta_carrying_indexes() {
    let mut db = random_database(4, 24, 0.18);
    for cq in CatalogQuery::all() {
        db.prepare(&cq.query(), &Engine::Lftj).unwrap();
    }
    let doomed: Vec<(u32, u32)> = db.graph().unwrap().edges()[..5].to_vec();
    db.delete_edges(&doomed).unwrap();
    db.insert_edges(&[(0, 23), (5, 17), (2, 9), (11, 20)]).unwrap();
    assert!(db.cache().pending_delta_len("edge") > 0, "the edits were compacted away");
    for cq in CatalogQuery::all() {
        let q = cq.query();
        let expected = naive_count(db.instance(), &q);
        for engine in enumeration_engines() {
            let prepared = db.prepare(&q, &engine).unwrap();
            assert_eq!(prepared.count().unwrap(), expected, "{} {engine:?}", q.name);
            assert_eq!(prepared.par_count(3).unwrap(), expected, "{} {engine:?}", q.name);
        }
    }
}

/// A delta-carrying index is read through its fold, the trie a rebuild from the
/// edited relation would produce, so every engine counter over it — LFTJ's
/// `bindings_explored` and each Minesweeper counter, whose gaps are maximal —
/// equals the counter over indexes built from the edited graph. The deletes
/// empty two nodes' adjacency, which leaves base keys with no live row.
#[test]
fn engine_counters_over_delta_carrying_indexes_equal_a_rebuild() {
    let mut db = random_database(5, 24, 0.2);
    let engines = [
        Engine::Lftj,
        Engine::minesweeper(),
        Engine::Minesweeper(MsConfig { idea8_batch_counting: false, ..MsConfig::default() }),
    ];
    for cq in CatalogQuery::all() {
        for engine in &engines {
            db.prepare(&cq.query(), engine).unwrap();
        }
    }
    let emptied = |&(a, b): &(u32, u32)| [a, b].iter().any(|v| [3, 10].contains(v));
    let doomed: Vec<(u32, u32)> =
        db.graph().unwrap().edges().iter().copied().filter(emptied).collect();
    db.delete_edges(&doomed).unwrap();
    db.insert_edges(&[(0, 22), (5, 17)]).unwrap();
    assert!(db.cache().pending_delta_len("edge") > 0, "the edits were compacted away");
    let rebuilt = database_over(db.graph().unwrap());
    for cq in CatalogQuery::all() {
        let q = cq.query();
        for engine in &engines {
            let (_, edited) = db.prepare(&q, engine).unwrap().count_with_stats().unwrap();
            assert_eq!(edited.indexes_built, 0, "{} {engine:?}", q.name);
            let (_, solid) = rebuilt.prepare(&q, engine).unwrap().count_with_stats().unwrap();
            assert_eq!(edited.counters, solid.counters, "{} {engine:?}", q.name);
        }
    }
}

#[test]
fn first_k_is_a_prefix_of_collect_for_every_engine() {
    let db = random_database(7, 20, 0.2);
    for cq in CatalogQuery::all() {
        let q = cq.query();
        for engine in enumeration_engines() {
            let prepared = db.prepare(&q, &engine).unwrap();
            let all = prepared.collect().unwrap();
            assert_eq!(all.len() as u64, prepared.count().unwrap(), "{}", q.name);
            for k in [0usize, 1, 2, all.len() / 2, all.len(), all.len() + 5] {
                let mut first = FirstK::new(k);
                prepared.run_parallel(&mut first, 1).unwrap();
                let prefix = first.into_rows();
                assert_eq!(
                    prefix,
                    all[..k.min(all.len())].to_vec(),
                    "{} {} first_k({k})",
                    q.name,
                    engine.label()
                );
            }
        }
    }
}

/// The serial path delivers rows one at a time: an arbitrary sink that breaks on
/// its first row sees exactly that row (nothing is buffered ahead of it), and it
/// is the first row of `collect()`.
#[test]
fn a_breaking_sink_sees_exactly_one_row_on_the_serial_path() {
    let db = random_database(7, 20, 0.2);
    let q = CatalogQuery::ThreePath.query();
    for engine in enumeration_engines() {
        let prepared = db.prepare(&q, &engine).unwrap();
        let all = prepared.collect().unwrap();
        assert!(all.len() > 1, "the test needs several rows");
        let mut seen: Vec<Vec<Val>> = Vec::new();
        let mut sink = Ordered::new(|row: &[Val]| {
            seen.push(row.to_vec());
            ControlFlow::Break(())
        });
        let stats = prepared.run_parallel(&mut sink, 1).unwrap();
        assert_eq!(seen, all[..1].to_vec(), "{}", engine.label());
        assert_eq!(stats.rows, 1, "{}", engine.label());
    }
}

#[test]
fn sorted_collect_agrees_across_engines() {
    let db = random_database(11, 22, 0.15);
    for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
        let q = cq.query();
        let reference = db.enumerate(&q, &Engine::Lftj).unwrap();
        for engine in enumeration_engines() {
            assert_eq!(
                db.enumerate(&q, &engine).unwrap(),
                reference,
                "{} {}",
                q.name,
                engine.label()
            );
        }
    }
}

#[test]
fn warm_preparations_build_nothing_and_stay_correct() {
    let db = random_database(13, 26, 0.15);
    for cq in CatalogQuery::all() {
        let q = cq.query();
        let cold = db.prepare(&q, &Engine::Lftj).unwrap();
        let expected = cold.count().unwrap();
        for engine in enumeration_engines() {
            // LFTJ and Minesweeper choose their orders apart, so an engine's
            // first preparation shares the cold one's indexes only when its
            // order is the same.
            let first = db.prepare(&q, &engine).unwrap();
            if first.gao().is_some() && first.gao() == cold.gao() {
                assert_eq!(first.indexes_built(), 0, "{} {} (shared)", q.name, engine.label());
            }
            let warm = db.prepare(&q, &engine).unwrap();
            if matches!(engine, Engine::Lftj | Engine::Minesweeper(_)) {
                assert_eq!(warm.indexes_built(), 0, "{} {}", q.name, engine.label());
            }
            assert_eq!(warm.count().unwrap(), expected, "{} {}", q.name, engine.label());
        }
    }
}

#[test]
fn count_only_engines_report_unsupported_for_enumeration() {
    let db = random_database(17, 18, 0.25);
    let q = CatalogQuery::ThreeClique.query();
    let prepared = db.prepare(&q, &Engine::GraphEngine).unwrap();
    assert!(matches!(prepared.collect(), Err(EngineError::Unsupported(_))));
    assert!(matches!(
        prepared.run_parallel(&mut FirstK::new(3), 1),
        Err(EngineError::Unsupported(_))
    ));
    assert_eq!(prepared.count().unwrap(), naive_count(db.instance(), &q));
}

/// A counting sink is served by the count-only engines at every thread count and
/// through every entry point — `par_count`, `run_parallel(CountSink, ..)` and
/// `try_run_parallel(CountSink, ..)` agree; row sinks stay unsupported.
#[test]
fn count_only_engines_serve_counting_sinks_at_every_thread_count() {
    let db = random_database(17, 18, 0.25);
    let lollipop = CatalogQuery::TwoLollipop;
    let cases = [
        (CatalogQuery::ThreeClique.query(), Engine::GraphEngine),
        (CatalogQuery::FourClique.query(), Engine::GraphEngine),
        (lollipop.query(), Engine::hybrid_for(lollipop).unwrap()),
    ];
    for (q, engine) in cases {
        let expected = naive_count(db.instance(), &q);
        let prepared = db.prepare(&q, &engine).unwrap();
        for threads in [1usize, 4] {
            let tag = format!("{} {} threads {threads}", q.name, engine.label());
            assert_eq!(prepared.par_count(threads).unwrap(), expected, "{tag}");
            let mut sink = CountSink::new();
            let stats = prepared.run_parallel(&mut sink, threads).unwrap();
            assert_eq!((sink.rows(), stats.rows), (expected, expected), "{tag}");
            let stats =
                prepared.try_run_parallel(&mut CountSink::new(), threads, &QueryBudget::new());
            assert_eq!(stats.unwrap().rows, expected, "{tag}");
            assert!(matches!(prepared.par_collect(threads), Err(EngineError::Unsupported(_))));
            assert!(matches!(
                prepared.run_parallel(&mut ExistsSink::new(), threads),
                Err(EngineError::Unsupported(_))
            ));
        }
        // A row cap is honoured too: the count is delivered row by row.
        if expected > 2 {
            let capped = prepared.try_run_parallel(
                &mut CountSink::new(),
                1,
                &QueryBudget::new().with_max_rows(2),
            );
            assert_eq!(
                capped.map(|stats| stats.rows),
                Err(EngineError::Exec(ExecError::BudgetExceeded { rows: 3, budget: 2 })),
                "{} {}",
                q.name,
                engine.label()
            );
        }
    }
}

/// The pairwise planner's subset DP covers at most 16 atoms. Beyond that
/// `Database::prepare` answers with a typed baseline error — not a caught
/// planner panic — while LFTJ still answers the query. (A query without atoms
/// is rejected for every engine alike; see `tests/error_contract.rs`.)
#[test]
fn pairwise_prepare_rejects_unplannable_atom_counts_with_a_typed_error() {
    let mut db = Database::new();
    db.add_relation("r", Relation::from_pairs((0..20).map(|i| (i, i + 1))));
    let vars: Vec<String> = (0..18).map(|i| format!("x{i}")).collect();
    let long = vars
        .windows(2)
        .fold(QueryBuilder::new("17-path"), |q, w| q.atom("r", &[&w[0], &w[1]]))
        .build();
    let lftj = db.prepare(&long, &Engine::Lftj).unwrap();
    assert_eq!(lftj.count().unwrap(), 4);
    for engine in
        [Engine::HashJoin(ExecLimits::default()), Engine::SortMergeJoin(ExecLimits::default())]
    {
        match db.prepare(&long, &engine) {
            Err(EngineError::Baseline(err)) => {
                assert_eq!(err, BaselineError::UnsupportedAtomCount(17))
            }
            Err(other) => panic!("{}: untyped error {other}", engine.label()),
            Ok(_) => panic!("{}: prepared an unplannable query", engine.label()),
        }
    }
}

/// Queries the trie engines cannot search answer without a worker panic: a
/// variable named only by an order filter fails binding, and a query without
/// variables (it has no atom) is rejected as invalid before any engine sees it.
#[test]
fn uncovered_and_variable_free_queries_answer_without_a_worker_panic() {
    let mut db = Database::new();
    db.add_relation("r", Relation::from_pairs((0..20).map(|i| (i, i + 1))));
    let uncovered = QueryBuilder::new("filter-only").atom("r", &["a", "b"]).lt("a", "z").build();
    let empty = Query { name: "empty".into(), var_names: vec![], atoms: vec![], filters: vec![] };
    for engine in [Engine::Lftj, Engine::minesweeper()] {
        match db.prepare(&uncovered, &engine) {
            Err(EngineError::Bind(msg)) => {
                assert_eq!(msg, "variable z is not contained in any atom", "{}", engine.label())
            }
            Err(other) => panic!("{}: untyped error {other}", engine.label()),
            Ok(_) => panic!("{}: bound a variable outside every atom", engine.label()),
        }
        match db.prepare(&empty, &engine) {
            Err(EngineError::Bind(msg)) => {
                assert_eq!(msg, "a query needs at least one atom", "{}", engine.label())
            }
            Err(other) => panic!("{}: untyped error {other}", engine.label()),
            Ok(_) => panic!("{}: prepared a query without atoms", engine.label()),
        }
    }
}
