//! Parallel-vs-serial differential tests for the morsel-driven runtime: over random
//! and property-generated instances, `PreparedQuery::run_parallel` (with any sink:
//! `par_count` / `par_collect`, `FirstK`, `ExistsSink`) must agree with the serial
//! execution for LFTJ and Minesweeper across `threads ∈ {1, 2, 4, 8}` and every
//! granularity — identical counts, identical (not merely set-equal) `collect`
//! results, and `FirstK` answers that are exact serial prefixes even when early
//! termination retires morsels across workers.
//! On a power-law graph, the morsels must also split LFTJ's work evenly enough for
//! several workers to share it.

use gj_datagen::powerlaw_cluster;
use gj_lftj::LftjExecutor;
use gj_query::lftj_gao;
use graphjoin::{
    partition_first_attribute, CatalogQuery, Counters, Database, Engine, ExecCtx, ExistsSink,
    FirstK, Graph, Morsel, MsConfig, Ordered, PreparedQuery, QueryBuilder, QueryOutput, Relation,
    Val,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::ControlFlow;

/// The first `k` rows of `prepared`, on `threads` workers.
fn first_k(prepared: &PreparedQuery<'_>, k: usize, threads: usize) -> QueryOutput {
    let mut sink = FirstK::new(k);
    prepared.run_parallel(&mut sink, threads).unwrap();
    sink.into_rows()
}

/// A random database: a seeded undirected graph plus the node samples every catalog
/// query draws on.
fn random_database(seed: u64, n: u32, p: f64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen_bool(p)).collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    for (i, step) in [3usize, 2, 5, 4].iter().enumerate() {
        let name = format!("v{}", i + 1);
        db.add_relation(name, Relation::from_values((0..n as i64).step_by(*step)));
    }
    db
}

/// The engines with a range-partitionable search, over several granularities.
fn parallel_engines() -> Vec<Engine> {
    let mut engines = vec![Engine::Lftj];
    for granularity in [1, 2, 8] {
        engines.push(Engine::Minesweeper(MsConfig { granularity, ..MsConfig::default() }));
    }
    engines.push(Engine::Minesweeper(MsConfig {
        idea8_batch_counting: false,
        granularity: 4,
        ..MsConfig::default()
    }));
    engines
}

#[test]
fn parallel_counts_match_serial_for_all_engines_and_thread_counts() {
    for seed in [1u64, 2] {
        let db = random_database(seed, 26, 0.18);
        for cq in CatalogQuery::all() {
            let q = cq.query();
            for engine in parallel_engines() {
                let prepared = db.prepare(&q, &engine).unwrap();
                let serial = prepared.count().unwrap();
                for threads in [1, 2, 4, 8] {
                    assert_eq!(
                        prepared.par_count(threads).unwrap(),
                        serial,
                        "seed {seed} {} {} threads {threads}",
                        q.name,
                        engine.label()
                    );
                }
            }
        }
    }
}

/// A one-variable query: its last GAO attribute is also the first, so an Idea 8
/// run is bounded by the morsel, not by the end of the axis.
#[test]
fn single_variable_counts_stay_inside_their_morsels() {
    let mut db = Database::new();
    db.add_relation("u1", Relation::from_values((0..200).step_by(2)));
    db.add_relation("u2", Relation::from_values(0..250));
    let q = QueryBuilder::new("u1-and-u2").atom("u1", &["a"]).atom("u2", &["a"]).build();
    for engine in parallel_engines() {
        let prepared = db.prepare(&q, &engine).unwrap();
        assert_eq!(prepared.count().unwrap(), 100, "{}", engine.label());
        for threads in [2, 4, 8] {
            assert_eq!(prepared.par_count(threads).unwrap(), 100, "{} {threads}", engine.label());
        }
    }
}

#[test]
fn parallel_collect_is_identical_to_serial_collect() {
    let db = random_database(3, 24, 0.2);
    for cq in [
        CatalogQuery::ThreeClique,
        CatalogQuery::FourClique,
        CatalogQuery::FourCycle,
        CatalogQuery::ThreePath,
    ] {
        let q = cq.query();
        for engine in parallel_engines() {
            let prepared = db.prepare(&q, &engine).unwrap();
            let serial = prepared.collect().unwrap();
            for threads in [2, 4, 8] {
                let parallel = prepared.par_collect(threads).unwrap();
                // The ordered shard merge makes the parallel rows *identical* to the
                // serial emission, not just set-equal — assert the strong form.
                assert_eq!(parallel, serial, "{} {} threads {threads}", q.name, engine.label());
            }
        }
    }
}

#[test]
fn parallel_first_k_is_a_serial_prefix_under_early_termination() {
    let db = random_database(5, 28, 0.2);
    for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
        let q = cq.query();
        for engine in [Engine::Lftj, Engine::minesweeper()] {
            let prepared = db.prepare(&q, &engine).unwrap();
            let all = prepared.collect().unwrap();
            for threads in [2, 4, 8] {
                for k in [0usize, 1, 2, all.len() / 2, all.len(), all.len() + 7] {
                    let prefix = first_k(&prepared, k, threads);
                    assert_eq!(
                        prefix,
                        all[..k.min(all.len())].to_vec(),
                        "{} {} threads {threads} k {k}",
                        q.name,
                        engine.label()
                    );
                }
                let mut exists = ExistsSink::new();
                prepared.run_parallel(&mut exists, threads).unwrap();
                assert_eq!(
                    exists.found(),
                    !all.is_empty(),
                    "{} {} threads {threads}",
                    q.name,
                    engine.label()
                );
            }
        }
    }
}

#[test]
fn user_sinks_run_in_parallel_through_ordered() {
    let db = random_database(7, 24, 0.2);
    let q = CatalogQuery::ThreeClique.query();
    let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
    let serial = prepared.collect().unwrap();
    // A custom closure sink, wrapped in Ordered, observes the serial stream.
    let mut rows: Vec<Vec<Val>> = Vec::new();
    let mut sink = Ordered::new(|b: &[Val]| {
        rows.push(b.to_vec());
        ControlFlow::Continue(())
    });
    let stats = prepared.run_parallel(&mut sink, 4).unwrap();
    assert_eq!(rows, serial);
    assert_eq!(stats.rows, serial.len() as u64);
    // A breaking user sink stops the parallel run early, and the delivered rows are
    // still a serial prefix.
    let mut prefix: Vec<Vec<Val>> = Vec::new();
    let mut sink = Ordered::new(|b: &[Val]| {
        prefix.push(b.to_vec());
        if prefix.len() == 2 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    prepared.run_parallel(&mut sink, 4).unwrap();
    assert_eq!(prefix, serial[..2.min(serial.len())].to_vec());
}

#[test]
fn prepared_queries_are_shareable_across_threads() {
    // One prepared query serving "traffic" from several client threads, each
    // running parallel and serial executions concurrently.
    let db = random_database(9, 24, 0.2);
    let q = CatalogQuery::FourCycle.query();
    let prepared = db.prepare(&q, &Engine::minesweeper()).unwrap();
    let serial = prepared.count().unwrap();
    std::thread::scope(|scope| {
        for threads in [1, 2, 4] {
            let prepared = &prepared;
            scope.spawn(move || {
                assert_eq!(prepared.par_count(threads).unwrap(), serial);
            });
        }
    });
}

/// Morsel balance on a power-law graph: its hubs have the lowest ids, so cutting the
/// first attribute at equal key counts left 59 % / 66 % / 77 % of the 3-clique /
/// 4-clique / 4-cycle work in one of 16 morsels. Cutting at equal quantiles of
/// estimated work (fanout squared per key) keeps the costliest morsel under a
/// quarter of LFTJ's `bindings_explored`, and the morsels still add up to the
/// serial run's counters exactly.
#[test]
fn work_quantile_morsels_balance_a_power_law_graph() {
    let mut db = Database::new();
    db.add_graph(powerlaw_cluster(400, 8, 0.4, 2014));
    for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourClique, CatalogQuery::FourCycle] {
        let q = cq.query();
        let bq = db.bind(&q, Some(lftj_gao(&q, db.instance()))).unwrap();
        let run = |m: Morsel| {
            LftjExecutor::new(&bq)
                .run_range_ctx(m.lo, m.hi, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()))
        };
        let serial = run(Morsel::whole_axis());
        let morsels = partition_first_attribute(&bq, 16);
        let per_morsel: Vec<Counters> = morsels.iter().map(|&m| run(m)).collect();
        let mut sum = Counters::default();
        per_morsel.iter().for_each(|&c| sum.merge(c));
        assert_eq!(sum, serial, "{}: morsels must add up to the serial run", q.name);
        let costliest = per_morsel.iter().map(|c| c.bindings_explored).max().unwrap_or(0);
        let share = costliest as f64 / serial.bindings_explored as f64;
        assert!(
            share <= 0.25,
            "{}: the costliest of {} morsels holds {:.0} % of the bindings",
            q.name,
            morsels.len(),
            share * 100.0
        );
    }
}

/// Strategy: a small random graph database (same shape as `prop_engines.rs`).
fn arb_database() -> impl Strategy<Value = Database> {
    (2usize..12, prop::collection::vec((0u32..12, 0u32..12), 0..50)).prop_map(|(n, raw_edges)| {
        let n = n.max(raw_edges.iter().map(|&(a, b)| a.max(b) as usize + 1).max().unwrap_or(1));
        let graph = Graph::new_undirected(n, raw_edges);
        let mut db = Database::new();
        db.add_graph(graph);
        db.add_relation("v1", Relation::from_values((0..n as i64).step_by(2)));
        db.add_relation("v2", Relation::from_values((0..n as i64).step_by(3)));
        db.add_relation("v3", Relation::from_values((0..n as i64).step_by(5)));
        db.add_relation("v4", Relation::from_values((1..n as i64).step_by(4)));
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on arbitrary graphs, every thread/granularity combination agrees
    /// with the serial execution on counts and ordered rows for both engines.
    #[test]
    fn parallel_execution_agrees_with_serial_on_arbitrary_graphs(db in arb_database()) {
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
            let q = cq.query();
            for engine in [
                Engine::Lftj,
                Engine::Minesweeper(MsConfig { granularity: 3, ..MsConfig::default() }),
            ] {
                let prepared = db.prepare(&q, &engine).unwrap();
                let rows = prepared.collect().unwrap();
                for threads in [2, 8] {
                    prop_assert_eq!(
                        prepared.par_count(threads).unwrap(),
                        rows.len() as u64,
                        "{} {} threads {}", q.name, engine.label(), threads
                    );
                    prop_assert_eq!(
                        prepared.par_collect(threads).unwrap(),
                        rows.clone(),
                        "{} {} threads {}", q.name, engine.label(), threads
                    );
                    let k = rows.len() / 2 + 1;
                    prop_assert_eq!(
                        first_k(&prepared, k, threads),
                        rows[..k.min(rows.len())].to_vec(),
                        "{} {} threads {}", q.name, engine.label(), threads
                    );
                }
            }
        }
    }
}
