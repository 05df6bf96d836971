//! Ablation-oriented integration tests: every Minesweeper configuration (each of the
//! paper's Ideas toggled individually) must stay correct, and the statistics must
//! reflect what each idea is supposed to do. These are the correctness counterparts
//! of the speed-up Tables 1–3.

use gj_datagen::{powerlaw_cluster, LdbcConfig, SocialNetwork};
use gj_minesweeper::{MinesweeperExecutor, MsConfig};
use graphjoin::{
    workload_database, BoundQuery, CatalogQuery, Counters, Database, Engine, ExecCtx, Graph,
    LdbcQuery, Morsel, QueryBuilder, Val,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::ControlFlow;
use std::sync::Arc;
use support::all_configs;

mod support;

/// Runs the whole query on a fresh executor, calling `emit(binding, multiplicity)`
/// for every output, and returns the run's counters.
fn run(bq: &BoundQuery, config: &MsConfig, emit: &mut impl FnMut(&[Val], u64)) -> Counters {
    let all = Morsel::whole_axis();
    let mut exec = MinesweeperExecutor::new(bq, config.clone());
    exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |binding, multiplicity| {
        emit(binding, multiplicity);
        ControlFlow::Continue(())
    })
}

fn random_graph(seed: u64, n: u32, p: f64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen_bool(p)).collect();
    Arc::new(Graph::new_undirected(n as usize, edges))
}

#[test]
fn every_configuration_is_correct_on_every_query() {
    let graph = random_graph(11, 28, 0.15);
    for cq in CatalogQuery::all() {
        let db = workload_database(graph.clone(), cq, 3, 21);
        let q = cq.query();
        let expected = db.count(&q, &Engine::Lftj).unwrap();
        for (name, config) in all_configs() {
            let got = db.count(&q, &Engine::Minesweeper(config)).unwrap();
            assert_eq!(got, expected, "{} with {name}", q.name);
        }
    }
}

#[test]
fn idea4_reduces_index_probes() {
    let graph = random_graph(12, 80, 0.08);
    let db = workload_database(graph.clone(), CatalogQuery::ThreePath, 5, 3);
    let q = CatalogQuery::ThreePath.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();

    let with = run(&bq, &MsConfig::default(), &mut |_, _| {});
    let without =
        run(&bq, &MsConfig { idea4_gap_memo: false, ..MsConfig::default() }, &mut |_, _| {});
    assert_eq!(with.results, without.results);
    assert!(with.probes_skipped > 0, "the memo never fired");
    assert!(
        with.probes < without.probes,
        "idea 4 should reduce probes: {} vs {}",
        with.probes,
        without.probes
    );
}

#[test]
fn idea5_caches_intervals_in_chain_mode() {
    let graph = random_graph(17, 80, 0.08);
    let db = workload_database(graph, CatalogQuery::ThreePath, 2, 3);
    let q = CatalogQuery::ThreePath.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();
    assert!(MinesweeperExecutor::new(&bq, MsConfig::default()).chain_mode());

    let with = run(&bq, &MsConfig::default(), &mut |_, _| {});
    let without = run(
        &bq,
        &MsConfig { idea5_caching: false, idea6_complete_nodes: false, ..MsConfig::default() },
        &mut |_, _| {},
    );
    assert_eq!(with.results, without.results);
    assert!(with.cached_intervals > 0, "interval caching never fired");
    assert_eq!(without.cached_intervals, 0);
}

/// Idea 8 off, everything else at its default: the one-output-per-iteration run
/// the batch counter is measured against.
fn idea8_off() -> MsConfig {
    MsConfig { idea8_batch_counting: false, ..MsConfig::default() }
}

#[test]
fn idea8_batch_counting_takes_fewer_iterations() {
    let graph = random_graph(18, 80, 0.08);
    // Selectivity 2: many outputs share their first attributes, so runs are long.
    let db = workload_database(graph, CatalogQuery::ThreePath, 2, 3);
    let q = CatalogQuery::ThreePath.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();

    let with = run(&bq, &MsConfig::default(), &mut |_, _| {});
    let without = run(&bq, &idea8_off(), &mut |_, _| {});
    assert_eq!(with.results, without.results);
    assert!(
        with.iterations < without.iterations,
        "idea 8 should take fewer iterations: {} vs {}",
        with.iterations,
        without.iterations
    );
    assert!(with.batched_runs > 0, "no run was counted from a complete node");
    assert!(with.complete_node_hits > 0, "idea 8 must keep complete nodes on");
    assert_eq!(without.batched_runs, 0);
    // Batch counting skips outputs only, so it learns the same gaps.
    assert_eq!(with.cds_nodes, without.cds_nodes);
    assert_eq!(with.constraints_inserted, without.constraints_inserted);
}

#[test]
fn idea8_stays_off_under_order_filters() {
    // A filter switches complete nodes off, so no run has a node to be counted from.
    let graph = random_graph(18, 80, 0.08);
    let db = workload_database(graph, CatalogQuery::ThreePath, 2, 3);
    let q = QueryBuilder::new("3-path-a<d")
        .atom("v1", &["a"])
        .atom("edge", &["a", "b"])
        .atom("edge", &["b", "c"])
        .atom("edge", &["c", "d"])
        .atom("v2", &["d"])
        .lt("a", "d")
        .build();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();
    let with = run(&bq, &MsConfig::default(), &mut |_, _| {});
    let without = run(&bq, &idea8_off(), &mut |_, _| {});
    assert!(with.results > 0, "vacuous: no output");
    assert_eq!(with.batched_runs, 0);
    assert_eq!(with, without, "idea 8 must change nothing when it cannot fire");
}

#[test]
fn idea6_produces_complete_node_hits_on_low_selectivity_paths() {
    let graph = random_graph(13, 80, 0.08);
    // Selectivity 2: half of the nodes in each sample -> lots of repeated sub-path work.
    let db = workload_database(graph.clone(), CatalogQuery::FourPath, 2, 3);
    let q = CatalogQuery::FourPath.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();

    let with = run(&bq, &MsConfig::default(), &mut |_, _| {});
    let without =
        run(&bq, &MsConfig { idea6_complete_nodes: false, ..MsConfig::default() }, &mut |_, _| {});
    assert_eq!(with.results, without.results);
    assert!(with.complete_node_hits > 0, "complete nodes never fired");
    assert_eq!(without.complete_node_hits, 0);
}

#[test]
fn idea7_reduces_cds_growth_on_cyclic_queries() {
    let graph = random_graph(14, 40, 0.2);
    let db = workload_database(graph.clone(), CatalogQuery::FourClique, 1, 1);
    let q = CatalogQuery::FourClique.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();

    let with = run(&bq, &MsConfig::default(), &mut |_, _| {});
    let without =
        run(&bq, &MsConfig { idea7_skeleton: false, ..MsConfig::default() }, &mut |_, _| {});
    assert_eq!(with.results, without.results);
    assert!(
        with.constraints_inserted <= without.constraints_inserted,
        "idea 7 should not insert more constraints ({} vs {})",
        with.constraints_inserted,
        without.constraints_inserted
    );
}

#[test]
fn stats_results_match_the_actual_count_in_every_configuration() {
    let graph = random_graph(15, 30, 0.18);
    let db = workload_database(graph.clone(), CatalogQuery::TwoComb, 2, 9);
    let q = CatalogQuery::TwoComb.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();
    let expected = db.count(&q, &Engine::Lftj).unwrap();
    for (name, config) in all_configs() {
        let mut emitted = 0u64;
        let stats = run(&bq, &config, &mut |_, m| emitted += m);
        assert_eq!(stats.results, expected, "stats.results for {name}");
        assert_eq!(emitted, expected, "emitted for {name}");
    }
    // One output per iteration at most — unless Idea 8 counts whole runs at once.
    let stats = run(&bq, &idea8_off(), &mut |_, _| {});
    assert!(stats.iterations >= stats.results, "{} iterations", stats.iterations);
}

#[test]
fn non_neo_gaos_still_count_correctly() {
    // Table 4 compares GAOs; whatever the GAO, the answer must not change.
    let graph = random_graph(16, 40, 0.1);
    let db = workload_database(graph.clone(), CatalogQuery::FourPath, 4, 2);
    let q = CatalogQuery::FourPath.query();
    let expected = db.count(&q, &Engine::Lftj).unwrap();
    let v = |s: &str| q.var(s).unwrap();
    let gaos = [
        vec![v("a"), v("b"), v("c"), v("d"), v("e")],
        vec![v("c"), v("b"), v("a"), v("d"), v("e")],
        vec![v("a"), v("b"), v("d"), v("c"), v("e")], // non-NEO
        vec![v("b"), v("a"), v("d"), v("c"), v("e")], // non-NEO
    ];
    for gao in gaos {
        let got = db.count_with_gao(&q, &Engine::minesweeper(), Some(gao.clone())).unwrap();
        assert_eq!(got, expected, "GAO {gao:?}");
    }
}

/// The former cliff: `mutual-fans` joins two arity-3 `likes` atoms, so it runs
/// outside chain mode, and its level `b` is exhausted by gaps that never mention
/// `d1`. The free-tuple search must leave such a level by a backjump — a constant
/// number of steps per iteration — not by crawling `d1` up to the largest value
/// (≈ 500 steps per iteration at 112 persons, ≈ 4 000 at 256, before the backjump).
#[test]
fn mutual_fans_free_tuple_search_is_linear_in_iterations() {
    let query = LdbcQuery::MutualFans.query();
    for persons in [112, 256] {
        let config = LdbcConfig { persons, tags: (persons / 8).max(16), ..LdbcConfig::default() };
        let net = SocialNetwork::generate(&config).expect("valid config");
        let mut db = Database::new();
        for (name, rel) in net.relations() {
            db.add_relation(*name, rel.clone());
        }
        let expected = db.count(&query, &Engine::Lftj).unwrap();

        let prepared = db.prepare(&query, &Engine::Minesweeper(MsConfig::default())).unwrap();
        let (count, stats) = prepared.count_with_stats().unwrap();
        assert_eq!(count, expected, "{persons} persons");
        assert_eq!(prepared.par_count(2).unwrap(), expected, "{persons} persons, 2 threads");

        let extra = |name| stats.extra(name).expect("Minesweeper reports its counters");
        let (steps, iterations) = (extra("free_tuple_steps"), extra("iterations"));
        assert!(extra("backjumps") > 0, "{persons} persons: the backjump never fired");
        assert!(
            steps <= 20 * iterations,
            "{persons} persons: {steps} free-tuple steps for {iterations} iterations"
        );
    }
}

/// The per-iteration constant on selective acyclic paths: most iterations change
/// only the last attribute, so a free-tuple walk that resumes at the shallowest
/// changed level takes ≈ 1.6 steps per iteration here (restarting from the root
/// every time took ≈ 4.5).
#[test]
fn three_path_free_tuple_walks_resume_below_the_unchanged_prefix() {
    // The ledger's graph family: power-law degrees, a selectivity-10 sample.
    let graph = powerlaw_cluster(240, 8, 0.4, 19);
    let db = workload_database(graph, CatalogQuery::ThreePath, 10, 5);
    let q = CatalogQuery::ThreePath.query();
    let bq = BoundQuery::new(db.instance(), &q, None).unwrap();
    assert!(MinesweeperExecutor::new(&bq, MsConfig::default()).chain_mode());
    let expected = db.count(&q, &Engine::Lftj).unwrap();

    let prepared = db.prepare(&q, &Engine::Minesweeper(MsConfig::default())).unwrap();
    let (count, stats) = prepared.count_with_stats().unwrap();
    assert_eq!(count, expected);
    assert_eq!(prepared.par_count(2).unwrap(), expected);
    let extra = |name| stats.extra(name).expect("Minesweeper reports its counters");
    let (steps, iterations) = (extra("free_tuple_steps"), extra("iterations"));
    assert!(iterations > 1_000, "vacuous: {iterations} iterations");
    assert!(extra("batched_runs") > 0, "no run was counted from a complete node");
    assert!(steps <= 2 * iterations, "{steps} free-tuple steps for {iterations} iterations");
}
