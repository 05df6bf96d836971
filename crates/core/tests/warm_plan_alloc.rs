//! Allocation guard for a warm Minesweeper plan: a `PreparedQuery` keeps the
//! executors its last drive used, node arena and point lists included, so once
//! two executions have grown them a serial `count()` — partition, drive, executor
//! checkout, search, merge — must not touch the heap at all.

use gj_datagen::{powerlaw_cluster, LdbcConfig, SocialNetwork};
use graphjoin::{workload_database, CatalogQuery, Database, Engine, LdbcQuery, MsConfig, Query};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Prepares `query` for Minesweeper, counts twice to warm the plan up, and
/// asserts that a third count allocates nothing.
fn assert_warm_count_allocates_nothing(db: &Database, query: &Query) {
    let prepared = db.prepare(query, &Engine::Minesweeper(MsConfig::default())).unwrap();
    let (expected, stats) = prepared.count_with_stats().unwrap();
    assert!(stats.counters.iterations > 1_000, "vacuous: {} is too small", query.name);
    assert_eq!(prepared.count().unwrap(), expected);
    let (count, allocations) = counting_alloc::allocations_during(|| prepared.count().unwrap());
    assert_eq!(count, expected);
    assert_eq!(allocations, 0, "{}: a warm count allocated {allocations} times", query.name);
}

#[test]
fn a_warm_3_path_count_allocates_nothing() {
    let graph = powerlaw_cluster(200, 8, 0.4, 2014);
    let db = workload_database(graph, CatalogQuery::ThreePath, 10, 2014);
    assert_warm_count_allocates_nothing(&db, &CatalogQuery::ThreePath.query());
}

#[test]
fn a_warm_mutual_fans_count_allocates_nothing() {
    let config = LdbcConfig { persons: 60, tags: 16, ..LdbcConfig::default() };
    let net = SocialNetwork::generate(&config).expect("valid config");
    let mut db = Database::new();
    for (name, rel) in net.relations() {
        db.add_relation(*name, rel.clone());
    }
    assert_warm_count_allocates_nothing(&db, &LdbcQuery::MutualFans.query());
}
