//! Golden counters: the exact `results` and `bindings_explored` LeapFrog
//! TrieJoin reports on fixed inputs — every catalog query over the Minesweeper
//! golden test's power-law graph, and every LDBC read at 1 000 persons. Each
//! plan is counted (the counting path) and run through a row sink (the row
//! path); both must report the same counters, twice over on one plan. A change
//! that claims to leave the search alone — a cheaper count, a bitmap, a tail —
//! must leave each of these counters bit-identical.
//!
//! The table was generated before the tail counts and the inner-position
//! bitmaps. On a mismatch the test prints the table it computed, so a change
//! that deliberately moves a counter can replace it whole.

use gj_datagen::{powerlaw_cluster, LdbcConfig, SocialNetwork};
use graphjoin::{
    workload_database, CatalogQuery, CountSink, Database, Engine, LdbcQuery, Ordered, Query,
};
use std::fmt::Write;
use std::sync::Arc;

/// One row per query: its name, `results` and `bindings_explored`.
const GOLDEN: &str = "\
query               results bindings
3-clique            72 258
4-clique            10 268
4-cycle             90 594
3-path              1639 2411
4-path              13107 19298
1-tree              187 280
2-tree              96844 149578
2-comb              1639 2411
2-lollipop          5664 11855
3-lollipop          10610 108853
2-hop-friends       6872 7652
3-hop-friends       66688 74340
friend-triangle     111 3911
common-likes        19283 57012
creator-fan         5363 13582
tagged-creator-path 659 1690
mutual-fans         104 4094
fresh-likes         5038 7425
common-tag-pair     13498 13733
fan-fan-tag         1108959 3166172
deep-tag-reach      777 3249
";

/// Counts `query` and runs it through a row sink, each twice on one prepared
/// plan, checks that all four report the same counters, and appends the row.
fn record(table: &mut String, db: &Database, query: &Query) {
    let prepared = db.prepare(query, &Engine::Lftj).expect("prepare");
    let (count, counted) = prepared.count_with_stats().expect("count");
    assert_eq!(counted.counters.results, count, "{}", query.name);
    for execution in 1..=2 {
        let (again, stats) = prepared.count_with_stats().expect("count");
        assert_eq!(again, count, "{}: count {execution}", query.name);
        assert_eq!(stats.counters, counted.counters, "{}: count {execution}", query.name);
        // Rows replayed into a count, not materialised: `fan-fan-tag` has a million.
        let mut rows = Ordered::new(CountSink::new());
        let stats = prepared.run_parallel(&mut rows, 1).expect("run");
        assert_eq!(rows.into_inner().rows(), count, "{}: run {execution}", query.name);
        assert_eq!(
            stats.counters, counted.counters,
            "{}: run {execution} must report the count's counters",
            query.name
        );
    }
    let c = counted.counters;
    writeln!(table, "{:<19} {} {}", query.name, c.results, c.bindings_explored).expect("write");
}

#[test]
fn lftj_counters_match_the_golden_table() {
    let mut table = GOLDEN.lines().next().expect("header").to_string();
    table.push('\n');

    // The Minesweeper golden test's graph, so the two tables describe one input.
    let graph = Arc::new(powerlaw_cluster(48, 3, 0.4, 2014));
    for cq in CatalogQuery::all() {
        let db = workload_database(Arc::clone(&graph), cq, 4, 2014);
        record(&mut table, &db, &cq.query());
    }

    let config = LdbcConfig { persons: 1_000, ..LdbcConfig::default() };
    let net = SocialNetwork::generate(&config).expect("valid config");
    let mut db = Database::new();
    for (name, rel) in net.relations() {
        db.add_relation(*name, rel.clone());
    }
    for lq in LdbcQuery::all() {
        record(&mut table, &db, &lq.query());
    }

    for (line, (got, want)) in table.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {line} differs; the computed table is:\n{table}");
    }
    assert_eq!(table.lines().count(), GOLDEN.lines().count(), "the computed table is:\n{table}");
}
