//! LFTJ chooses its own variable order (`gj_query::lftj_gao`, selective join
//! variables first) while Minesweeper keeps the longest-path NEO. The order
//! changes the work, never the answer: on every LDBC read and every catalog
//! query, LFTJ in its chosen order, LFTJ forced to `select_gao`'s order and the
//! pairwise hash join count the same.

use gj_datagen::{LdbcConfig, SocialNetwork};
use gj_query::select_gao;
use graphjoin::{
    workload_database, CatalogQuery, Database, Engine, ExecLimits, Graph, LdbcQuery, Query,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

fn ldbc_database() -> Database {
    let net = SocialNetwork::generate(&LdbcConfig {
        persons: 120,
        tags: 24,
        days: 32,
        tag_selectivity: 4,
        person_selectivity: 4,
        seed: 0x50c1a1,
        ..LdbcConfig::default()
    })
    .expect("valid config");
    let mut db = Database::new();
    for (name, rel) in net.relations() {
        db.add_relation(*name, rel.clone());
    }
    db
}

/// LFTJ (chosen order) = LFTJ (NEO order) = hash join; returns the count.
fn assert_orders_agree(db: &Database, q: &Query) -> u64 {
    let chosen = db.count(q, &Engine::Lftj).expect("LFTJ, chosen order");
    let neo = db.count_with_gao(q, &Engine::Lftj, Some(select_gao(q))).expect("LFTJ, NEO order");
    let hash = db.count(q, &Engine::HashJoin(ExecLimits::default())).expect("hash join");
    assert_eq!((chosen, neo), (hash, hash), "{}: chosen, NEO vs hash join", q.name);
    hash
}

#[test]
fn chosen_lftj_order_counts_like_the_neo_order_on_every_ldbc_read() {
    let db = ldbc_database();
    let answered =
        LdbcQuery::all().into_iter().filter(|lq| assert_orders_agree(&db, &lq.query()) > 0);
    assert!(answered.count() >= 9, "the LDBC suite is mostly empty at this scale");

    let q = LdbcQuery::TwoHopFriends.query();
    let lftj = db.prepare(&q, &Engine::Lftj).expect("prepare LFTJ");
    assert_eq!(lftj.gao(), Some(vec!["a", "b", "c"]), "LFTJ starts at the sampled person");
    let minesweeper = db.prepare(&q, &Engine::minesweeper()).expect("prepare Minesweeper");
    assert_eq!(minesweeper.gao(), Some(vec!["c", "b", "a"]), "Minesweeper keeps the NEO");
    let hash = db.prepare(&q, &Engine::HashJoin(ExecLimits::default())).expect("prepare hash");
    assert_eq!(hash.gao(), None);
}

#[test]
fn chosen_lftj_order_counts_like_the_neo_order_on_every_catalog_query() {
    let mut rng = StdRng::seed_from_u64(5);
    let edges: Vec<(u32, u32)> = (0..40)
        .flat_map(|a| (a + 1..40).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(0.12))
        .collect();
    let graph = Arc::new(Graph::new_undirected(40, edges));
    for cq in CatalogQuery::all() {
        let db = workload_database(graph.clone(), cq, 4, 99);
        assert_orders_agree(&db, &cq.query());
    }
}
