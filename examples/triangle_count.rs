//! Triangle counting end to end: generate a graph, prepare the 3-clique query
//! once, then count serially, in parallel, and with warm reruns — the
//! prepare/execute split and the morsel runtime in one small program.
//!
//! ```sh
//! cargo run --release --example triangle_count
//! ```

use graphjoin::{CatalogQuery, CountSink, Database, Engine, Graph};
use std::time::Instant;

fn main() {
    // A seeded powerlaw-cluster graph (triangle-rich, like a social network).
    let graph: Graph = gj_datagen::powerlaw_cluster(5_000, 8, 0.4, 42);
    println!("graph: {} nodes, {} directed edges", graph.num_nodes(), graph.num_edges());
    let mut db = Database::new();
    db.add_graph(graph);

    // Prepare once: validation, GAO selection and trie-index builds happen here,
    // against the database's shared index cache.
    let triangle = CatalogQuery::ThreeClique.query();
    let start = Instant::now();
    let prepared = db.prepare(&triangle, &Engine::Lftj).expect("triangle query prepares");
    println!(
        "prepare: {:.2} ms ({} trie indexes built)",
        start.elapsed().as_secs_f64() * 1e3,
        prepared.indexes_built()
    );

    // Execute many times. The serial count uses the engine's counting fast path:
    // LFTJ counts the last GAO level without visiting each triangle, scanning
    // `N(b)` against a bitmap of `N(a)`, which is the same slice under every `b`.
    // The bitmap is built on the slice's second use, if it needs no more 64-bit
    // words than `N(a)` has values.
    let start = Instant::now();
    let serial = prepared.count().expect("serial count");
    println!("serial count:   {serial} triangles in {:.2} ms", start.elapsed().as_secs_f64() * 1e3);

    // The parallel count drives the same prepared query through the morsel
    // runtime: the first GAO attribute is partitioned at data quantiles, workers
    // claim morsels from a shared pool, and per-worker engine state survives
    // across the morsels each worker claims.
    let start = Instant::now();
    let parallel = prepared.par_count(4).expect("parallel count");
    println!(
        "parallel count: {parallel} triangles in {:.2} ms (4 threads)",
        start.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(parallel, serial, "the morsel runtime is exact, not approximate");

    // Warm rerun: repeated executions of one PreparedQuery reuse cached indexes
    // and pooled worker state — the steady state of a query served under traffic.
    let start = Instant::now();
    let rerun = prepared.par_count(4).expect("warm rerun");
    println!("warm rerun:     {rerun} triangles in {:.2} ms", start.elapsed().as_secs_f64() * 1e3);

    // Sinks stream rows instead of counting; run_parallel merges the per-morsel
    // shards in morsel order, so any sink sees exactly the serial emission.
    let mut sink = CountSink::new();
    let stats = prepared.run_parallel(&mut sink, 4).expect("sink execution");
    println!(
        "run_parallel:   {} rows over {} morsels on {} threads",
        sink.rows(),
        stats.morsels,
        stats.threads
    );
}
