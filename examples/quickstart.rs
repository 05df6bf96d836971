//! Quickstart: load a small graph, prepare the triangle query once, and execute it
//! with every engine through the prepared-query API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graphjoin::{CatalogQuery, Database, Engine, ExecLimits, FirstK, Graph};

fn main() {
    // A small social circle: two triangles sharing an edge plus a pendant node.
    let graph =
        Graph::new_undirected(6, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]);
    let mut db = Database::new();
    db.add_graph(graph);

    let triangle = CatalogQuery::ThreeClique.query();
    println!("query: {triangle}");

    let engines = [
        Engine::Lftj,
        Engine::minesweeper(),
        Engine::HashJoin(ExecLimits::default()),
        Engine::SortMergeJoin(ExecLimits::default()),
        Engine::GraphEngine,
    ];
    for engine in &engines {
        // Prepare once (binding + GAO + indexes, shared across engines via the
        // database index cache), then execute as many times as needed.
        let prepared = db.prepare(&triangle, engine).expect("preparation succeeds");
        let count = prepared.count().expect("triangle counting succeeds");
        println!(
            "{:>10}: {} triangles ({} indexes built on prepare)",
            engine.label(),
            count,
            prepared.indexes_built()
        );
    }

    // Enumeration returns the actual matches (bindings in a, b, c order).
    let prepared = db.prepare(&triangle, &Engine::Lftj).expect("preparation succeeds");
    let matches = prepared.collect().expect("enumeration succeeds");
    println!("matches: {matches:?}");
    // Early termination through the sink protocol: just the first match.
    let mut first = FirstK::new(1);
    prepared.run_parallel(&mut first, 1).expect("enumeration succeeds");
    println!("first:   {:?}", first.into_rows());
}
