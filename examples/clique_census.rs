//! Clique census over a synthetic social network.
//!
//! Generates the ego-Facebook stand-in (a dense, triangle-rich graph), then counts
//! triangles and 4-cliques with the worst-case optimal join, Minesweeper and the
//! specialised graph engine, reporting wall-clock times — a miniature version of the
//! paper's Table 6. The engines must agree on every count, and the triangles must
//! equal the graph's own triangle count.
//!
//! ```sh
//! cargo run --release --example clique_census
//! ```

use graphjoin::{CatalogQuery, Database, Dataset, Engine};
use std::time::Instant;

fn main() {
    let dataset = Dataset::EgoFacebook;
    // A quarter-scale graph keeps the example under a few seconds in release mode.
    let graph = dataset.generate_scaled(0.25);
    let triangles = graph.triangle_count();
    println!(
        "{}-like graph: {} nodes, {} undirected edges, {} triangles",
        dataset.name(),
        graph.num_nodes(),
        graph.num_undirected_edges(),
        triangles
    );

    let mut db = Database::new();
    db.add_graph(graph);

    for query in [CatalogQuery::ThreeClique, CatalogQuery::FourClique] {
        println!("\n== {}", query.name());
        let q = query.query();
        let mut counts = Vec::new();
        for engine in [Engine::Lftj, Engine::minesweeper(), Engine::GraphEngine] {
            let start = Instant::now();
            let count = db.count(&q, &engine).expect("clique counting succeeds");
            println!("{:>10}: {:>12} matches in {:?}", engine.label(), count, start.elapsed());
            counts.push(count);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{}: engines disagree: {counts:?}",
            q.name
        );
        if query == CatalogQuery::ThreeClique {
            assert_eq!(counts[0], triangles, "the 3-clique count is the graph's triangle count");
        }
    }
}
