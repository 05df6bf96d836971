//! Table 5 — normalised runtime of multi-threaded Minesweeper as a function of the
//! partition granularity factor `f` (Section 4.10): the output space is split into
//! `threads × f` jobs served by a work-stealing pool. `f = 1` is the baseline;
//! values below 1.0 mean the extra granularity helped (it mostly does for the cyclic
//! queries, whose partitions are skewed).
//!
//! ```sh
//! cargo run --release -p gj-bench --bin table5_granularity -- --scale 0.25
//! ```

use gj_bench::{time_cold, HarnessOptions, Table};
use gj_datagen::Dataset;
use graphjoin::{workload_database, CatalogQuery, Engine, MsConfig};

fn main() {
    let opts = HarnessOptions::from_args();
    // A handful of mid-sized datasets keeps the sweep affordable; the paper averages
    // across datasets as well.
    let datasets = [Dataset::WikiVote, Dataset::CaCondMat, Dataset::EmailEnron];
    let graphs = opts.generate(&datasets);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    println!("worker threads: {threads}");

    let queries = [
        CatalogQuery::ThreePath,
        CatalogQuery::FourPath,
        CatalogQuery::TwoComb,
        CatalogQuery::ThreeClique,
        CatalogQuery::FourClique,
        CatalogQuery::FourCycle,
    ];
    let granularities = [1usize, 2, 3, 4, 8, 12, 14];

    let columns: Vec<String> = granularities.iter().map(|g| g.to_string()).collect();
    let mut table =
        Table::new("Table 5: average normalised runtime across partition granularity", columns);

    for query in queries {
        // Average the normalised runtime over the datasets.
        let mut sums = vec![0.0f64; granularities.len()];
        for (_, graph) in &graphs {
            let db = workload_database(graph.clone(), query, 10, opts.seed);
            let q = query.query();
            let mut baseline_ms = 0.0;
            for (i, &granularity) in granularities.iter().enumerate() {
                let engine = Engine::Minesweeper(MsConfig { granularity, ..MsConfig::default() });
                let (_, elapsed) = time_cold(&db, || {
                    db.prepare(&q, &engine).and_then(|p| p.par_count(threads)).unwrap()
                });
                let ms = elapsed.as_secs_f64() * 1e3;
                if i == 0 {
                    baseline_ms = ms.max(1e-3);
                }
                sums[i] += ms / baseline_ms;
            }
        }
        let row: Vec<String> =
            sums.iter().map(|s| format!("{:.2}", s / graphs.len() as f64)).collect();
        table.row(query.name(), row);
    }

    table.print();
    let path = table.write_csv("table5_granularity").expect("csv");
    println!("\ncsv: {}", path.display());
}
