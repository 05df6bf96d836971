//! # gj-bench
//!
//! Shared support for the benchmark harness binaries that regenerate every table and
//! figure of the paper's evaluation (one binary per table or figure, named after it).
//!
//! Each binary in `src/bin/` prints one table (or figure series) in the paper's
//! layout — datasets as columns or rows, systems/configurations as the other axis —
//! and writes the same data as CSV under `target/bench-results/`. Because the paper's
//! SNAP graphs are replaced by seeded synthetic stand-ins (see `gj-datagen`), the
//! absolute numbers differ from the paper; the *shapes* (who wins, by what factor,
//! where the timeouts appear) are what to compare against it.
//!
//! Common conventions:
//!
//! * `--scale <f>` multiplies every dataset's default scale (default 1.0; use e.g.
//!   `0.25` for a quick pass);
//! * `--budget <rows>` caps the pairwise baselines' materialised intermediates, the
//!   stand-in for the paper's 30-minute timeout (default 5,000,000);
//! * cells print milliseconds; `-` marks a timeout/budget overrun or an unsupported
//!   engine/query combination, exactly like the paper's tables.

use gj_baselines::ExecLimits;
use gj_datagen::Dataset;
use graphjoin::{CatalogQuery, Database, Engine, EngineError, Graph, MsConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Multiplier on each dataset's default scale.
    pub scale: f64,
    /// Materialisation budget for the pairwise baselines.
    pub budget: usize,
    /// Random seed for sample draws.
    pub seed: u64,
    /// Restrict to a subset of dataset names (empty = the binary's default set).
    pub datasets: Vec<String>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions { scale: 1.0, budget: 5_000_000, seed: 0x5eed, datasets: Vec::new() }
    }
}

impl HarnessOptions {
    /// Parses `--scale`, `--budget`, `--seed` and `--dataset <name>` (repeatable)
    /// from the process arguments; unknown arguments abort with a usage message.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().unwrap_or_else(|| panic!("{name} requires a value"));
            match arg.as_str() {
                "--scale" => opts.scale = value("--scale").parse().expect("numeric --scale"),
                "--budget" => opts.budget = value("--budget").parse().expect("numeric --budget"),
                "--seed" => opts.seed = value("--seed").parse().expect("numeric --seed"),
                "--dataset" => opts.datasets.push(value("--dataset")),
                "--help" | "-h" => {
                    eprintln!("options: --scale <f> --budget <rows> --seed <n> --dataset <name> (repeatable)");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other}; try --help"),
            }
        }
        opts
    }

    /// The pairwise baselines' execution limits.
    pub fn limits(&self) -> ExecLimits {
        ExecLimits { max_intermediate_rows: self.budget }
    }

    /// Generates the graphs for a list of datasets at `scale × default_scale`,
    /// honouring the `--dataset` filter. Graphs are returned behind `Arc` so the
    /// harnesses can hand them to many [`Database`]s without deep copies.
    pub fn generate(&self, datasets: &[Dataset]) -> Vec<(Dataset, Arc<Graph>)> {
        datasets
            .iter()
            .copied()
            .filter(|d| {
                self.datasets.is_empty()
                    || self.datasets.iter().any(|n| n.eq_ignore_ascii_case(d.name()))
            })
            .map(|d| {
                let scale = (d.spec().default_scale * self.scale).clamp(1e-4, 1.0);
                (d, Arc::new(d.generate_scaled(scale)))
            })
            .collect()
    }
}

/// Outcome of one benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Completed: duration and result count.
    Done { millis: f64, count: u64 },
    /// Budget exceeded or unsupported — printed as `-`, like the paper's timeouts.
    Dash,
}

impl Cell {
    /// The duration in milliseconds, if the cell completed.
    pub fn millis(&self) -> Option<f64> {
        match self {
            Cell::Done { millis, .. } => Some(*millis),
            Cell::Dash => None,
        }
    }

    /// Renders the cell the way the paper's tables do (duration only).
    pub fn render(&self) -> String {
        match self {
            Cell::Done { millis, .. } => format!("{millis:.0}"),
            Cell::Dash => "-".to_string(),
        }
    }
}

/// Times one engine on one query over one database: a **cold** prepare + execute
/// (the shared index cache is cleared first, so cells are independent of the order
/// the harness visits engines in, like the paper's per-system timings).
pub fn run_cell(db: &Database, query: &CatalogQuery, engine: &Engine) -> Cell {
    let q = query.query();
    db.cache().clear();
    let start = Instant::now();
    match db.prepare(&q, engine).and_then(|prepared| prepared.count()) {
        Ok(count) => Cell::Done { millis: start.elapsed().as_secs_f64() * 1e3, count },
        Err(EngineError::Baseline(_)) | Err(EngineError::Unsupported(_)) => Cell::Dash,
        Err(err) => panic!("unexpected engine error: {err}"),
    }
}

/// Times a closure, returning (result, duration).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times a **cold** one-shot measurement over `db`: the shared index cache is
/// cleared first, so every timed configuration pays its own binding/index-build
/// cost. Harnesses that time several `db.count` calls on one `Database` must use
/// this (or [`run_cell`]) — otherwise only the first configuration builds the trie
/// indexes and every later one is silently warm, biasing the reported ratios.
pub fn time_cold<T>(db: &Database, f: impl FnOnce() -> T) -> (T, Duration) {
    db.cache().clear();
    time(f)
}

/// The standard engine line-up of Tables 6 and 7 (plus the graph engine for cliques).
pub fn standard_engines(limits: ExecLimits) -> Vec<Engine> {
    vec![
        Engine::Lftj,
        Engine::Minesweeper(MsConfig::default()),
        Engine::HashJoin(limits),
        Engine::SortMergeJoin(limits),
    ]
}

/// A printable table: fixed row labels, named columns, cell strings.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table { title: title.into(), columns, rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        let cells_len = cells.len();
        self.rows.push((label.into(), cells));
        assert_eq!(cells_len, self.columns.len(), "row width must match the header");
    }

    /// Prints the table to stdout in a fixed-width layout.
    pub fn print(&self) {
        println!("\n== {}", self.title);
        let label_width =
            self.rows.iter().map(|(l, _)| l.len()).chain(std::iter::once(8)).max().unwrap_or(8);
        let col_width = self
            .columns
            .iter()
            .map(String::len)
            .chain(self.rows.iter().flat_map(|(_, cells)| cells.iter().map(String::len)))
            .max()
            .unwrap_or(8)
            .max(6)
            + 2;
        print!("{:<label_width$}", "");
        for c in &self.columns {
            print!("{c:>col_width$}");
        }
        println!();
        for (label, cells) in &self.rows {
            print!("{label:<label_width$}");
            for cell in cells {
                print!("{cell:>col_width$}");
            }
            println!();
        }
    }

    /// Writes the table as CSV under `target/bench-results/<file>.csv`.
    pub fn write_csv(&self, file: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("target").join("bench-results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{file}.csv"));
        let mut out = std::fs::File::create(&path)?;
        writeln!(out, "row,{}", self.columns.join(","))?;
        for (label, cells) in &self.rows {
            writeln!(out, "{label},{}", cells.join(","))?;
        }
        Ok(path)
    }
}

/// Formats a speed-up ratio the way Tables 1–3 do: `inf` when only the baseline
/// timed out, `-` when the improved configuration did (or took no time).
pub fn ratio(baseline_ms: Option<f64>, improved_ms: Option<f64>) -> String {
    match (baseline_ms, improved_ms) {
        (Some(b), Some(i)) if i > 0.0 => format!("{:.2}", b / i),
        (None, Some(_)) => "inf".to_string(),
        _ => "-".to_string(),
    }
}

/// Prints the per-dataset statistics header every harness starts with, so the
/// generated stand-ins can be compared with the paper's Section 5.1 table.
pub fn print_dataset_summary(graphs: &[(Dataset, Arc<Graph>)]) {
    println!(
        "{:<18} {:>10} {:>12} {:>14} {:>14}",
        "dataset", "nodes", "edges(dir)", "triangles", "paper-tri"
    );
    for (d, g) in graphs {
        println!(
            "{:<18} {:>10} {:>12} {:>14} {:>14}",
            d.name(),
            g.num_nodes(),
            g.num_edges(),
            g.triangle_count(),
            d.spec().paper_triangles
        );
    }
}

/// Selectivities used by the paper for a dataset (8/80 for the small ones, 10/100/1000
/// for the larger ones).
pub fn paper_selectivities(dataset: Dataset) -> &'static [u32] {
    match dataset {
        Dataset::CaGrQc
        | Dataset::P2pGnutella04
        | Dataset::EgoFacebook
        | Dataset::CaCondMat
        | Dataset::WikiVote
        | Dataset::P2pGnutella31
        | Dataset::EmailEnron
        | Dataset::LocBrightkite => &[80, 8],
        _ => &[1000, 100, 10],
    }
}

/// Map from engine label to column order used in the cross-system tables.
pub fn engine_columns(engines: &[Engine]) -> Vec<String> {
    engines.iter().map(|e| e.label().to_string()).collect()
}

/// Convenience: a `BTreeMap` keyed by dataset name for collected results.
pub type ResultsByDataset = BTreeMap<String, Vec<Cell>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats_like_the_paper() {
        assert_eq!(ratio(Some(10.0), Some(4.0)), "2.50");
        assert_eq!(ratio(None, Some(4.0)), "inf");
        assert_eq!(ratio(Some(10.0), None), "-");
    }

    #[test]
    fn cells_render_durations_or_dashes() {
        assert_eq!(Cell::Done { millis: 12.4, count: 5 }.render(), "12");
        assert_eq!(Cell::Dash.render(), "-");
        assert_eq!(Cell::Dash.millis(), None);
    }

    #[test]
    fn table_roundtrip_and_csv() {
        let mut t = Table::new("test", vec!["a".into(), "b".into()]);
        t.row("r1", vec!["1".into(), "2".into()]);
        t.print();
        let path = t.write_csv("unit_test_table").unwrap();
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.contains("row,a,b"));
        assert!(contents.contains("r1,1,2"));
    }

    #[test]
    fn run_cell_counts_and_dashes() {
        let graph = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let db = graphjoin::workload_database(graph, CatalogQuery::ThreeClique, 1, 1);
        match run_cell(&db, &CatalogQuery::ThreeClique, &Engine::Lftj) {
            Cell::Done { count, .. } => assert_eq!(count, 1),
            Cell::Dash => panic!("expected a completed cell"),
        }
        // A 1-row budget forces the baseline into the paper's "-" case.
        let tiny = ExecLimits { max_intermediate_rows: 1 };
        assert_eq!(run_cell(&db, &CatalogQuery::ThreeClique, &Engine::HashJoin(tiny)), Cell::Dash);
    }

    #[test]
    fn options_generate_scales_datasets() {
        let opts = HarnessOptions { scale: 0.02, ..HarnessOptions::default() };
        let graphs = opts.generate(&[Dataset::CaGrQc]);
        assert_eq!(graphs.len(), 1);
        assert!(graphs[0].1.num_nodes() < 1000);
    }
}
