//! # gj-bench
//!
//! The `paper_tables` runner: it regenerates every table and figure of the paper's
//! evaluation, prints each in the paper's layout and writes it as CSV under
//! `target/bench-results/`, next to a `<name>_work.csv` twin with the same labels
//! that holds the engines' exact work instead of wall time. Because the paper's SNAP
//! graphs are replaced by seeded synthetic stand-ins (see `gj-datagen`), the absolute
//! numbers differ from the paper; the *shapes* (who wins, by what factor, where the
//! timeouts appear) are what to compare against it.
//!
//! A table is data (`specs`): queries, runs (an engine, or Minesweeper under one
//! configuration) and an axis of databases. Every run executes once, cold, on every
//! database (`run_cell`), and all completed runs on one database must report the same
//! count. The cells are then laid out in one of two shapes:
//!
//! * an **engine grid** (Tables 6 and 7, Figures 3–7): rows are engines, and each
//!   column is one database — a dataset, a dataset at one sample selectivity, a
//!   node-sample size or an edge prefix;
//! * a **configuration sweep** (Tables 1–5): Minesweeper under several configurations
//!   (`MsConfig` ablations, GAOs, partition granularities), each cell a speed-up
//!   (Tables 1–3), a time (Table 4) or a time normalised to the first configuration
//!   and averaged over the datasets (Table 5).
//!
//! Cells print milliseconds; `-` marks a blown materialisation budget (the pairwise
//! baselines' stand-in for the paper's 30-minute timeout) or an unsupported
//! engine/query combination, exactly like the paper's tables. The work counters are
//! LFTJ's `bindings_explored`, Minesweeper's `iterations + probes` and the pairwise
//! baselines' `materialized_rows`; the count-only engines (`graphlab`, `lb/hybrid`)
//! have none and print `-`. Ratio and normalised cells apply the same formula to the
//! counters.

use graphjoin::{
    workload_database, CatalogQuery, CountSink, Database, Dataset, Engine, EngineError, ExecLimits,
    Graph, MsConfig, Query, RunStats,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of every node sample (the paper's `v1`, `v2`, …).
const SEED: u64 = 0x5eed;

/// The pairwise baselines' materialisation budget.
const LIMITS: ExecLimits = ExecLimits { max_intermediate_rows: 5_000_000 };

/// The eight smallest datasets: Table 4's rows, and the ones sampled at
/// selectivities 80 and 8 (the larger ones at 1000, 100 and 10).
const SMALL: [Dataset; 8] = [
    Dataset::CaGrQc,
    Dataset::P2pGnutella04,
    Dataset::EgoFacebook,
    Dataset::CaCondMat,
    Dataset::WikiVote,
    Dataset::P2pGnutella31,
    Dataset::EmailEnron,
    Dataset::LocBrightkite,
];

/// Usage line printed with every command-line error.
pub const USAGE: &str = "usage: paper_tables (--table <1-7> | --figure <3-7> | --all)... \
                         [--scale <f>] [--dataset <name>]...";

/// Command-line options.
pub struct Options {
    /// Multiplier on each dataset's default scale.
    scale: f64,
    /// Dataset names to restrict every table to (empty = each table's own set).
    datasets: Vec<String>,
    /// The selected tables and figures, e.g. `"table 5"` or `"figure 6"`.
    selected: Vec<String>,
}

impl Options {
    /// Parses the selector (`--table <n>`, `--figure <n>`, `--all`; repeatable),
    /// `--scale <f>` and `--dataset <name>` (repeatable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let keys: Vec<String> = specs().iter().map(Spec::key).collect();
        let mut opts = Options { scale: 1.0, datasets: Vec::new(), selected: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} requires a value"));
            match arg.as_str() {
                "--table" | "--figure" => opts.selected.push(format!("{} {}", &arg[2..], value()?)),
                "--all" => opts.selected.extend(keys.iter().cloned()),
                "--scale" => opts.scale = value()?.parse().map_err(|_| "--scale takes a number")?,
                "--dataset" => opts.datasets.push(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if let Some(key) = opts.selected.iter().find(|s| !keys.contains(s)) {
            return Err(format!("no {key}"));
        }
        let known = |d: &&String| Dataset::all().iter().any(|k| k.name().eq_ignore_ascii_case(d));
        if let Some(name) = opts.datasets.iter().find(|d| !known(d)) {
            return Err(format!("no dataset {name}"));
        }
        if opts.selected.is_empty() {
            return Err("select a table, a figure or --all".into());
        }
        Ok(opts)
    }
}

/// A completed cell: cold prepare + count in ms, the answer, and the engine's exact
/// work counter (`None` for count-only engines). `None` in its place is a `-`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    millis: f64,
    count: u64,
    work: Option<f64>,
}

/// A cell's wall time, or its work counter when `work` is set.
fn value(cell: &Option<Cell>, work: bool) -> Option<f64> {
    cell.and_then(|c| if work { c.work } else { Some(c.millis) })
}

/// One row of an engine grid or one configuration of a sweep.
struct Run {
    label: String,
    engine: Engine,
    /// An explicit GAO, as the query's variable names in order.
    gao: Option<&'static str>,
    threads: usize,
}

impl Run {
    fn engine(engine: Engine) -> Run {
        Run { label: engine.label().to_string(), engine, gao: None, threads: 1 }
    }

    fn ms(label: &str, config: MsConfig) -> Run {
        Run { label: label.to_string(), ..Run::engine(Engine::Minesweeper(config)) }
    }
}

/// Runs `run` on `query` over `db` **cold**: the shared index cache is cleared first,
/// so a cell never depends on which cells ran before it. Times prepare plus count;
/// `None` on a budget overrun or an unsupported engine.
fn run_cell(db: &Database, query: &Query, run: &Run) -> Option<Cell> {
    let var = |c: char| query.var(&c.to_string()).expect("a GAO names the query's variables");
    let gao = run.gao.map(|order| order.chars().map(var).collect());
    db.cache().clear();
    let start = Instant::now();
    let mut sink = CountSink::new();
    let prepared = db.prepare_with_gao(query, &run.engine, gao);
    match prepared.and_then(|p| p.run_parallel(&mut sink, run.threads)) {
        Ok(stats) => {
            let millis = start.elapsed().as_secs_f64() * 1e3;
            Some(Cell { millis, count: sink.rows(), work: work(&stats).map(|w| w as f64) })
        }
        Err(EngineError::Baseline(_) | EngineError::Unsupported(_)) => None,
        Err(err) => panic!("unexpected engine error: {err}"),
    }
}

/// The engine's noise-free work counter: LFTJ `bindings_explored`, Minesweeper (`ms`)
/// `iterations + probes`, pairwise `materialized_rows`; `None` for count-only engines.
fn work(stats: &RunStats) -> Option<u64> {
    let ms = || Some(stats.extra("iterations")? + stats.extra("probes")?);
    stats.extra("bindings_explored").or_else(ms).or_else(|| stats.extra("materialized_rows"))
}

/// Checks that every completed cell of one column reports the same count (`-` cells
/// are skipped); a disagreement is an error naming the table, the row and the column.
fn check_counts<'a>(
    table: &str,
    column: &str,
    cells: impl IntoIterator<Item = (&'a str, Option<Cell>)>,
) -> Result<(), String> {
    let mut done = cells.into_iter().filter_map(|(row, cell)| Some((row, cell?.count)));
    let Some((first, expected)) = done.next() else { return Ok(()) };
    match done.find(|&(_, count)| count != expected) {
        Some((row, n)) => Err(format!("{table}, {column}: {row} counts {n}, {first} {expected}")),
        None => Ok(()),
    }
}

/// The databases a table runs on, one per column of an engine grid.
enum Axis {
    /// One per dataset, sampled at the given selectivity.
    Datasets(u32),
    /// One per dataset and paper selectivity.
    Selectivities,
    /// One per node-sample size `N`: powers of four up to ~5 % of the nodes, each
    /// drawn at the selectivity that keeps about `N` nodes.
    Samples,
    /// One per edge prefix: powers of four from 4096, then the whole graph.
    EdgePrefixes,
}

/// How a table lays out its cells.
enum Layout {
    /// Rows are runs, columns databases: the engine grid.
    Grid,
    /// Rows are databases, columns runs plus the edge count (Table 4).
    PerDataset,
    /// Rows are queries, columns databases; a cell is run 0's time over run 1's.
    Speedup,
    /// Rows are queries, columns runs; a cell is the run's time over run 0's,
    /// averaged over the databases.
    Normalised,
}

/// One printed table and its CSV.
struct Spec {
    /// `"Table"` or `"Figure"`; with `number` it makes the selector (`--table 5`).
    kind: &'static str,
    number: u32,
    /// The heading after `<kind> <number>`, e.g. `": 4-cycle duration in ms"`.
    title: String,
    /// File stem under `target/bench-results/`.
    csv: String,
    datasets: Vec<Dataset>,
    queries: Vec<CatalogQuery>,
    runs: Vec<Run>,
    axis: Axis,
    layout: Layout,
}

/// Every table and figure of the paper's evaluation, in order.
fn specs() -> Vec<Spec> {
    use CatalogQuery::*;
    use Engine::{GraphEngine, Lftj};
    let all = MsConfig::default;
    // Tables 1–3 ablate Ideas 4, 6 and 7. Idea 8 counts runs from Idea 6's complete
    // nodes, so it stays off on both sides, or the Idea 6 columns would include it.
    let ablated = || MsConfig { idea8_batch_counting: false, ..all() };
    let no46 = || MsConfig { idea4_gap_memo: false, idea6_complete_nodes: false, ..ablated() };
    let no6 = MsConfig { idea6_complete_nodes: false, ..ablated() };
    let no7 = MsConfig { idea7_skeleton: false, ..ablated() };
    let acyclic = [TwoComb, ThreePath, FourPath];
    let cyclic = [ThreeClique, FourClique, FourCycle];
    // Lower selectivity means larger samples and more redundant work for caching to
    // remove. Without Idea 7 every atom inserts constraints into the CDS, which
    // sprouts a branch per value combination: the paper's thrashing cells. Minesweeper
    // runs without a budget, so here they show as long times, never as `-`.
    let ablations = [
        (1, " (top): speed-up with Idea 4", "table1_idea4", acyclic, 8, no46(), no6),
        (1, " (bottom): speed-up with Ideas 4+6", "table1_idea4_6", acyclic, 8, no46(), ablated()),
        (2, ": speed-up with Ideas 4+6", "table2_idea4_6_sel10", acyclic, 10, no46(), ablated()),
        (3, ": speed-up with Idea 7", "table3_idea7", cyclic, 1, no7, ablated()),
    ];
    let mut specs = Vec::new();
    for (number, title, csv, queries, s, without, with) in ablations {
        specs.push(Spec {
            kind: "Table",
            number,
            title: format!("{title}, selectivity {s}"),
            csv: csv.to_string(),
            datasets: Dataset::small_and_medium(),
            queries: queries.into(),
            runs: vec![Run::ms("without", without), Run::ms("with", with)],
            axis: Axis::Datasets(s),
            layout: Layout::Speedup,
        });
    }
    // Five nested elimination orders, then two non-NEOs, which lose the chain
    // property and with it the caching of Ideas 5 and 6.
    let gaos = ["abcde", "bacde", "bcade", "cbade", "cbdae", "abdce", "badce"];
    specs.push(Spec {
        kind: "Table",
        number: 4,
        title: ": Minesweeper on 4-path in ms by GAO (the last two are not NEOs)".into(),
        csv: "table4_gao".into(),
        datasets: SMALL.into(),
        queries: vec![FourPath],
        runs: gaos.map(|o| Run { gao: Some(o), ..Run::ms(&o.to_uppercase(), all()) }).into(),
        axis: Axis::Datasets(8),
        layout: Layout::PerDataset,
    });
    // Section 4.10: the output space is split into `threads × f` work-stolen jobs.
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let ms = |f: usize| Run::ms(&f.to_string(), MsConfig { granularity: f, ..all() });
    specs.push(Spec {
        kind: "Table",
        number: 5,
        title: format!(": time at granularity f over f = 1, {threads} threads"),
        csv: "table5_granularity".into(),
        datasets: vec![Dataset::WikiVote, Dataset::CaCondMat, Dataset::EmailEnron],
        queries: [[ThreePath, FourPath, TwoComb], cyclic].concat(),
        runs: [1, 2, 3, 4, 8, 12, 14].map(|f| Run { threads, ..ms(f) }).into(),
        axis: Axis::Datasets(10),
        layout: Layout::Normalised,
    });

    let engines = |extra: Option<Engine>| {
        let pairwise = [Engine::HashJoin(LIMITS), Engine::SortMergeJoin(LIMITS)];
        let engines = [Lftj, Engine::minesweeper()].into_iter().chain(pairwise).chain(extra);
        engines.map(Run::engine).collect()
    };
    // An engine grid over every dataset at selectivity 1; the loops below override
    // the datasets and the axis where a table or figure differs.
    let grid = |kind, number, csv: String, q: CatalogQuery, runs| Spec {
        kind,
        number,
        title: format!(": {} duration in ms", q.name()),
        csv: csv.replace('-', "_"),
        datasets: Dataset::all().into(),
        queries: vec![q],
        runs,
        axis: Axis::Datasets(1),
        layout: Layout::Grid,
    };
    for q in cyclic {
        let csv = format!("table6_{}", q.name());
        specs.push(grid("Table", 6, csv, q, engines(Some(GraphEngine))));
    }
    for q in [ThreePath, FourPath, OneTree, TwoTree, TwoComb, TwoLollipop, ThreeLollipop] {
        let csv = format!("table7_{}", q.name());
        let table = grid("Table", 7, csv, q, engines(Engine::hybrid_for(q)));
        specs.push(Spec { axis: Axis::Selectivities, ..table });
    }
    // As the samples grow, so does the redundant sub-path work Minesweeper caches.
    for (n, d) in [(3, Dataset::SocLiveJournal1), (4, Dataset::SocPokec), (5, Dataset::ComOrkut)] {
        let runs = vec![Run::engine(Lftj), Run::engine(Engine::minesweeper())];
        let figure = grid("Figure", n, format!("fig3_5_{}", d.name()), ThreePath, runs);
        specs.push(Spec { datasets: vec![d], axis: Axis::Samples, ..figure });
    }
    for (n, q) in [(6, ThreeClique), (7, FourClique)] {
        let csv = format!("fig6_7_{}", q.name());
        let figure = grid("Figure", n, csv, q, engines(Some(GraphEngine)));
        let datasets = vec![Dataset::SocLiveJournal1];
        specs.push(Spec { datasets, axis: Axis::EdgePrefixes, ..figure });
    }
    specs
}

type Graphs = [(Dataset, Arc<Graph>)];

impl Axis {
    /// The databases over `graphs`: label, graph and sample selectivity.
    fn columns(&self, graphs: &Graphs) -> Vec<(String, Arc<Graph>, u32)> {
        let powers_of_four = |from: usize| std::iter::successors(Some(from), |n| Some(n * 4));
        let mut out = Vec::new();
        for (dataset, graph) in graphs {
            let name = dataset.name();
            let g = || Arc::clone(graph);
            match self {
                Axis::Datasets(s) => out.push((name.to_string(), g(), *s)),
                Axis::Selectivities => {
                    let paper =
                        if SMALL.contains(dataset) { &[80, 8][..] } else { &[1000, 100, 10] };
                    out.extend(paper.iter().map(|&s| (format!("{name}/{s}"), g(), s)));
                }
                Axis::Samples => {
                    let nodes = graph.num_nodes();
                    let sizes = powers_of_four(64).take_while(|&n| n <= (nodes / 20).max(64));
                    out.extend(sizes.map(|n| (format!("N={n}"), g(), (nodes / n).max(1) as u32)));
                }
                Axis::EdgePrefixes => {
                    let edges = graph.num_edges();
                    let ns = powers_of_four(4096).take_while(|&n| n < edges);
                    out.extend(ns.map(|n| (n.to_string(), Arc::new(graph.edge_prefix(n)), 1)));
                    out.push((edges.to_string(), g(), 1));
                }
            }
        }
        out
    }
}

/// Cells by query, database and run.
type Cube = Vec<Vec<Vec<Option<Cell>>>>;

impl Spec {
    /// The selector key, e.g. `table 5`.
    fn key(&self) -> String {
        format!("{} {}", self.kind.to_lowercase(), self.number)
    }

    /// Runs every cell over the selected `graphs`: the time table and its work twin.
    fn run(&self, graphs: &Graphs) -> Result<[Table; 2], String> {
        let columns = self.axis.columns(graphs);
        let mut cube = Cube::new();
        for &query in &self.queries {
            let q = query.query();
            let mut row = Vec::new();
            for (label, graph, selectivity) in &columns {
                let db = workload_database(Arc::clone(graph), query, *selectivity, SEED);
                let cells: Vec<_> = self.runs.iter().map(|run| run_cell(&db, &q, run)).collect();
                let named = self.runs.iter().map(|r| r.label.as_str()).zip(cells.iter().copied());
                check_counts(&self.csv, &format!("{} on {label}", query.name()), named)?;
                row.push(cells);
            }
            cube.push(row);
        }
        let edges: Vec<String> = columns.iter().map(|c| c.1.num_edges().to_string()).collect();
        let databases: Vec<String> = columns.into_iter().map(|c| c.0).collect();
        Ok([false, true].map(|work| self.table(&cube, &databases, &edges, work)))
    }

    /// Lays the cells out in the paper's shape, as wall times or (`work`) exact work.
    fn table(&self, cube: &Cube, databases: &[String], edges: &[String], work: bool) -> Table {
        let v = |q: usize, d: usize, r: usize| value(&cube[q][d][r], work);
        let show = |q, d, r| render(v(q, d, r), work);
        let runs: Vec<String> = self.runs.iter().map(|r| r.label.clone()).collect();
        let queries = self.queries.iter().map(|q| q.name().to_string()).collect();
        let n = self.runs.len();
        type Fill<'a> = Box<dyn Fn(usize, usize) -> String + 'a>;
        let (rows, columns, fill): (Vec<String>, Vec<String>, Fill) = match self.layout {
            Layout::Grid => (runs, databases.into(), Box::new(|r, d| show(0, d, r))),
            Layout::PerDataset => {
                let fill = move |d, r| if r < n { show(0, d, r) } else { edges[d].clone() };
                (databases.into(), [runs, vec!["edges".into()]].concat(), Box::new(fill))
            }
            Layout::Speedup => {
                let fill = |q, d| ratio([(v(q, d, 0), v(q, d, 1))]);
                (queries, databases.into(), Box::new(fill))
            }
            Layout::Normalised => {
                let fill = |q, r| ratio((0..databases.len()).map(|d| (v(q, d, r), v(q, d, 0))));
                (queries, runs, Box::new(fill))
            }
        };
        let mut lines = vec![[vec!["row".to_string()], columns.clone()].concat()];
        for (i, label) in rows.into_iter().enumerate() {
            lines.push([vec![label], (0..columns.len()).map(|j| fill(i, j)).collect()].concat());
        }
        let (csv, title) = if work { ("_work", " — exact work") } else { ("", "") };
        let title = format!("{} {}{}{title}", self.kind, self.number, self.title);
        Table { csv: self.csv.clone() + csv, title, lines }
    }
}

/// Runs every selected table, prints it and writes its CSVs; returns the paths
/// written. A table none of whose datasets is selected is skipped with one line.
pub fn run(opts: &Options) -> Result<Vec<PathBuf>, String> {
    let chosen: Vec<_> = specs().into_iter().filter(|s| opts.selected.contains(&s.key())).collect();
    let selected = |d: &Dataset| opts.datasets.iter().any(|n| n.eq_ignore_ascii_case(d.name()));
    let mut graphs: Vec<(Dataset, Arc<Graph>)> = Vec::new();
    for d in chosen.iter().flat_map(|s| s.datasets.clone()) {
        if (opts.datasets.is_empty() || selected(&d)) && !graphs.iter().any(|(g, _)| *g == d) {
            let scale = (d.spec().default_scale * opts.scale).clamp(1e-4, 1.0);
            graphs.push((d, Arc::new(d.generate_scaled(scale))));
        }
    }
    print_dataset_summary(&graphs);
    let mut written = Vec::new();
    for spec in &chosen {
        let own: Vec<_> =
            graphs.iter().filter(|(d, _)| spec.datasets.contains(d)).cloned().collect();
        if own.is_empty() {
            let names: Vec<&str> = spec.datasets.iter().map(Dataset::name).collect();
            println!("\n{}: skipped, none of {} is selected", spec.csv, names.join(", "));
            continue;
        }
        for table in spec.run(&own)? {
            table.print();
            written.push(table.write_csv().map_err(|e| format!("{}: {e}", table.csv))?);
        }
    }
    Ok(written)
}

/// Renders a time (ms, one decimal) or a work counter (integer); `-` when absent.
fn render(value: Option<f64>, work: bool) -> String {
    match value {
        Some(v) if work => format!("{v:.0}"),
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    }
}

/// The mean of `a / b` over `pairs`, as Tables 1–3 and 5 print it; `-` if a value is
/// missing.
fn ratio(pairs: impl IntoIterator<Item = (Option<f64>, Option<f64>)>) -> String {
    let pairs: Vec<_> = pairs.into_iter().collect();
    let sum: Option<f64> = pairs.iter().map(|&(a, b)| Some(a? / b?.max(1e-3))).sum();
    sum.map_or("-".to_string(), |s| format!("{:.2}", s / pairs.len() as f64))
}

/// Prints the statistics of the generated stand-ins, to compare with the paper's
/// Section 5.1 table.
fn print_dataset_summary(graphs: &Graphs) {
    println!("dataset                 nodes   edges(dir)      triangles      paper-tri");
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

/// A printable table: a header line, then one line per row, each led by its label.
#[derive(Debug)]
struct Table {
    csv: String,
    title: String,
    lines: Vec<Vec<String>>,
}

impl Table {
    /// Prints the table to stdout in a fixed-width layout.
    fn print(&self) {
        println!("\n== {}", self.title);
        let width = self.lines.iter().flatten().map(String::len).max().unwrap_or(0) + 2;
        for line in &self.lines {
            let cells: String = line[1..].iter().map(|c| format!("{c:>width$}")).collect();
            println!("{:<width$}{cells}", line[0]);
        }
    }

    /// Writes the table as CSV under `target/bench-results/<csv>.csv`.
    fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = Path::new("target").join("bench-results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.csv));
        std::fs::write(&path, self.lines.iter().map(|l| l.join(",") + "\n").collect::<String>())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn ratios_average_and_dash_like_the_paper() {
        assert_eq!(ratio([(Some(10.0), Some(4.0))]), "2.50");
        assert_eq!(ratio([(Some(3.0), Some(2.0)), (Some(1.0), Some(2.0))]), "1.00");
        assert_eq!(ratio([(Some(3.0), Some(2.0)), (None, Some(2.0))]), "-");
        assert_eq!(
            (render(Some(12.44), false), render(Some(7.0), true)),
            ("12.4".into(), "7".into())
        );
    }

    #[test]
    fn options_select_tables_and_reject_bad_input() {
        let opts =
            parse(&["--table", "5", "--figure", "6", "--scale", "0.5", "--dataset", "wiki-Vote"]);
        let opts = opts.unwrap();
        assert_eq!((opts.selected, opts.scale), (vec!["table 5".into(), "figure 6".into()], 0.5));
        let mut keys = parse(&["--all"]).unwrap().selected;
        keys.dedup();
        assert_eq!(keys.len(), 12, "tables 1–7 and figures 3–7: {keys:?}");
        let bad: [&[&str]; 6] = [
            &["--table", "8"],
            &["--figure", "2"],
            &["--all", "--dataset", "nope"],
            &["--all", "--scale"],
            &["--all", "--budget", "9"],
            &[],
        ];
        for args in bad {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn cells_count_report_work_and_dash() {
        let graph = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let db = workload_database(graph, CatalogQuery::ThreeClique, 1, 1);
        let q = CatalogQuery::ThreeClique.query();
        let cell = |engine| run_cell(&db, &q, &Run::engine(engine));
        let lftj = cell(Engine::Lftj).unwrap();
        let graphlab = cell(Engine::GraphEngine).unwrap();
        assert_eq!((lftj.count, graphlab.count, graphlab.work), (1, 1, None));
        for engine in [Engine::Lftj, Engine::minesweeper(), Engine::HashJoin(LIMITS)] {
            assert!(cell(engine).unwrap().work.unwrap() > 0.0);
        }
        // A 1-row budget forces the baseline into the paper's "-" case; so does an
        // unsupported engine/query combination.
        assert_eq!(cell(Engine::HashJoin(ExecLimits { max_intermediate_rows: 1 })), None);
        let path = CatalogQuery::ThreePath.query();
        assert_eq!(run_cell(&db, &path, &Run::engine(Engine::GraphEngine)), None);
    }

    #[test]
    fn a_disagreeing_column_names_its_table_row_and_column() {
        let done = |count| Some(Cell { millis: 1.0, count, work: None });
        let agree = [("lb/lftj", done(4)), ("psql", None), ("lb/ms", done(4))];
        assert_eq!(check_counts("t", "c", agree), Ok(()));
        let disagree = [("psql", None), ("lb/lftj", done(4)), ("lb/ms", done(5))];
        let err = check_counts("table6_3_clique", "ca-GrQc", disagree).unwrap_err();
        for part in ["table6_3_clique", "ca-GrQc", "lb/ms counts 5", "lb/lftj 4"] {
            assert!(err.contains(part), "{err}");
        }
    }

    #[test]
    fn a_table_without_selected_datasets_writes_no_csv() {
        // Neither Table 5 nor Figure 6 uses ca-GrQc: no dataset to average over, and
        // no graph to take edge prefixes of.
        let opts =
            parse(&["--table", "5", "--figure", "6", "--scale", "0.02", "--dataset", "ca-GrQc"]);
        assert_eq!(run(&opts.unwrap()), Ok(Vec::new()));
    }

    #[test]
    fn the_scale_shrinks_every_generated_dataset() {
        let opts = parse(&["--table", "4", "--scale", "0.02", "--dataset", "ca-GrQc"]).unwrap();
        let written = run(&opts).unwrap();
        let names: Vec<_> = written.iter().map(|p| p.file_name().unwrap().to_owned()).collect();
        assert_eq!(names, ["table4_gao.csv", "table4_gao_work.csv"]);
        // Table 4's last column is the edge count of the graph its row ran on.
        let csv = std::fs::read_to_string(&written[0]).unwrap();
        let edges = csv.lines().nth(1).unwrap().rsplit(',').next().unwrap();
        let scaled = Dataset::CaGrQc.generate_scaled(0.02);
        assert!(scaled.num_nodes() < 1000);
        assert_eq!(edges, scaled.num_edges().to_string());
    }

    #[test]
    fn every_layout_keeps_the_paper_labels_and_emits_work() {
        let graphs = [(Dataset::CaGrQc, Arc::new(Dataset::CaGrQc.generate_scaled(0.01)))];
        let specs = specs();
        let run = |csv: &str| specs.iter().find(|s| s.csv == csv).unwrap().run(&graphs).unwrap();
        let labels = |t: &Table| t.lines.iter().map(|l| l[0].clone()).collect::<Vec<_>>();

        let [time, work] = run("table4_gao");
        let header =
            ["row", "ABCDE", "BACDE", "BCADE", "CBADE", "CBDAE", "ABDCE", "BADCE", "edges"];
        assert_eq!(
            (time.lines[0].clone(), labels(&time)),
            (header.map(String::from).into(), vec!["row".into(), "ca-GrQc".into()])
        );
        assert_eq!((work.csv.as_str(), &work.lines[1][8]), ("table4_gao_work", &time.lines[1][8]));
        assert!(work.lines[1][1..].iter().all(|c| c.parse::<u64>().is_ok()), "{work:?}");

        assert_eq!(
            time.title,
            "Table 4: Minesweeper on 4-path in ms by GAO (the last two are not NEOs)"
        );

        let [time, work] = run("table6_4_cycle");
        assert_eq!(labels(&time), ["row", "lb/lftj", "lb/ms", "psql", "monetdb", "graphlab"]);
        assert_eq!((time.lines[0][1].as_str(), work.lines[5][1].as_str()), ("ca-GrQc", "-"));
        let csv = std::fs::read_to_string(work.write_csv().unwrap()).unwrap();
        let written: Vec<&str> = csv.lines().collect();
        assert_eq!(written.len(), work.lines.len());
        assert_eq!(written[..2], [work.lines[0].join(","), work.lines[1].join(",")]);

        let [time, _] = run("table1_idea4");
        assert_eq!(labels(&time), ["row", "2-comb", "3-path", "4-path"]);
        let [time, work] = run("table5_granularity");
        assert_eq!(time.lines[0][1..], ["1", "2", "3", "4", "8", "12", "14"]);
        assert!(time.lines[1..].iter().chain(&work.lines[1..]).all(|l| l[1] == "1.00"));

        let [time, _] = run("fig6_7_3_clique");
        assert_eq!(time.lines[0][1..], [graphs[0].1.num_edges().to_string()]);
        let [time, _] = run("fig3_5_soc_LiveJournal1");
        assert_eq!((time.lines[0][1].as_str(), labels(&time).len()), ("N=64", 3));
    }
}
