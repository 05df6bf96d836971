//! Everything that handles more than one run: the suite that runs every
//! workload, `compare` for two suites, the schema check, and `freeze`.

use crate::config::{BENCHMARK_JSON, DEFAULT_SEED, HELDOUT_SEED, WORKLOADS};
use crate::json::Json;
use crate::metrics::{workload_only_bound, MetricDef, END_TO_END, PER_LAYER, WORKLOAD_ONLY};
use crate::stats::quartiles;
use crate::{usage, Args};
use std::process::Command;

fn read_json(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
}

/// Runs this executable once and returns its exit status and standard output.
fn spawn_run(workload: &str, seed: u64, trace: bool, extra: &[String]) -> (bool, String) {
    let exe = std::env::current_exe().expect("path of this executable");
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a benchmark run");
    (output.status.success(), String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Flags a suite hands through to each run.
fn passthrough(args: &Args) -> Vec<String> {
    let mut extra = Vec::new();
    if let Some(seconds) = args.get("seconds") {
        extra.extend(["--seconds".to_string(), seconds.to_string()]);
    }
    if args.has("smoke") {
        extra.push("--smoke".to_string());
    }
    extra
}

/// `suite`: every workload, one process each (so peak memory is per
/// workload), `--runs` seeds from `--seed-base`; prints every metric by name
/// with its unit and writes the runs to `--out`.
pub fn suite(args: &Args) -> ! {
    let runs: u64 = args.number("runs", 1);
    let seed_base: u64 = args.number("seed-base", DEFAULT_SEED);
    let traces: &[bool] = match args.get("trace").unwrap_or("0") {
        "0" => &[false],
        "1" => &[true],
        "both" => &[false, true],
        other => usage(&format!("--trace {other:?} is not 0, 1 or both")),
    };
    let extra = passthrough(args);
    let mut records = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        for &trace in traces {
            // One traced run per workload is enough for attribution.
            for seed in seed_base..seed_base + if trace { 1 } else { runs } {
                let (ok, stdout) = spawn_run(workload, seed, trace, &extra);
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                let result = result.filter(|r| r.get("correct").is_some());
                let correct =
                    result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
                if !(ok && correct) {
                    all_ok = false;
                    eprintln!("{workload} seed {seed} trace {}: FAILED\n{stdout}", trace as u8);
                }
                // A run with failed ops still has a result and is kept, so
                // that `compare` sees its `failed`; one that died has none.
                let Some(result) = result else { continue };
                // The workload-only metrics of an untraced run.
                let also = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("also "))
                    .and_then(|l| Json::parse(l).ok())
                    .unwrap_or(Json::Obj(Vec::new()));
                records.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(trace as u8 as f64)),
                    ("also", also),
                    ("result", result),
                ]));
            }
            print_table(workload, trace, &records);
        }
    }
    let file = Json::obj([("runs", Json::Arr(records))]);
    if let Some(path) = args.get("out") {
        std::fs::write(path, file.emit()).unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
        println!("suite written to {path}");
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}

/// The runs of one workload in a suite file, traced or untraced.
fn runs_of<'a>(runs: &'a [Json], workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Json> {
    runs.iter().filter(move |r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_f64) == Some(trace as u8 as f64)
    })
}

/// Values of `metric` over the runs of one workload in a suite file.
fn values(runs: &[Json], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs_of(runs, workload, trace)
        .filter_map(|r| r.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Values of a workload-only metric: absent from runs that do not have it.
fn also_values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs_of(runs, workload, false)
        .filter_map(|r| r.get("also")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed ops over ops attempted, summed over the untraced runs of a workload.
fn failed_share(runs: &[Json], workload: &str) -> Option<f64> {
    let sum = |key: &str| -> f64 {
        runs_of(runs, workload, false).filter_map(|r| r.get("result")?.get(key)?.as_f64()).sum()
    };
    (sum("attempted") > 0.0).then(|| sum("failed") / sum("attempted"))
}

/// `(median, interquartile range over median)`; a single value has spread 0.
fn median_and_spread(v: &[f64]) -> Option<(f64, f64)> {
    match quartiles(v) {
        Some((q1, median, q3)) => Some((median, (q3 - q1) / median)),
        None => v.first().map(|&only| (only, 0.0)),
    }
}

fn print_table(workload: &str, trace: bool, runs: &[Json]) {
    println!("\n{workload} (trace {})", trace as u8);
    let line = |def: &MetricDef, v: &[f64]| match quartiles(v) {
        Some((q1, median, q3)) => println!(
            "  {:<46} {:>14.4} {:<6} q1 {:.4} q3 {:.4} spread {:.3} over {} runs",
            def.name,
            median,
            def.unit,
            q1,
            q3,
            (q3 - q1) / median,
            v.len()
        ),
        None => match v.first() {
            Some(value) => println!("  {:<46} {:>14.4} {}", def.name, value, def.unit),
            None => println!("  {:<46} {:>14} {}", def.name, "-", def.unit),
        },
    };
    for def in if trace { PER_LAYER } else { END_TO_END } {
        line(def, &values(runs, workload, trace, def.name));
    }
    for def in WORKLOAD_ONLY.iter().filter(|_| !trace) {
        let v = also_values(runs, workload, def.name);
        if !v.is_empty() {
            line(def, &v);
        }
    }
}

/// The metric list of `BENCHMARK.json`: `(name, unit, better, bound)`.
fn benchmark_metrics(benchmark: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| usage(&format!("BENCHMARK.json has no {key}")))
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (text("name"), text("unit"), text("better"), m.get("bound").and_then(Json::as_f64))
        })
        .collect()
}

/// The verdict on one (metric, workload) pair; each side is `(median, spread)`
/// with the spread the interquartile range over the median.
fn verdict(better: &str, bound: f64, a: (f64, f64), b: (f64, f64)) -> &'static str {
    // Positive when b is worse, as a share of a.
    let worse = if better == "higher" { (a.0 - b.0) / a.0 } else { (b.0 - a.0) / a.0 };
    if a.1.max(b.1) > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if -worse > bound {
        "improved"
    } else {
        "within"
    }
}

/// `compare a.json b.json`: one row per (end-to-end metric, workload) with
/// the bounds of `BENCHMARK.json`, then one per workload-only metric where
/// it exists, then `failed_share`. `b` is judged against `a`.
///
/// * `unresolved`: the run-to-run spread of either side (interquartile
///   range over median) is wider than the bound, or one side withheld the
///   metric for want of samples, so nothing can be said;
/// * `regressed`: `b`'s median is worse than `a`'s by more than the bound;
/// * `improved`: better by more than the bound (two sets of one commit,
///   minutes apart, differ by up to a tenth here, so nothing smaller counts;
///   a gain still has to be shown pair by pair, see the README);
/// * `within` otherwise.
pub fn compare(args: &Args) -> ! {
    let [a_path, b_path] = args.operands.as_slice() else { usage("compare needs two suite files") };
    let (a, b) = (read_json(a_path), read_json(b_path));
    let runs =
        |j: &Json| j.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default();
    let (a_runs, b_runs) = (runs(&a), runs(&b));
    let benchmark = read_json(BENCHMARK_JSON);
    let mut regressed = 0;
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "a spread", "b spread", "bound"
    );
    let mut row = |workload: &str,
                   name: &str,
                   unit: &str,
                   better: &str,
                   bound: f64,
                   a: &[f64],
                   b: &[f64]| {
        let verdict = match (median_and_spread(a), median_and_spread(b)) {
            (Some(a), Some(b)) => {
                let verdict = verdict(better, bound, a, b);
                println!(
                    "{workload:<16} {name:<26} {:>12.4} {:>12.4} {:>8.4} {:>8.3} {:>8.3} {bound:>6.2}  {verdict} ({unit}, {better} is better)",
                    a.0, b.0, b.0 / a.0, a.1, b.1
                );
                verdict
            }
            _ => {
                println!("{workload:<16} {name:<26} missing on one side");
                "regressed"
            }
        };
        regressed += (verdict == "regressed") as u32;
    };
    for workload in WORKLOADS {
        for (name, unit, better, bound) in benchmark_metrics(&benchmark, "end_to_end") {
            let bound = bound.unwrap_or_else(|| usage(&format!("{name} has no bound")));
            let side = |runs: &[Json]| values(runs, workload, false, &name);
            row(workload, &name, &unit, &better, bound, &side(&a_runs), &side(&b_runs));
        }
        for def in WORKLOAD_ONLY {
            let (va, vb) = (
                also_values(&a_runs, workload, def.name),
                also_values(&b_runs, workload, def.name),
            );
            match (va.is_empty(), vb.is_empty()) {
                // The metric does not exist on this workload.
                (true, true) => {}
                (false, false) => row(
                    workload,
                    def.name,
                    def.unit,
                    def.better,
                    workload_only_bound(def.name),
                    &va,
                    &vb,
                ),
                _ => println!("{workload:<16} {:<26} unresolved: withheld on one side", def.name),
            }
        }
    }
    // Expected 0 on both sides; any increase is a regression.
    for workload in WORKLOADS {
        let (fa, fb) = (failed_share(&a_runs, workload), failed_share(&b_runs, workload));
        let verdict = match (fa, fb) {
            (Some(fa), Some(fb)) if fb <= fa => "within",
            _ => "regressed",
        };
        regressed += (verdict == "regressed") as u32;
        println!(
            "{workload:<16} {:<26} {:>12} {:>12}  {verdict} (ratio, any increase regresses)",
            "failed_share",
            fa.map_or("-".to_string(), |v| format!("{v:.6}")),
            fb.map_or("-".to_string(), |v| format!("{v:.6}"))
        );
    }
    // Counts that must repeat bit for bit with one client.
    for workload in WORKLOADS {
        for def in PER_LAYER.iter().filter(|d| d.unit == "count" && !d.name.starts_with("service."))
        {
            let (va, vb) = (
                values(&a_runs, workload, true, def.name),
                values(&b_runs, workload, true, def.name),
            );
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                if x != y {
                    println!(
                        "{workload:<16} {} differs: {x} against {y} (an exact count)",
                        def.name
                    );
                }
            }
        }
    }
    println!("{regressed} regressed");
    std::process::exit(if regressed == 0 { 0 } else { 1 });
}

/// `check-schema suite.json`: the suite holds exactly the workloads, metric
/// names and units that `BENCHMARK.json` lists (none missing, none extra),
/// and `BENCHMARK.json` lists exactly what this program prints.
pub fn check_schema(args: &Args) -> ! {
    let [path] = args.operands.as_slice() else { usage("check-schema needs one suite file") };
    let suite = read_json(path);
    let runs =
        suite.get("runs").and_then(Json::as_arr).unwrap_or_else(|| usage("no runs in the suite"));
    let benchmark = read_json(BENCHMARK_JSON);
    let mut problems = Vec::new();

    let listed: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|w| w.iter().filter_map(|w| w.get("name")?.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    if listed != WORKLOADS {
        problems.push(format!("BENCHMARK.json workloads {listed:?}, program {WORKLOADS:?}"));
    }
    for (key, defs, trace) in [("end_to_end", END_TO_END, false), ("per_layer", PER_LAYER, true)] {
        let listed = benchmark_metrics(&benchmark, key);
        let same = listed.len() == defs.len()
            && listed.iter().zip(defs).all(|((name, unit, better, _), def): (_, &MetricDef)| {
                name == def.name && unit == def.unit && better == def.better
            });
        if !same {
            problems.push(format!("BENCHMARK.json {key} differs from the program's catalogue"));
        }
        for workload in WORKLOADS {
            let Some(run) = runs.iter().find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(workload)
                    && r.get("trace").and_then(Json::as_f64) == Some(trace as u8 as f64)
            }) else {
                problems.push(format!("no trace-{} run of {workload}", trace as u8));
                continue;
            };
            let printed = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_obj)
                .unwrap_or_default();
            let got: Vec<(&str, &str)> = printed
                .iter()
                .map(|(name, cell)| {
                    (name.as_str(), cell.get("unit").and_then(Json::as_str).unwrap_or(""))
                })
                .collect();
            let want: Vec<(&str, &str)> =
                listed.iter().map(|(n, u, _, _)| (n.as_str(), u.as_str())).collect();
            if got != want {
                let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
                let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
                problems.push(format!(
                    "{workload} trace {}: missing {missing:?}, extra {extra:?}",
                    trace as u8
                ));
            }
        }
    }
    for run in runs {
        let name = run.get("workload").and_then(Json::as_str).unwrap_or("");
        if !WORKLOADS.contains(&name) {
            problems.push(format!("extra workload {name:?}"));
        }
        for (metric, cell) in run.get("also").and_then(Json::as_obj).unwrap_or_default() {
            let unit = cell.get("unit").and_then(Json::as_str);
            if !WORKLOAD_ONLY.iter().any(|d| d.name == metric && Some(d.unit) == unit) {
                problems.push(format!("{name}: unknown workload-only metric {metric:?}"));
            }
        }
    }
    if problems.is_empty() {
        println!("schema: {} workloads, {} end-to-end and {} per-layer metrics, as BENCHMARK.json lists them", WORKLOADS.len(), END_TO_END.len(), PER_LAYER.len());
        std::process::exit(0);
    }
    problems.iter().for_each(|p| eprintln!("schema: {p}"));
    std::process::exit(1);
}

/// `freeze`: prints `frozen.json` for the default and the held-out seed.
pub fn freeze(args: &Args) -> ! {
    let extra = {
        let mut extra = passthrough(args);
        extra.push("--inputs-only".to_string());
        extra
    };
    let seeds = [DEFAULT_SEED, HELDOUT_SEED].map(|seed| {
        let per_workload = WORKLOADS.map(|workload| {
            let (ok, stdout) = spawn_run(workload, seed, false, &extra);
            let line = stdout.lines().find_map(|l| l.strip_prefix("inputs "));
            let described = line.filter(|_| ok).and_then(|l| Json::parse(l).ok());
            (
                workload.to_string(),
                described.unwrap_or_else(|| usage(&format!("{workload} printed no inputs"))),
            )
        });
        (seed.to_string(), Json::Obj(per_workload.to_vec()))
    });
    println!("{}", Json::obj([("seeds", Json::Obj(seeds.to_vec()))]).emit());
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict("lower", 0.1, (100.0, 0.02), (105.0, 0.03)), "within");
        assert_eq!(verdict("lower", 0.1, (100.0, 0.02), (111.0, 0.03)), "regressed");
        assert_eq!(verdict("lower", 0.1, (100.0, 0.02), (89.0, 0.03)), "improved");
        assert_eq!(
            verdict("lower", 0.1, (100.0, 0.02), (96.0, 0.03)),
            "within",
            "inside the bound"
        );
        assert_eq!(
            verdict("lower", 0.1, (100.0, 0.12), (150.0, 0.03)),
            "unresolved",
            "spread over bound"
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict("higher", 0.1, (100.0, 0.02), (111.0, 0.03)), "improved");
        assert_eq!(verdict("higher", 0.1, (100.0, 0.02), (89.0, 0.03)), "regressed");
    }

    #[test]
    fn values_pick_one_workload_and_trace_mode() {
        let run = |workload: &str, trace: f64, value: f64| {
            let cell = || Json::obj([("value", Json::Num(value)), ("unit", Json::str("ms"))]);
            let also: Vec<(&str, Json)> = match workload {
                "serve-mixed" => vec![("edit_p50_ms", cell())],
                _ => Vec::new(),
            };
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Num(trace)),
                ("also", Json::obj(also)),
                (
                    "result",
                    Json::obj([
                        ("attempted", Json::Num(50.0)),
                        ("failed", Json::Num(value - 1.0)),
                        ("metrics", Json::obj([("read_typical_ms", cell())])),
                    ]),
                ),
            ])
        };
        let runs = [
            run("serve-read", 0.0, 1.0),
            run("serve-read", 0.0, 3.0),
            run("serve-read", 1.0, 9.0),
            run("serve-mixed", 0.0, 7.0),
        ];
        assert_eq!(values(&runs, "serve-read", false, "read_typical_ms"), vec![1.0, 3.0]);
        assert_eq!(values(&runs, "serve-read", true, "read_typical_ms"), vec![9.0]);
        assert!(values(&runs, "serve-read", false, "setup_s").is_empty());
        assert_eq!(also_values(&runs, "serve-mixed", "edit_p50_ms"), vec![7.0]);
        assert!(also_values(&runs, "serve-read", "edit_p50_ms").is_empty(), "absent, not zero");
        // Untraced runs only: (0 + 2) failed of 100 attempted.
        assert_eq!(failed_share(&runs, "serve-read"), Some(0.02));
        assert_eq!(failed_share(&runs, "cyclic-lftj"), None);
    }
}
