//! `gj-benchmark`: the repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! gj-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! gj-benchmark suite [--runs n] [--trace 0|1|both] [--out file] ...       every workload
//! gj-benchmark compare <a.json> <b.json>                                  two suites
//! gj-benchmark check-schema <suite.json>                                  names and units
//! gj-benchmark freeze                                                     print frozen.json
//! ```

mod config;
mod data;
mod fingerprint;
mod frozen;
mod harness;
mod json;
mod metrics;
mod micro;
mod procfs;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use config::{Ctx, Sizes, DATA_SEED, DEFAULT_SEED, OUT_DIR, RUN_SECONDS};
use json::Json;
use std::path::Path;

/// `--flag value` pairs after an optional subcommand, and bare operands.
pub struct Args {
    flags: Vec<(String, String)>,
    pub operands: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Args {
        let mut out = Args { flags: Vec::new(), operands: Vec::new() };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                // Switches take no value.
                Some(name) if matches!(name, "smoke" | "inputs-only") => {
                    out.flags.push((name.to_string(), "1".to_string()))
                }
                Some(name) => {
                    let value =
                        args.next().unwrap_or_else(|| usage(&format!("--{name} needs a value")));
                    out.flags.push((name.to_string(), value));
                }
                None => out.operands.push(arg),
            }
        }
        out
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(text) => text
                .parse()
                .unwrap_or_else(|_| usage(&format!("--{name} {text:?} is not a number"))),
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

pub fn usage(problem: &str) -> ! {
    eprintln!("gj-benchmark: {problem}");
    eprintln!(
        "usage: gj-benchmark --workload <{}> [--seed n] [--seconds s] [--trace 0|1] [--smoke]\n       \
         gj-benchmark suite|compare|check-schema|freeze ... (see benchmark/README.md)",
        config::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run_one(args: &Args) -> ! {
    let smoke = args.has("smoke");
    let ctx = Ctx {
        workload: args
            .get("workload")
            .unwrap_or_else(|| usage("--workload is required"))
            .to_string(),
        seed: args.number("seed", DEFAULT_SEED),
        seconds: args.number("seconds", if smoke { 0.4 } else { RUN_SECONDS }),
        trace: match args.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => usage(&format!("--trace {other:?} is not 0 or 1")),
        },
        smoke,
        inputs_only: args.has("inputs-only"),
        sizes: if smoke { Sizes::smoke() } else { Sizes::full() },
    };
    if !config::WORKLOADS.contains(&ctx.workload.as_str()) {
        usage(&format!("unknown workload {:?}", ctx.workload));
    }
    if !(ctx.seconds > 0.0 && ctx.seconds <= 60.0) {
        usage("--seconds must be in (0, 60]");
    }
    std::fs::create_dir_all(OUT_DIR).unwrap_or_else(|e| panic!("create {OUT_DIR}: {e}"));
    println!(
        "{}: seed {}, data seed {}, {} s, trace {}, {} threads available{}",
        ctx.workload,
        ctx.seed,
        DATA_SEED,
        ctx.seconds,
        ctx.trace as u8,
        std::thread::available_parallelism().map_or(0, usize::from),
        if smoke { ", smoke sizes" } else { "" }
    );

    let mut outcome = workloads::run(&ctx);
    println!("inputs {}", frozen::describe(&outcome).emit());
    if ctx.inputs_only {
        std::process::exit(0);
    }
    match frozen::check(&ctx, &outcome) {
        Ok(note) => println!("frozen inputs: {note}"),
        Err(problem) => {
            eprintln!("gj-benchmark: {problem}");
            std::process::exit(3);
        }
    }

    let metrics = if ctx.trace {
        micro::run(&ctx, &mut outcome.measured.metrics);
        let spans = outcome.measured.spans.as_ref().expect("a traced run keeps its spans");
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", ctx.workload));
        let dump = Json::obj([
            ("workload", Json::str(ctx.workload.as_str())),
            ("seed", Json::Num(ctx.seed as f64)),
            ("spans", spans.to_json()),
        ]);
        std::fs::write(&path, dump.emit())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("trace: {} spans in {}", spans.len(), path.display());
        // A layer the workload bypasses did no work: its span metrics read 0.
        outcome.measured.metrics.to_json(Some(0.0))
    } else {
        // Not in the result line: the driver wants exactly the end-to-end
        // metrics of BENCHMARK.json there. `suite` picks this line up.
        println!("also {}", outcome.measured.also.present().emit());
        outcome.measured.metrics.to_json(None)
    };

    let rec = &outcome.measured.rec;
    for failure in &rec.failures {
        println!("failed: {failure}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Num((rec.ops + rec.checks) as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.emit());
    std::process::exit(if rec.failed == 0 { 0 } else { 1 });
}

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    let command = match raw.peek() {
        Some(first) if !first.starts_with("--") => raw.next(),
        _ => None,
    };
    let args = Args::parse(raw);
    match command.as_deref() {
        None => run_one(&args),
        Some("suite") => report::suite(&args),
        Some("compare") => report::compare(&args),
        Some("check-schema") => report::check_schema(&args),
        Some("freeze") => report::freeze(&args),
        Some(other) => usage(&format!("unknown command {other:?}")),
    }
}
