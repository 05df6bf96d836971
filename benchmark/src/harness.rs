//! What every workload shares: the recorder of a timed window, the window
//! loop itself, and the arithmetic that turns both into metrics.

use crate::config::{Ctx, SETUP_REPS, SETUP_SECONDS};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOAD_ONLY};
use crate::procfs;
use crate::stats::{self, TooFewSamples, MIN_BEYOND};
use crate::trace::SpanLog;
use std::time::{Duration, Instant};

/// Latencies and verdicts of the ops of one window.
#[derive(Debug, Default)]
pub struct Recorder {
    pub reads_ms: Vec<f64>,
    /// The read class (index into the workload's read mix) of each entry of
    /// `reads_ms`.
    pub read_class: Vec<usize>,
    pub edits_ms: Vec<f64>,
    /// Ops issued: reads plus edits, whatever their outcome.
    pub ops: u64,
    /// Output checks made that are not ops (a round's final-state check).
    pub checks: u64,
    /// Typed errors, `Saturated` rejections and wrong answers.
    pub failed: u64,
    pub saturated: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    pub fn read(
        &mut self,
        class: usize,
        latency: Duration,
        ok: bool,
        what: impl FnOnce() -> String,
    ) {
        self.ops += 1;
        self.reads_ms.push(latency.as_secs_f64() * 1e3);
        self.read_class.push(class);
        if !ok {
            self.fail(what);
        }
    }

    pub fn edit(&mut self, latency: Duration, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        self.edits_ms.push(latency.as_secs_f64() * 1e3);
        if !ok {
            self.fail(what);
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Folds a session's recorder into the window's.
    pub fn absorb(&mut self, other: Recorder) {
        self.reads_ms.extend(other.reads_ms);
        self.read_class.extend(other.read_class);
        self.edits_ms.extend(other.edits_ms);
        self.ops += other.ops;
        self.checks += other.checks;
        self.failed += other.failed;
        self.saturated += other.saturated;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// One timed window: wall and CPU seconds spent inside rounds only.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rounds: u64,
    pub ops: u64,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Runs whole rounds (each a fixed, seeded unit of closed-loop work) until
/// `seconds` of round time have passed. `check` runs between rounds, off the
/// clock: it compares outputs, it is not load.
pub fn run_window(
    seconds: f64,
    rec: &mut Recorder,
    mut round: impl FnMut(&mut Recorder, u64),
    mut check: impl FnMut(&mut Recorder),
) -> Window {
    let mut window = Window::default();
    let ops_before = rec.ops;
    while window.wall_s < seconds {
        let cpu = procfs::cpu_seconds();
        let start = Instant::now();
        round(rec, window.rounds);
        window.wall_s += start.elapsed().as_secs_f64();
        window.cpu_s += procfs::cpu_seconds() - cpu;
        window.rounds += 1;
        check(rec);
    }
    window.ops = rec.ops - ops_before;
    window
}

/// Repeats set-up until it has run [`SETUP_REPS`] times and for
/// [`SETUP_SECONDS`] in all (once under `--smoke` or `--trace 1`, which do
/// not report it), keeps the last result and returns every duration.
pub fn repeat_setup<T>(ctx: &Ctx, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let once = ctx.smoke || ctx.trace || ctx.inputs_only;
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty()
        || !once && (times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Free the previous copy first, or peak memory would count two.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// What a workload hands back: its metrics, the window's verdicts, and the
/// span log when the run was traced.
pub struct Measured {
    pub metrics: Metrics,
    /// The [`WORKLOAD_ONLY`] metrics this workload has; untraced runs only.
    pub also: Metrics,
    pub rec: Recorder,
    pub spans: Option<SpanLog>,
}

/// The measured part of every workload. Untraced (`--trace 0`): one window
/// of `--seconds`, end-to-end metrics. Traced (`--trace 1`): a quarter
/// window untraced, then a quarter window with spans around every call into
/// the program; the difference between the two is the tracing overhead.
pub fn measure(
    ctx: &Ctx,
    setup_s: &[f64],
    mut round: impl FnMut(&mut Recorder, u64, Option<&mut SpanLog>),
    mut check: impl FnMut(&mut Recorder),
) -> Measured {
    let mut rec = Recorder::default();
    let mut also = Metrics::new(WORKLOAD_ONLY);
    if ctx.inputs_only {
        return Measured { metrics: Metrics::new(END_TO_END), also, rec, spans: None };
    }
    if !ctx.trace {
        let window = run_window(ctx.seconds, &mut rec, |rec, r| round(rec, r, None), &mut check);
        let metrics = end_to_end(ctx, setup_s, &window, &rec);
        for (name, p) in [("edit_p50_ms", 0.50), ("edit_p95_ms", 0.95)] {
            match try_percentile(ctx, &rec.edits_ms, p) {
                Ok(value) => also.set(name, value),
                Err(e) if e.have == 0 => {}
                Err(e) => println!(
                    "{name}: withheld, {} of {} edits lie beyond it, needs {MIN_BEYOND}",
                    e.beyond, e.have
                ),
            }
        }
        return Measured { metrics, also, rec, spans: None };
    }
    let quarter = ctx.seconds / 4.0;
    let untraced = run_window(quarter, &mut rec, |rec, r| round(rec, r, None), &mut check);
    let mut traced_rec = Recorder::default();
    let mut spans = SpanLog::new(Instant::now());
    let traced = run_window(
        quarter,
        &mut traced_rec,
        |rec, r| round(rec, untraced.rounds + r, Some(&mut spans)),
        &mut check,
    );
    let metrics = traced_window_metrics(&rec, &traced_rec, &traced, &spans);
    rec.absorb(traced_rec);
    Measured { metrics, also, rec, spans: Some(spans) }
}

/// A percentile that keeps the ten-samples-beyond rule in real runs and
/// waives it under `--smoke`, whose numbers mean nothing anyway.
pub fn try_percentile(ctx: &Ctx, values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    stats::percentile_with(values, p, if ctx.smoke { 0 } else { MIN_BEYOND })
}

/// The same for a metric every run must print: too few samples end the run.
fn percentile(ctx: &Ctx, what: &str, values: &[f64], p: f64) -> f64 {
    try_percentile(ctx, values, p).unwrap_or_else(|e| {
        panic!(
            "{what}: p{:.0} of {} samples has {} beyond it, needs {MIN_BEYOND}; \
             the window is too short for this machine",
            p * 100.0,
            e.have,
            e.beyond
        )
    })
}

/// The typical read: the geometric mean, over the classes of the read mix,
/// of each class's median latency. The median of the pooled latencies would
/// be the median of whichever class sits in the middle of the mix, blind to
/// the others and jumping when two classes swap places; this moves with
/// every class and by the same factor as the class does.
fn typical_read_ms(ctx: &Ctx, rec: &Recorder) -> f64 {
    let classes = rec.read_class.iter().max().map_or(0, |c| c + 1);
    let mut log_sum = 0.0;
    for class in 0..classes {
        let of_class: Vec<f64> = rec
            .reads_ms
            .iter()
            .zip(&rec.read_class)
            .filter(|(_, c)| **c == class)
            .map(|(ms, _)| *ms)
            .collect();
        log_sum += percentile(ctx, "read_typical_ms (one class)", &of_class, 0.50).ln();
    }
    (log_sum / classes as f64).exp()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(ctx: &Ctx, setup_s: &[f64], window: &Window, rec: &Recorder) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", stats::median(setup_s));
    m.set("ops_per_s", window.ops_per_s());
    m.set("read_typical_ms", typical_read_ms(ctx, rec));
    m.set("read_p95_ms", percentile(ctx, "read_p95_ms", &rec.reads_ms, 0.95));
    m.set("cpu_ms_per_op", window.cpu_s * 1e3 / window.ops as f64);
    m.set("peak_rss_mb", procfs::peak_rss_mib());
    println!(
        "window: {} rounds, {} ops in {:.3} s ({} reads, {} edits), {} checks, {} failed; \
         set-up x{}: min {:.4} s, max {:.4} s",
        window.rounds,
        window.ops,
        window.wall_s,
        rec.reads_ms.len(),
        rec.edits_ms.len(),
        rec.checks,
        rec.failed,
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max)
    );
    m
}

/// The per-layer metrics a traced run reads off its own two quarter
/// windows: span self times per op, tracing overhead, the recorder's tails.
fn traced_window_metrics(
    untraced: &Recorder,
    rec: &Recorder,
    traced: &Window,
    spans: &SpanLog,
) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    for (name, (self_ns, _calls)) in spans.self_by_name() {
        m.set(&format!("{name}.self_us_per_op"), self_ns as f64 / 1e3 / traced.ops as f64);
    }
    // With a fixed number of closed-loop clients, throughput is clients over
    // mean latency, so the latency ratio is the throughput ratio; unlike wall
    // time it leaves out the shadow calls, which repeat work only to
    // attribute it and are issued between ops.
    let mean_ms = |r: &Recorder| {
        (r.reads_ms.iter().sum::<f64>() + r.edits_ms.iter().sum::<f64>()) / r.ops as f64
    };
    m.set("bench.trace_overhead", 1.0 - mean_ms(untraced) / mean_ms(rec));
    // Percentiles of a quarter window, pooled over the read classes:
    // reported with whatever lies beyond them, and gated by nothing.
    let tail = |values: &[f64], p: f64| stats::percentile_with(values, p, 0).unwrap_or(0.0);
    m.set("bench.read_p50_ms", tail(&rec.reads_ms, 0.50));
    m.set("bench.read_p99_ms", tail(&rec.reads_ms, 0.99));
    m.set("bench.edit_p50_ms", tail(&rec.edits_ms, 0.50));
    m.set("bench.edit_p95_ms", tail(&rec.edits_ms, 0.95));
    m.set("service.saturated", rec.saturated as f64);
    println!(
        "traced window: {} ops in {:.3} s (shadow calls included), {} spans; untraced: {} ops; \
         p99 over {} reads, edit tails over {} edits",
        traced.ops,
        traced.wall_s,
        spans.len(),
        untraced.ops,
        rec.reads_ms.len(),
        rec.edits_ms.len()
    );
    m
}
