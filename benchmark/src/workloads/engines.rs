//! The three prepared-query workloads: an analyst prepares each pattern once
//! and executes it many times, one client, round-robin.

use super::Outcome;
use crate::config::{Ctx, DATA_SEED};
use crate::data::{self, InputPrint};
use crate::harness::{measure, repeat_setup, Recorder};
use crate::trace::SpanLog;
use graphjoin::{CountSink, Database, Engine, PreparedQuery, Query};
use std::time::{Duration, Instant};

/// One database and the queries that run on it.
struct Suite {
    db: Database,
    queries: Vec<Query>,
}

/// A prepared query with its reference answer.
struct Op<'db> {
    prepared: PreparedQuery<'db>,
    expect: u64,
}

fn prepare_all<'db>(suites: &'db [Suite], engine: &Engine, answers: &[u64]) -> Vec<Op<'db>> {
    suites
        .iter()
        .flat_map(|s| s.queries.iter().map(move |q| (s, q)))
        .zip(answers)
        .map(|((suite, query), &expect)| Op {
            prepared: data::prepare(&suite.db, query, engine),
            expect,
        })
        .collect()
}

/// Span names of the phases `RunStats` reports, by engine and mode.
fn phase_names(engine: &Engine, threads: usize) -> (&'static str, &'static str) {
    match (engine, threads) {
        (_, t) if t > 1 => ("runtime.partition", "runtime.drive"),
        (Engine::Lftj, _) => ("lftj.bind", "lftj.run"),
        _ => ("minesweeper.bind", "minesweeper.run"),
    }
}

/// One sweep: every prepared query once, each answer compared with its
/// reference.
fn sweep(
    ops: &[Op<'_>],
    threads: usize,
    rec: &mut Recorder,
    round: u64,
    spans: Option<&mut SpanLog>,
) {
    let Some(log) = spans else {
        for (class, op) in ops.iter().enumerate() {
            let start = Instant::now();
            let got =
                if threads > 1 { op.prepared.par_count(threads) } else { op.prepared.count() };
            let latency = start.elapsed();
            rec.read(class, latency, got.as_ref() == Ok(&op.expect), || {
                format!("{}: got {got:?}, reference {}", op.prepared.query().name, op.expect)
            });
        }
        return;
    };
    let (first, second) = phase_names(ops[0].prepared.engine(), threads);
    for (i, op) in ops.iter().enumerate() {
        let root = log.begin("core.count", None, round * ops.len() as u64 + i as u64);
        let got = if threads > 1 {
            let mut sink = CountSink::new();
            op.prepared.run_parallel(&mut sink, threads).map(|stats| (sink.rows(), stats))
        } else {
            op.prepared.count_with_stats()
        };
        log.end(root);
        let span = log.span(root);
        let (start_ns, latency) =
            (span.start_ns, Duration::from_nanos(span.end_ns - span.start_ns));
        if let Ok((_, stats)) = &got {
            let bind_ns = stats.bind.as_nanos() as u64;
            log.child(first, root, start_ns, bind_ns);
            log.child(second, root, start_ns + bind_ns, stats.run.as_nanos() as u64);
        }
        let count = got.map(|(count, _)| count);
        rec.read(i, latency, count.as_ref() == Ok(&op.expect), || {
            format!("{}: got {count:?}, reference {}", op.prepared.query().name, op.expect)
        });
    }
}

fn run(
    ctx: &Ctx,
    engine: Engine,
    threads: usize,
    make: impl Fn() -> (Vec<Suite>, Vec<InputPrint>),
) -> Outcome {
    let (suites, inputs) = make();
    let answers: Vec<u64> =
        suites.iter().flat_map(|s| data::reference_counts(&s.db, &s.queries)).collect();
    let names: Vec<String> =
        suites.iter().flat_map(|s| s.queries.iter().map(|q| q.name.clone())).collect();
    drop(suites);

    // Set-up as the analyst pays it: generate, load, prepare cold (GAO choice
    // and every trie build), one warm-up sweep.
    let (suites, setup_s) = repeat_setup(ctx, || {
        let (suites, _) = make();
        let ops = prepare_all(&suites, &engine, &answers);
        let mut warm_up = Recorder::default();
        sweep(&ops, threads, &mut warm_up, 0, None);
        assert!(warm_up.failed == 0, "warm-up sweep: {:?}", warm_up.failures);
        drop(ops);
        suites
    });
    let ops = prepare_all(&suites, &engine, &answers);
    let measured =
        measure(ctx, &setup_s, |rec, round, spans| sweep(&ops, threads, rec, round, spans), |_| {});
    Outcome { measured, inputs, answers: names.into_iter().zip(answers).collect() }
}

/// `cyclic-lftj` (`threads` = 1) and `par2-cyclic` (`threads` = 2): 3-clique,
/// 4-clique and 4-cycle under LFTJ on one power-law graph.
pub fn cyclic(ctx: &Ctx, threads: usize) -> Outcome {
    run(ctx, Engine::Lftj, threads, || {
        let input = data::graph_input(ctx.sizes.graph_nodes, ctx.seed);
        let mut db = Database::new();
        db.add_graph(input.graph);
        (vec![Suite { db, queries: data::cyclic_queries() }], vec![input.print])
    })
}

/// `ms-patterns`: Minesweeper on the selective acyclic family (3-path,
/// 2-comb, 1-tree over selectivity-10 node samples) and on five LDBC reads
/// led by `mutual-fans`, its serial cliff.
pub fn ms_patterns(ctx: &Ctx) -> Outcome {
    run(ctx, data::minesweeper(), 1, || {
        let nodes = ctx.sizes.ms_graph_nodes;
        let input = data::graph_input(nodes, ctx.seed);
        let mut graph_db = Database::new();
        graph_db.add_graph(input.graph);
        let mut inputs = vec![input.print];
        for (name, sample) in gj_datagen::sample_relations(nodes, 10, 2, DATA_SEED) {
            let print = crate::fingerprint::Fingerprint::of(&sample);
            inputs.push(InputPrint { name: name.clone(), base: print.clone(), loaded: print });
            graph_db.add_relation(name, sample);
        }
        let social = data::social_input(ctx.sizes.ms_persons, ctx.seed);
        inputs.extend(social.prints.iter().cloned());
        let suites = vec![
            Suite { db: graph_db, queries: data::ms_graph_queries() },
            Suite { db: social.database(), queries: data::ms_social_queries() },
        ];
        (suites, inputs)
    })
}
