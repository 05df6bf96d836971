//! `serve-read` and `serve-mixed`: two client sessions over one `Service`,
//! each issuing a fixed, seeded list of cheap LDBC reads; `serve-mixed` swaps
//! one op in ten for an edit batch.
//!
//! A round is one replay of both lists over a fresh `Service` on the same
//! base database, so the history log and the delta layers start every round
//! alike and a faster build does not grow more state than a slower one.

use super::Outcome;
use crate::config::{Ctx, CLIENTS};
use crate::data::{self, EditBatch, Graveyards, SocialInput};
use crate::harness::{measure, repeat_setup, Recorder};
use crate::rng::Rng;
use crate::trace::SpanLog;
use gj_runtime::{scoped_workers, ExecError, QueryBudget};
use gj_service::{Service, ServiceConfig};
use graphjoin::{Database, Engine, EngineError, Query};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

enum Op {
    /// Index into the read mix.
    Read(usize),
    Edit(EditBatch),
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_concurrent: CLIENTS,
        queue_depth: 2 * CLIENTS,
        exec_threads: 1,
        default_budget: QueryBudget::new(),
    }
}

/// The op list of session `who`: the read mix cycled, with `mixed` one op in
/// ten an edit batch, all shuffled. Session `who` edits only rows whose
/// first value has parity `who`, so the two sessions' batches commute and
/// the state after a round does not depend on how they interleaved.
fn session_ops(
    ctx: &Ctx,
    input: &SocialInput,
    base: &Database,
    reads: usize,
    who: usize,
    mixed: bool,
) -> Vec<Op> {
    let mut rng = Rng::new(ctx.seed, 0x5e55 + who as u64);
    let total = ctx.sizes.session_ops;
    let edits = if mixed { total / 10 } else { 0 };
    let mut graveyards = Graveyards::default();
    let mut ops: Vec<Op> = (0..total - edits).map(|i| Op::Read(i % reads)).collect();
    ops.extend((0..edits).map(|_| {
        Op::Edit(data::draw_edit(&mut rng, input, base, Some(who as i64), &mut graveyards))
    }));
    rng.shuffle(&mut ops);
    ops
}

/// Replays one session's list. Reads are compared with `expect` when the
/// database cannot change under them (`serve-read`).
fn replay(
    service: &Service,
    queries: &[Query],
    ops: &[Op],
    expect: Option<&[u64]>,
    op_base: u64,
    mut spans: Option<&mut SpanLog>,
) -> Recorder {
    let session = service.session();
    let mut rec = Recorder::default();
    for (i, op) in ops.iter().enumerate() {
        let span = |log: &mut &mut SpanLog, name| log.begin(name, None, op_base + i as u64);
        match op {
            Op::Read(which) => {
                let query = &queries[*which];
                let root = spans.as_mut().map(|log| span(log, "service.count"));
                let start = Instant::now();
                let got = session.count(query, &Engine::Lftj);
                let latency = start.elapsed();
                if let (Some(log), Some(root)) = (spans.as_mut(), root) {
                    log.end(root);
                    shadow_read(service, query, root, log);
                }
                if matches!(got, Err(EngineError::Exec(ExecError::Saturated { .. }))) {
                    rec.saturated += 1;
                }
                let ok = match (&got, expect) {
                    (Ok(count), Some(expect)) => *count == expect[*which],
                    (Ok(_), None) => true,
                    (Err(_), _) => false,
                };
                rec.read(*which, latency, ok, || format!("{}: got {got:?}", query.name));
            }
            Op::Edit(batch) => {
                let root = spans.as_mut().map(|log| span(log, "service.edit"));
                let start = Instant::now();
                let got = service.edit_relation(batch.relation, &batch.ins, &batch.del);
                let latency = start.elapsed();
                if let (Some(log), Some(root)) = (spans.as_mut(), root) {
                    log.end(root);
                }
                rec.edit(latency, got.is_ok(), || format!("edit {}: {got:?}", batch.relation));
            }
        }
    }
    rec
}

/// Shadow decomposition. Nothing inside `Session::count` is visible from
/// outside, so the same query is run again directly on the current snapshot:
/// its `prepare` and its count (with the `bind` and `run` the program
/// reports) become children of the service span, and what is left of the
/// service span is the service's own share: gate, snapshot, history record
/// and any wait for the write lock.
fn shadow_read(service: &Service, query: &Query, root: usize, log: &mut SpanLog) {
    let snapshot = service.snapshot();
    let prepare_start = Instant::now();
    let Ok(prepared) = snapshot.prepare(query, &Engine::Lftj) else { return };
    let prepare_ns = prepare_start.elapsed().as_nanos() as u64;
    let count_start = Instant::now();
    let Ok((_, stats)) = prepared.count_with_stats() else { return };
    let count_ns = count_start.elapsed().as_nanos() as u64;

    let at = log.span(root).start_ns;
    log.child("query.prepare", root, at, prepare_ns);
    let count = log.child("core.count", root, at + prepare_ns, count_ns);
    let at = log.span(count).start_ns;
    let bind_ns = stats.bind.as_nanos() as u64;
    log.child("lftj.bind", count, at, bind_ns);
    log.child("lftj.run", count, at + bind_ns, stats.run.as_nanos() as u64);
}

/// One round: a fresh service over `base`, both sessions replayed
/// concurrently. Returns the service for the checks that follow.
fn round(
    base: &Arc<Database>,
    queries: &[Query],
    sessions: &[Vec<Op>],
    expect: Option<&[u64]>,
    rec: &mut Recorder,
    round: u64,
    mut spans: Option<&mut SpanLog>,
) -> Service {
    let service = Service::new(Arc::clone(base), service_config());
    // The repository's own scoped-thread helper: it joins every thread and
    // hands a session's panic back as an error.
    let origin = spans.as_deref().map(SpanLog::origin);
    let replayed = scoped_workers(sessions.len(), |who| {
        let mut fork = origin.map(SpanLog::new);
        let op_base = (round * sessions.len() as u64 + who as u64) << 20;
        let rec = replay(&service, queries, &sessions[who], expect, op_base, fork.as_mut());
        (rec, fork)
    });
    for session in replayed {
        let (session_rec, fork) = session.expect("session thread panicked");
        rec.absorb(session_rec);
        if let (Some(log), Some(fork)) = (spans.as_deref_mut(), fork) {
            log.absorb(fork);
        }
    }
    service
}

pub fn run(ctx: &Ctx, mixed: bool) -> Outcome {
    let queries = data::serve_queries();
    let input = data::social_input(ctx.sizes.persons, ctx.seed);
    let pristine = input.database();
    let sessions: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|who| session_ops(ctx, &input, &pristine, queries.len(), who, mixed))
        .collect();

    // Reference answers: of the base for `serve-read`; for `serve-mixed`, of
    // a database built from scratch with every batch applied (session order
    // does not matter, the batches commute).
    let mut reference_db = input.database();
    for batch in sessions.iter().flatten().filter_map(|op| match op {
        Op::Edit(batch) => Some(batch),
        Op::Read(_) => None,
    }) {
        reference_db.edit_rows(batch.relation, &batch.ins, &batch.del).expect("reference edit");
    }
    let answers = data::reference_counts(&reference_db, &queries);
    drop((reference_db, pristine));
    // Single reads can be checked only where no edit moves their answer.
    let expect = (!mixed).then_some(answers.as_slice());

    // Set-up as the service pays it: generate, load, build every index the
    // read mix needs, and serve the mix once.
    let (base, setup_s) = repeat_setup(ctx, || {
        let db = data::social_input(ctx.sizes.persons, ctx.seed).database();
        for query in &queries {
            data::prepare(&db, query, &Engine::Lftj);
        }
        let base = Arc::new(db);
        let warm_up: Vec<Op> = (0..queries.len()).map(Op::Read).collect();
        let service = Service::new(Arc::clone(&base), service_config());
        let rec = replay(&service, &queries, &warm_up, expect, 0, None);
        assert!(rec.failed == 0, "warm-up reads: {:?}", rec.failures);
        base
    });

    let last: RefCell<Option<Service>> = RefCell::new(None);
    let mut measured = measure(
        ctx,
        &setup_s,
        |rec, r, spans| {
            let service = round(&base, &queries, &sessions, expect, rec, r, spans);
            *last.borrow_mut() = Some(service);
        },
        |rec| {
            // Off the clock: the state both sessions left behind must answer
            // like the from-scratch reference. Without edits every read was
            // already compared.
            let mut last = last.borrow_mut();
            if mixed {
                let snapshot = last.as_ref().expect("a round ran").snapshot();
                for (query, &expect) in queries.iter().zip(&answers) {
                    let got = snapshot.count(query, &Engine::Lftj);
                    rec.check(got.as_ref() == Ok(&expect), || {
                        format!("final state, {}: got {got:?}, reference {expect}", query.name)
                    });
                }
            }
            // Only a traced run looks at the last service again; dropping it
            // here keeps one history log in memory during a round, not two.
            if !ctx.trace {
                *last = None;
            }
        },
    );

    if ctx.trace {
        // Twice a round's cost, so it stays out of the timed run: every read
        // of the last round is replayed serially at the epoch it saw.
        let service = last.borrow_mut().take().expect("a round ran");
        let verdict = service.verify_history(&base);
        measured.rec.check(verdict.is_ok(), || format!("verify_history: {verdict:?}"));
        measured.metrics.set("service.history_events", service.history().len() as f64);
        let pending = service.snapshot().cache().pending_delta_len("likes");
        measured.metrics.set("core.delta_len_at_end", pending as f64);
    }
    Outcome {
        measured,
        inputs: input.prints,
        answers: queries.iter().map(|q| q.name.clone()).zip(answers).collect(),
    }
}
