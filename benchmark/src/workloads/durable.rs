//! `durable-restart`: an operator's view of a persisted database. One client
//! cycles through: reopen from the files (pending WAL records are replayed),
//! answer three queries cold, commit a dozen durable edit batches, and every
//! fourth cycle checkpoint. A *read* here is a first answer:
//! `Database::open` → cold `prepare` → first `count`.
//!
//! Flush policy: the store never fsyncs (`Pager::flush` documents it), so
//! "durable" means "written to the files before the call returns" and every
//! latency is the sandbox's page cache's, not a device's. The check matches
//! that: each cycle's reopen must answer exactly as the in-memory state did
//! before the database was dropped, and the run ends by comparing the
//! reopened relations with a model that replays every batch on plain sets.

use super::Outcome;
use crate::config::{Ctx, OUT_DIR};
use crate::data::{self, EditBatch, Graveyards, SocialInput, EDITED};
use crate::fingerprint::Fingerprint;
use crate::harness::{measure, repeat_setup, try_percentile, Recorder};
use crate::rng::Rng;
use crate::trace::SpanLog;
use graphjoin::{Database, Engine, Query, Relation, Store, Val};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A store directory that is removed when dropped.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    pub fn fresh(tag: &str) -> StoreDir {
        let dir = Path::new(OUT_DIR).join(format!("store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        StoreDir(dir)
    }

    /// Bytes of the image plus the log.
    pub fn bytes(&self) -> u64 {
        ["data.gj", "wal.gj"]
            .iter()
            .map(|f| std::fs::metadata(self.0.join(f)).map_or(0, |m| m.len()))
            .sum()
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What survives from one cycle to the next besides the files.
struct State {
    /// The database of the current cycle; dropped (a restart) by the check.
    live: Option<Database>,
    /// What the next reopen must answer, per query.
    expect: Vec<u64>,
    /// Every committed batch, for the closing model check.
    committed: Vec<EditBatch>,
    graveyards: Graveyards,
    rng: Rng,
}

/// One first answer: reopen, prepare cold, count.
fn first_answer(
    dir: &Path,
    query: &Query,
    op: u64,
    spans: Option<&mut SpanLog>,
) -> (Database, Result<u64, String>, Duration) {
    let Some(log) = spans else {
        let start = Instant::now();
        let db = Database::open(dir).unwrap_or_else(|e| panic!("reopen {}: {e}", dir.display()));
        let got = db.prepare(query, &Engine::Lftj).and_then(|p| p.count());
        return (db, got.map_err(|e| e.to_string()), start.elapsed());
    };
    let start = Instant::now();
    let open = log.begin("core.open", None, op);
    let db = Database::open(dir).unwrap_or_else(|e| panic!("reopen {}: {e}", dir.display()));
    log.end(open);
    let prepare = log.begin("query.prepare", None, op);
    let prepared = db.prepare(query, &Engine::Lftj);
    log.end(prepare);
    let count = log.begin("core.count", None, op);
    let got = prepared.and_then(|p| p.count_with_stats());
    log.end(count);
    let latency = start.elapsed();
    if let Ok((_, stats)) = &got {
        let at = log.span(count).start_ns;
        let bind_ns = stats.bind.as_nanos() as u64;
        log.child("lftj.bind", count, at, bind_ns);
        log.child("lftj.run", count, at + bind_ns, stats.run.as_nanos() as u64);
    }
    // Shadow: the store's share of `Database::open` is a second, direct
    // `Store::open` of the same files (same recovery work, read-only).
    let shadow = Instant::now();
    let store = Store::open(dir, None);
    let store_ns = shadow.elapsed().as_nanos() as u64;
    drop(store);
    let at = log.span(open).start_ns;
    log.child("store.open", open, at, store_ns);
    (db, got.map(|(count, _)| count).map_err(|e| e.to_string()), latency)
}

/// What every cycle reads and none changes.
struct Fixed<'a> {
    ctx: &'a Ctx,
    dir: &'a Path,
    input: &'a SocialInput,
    queries: &'a [Query],
}

fn cycle(
    fixed: &Fixed<'_>,
    state: &mut State,
    rec: &mut Recorder,
    round: u64,
    mut spans: Option<&mut SpanLog>,
) {
    let Fixed { ctx, dir, input, queries } = *fixed;
    let op_base = round << 20;
    for (i, query) in queries.iter().enumerate() {
        // The previous database must be gone before the files are reopened.
        state.live = None;
        let (db, got, latency) = first_answer(dir, query, op_base + i as u64, spans.as_deref_mut());
        rec.read(i, latency, got.as_ref() == Ok(&state.expect[i]), || {
            format!(
                "first answer, {}: got {got:?}, before the restart {}",
                query.name, state.expect[i]
            )
        });
        state.live = Some(db);
    }
    let db = state.live.as_mut().expect("just reopened");
    for i in 0..ctx.sizes.cycle_edits {
        let batch = data::draw_edit(&mut state.rng, input, db, None, &mut state.graveyards);
        let span = spans
            .as_deref_mut()
            .map(|log| log.begin("core.commit_edits", None, op_base + (queries.len() + i) as u64));
        let start = Instant::now();
        let got = db.commit_edits(batch.relation, &batch.ins, &batch.del);
        let latency = start.elapsed();
        if let (Some(log), Some(span)) = (spans.as_deref_mut(), span) {
            log.end(span);
        }
        rec.edit(latency, got.is_ok(), || format!("commit_edits {}: {got:?}", batch.relation));
        state.committed.push(batch);
    }
    if (round + 1).is_multiple_of(ctx.sizes.checkpoint_every as u64) {
        let span =
            spans.as_deref_mut().map(|log| log.begin("core.checkpoint", None, op_base + 0xfffff));
        let got = db.checkpoint();
        if let (Some(log), Some(span)) = (spans, span) {
            log.end(span);
        }
        rec.check(got.is_ok(), || format!("checkpoint: {got:?}"));
    }
}

/// The edited relations after every batch, on plain sets: a delete wins over
/// an insert of the same row in one batch, as `Database::edit_rows` defines.
fn model(input: &SocialInput, committed: &[EditBatch]) -> Vec<(&'static str, Relation)> {
    EDITED
        .iter()
        .map(|&name| {
            let base =
                &input.relations.iter().find(|(n, _)| *n == name).expect("edited relation").1;
            let mut rows: BTreeSet<Vec<Val>> = base.iter().map(<[Val]>::to_vec).collect();
            for batch in committed.iter().filter(|b| b.relation == name) {
                for row in &batch.del {
                    rows.remove(row);
                }
                for row in batch.ins.iter().filter(|r| !batch.del.contains(r)) {
                    rows.insert(row.clone());
                }
            }
            (name, Relation::from_rows(base.arity(), rows.into_iter().collect::<Vec<_>>()))
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let queries = data::restart_queries();
    let input = data::social_input(ctx.sizes.persons, ctx.seed);
    let answers = data::reference_counts(&input.database(), &queries);

    // Set-up as the operator pays it: generate, load, persist the image,
    // reopen it and answer each query once.
    let (store_dir, setup_s) = repeat_setup(ctx, || {
        let dir = StoreDir::fresh("durable");
        let db = data::social_input(ctx.sizes.persons, ctx.seed).database();
        db.persist(&dir.0).unwrap_or_else(|e| panic!("persist: {e}"));
        drop(db);
        for (query, &expect) in queries.iter().zip(&answers) {
            let (_, got, _) = first_answer(&dir.0, query, 0, None);
            assert_eq!(got, Ok(expect), "warm-up first answer of {}", query.name);
        }
        dir
    });

    let state = RefCell::new(State {
        live: None,
        expect: answers.clone(),
        committed: Vec::new(),
        graveyards: Graveyards::default(),
        rng: Rng::new(ctx.seed, 0xd07a),
    });
    let fixed = Fixed { ctx, dir: &store_dir.0, input: &input, queries: &queries };
    let mut measured = measure(
        ctx,
        &setup_s,
        |rec, round, spans| cycle(&fixed, &mut state.borrow_mut(), rec, round, spans),
        |rec| {
            // Off the clock: what the in-memory state answers now is what the
            // next reopen must answer; then the database is dropped.
            let mut state = state.borrow_mut();
            let db = state.live.take().expect("a cycle ran");
            for (i, query) in queries.iter().enumerate() {
                match db.count(query, &Engine::Lftj) {
                    Ok(count) => state.expect[i] = count,
                    Err(e) => rec.check(false, || format!("in-memory {}: {e}", query.name)),
                }
            }
        },
    );

    // Closing check: the files alone must hold exactly what the model says.
    let state = state.into_inner();
    let reopened = Database::open(&store_dir.0).unwrap_or_else(|e| panic!("final reopen: {e}"));
    for (name, expect) in model(&input, &state.committed) {
        let got = reopened.instance().relation(name).map(Fingerprint::of);
        measured.rec.check(got.as_ref() == Some(&Fingerprint::of(&expect)), || {
            format!("{name} after {} batches: files hold {got:?}", state.committed.len())
        });
    }
    // Space, as the operator sees it once the log is folded into the image:
    // with the log left in, the figure would say how many cycles ago the
    // window happened to end.
    let got = reopened.checkpoint();
    measured.rec.check(got.is_ok(), || format!("closing checkpoint: {got:?}"));
    let cells: usize = input
        .relations
        .iter()
        .map(|(name, _)| reopened.instance().relation(name).map_or(0, |r| r.len() * r.arity()))
        .sum();
    let amplification = store_dir.bytes() as f64 / (8 * cells) as f64;
    println!(
        "store: {} bytes on disk for {} live cells: {:.4} bytes per user byte; never fsynced",
        store_dir.bytes(),
        cells,
        amplification
    );
    if !ctx.trace && !ctx.inputs_only {
        let reads = &measured.rec.reads_ms;
        let first_answer = try_percentile(ctx, reads, 0.50)
            .unwrap_or_else(|e| panic!("first_answer_p50_ms: only {} first answers", e.have));
        measured.also.set("first_answer_p50_ms", first_answer);
        measured.also.set("store_bytes_per_user_byte", amplification);
    }
    Outcome {
        measured,
        inputs: input.prints,
        answers: queries.iter().map(|q| q.name.clone()).zip(answers).collect(),
    }
}
