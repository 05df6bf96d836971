//! Fault-injection sweep for the fault-tolerant execution stack: armed
//! [`FailpointRegistry`] sites (morsel claim, shard merge, join step, trie build)
//! inject panics, forced budget trips and delays into every engine at 1 and 4
//! worker threads, and the suite asserts the robustness contract:
//!
//! * a run under an injected fault surfaces a **typed [`ExecError`]** matching the
//!   injected action, or **completes with the exact answer** when the site was
//!   never reached — never a process abort and never a wrong answer. A serial
//!   run is the one-worker drive, so the driver-level sites (morsel claim, shard
//!   merge) exist there too;
//! * after the fault, the *same* `PreparedQuery` (same plan, same shared index
//!   cache) re-executes cleanly and byte-identically to a fresh database;
//! * abort reasons agree between the serial and the parallel execution paths;
//! * cancellation is observed within a bounded latency even when morsel claims
//!   are artificially slowed.

use graphjoin::{
    fault::sites, CancelToken, CatalogQuery, CountSink, Database, Engine, EngineError, ExecError,
    ExecLimits, FailAction, FailpointRegistry, Graph, MsConfig, PreparedQuery, QueryBudget,
    Relation, StoreError,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Silences the default panic-hook backtrace for *injected* panics (payloads
/// starting with `"failpoint panic"`). Installed once per process and delegating
/// to the previous hook otherwise, so a genuine test failure still prints.
fn quiet_failpoint_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if !msg.is_some_and(|m| m.contains("failpoint panic")) {
                prev(info);
            }
        }));
    });
}

/// Counts `prepared`'s rows on `threads` workers under `budget`, through the one
/// fallible entry point.
fn try_count(
    prepared: &PreparedQuery<'_>,
    threads: usize,
    budget: &QueryBudget,
) -> Result<u64, EngineError> {
    let mut sink = CountSink::new();
    prepared.try_run_parallel(&mut sink, threads, budget)?;
    Ok(sink.rows())
}

/// A seeded random database big enough that every engine's inner loop passes the
/// cooperative check stride many times (so `join_step` faults genuinely fire),
/// yet small enough for a debug-mode sweep.
fn test_database(seed: u64) -> Database {
    let n: u32 = 40;
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(0.22))
        .collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    for (i, step) in [3usize, 2, 5, 4].iter().enumerate() {
        let name = format!("v{}", i + 1);
        db.add_relation(name, Relation::from_values((0..n as i64).step_by(*step)));
    }
    db
}

/// Every engine the fault sweep covers: both trie engines plus both pairwise
/// baselines (the morsel-parallel pairwise path has its own driver wiring).
fn engines() -> Vec<Engine> {
    vec![
        Engine::Lftj,
        Engine::Minesweeper(MsConfig::default()),
        Engine::HashJoin(ExecLimits::default()),
        Engine::SortMergeJoin(ExecLimits::default()),
    ]
}

/// The central sweep: sites × actions × engines × threads. Each run must abort
/// with the typed error the action dictates — the serial run goes through the
/// same driver, so at 1 thread every site fires exactly as at 4 — or, where a
/// partitioned run never reaches the in-engine site, complete exactly; either way
/// the same prepared query then re-executes cleanly.
#[test]
fn injected_faults_yield_typed_errors_or_exact_answers_and_clean_reruns() {
    quiet_failpoint_panics();
    let db = test_database(11);
    let q = CatalogQuery::ThreePath.query();
    for engine in engines() {
        let prepared = db.prepare(&q, &engine).unwrap();
        let expected = prepared.count().unwrap();
        for site in [sites::MORSEL_CLAIM, sites::SHARD_MERGE, sites::JOIN_STEP] {
            for action in [FailAction::Panic, FailAction::Trip] {
                for threads in [1usize, 4] {
                    let tag = format!("{} {site} {action:?} threads {threads}", engine.label());
                    let fp = Arc::new(FailpointRegistry::new());
                    fp.arm(site, action);
                    let budget = QueryBudget::new().with_failpoints(fp.clone());
                    match try_count(&prepared, threads, &budget) {
                        Ok(count) => {
                            // Legitimate only for `join_step` on a partitioned
                            // run: every morsel starts a fresh check stride, and
                            // a morsel shorter than one stride never polls. The
                            // driver-level sites are reached at every thread
                            // count, and the serial run reaches all three.
                            assert!(site == sites::JOIN_STEP && threads > 1, "site not hit: {tag}");
                            assert_eq!(count, expected, "completed run must be exact: {tag}");
                            assert_eq!(
                                fp.fired(),
                                None,
                                "a fired fault must not yield a completed run: {tag}"
                            );
                        }
                        Err(EngineError::Exec(err)) => {
                            assert_eq!(fp.fired().as_deref(), Some(site), "attribution: {tag}");
                            let want = match action {
                                FailAction::Panic => "panic",
                                FailAction::Trip => "budget",
                                FailAction::Delay(_) => unreachable!("sweep injects no delays"),
                            };
                            assert_eq!(err.kind(), want, "typed abort reason: {tag}");
                        }
                        Err(other) => panic!("untyped failure {other} under fault: {tag}"),
                    }
                    // Post-fault reuse: the same prepared query, a clean budget,
                    // the exact answer — plan and cache survived the fault.
                    assert_eq!(
                        try_count(&prepared, threads, &QueryBudget::new()).unwrap(),
                        expected,
                        "clean rerun after fault: {tag}"
                    );
                }
            }
        }
        assert_eq!(prepared.count().unwrap(), expected, "{} after sweep", engine.label());
    }
}

/// The `join_step` site sits behind the cooperative check stride; assert it is
/// genuinely reachable from every engine's serial inner loop on the sweep
/// database (otherwise the sweep above would be vacuous for that engine).
#[test]
fn the_join_step_site_is_reachable_from_every_engine() {
    let db = test_database(11);
    let q = CatalogQuery::ThreePath.query();
    for engine in engines() {
        let prepared = db.prepare(&q, &engine).unwrap();
        let fp = Arc::new(FailpointRegistry::new());
        fp.arm(sites::JOIN_STEP, FailAction::Trip);
        let budget = QueryBudget::new().with_failpoints(fp.clone());
        let err = try_count(&prepared, 1, &budget).expect_err(engine.label());
        assert!(
            matches!(err, EngineError::Exec(ExecError::BudgetExceeded { .. })),
            "{}: {err}",
            engine.label()
        );
        assert_eq!(fp.fired().as_deref(), Some(sites::JOIN_STEP), "{}", engine.label());
    }
}

/// After a worker panic mid-join, re-executing the same prepared query must give
/// rows byte-identical to a freshly built database — no partial state leaks out
/// of the poisoned run.
#[test]
fn post_fault_reexecution_is_byte_identical_to_a_fresh_database() {
    quiet_failpoint_panics();
    let db = test_database(17);
    let fresh = test_database(17);
    let q = CatalogQuery::ThreePath.query();
    for engine in engines() {
        // Engines emit rows in their own (deterministic) order, so the
        // byte-identical reference is a fresh database under the same engine.
        let reference = fresh.prepare(&q, &engine).unwrap().collect().unwrap();
        let prepared = db.prepare(&q, &engine).unwrap();
        let fp = Arc::new(FailpointRegistry::new());
        fp.arm(sites::MORSEL_CLAIM, FailAction::Panic);
        let budget = QueryBudget::new().with_failpoints(fp.clone());
        let err = try_count(&prepared, 4, &budget).expect_err(engine.label());
        assert!(
            matches!(err, EngineError::Exec(ExecError::WorkerPanicked { .. })),
            "{}: {err}",
            engine.label()
        );
        // Same prepared query, same plan, same cache: the rows must be the
        // reference rows, byte for byte.
        assert_eq!(prepared.collect().unwrap(), reference, "{}", engine.label());
    }
}

/// A zero deadline (and a pre-cancelled token) abort deterministically before any
/// work, even on queries small enough to finish inside one check stride.
#[test]
fn pre_violated_budgets_abort_deterministically() {
    let db = test_database(19);
    let q = CatalogQuery::ThreeClique.query();
    for engine in [Engine::Lftj, Engine::minesweeper()] {
        let prepared = db.prepare(&q, &engine).unwrap();
        for threads in [1usize, 4] {
            let deadline = QueryBudget::new().with_timeout(Duration::ZERO);
            assert!(
                matches!(
                    try_count(&prepared, threads, &deadline),
                    Err(EngineError::Exec(ExecError::DeadlineExceeded))
                ),
                "{} threads {threads}",
                engine.label()
            );
            let token = CancelToken::default();
            token.cancel();
            let cancelled = QueryBudget::new().with_cancel_token(token);
            assert!(
                matches!(
                    try_count(&prepared, threads, &cancelled),
                    Err(EngineError::Exec(ExecError::Cancelled))
                ),
                "{} threads {threads}",
                engine.label()
            );
        }
    }
}

/// Serial and parallel executions surface the *same* typed abort reason for the
/// same budget violation — callers can branch on `ExecError::kind` without caring
/// how many threads ran.
#[test]
fn abort_reasons_agree_between_serial_and_parallel() {
    let db = test_database(23);
    let q = CatalogQuery::ThreePath.query();
    let budgets: Vec<(&str, QueryBudget)> = vec![
        ("deadline", QueryBudget::new().with_timeout(Duration::ZERO)),
        ("cancelled", {
            let token = CancelToken::default();
            token.cancel();
            QueryBudget::new().with_cancel_token(token)
        }),
        ("budget", QueryBudget::new().with_max_rows(5)),
    ];
    let kind = |r: Result<u64, EngineError>| match r {
        Err(EngineError::Exec(err)) => err.kind(),
        other => panic!("expected a typed exec abort, got {other:?}"),
    };
    for engine in engines() {
        let prepared = db.prepare(&q, &engine).unwrap();
        for (want, budget) in &budgets {
            let serial = kind(try_count(&prepared, 1, budget));
            let parallel = kind(try_count(&prepared, 4, budget));
            assert_eq!(serial, *want, "serial {} {want}", engine.label());
            assert_eq!(serial, parallel, "parity {} {want}", engine.label());
        }
    }
}

/// A row budget bounds the work, not just the answer: rows are accounted as they
/// are found, on the counting path too. On the 3-clique query over a 24-clique
/// (2024 rows) a cap of 5 stops the serial count at exactly row 6, and each of
/// four workers overshoots by at most the one row it was delivering — never by a
/// morsel.
#[test]
fn row_budgets_are_row_granular_on_the_counting_path() {
    let n: u32 = 24;
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    let prepared = db.prepare(&CatalogQuery::ThreeClique.query(), &Engine::Lftj).unwrap();
    assert_eq!(prepared.count().unwrap(), 2024);
    let budget = QueryBudget::new().with_max_rows(5);
    assert_eq!(
        try_count(&prepared, 1, &budget),
        Err(EngineError::Exec(ExecError::BudgetExceeded { rows: 6, budget: 5 }))
    );
    match try_count(&prepared, 4, &budget) {
        Err(EngineError::Exec(ExecError::BudgetExceeded { rows, budget: 5 })) => {
            assert!((6..=5 + 4).contains(&rows), "overshoot of {rows} rows");
        }
        other => panic!("expected a budget abort, got {other:?}"),
    }
}

/// An armed `trie_build` failpoint makes *preparation* panic; the panic is caught
/// and typed, and after disarming the same database prepares and answers exactly.
#[test]
fn prepare_survives_a_trie_build_panic_and_the_cache_stays_usable() {
    quiet_failpoint_panics();
    let db = test_database(13);
    let q = CatalogQuery::ThreeClique.query();
    let expected = test_database(13).prepare(&q, &Engine::Lftj).unwrap().count().unwrap();
    let fp = Arc::new(FailpointRegistry::new());
    fp.arm(sites::TRIE_BUILD, FailAction::Panic);
    db.cache().set_failpoints(Some(fp.clone()));
    let err = db.prepare(&q, &Engine::Lftj).expect_err("armed trie build");
    assert!(
        matches!(err, EngineError::Exec(ExecError::WorkerPanicked { .. })),
        "prepare-time panic must be typed: {err}"
    );
    assert_eq!(fp.fired().as_deref(), Some(sites::TRIE_BUILD));
    // Disarm: the cache recovered (it only ever holds fully-built indexes), so the
    // same database now prepares cleanly and counts exactly.
    db.cache().set_failpoints(None);
    let prepared = db.prepare(&q, &Engine::Lftj).expect("disarmed prepare");
    assert_eq!(prepared.count().unwrap(), expected);
}

/// Cancellation latency is bounded even when every morsel claim is artificially
/// slowed: workers poll the monitor at each claim boundary, so a cancel lands
/// after at most one in-flight delay instead of after the whole (slowed) run.
#[test]
fn cancellation_is_observed_promptly_under_slow_morsel_claims() {
    let db = test_database(29);
    let q = CatalogQuery::ThreePath.query();
    let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
    let fp = Arc::new(FailpointRegistry::new());
    fp.arm(sites::MORSEL_CLAIM, FailAction::Delay(Duration::from_millis(100)));
    let token = CancelToken::default();
    let budget = QueryBudget::new().with_failpoints(fp.clone()).with_cancel_token(token.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(25));
        token.cancel();
    });
    let start = Instant::now();
    let result = try_count(&prepared, 2, &budget);
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    assert!(
        matches!(result, Err(EngineError::Exec(ExecError::Cancelled))),
        "cancel must win over the slowed run: {result:?}"
    );
    // Generous bound: without the boundary checks the delay applies to every
    // remaining claim; with them the run ends after roughly one in-flight delay.
    assert!(elapsed < Duration::from_secs(2), "cancellation latency {elapsed:?}");
    assert_eq!(fp.fired().as_deref(), Some(sites::MORSEL_CLAIM));
}

/// A completed run is `Ok` with its statistics; an injected trip is an `Err` of
/// the typed reason, and the registry the budget carried names the site that
/// fired.
#[test]
fn completed_runs_report_stats_and_aborts_are_attributed_errors() {
    let db = test_database(31);
    let q = CatalogQuery::ThreePath.query();
    let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
    let clean = prepared.try_run_parallel(&mut CountSink::new(), 1, &QueryBudget::new()).unwrap();
    assert_eq!(clean.rows, prepared.count().unwrap());

    let fp = Arc::new(FailpointRegistry::new());
    fp.arm(sites::MORSEL_CLAIM, FailAction::Trip);
    let tripped = try_count(&prepared, 4, &QueryBudget::new().with_failpoints(fp.clone()));
    let kind = |result: Result<u64, EngineError>| match result {
        Err(EngineError::Exec(reason)) => reason.kind(),
        other => panic!("expected a typed abort, got {other:?}"),
    };
    assert_eq!(kind(tripped), "budget");
    assert_eq!(fp.fired().as_deref(), Some(sites::MORSEL_CLAIM));

    let overrun = try_count(&prepared, 1, &QueryBudget::new().with_max_rows(3));
    assert_eq!(kind(overrun), "budget", "both are budget aborts");
}

// ---------------------------------------------------------------------------
// Crash-recovery sweeps for the disk-store sites (`wal_append`, `page_flush`,
// `recovery_replay`): at every armed offset, a simulated crash (panic) or a
// typed fault (trip) must leave the store recoverable to exactly the
// pre-mutation or post-mutation state — never a torn, partially-applied one.
// ---------------------------------------------------------------------------

/// A scratch store directory, cleaned before use.
fn store_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gj-fault-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The durable mutations every sweep applies, in order. Replacing `edge`
/// exercises the biggest extent; `v9` is a brand-new catalog entry.
fn sweep_commits() -> Vec<(&'static str, Relation)> {
    vec![
        ("v1", Relation::from_values(vec![1, 2, 3, 5, 8])),
        ("edge", Relation::from_flat(2, vec![0, 1, 1, 0, 1, 2, 2, 1, 0, 2, 2, 0])),
        ("v9", Relation::from_values(vec![42])),
    ]
}

/// Structural + behavioural equality: identical relation catalogs, identical
/// relation contents, and byte-identical parallel query answers.
fn assert_same_database(ctx: &str, actual: &Database, expected: &Database) {
    let names: Vec<String> = expected.instance().relation_names().map(str::to_string).collect();
    let actual_names: Vec<String> =
        actual.instance().relation_names().map(str::to_string).collect();
    assert_eq!(actual_names, names, "{ctx}: relation catalogs differ");
    for name in &names {
        assert_eq!(
            actual.instance().relation(name),
            expected.instance().relation(name),
            "{ctx}: relation '{name}' differs"
        );
    }
    let q = CatalogQuery::ThreeClique.query();
    let lhs = actual.prepare(&q, &Engine::Lftj).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let rhs = expected.prepare(&q, &Engine::Lftj).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(
        lhs.par_collect(4).unwrap_or_else(|e| panic!("{ctx}: {e}")),
        rhs.par_collect(4).unwrap_or_else(|e| panic!("{ctx}: {e}")),
        "{ctx}: parallel query answers differ"
    );
}

/// `wal_append` sweep: a crash or typed fault at every append offset must
/// recover to *exactly* the committed prefix — the torn half-record a panic
/// leaves behind is discarded, a tripped append writes nothing.
#[test]
fn wal_append_crashes_recover_to_the_committed_prefix() {
    quiet_failpoint_panics();
    let commits = sweep_commits();
    for action in [FailAction::Panic, FailAction::Trip] {
        for offset in 0..=commits.len() as u64 {
            let ctx = format!("wal_append {action:?} offset {offset}");
            let dir = store_scratch(&format!("wal-{action:?}-{offset}"));
            let base = test_database(77);
            base.persist(&dir).unwrap_or_else(|e| panic!("{ctx}: persist: {e}"));

            let fp = Arc::new(FailpointRegistry::new());
            fp.arm_after(sites::WAL_APPEND, action, offset, 1);
            let mut db = Database::open_with_failpoints(&dir, Some(Arc::clone(&fp)))
                .unwrap_or_else(|e| panic!("{ctx}: open: {e}"));
            let mut reference = base.clone();
            let mut applied = 0usize;
            for (name, rel) in &commits {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    db.commit_relation(*name, rel.clone()).map(|_| ())
                }));
                match outcome {
                    Ok(Ok(())) => {
                        reference.add_relation(*name, rel.clone());
                        applied += 1;
                    }
                    Ok(Err(err)) => {
                        assert_eq!(err, StoreError::Fault(sites::WAL_APPEND), "{ctx}");
                        break; // typed rejection: nothing was written
                    }
                    Err(_) => break, // simulated crash mid-append (torn record)
                }
            }
            assert_eq!(
                applied,
                (offset as usize).min(commits.len()),
                "{ctx}: exactly the pre-fault commits succeed"
            );
            drop(db);

            let reopened = Database::open(&dir).unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
            assert_same_database(&ctx, &reopened, &reference);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `page_flush` sweep: a crash or typed fault at any page write *during a
/// checkpoint* must be invisible after reopen — the checkpoint builds a
/// temporary image and the WAL is only truncated after the atomic rename, so
/// the committed state survives regardless of which flush died.
#[test]
fn page_flush_crashes_during_checkpoint_lose_no_committed_state() {
    quiet_failpoint_panics();
    let commit = Relation::from_values(vec![9, 8, 7]);
    for action in [FailAction::Panic, FailAction::Trip] {
        for offset in [0u64, 1, 2, 5, 9] {
            let ctx = format!("page_flush {action:?} offset {offset}");
            let dir = store_scratch(&format!("flush-{action:?}-{offset}"));
            let base = test_database(78);
            base.persist(&dir).unwrap_or_else(|e| panic!("{ctx}: persist: {e}"));

            let fp = Arc::new(FailpointRegistry::new());
            let mut db = Database::open_with_failpoints(&dir, Some(Arc::clone(&fp)))
                .unwrap_or_else(|e| panic!("{ctx}: open: {e}"));
            db.commit_relation("v1", commit.clone()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let mut reference = base.clone();
            reference.add_relation("v1", commit.clone());

            fp.arm_after(sites::PAGE_FLUSH, action, offset, 1);
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.checkpoint()));
            match outcome {
                // Deep offsets can land beyond the image's page count: then the
                // checkpoint simply completes, which is equally fine — the
                // invariant below holds either way.
                Ok(Ok(())) => {}
                Ok(Err(err)) => assert_eq!(err, StoreError::Fault(sites::PAGE_FLUSH), "{ctx}"),
                Err(_) => {} // simulated crash mid-image-write
            }
            drop(db);

            let reopened = Database::open(&dir).unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
            assert_same_database(&ctx, &reopened, &reference);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `recovery_replay` sweep: a crash or typed fault while *replaying* the WAL
/// is restartable — replay is read-only, so a clean retry always sees the full
/// committed state, no matter which record the previous attempt died on.
#[test]
fn recovery_replay_crashes_are_restartable_without_loss() {
    quiet_failpoint_panics();
    let commits = sweep_commits();
    let dir = store_scratch("replay");
    let base = test_database(79);
    base.persist(&dir).unwrap();
    let mut reference = base.clone();
    {
        let mut db = Database::open(&dir).unwrap();
        for (name, rel) in &commits {
            db.commit_relation(*name, rel.clone()).unwrap();
            reference.add_relation(*name, rel.clone());
        }
    }

    for action in [FailAction::Panic, FailAction::Trip] {
        for offset in 0..commits.len() as u64 {
            let ctx = format!("recovery_replay {action:?} offset {offset}");
            let fp = Arc::new(FailpointRegistry::new());
            fp.arm_after(sites::RECOVERY_REPLAY, action, offset, 1);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Database::open_with_failpoints(&dir, Some(Arc::clone(&fp)))
            }));
            match outcome {
                Ok(Err(err)) => {
                    assert_eq!(err, StoreError::Fault(sites::RECOVERY_REPLAY), "{ctx}")
                }
                Err(_) => {} // simulated crash mid-replay
                Ok(Ok(_)) => panic!("{ctx}: the armed replay must not succeed"),
            }
            // A clean retry replays everything: recovery lost nothing.
            let reopened =
                Database::open(&dir).unwrap_or_else(|e| panic!("{ctx}: clean reopen: {e}"));
            assert_same_database(&ctx, &reopened, &reference);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
