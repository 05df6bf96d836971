//! Seeded cross-engine differential fuzzing: a deterministic random-query
//! generator draws ~50 conjunctive queries over random graphs/relations and checks
//! that LFTJ, Minesweeper, both pairwise baselines (hash and sort-merge) and — on
//! the queries it can split — the hybrid all agree, serially and through the
//! morsel-driven parallel runtime at `threads ∈ {1, 4}`:
//!
//! * identical `count`;
//! * identical **sorted** `collect` row sets across engines, and byte-identical
//!   `par_collect` vs the same engine's serial `collect` (the ordered shard merge
//!   guarantee, now including the parallel pairwise path);
//! * `FirstK` answers that are exact serial prefixes at every thread count;
//! * `ExistsSink` consistency at every thread count.
//!
//! Every assertion message carries the case number and the RNG seed, so a failure
//! is reproducible by pasting the seed into [`run_case`]. The black-box approach
//! follows the differential-testing playbook: trust an optimised engine only by
//! checking it against independent references on inputs nobody hand-picked.

use gj_baselines::BaselineError;
use graphjoin::{
    CatalogQuery, Database, Engine, EngineError, ExecLimits, ExistsSink, FirstK, Graph, MsConfig,
    PreparedQuery, Query, QueryBuilder, QueryOutput, Relation,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The first `k` rows of `prepared` on `threads` workers.
fn first_k(
    prepared: &PreparedQuery<'_>,
    k: usize,
    threads: usize,
) -> Result<QueryOutput, EngineError> {
    let mut sink = FirstK::new(k);
    prepared.run_parallel(&mut sink, threads)?;
    Ok(sink.into_rows())
}

/// Number of random cases the corpus draws.
const CASES: u64 = 50;

/// Splitmix-style per-case seed derivation from one base seed.
fn case_seed(case: u64) -> u64 {
    (0x9e3779b97f4a7c15u64.wrapping_mul(case + 1)) ^ 0x5eed_f022_dead_beef
}

/// A random database: a seeded undirected graph (`edge`), two unary samples
/// (`u1`, `u2`) and one random directed binary relation (`r1`).
fn random_database(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(8u32..26);
    // Edge probability around 2/n .. 6/n keeps cartesian worst cases bounded.
    let per_mille = rng.gen_range(80u64..260);
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(per_mille as f64 / 1000.0))
        .collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    for name in ["u1", "u2"] {
        let values: Vec<i64> = (0..n as i64).filter(|_| rng.gen_bool(0.4)).collect();
        db.add_relation(name, Relation::from_values(values));
    }
    let pairs: Vec<(i64, i64)> = (0..rng.gen_range(5usize..50))
        .map(|_| (rng.gen_range(0i64..n as i64), rng.gen_range(0i64..n as i64)))
        .collect();
    db.add_relation("r1", Relation::from_pairs(pairs));
    db
}

/// A random conjunctive query over the relations of [`random_database`]: 2–4 atoms
/// over a pool of up to four variables, with 0–2 order filters restricted to
/// variables that actually occur in an atom (every engine requires each query
/// variable to be contained in some atom).
fn random_query(rng: &mut StdRng, case: u64) -> Query {
    const VARS: [&str; 4] = ["a", "b", "c", "d"];
    let pool = rng.gen_range(2usize..5);
    let atoms = rng.gen_range(2usize..5);
    let mut builder = QueryBuilder::new(format!("fuzz-{case}"));
    let mut used: Vec<usize> = Vec::new();
    let use_var = |rng: &mut StdRng, used: &mut Vec<usize>| {
        let v = rng.gen_range(0usize..pool);
        if !used.contains(&v) {
            used.push(v);
        }
        v
    };
    for _ in 0..atoms {
        match rng.gen_range(0u32..10) {
            // Mostly graph self-joins (the paper's workload shape) ...
            0..=5 => {
                let x = use_var(rng, &mut used);
                let mut y = use_var(rng, &mut used);
                while y == x {
                    y = use_var(rng, &mut used);
                }
                builder = builder.atom("edge", &[VARS[x], VARS[y]]);
            }
            // ... some joins against the random binary relation ...
            6..=7 => {
                let x = use_var(rng, &mut used);
                let mut y = use_var(rng, &mut used);
                while y == x {
                    y = use_var(rng, &mut used);
                }
                builder = builder.atom("r1", &[VARS[x], VARS[y]]);
            }
            // ... and unary sample restrictions.
            _ => {
                let u = if rng.gen_bool(0.5) { "u1" } else { "u2" };
                let x = use_var(rng, &mut used);
                builder = builder.atom(u, &[VARS[x]]);
            }
        }
    }
    for _ in 0..rng.gen_range(0u32..3) {
        if used.len() < 2 {
            break;
        }
        let x = used[rng.gen_range(0usize..used.len())];
        let y = used[rng.gen_range(0usize..used.len())];
        if x != y {
            builder = builder.lt(VARS[x], VARS[y]);
        }
    }
    builder.build()
}

/// The general-purpose engines every case must agree on.
fn fuzz_engines() -> [Engine; 6] {
    [
        Engine::Lftj,
        Engine::Minesweeper(MsConfig::default()),
        // Idea 8 off: every output takes its own iteration.
        Engine::Minesweeper(MsConfig { idea8_batch_counting: false, ..MsConfig::default() }),
        // Caching off takes every query — the binary acyclic ones included — out of
        // chain mode, where exhausted levels are left by conflict-directed backjumps.
        Engine::Minesweeper(MsConfig {
            idea5_caching: false,
            idea6_complete_nodes: false,
            ..MsConfig::default()
        }),
        Engine::HashJoin(ExecLimits::default()),
        Engine::SortMergeJoin(ExecLimits::default()),
    ]
}

/// Runs one differential case; every assertion names the case and seed.
fn run_case(case: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_database(&mut rng);
    let query = random_query(&mut rng, case);
    let ctx = format!("case {case} seed {seed:#018x} [{query}]");
    differential_case(&db, &query, &ctx);
}

/// The shared differential body: every engine must agree with the LFTJ
/// reference on `query` over `db` — count, sorted collect, and the parallel
/// entry points at 1 and 4 threads — and every valid hybrid split must agree
/// on the count. `ctx` (carrying the reproducing seed) prefixes every
/// assertion.
fn differential_case(db: &Database, query: &Query, ctx: &str) {
    // Reference: LFTJ's sorted row set.
    let reference = {
        let prepared = db
            .prepare(query, &Engine::Lftj)
            .unwrap_or_else(|e| panic!("{ctx}: reference prepare failed: {e}"));
        let mut rows =
            prepared.collect().unwrap_or_else(|e| panic!("{ctx}: reference collect failed: {e}"));
        rows.sort_unstable();
        rows
    };

    for engine in fuzz_engines() {
        let label = format!("{ctx} {}", engine.label());
        let prepared =
            db.prepare(query, &engine).unwrap_or_else(|e| panic!("{label}: prepare failed: {e}"));
        let count = prepared.count().unwrap_or_else(|e| panic!("{label}: count failed: {e}"));
        assert_eq!(count as usize, reference.len(), "{label}: count disagrees");

        let serial = prepared.collect().unwrap_or_else(|e| panic!("{label}: collect failed: {e}"));
        let mut sorted = serial.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, reference, "{label}: sorted collect disagrees");

        for threads in [1usize, 4] {
            let tlabel = format!("{label} threads {threads}");
            assert_eq!(
                prepared.par_count(threads).unwrap_or_else(|e| panic!("{tlabel}: {e}")),
                count,
                "{tlabel}: par_count disagrees"
            );
            assert_eq!(
                prepared.par_collect(threads).unwrap_or_else(|e| panic!("{tlabel}: {e}")),
                serial,
                "{tlabel}: par_collect is not byte-identical to serial collect"
            );
            let mut exists = ExistsSink::new();
            prepared.run_parallel(&mut exists, threads).unwrap_or_else(|e| panic!("{tlabel}: {e}"));
            assert_eq!(exists.found(), !serial.is_empty(), "{tlabel}: exists disagrees");
            for k in [0usize, 1, serial.len() / 3, serial.len() + 2] {
                let prefix = first_k(&prepared, k, threads)
                    .unwrap_or_else(|e| panic!("{tlabel}: first_k({k}): {e}"));
                assert_eq!(
                    prefix,
                    serial[..k.min(serial.len())].to_vec(),
                    "{tlabel}: first_k({k}) is not the serial prefix"
                );
            }
        }
    }

    // The hybrid only counts, and only on queries it can split; every valid split
    // must agree with the reference count.
    for split in 1..query.num_vars() {
        let engine = Engine::Hybrid { split, config: MsConfig::default() };
        if let Ok(prepared) = db.prepare(query, &engine) {
            let count =
                prepared.count().unwrap_or_else(|e| panic!("{ctx}: hybrid split {split}: {e}"));
            assert_eq!(
                count as usize,
                reference.len(),
                "{ctx}: hybrid split {split} count disagrees"
            );
        }
    }
}

#[test]
fn fifty_random_queries_agree_across_engines_and_thread_counts() {
    for case in 0..CASES {
        run_case(case, case_seed(case));
    }
}

/// Number of cases the repeated-execution corpus draws (a slice of the main
/// corpus's seed stream; smaller because every case runs each engine 3 × 2 ways).
const RERUN_CASES: u64 = 12;

/// Repeated executions of one `PreparedQuery` share its plan and the database's
/// index cache; per-worker engine state starts fresh every run. Every rerun
/// must be byte-identical to the first, at one and at four threads, for count,
/// collect and first_k alike.
#[test]
fn repeated_executions_serve_warm_caches_without_drift() {
    for case in 0..RERUN_CASES {
        let seed = case_seed(1000 + case);
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_database(&mut rng);
        let query = random_query(&mut rng, 1000 + case);
        let ctx = format!("rerun case {case} seed {seed:#018x} [{query}]");

        for engine in fuzz_engines() {
            let label = format!("{ctx} {}", engine.label());
            let prepared = db
                .prepare(&query, &engine)
                .unwrap_or_else(|e| panic!("{label}: prepare failed: {e}"));
            let cold =
                prepared.collect().unwrap_or_else(|e| panic!("{label}: cold collect failed: {e}"));
            let count = cold.len() as u64;
            let k = cold.len() / 2 + 1;
            for threads in [1usize, 4] {
                for run in 0..3 {
                    let rlabel = format!("{label} threads {threads} run {run}");
                    assert_eq!(
                        prepared.par_count(threads).unwrap_or_else(|e| panic!("{rlabel}: {e}")),
                        count,
                        "{rlabel}: warm count drifted"
                    );
                    assert_eq!(
                        prepared.par_collect(threads).unwrap_or_else(|e| panic!("{rlabel}: {e}")),
                        cold,
                        "{rlabel}: warm collect is not byte-identical to the cold run"
                    );
                    assert_eq!(
                        first_k(&prepared, k, threads).unwrap_or_else(|e| panic!("{rlabel}: {e}")),
                        cold[..k.min(cold.len())].to_vec(),
                        "{rlabel}: warm first_k is not the cold prefix"
                    );
                }
            }
        }
    }
}

/// Regression: `ExecLimits::max_intermediate_rows` must abort with
/// `IntermediateBudgetExceeded` both (a) for streamed final-join rows in a serial
/// run and (b) on the parallel pairwise path, where per-worker row counts
/// aggregate into one global budget — each morsel alone stays far below the
/// budget, only the aggregate crosses it.
#[test]
fn pairwise_budget_aborts_streamed_and_parallel_runs() {
    let seed = case_seed(1234);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 40u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(0.3))
        .collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    // An open wedge: the only materialised intermediate is the edge list itself,
    // while the (much larger) wedge output streams into the sink.
    let query =
        QueryBuilder::new("wedge").atom("edge", &["a", "b"]).atom("edge", &["b", "c"]).build();
    let ctx = format!("seed {seed:#018x}");

    for engine_of in [Engine::HashJoin, Engine::SortMergeJoin] {
        let full = db.prepare(&query, &engine_of(ExecLimits::default())).unwrap();
        let count = full.count().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let edge_rows = db.instance().relation("edge").unwrap().len() as u64;
        assert!(count > edge_rows, "{ctx}: the test needs a streamed output larger than the base");

        let budget_err = |r: Result<u64, EngineError>, what: &str| {
            let err = r.expect_err(what);
            assert!(
                matches!(
                    err,
                    EngineError::Baseline(BaselineError::IntermediateBudgetExceeded { .. })
                ),
                "{ctx}: {what}: unexpected error {err:?}"
            );
        };

        let tight = db
            .prepare(&query, &engine_of(ExecLimits { max_intermediate_rows: count as usize - 1 }))
            .unwrap();
        // (a) Serial: the streamed final join overruns the budget.
        budget_err(tight.count(), "serial streamed-row budget");
        // (b) Parallel: no single worker exceeds the budget, the aggregate does.
        budget_err(tight.par_count(4), "parallel aggregated budget");
        // (c) Reruns of the same plan abort identically: the budget ledger is
        // per-execution.
        budget_err(tight.count(), "warm serial budget rerun");
        budget_err(tight.par_count(4), "warm parallel budget rerun");

        // The exact budget succeeds both ways, with identical counts — repeatedly.
        let exact = db
            .prepare(&query, &engine_of(ExecLimits { max_intermediate_rows: count as usize }))
            .unwrap();
        for _ in 0..2 {
            assert_eq!(exact.count().unwrap(), count, "{ctx}");
            assert_eq!(exact.par_count(4).unwrap(), count, "{ctx}");
        }
    }
}

/// Number of cases the cancellation corpus draws.
const CANCEL_CASES: u64 = 10;

/// Cancellation fuzz: a bounded delay failpoint stretches the first morsel claims
/// while a canceller thread fires at a case-randomized instant. Whichever way the
/// race goes, the run must end in a typed outcome — the exact count or
/// [`ExecError::Cancelled`], never a wrong answer or an untyped failure — and a
/// warm re-execution of the *same* prepared query under a fresh budget must be
/// byte-identical to the pre-cancellation rows.
#[test]
fn randomized_cancellation_never_corrupts_a_prepared_query() {
    use graphjoin::{
        fault::sites, CancelToken, CountSink, ExecError, FailAction, FailpointRegistry, QueryBudget,
    };
    use std::sync::Arc;
    use std::time::Duration;

    for case in 0..CANCEL_CASES {
        let seed = case_seed(2000 + case);
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_database(&mut rng);
        let query = random_query(&mut rng, 2000 + case);
        let ctx = format!("cancel case {case} seed {seed:#018x} [{query}]");

        for engine in fuzz_engines() {
            let label = format!("{ctx} {}", engine.label());
            let prepared = db
                .prepare(&query, &engine)
                .unwrap_or_else(|e| panic!("{label}: prepare failed: {e}"));
            let rows =
                prepared.collect().unwrap_or_else(|e| panic!("{label}: collect failed: {e}"));
            // Cancel somewhere inside (or just after) the stretched run window.
            let cancel_after = Duration::from_micros(rng.gen_range(0u64..6000));

            for threads in [1usize, 4] {
                let tlabel = format!("{label} threads {threads}");
                let fp = Arc::new(FailpointRegistry::new());
                fp.arm_after(
                    sites::MORSEL_CLAIM,
                    FailAction::Delay(Duration::from_millis(2)),
                    0,
                    4,
                );
                let token = CancelToken::default();
                let budget =
                    QueryBudget::new().with_failpoints(fp).with_cancel_token(token.clone());
                let canceller = std::thread::spawn(move || {
                    std::thread::sleep(cancel_after);
                    token.cancel();
                });
                let mut sink = CountSink::new();
                let result = prepared.try_run_parallel(&mut sink, threads, &budget);
                canceller.join().unwrap();
                match result {
                    Ok(_) => assert_eq!(
                        sink.rows(),
                        rows.len() as u64,
                        "{tlabel}: a completed race must be exact"
                    ),
                    Err(EngineError::Exec(ExecError::Cancelled)) => {}
                    Err(other) => panic!("{tlabel}: untyped cancellation outcome: {other}"),
                }
                // Warm rerun under a fresh, unlimited budget: byte-identical rows.
                assert_eq!(
                    prepared.par_collect(threads).unwrap_or_else(|e| panic!("{tlabel}: {e}")),
                    rows,
                    "{tlabel}: post-cancellation rerun drifted"
                );
            }
        }
    }
}

/// Number of cases the persistence corpus draws (each case persists a store,
/// reopens it and runs every engine twice, so it is a slice of the main corpus).
const PERSIST_CASES: u64 = 16;

/// Persistence differential: every random database, persisted to a paged disk
/// store and reopened through lazy catalog slots, must be query-indistinguishable
/// from the in-RAM original — identical counts and **byte-identical**
/// `par_collect` rows for every engine, with hydration actually deferred until
/// the first query touches a relation. Then one durable edit batch on `edge` and
/// one on a sample relation are committed to the reopened store (and applied to
/// the in-RAM twin), and a second restart must still answer like memory, the
/// graph engine's clique counts included. Last, `edge` is durably replaced by a
/// random symmetric graph, and after a third open the graph engine must count
/// the cliques of that relation exactly as LFTJ does on the same database.
#[test]
fn persisted_and_reopened_databases_are_query_identical() {
    let scratch = std::env::temp_dir().join(format!("gj-fuzz-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    for case in 0..PERSIST_CASES {
        let seed = case_seed(3000 + case);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = random_database(&mut rng);
        let query = random_query(&mut rng, 3000 + case);
        let ctx = format!("persist case {case} seed {seed:#018x} [{query}]");

        let dir = scratch.join(format!("case-{case}"));
        db.persist(&dir).unwrap_or_else(|e| panic!("{ctx}: persist failed: {e}"));
        let mut reopened =
            Database::open(&dir).unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
        assert!(
            !reopened.instance().is_resident("edge"),
            "{ctx}: open must not hydrate relation extents"
        );
        let checks: Vec<(&Query, Engine)> = fuzz_engines().map(|e| (&query, e)).into();
        assert_disk_matches_memory(&db, &reopened, &checks, &ctx);
        for name in query.relation_names() {
            assert!(
                reopened.instance().is_resident(name),
                "{ctx}: queries hydrate the relations they touch ({name})"
            );
        }

        let sample = ["u1", "u2", "r1"][rng.gen_range(0usize..3)];
        let batches = [
            ("edge", random_edge_edit(&mut rng, &db)),
            (sample, random_edit(&mut rng, &db, sample)),
        ];
        for (name, (ins, del)) in &batches {
            let durable = reopened
                .commit_edits(name, ins, del)
                .unwrap_or_else(|e| panic!("{ctx}: commit_edits({name}) failed: {e}"));
            let memory = db.edit_rows(name, ins, del).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(durable, memory, "{ctx}: {name} batch changed a different number of rows");
        }
        drop(reopened);
        let mut restarted =
            Database::open(&dir).unwrap_or_else(|e| panic!("{ctx}: second open failed: {e}"));
        assert_eq!(
            restarted.graph().as_ref().map(Graph::num_nodes),
            db.graph().as_ref().map(Graph::num_nodes),
            "{ctx}: restarted graph node count"
        );
        let cliques = [CatalogQuery::ThreeClique.query(), CatalogQuery::FourClique.query()];
        let mut checks: Vec<(&Query, Engine)> = fuzz_engines().map(|e| (&query, e)).into();
        for clique in &cliques {
            checks.push((clique, Engine::Lftj));
            // The graph engine only counts, so it gets no rows check.
            let graph_engine = |d: &Database| {
                d.count(clique, &Engine::GraphEngine)
                    .unwrap_or_else(|e| panic!("{ctx}: graph engine on {}: {e}", clique.name))
            };
            assert_eq!(
                graph_engine(&restarted),
                graph_engine(&db),
                "{ctx}: graph engine on {} disagrees after the restart",
                clique.name
            );
        }
        assert_disk_matches_memory(&db, &restarted, &checks, &format!("{ctx} after edits"));

        let replacement =
            random_database(&mut rng).graph().expect("random databases carry a graph");
        restarted
            .commit_relation("edge", replacement.edge_relation())
            .unwrap_or_else(|e| panic!("{ctx}: commit_relation(edge) failed: {e}"));
        drop(restarted);
        let replaced =
            Database::open(&dir).unwrap_or_else(|e| panic!("{ctx}: third open failed: {e}"));
        for clique in &cliques {
            let count = |engine: &Engine| {
                replaced
                    .count(clique, engine)
                    .unwrap_or_else(|e| panic!("{ctx}: {} on {}: {e}", engine.label(), clique.name))
            };
            assert_eq!(
                count(&Engine::GraphEngine),
                count(&Engine::Lftj),
                "{ctx}: graph engine and LFTJ disagree on {} over a replaced edge",
                clique.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Every `(query, engine)` pair counts the same on `disk` as on `mem` and
/// returns byte-identical `par_collect` rows.
fn assert_disk_matches_memory(
    mem: &Database,
    disk: &Database,
    checks: &[(&Query, Engine)],
    ctx: &str,
) {
    for (query, engine) in checks {
        let label = format!("{ctx} {} on {}", engine.label(), query.name);
        let mem = mem.prepare(query, engine).unwrap_or_else(|e| panic!("{label}: prepare: {e}"));
        let disk = disk
            .prepare(query, engine)
            .unwrap_or_else(|e| panic!("{label}: reopened prepare failed: {e}"));
        assert_eq!(
            disk.count().unwrap_or_else(|e| panic!("{label}: {e}")),
            mem.count().unwrap_or_else(|e| panic!("{label}: {e}")),
            "{label}: reopened count disagrees"
        );
        assert_eq!(
            disk.par_collect(4).unwrap_or_else(|e| panic!("{label}: {e}")),
            mem.par_collect(4).unwrap_or_else(|e| panic!("{label}: {e}")),
            "{label}: reopened par_collect is not byte-identical"
        );
    }
}

/// One random undirected edit batch on `edge`: up to 3 new edges (endpoints may
/// lie up to two ids past the graph, growing it) and up to 2 existing edges
/// deleted, each in both orientations so the relation stays symmetric.
fn random_edge_edit(rng: &mut StdRng, db: &Database) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let nodes = db.graph().expect("random databases carry a graph").num_nodes() as i64;
    let both = |a: i64, b: i64| [vec![a, b], vec![b, a]];
    let mut ins = Vec::new();
    for _ in 0..rng.gen_range(0usize..4) {
        let (a, b) = (rng.gen_range(0..nodes + 2), rng.gen_range(0..nodes + 2));
        if a != b {
            ins.extend(both(a, b));
        }
    }
    let edge = db.instance().relation("edge").expect("edge relation");
    let mut del = Vec::new();
    for _ in 0..rng.gen_range(0usize..3) {
        if !edge.is_empty() {
            let row = edge.row(rng.gen_range(0..edge.len()));
            del.extend(both(row[0], row[1]));
        }
    }
    (ins, del)
}

/// Number of (graph, edit-script) cases the incremental-edit corpus draws.
const EDIT_CASES: u64 = 12;
/// Edit batches per case, each followed by a full differential check.
const EDIT_STEPS: usize = 5;

/// A from-scratch twin of `db`: same relations, fresh indexes, shared nothing.
fn rebuilt_twin(db: &Database) -> Database {
    let names: Vec<String> = db.instance().relation_names().map(str::to_string).collect();
    let mut fresh = Database::new();
    for name in names {
        let relation = db.instance().relation(&name).expect("resident relation").clone();
        fresh.add_relation(name, relation);
    }
    fresh
}

/// One random edit batch against relation `name`: up to 3 random inserts (drawn
/// from a domain wider than the base data, so keys land outside the base trie's
/// first-level range) and up to 3 deletes sampled from the current rows.
fn random_edit(rng: &mut StdRng, db: &Database, name: &str) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let current = db.instance().relation(name).expect("editable relation");
    let arity = current.arity();
    let ins: Vec<Vec<i64>> = (0..rng.gen_range(0usize..4))
        .map(|_| (0..arity).map(|_| rng.gen_range(0i64..60)).collect())
        .collect();
    let mut del: Vec<Vec<i64>> = Vec::new();
    if !current.is_empty() {
        for _ in 0..rng.gen_range(0usize..4) {
            del.push(current.row(rng.gen_range(0usize..current.len())).to_vec());
        }
    }
    // The occasional no-op delete of an absent row keeps normalization honest.
    if rng.gen_bool(0.3) {
        del.push((0..arity).map(|_| rng.gen_range(100i64..160)).collect());
    }
    (ins, del)
}

/// Incremental-edit differential fuzz: random insert/delete batches interleaved
/// with queries. After every batch, each engine's serial and parallel answers
/// over the *edited* database (whose cached indexes absorbed the edits through
/// their delta layers — `indexes_built() == 0`) must match a from-scratch
/// rebuild over the same logical data. Failures print the case seed.
#[test]
fn random_edit_scripts_agree_with_from_scratch_rebuilds() {
    for case in 0..EDIT_CASES {
        let seed = case_seed(4000 + case);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = random_database(&mut rng);
        let query = random_query(&mut rng, 4000 + case);
        let ctx = format!("edit case {case} seed {seed:#018x} [{query}]");

        // Warm every engine before the first edit, so later preparations must
        // be served by delta-updated indexes rather than rebuilds.
        for engine in fuzz_engines() {
            db.prepare(&query, &engine)
                .unwrap_or_else(|e| panic!("{ctx}: warm prepare failed: {e}"));
        }

        for step in 0..EDIT_STEPS {
            let name = ["edge", "r1", "u1"][rng.gen_range(0usize..3)];
            let (ins, del) = random_edit(&mut rng, &db, name);
            db.edit_rows(name, &ins, &del)
                .unwrap_or_else(|e| panic!("{ctx} step {step}: edit on {name} failed: {e}"));

            let fresh = rebuilt_twin(&db);
            for engine in fuzz_engines() {
                let label = format!("{ctx} step {step} {}", engine.label());
                let prepared = db
                    .prepare(&query, &engine)
                    .unwrap_or_else(|e| panic!("{label}: prepare failed: {e}"));
                if matches!(engine, Engine::Lftj | Engine::Minesweeper(_)) {
                    assert_eq!(
                        prepared.indexes_built(),
                        0,
                        "{label}: edits must update cached indexes, not rebuild them"
                    );
                }
                let twin = fresh
                    .prepare(&query, &engine)
                    .unwrap_or_else(|e| panic!("{label}: twin prepare failed: {e}"));
                let expected = twin.count().unwrap_or_else(|e| panic!("{label}: {e}"));
                let mut expected_rows = twin.collect().unwrap_or_else(|e| panic!("{label}: {e}"));
                expected_rows.sort_unstable();
                let mut got = prepared.collect().unwrap_or_else(|e| panic!("{label}: {e}"));
                got.sort_unstable();
                assert_eq!(got, expected_rows, "{label}: sorted collect disagrees with rebuild");
                for threads in [1usize, 4] {
                    assert_eq!(
                        prepared.par_count(threads).unwrap_or_else(|e| panic!("{label}: {e}")),
                        expected,
                        "{label} threads {threads}: count disagrees with a from-scratch rebuild"
                    );
                }
            }
        }
    }
}

/// Number of cases the LDBC typed-catalog corpus draws.
const LDBC_CASES: u64 = 20;

/// A random LDBC social network (small, randomized shape) plus its catalog:
/// the typed multi-relation schema the single-`edge` corpus never covers.
fn random_ldbc_database(rng: &mut StdRng) -> (Database, gj_datagen::Catalog) {
    let config = gj_datagen::LdbcConfig {
        persons: rng.gen_range(30usize..80),
        avg_friends: rng.gen_range(3usize..7),
        posts_per_person: rng.gen_range(2usize..4),
        tags: rng.gen_range(8usize..20),
        likes_per_person: rng.gen_range(5usize..12),
        tags_per_post: rng.gen_range(1usize..3),
        days: rng.gen_range(16usize..33),
        tag_selectivity: rng.gen_range(2u32..5),
        person_selectivity: rng.gen_range(2u32..5),
        seed: rng.next_u64(),
    };
    let net = gj_datagen::SocialNetwork::generate(&config).expect("valid random LDBC config");
    let mut db = Database::new();
    for (name, rel) in net.relations() {
        db.add_relation(*name, rel.clone());
    }
    (db, net.catalog().clone())
}

/// A random *typed* conjunctive query over the LDBC catalog: 2–4 atoms drawn
/// from the schema, variables shared only between columns of the same
/// [`EntityKind`](gj_datagen::EntityKind) (so joins are type-correct under the
/// disjoint id layout), every atom after the first forced to share at least
/// one variable with the query so far (no accidental cartesian blow-ups), and
/// 0–2 same-kind `<` filters.
fn random_ldbc_query(rng: &mut StdRng, catalog: &gj_datagen::Catalog, case: u64) -> Query {
    use gj_datagen::EntityKind;
    // Weighted template pool: the binary/ternary joins dominate, the unaries
    // act as selective restrictions.
    const TEMPLATES: [&str; 13] = [
        "knows",
        "knows",
        "knows",
        "likes",
        "likes",
        "likes",
        "hasCreator",
        "hasCreator",
        "hasTag",
        "hasTag",
        "post",
        "tagSample",
        "personSample",
    ];
    let prefix = |kind: EntityKind| match kind {
        EntityKind::Person => "p",
        EntityKind::Post => "m",
        EntityKind::Tag => "t",
        EntityKind::Day => "d",
    };
    let mut pools: Vec<(EntityKind, Vec<String>)> = Vec::new();
    let mint = |pools: &mut Vec<(EntityKind, Vec<String>)>, kind: EntityKind| -> String {
        let pool = match pools.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, pool)) => pool,
            None => {
                pools.push((kind, Vec::new()));
                &mut pools.last_mut().expect("just pushed").1
            }
        };
        let name = format!("{}{}", prefix(kind), pool.len());
        pool.push(name.clone());
        name
    };
    let mut builder = QueryBuilder::new(format!("ldbc-fuzz-{case}"));
    let atoms = rng.gen_range(2usize..5);
    for atom_idx in 0..atoms {
        let relation = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
        let columns = catalog.relation(relation).expect("catalog relation").columns.clone();
        // Pick one column to force-share with the query so far (if possible).
        let shareable: Vec<usize> = columns
            .iter()
            .enumerate()
            .filter(|(_, kind)| pools.iter().any(|(k, pool)| k == *kind && !pool.is_empty()))
            .map(|(i, _)| i)
            .collect();
        let forced = (atom_idx > 0 && !shareable.is_empty())
            .then(|| shareable[rng.gen_range(0..shareable.len())]);
        let mut vars: Vec<String> = Vec::with_capacity(columns.len());
        for (i, &kind) in columns.iter().enumerate() {
            // Candidates: existing vars of this kind not already in this atom
            // (an atom may not repeat a variable).
            let pool: Vec<String> = pools
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, p)| p.iter().filter(|v| !vars.contains(v)).cloned().collect())
                .unwrap_or_default();
            let reuse = !pool.is_empty() && (forced == Some(i) || rng.gen_bool(0.5));
            let var = if reuse {
                pool[rng.gen_range(0..pool.len())].clone()
            } else {
                mint(&mut pools, kind)
            };
            vars.push(var);
        }
        let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        builder = builder.atom(relation, &var_refs);
    }
    // Same-kind order filters: comparing across kinds is vacuous under the
    // disjoint id layout.
    for _ in 0..rng.gen_range(0u32..3) {
        if let Some((_, pool)) = pools
            .iter()
            .filter(|(_, pool)| pool.len() >= 2)
            .nth(rng.gen_range(0usize..pools.len().max(1)))
        {
            let x = rng.gen_range(0..pool.len());
            let y = rng.gen_range(0..pool.len());
            if x != y {
                builder = builder.lt(&pool[x.min(y)], &pool[x.max(y)]);
            }
        }
    }
    builder.build()
}

/// LDBC typed-catalog differential fuzz: random multi-relation queries over
/// random social networks, every engine × {1, 4} threads against the LFTJ
/// reference. Failures print the reproducing case seed.
#[test]
fn random_ldbc_queries_agree_across_engines_and_thread_counts() {
    for case in 0..LDBC_CASES {
        let seed = case_seed(5000 + case);
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, catalog) = random_ldbc_database(&mut rng);
        let query = random_ldbc_query(&mut rng, &catalog, case);
        let ctx = format!("ldbc case {case} seed {seed:#018x} [{query}]");
        differential_case(&db, &query, &ctx);
    }
}

/// The LDBC corpus stays meaningful: enough non-empty and multi-row answers,
/// and a healthy share of queries actually touching the ternary `likes`.
#[test]
fn ldbc_fuzz_corpus_is_not_vacuous() {
    let mut non_empty = 0usize;
    let mut multi_row = 0usize;
    let mut ternary = 0usize;
    for case in 0..LDBC_CASES {
        let seed = case_seed(5000 + case);
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, catalog) = random_ldbc_database(&mut rng);
        let query = random_ldbc_query(&mut rng, &catalog, case);
        let rows = db.prepare(&query, &Engine::Lftj).unwrap().count().unwrap();
        non_empty += usize::from(rows > 0);
        multi_row += usize::from(rows > 8);
        ternary += usize::from(query.relation_names().contains(&"likes"));
    }
    assert!(non_empty as u64 >= LDBC_CASES / 2, "only {non_empty}/{LDBC_CASES} had rows");
    assert!(multi_row as u64 >= LDBC_CASES / 4, "only {multi_row}/{LDBC_CASES} had > 8 rows");
    assert!(ternary as u64 >= LDBC_CASES / 5, "only {ternary}/{LDBC_CASES} bound `likes`");
}

/// The corpus stays meaningful: the generator must produce a healthy share of
/// non-empty answers and some multi-row results (otherwise the differential
/// assertions above would be vacuous).
#[test]
fn fuzz_corpus_is_not_vacuous() {
    let mut non_empty = 0usize;
    let mut multi_row = 0usize;
    let mut hybrid_splittable = 0usize;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case_seed(case));
        let db = random_database(&mut rng);
        let query = random_query(&mut rng, case);
        let rows = db.prepare(&query, &Engine::Lftj).unwrap().count().unwrap();
        non_empty += usize::from(rows > 0);
        multi_row += usize::from(rows > 8);
        hybrid_splittable += usize::from((1..query.num_vars()).any(|split| {
            db.prepare(&query, &Engine::Hybrid { split, config: MsConfig::default() }).is_ok()
        }));
    }
    assert!(non_empty as u64 >= CASES / 2, "only {non_empty}/{CASES} cases had any rows");
    assert!(multi_row as u64 >= CASES / 4, "only {multi_row}/{CASES} cases had > 8 rows");
    assert!(
        hybrid_splittable as u64 >= CASES / 10,
        "only {hybrid_splittable}/{CASES} cases exercised the hybrid"
    );
}
