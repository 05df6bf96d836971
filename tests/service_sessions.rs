//! Black-box tests for the `gj-service` serving layer: many concurrent
//! sessions over one shared database must be indistinguishable from *some*
//! serial execution, saturation must surface as typed rejections (never a
//! panic, never a wrong answer), cancellation must abort cleanly mid-flight,
//! and the whole stack must compose with disk-backed databases whose
//! relations hydrate lazily under concurrent first access.

use gj_service::{Service, ServiceConfig};
use graphjoin::{
    fault::sites, CancelToken, CatalogQuery, CountSink, Database, Engine, EngineError, ExecError,
    FailAction, FailpointRegistry, Graph, Query, QueryBudget, Relation,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A seeded random database big enough that engine inner loops pass the
/// cooperative check stride (so budget-carried failpoints genuinely fire).
fn test_database(seed: u64) -> Database {
    let n: u32 = 40;
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(0.22))
        .collect();
    let mut db = Database::new();
    db.add_graph(Graph::new_undirected(n as usize, edges));
    db
}

/// A small bidirectional edge relation over `n` nodes, seeded — used as the
/// update payload so epochs genuinely change query answers.
fn random_edges(seed: u64, n: i64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.25) {
                flat.extend_from_slice(&[a, b, b, a]);
            }
        }
    }
    Relation::from_flat(2, flat)
}

fn queries() -> Vec<(Query, Engine)> {
    vec![
        (CatalogQuery::ThreeClique.query(), Engine::Lftj),
        (CatalogQuery::ThreeClique.query(), Engine::minesweeper()),
        (CatalogQuery::FourClique.query(), Engine::Lftj),
        (CatalogQuery::FourCycle.query(), Engine::minesweeper()),
    ]
}

/// N session threads race M queries each against a stream of concurrent
/// updates; afterwards the recorded history must replay serially — every
/// session read exactly what the single serial snapshot order says it should
/// have read at its epoch.
#[test]
fn concurrent_sessions_match_a_serial_snapshot_order() {
    let db = test_database(11);
    let base = db.clone();
    let service = Service::new(
        db,
        ServiceConfig { max_concurrent: 4, queue_depth: 64, ..ServiceConfig::default() },
    );
    let workload = queries();

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let service = service.clone();
            let workload = workload.clone();
            s.spawn(move || {
                let session = service.session();
                for i in 0..8usize {
                    let (q, e) = &workload[(t as usize + i) % workload.len()];
                    session.count(q, e).unwrap();
                }
            });
        }
        let updater = service.clone();
        s.spawn(move || {
            for u in 0..3u64 {
                std::thread::sleep(Duration::from_millis(3));
                updater.update_relation("edge", random_edges(100 + u, 40));
            }
        });
    });

    let history = service.history();
    assert_eq!(
        history.iter().filter(|e| matches!(e, gj_service::SessionEvent::Read { .. })).count(),
        32,
        "every read completed and was recorded"
    );
    assert_eq!(service.epoch(), 3);
    service.verify_history(&base).unwrap();
}

/// With one execution slot and an empty wait queue, a second query issued
/// while the first is (artificially) slow must be rejected *before execution*
/// with a typed `Saturated` error — and capacity must fully recover.
#[test]
fn saturation_is_a_typed_rejection_and_capacity_recovers() {
    let db = test_database(12);
    let q = CatalogQuery::ThreeClique.query();
    let expected = db.count(&q, &Engine::Lftj).unwrap();
    // Two exec threads so queries run the parallel driver, whose morsel-claim
    // loop is where the blocker's delay failpoint fires.
    let service = Service::new(
        db,
        ServiceConfig {
            max_concurrent: 1,
            queue_depth: 0,
            exec_threads: 2,
            ..ServiceConfig::default()
        },
    );

    // The blocker's budget carries a failpoint registry that delays every
    // morsel claim: the query stays in flight long enough to observe.
    let fp = Arc::new(FailpointRegistry::new());
    fp.arm(sites::MORSEL_CLAIM, FailAction::Delay(Duration::from_millis(20)));
    let slow_budget = QueryBudget::new().with_failpoints(fp);

    std::thread::scope(|s| {
        let svc = service.clone();
        let query = q.clone();
        let blocker = s.spawn(move || {
            let session = svc.session();
            session.count_with(&query, &Engine::Lftj, &slow_budget)
        });

        // Wait for the blocker to hold the only slot, then overflow.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.in_flight() == 0 {
            assert!(Instant::now() < deadline, "blocker never admitted");
            std::thread::yield_now();
        }
        let probe = service.session();
        match probe.count(&q, &Engine::Lftj) {
            Err(EngineError::Exec(ExecError::Saturated { active, capacity })) => {
                assert_eq!(capacity, 1);
                assert!(active >= 1);
            }
            // The blocker can finish between our in_flight() observation and
            // the probe's admission; then the probe simply succeeds.
            Ok(n) => assert_eq!(n, expected),
            Err(other) => panic!("expected Saturated or success, got {other:?}"),
        }
        assert_eq!(blocker.join().unwrap().unwrap(), expected, "the slow query still answers");
    });

    assert_eq!(service.in_flight(), 0, "all permits released");
    let session = service.session();
    assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), expected);
}

/// A cancel token tripped mid-flight aborts the query with a typed
/// `Cancelled` error; the failed read is not recorded, the session keeps
/// working, and the history stays serially valid.
#[test]
fn cancellation_mid_flight_is_clean_and_unrecorded() {
    let db = test_database(13);
    let base = db.clone();
    let q = CatalogQuery::FourClique.query();
    let expected = db.count(&q, &Engine::Lftj).unwrap();
    // Parallel execution so the morsel-claim delay failpoint below fires.
    let service = Service::new(
        db,
        ServiceConfig { max_concurrent: 2, queue_depth: 8, exec_threads: 2, ..Default::default() },
    );
    let session = service.session();

    // Delay every morsel claim so the query is guaranteed to still be in
    // flight when the canceller fires, and cancellation is observed at the
    // next morsel boundary.
    let fp = Arc::new(FailpointRegistry::new());
    fp.arm(sites::MORSEL_CLAIM, FailAction::Delay(Duration::from_millis(20)));
    let token = CancelToken::new();
    let budget = QueryBudget::new().with_failpoints(fp).with_cancel_token(token.clone());

    std::thread::scope(|s| {
        let canceller = s.spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
        });
        let err = session.count_with(&q, &Engine::Lftj, &budget).unwrap_err();
        match err {
            EngineError::Exec(e) => assert_eq!(e.kind(), "cancelled"),
            other => panic!("expected a cancelled abort, got {other:?}"),
        }
        canceller.join().unwrap();
    });

    assert!(service.history().is_empty(), "aborted reads are not recorded");
    assert_eq!(session.count(&q, &Engine::Lftj).unwrap(), expected, "session survives");
    service.verify_history(&base).unwrap();
}

/// A service's collects run on its `exec_threads` workers, as its counts do,
/// and return the rows of a serial `collect`, in the same order. The proof that
/// the run was partitioned: a trip armed on the second shard merge fires, and a
/// one-morsel run merges only once.
#[test]
fn collects_run_on_the_configured_exec_threads_in_serial_order() {
    let db = test_database(37);
    let q = CatalogQuery::ThreeClique.query();
    let prepared = db.prepare(&q, &Engine::Lftj).unwrap();
    let serial = prepared.collect().unwrap();
    let mut sink = CountSink::new();
    let stats = prepared.run_parallel(&mut sink, 2).unwrap();
    assert!(stats.morsels >= 2, "the first attribute must split: {} morsels", stats.morsels);
    let service = Service::new(db.clone(), ServiceConfig { exec_threads: 2, ..Default::default() });
    let session = service.session();

    assert_eq!(session.collect(&q, &Engine::Lftj).unwrap(), serial);

    let fp = Arc::new(FailpointRegistry::new());
    fp.arm_after(sites::SHARD_MERGE, FailAction::Trip, 1, 1);
    let budget = QueryBudget::new().with_failpoints(fp.clone());
    match session.collect_with(&q, &Engine::Lftj, &budget) {
        Err(EngineError::Exec(e)) => assert_eq!(e.kind(), "budget"),
        other => panic!("a partitioned collect merges twice; got {other:?}"),
    }
    assert_eq!(fp.fired().as_deref(), Some(sites::SHARD_MERGE));
    service.verify_history(&db).unwrap();
}

/// The serving layer composes with disk persistence: sessions over a
/// `Database::open`-ed store race their first queries, so lazy relation
/// hydration (per-slot `OnceLock` through the buffer pool) is exercised under
/// genuine concurrency — answers must match the in-memory original.
#[test]
fn concurrent_sessions_over_a_reopened_store_match_memory() {
    let dir = std::env::temp_dir().join(format!("gj-svc-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = test_database(14);
    db.persist(&dir).unwrap();

    let reopened = Database::open(&dir).unwrap();
    let base = reopened.clone();
    // Room for all four racing sessions: this test exercises concurrent lazy
    // hydration, not admission control.
    let service = Service::new(
        reopened,
        ServiceConfig { max_concurrent: 4, queue_depth: 64, ..ServiceConfig::default() },
    );
    let workload = queries();
    let expected: Vec<u64> = workload.iter().map(|(q, e)| db.count(q, e).unwrap()).collect();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let service = service.clone();
            let workload = workload.clone();
            let expected = expected.clone();
            s.spawn(move || {
                let session = service.session();
                for (i, (q, e)) in workload.iter().enumerate() {
                    let _ = (t, i);
                    assert_eq!(session.count(q, e).unwrap(), expected[i]);
                }
            });
        }
    });

    service.verify_history(&base).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
