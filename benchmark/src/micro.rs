//! Micro-measurements, one block per layer: each times calls into a layer's
//! public functions on fixed-size inputs, or reads counters the public API
//! already returns. They do not depend on the workload of the run and cost
//! a few seconds in all; every traced run makes them.
//!
//! Each timing is a median over `micro_reps` repetitions (per-call figures
//! average thousands of calls inside one repetition). Counts marked *exact*
//! in the README come from one deterministic execution.

use crate::config::{Ctx, CLIENTS, DATA_SEED, EDIT_ROWS};
use crate::data::{self, prepare, Graveyards, SocialInput};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::stats::median;
use crate::workloads::durable::StoreDir;
use crate::workloads::serve::service_config;
use gj_lftj::{LeapfrogJoin, LftjExecutor};
use gj_minesweeper::{Cds, Constraint, PatternComp};
use gj_runtime::{drive, partition_first_attribute, scoped_workers, ExecCtx, Morsel, MorselSource};
use gj_service::{Gate, HistoryLog, Service, SessionEvent};
use gj_store::{BufferPool, Pager, PAGE_SIZE};
use graphjoin::{
    CountSink, Database, Engine, ExecLimits, LdbcQuery, PreparedQuery, Query, Relation, Store,
    TrieIndex, Val,
};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median over `reps` runs of a closure that returns seconds.
fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps.max(1)).map(|_| f()).collect::<Vec<_>>())
}

/// Median `RunStats.run` and `RunStats.bind` in seconds, plus the stats of
/// the last execution.
fn run_stats(reps: usize, prepared: &PreparedQuery<'_>) -> (f64, f64, graphjoin::RunStats) {
    let runs: Vec<graphjoin::RunStats> = (0..reps.max(1))
        .map(|_| prepared.count_with_stats().expect("count_with_stats").1)
        .collect();
    let run = median(&runs.iter().map(|s| s.run.as_secs_f64()).collect::<Vec<_>>());
    let bind = median(&runs.iter().map(|s| s.bind.as_secs_f64()).collect::<Vec<_>>());
    (run, bind, runs.into_iter().last().expect("at least one run"))
}

/// Wall seconds of one count of every prepared query.
fn sweep_secs(prepared: &[PreparedQuery<'_>]) -> f64 {
    secs(|| prepared.iter().for_each(|p| drop(black_box(p.count())))).1
}

/// An *effective* batch for the raw storage calls, whose preconditions are
/// that inserts are absent and deletes present.
fn effective_batch(
    rng: &mut Rng,
    rel: &Relation,
    domain: (Val, Val),
    rows: usize,
) -> (Relation, Relation) {
    let mut del: Vec<Vec<Val>> = Vec::new();
    let mut ins: Vec<Vec<Val>> = Vec::new();
    while del.len() < rows.min(rel.len() / 2) {
        let row = rel.row(rng.below(rel.len())).to_vec();
        if !del.contains(&row) {
            del.push(row);
        }
    }
    while ins.len() < rows {
        let mut row = rel.row(rng.below(rel.len())).to_vec();
        row[0] = domain.0 + rng.below((domain.1 - domain.0) as usize) as Val;
        if !rel.contains(&row) && !ins.contains(&row) {
            ins.push(row);
        }
    }
    (Relation::from_rows(rel.arity(), ins), Relation::from_rows(rel.arity(), del))
}

pub fn run(ctx: &Ctx, m: &mut Metrics) {
    let started = Instant::now();
    let graph = data::graph_input(ctx.sizes.graph_nodes, ctx.seed).graph;
    let big = data::social_input(ctx.sizes.persons, ctx.seed);
    let small = data::social_input(ctx.sizes.ms_persons, ctx.seed);
    let mut graph_db = Database::new();
    graph_db.add_graph(graph);
    let big_db = big.database();
    let small_db = small.database();

    storage(ctx, &graph_db, m);
    lftj(ctx, &graph_db, &big_db, m);
    minesweeper_and_baselines(ctx, &small_db, &big_db, m);
    runtime(ctx, &graph_db, &small_db, m);
    query_and_core(ctx, &big, &big_db, m);
    store(ctx, &big, &big_db, m);
    service(ctx, &big, &big_db, &small_db, m);
    println!("micro-measurements: {:.2} s", started.elapsed().as_secs_f64());
}

fn storage(ctx: &Ctx, graph_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let nodes = ctx.sizes.graph_nodes as Val;
    let edge = graph_db.instance().relation("edge").expect("edge relation").clone();
    let mut rng = Rng::new(ctx.seed, 0x5701);
    m.set(
        "storage.trie_build_ms",
        med(reps, || secs(|| black_box(TrieIndex::build(&edge, &[0, 1]))).1) * 1e3,
    );
    let solid = TrieIndex::build(&edge, &[0, 1]);
    let (ins, del) = effective_batch(&mut rng, &edge, (0, nodes), 128);
    let merged = solid.with_edits(&ins, &del);

    // Seeks at a fixed stride under every first-level key: the access LFTJ
    // makes when it leapfrogs through a node's neighbours.
    let seek_ns = |index: &TrieIndex| {
        med(reps, || {
            let mut seeks = 0u64;
            let ((), s) = secs(|| {
                let mut it = index.iter();
                it.open();
                while !it.at_end() {
                    it.open();
                    let mut target = 0;
                    while !it.at_end() {
                        it.seek(target);
                        seeks += 1;
                        if it.at_end() {
                            break;
                        }
                        target = it.key() + 2;
                    }
                    it.up();
                    it.next();
                }
            });
            s * 1e9 / seeks as f64
        })
    };
    let (solid_ns, merged_ns) = (seek_ns(&solid), seek_ns(&merged));
    m.set("storage.seek_solid_ns", solid_ns);
    m.set("storage.seek_merged_ns", merged_ns);
    m.set("storage.merged_over_solid", merged_ns / solid_ns);

    m.set(
        "storage.scan_solid_ns_per_tuple",
        med(reps, || {
            let mut tuples = 0u64;
            let ((), s) = secs(|| {
                let mut it = solid.iter();
                it.open();
                while !it.at_end() {
                    it.open();
                    while !it.at_end() {
                        tuples += 1;
                        it.next();
                    }
                    it.up();
                    it.next();
                }
            });
            s * 1e9 / black_box(tuples) as f64
        }),
    );

    let probes: Vec<[Val; 2]> = (0..20_000)
        .map(|_| [rng.below(nodes as usize) as Val, rng.below(nodes as usize) as Val])
        .collect();
    m.set(
        "storage.probe_solid_ns",
        med(reps, || {
            secs(|| {
                probes.iter().for_each(|t| {
                    black_box(solid.probe(t));
                })
            })
            .1
        }) * 1e9
            / probes.len() as f64,
    );

    let (ins, del) = effective_batch(&mut rng, &edge, (0, nodes), EDIT_ROWS);
    m.set(
        "storage.trie_with_edits_us",
        med(reps * 20, || secs(|| black_box(solid.with_edits(&ins, &del))).1) * 1e6,
    );
    m.set(
        "storage.relation_with_edits_us",
        med(reps * 20, || secs(|| black_box(edge.with_edits(&ins, &del))).1) * 1e6,
    );
}

fn lftj(ctx: &Ctx, graph_db: &Database, big_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let nodes = ctx.sizes.graph_nodes;
    let edge = graph_db.instance().relation("edge").expect("edge relation");
    // Unary leapfrog over first levels: every node with an out-edge, a 1-in-2
    // node sample and a 1-in-10 node sample.
    let tries = [
        TrieIndex::build(edge, &[0, 1]),
        TrieIndex::build_natural(&gj_datagen::node_sample(nodes, 2, DATA_SEED)),
        TrieIndex::build_natural(&gj_datagen::node_sample(nodes, 10, DATA_SEED + 1)),
    ];
    for k in [2usize, 3] {
        let offered: usize = tries[..k].iter().map(|t| t.level_values(0).len()).sum();
        let passes = 200;
        let per_key = med(reps, || {
            secs(|| {
                for _ in 0..passes {
                    let mut iters: Vec<_> = tries[..k].iter().map(TrieIndex::iter).collect();
                    iters.iter_mut().for_each(|it| it.open());
                    let mut join = LeapfrogJoin::new((0..k).collect());
                    join.init(&mut iters);
                    while !join.at_end() {
                        black_box(join.key());
                        join.next(&mut iters);
                    }
                }
            })
            .1 * 1e9
                / (passes * offered) as f64
        });
        m.set(&format!("lftj.intersect{k}_ns_per_key"), per_key);
    }

    let mut binds = Vec::new();
    for query in data::cyclic_queries() {
        let prepared = prepare(graph_db, &query, &Engine::Lftj);
        let (run, bind, stats) = run_stats(reps, &prepared);
        m.set(&format!("lftj.{}.run_ms", query.name), run * 1e3);
        let explored = stats.extra("bindings_explored").expect("LFTJ reports bindings_explored");
        m.set(&format!("lftj.{}.bindings_explored", query.name), explored as f64);
        binds.push(bind);
    }
    m.set("lftj.bind_us", median(&binds) * 1e6);

    let mix: Vec<_> =
        data::serve_queries().iter().map(|q| prepare(big_db, q, &Engine::Lftj)).collect();
    m.set("lftj.ldbc_sweep_ms", med(reps, || sweep_secs(&mix)) * 1e3);
}

fn minesweeper_and_baselines(ctx: &Ctx, small_db: &Database, big_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let ms = data::minesweeper();
    let nodes = ctx.sizes.ms_graph_nodes;
    let mut sampled_db = Database::new();
    sampled_db.add_graph(data::graph_input(nodes, ctx.seed).graph);
    for (name, sample) in gj_datagen::sample_relations(nodes, 10, 2, DATA_SEED) {
        sampled_db.add_relation(name, sample);
    }

    let on_graph = data::ms_graph_queries();
    let on_social = [LdbcQuery::MutualFans.query(), LdbcQuery::TaggedCreatorPath.query()];
    let cells =
        on_graph.iter().map(|q| (&sampled_db, q)).chain(on_social.iter().map(|q| (small_db, q)));
    for (db, query) in cells {
        let prepared = prepare(db, query, &ms);
        let (run, _, stats) = run_stats(reps, &prepared);
        m.set(&format!("minesweeper.{}.run_ms", query.name), run * 1e3);
        if query.name == "3-path" || query.name == "mutual-fans" {
            for counter in ["probes", "cds_nodes", "constraints_inserted"] {
                let value = stats.extra(counter).expect("Minesweeper reports its counters");
                m.set(&format!("minesweeper.{}.{counter}", query.name), value as f64);
            }
            // The paper-fidelity gap: the same prepared instance under LFTJ.
            let (lftj_run, _, _) = run_stats(reps, &prepare(db, query, &Engine::Lftj));
            m.set(&format!("minesweeper.over_lftj.{}", query.name), run / lftj_run);
        }
    }
    // Above 1, two workers beat one by more than their count: range restarts
    // collect the constraint store's garbage, and the serial run's store grows
    // super-linearly (the cliff). One execution each; the serial one is slow.
    let cliff_db = data::social_input(ctx.sizes.cliff_persons, ctx.seed).database();
    let cliff = prepare(&cliff_db, &on_social[0], &ms);
    let serial = secs(|| black_box(cliff.count())).1;
    let par2 = secs(|| black_box(cliff.par_count(CLIENTS))).1;
    m.set("minesweeper.serial_over_par2.mutual-fans", serial / (CLIENTS as f64 * par2));

    // The constraint store alone, at 10 000 constraints over two attributes.
    let constraints = if ctx.smoke { 500 } else { 10_000 };
    let mut rng = Rng::new(ctx.seed, 0xcd5);
    let mut cds = Cds::new(2, false, false).with_domain_max(4096);
    let batch: Vec<Constraint> = (0..constraints)
        .map(|_| {
            let low = rng.below(4000) as Val;
            Constraint::new(
                vec![PatternComp::Eq(rng.below(1024) as Val)],
                (low, low + 2 + rng.below(8) as Val),
            )
        })
        .collect();
    let ((), s) = secs(|| batch.iter().for_each(|c| cds.insert_constraint(c)));
    m.set("minesweeper.cds_insert_ns", s * 1e9 / batch.len() as f64);
    let mut free_s = 0.0;
    let mut found = 0u64;
    for _ in 0..constraints / 5 {
        let (more, s) = secs(|| cds.compute_free_tuple());
        free_s += s;
        found += 1;
        if !more {
            break;
        }
        // Rule the found tuple out, as the engine does after probing it.
        let t = cds.frontier().to_vec();
        cds.insert_constraint(&Constraint::new(vec![PatternComp::Eq(t[0])], (t[1] - 1, t[1] + 1)));
    }
    m.set("minesweeper.cds_free_tuple_ns", free_s * 1e9 / found as f64);

    // The paper's pairwise comparators on the same inputs.
    let three_path = &on_graph[0];
    let mix = data::serve_queries();
    for (label, engine) in [
        ("psql", Engine::HashJoin(ExecLimits::default())),
        ("monetdb", Engine::SortMergeJoin(ExecLimits::default())),
    ] {
        let prepared = prepare(&sampled_db, three_path, &engine);
        let run = med(reps, || secs(|| black_box(prepared.count())).1);
        m.set(&format!("baselines.{label}.3-path.run_ms"), run * 1e3);
        let prepared: Vec<_> = mix.iter().map(|q| prepare(big_db, q, &engine)).collect();
        m.set(
            &format!("baselines.{label}.ldbc_sweep_ms"),
            med(reps, || sweep_secs(&prepared)) * 1e3,
        );
    }
}

/// A source whose morsels do nothing: what is left is the driver.
struct NoopSource;

impl MorselSource for NoopSource {
    type Worker = ();
    fn worker(&self) {}
    fn run_morsel(
        &self,
        _worker: &mut (),
        _morsel: Morsel,
        _ctx: &ExecCtx<'_>,
        _emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
    ) {
    }
}

fn runtime(ctx: &Ctx, graph_db: &Database, small_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let queries = data::cyclic_queries();
    let bound = graph_db.bind(&queries[0], None).expect("bind 3-clique");
    // 16 morsels: two workers at the cyclic granularity of 8.
    let parts = CLIENTS * 8;
    m.set(
        "runtime.partition_us",
        med(reps * 20, || secs(|| black_box(partition_first_attribute(&bound, parts))).1) * 1e6,
    );
    let morsels: Vec<Morsel> = (0..64).map(|i| Morsel::new(i, i + 1)).collect();
    m.set(
        "runtime.drive_noop_us_per_morsel",
        med(reps * 5, || secs(|| drive(&NoopSource, &morsels, CLIENTS, &mut CountSink::new())).1)
            * 1e6
            / morsels.len() as f64,
    );
    for query in &queries {
        let prepared = prepare(graph_db, query, &Engine::Lftj);
        let serial = med(reps, || secs(|| black_box(prepared.count())).1);
        let par2 = med(reps, || secs(|| black_box(prepared.par_count(CLIENTS))).1);
        m.set(&format!("runtime.par2_speedup.{}", query.name), serial / par2);
    }
    // The slower worker ends a parallel run, so the costliest morsel over
    // the mean morsel caps the speed-up.
    let per_morsel: Vec<f64> = partition_first_attribute(&bound, parts)
        .iter()
        .map(|morsel| {
            med(reps, || {
                secs(|| {
                    black_box(LftjExecutor::new(&bound).with_range0(morsel.lo, morsel.hi).count())
                })
                .1
            })
        })
        .collect();
    let mean = per_morsel.iter().sum::<f64>() / per_morsel.len() as f64;
    m.set("runtime.morsel_skew.3-clique", per_morsel.iter().fold(0.0f64, |a, &b| a.max(b)) / mean);

    let tiny = prepare(small_db, &LdbcQuery::FriendTriangle.query(), &Engine::Lftj);
    let serial = med(reps * 10, || secs(|| black_box(tiny.count())).1);
    let par2 = med(reps * 10, || secs(|| black_box(tiny.par_count(CLIENTS))).1);
    m.set("runtime.par2_tiny_overhead_us", (par2 - serial) * 1e6);
}

/// Every permutation of `0..arity`, to find one the cache holds.
fn permutations(arity: usize) -> Vec<Vec<usize>> {
    if arity == 1 {
        return vec![vec![0]];
    }
    permutations(arity - 1)
        .into_iter()
        .flat_map(|p| {
            (0..arity).map(move |at| {
                let mut q = p.clone();
                q.insert(at, arity - 1);
                q
            })
        })
        .collect()
}

fn query_and_core(ctx: &Ctx, big: &SocialInput, big_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let mix = data::serve_queries();
    let creator_fan = LdbcQuery::CreatorFan.query();
    m.set(
        "query.prepare_cold_ms",
        med(reps, || {
            big_db.cache().clear();
            secs(|| drop(prepare(big_db, &creator_fan, &Engine::Lftj))).1
        }) * 1e3,
    );
    let prepared: Vec<_> = mix.iter().map(|q| prepare(big_db, q, &Engine::Lftj)).collect();
    m.set("query.cached_perms", big_db.cache().len() as f64);
    m.set(
        "query.prepare_warm_us",
        med(reps * 20, || secs(|| drop(prepare(big_db, &creator_fan, &Engine::Lftj))).1) * 1e6,
    );
    let perm = permutations(3)
        .into_iter()
        .find(|p| big_db.cache().get("likes", p).is_some())
        .expect("the read mix caches a permutation of likes");
    let gets = 100_000;
    m.set(
        "query.cache_get_ns",
        med(reps, || {
            secs(|| (0..gets).for_each(|_| drop(black_box(big_db.cache().get("likes", &perm))))).1
        }) * 1e9
            / gets as f64,
    );

    let likes = big_db.instance().relation("likes").expect("likes").clone();
    let domain = big.first_column_domain("likes");
    let mut rng = Rng::new(ctx.seed, 0xc0de);
    let (ins, del) = effective_batch(&mut rng, &likes, (domain.lo, domain.hi), EDIT_ROWS);
    let updated = likes.with_edits(&ins, &del);
    m.set(
        "query.apply_edits_us",
        med(reps * 4, || {
            let scratch = big_db.clone();
            secs(|| scratch.cache().apply_edits("likes", &ins, &del, &updated)).1
        }) * 1e6,
    );

    m.set("core.db_clone_us", med(reps * 4, || secs(|| black_box(big_db.clone())).1) * 1e6);
    let mut scratch = big_db.clone();
    let mut graveyards = Graveyards::default();
    let before = med(reps, || sweep_secs(&prepared));
    let mut edit_s = Vec::new();
    for _ in 0..reps * 4 {
        let batch = data::draw_edit(&mut rng, big, &scratch, None, &mut graveyards);
        let (got, s) = secs(|| scratch.edit_rows(batch.relation, &batch.ins, &batch.del));
        got.expect("edit_rows");
        edit_s.push(s);
    }
    m.set("core.edit_rows_us", median(&edit_s) * 1e6);
    // The same mix on the same base tries plus a small delta: the read tax.
    let after_edit: Vec<_> = mix.iter().map(|q| prepare(&scratch, q, &Engine::Lftj)).collect();
    m.set("core.post_edit_run_ratio", med(reps, || sweep_secs(&after_edit)) / before);
}

fn store(ctx: &Ctx, big: &SocialInput, big_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let dir = StoreDir::fresh("micro");
    m.set(
        "store.persist_ms",
        med(reps, || secs(|| big_db.persist(&dir.0).expect("persist")).1) * 1e3,
    );
    let open_empty =
        med(reps, || secs(|| drop(black_box(Store::open(&dir.0, None).expect("open")))).1);
    m.set("store.open_ms", open_empty * 1e3);
    m.set(
        "store.load_relation_ms",
        med(reps, || {
            let store = Store::open(&dir.0, None).expect("open");
            secs(|| drop(black_box(store.load_relation("likes").expect("load likes")))).1
        }) * 1e3,
    );
    {
        // Hydrating everything through the 64-frame pool; exact counters.
        let store = Store::open(&dir.0, None).expect("open");
        for name in store.relation_names() {
            store.load_relation(&name).expect("load");
        }
        let pool = store.pool_stats();
        m.set("store.pool_hit_rate", pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64);
        m.set("store.pool_evictions", pool.evictions as f64);
    }

    // WAL appends, then recovery of exactly those records.
    let records = if ctx.smoke { 8 } else { 32 };
    let mut rng = Rng::new(ctx.seed, 0x3a1);
    let likes = big_db.instance().relation("likes").expect("likes");
    let domain = big.first_column_domain("likes");
    let mut rows = 0;
    let mut append_s = Vec::new();
    {
        let store = Store::open(&dir.0, None).expect("open");
        for _ in 0..records {
            // Batches are drawn against the image; a row two batches share
            // makes the later one a partial no-op, which a log accepts.
            let (ins, del) = effective_batch(&mut rng, likes, (domain.lo, domain.hi), EDIT_ROWS);
            rows += ins.len() + del.len();
            append_s.push(secs(|| store.log_edit("likes", &ins, &del).expect("log_edit")).1);
        }
    }
    m.set("store.wal_append_us", median(&append_s) * 1e6);
    let wal_bytes = std::fs::metadata(dir.0.join("wal.gj")).expect("wal.gj").len();
    m.set("store.wal_bytes_per_row", wal_bytes as f64 / rows as f64);
    // Space: the image plus this log, over the 8-byte cells the user stored.
    let cells: usize = big.relations.iter().map(|(_, r)| r.len() * r.arity()).sum();
    m.set("store.bytes_per_user_byte", dir.bytes() as f64 / (8 * cells) as f64);
    let open_replaying =
        med(reps, || secs(|| drop(black_box(Store::open(&dir.0, None).expect("open")))).1);
    m.set("store.recovery_us_per_record", (open_replaying - open_empty) * 1e6 / records as f64);
    m.set(
        "store.checkpoint_ms",
        med(reps, || {
            let db = Database::open(&dir.0).expect("open");
            secs(|| db.checkpoint().expect("checkpoint")).1
        }) * 1e3,
    );

    // The pool alone: a 1024-page file behind 64 frames.
    let pages: u32 = if ctx.smoke { 128 } else { 1024 };
    let path = dir.0.join("pool.bin");
    let pager = Pager::create(&path, None).expect("create pool file");
    let page = vec![7u8; PAGE_SIZE];
    (0..pages).for_each(|p| pager.write_page(p, &page).expect("write page"));
    pager.flush().expect("flush");
    let pool = BufferPool::new(pager, 64);
    let hits = 100_000;
    m.set(
        "store.pool_fetch_hit_ns",
        med(reps, || {
            secs(|| (0..hits).for_each(|_| drop(black_box(pool.fetch(3).expect("fetch"))))).1
        }) * 1e9
            / hits as f64,
    );
    // A sequential sweep four times the pool never finds its page resident.
    m.set(
        "store.pool_fetch_miss_us",
        med(reps, || {
            secs(|| (0..pages).for_each(|p| drop(black_box(pool.fetch(p).expect("fetch"))))).1
        }) * 1e6
            / pages as f64,
    );
}

/// Median latency (seconds) of `edits` batches through `Service::edit_relation`.
fn service_edit_median(ctx: &Ctx, input: &SocialInput, service: &Service, edits: usize) -> f64 {
    let mut rng = Rng::new(ctx.seed, 0xed17);
    let mut graveyards = Graveyards::default();
    let base = service.snapshot();
    let mut lat = Vec::new();
    for _ in 0..edits {
        let batch = data::draw_edit(&mut rng, input, &base, None, &mut graveyards);
        let (got, s) = secs(|| service.edit_relation(batch.relation, &batch.ins, &batch.del));
        got.expect("edit_relation");
        lat.push(s);
    }
    median(&lat)
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        // Relaxed: the flag publishes nothing but itself.
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A warm database behind a fresh service.
fn warm_service(db: &Database, mix: &[Query]) -> Service {
    let db = db.clone();
    mix.iter().for_each(|q| drop(prepare(&db, q, &Engine::Lftj)));
    Service::new(db, service_config())
}

fn service(ctx: &Ctx, big: &SocialInput, big_db: &Database, small_db: &Database, m: &mut Metrics) {
    let reps = ctx.sizes.micro_reps;
    let mix = data::serve_queries();

    // Overhead on a cheap read: through the session, against the same query
    // prepared and counted directly on the snapshot.
    let cheap = LdbcQuery::TaggedCreatorPath.query();
    let svc = warm_service(small_db, std::slice::from_ref(&cheap));
    let session = svc.session();
    let (mut through, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..reps * 40 {
        through.push(secs(|| session.count(&cheap, &Engine::Lftj).expect("service read")).1);
        let snapshot = svc.snapshot();
        direct.push(
            secs(|| prepare(&snapshot, &cheap, &Engine::Lftj).count().expect("direct read")).1,
        );
    }
    m.set("service.overhead_us", (median(&through) - median(&direct)) * 1e6);

    let gate = Gate::new(CLIENTS, 2 * CLIENTS);
    let calls = 100_000;
    m.set(
        "service.admit_ns",
        med(reps, || {
            secs(|| (0..calls).for_each(|_| drop(black_box(gate.admit().expect("admit"))))).1
        }) * 1e9
            / calls as f64,
    );
    m.set(
        "service.snapshot_ns",
        med(reps, || secs(|| (0..calls).for_each(|_| drop(black_box(svc.snapshot())))).1) * 1e9
            / calls as f64,
    );
    let events = 20_000;
    m.set(
        "service.history_record_ns",
        med(reps, || {
            let log = HistoryLog::new();
            secs(|| {
                for seq in 0..events {
                    log.record(SessionEvent::Read {
                        session: 0,
                        seq,
                        epoch: 0,
                        query: cheap.clone(),
                        engine: Engine::Lftj,
                        count: 1,
                    });
                }
            })
            .1
        }) * 1e9
            / events as f64,
    );

    // Does a second session add throughput? Each session reads the mix twice.
    let svc = warm_service(big_db, &mix);
    let reads_per_s = |sessions: usize| {
        med(reps, || {
            let (joined, s) = secs(|| {
                scoped_workers(sessions, |_| {
                    let session = svc.session();
                    for query in mix.iter().chain(&mix) {
                        session.count(query, &Engine::Lftj).expect("service read");
                    }
                })
            });
            joined.into_iter().for_each(|r| r.expect("session thread panicked"));
            (sessions * 2 * mix.len()) as f64 / s
        })
    };
    m.set("service.sessions2_over_1", reads_per_s(CLIENTS) / reads_per_s(1));

    // Edit cost against database size: 1.0 would mean O(delta).
    let edits = if ctx.smoke { 4 } else { 24 };
    let alone = service_edit_median(ctx, big, &warm_service(big_db, &mix), edits);
    let quarter = data::social_input(ctx.sizes.persons / 4, ctx.seed);
    let quarter_svc = warm_service(&quarter.database(), &mix);
    m.set(
        "service.edit_growth_4x",
        alone / service_edit_median(ctx, &quarter, &quarter_svc, edits),
    );

    // The same edits while one session reads in a loop.
    let svc = warm_service(big_db, &mix);
    let stop = AtomicBool::new(false);
    let mut both = scoped_workers(2, |who| {
        if who == 0 {
            let session = svc.session();
            while !stop.load(Ordering::Relaxed) {
                for query in &mix {
                    session.count(query, &Engine::Lftj).expect("service read");
                }
            }
            0.0
        } else {
            // Stops the reader even if the edits panic.
            let _stop = StopOnDrop(&stop);
            service_edit_median(ctx, big, &svc, edits)
        }
    });
    let beside_reader = both.pop().expect("two workers").expect("editing thread panicked");
    both.pop().expect("two workers").expect("reader thread panicked");
    m.set("service.edit_under_readers_ratio", beside_reader / alone);
}
