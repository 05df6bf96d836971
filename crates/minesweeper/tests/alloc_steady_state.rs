//! Allocation guard for the Minesweeper outer loop: in steady state (no new gap
//! discovered) an iteration must not touch the heap. The executor owns its `t` /
//! `advance` buffers and Idea 8's run-counting buffers, the CDS refills its own
//! active-set stack and chain scratch, each prober owns its trie cursor, and a probe
//! lends its gap out of the prober's memo, so on a *second* run over one
//! executor — node arena, point lists, child tables and memo buffers already grown —
//! the only allocations left are the ones a CDS insert can cause. The bound is
//! therefore a multiple of `constraints_inserted`, never of `iterations`.

use gj_minesweeper::{MinesweeperExecutor, MsConfig};
use gj_query::{BoundQuery, CatalogQuery, Instance};
use gj_runtime::{Counters, ExecCtx, Morsel};
use gj_storage::{Graph, Relation};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::ControlFlow;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// A sparse random graph with two node samples: the 3-path workload in miniature.
fn sampled_instance(seed: u64, n: u32, p: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen_bool(p)).collect();
    let mut inst = Instance::new();
    inst.add_relation("edge", Graph::new_undirected(n as usize, edges).edge_relation());
    inst.add_relation("v1", Relation::from_values((0..n as i64).step_by(3)));
    inst.add_relation("v2", Relation::from_values((1..n as i64).step_by(2)));
    inst
}

/// The second of two 3-path runs on one executor.
struct WarmRun {
    stats: Counters,
    allocations: u64,
    /// The most children a label-indexed node of the run's CDS holds (0: none is).
    widest_table: usize,
}

/// Runs 3-path twice on one executor and returns the second run.
fn warm_run(config: MsConfig) -> WarmRun {
    let inst = sampled_instance(7, 120, 0.05);
    let query = CatalogQuery::ThreePath.query();
    let bq = BoundQuery::new(&inst, &query, None).unwrap();
    let mut exec = MinesweeperExecutor::new(&bq, config);
    let all = Morsel::whole_axis();
    let mut run = || {
        exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |_, _| ControlFlow::Continue(()))
    };

    let cold = run();
    let (stats, allocations) = counting_alloc::allocations_during(&mut run);
    assert_eq!(stats, cold, "a re-run on one executor repeats the first run exactly");
    // A run starts by resetting the CDS, so every node it holds now was built by
    // the warm run.
    let cds = exec.cds();
    let widest_table = (0..cds.num_nodes())
        .map(|id| cds.node(id))
        .filter(|node| node.is_label_indexed())
        .map(|node| node.children().count())
        .max()
        .unwrap_or(0);
    WarmRun { stats, allocations, widest_table }
}

/// Nothing per iteration; per inserted constraint at most a point-list growth and an
/// arena growth; the constant covers per-run setup. The warm run must have built
/// label-indexed nodes (`Node::is_label_indexed`, read off the CDS it leaves), so a
/// child table that grew per iteration would break the bound too.
fn assert_allocates_per_constraint(warm: WarmRun) {
    let WarmRun { stats, allocations, widest_table } = warm;
    let bound = 2 * stats.constraints_inserted + 16;
    assert!(
        bound < stats.iterations,
        "vacuous: {} iterations cannot exceed the bound {bound}",
        stats.iterations
    );
    assert!(widest_table > 1, "vacuous: no label-indexed node holds two children");
    assert!(
        allocations <= bound,
        "{allocations} allocations on a warm run of {} iterations / {} constraints (bound {bound})",
        stats.iterations,
        stats.constraints_inserted
    );
}

#[test]
fn a_warm_executor_allocates_per_constraint_not_per_iteration() {
    let config = MsConfig { idea8_batch_counting: false, ..MsConfig::default() };
    assert_allocates_per_constraint(warm_run(config));
}

/// Idea 8 (on by default) counts each run of outputs from a complete node's free
/// points in place. (Recounting runs from the extension lists once took four `Vec`s
/// per counted run, ≈ 9 400 allocations here, three times the bound.)
#[test]
fn batch_counting_allocates_per_constraint_not_per_counted_run() {
    let warm = warm_run(MsConfig::default());
    assert!(warm.stats.batched_runs > 0, "vacuous: no run was counted from a complete node");
    assert_allocates_per_constraint(warm);
}
