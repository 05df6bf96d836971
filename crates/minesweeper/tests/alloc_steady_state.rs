//! Allocation guard for the Minesweeper outer loop: in steady state (no new gap
//! discovered) an iteration must not touch the heap. The executor owns its `t` /
//! `advance` buffers and Idea 8's run-counting buffers, the CDS refills its own
//! active-set stack and chain scratch, each prober owns its trie cursor, and a probe
//! lends its gap out of the prober's memo, so on a *second* run over one
//! executor — node arena, point lists and memo buffers already grown — the only
//! allocations left are the ones a CDS insert can cause. The bound is therefore a
//! multiple of `constraints_inserted`, never of `iterations`.

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

/// Runs 3-path twice on one executor and returns the second run's statistics with
/// the allocations it made.
fn warm_run(config: MsConfig) -> (Counters, u64) {
    let inst = sampled_instance(7, 120, 0.05);
    let query = CatalogQuery::ThreePath.query();
    let bq = BoundQuery::new(&inst, &query, None).unwrap();
    let mut exec = MinesweeperExecutor::new(&bq, config);
    let all = Morsel::whole_axis();
    let mut run = || {
        exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |_, _| ControlFlow::Continue(()))
    };

    let cold = run();
    let (warm, allocations) = counting_alloc::allocations_during(run);
    assert_eq!(warm, cold, "a re-run on one executor repeats the first run exactly");
    (warm, allocations)
}

/// Nothing per iteration; per inserted constraint at most a point-list growth and an
/// arena growth; the constant covers per-run setup.
fn assert_allocates_per_constraint((warm, allocations): (Counters, u64)) {
    let bound = 2 * warm.constraints_inserted + 16;
    assert!(
        bound < warm.iterations,
        "vacuous: {} iterations cannot exceed the bound {bound}",
        warm.iterations
    );
    assert!(
        allocations <= bound,
        "{allocations} allocations on a warm run of {} iterations / {} constraints (bound {bound})",
        warm.iterations,
        warm.constraints_inserted
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
    let (warm, allocations) = warm_run(MsConfig::default());
    assert!(warm.batched_runs > 0, "vacuous: no run was counted from a complete node");
    assert_allocates_per_constraint((warm, allocations));
}
