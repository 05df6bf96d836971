//! The Minesweeper outer loop (Algorithm 3 of the paper) with Ideas 2, 4 and 7.
//!
//! Each iteration asks the CDS for a free tuple, probes every atom around it, and
//! either reports the tuple as an output (when every probe confirms membership and
//! every order filter holds) or feeds the discovered gap boxes back:
//!
//! * gaps from **skeleton** atoms are inserted into the CDS;
//! * gaps from **non-skeleton** atoms (Idea 7, cyclic queries only) and violated
//!   order filters only advance the frontier past the gap;
//! * in every case the frontier advances at least to the successor of the probed
//!   tuple (Idea 2 — outputs never insert unit gaps; and a probed non-output can
//!   always be stepped over, which also guarantees termination regardless of which
//!   optimisations are enabled).

use crate::cds::Cds;
use crate::gaps::{build_probers, AtomProber, ProbeOutcome};
use gj_query::gao::is_neo;
use gj_query::{acyclic_skeleton, BoundQuery, Hypergraph, Query};
use gj_runtime::{Counters, ExecCtx, Morsel};
use gj_storage::{Val, POS_INF};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Configuration of the Minesweeper executor. Every flag corresponds to one of the
/// paper's implementation ideas so the ablation tables can be regenerated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsConfig {
    /// Idea 4: remember the last gap per relation and skip redundant `seekGap` calls.
    pub idea4_gap_memo: bool,
    /// Idea 5: cache ping-pong results as intervals in the bottom chain node.
    pub idea5_caching: bool,
    /// Idea 6: complete nodes short-circuit the chain walk.
    pub idea6_complete_nodes: bool,
    /// Idea 7: for β-cyclic queries, only a β-acyclic skeleton of the atoms inserts
    /// constraints; the other atoms' gaps just advance the frontier.
    pub idea7_skeleton: bool,
    /// Idea 8 (#Minesweeper-style counting): when only a count is requested and a
    /// verified output sits under a complete last-level node (Idea 6), count the
    /// whole run of outputs sharing its first `n-1` attributes from that node's
    /// free points in one step instead of enumerating them tuple by tuple
    /// ([`Cds::complete_run_len`]). On by default; row sinks switch it off, and it
    /// does nothing where Idea 6 is off (order filters, non-skeleton atoms, no
    /// chain mode).
    pub idea8_batch_counting: bool,
    /// Granularity factor `f` of Section 4.10: a run on `threads` workers
    /// (`PreparedQuery::par_count(threads)` and friends in `gj-core`,
    /// [`crate::parallel::MsPlan::morsels`] underneath) splits the output space into
    /// `threads * granularity` jobs.
    pub granularity: usize,
}

impl Default for MsConfig {
    fn default() -> Self {
        MsConfig {
            idea4_gap_memo: true,
            idea5_caching: true,
            idea6_complete_nodes: true,
            idea7_skeleton: true,
            idea8_batch_counting: true,
            granularity: 1,
        }
    }
}

impl MsConfig {
    /// The configuration used as the "no ideas" baseline of the ablation tables.
    pub fn baseline() -> Self {
        MsConfig {
            idea4_gap_memo: false,
            idea5_caching: true,
            idea6_complete_nodes: false,
            idea7_skeleton: false,
            idea8_batch_counting: false,
            granularity: 1,
        }
    }
}

/// The Minesweeper executor for one bound query.
pub struct MinesweeperExecutor {
    config: MsConfig,
    /// Per atom: whether it inserts constraints into the CDS (Idea 7).
    skeleton: Vec<bool>,
    /// Whether the skeleton atoms form a chain-compatible (β-acyclic + NEO) structure,
    /// which is what makes interval caching into the bottom node sound.
    chain_mode: bool,
    /// Order filters indexed by the GAO position of their later variable.
    filters: Vec<Vec<(usize, bool)>>,
    /// Per-atom probers, built once and reused across runs. Their Idea 4 memos are
    /// *facts about the data* (a gap box stays a gap box whatever range is being
    /// scanned), so they deliberately survive from one run to the next — a worker
    /// carrying one executor across morsels starts each morsel pre-warmed — until
    /// [`forget_memos`](Self::forget_memos).
    probers: Vec<AtomProber>,
    /// The constraint store, allocated once and [`reset`](Cds::reset) per run so
    /// repeated executions (one per claimed morsel) recycle the node arena instead
    /// of re-allocating it.
    cds: Cds,
    /// The free tuple being probed: a copy of the CDS frontier, which the probes'
    /// constraint inserts would otherwise hold borrowed. Reused across iterations.
    t: Vec<Val>,
    /// Where the frontier moves after this iteration; raised in place by
    /// [`successor`] and [`escape`]. Reused across iterations.
    advance: Vec<Val>,
    /// How many earlier GAO positions the atoms containing the last attribute
    /// mention: the equality pins a last-level node needs before Idea 8 may count
    /// a run from it ([`Cds::complete_run_len`]).
    run_pins: u32,
}

impl MinesweeperExecutor {
    /// Prepares an executor.
    pub fn new(bq: &BoundQuery, config: MsConfig) -> Self {
        let query = &bq.query;
        let beta_acyclic = Hypergraph::of_query(query).is_beta_acyclic();
        let skeleton: Vec<bool> = if beta_acyclic {
            vec![true; query.num_atoms()]
        } else if config.idea7_skeleton {
            acyclic_skeleton(query)
        } else {
            vec![true; query.num_atoms()]
        };
        let chain_mode = Self::skeleton_is_chain_compatible(query, &skeleton, &bq.gao);
        let caching = config.idea5_caching && chain_mode;
        // Idea 6 assumes that by the time a node wraps twice, every value that can
        // still be free under its pattern has been *scanned* and recorded. Frontier
        // jumps that bypass the CDS — escapes from non-skeleton gaps (Idea 7) or from
        // violated order filters — skip values without scanning them, which would
        // make a "complete" node silently drop outputs reached under a different
        // prefix. Complete nodes are therefore only enabled when no such jump can
        // occur: β-acyclic (all-skeleton), filter-free queries, which is exactly the
        // setting of the paper's Section 4.7 and Tables 1–2. Idea 8's escape is not
        // such a jump: it only skips last-level values under a node that is already
        // complete.
        let no_frontier_jumps = query.filters.is_empty() && skeleton.iter().all(|&s| s);
        let complete = config.idea6_complete_nodes && caching && no_frontier_jumps;
        // No output tuple can contain a value larger than the largest data value, so
        // the CDS search is bounded by it.
        let domain_max = bq.atoms.iter().filter_map(|a| a.index.max_value()).max().unwrap_or(-1);
        let probers = build_probers(bq, &skeleton);
        let cds = Cds::new(bq.num_vars(), caching, complete).with_domain_max(domain_max);
        let last = bq.num_vars() - 1;
        let pinned: BTreeSet<usize> = bq
            .atoms
            .iter()
            .filter(|a| a.vars.iter().any(|&v| bq.var_pos[v] == last))
            .flat_map(|a| a.vars.iter().map(|&v| bq.var_pos[v]).filter(|&p| p != last))
            .collect();
        MinesweeperExecutor {
            config,
            skeleton,
            chain_mode,
            filters: bq.filters_by_gao_pos(),
            probers,
            cds,
            t: vec![-1; bq.num_vars()],
            advance: vec![-1; bq.num_vars()],
            run_pins: pinned.len() as u32,
        }
    }

    /// Makes the next run count exactly like a fresh executor's: every prober
    /// forgets its Idea 4 memo and its probe cursor. The CDS node arena and every
    /// buffer keep their capacity. A pooled executor is checked out this way at
    /// the start of each execution.
    pub(crate) fn forget_memos(&mut self) {
        self.probers.iter_mut().for_each(AtomProber::forget);
    }

    /// Switches Idea 8 batch counting for the following runs (the configuration's
    /// `idea8_batch_counting`): row sinks need one binding per output.
    pub(crate) fn set_batch_counting(&mut self, on: bool) {
        self.config.idea8_batch_counting = on;
    }

    /// Whether the caching machinery (Ideas 5/6) is active for this query and GAO.
    pub fn chain_mode(&self) -> bool {
        self.chain_mode
    }

    /// The skeleton flags in atom order (true = inserts constraints).
    pub fn skeleton(&self) -> &[bool] {
        &self.skeleton
    }

    /// The constraint store as the last run left it (for tests and diagnostics).
    pub fn cds(&self) -> &Cds {
        &self.cds
    }

    /// The constraint-inserting atoms must form a β-acyclic (forest) subquery for
    /// which the GAO is a nested elimination order; only then is it sound to cache
    /// chain-walk results into the bottom node (Proposition 4.2).
    fn skeleton_is_chain_compatible(query: &Query, skeleton: &[bool], gao: &[usize]) -> bool {
        let sub = Query {
            name: format!("{}-skeleton", query.name),
            var_names: query.var_names.clone(),
            atoms: query
                .atoms
                .iter()
                .zip(skeleton)
                .filter(|(_, &keep)| keep)
                .map(|(a, _)| a.clone())
                .collect(),
            filters: Vec::new(),
        };
        Hypergraph::of_query(&sub).is_graph_forest() == Some(true) && is_neo(&sub, gao)
    }

    /// Runs the join restricted to free tuples whose first GAO attribute lies in
    /// `[lo, hi)` — the morsel partitioning of the multi-threaded driver (Section
    /// 4.10); an unrestricted run passes [`Morsel::whole_axis`]'s bounds. Calls
    /// `emit(binding, multiplicity)` for every output (in GAO order) until it
    /// returns [`ControlFlow::Break`] — then no further free tuple is requested
    /// from the CDS and no further probe is issued — and returns the run's
    /// counters. With Idea 8 on, a binding may stand for a whole run: its
    /// multiplicity counts the outputs that share its first `n - 1` values from it
    /// onwards.
    ///
    /// Repeated calls on one executor reuse the probers (with their warmed-up Idea
    /// 4 gap memos) and recycle the CDS node arena, so a worker thread pays the
    /// executor setup once for all the morsels it claims. The outer loop polls
    /// `ctx` once per iteration (at the coarse
    /// [`CHECK_STRIDE`](gj_runtime::CHECK_STRIDE)) and stops cleanly when a stop
    /// flag, cancel token or deadline trips; the caller learns the abort reason
    /// from the context's monitor.
    pub fn run_range_ctx<F: FnMut(&[Val], u64) -> ControlFlow<()>>(
        &mut self,
        lo: Val,
        hi: Val,
        ctx: &ExecCtx<'_>,
        emit: &mut F,
    ) -> Counters {
        let mut watch = ctx.watch();
        // The CDS is owned by the executor and recycled (arena and all) across runs;
        // the probers keep their Idea 4 memos, which stay valid because gap boxes
        // are range-independent facts about the relations — but each memo's first
        // hit of the new run must re-insert its constraint into the now-empty CDS.
        self.cds.reset();
        for prober in &mut self.probers {
            prober.begin_run();
        }
        let mut stats = Counters::default();

        // The moving frontier encodes "before everything" as -1 (the paper's
        // natural-number domains; NEG_INF is reserved for gap sentinels), so a
        // morsel's open lower end is clamped to that convention — the same
        // starting frontier an unrestricted run uses.
        self.advance.fill(-1);
        self.advance[0] = lo.max(-1);
        self.cds.set_frontier(&self.advance);

        // Steady state (no new gap discovered) allocates nothing: `t` and `advance`
        // are the executor's, the CDS refills its own scratch, and a probe lends its
        // gap out of the prober's memo.
        loop {
            if !self.cds.compute_free_tuple() {
                break;
            }
            self.t.copy_from_slice(self.cds.frontier());
            if self.t[0] >= hi {
                break;
            }
            stats.iterations += 1;
            if watch.tick() {
                break;
            }

            // The frontier always advances at least past `t` (Idea 2 / termination).
            successor(&mut self.advance, &self.t);
            let mut exhausted = false;
            let mut any_gap = false;

            // Violated order filters rule out a whole band of the output space
            // without touching any index; they contribute an escape to the frontier
            // advance. The relations are still probed below — their gaps are what let
            // the CDS eventually close off exhausted regions of the earlier
            // attributes, which is what guarantees termination.
            for (pos, checks) in self.filters.iter().enumerate() {
                for &(other, other_is_smaller) in checks {
                    let (here, there) = (self.t[pos], self.t[other]);
                    let violated = if other_is_smaller { here <= there } else { here >= there };
                    if violated {
                        any_gap = true;
                        let escape_to = if other_is_smaller { there + 1 } else { POS_INF };
                        exhausted |= !escape(&mut self.advance, &self.t, pos, escape_to);
                    }
                }
            }

            for prober in &mut self.probers {
                let skeleton = prober.skeleton;
                match prober.probe(&self.t, self.config.idea4_gap_memo, &mut stats) {
                    ProbeOutcome::Member => {}
                    ProbeOutcome::Gap { constraint, newly_discovered } => {
                        any_gap = true;
                        if skeleton {
                            if newly_discovered {
                                self.cds.insert_constraint(constraint);
                            }
                        } else {
                            // Idea 7: a non-skeleton gap only advances the frontier.
                            debug_assert!(constraint.covers(&self.t));
                            let (pos, escape_to) =
                                (constraint.interval_pos(), constraint.interval.1);
                            exhausted |= !escape(&mut self.advance, &self.t, pos, escape_to);
                        }
                    }
                }
            }

            if !any_gap {
                // Idea 8: when the CDS can count the whole run of outputs sharing
                // `t`'s first `n - 1` values, the frontier leaves the run at once. A
                // one-attribute query's run is bounded by the morsel instead.
                let last = self.t.len() - 1;
                let upper = if last == 0 { hi } else { POS_INF };
                let batch = if self.config.idea8_batch_counting {
                    self.cds.complete_run_len(self.run_pins, upper)
                } else {
                    None
                };
                let run = match batch {
                    Some(run) => {
                        stats.batched_runs += 1;
                        exhausted |= !escape(&mut self.advance, &self.t, last, POS_INF);
                        run
                    }
                    None => 1,
                };
                stats.results += run;
                if emit(&self.t, run).is_break() {
                    break;
                }
            }

            if exhausted {
                break;
            }
            self.cds.set_frontier(&self.advance);
        }

        // The CDS counted its own work; the two sets of fields are disjoint.
        stats.merge(self.cds.stats);
        stats.cds_nodes = self.cds.num_nodes() as u64;
        stats
    }

    /// Counts the output tuples.
    pub fn count(&mut self) -> u64 {
        let all = Morsel::whole_axis();
        self.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |_, _| ControlFlow::Continue(()))
            .results
    }
}

/// Writes the lexicographic successor of `t` (last component incremented) into
/// `advance`.
fn successor(advance: &mut [Val], t: &[Val]) {
    advance.copy_from_slice(t);
    if let Some(last) = advance.last_mut() {
        *last += 1;
    }
}

/// Raises `advance` to at least the smallest tuple `> t` outside the band "positions
/// `0..pos` equal to `t`, position `pos` in `[t[pos], escape_to)`": position `pos`
/// jumps to `escape_to` and the deeper positions reset. When `escape_to` is `POS_INF`
/// the band extends to the end of the axis, so the escape has to increment position
/// `pos - 1` instead; returns `false` when that is impossible (`pos == 0`), i.e. the
/// whole remaining space is exhausted.
///
/// `advance` must already be `> t` (it starts as [`successor`]), which is what lets
/// the maximum be taken in place: the escape tuple is `t[..p]`, a value `v > t[p]`,
/// then `-1`s, so it exceeds `advance` exactly when `advance` still agrees with `t`
/// before `p` and holds less than `v` there.
fn escape(advance: &mut [Val], t: &[Val], pos: usize, escape_to: Val) -> bool {
    let (p, v) = if escape_to < POS_INF {
        (pos, escape_to)
    } else if pos > 0 {
        (pos - 1, t[pos - 1] + 1)
    } else {
        return false;
    };
    if advance[..p] == t[..p] && advance[p] < v {
        advance[p] = v;
        advance[p + 1..].fill(-1);
    }
    true
}

/// Counts the output of the bound query with Minesweeper.
pub fn count(bq: &BoundQuery, config: &MsConfig) -> u64 {
    MinesweeperExecutor::new(bq, config.clone()).count()
}

/// Enumerates the output of the bound query; bindings are returned in variable-id
/// order, sorted lexicographically. (Batch counting is disabled for enumeration.)
pub fn enumerate(bq: &BoundQuery, config: &MsConfig) -> Vec<Vec<Val>> {
    let mut cfg = config.clone();
    cfg.idea8_batch_counting = false;
    let mut out = Vec::new();
    let all = Morsel::whole_axis();
    let mut exec = MinesweeperExecutor::new(bq, cfg);
    exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |gao_binding, _| {
        out.push(bq.binding_to_var_order(gao_binding));
        ControlFlow::Continue(())
    });
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{naive_join, CatalogQuery, Instance};
    use gj_storage::{Graph, Relation};

    /// Runs the whole query on a fresh executor; `emit` sees `(binding,
    /// multiplicity)`.
    fn run(
        bq: &BoundQuery,
        config: &MsConfig,
        emit: &mut impl FnMut(&[Val], u64) -> ControlFlow<()>,
    ) -> Counters {
        let all = Morsel::whole_axis();
        MinesweeperExecutor::new(bq, config.clone()).run_range_ctx(
            all.lo,
            all.hi,
            &ExecCtx::none(),
            emit,
        )
    }

    /// [`run`] to completion.
    fn run_all(bq: &BoundQuery, config: &MsConfig) -> Counters {
        run(bq, config, &mut |_, _| ControlFlow::Continue(()))
    }

    fn two_triangle_instance() -> Instance {
        let g = Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        inst.add_relation("v1", Relation::from_values(vec![0, 1, 3]));
        inst.add_relation("v2", Relation::from_values(vec![2, 3, 4]));
        inst.add_relation("v3", Relation::from_values(vec![0, 2]));
        inst.add_relation("v4", Relation::from_values(vec![1, 4]));
        inst
    }

    /// The escape tuple itself: what [`escape`] folds into `advance` in place.
    fn escape_tuple(t: &[Val], pos: usize, escape_to: Val) -> Option<Vec<Val>> {
        let (p, v) = match (escape_to < POS_INF, pos) {
            (true, _) => (pos, escape_to),
            (false, 0) => return None,
            (false, _) => (pos - 1, t[pos - 1] + 1),
        };
        let mut f = t[..p].to_vec();
        f.push(v);
        f.resize(t.len(), -1);
        Some(f)
    }

    #[test]
    fn escape_raises_advance_to_the_lexicographic_maximum() {
        let t = [3, 5, -1, 7];
        let escapes = [(3, 9), (3, POS_INF), (2, 0), (2, POS_INF), (1, 6), (1, POS_INF), (0, 4)];
        for first in escapes {
            for second in escapes {
                let mut advance = vec![0; t.len()];
                successor(&mut advance, &t);
                let mut expected = advance.clone();
                for (pos, escape_to) in [first, second] {
                    assert!(escape(&mut advance, &t, pos, escape_to));
                    expected = expected.max(escape_tuple(&t, pos, escape_to).unwrap());
                }
                assert_eq!(advance, expected, "{first:?} then {second:?}");
            }
        }
        let mut advance = vec![3, 5, -1, 8];
        assert!(!escape(&mut advance, &t, 0, POS_INF), "nothing lies beyond position 0");
        assert_eq!(advance, [3, 5, -1, 8]);
    }

    #[test]
    fn triangle_count_matches_naive() {
        let inst = two_triangle_instance();
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(count(&bq, &MsConfig::default()), 2);
    }

    #[test]
    fn all_catalog_queries_match_naive_with_default_config() {
        let inst = two_triangle_instance();
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let expected = naive_join(&inst, &q);
            assert_eq!(enumerate(&bq, &MsConfig::default()), expected, "{}", q.name);
        }
    }

    #[test]
    fn all_catalog_queries_match_naive_with_every_idea_disabled() {
        let inst = two_triangle_instance();
        let config = MsConfig {
            idea4_gap_memo: false,
            idea5_caching: false,
            idea6_complete_nodes: false,
            idea7_skeleton: false,
            idea8_batch_counting: false,
            granularity: 1,
        };
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let expected = naive_join(&inst, &q);
            assert_eq!(enumerate(&bq, &config), expected, "{}", q.name);
        }
    }

    /// A seeded random graph plus the four node samples the catalog queries use.
    fn random_instance(seed: u64, n: u32, p: f64) -> Instance {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let mut inst = Instance::new();
        inst.add_relation("edge", Graph::new_undirected(n as usize, edges).edge_relation());
        for (i, step) in [3usize, 2, 5, 4].into_iter().enumerate() {
            inst.add_relation(
                format!("v{}", i + 1),
                Relation::from_values((0..n as i64).step_by(step)),
            );
        }
        inst
    }

    #[test]
    fn batch_counting_agrees_with_plain_counting() {
        let off = MsConfig { idea8_batch_counting: false, ..MsConfig::default() };
        let inst = random_instance(5, 40, 0.12);
        let mut batched = 0;
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let on = run_all(&bq, &MsConfig::default());
            assert_eq!(on.results, count(&bq, &off), "{}", q.name);
            batched += on.batched_runs;
        }
        assert!(batched > 0, "no run was counted from a complete node");

        // The same over a delta-carrying `edge` index: edits land in the cached
        // tries as a delta layer, and the count must follow them.
        let cache = gj_query::IndexCache::new();
        let q = CatalogQuery::ThreePath.query();
        BoundQuery::with_cache(&inst, &q, None, &cache, 1).unwrap();
        let edge = inst.relation("edge").unwrap();
        let ins = Relation::from_pairs([(0, 39), (39, 0), (3, 38), (38, 3)]);
        let del = Relation::from_rows(2, edge.iter().take(6).map(<[Val]>::to_vec).collect());
        let updated = edge.with_edits(&ins, &del);
        assert_eq!(cache.apply_edits("edge", &ins, &del, &updated), 0, "edits must stay a delta");
        let mut edited = inst.clone();
        edited.add_relation("edge", updated);
        let (bq, report) = BoundQuery::with_cache(&edited, &q, None, &cache, 1).unwrap();
        assert_eq!(report.indexes_built, 0);
        assert!(bq.atoms.iter().any(|a| a.index.has_delta()), "no delta-carrying index");
        let on = run_all(&bq, &MsConfig::default());
        assert!(on.batched_runs > 0, "no run was counted over the delta index");
        assert_eq!(on.results, count(&bq, &off));
        assert_eq!(on.results, gj_query::naive_count(&edited, &q));
    }

    #[test]
    fn chain_mode_is_on_for_acyclic_and_skeletonised_cyclic_queries() {
        let inst = two_triangle_instance();
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let exec = MinesweeperExecutor::new(&bq, MsConfig::default());
            assert!(exec.chain_mode(), "{} should run in chain mode with Idea 7", q.name);
        }
        // Without Idea 7 a cyclic query cannot use the chain machinery.
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let cfg = MsConfig { idea7_skeleton: false, ..MsConfig::default() };
        let exec = MinesweeperExecutor::new(&bq, cfg);
        assert!(!exec.chain_mode());
    }

    #[test]
    fn non_neo_gao_disables_chain_mode_but_stays_correct() {
        let inst = two_triangle_instance();
        let q = CatalogQuery::FourPath.query();
        // GAO a, b, d, c, e is not a NEO (Table 4).
        let v = |s: &str| q.var(s).unwrap();
        let gao = vec![v("a"), v("b"), v("d"), v("c"), v("e")];
        let bq = BoundQuery::new(&inst, &q, Some(gao)).unwrap();
        let exec = MinesweeperExecutor::new(&bq, MsConfig::default());
        assert!(!exec.chain_mode());
        let expected = naive_join(&inst, &q);
        assert_eq!(enumerate(&bq, &MsConfig::default()), expected);
    }

    #[test]
    fn range_restriction_partitions_the_output() {
        let inst = two_triangle_instance();
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let total = count(&bq, &MsConfig::default());
        let mut exec = MinesweeperExecutor::new(&bq, MsConfig::default());
        let mut half = |lo, hi| {
            exec.run_range_ctx(lo, hi, &ExecCtx::none(), &mut |_, _| ControlFlow::Continue(()))
                .results
        };
        assert_eq!(half(-1, 2) + half(2, POS_INF), total);
    }

    #[test]
    fn one_executor_serves_many_ranges_and_full_runs() {
        // The morsel reuse pattern: a single executor runs several disjoint ranges
        // (recycling its CDS arena) and still answers a full-range run afterwards —
        // a range must not leak its restriction into later runs.
        let inst = two_triangle_instance();
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let total = count(&bq, &MsConfig::default());
        let mut exec = MinesweeperExecutor::new(&bq, MsConfig::default());
        let mut split = 0;
        for (lo, hi) in [(-1, 1), (1, 2), (2, POS_INF)] {
            split += exec
                .run_range_ctx(lo, hi, &ExecCtx::none(), &mut |_, _| ControlFlow::Continue(()))
                .results;
        }
        assert_eq!(split, total);
        assert_eq!(exec.count(), total, "a range must not restrict later full runs");
    }

    #[test]
    fn stats_reflect_the_work_done() {
        let inst = two_triangle_instance();
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let stats = run_all(&bq, &MsConfig::default());
        assert_eq!(stats.results, gj_query::naive_count(&inst, &q));
        assert!(stats.iterations >= stats.results);
        assert!(stats.probes > 0);
        assert!(stats.constraints_inserted > 0);
    }

    #[test]
    fn a_break_stops_the_outer_loop() {
        let inst = two_triangle_instance();
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let full = run_all(&bq, &MsConfig::default());
        assert!(full.results > 1, "the test needs a query with several outputs");
        let mut seen = 0u64;
        let stats = run(&bq, &MsConfig::default(), &mut |_, _| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
        assert_eq!(stats.results, 1);
        assert!(stats.iterations < full.iterations, "break must cut the outer loop short");
    }

    #[test]
    fn empty_relation_yields_zero() {
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::empty(2));
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(count(&bq, &MsConfig::default()), 0);
    }

    #[test]
    fn skeleton_for_cliques_drops_the_cycle_closing_atoms() {
        let inst = two_triangle_instance();
        let q = CatalogQuery::FourClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let exec = MinesweeperExecutor::new(&bq, MsConfig::default());
        assert_eq!(exec.skeleton().iter().filter(|&&s| s).count(), 3);
    }
}
