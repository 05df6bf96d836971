//! The LeapFrog TrieJoin executor (Algorithm 1 of the paper, iterator formulation).
//!
//! For each variable in the GAO, the executor opens the trie iterators of every atom
//! containing that variable, intersects their value lists by leapfrogging, and
//! recurses on each match; the recursion bottoming out at the last variable yields
//! an output tuple.
//!
//! The intersection is one loop over a cursor per participant. The cursor is the
//! atom's open level as a slice ([`TrieIterator::level`]) — every index reads one
//! solid trie, a delta-carrying one its fold — so it seeks inline, steps past a
//! match by moving its position, and hands the position back to the iterator only
//! before the search descends. The cursor buffers are allocated once, in
//! [`LftjExecutor::new`], so a warm executor searches without touching the heap.
//!
//! Order filters (`x < y`, used by the clique/cycle queries to report each pattern
//! once) are pushed into the search: the loop starts at the filters' lower bound
//! and stops at their upper bound; at the root, the morsel range bounds it the same
//! way.

use crate::leapfrog::seek;
use gj_query::BoundQuery;
use gj_runtime::{Counters, ExecCtx, ExecWatch, Morsel};
use gj_storage::{TrieIterator, Val, NEG_INF, POS_INF};
use std::ops::ControlFlow;

/// One participant of the intersection at one GAO position: the atom's open level
/// as a slice (cut at the node's last child) plus a position in it.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    atom: usize,
    level: &'a [Val],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Opens the atom's next level at its first key; `false` if the level is empty.
    fn open(&mut self, iters: &mut [TrieIterator<'a>]) -> bool {
        let it = &mut iters[self.atom];
        it.open();
        (self.level, self.pos) = it.level();
        !it.at_end()
    }

    /// Moves to the least key `>= v`; `None` once exhausted.
    #[inline]
    fn seek(&mut self, v: Val) -> Option<Val> {
        self.pos = seek(self.level, self.pos, v);
        self.level.get(self.pos).copied()
    }

    /// Moves past the current key; `None` once exhausted.
    #[inline]
    fn next(&mut self) -> Option<Val> {
        self.pos += 1;
        self.level.get(self.pos).copied()
    }

    /// Hands the position back to the iterator, so `open` descends from it.
    #[inline]
    fn sync(&self, iters: &mut [TrieIterator<'a>]) {
        iters[self.atom].set_pos(self.pos);
    }
}

/// LeapFrog TrieJoin executor over a [`BoundQuery`].
pub struct LftjExecutor<'a> {
    iters: Vec<TrieIterator<'a>>,
    /// Per GAO position: a cursor per participating atom. A search takes its
    /// level's buffer out and puts it back, so every search reuses it.
    cursors: Vec<Vec<Cursor<'a>>>,
    /// Per GAO position: filters `(earlier_gao_pos, earlier_is_smaller)`.
    filters: Vec<Vec<(usize, bool)>>,
    binding: Vec<Val>,
    /// The current search's `results` and `bindings_explored`.
    stats: Counters,
    /// Restriction of the first GAO attribute (parallel partitioning); the whole
    /// axis unless restricted.
    range0: Morsel,
}

impl<'a> LftjExecutor<'a> {
    /// Prepares an executor for the bound query.
    ///
    /// Panics if some query variable is contained in no atom (such a query has no
    /// well-defined finite answer).
    pub fn new(bq: &'a BoundQuery) -> Self {
        let n = bq.num_vars();
        let cursors: Vec<Vec<Cursor<'a>>> = (0..n)
            .map(|pos| {
                let atoms = bq.atoms_at_gao_pos(pos).into_iter();
                atoms.map(|atom| Cursor { atom, level: &[], pos: 0 }).collect()
            })
            .collect();
        for (pos, parts) in cursors.iter().enumerate() {
            // gj-lint: allow(no-panic-in-engines) — binding rejects variables outside every atom, so only a hand-assembled BoundQuery reaches this
            assert!(
                !parts.is_empty(),
                "variable {} is not contained in any atom",
                bq.query.var_names[bq.gao[pos]]
            );
        }
        let iters = bq.atoms.iter().map(|a| a.index.iter()).collect();
        LftjExecutor {
            iters,
            cursors,
            filters: bq.filters_by_gao_pos(),
            binding: vec![0; n],
            stats: Counters::default(),
            range0: Morsel::whole_axis(),
        }
    }

    /// Restricts the search to bindings whose first GAO attribute lies in `[lo, hi)`
    /// — the morsel partitioning used by the parallel runtime (Section 4.10 applied
    /// to LFTJ): the root-level leapfrog intersection seeks to `lo` and stops at
    /// `hi`, so disjoint ranges enumerate disjoint output slices.
    pub fn with_range0(mut self, lo: Val, hi: Val) -> Self {
        self.range0 = Morsel::new(lo, hi);
        self
    }

    /// Runs the join restricted to first-GAO-attribute values in `[lo, hi)`,
    /// invoking `emit` with each output binding (indexed by GAO position) until it
    /// returns [`ControlFlow::Break`], and returns the search's `results` and
    /// `bindings_explored` counters. An unrestricted run passes
    /// [`Morsel::whole_axis`]'s bounds.
    ///
    /// The executor is **not consumed** — the per-worker reuse primitive of the
    /// parallel runtime: a worker builds one executor and runs every morsel it
    /// claims on it. The trie iterators, per-depth cursor buffers, and filter
    /// tables are carried across calls (a completed or early-terminated search
    /// always rewinds its iterators back to the root), so a warm call allocates
    /// nothing, and only the counters are reset per range, so the result is
    /// identical to a fresh executor's over the same range. The search polls `ctx` once per explored binding (at the coarse
    /// [`CHECK_STRIDE`](gj_runtime::CHECK_STRIDE)) and unwinds cleanly when a
    /// cancel, deadline, or stop flag trips — the caller learns the reason from
    /// the context's monitor.
    pub fn run_range_ctx<F: FnMut(&[Val]) -> ControlFlow<()>>(
        &mut self,
        lo: Val,
        hi: Val,
        ctx: &ExecCtx<'_>,
        emit: &mut F,
    ) -> Counters {
        self.range0 = Morsel::new(lo, hi);
        self.execute(ctx, emit)
    }

    /// The shared search entry: resets the counters, runs the search over
    /// `range0`, and leaves the executor reusable — every level opened during the
    /// search is closed again on unwind, even under early termination.
    fn execute<F: FnMut(&[Val]) -> ControlFlow<()>>(
        &mut self,
        ctx: &ExecCtx<'_>,
        emit: &mut F,
    ) -> Counters {
        self.stats = Counters::default();
        let mut watch = ctx.watch();
        // The watched and unwatched searches are separate monomorphisations: the
        // per-binding `tick()` is cheap but the leapfrog inner loop is cheaper
        // still, so unmonitored runs (the one-worker drive under a budget that
        // cannot trip) must not pay even that branch.
        let _ = if watch.is_inert() {
            self.search::<F, false>(0, &mut watch, emit)
        } else {
            self.search::<F, true>(0, &mut watch, emit)
        };
        self.stats
    }

    /// Counts the output tuples (within the [`with_range0`](Self::with_range0)
    /// restriction, if any).
    pub fn count(mut self) -> u64 {
        self.execute(&ExecCtx::none(), &mut |_| ControlFlow::Continue(())).results
    }

    /// Recursive triejoin over GAO positions `depth..n`: opens the level, leapfrogs
    /// over it and closes it again. An emitter's `Break` or a tripped `watch`
    /// unwinds through every level without visiting any further binding.
    fn search<F: FnMut(&[Val]) -> ControlFlow<()>, const WATCHED: bool>(
        &mut self,
        depth: usize,
        watch: &mut ExecWatch<'_>,
        emit: &mut F,
    ) -> ControlFlow<()> {
        let mut cursors = std::mem::take(&mut self.cursors[depth]);
        let mut nonempty = true;
        for c in &mut cursors {
            nonempty &= c.open(&mut self.iters);
        }
        let flow = if nonempty {
            self.leapfrog::<F, WATCHED>(depth, &mut cursors, watch, emit)
        } else {
            ControlFlow::Continue(())
        };
        for c in &cursors {
            self.iters[c.atom].up();
        }
        self.cursors[depth] = cursors;
        flow
    }

    /// The leapfrog loop over opened, non-empty cursors: seeks them in rotation to
    /// the largest key seen; a key all of them agree on is a match, explored within
    /// the bounds of the order filters (at the root, of the morsel range).
    #[inline]
    fn leapfrog<F: FnMut(&[Val]) -> ControlFlow<()>, const WATCHED: bool>(
        &mut self,
        depth: usize,
        cursors: &mut [Cursor<'a>],
        watch: &mut ExecWatch<'_>,
        emit: &mut F,
    ) -> ControlFlow<()> {
        let (mut lower, mut upper) =
            if depth == 0 { (self.range0.lo, self.range0.hi) } else { (NEG_INF, POS_INF) };
        for &(earlier_pos, earlier_is_smaller) in &self.filters[depth] {
            let bound = self.binding[earlier_pos];
            if earlier_is_smaller {
                lower = lower.max(bound + 1);
            } else {
                upper = upper.min(bound);
            }
        }
        if lower >= upper {
            return ControlFlow::Continue(());
        }
        let last = depth + 1 == self.cursors.len();
        let k = cursors.len();
        // `agreed` cursors in a row, ending just before `i`, sit at `target`.
        let (mut target, mut agreed, mut i) = (lower, 0, 0);
        loop {
            if agreed == k {
                self.binding[depth] = target;
                self.stats.bindings_explored += 1;
                if WATCHED && watch.tick() {
                    return ControlFlow::Break(());
                }
                let flow = if last {
                    self.stats.results += 1;
                    emit(&self.binding)
                } else {
                    for c in cursors.iter() {
                        c.sync(&mut self.iters);
                    }
                    self.search::<F, WATCHED>(depth + 1, watch, emit)
                };
                if flow.is_break() {
                    return flow;
                }
                match cursors[i].next() {
                    Some(key) if key < upper => target = key,
                    _ => return ControlFlow::Continue(()),
                }
                agreed = 1;
            } else {
                match cursors[i].seek(target) {
                    Some(key) if key == target => agreed += 1,
                    Some(key) if key < upper => {
                        target = key;
                        agreed = 1;
                    }
                    _ => return ControlFlow::Continue(()),
                }
            }
            i = if i + 1 == k { 0 } else { i + 1 };
        }
    }
}

/// Counts the output of the bound query with LeapFrog TrieJoin.
pub fn count(bq: &BoundQuery) -> u64 {
    LftjExecutor::new(bq).count()
}

/// Enumerates the output of the bound query; bindings are returned **in variable-id
/// order** (not GAO order), sorted lexicographically.
pub fn enumerate(bq: &BoundQuery) -> Vec<Vec<Val>> {
    let mut out = Vec::new();
    let all = Morsel::whole_axis();
    LftjExecutor::new(bq).run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |gao_binding| {
        out.push(bq.binding_to_var_order(gao_binding));
        ControlFlow::Continue(())
    });
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{naive_join, CatalogQuery, Instance, QueryBuilder};
    use gj_storage::{Graph, Relation};

    fn instance_with_samples(g: &Graph, samples: &[(&str, Vec<i64>)]) -> Instance {
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        for (name, vals) in samples {
            inst.add_relation(*name, Relation::from_values(vals.clone()));
        }
        inst
    }

    /// Runs the whole query on a fresh executor, emitting GAO-order bindings.
    fn run_all(bq: &BoundQuery, emit: &mut impl FnMut(&[Val]) -> ControlFlow<()>) -> Counters {
        let all = Morsel::whole_axis();
        LftjExecutor::new(bq).run_range_ctx(all.lo, all.hi, &ExecCtx::none(), emit)
    }

    fn two_triangle_graph() -> Graph {
        Graph::new_undirected(5, vec![(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn triangle_count_matches_naive() {
        let g = two_triangle_graph();
        let inst = instance_with_samples(&g, &[]);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(count(&bq), 2);
        assert_eq!(enumerate(&bq), naive_join(&inst, &q));
    }

    #[test]
    fn triangle_count_equals_graph_triangle_count_on_random_graph() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|_| rng.gen_bool(0.15))
            .collect();
        let g = Graph::new_undirected(n as usize, edges);
        let inst = instance_with_samples(&g, &[]);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(count(&bq), g.triangle_count());
    }

    #[test]
    fn all_catalog_queries_match_naive_on_small_graph() {
        let g = two_triangle_graph();
        let samples: Vec<(&str, Vec<i64>)> = vec![
            ("v1", vec![0, 1, 3]),
            ("v2", vec![2, 3, 4]),
            ("v3", vec![0, 2]),
            ("v4", vec![1, 4]),
        ];
        let inst = instance_with_samples(&g, &samples);
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let expected = naive_join(&inst, &q);
            assert_eq!(enumerate(&bq), expected, "{}", q.name);
            assert_eq!(count(&bq), expected.len() as u64, "{}", q.name);
        }
    }

    #[test]
    fn respects_explicit_gao() {
        let g = two_triangle_graph();
        let inst = instance_with_samples(&g, &[]);
        let q = CatalogQuery::FourCycle.query();
        let naive = naive_join(&inst, &q);
        for gao in [vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2]] {
            let bq = BoundQuery::new(&inst, &q, Some(gao.clone())).unwrap();
            assert_eq!(enumerate(&bq), naive, "GAO {gao:?}");
        }
    }

    #[test]
    fn filters_prune_via_seek_and_break() {
        // Without filters the directed 2-cycle query would return both orders.
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::from_pairs(vec![(1, 2), (2, 1), (1, 3), (3, 1)]));
        let q = QueryBuilder::new("ordered-pair")
            .atom("edge", &["a", "b"])
            .atom("edge", &["b", "a"])
            .lt("a", "b")
            .build();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(enumerate(&bq), vec![vec![1, 2], vec![1, 3]]);
    }

    #[test]
    fn empty_relation_yields_zero() {
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::empty(2));
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(count(&bq), 0);
    }

    #[test]
    fn unary_sample_restricts_output() {
        let g = two_triangle_graph();
        let inst = instance_with_samples(&g, &[("v1", vec![0]), ("v2", vec![4])]);
        let q = CatalogQuery::ThreePath.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let rows = enumerate(&bq);
        assert_eq!(rows, naive_join(&inst, &q));
        for r in &rows {
            assert_eq!(r[0], 0);
            assert_eq!(r[3], 4);
        }
    }

    #[test]
    fn a_break_stops_the_search_at_once() {
        let g = two_triangle_graph();
        let inst = instance_with_samples(&g, &[]);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let mut seen = Vec::new();
        let stats = run_all(&bq, &mut |binding| {
            seen.push(binding.to_vec());
            ControlFlow::Break(())
        });
        assert_eq!(seen.len(), 1);
        assert_eq!(stats.results, 1);
        // The truncated prefix must coincide with the full run's first output, and
        // stopping early must explore no more bindings than the full search.
        let mut all = Vec::new();
        let full = run_all(&bq, &mut |b| {
            all.push(b.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(seen[0], all[0]);
        assert!(stats.bindings_explored < full.bindings_explored);
    }

    #[test]
    fn range_restriction_partitions_the_output() {
        let g = two_triangle_graph();
        let inst = instance_with_samples(&g, &[("v1", vec![0, 1, 3]), ("v2", vec![2, 3, 4])]);
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourCycle, CatalogQuery::ThreePath] {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            let total = count(&bq);
            let mut split = 0;
            let mut rows = Vec::new();
            for (lo, hi) in [(-1, 2), (2, 3), (3, gj_storage::POS_INF)] {
                let mut exec = LftjExecutor::new(&bq);
                let stats = exec.run_range_ctx(lo, hi, &ExecCtx::none(), &mut |b| {
                    assert!(b[0] >= lo && b[0] < hi);
                    rows.push(b.to_vec());
                    ControlFlow::Continue(())
                });
                assert_eq!(LftjExecutor::new(&bq).with_range0(lo, hi).count(), stats.results);
                split += stats.results;
            }
            assert_eq!(split, total, "{}", q.name);
            // Concatenating the ranges in order reproduces the serial emission order.
            let mut serial = Vec::new();
            run_all(&bq, &mut |b| {
                serial.push(b.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(rows, serial, "{}", q.name);
        }
    }

    #[test]
    fn stats_count_results() {
        let g = two_triangle_graph();
        let inst = instance_with_samples(&g, &[]);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let stats = run_all(&bq, &mut |_| ControlFlow::Continue(()));
        assert_eq!(stats.results, 2);
        assert!(stats.bindings_explored >= stats.results);
    }
}
