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
//!
//! A count ([`LftjExecutor::count_range_ctx`]) counts the last GAO level without
//! visiting each match. With one participant the count is the size of its range
//! inside the bounds (two searches). With several, a participant whose level is
//! the same slice as in the previous search at this position — `N(a)` under every
//! `(b, c)` of a 4-cycle — gets a bitmap over its values' `[min, max]` on that
//! second consecutive use, kept for the rest of the streak, if the span needs no
//! more 64-bit words than the level has values (so a bitmap costs at most one word
//! per cached value). Every participant here is at its atom's last trie level, so
//! membership is all the count needs. The level is then counted in one pass over
//! the participant without a bitmap (the shortest, if all have one), between the
//! bounds and inside every bitmap's `[min, max]`, testing each value against every
//! bitmap. When two participants lack a bitmap, or the pass would be longer than a
//! bitmapped level, the leapfrog loop counts instead, without emitting. The
//! counters are the row path's exactly, and a watched count ticks each level's
//! count at once.

use crate::leapfrog::seek;
use gj_query::BoundQuery;
use gj_runtime::{Counters, ExecCtx, ExecWatch, Morsel};
use gj_storage::{TrieIterator, Val, NEG_INF, POS_INF};
use std::ops::ControlFlow;

/// A membership bitmap of one participant of the last GAO position, tracking the
/// slice that participant searched last.
#[derive(Debug, Default)]
struct LeafBitmap {
    /// The previous search's slice at this position, as `(pos, end)` of the level.
    slice: (usize, usize),
    /// Whether `words` holds the bitmap of `slice`.
    ready: bool,
    /// The slice's least and greatest values; bit 0 stands for `min`.
    min: Val,
    max: Val,
    /// Bit `v - min` is set for every value `v` of the slice.
    words: Vec<u64>,
}

impl LeafBitmap {
    /// Builds the bitmap of the sorted, non-empty `values`; `false` (and no bitmap)
    /// when their span needs more 64-bit words than there are values.
    fn build(&mut self, values: &[Val]) -> bool {
        let (min, max) = (values[0], values[values.len() - 1]);
        let words = max.abs_diff(min) / 64 + 1;
        if words > values.len() as u64 {
            return false;
        }
        (self.min, self.max) = (min, max);
        self.words.clear();
        self.words.resize(words as usize, 0);
        for &v in values {
            let bit = v.abs_diff(min);
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        true
    }

    /// Whether `v`, which lies in `[min, max]`, is one of the slice's values.
    #[inline]
    fn holds(&self, v: Val) -> bool {
        let bit = v.abs_diff(self.min);
        self.words[(bit / 64) as usize] >> (bit % 64) & 1 == 1
    }
}

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
    /// One per participant of the last GAO position, for counts.
    bitmaps: Vec<LeafBitmap>,
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
        let leaves = cursors.last().map_or(0, Vec::len);
        let bitmaps = (0..leaves).map(|_| LeafBitmap::default()).collect();
        LftjExecutor {
            iters,
            bitmaps,
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
        self.execute::<F, false>(ctx, emit)
    }

    /// Counts the join restricted to first-GAO-attribute values in `[lo, hi)`:
    /// the counters [`run_range_ctx`](Self::run_range_ctx) returns over the same
    /// range, found without visiting each match of the last GAO level (see the
    /// module docs). The bitmaps of reused last-level slices are kept across calls
    /// with their capacity, so a warm count allocates nothing. A watched count
    /// ticks each last-level count at once, so a stop lands within one
    /// [`CHECK_STRIDE`](gj_runtime::CHECK_STRIDE) plus one last-level pass.
    pub fn count_range_ctx(&mut self, lo: Val, hi: Val, ctx: &ExecCtx<'_>) -> Counters {
        self.range0 = Morsel::new(lo, hi);
        self.execute::<_, true>(ctx, &mut |_| ControlFlow::Continue(()))
    }

    /// The shared search entry: resets the counters, runs the search over
    /// `range0`, and leaves the executor reusable — every level opened during the
    /// search is closed again on unwind, even under early termination.
    fn execute<F: FnMut(&[Val]) -> ControlFlow<()>, const COUNT: bool>(
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
            self.search::<F, false, COUNT>(0, &mut watch, emit)
        } else {
            self.search::<F, true, COUNT>(0, &mut watch, emit)
        };
        self.stats
    }

    /// Counts the output tuples (within the [`with_range0`](Self::with_range0)
    /// restriction, if any).
    pub fn count(mut self) -> u64 {
        let Morsel { lo, hi } = self.range0;
        self.count_range_ctx(lo, hi, &ExecCtx::none()).results
    }

    /// Recursive triejoin over GAO positions `depth..n`: opens the level, leapfrogs
    /// over it (a count counts the last level instead) and closes it again. An
    /// emitter's `Break` or a tripped `watch` unwinds through every level without
    /// visiting any further binding.
    fn search<F: FnMut(&[Val]) -> ControlFlow<()>, const WATCHED: bool, const COUNT: bool>(
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
        let (lower, upper) = self.bounds(depth);
        let flow = if !nonempty || lower >= upper {
            ControlFlow::Continue(())
        } else if COUNT && depth + 1 == self.cursors.len() {
            self.count_leaf::<F, WATCHED>(depth, (lower, upper), &mut cursors, watch, emit)
        } else {
            self.leapfrog::<F, WATCHED, COUNT>(depth, (lower, upper), &mut cursors, watch, emit)
        };
        for c in &cursors {
            self.iters[c.atom].up();
        }
        self.cursors[depth] = cursors;
        flow
    }

    /// The bounds `[lower, upper)` the order filters put on the value at `depth`
    /// (at the root, within the morsel range).
    #[inline]
    fn bounds(&self, depth: usize) -> (Val, Val) {
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
        (lower, upper)
    }

    /// The leapfrog loop over opened, non-empty cursors: seeks them in rotation to
    /// the largest key seen; a key all of them agree on is a match, explored within
    /// the non-empty `[lower, upper)` of [`bounds`](Self::bounds).
    #[inline]
    fn leapfrog<F: FnMut(&[Val]) -> ControlFlow<()>, const WATCHED: bool, const COUNT: bool>(
        &mut self,
        depth: usize,
        (lower, upper): (Val, Val),
        cursors: &mut [Cursor<'a>],
        watch: &mut ExecWatch<'_>,
        emit: &mut F,
    ) -> ControlFlow<()> {
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
                    self.search::<F, WATCHED, COUNT>(depth + 1, watch, emit)
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

    /// Counts the last GAO level over opened, non-empty cursors within the
    /// non-empty `[lower, upper)` and adds the count to both counters, as the
    /// leapfrog loop would one match at a time.
    fn count_leaf<F: FnMut(&[Val]) -> ControlFlow<()>, const WATCHED: bool>(
        &mut self,
        depth: usize,
        (lower, upper): (Val, Val),
        cursors: &mut [Cursor<'a>],
        watch: &mut ExecWatch<'_>,
        emit: &mut F,
    ) -> ControlFlow<()> {
        let found = match cursors {
            [c] => {
                let from = seek(c.level, c.pos, lower);
                (seek(c.level, from, upper) - from) as u64
            }
            _ => match self.bitmap_pass(cursors, lower, upper) {
                Some(found) => found,
                None => {
                    return self.leapfrog::<F, WATCHED, true>(
                        depth,
                        (lower, upper),
                        cursors,
                        watch,
                        emit,
                    )
                }
            },
        };
        self.stats.bindings_explored += found;
        self.stats.results += found;
        if WATCHED && watch.tick_many(found) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Refreshes the bitmaps for the cursors' slices, then counts the values in
    /// `[lower, upper)` of the one cursor without a bitmap (of the shortest cursor,
    /// if all have one) that every other cursor's bitmap holds. `None` — the
    /// leapfrog loop counts — when two cursors lack a bitmap, or when the pass
    /// would be longer than a bitmapped level.
    fn bitmap_pass(&mut self, cursors: &[Cursor<'a>], lower: Val, upper: Val) -> Option<u64> {
        let len = |c: &Cursor<'a>| c.level.len() - c.pos;
        let (mut plain, mut scan) = (0, 0);
        for (i, (c, b)) in cursors.iter().zip(&mut self.bitmaps).enumerate() {
            let slice = (c.pos, c.level.len());
            if b.slice != slice {
                (b.slice, b.ready) = (slice, false);
            } else if !b.ready {
                b.ready = b.build(&c.level[c.pos..]);
            }
            if !b.ready {
                plain += 1;
                scan = i;
            } else if plain == 0 && len(c) < len(&cursors[scan]) {
                scan = i;
            }
        }
        if plain > 1 {
            return None;
        }
        // The pass only needs the scanned values inside every bitmap's range.
        let tests = || self.bitmaps.iter().enumerate().filter(move |&(i, _)| i != scan);
        let (mut lo, mut hi, mut shortest) = (lower, upper, usize::MAX);
        for (i, b) in tests() {
            (lo, hi) = (lo.max(b.min), hi.min(b.max.saturating_add(1)));
            shortest = shortest.min(len(&cursors[i]));
        }
        let d = &cursors[scan];
        let from = seek(d.level, d.pos, lo);
        let to = seek(d.level, from, hi);
        if to - from > shortest {
            return None;
        }
        let values = &d.level[from..to];
        // Two participants, so one bitmap to test, is the common case (the last
        // level of the 3-clique and the 4-cycle). A loop of its own keeps that
        // bitmap out of the walk over the bitmaps per value: without it, the
        // benchmark's `cyclic-lftj` workload ran 5 % fewer counts per second
        // (152 against 160 per second, 10 alternating runs each, 2-CPU machine).
        let found = match cursors.len() {
            2 => {
                let b = &self.bitmaps[1 - scan];
                values.iter().filter(|&&v| b.holds(v)).count()
            }
            _ => values.iter().filter(|&&v| tests().all(|(_, b)| b.holds(v))).count(),
        };
        Some(found as u64)
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

    /// `N(0)` is the last level's slice under every `b` of the 3-clique at `a = 0`:
    /// its bitmap is built on the second `b` and kept, unless the slice's span
    /// needs more words than it has values. Either way the count is the row
    /// path's.
    #[test]
    fn a_reused_leaf_slice_gets_a_bitmap_unless_it_is_sparse() {
        for (far, dense) in [(5, true), (1_000, false)] {
            let star = (1..=4).chain([far]).map(|b| (0, b));
            let path = [(1, 2), (2, 3), (3, 4), (4, far)];
            let mut inst = Instance::new();
            inst.add_relation(
                "edge",
                Relation::from_pairs(star.chain(path).flat_map(|(a, b)| [(a, b), (b, a)])),
            );
            let bq = BoundQuery::new(&inst, &CatalogQuery::ThreeClique.query(), None).unwrap();
            let mut exec = LftjExecutor::new(&bq);
            let counted = exec.count_range_ctx(0, 1, &ExecCtx::none());
            let rows =
                exec.run_range_ctx(0, 1, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()));
            assert_eq!((counted, counted.results), (rows, 4), "far {far}");
            assert_eq!(
                exec.bitmaps.iter().filter(|b| b.ready).count(),
                usize::from(dense),
                "far {far}"
            );
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
