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
//! A count ([`LftjExecutor::count_range_ctx`]) does not visit what one atom
//! decides. The *tail* is the longest GAO suffix in which each position has
//! exactly one participating atom, and each order filter at a tail position sits
//! on its atom's first tail level and compares with a position before the tail
//! (`d1 b d2` of `common-likes`). The tail atoms are independent under a tail-start
//! prefix: each one's first tail level is its range inside the bounds (two
//! searches), and each deeper level is `[child_offsets[s], child_offsets[e])` of
//! the range above, O(1). A tail position explores the product of the range sizes
//! of the atoms it has reached, and the last one's product is the results.
//!
//! Bitmaps replace searches of a slice that repeats. A participant at its atom's
//! last trie level whose slice `(pos, end)` is the one it had in the previous
//! search at its position — `N(a)` under every `(b, c)` of a 4-cycle — gets a
//! bitmap over its values' `[min, max]`, kept for the rest of the streak. The
//! streak's `k`-th use, from the second on, builds it once its 64-bit words are
//! no more than `k` times the slice's values, and never past the entry count of
//! the trie level. A last position of several participants is then counted in
//! one scan of the participant without a bitmap (the shortest, if all have one),
//! between the bounds and inside every bitmap's `[min, max]`, testing each value
//! against every bitmap. An inner position of two participants, one with a bitmap,
//! is walked the same way, by the row path too, descending past each value the
//! bitmap holds in ascending order. When two participants lack a bitmap, or the
//! scan would be longer than a bitmapped slice, the leapfrog loop runs instead.
//! The counters are the row path's exactly, and a watched count ticks each tail's
//! or last level's count at once.
//!
//! A participant that opens its atom's root level at a GAO position after the
//! first, where that level is exactly the integers `[first, first + len)` (sorted
//! distinct values, so `last - first + 1 == len` is an O(1) test; a delta-carrying
//! index is tested on its fold), prunes nothing: it holds every value in its
//! range. [`LftjExecutor::new`] takes such participants out of the leapfrog
//! rotation, keeping at least one participant per position in it. A search still
//! opens their level, clips `[lower, upper)` to their range, runs the leapfrog
//! loop (or the last-level count) over the others, and before descending past a
//! match `v` sets their position to `v - first`, with no search. The edge trie's
//! root under `b` of a 3-clique is one: `b` scans `N(a)` alone. The indexes do
//! not change under an executor, so the split is fixed for its life, and an
//! executor with no such participant runs a separate monomorphisation of the
//! search that has no trace of it. Matches, emission order and counters are
//! unchanged.

use crate::leapfrog::seek;
use gj_query::BoundQuery;
use gj_runtime::{Counters, ExecCtx, ExecWatch, Morsel};
use gj_storage::{TrieIterator, Val, NEG_INF, POS_INF};
use std::ops::ControlFlow;

/// A membership bitmap of one participant at its atom's last trie level,
/// tracking the slice that participant searched last at its GAO position.
#[derive(Debug, Default)]
struct SliceBitmap {
    /// The previous search's slice at this position, as `(pos, end)` of the level.
    slice: (usize, usize),
    /// Consecutive searches of `slice` so far: the streak.
    uses: u64,
    /// Whether `words` holds the bitmap of `slice`.
    ready: bool,
    /// The slice's least and greatest values; bit 0 stands for `min`.
    min: Val,
    max: Val,
    /// Bit `v - min` is set for every value `v` of the slice.
    words: Vec<u64>,
    /// The most words a bitmap may hold: the entry count of the participant's
    /// trie level. Zero for a participant that is not at its atom's last level.
    max_words: u64,
}

impl SliceBitmap {
    fn new(max_words: u64) -> Self {
        SliceBitmap { max_words, ..SliceBitmap::default() }
    }

    /// Notes one more search of the non-empty slice `level[pos..]` and returns
    /// whether its bitmap is ready. A new slice starts a streak and drops the
    /// bitmap (its words keep their capacity). The streak's `k`-th use, from the
    /// second on, builds the bitmap once its words are no more than `k` times the
    /// slice's values (the searches it replaces pay for it), and no more than
    /// `max_words`.
    fn refresh(&mut self, level: &[Val], pos: usize) -> bool {
        let slice = (pos, level.len());
        if self.slice != slice {
            (self.slice, self.uses, self.ready) = (slice, 1, false);
        } else if !self.ready {
            self.uses += 1;
            let values = &level[pos..];
            let (min, max) = (values[0], values[values.len() - 1]);
            let words = max.abs_diff(min) / 64 + 1;
            if words <= self.uses.saturating_mul(values.len() as u64) && words <= self.max_words {
                self.build(values, min, max, words as usize);
            }
        }
        self.ready
    }

    fn build(&mut self, values: &[Val], min: Val, max: Val, words: usize) {
        (self.min, self.max, self.ready) = (min, max, true);
        self.words.clear();
        self.words.resize(words, 0);
        for &v in values {
            let bit = v.abs_diff(min);
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Whether `v`, which lies in `[min, max]`, is one of the slice's values.
    #[inline]
    fn holds(&self, v: Val) -> bool {
        let bit = v.abs_diff(self.min);
        self.words[(bit / 64) as usize] >> (bit % 64) & 1 == 1
    }
}

/// One position of the tail a count counts without visiting it (module docs):
/// the one atom participating there, at one of its trie levels.
#[derive(Debug, Clone, Copy)]
struct TailLevel<'a> {
    atom: usize,
    /// The atom's slot in [`Tail::ranges`].
    slot: usize,
    /// Whether this is the atom's first level in the tail, which the bounds clip.
    first: bool,
    /// The level's values.
    values: &'a [Val],
    /// The child offsets of the atom's level above; `None` at its root.
    parent: Option<&'a [u32]>,
}

/// The longest GAO suffix whose count is a product of per-atom range sizes
/// (module docs), fixed by [`LftjExecutor::new`].
#[derive(Debug)]
struct Tail<'a> {
    /// The first tail position; the number of positions when there is no tail.
    start: usize,
    /// One per tail position.
    levels: Vec<TailLevel<'a>>,
    /// Per tail atom: its entry range `[s, e)` at the deepest level reached.
    ranges: Vec<(usize, usize)>,
}

impl<'a> Tail<'a> {
    /// The tail of `bq` given the executor's rotation, its participants out of
    /// it and its filters. A suffix stays a tail when it loses its first
    /// position, so the tail starts at the least position whose suffix is one.
    fn of(
        bq: &'a BoundQuery,
        cursors: &[Vec<Cursor<'a>>],
        contiguous: &[Vec<Contiguous>],
        filters: &[Vec<(usize, bool)>],
    ) -> Self {
        let n = bq.num_vars();
        // The atom alone at `pos`, if one is, and its trie level there.
        let alone = |pos: usize| match (&cursors[pos][..], contiguous[pos].is_empty()) {
            ([c], true) => {
                let vars = &bq.atoms[c.atom].vars;
                Some((c.atom, vars.iter().position(|&v| v == bq.gao[pos])?))
            }
            _ => None,
        };
        // Whether the atom at `pos`, at `level`, has no level in `start..pos`.
        let first = |atom: usize, level: usize, start: usize| {
            level == 0 || bq.var_pos[bq.atoms[atom].vars[level - 1]] < start
        };
        let is_tail = |start: usize| {
            (start..n).all(|pos| {
                alone(pos).is_some_and(|(atom, level)| {
                    filters[pos].is_empty()
                        || first(atom, level, start)
                            && filters[pos].iter().all(|&(earlier, _)| earlier < start)
                })
            })
        };
        let start = (0..=n).rev().take_while(|&start| is_tail(start)).last().unwrap_or(n);
        let mut atoms: Vec<usize> = Vec::new();
        let levels = (start..n)
            .filter_map(alone)
            .map(|(atom, level)| {
                let slot = atoms.iter().position(|&a| a == atom).unwrap_or_else(|| {
                    atoms.push(atom);
                    atoms.len() - 1
                });
                let index = &bq.atoms[atom].index;
                TailLevel {
                    atom,
                    slot,
                    first: first(atom, level, start),
                    values: index.level_values(level),
                    parent: (level > 0).then(|| index.child_offsets(level - 1)),
                }
            })
            .collect();
        Tail { start, levels, ranges: vec![(0, 0); atoms.len()] }
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

/// A participant taken out of the leapfrog rotation: an atom whose root level,
/// opened at a GAO position after the first, is exactly the integers
/// `[first, end)`, so the value `v` sits at position `v - first`.
#[derive(Debug, Clone, Copy)]
struct Contiguous {
    atom: usize,
    first: Val,
    /// One past the last value, saturated at `POS_INF`, which no search reaches.
    end: Val,
}

impl Contiguous {
    /// The atom's root level as a [`Contiguous`] participant if it is exactly a
    /// run of consecutive integers.
    fn root_of(bq: &BoundQuery, atom: usize) -> Option<Self> {
        let (first, last) = bq.atoms[atom].index.contiguous_root()?;
        Some(Contiguous { atom, first, end: last.saturating_add(1) })
    }
}

/// LeapFrog TrieJoin executor over a [`BoundQuery`].
pub struct LftjExecutor<'a> {
    iters: Vec<TrieIterator<'a>>,
    /// Per GAO position: a cursor per participating atom in the leapfrog
    /// rotation. A search takes its level's buffer out and puts it back, so every
    /// search reuses it.
    cursors: Vec<Vec<Cursor<'a>>>,
    /// Per GAO position: the participants taken out of the rotation (module docs).
    contiguous: Vec<Vec<Contiguous>>,
    /// Per GAO position: filters `(earlier_gao_pos, earlier_is_smaller)`.
    filters: Vec<Vec<(usize, bool)>>,
    binding: Vec<Val>,
    /// Per GAO position: a bitmap per rotation participant where slices are
    /// tracked — at the last position (for counts) and at an inner position of
    /// two participants, one at its atom's last trie level (for walks) — and
    /// none elsewhere.
    bitmaps: Vec<Vec<SliceBitmap>>,
    /// The GAO suffix a count multiplies out instead of searching.
    tail: Tail<'a>,
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
        let (mut cursors, mut contiguous) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for pos in 0..n {
            let atoms = bq.atoms_at_gao_pos(pos);
            // gj-lint: allow(no-panic-in-engines) — binding rejects variables outside every atom, so only a hand-assembled BoundQuery reaches this
            assert!(
                !atoms.is_empty(),
                "variable {} is not contained in any atom",
                bq.query.var_names[bq.gao[pos]]
            );
            let (mut rotation, mut out) = (Vec::new(), Vec::new());
            for atom in atoms {
                let opens_root = pos > 0 && bq.atoms[atom].vars[0] == bq.gao[pos];
                match opens_root.then(|| Contiguous::root_of(bq, atom)).flatten() {
                    Some(part) => out.push(part),
                    None => rotation.push(Cursor { atom, level: &[], pos: 0 }),
                }
            }
            if rotation.is_empty() {
                let atom = out.remove(0).atom;
                rotation.push(Cursor { atom, level: &[], pos: 0 });
            }
            cursors.push(rotation);
            contiguous.push(out);
        }
        let iters = bq.atoms.iter().map(|a| a.index.iter()).collect();
        // A participant at its atom's last trie level may get a bitmap, of at
        // most as many words as that level has entries.
        let max_words = |pos: usize, atom: usize| {
            let (vars, index) = (&bq.atoms[atom].vars, &bq.atoms[atom].index);
            let last = vars.len() - 1;
            if vars[last] == bq.gao[pos] {
                index.level_values(last).len() as u64
            } else {
                0
            }
        };
        let bitmaps = cursors
            .iter()
            .enumerate()
            .map(|(pos, rotation)| {
                let walks =
                    rotation.len() == 2 && rotation.iter().any(|c| max_words(pos, c.atom) > 0);
                if pos + 1 == n || walks {
                    rotation.iter().map(|c| SliceBitmap::new(max_words(pos, c.atom))).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let filters = bq.filters_by_gao_pos();
        let tail = Tail::of(bq, &cursors, &contiguous, &filters);
        LftjExecutor {
            iters,
            bitmaps,
            tail,
            cursors,
            contiguous,
            filters,
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
    /// claims on it. The trie iterators, per-depth cursor buffers, filter tables
    /// and the bitmaps of walked slices are carried across calls (a completed or
    /// early-terminated search always rewinds its iterators back to the root),
    /// so a warm call allocates nothing, and only the counters are reset per
    /// range, so the result is identical to a fresh executor's over the same
    /// range. The search polls `ctx` once per explored binding (at the coarse
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
    /// range, found without visiting each match of the tail or of the last GAO
    /// level (see the module docs). The bitmaps of reused slices are kept across
    /// calls with their capacity, so a warm count allocates nothing. A watched
    /// count ticks each tail's or last level's count at once, so a stop lands
    /// within one [`CHECK_STRIDE`](gj_runtime::CHECK_STRIDE) plus one such count.
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
        // cannot trip) must not pay even that branch. Likewise, an executor with
        // no participant out of the rotation runs a search with no trace of them.
        let split = self.contiguous.iter().any(|out| !out.is_empty());
        let _ = match (watch.is_inert(), split) {
            (true, false) => self.search::<F, false, COUNT, false>(0, &mut watch, emit),
            (true, true) => self.search::<F, false, COUNT, true>(0, &mut watch, emit),
            (false, false) => self.search::<F, true, COUNT, false>(0, &mut watch, emit),
            (false, true) => self.search::<F, true, COUNT, true>(0, &mut watch, emit),
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
    /// over it (or walks a reused slice's bitmap; a count multiplies out the tail
    /// and counts the last level instead) and closes it again. An
    /// emitter's `Break` or a tripped `watch` unwinds through every level without
    /// visiting any further binding. `SPLIT` runs also open the participants out
    /// of the rotation and clip the bounds to their ranges.
    fn search<
        F: FnMut(&[Val]) -> ControlFlow<()>,
        const WATCHED: bool,
        const COUNT: bool,
        const SPLIT: bool,
    >(
        &mut self,
        depth: usize,
        watch: &mut ExecWatch<'_>,
        emit: &mut F,
    ) -> ControlFlow<()> {
        if COUNT && depth == self.tail.start {
            return self.count_tail::<WATCHED>(watch);
        }
        let mut cursors = std::mem::take(&mut self.cursors[depth]);
        let mut nonempty = true;
        for c in &mut cursors {
            nonempty &= c.open(&mut self.iters);
        }
        let (mut lower, mut upper) = self.bounds(depth);
        if SPLIT {
            for out in &self.contiguous[depth] {
                self.iters[out.atom].open();
                (lower, upper) = (lower.max(out.first), upper.min(out.end));
            }
        }
        let last = depth + 1 == self.cursors.len();
        let flow = if !nonempty || lower >= upper {
            ControlFlow::Continue(())
        } else if COUNT && last {
            self.count_leaf::<F, WATCHED, SPLIT>(depth, (lower, upper), &mut cursors, watch, emit)
        } else if !last && !self.bitmaps[depth].is_empty() {
            self.walk::<F, WATCHED, COUNT, SPLIT>(depth, (lower, upper), &mut cursors, watch, emit)
        } else {
            self.leapfrog::<F, WATCHED, COUNT, SPLIT>(
                depth,
                (lower, upper),
                &mut cursors,
                watch,
                emit,
            )
        };
        for c in &cursors {
            self.iters[c.atom].up();
        }
        if SPLIT {
            for out in &self.contiguous[depth] {
                self.iters[out.atom].up();
            }
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
    /// the non-empty `[lower, upper)` of [`bounds`](Self::bounds). Before it
    /// descends past a match, the participants out of the rotation move to it by
    /// subtraction.
    #[inline]
    fn leapfrog<
        F: FnMut(&[Val]) -> ControlFlow<()>,
        const WATCHED: bool,
        const COUNT: bool,
        const SPLIT: bool,
    >(
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
                    if SPLIT {
                        for out in &self.contiguous[depth] {
                            self.iters[out.atom].set_pos(target.abs_diff(out.first) as usize);
                        }
                    }
                    self.search::<F, WATCHED, COUNT, SPLIT>(depth + 1, watch, emit)
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

    /// Walks the leapfrog loop's matches at an inner `depth` of two opened,
    /// non-empty cursors, one of them with its slice's bitmap: scans the other
    /// between `[lower, upper)` and the bitmap's `[min, max]`, and explores each
    /// value the bitmap holds, in ascending order, as the loop would. The
    /// bitmapped participant is at its atom's last level, so only the scanned
    /// one is handed back to its iterator. The leapfrog loop runs instead when
    /// no cursor has a bitmap, or when the scan would be longer than the
    /// bitmapped slice.
    fn walk<
        F: FnMut(&[Val]) -> ControlFlow<()>,
        const WATCHED: bool,
        const COUNT: bool,
        const SPLIT: bool,
    >(
        &mut self,
        depth: usize,
        (lower, upper): (Val, Val),
        cursors: &mut [Cursor<'a>],
        watch: &mut ExecWatch<'_>,
        emit: &mut F,
    ) -> ControlFlow<()> {
        let Some((scan, from, to)) = self.plan_pass(depth, cursors, lower, upper) else {
            return self.leapfrog::<F, WATCHED, COUNT, SPLIT>(
                depth,
                (lower, upper),
                cursors,
                watch,
                emit,
            );
        };
        // The search below reaches deeper positions only; this one's bitmaps
        // are put back after the walk.
        let bitmaps = std::mem::take(&mut self.bitmaps[depth]);
        let (bitmap, mut flow) = (&bitmaps[1 - scan], ControlFlow::Continue(()));
        let c = &mut cursors[scan];
        for pos in from..to {
            let v = c.level[pos];
            if !bitmap.holds(v) {
                continue;
            }
            self.binding[depth] = v;
            self.stats.bindings_explored += 1;
            if WATCHED && watch.tick() {
                flow = ControlFlow::Break(());
                break;
            }
            c.pos = pos;
            c.sync(&mut self.iters);
            if SPLIT {
                for out in &self.contiguous[depth] {
                    self.iters[out.atom].set_pos(v.abs_diff(out.first) as usize);
                }
            }
            flow = self.search::<F, WATCHED, COUNT, SPLIT>(depth + 1, watch, emit);
            if flow.is_break() {
                break;
            }
        }
        self.bitmaps[depth] = bitmaps;
        flow
    }

    /// Counts the tail from its first position: per atom, the first tail level's
    /// range under the atom's prefix, clipped to the bounds, then each deeper
    /// level's range from the child offsets of the one above. A tail position
    /// explores the product of the range sizes of the atoms it has reached;
    /// the last one's product is the results.
    fn count_tail<const WATCHED: bool>(&mut self, watch: &mut ExecWatch<'_>) -> ControlFlow<()> {
        // An atom not reached yet multiplies by one.
        self.tail.ranges.fill((0, 1));
        let (mut explored, mut found) = (0u64, 1u64);
        for (i, level) in self.tail.levels.iter().enumerate() {
            let (s, e) = self.tail.ranges[level.slot];
            let range = match (level.first, level.parent) {
                // A deeper level: the children of the range above.
                (false, Some(offsets)) => (offsets[s] as usize, offsets[e] as usize),
                // A first level: the children of the atom's prefix, inside the bounds.
                (_, parent) => {
                    let (s, e) = match parent {
                        Some(offsets) => {
                            let at = self.iters[level.atom].level().1;
                            (offsets[at] as usize, offsets[at + 1] as usize)
                        }
                        None => (0, level.values.len()),
                    };
                    let (lower, upper) = self.bounds(self.tail.start + i);
                    let values = &level.values[..e];
                    let from = seek(values, s, lower);
                    (from, seek(values, from, upper))
                }
            };
            self.tail.ranges[level.slot] = range;
            found = self.tail.ranges.iter().fold(1, |p, &(s, e)| p.saturating_mul((e - s) as u64));
            explored += found;
            if found == 0 {
                break;
            }
        }
        self.stats.bindings_explored += explored;
        self.stats.results += found;
        if WATCHED && watch.tick_many(explored) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Counts the last GAO level over opened, non-empty cursors within the
    /// non-empty `[lower, upper)` and adds the count to both counters, as the
    /// leapfrog loop would one match at a time.
    ///
    /// A one-participant last level is a tail, counted before it is opened,
    /// unless a participant out of the rotation shares it: the one-cursor arm
    /// counts that case, inside the bounds those participants clipped.
    ///
    /// The last level descends nowhere, yet `SPLIT` is passed on: each
    /// monomorphisation then has one caller and is inlined into it. One
    /// shared by both searches stayed out of line, with its leapfrog loop, and
    /// slowed unsplit LDBC counts (`friend-triangle`, `common-likes`) by 3 %.
    fn count_leaf<F: FnMut(&[Val]) -> ControlFlow<()>, const WATCHED: bool, const SPLIT: bool>(
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
            _ => match self.bitmap_pass(depth, cursors, lower, upper) {
                Some(found) => found,
                None => {
                    return self.leapfrog::<F, WATCHED, true, SPLIT>(
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

    /// Refreshes the bitmaps of the cursors' slices at `depth` and plans one pass
    /// over the cursor without a bitmap (over the shortest, if all have one):
    /// its positions `from..to` of the values inside `[lower, upper)` and every
    /// other cursor's bitmap range, as `(cursor, from, to)`. `None` — the
    /// leapfrog loop runs — when two cursors lack a bitmap, or when the pass
    /// would be longer than a bitmapped slice.
    fn plan_pass(
        &mut self,
        depth: usize,
        cursors: &[Cursor<'a>],
        lower: Val,
        upper: Val,
    ) -> Option<(usize, usize, usize)> {
        let bitmaps = &mut self.bitmaps[depth];
        let len = |c: &Cursor<'a>| c.level.len() - c.pos;
        let (mut plain, mut scan) = (0, 0);
        for (i, (c, b)) in cursors.iter().zip(bitmaps.iter_mut()).enumerate() {
            if !b.refresh(c.level, c.pos) {
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
        let (mut lo, mut hi, mut shortest) = (lower, upper, usize::MAX);
        for (i, b) in bitmaps.iter().enumerate().filter(|&(i, _)| i != scan) {
            (lo, hi) = (lo.max(b.min), hi.min(b.max.saturating_add(1)));
            shortest = shortest.min(len(&cursors[i]));
        }
        let d = &cursors[scan];
        let from = seek(d.level, d.pos, lo);
        let to = seek(d.level, from, hi);
        (to - from <= shortest).then_some((scan, from, to))
    }

    /// Counts the values of the last level's pass ([`plan_pass`](Self::plan_pass))
    /// that every other cursor's bitmap holds.
    fn bitmap_pass(
        &mut self,
        depth: usize,
        cursors: &[Cursor<'a>],
        lower: Val,
        upper: Val,
    ) -> Option<u64> {
        let (scan, from, to) = self.plan_pass(depth, cursors, lower, upper)?;
        let bitmaps = &self.bitmaps[depth];
        let values = &cursors[scan].level[from..to];
        // Two participants, so one bitmap to test, is the common case (the last
        // level of the 3-clique and the 4-cycle). A loop of its own keeps that
        // bitmap out of the walk over the bitmaps per value: without it, the
        // benchmark's `cyclic-lftj` workload ran 5 % fewer counts per second
        // (152 against 160 per second, 10 alternating runs each, 2-CPU machine).
        let found = match cursors.len() {
            2 => {
                let b = &bitmaps[1 - scan];
                values.iter().filter(|&&v| b.holds(v)).count()
            }
            _ => {
                let tests = bitmaps.iter().enumerate().filter(|&(i, _)| i != scan);
                values.iter().filter(|&&v| tests.clone().all(|(_, b)| b.holds(v))).count()
            }
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

    /// The uses of one slice on which its bitmap is ready.
    fn ready_on(bitmap: &mut SliceBitmap, values: &[Val], uses: usize) -> Vec<usize> {
        (1..=uses).filter(|_| bitmap.refresh(values, 0)).collect()
    }

    /// A slice's bitmap is built on the streak's `k`-th use, from the second on,
    /// once `k` times its values cover its words: on the second use for a dense
    /// slice, on the use that pays for a sparse one, and never when its words
    /// outnumber its level's entries. A new slice drops the bitmap.
    #[test]
    fn a_reused_slice_gets_a_bitmap_on_the_use_that_pays_for_it() {
        let mut dense = SliceBitmap::new(100);
        assert_eq!(ready_on(&mut dense, &[1, 2, 3, 4, 5], 3), [2, 3]);
        // Five values over 1 000 ids need 16 words: `k × 5 >= 16` from k = 4.
        let sparse = [1, 2, 3, 4, 1_000];
        let mut bitmap = SliceBitmap::new(100);
        assert_eq!(ready_on(&mut bitmap, &sparse, 5), [4, 5]);
        assert!((1..=1_000).all(|v| bitmap.holds(v) == sparse.contains(&v)));
        assert_eq!(ready_on(&mut bitmap, &[0, 2_000, 7_000], 2), Vec::<usize>::new());
        assert!(!bitmap.ready, "another slice drops the bitmap");
        // 16 words from the fourth use on, but the level has 15 entries.
        let mut capped = SliceBitmap::new(15);
        assert_eq!(ready_on(&mut capped, &sparse, 1_000), Vec::<usize>::new());
        assert_eq!(capped.words.capacity(), 0);
    }

    /// `N(0)` is the last level's slice under every `b` of the 3-clique at `a = 0`,
    /// five uses in all: its bitmap is built on the second one when it is dense,
    /// on the fourth when its five values span 1 000 ids (16 words), and not at
    /// all when they span 100 000. Either way the count is the row path's.
    #[test]
    fn a_reused_leaf_slice_gets_a_bitmap_once_its_uses_pay_for_it() {
        for (far, built_on) in [(5, Some(2)), (1_000, Some(4)), (100_000, None)] {
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
            // A ready bitmap ends the streak's count.
            let n0 = &exec.bitmaps[2][1];
            assert_eq!(
                (n0.ready, n0.uses),
                (built_on.is_some(), built_on.unwrap_or(5)),
                "far {far}"
            );
        }
    }

    /// A slice of two values at both ends of `i64`, reused under a thousand `b`,
    /// would need 2^58 words: its bitmap never holds more than its level's two
    /// entries. The count is the row path's.
    #[test]
    fn a_slice_spanning_i64_never_allocates_past_its_level() {
        let ends = [NEG_INF + 1, POS_INF - 1];
        let mut inst = Instance::new();
        inst.add_relation("p", Relation::from_pairs(ends.map(|c| (0, c))));
        inst.add_relation("q", Relation::from_pairs((0..1_000).flat_map(|b| ends.map(|c| (b, c)))));
        let q = QueryBuilder::new("ends").atom("p", &["a", "c"]).atom("q", &["b", "c"]).build();
        let bq = BoundQuery::new(&inst, &q, Some(vec![0, 2, 1])).unwrap();
        let stats = count_is_row_path(&bq);
        assert_eq!(stats.results, 2_000);
        let mut exec = LftjExecutor::new(&bq);
        exec.count_range_ctx(NEG_INF, POS_INF, &ExecCtx::none());
        for bitmap in &exec.bitmaps[2] {
            assert!(
                bitmap.max_words <= 2_000 && bitmap.words.capacity() as u64 <= bitmap.max_words
            );
            assert!(!bitmap.ready);
        }
        assert_eq!(exec.bitmaps[2][0].uses, 1_000, "p's slice is reused under every b");
    }

    /// The participants `new` takes out of the rotation, as `"b: edge(b,c)"`.
    fn taken_out(bq: &BoundQuery) -> Vec<String> {
        let exec = LftjExecutor::new(bq);
        let name = |v: usize| bq.query.var_names[v].as_str();
        let mut out = Vec::new();
        for (pos, parts) in exec.contiguous.iter().enumerate() {
            for part in parts {
                let atom = &bq.query.atoms[bq.atoms[part.atom].atom_idx];
                let vars: Vec<&str> = atom.vars.iter().map(|&v| name(v)).collect();
                out.push(format!("{}: {}({})", name(bq.gao[pos]), atom.relation, vars.join(",")));
            }
        }
        out
    }

    /// Checks that a whole-axis count reports the row path's counters, and returns them.
    fn count_is_row_path(bq: &BoundQuery) -> Counters {
        let all = Morsel::whole_axis();
        let mut exec = LftjExecutor::new(bq);
        let counted = exec.count_range_ctx(all.lo, all.hi, &ExecCtx::none());
        let rows = run_all(bq, &mut |_| ControlFlow::Continue(()));
        assert_eq!(counted, rows, "{}", bq.query.name);
        counted
    }

    /// A random graph on 60 nodes in which every node has an edge, so the `edge`
    /// trie's root is the ids `0..60`.
    fn covered_graph() -> Graph {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60u32;
        let mut edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|_| rng.gen_bool(0.15))
            .collect();
        edges.extend((0..n).map(|a| (a, (a + 1) % n)));
        Graph::new_undirected(n as usize, edges)
    }

    #[test]
    fn contiguous_roots_after_the_first_position_leave_the_rotation() {
        let inst = instance_with_samples(&covered_graph(), &[]);
        let expected: [(CatalogQuery, &[&str]); 3] = [
            (CatalogQuery::ThreeClique, &["b: edge(b,c)"]),
            (CatalogQuery::FourClique, &["b: edge(b,c)", "b: edge(b,d)", "c: edge(c,d)"]),
            (CatalogQuery::FourCycle, &["b: edge(b,c)", "c: edge(c,d)"]),
        ];
        for (cq, out) in expected {
            let q = cq.query();
            let gao = (0..q.num_vars()).collect();
            let bq = BoundQuery::new(&inst, &q, Some(gao)).unwrap();
            assert_eq!(
                bq.atoms[0].index.first_level_values(),
                (0..60).collect::<Vec<Val>>(),
                "the root is contiguous"
            );
            // Position 0 opens the same contiguous root, but stays whole.
            assert_eq!(taken_out(&bq), out, "{}", q.name);
            let stats = count_is_row_path(&bq);
            assert_eq!(stats.results, naive_join(&inst, &q).len() as u64, "{}", q.name);
        }
    }

    #[test]
    fn a_root_with_a_hole_stays_in_the_rotation() {
        // Node 2 has no edge: the root `{0, 1, 3, 4}` spans five ids.
        let g = Graph::new_undirected(5, vec![(0, 1), (1, 3), (0, 3), (3, 4), (1, 4)]);
        let inst = instance_with_samples(&g, &[]);
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourClique, CatalogQuery::FourCycle] {
            let q = cq.query();
            let bq = BoundQuery::new(&inst, &q, None).unwrap();
            assert_eq!(taken_out(&bq), Vec::<String>::new(), "{}", q.name);
            let stats = count_is_row_path(&bq);
            assert_eq!(stats.results, naive_join(&inst, &q).len() as u64, "{}", q.name);
        }
    }

    /// At `b`, both `q` and `r` open a contiguous root: `q` stays in the rotation
    /// and `r` clips it to `[7, 10)`.
    #[test]
    fn a_position_of_contiguous_roots_only_keeps_one() {
        let mut inst = Instance::new();
        inst.add_relation("p", Relation::from_values(0..3));
        inst.add_relation("q", Relation::from_values(5..10));
        inst.add_relation("r", Relation::from_values(7..13));
        let q = QueryBuilder::new("cross")
            .atom("p", &["a"])
            .atom("q", &["b"])
            .atom("r", &["b"])
            .build();
        let bq = BoundQuery::new(&inst, &q, Some(vec![0, 1])).unwrap();
        assert_eq!(taken_out(&bq), ["b: r(b)"]);
        let mut rows = Vec::new();
        let stats = run_all(&bq, &mut |b| {
            rows.push(b.to_vec());
            ControlFlow::Continue(())
        });
        let expected: Vec<Vec<Val>> =
            (0..3).flat_map(|a| (7..10).map(move |b| vec![a, b])).collect();
        assert_eq!(rows, expected);
        assert_eq!((stats.results, stats.bindings_explored), (9, 12));
        assert_eq!(count_is_row_path(&bq), stats);
    }

    /// Random relations `r(_, _, _)` and `s(_, _)` over the values `0..8`.
    fn ternary_instance() -> Instance {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut row = |arity: usize| (0..arity).map(|_| rng.gen_range(0..8)).collect::<Vec<Val>>();
        let (r, s) = ((0..60).map(|_| row(3)).collect(), (0..30).map(|_| row(2)).collect());
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_rows(3, r));
        inst.add_relation("s", Relation::from_rows(2, s));
        inst.add_relation("likes", inst.relation("r").unwrap().clone());
        inst
    }

    /// Where the tail starts, per query under the natural GAO: a position joins
    /// it when one atom decides it, and its filters sit on that atom's first
    /// tail level and compare with a position before the tail.
    #[test]
    fn the_tail_is_the_suffix_one_atom_decides() {
        let inst = ternary_instance();
        let q = |name: &str| QueryBuilder::new(name);
        let cases = [
            (q("alone").atom("r", &["a", "x", "y"]).build(), 0),
            (q("two").atom("r", &["a", "x", "z"]).atom("s", &["a", "y"]).build(), 1),
            // `x < y` compares two would-be tail positions.
            (q("between").atom("s", &["a", "x"]).atom("s", &["a", "y"]).lt("x", "y").build(), 2),
            (q("first").atom("r", &["a", "x", "y"]).atom("s", &["a", "z"]).lt("a", "x").build(), 1),
            // `a < y` sits on the second tail level of `r`.
            (
                q("second").atom("s", &["a", "b"]).atom("r", &["b", "x", "y"]).lt("a", "y").build(),
                3,
            ),
            (q("joined").atom("r", &["a", "x", "y"]).atom("s", &["x", "z"]).build(), 2),
        ];
        for (query, start) in cases {
            let gao = (0..query.num_vars()).collect();
            let bq = BoundQuery::new(&inst, &query, Some(gao)).unwrap();
            assert_eq!(LftjExecutor::new(&bq).tail.start, start, "{}", query.name);
            let stats = count_is_row_path(&bq);
            assert_eq!(stats.results, naive_join(&inst, &query).len() as u64, "{}", query.name);
        }
        // `common-likes`: `d1` (the first `likes`), then `b` and `d2` (the second);
        // `a < b` sits on the second's first tail level.
        let q = gj_query::LdbcQuery::CommonLikes.query();
        let gao =
            ["m", "a", "d1", "b", "d2"].map(|v| q.var_names.iter().position(|n| n == v).unwrap());
        let bq = BoundQuery::new(&inst, &q, Some(gao.to_vec())).unwrap();
        assert_eq!(LftjExecutor::new(&bq).tail.start, 2);
        assert_eq!(count_is_row_path(&bq).results, naive_join(&inst, &q).len() as u64);
    }

    /// At `c` of the 4-clique, `N(a)` is the same slice under every `b`: once its
    /// bitmap is ready, the search walks `N(b)` and tests it, and explores what
    /// the leapfrog loop would, in its order.
    #[test]
    fn an_inner_walk_explores_the_leapfrog_loops_bindings() {
        let inst = instance_with_samples(&covered_graph(), &[]);
        let q = CatalogQuery::FourClique.query();
        let bq = BoundQuery::new(&inst, &q, Some(vec![0, 1, 2, 3])).unwrap();
        let mut exec = LftjExecutor::new(&bq);
        let all = Morsel::whole_axis();
        let mut rows = Vec::new();
        let stats = exec.run_range_ctx(all.lo, all.hi, &ExecCtx::none(), &mut |b| {
            rows.push(bq.binding_to_var_order(b));
            ControlFlow::Continue(())
        });
        assert_eq!(rows, naive_join(&inst, &q));
        assert_eq!(count_is_row_path(&bq), stats);
        // The last streak of `N(0)` is still running after a run at `a = 0` alone.
        exec.run_range_ctx(0, 1, &ExecCtx::none(), &mut |_| ControlFlow::Continue(()));
        assert_eq!(exec.bitmaps[2].len(), 2, "c is walked");
        assert!(exec.bitmaps[2].iter().any(|b| b.ready), "vacuous: no bitmap was built");
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
