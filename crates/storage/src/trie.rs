//! Flat trie indexes, delta layers, and trie iterators.
//!
//! Both LeapFrog TrieJoin and Minesweeper assume every input relation is indexed by a
//! search tree consistent with the global attribute order (GAO) — Section 4.1 and
//! Figure 1 of the paper. We store that search tree as a *flat trie*: one sorted value
//! array per level plus child-range offsets, the same layout used by in-memory
//! worst-case-optimal join systems. The layout gives:
//!
//! * cache-friendly, allocation-free iteration for the LFTJ iterator interface
//!   (`open` / `up` / `next` / `seek`), and
//! * `O(log)` per-level prefix probes with greatest-lower-bound / least-upper-bound
//!   answers, which is exactly what Minesweeper's `seekGap` (Idea 3) needs to build a
//!   maximal gap box around a free tuple. A [`ProbeCursor`] lets consecutive probes
//!   of one index skip the leading levels whose value did not change.
//!
//! # Delta layers (incremental maintenance)
//!
//! A [`TrieIndex`] is an immutable **base** trie (`TrieCore`, shared through an
//! `Arc` by the edited versions of the index built on it) plus an optional **delta
//! layer**: two small sorted row sets holding inserted rows and tombstoned base rows.
//! The logical content is `(base \ deletes) ∪ inserts`.
//!
//! Each index stacks its own edit batches ([`TrieIndex::with_edits`]), one at a
//! time on top of its live content, in O(delta) work. While nobody has read the
//! index, a batch merges into the pending delta: a delete of a pending insert
//! cancels it and a re-insert of a tombstoned row revives it, so the delta stays as
//! small as the net edits. Once a reader has folded the index, the fold is the next
//! version's base and the batch its delta. No two indexes share an edit history.
//!
//! Readers never see the layers. The first read of a delta-carrying index folds them
//! into one solid trie — a sort-free linear merge that copies the runs of base rows
//! between edit rows level by level, writes the insert rows between them and drops
//! the tombstoned ones — and every later read of that index uses the fold. So every
//! reader walks one layout, and a trie read after an edit costs what it costs on an
//! index rebuilt from the live relation: the fold is structurally identical to that
//! rebuild. The [`IndexCache`](../../gj_query/struct.IndexCache.html) compacts an
//! index whose delta crosses its compaction threshold into a fresh base, through the
//! same fold.

use crate::relation::Relation;
use crate::value::{Val, NEG_INF, POS_INF};
use std::sync::{Arc, OnceLock};

/// The immutable flat-trie layer: one sorted value array per level plus child-range
/// offsets. Level `d` stores one entry per distinct length-`d+1` prefix of the
/// (permuted) relation; `child_start[d][i]` gives the index in level `d+1` where the
/// children of entry `i` begin, so the children of entry `i` occupy
/// `child_start[d][i] .. child_start[d][i + 1]`.
///
/// Offsets are `u32`, so a level holds at most `u32::MAX` entries; the build
/// rejects a relation with more rows than that (the deepest level has one entry per
/// row, and no level has more entries than the deepest).
///
/// The example of Figure 1 in the paper — `R(A2, A4, A5)` indexed in the order
/// `A2, A4, A5` — produces level 0 = `[5, 7, 10]`, level 1 = `[1, 4, 9, 4]`, and
/// level 2 = `[4, 7, 12, 6, 8, 13, 1]`.
#[derive(Debug, Clone)]
struct TrieCore {
    arity: usize,
    num_rows: usize,
    values: Vec<Vec<Val>>,
    child_start: Vec<Vec<u32>>,
}

impl TrieCore {
    /// Builds the flat trie over `relation` in the column order given by `perm`.
    ///
    /// The build is **zero-materialization**: it sorts a row-index permutation of the
    /// relation's flat buffer ([`Relation::sorted_row_order`] — a no-op for the
    /// identity permutation, since relations store their rows sorted) and streams the
    /// trie levels directly out of the buffer through that order. No permuted copy of
    /// the relation is ever created. The order costs O(passes × (rows + span)): one
    /// stable counting pass per column of `perm` before its ascending tail, or a
    /// stable sort for a column whose range is at least 64 × rows wide.
    fn build(relation: &Relation, perm: &[usize]) -> Self {
        // sorted_row_order validates that perm is a permutation of 0..arity.
        let order = relation.sorted_row_order(perm);
        // Size every level first, so each is written once at its final capacity: a
        // row opens an entry at every level from the first one where it differs
        // from the previous row.
        let mut sizes = vec![0; relation.arity()];
        let mut prev: Option<&[Val]> = None;
        for &ri in &order {
            let row = relation.row(ri as usize);
            let diverge = prev.map_or(0, |p| perm.iter().take_while(|&&c| p[c] == row[c]).count());
            for size in &mut sizes[diverge..] {
                *size += 1;
            }
            prev = Some(row);
        }
        let mut out = LevelWriter::new(relation.arity(), relation.len(), |d| sizes[d]);
        for &ri in &order {
            let row = relation.row(ri as usize);
            out.push(|d| row[perm[d]]);
        }
        out.finish()
    }

    /// The solid trie of `(base \ del) ∪ ins`, where `ins` and `del` hold their
    /// rows in this trie's column order and satisfy [`TrieIndex::with_edits`]'
    /// preconditions. One linear pass with no sort: each edit row is ranked among
    /// the base rows by one descent, and the runs of base rows between edit rows
    /// are copied level by level. Every level is written once, reserved up front at
    /// its size with no key collapsed (exact at the deepest level).
    fn fold(base: &TrieCore, ins: &Relation, del: &Relation) -> Self {
        let rows = base.num_rows - del.len() + ins.len();
        let mut out = LevelWriter::new(base.arity, rows, |d| base.values[d].len() + ins.len());
        let mut dead = del.iter().map(|row| base.rank(row)).peekable();
        let inserts = ins.iter().map(|row| (base.rank(row), Some(row)));
        // The first base row not yet written or dropped.
        let mut live_from = 0;
        for (at, row) in inserts.chain([(base.num_rows, None)]) {
            while let Some(dead_at) = dead.next_if(|&x| x < at) {
                out.copy_rows(base, live_from, dead_at);
                live_from = dead_at + 1;
            }
            out.copy_rows(base, live_from, at);
            live_from = at;
            if let Some(row) = row {
                out.push(|d| row[d]);
            }
        }
        out.finish()
    }

    /// How many rows sort before `row`: its row position, or where it would go.
    fn rank(&self, row: &[Val]) -> usize {
        let (mut lo, mut hi) = self.root_range();
        for (d, &v) in row.iter().enumerate() {
            let pos = lo + self.values[d][lo..hi].partition_point(|&x| x < v);
            if d + 1 == self.arity || pos == hi || self.values[d][pos] != v {
                // The first row under entry `pos`, or after the level's last entry.
                return self.child_start[d..].iter().fold(pos, |e, cs| cs[e] as usize);
            }
            (lo, hi) = self.children_range(d, pos);
        }
        0
    }

    /// The entry on the path to row `row` at every level.
    fn path(&self, row: usize) -> Vec<usize> {
        let mut path = vec![row; self.arity];
        for d in (1..self.arity).rev() {
            let child = path[d];
            path[d - 1] = self.child_start[d - 1].partition_point(|&c| c as usize <= child) - 1;
        }
        path
    }

    fn root_range(&self) -> (usize, usize) {
        (0, self.values.first().map_or(0, Vec::len))
    }

    /// The root level's least and greatest values when the level holds every
    /// integer between them. Values are sorted and distinct, so the test is
    /// `last - first + 1 == len`.
    fn contiguous_root(&self) -> Option<(Val, Val)> {
        let root = self.values.first()?;
        let (&first, &last) = (root.first()?, root.last()?);
        (last.abs_diff(first) == root.len() as u64 - 1).then_some((first, last))
    }

    fn children_range(&self, depth: usize, idx: usize) -> (usize, usize) {
        let cs = &self.child_start[depth];
        (cs[idx] as usize, cs[idx + 1] as usize)
    }

    /// Binary search for `v` among the entries `lo..hi` of level `d`.
    fn find_in(&self, d: usize, lo: usize, hi: usize, v: Val) -> Option<usize> {
        let vals = &self.values[d][lo..hi];
        vals.binary_search(&v).ok().map(|i| lo + i)
    }
}

/// Writes the levels of a [`TrieCore`] from rows that arrive in sorted order, each
/// level appended to once.
struct LevelWriter {
    values: Vec<Vec<Val>>,
    child_start: Vec<Vec<u32>>,
    rows: usize,
}

impl LevelWriter {
    /// A writer for exactly `rows` rows of `arity` values; `capacity(d)` is the
    /// space to reserve at level `d < arity - 1` (the deepest level gets `rows`).
    /// Panics when `rows` exceeds `u32::MAX`, the bound of the child offsets.
    fn new(arity: usize, rows: usize, capacity: impl Fn(usize) -> usize) -> Self {
        assert!(u32::try_from(rows).is_ok(), "a trie level holds at most u32::MAX entries");
        let cap = |d: usize| if d + 1 == arity { rows } else { capacity(d) };
        LevelWriter {
            values: (0..arity).map(|d| Vec::with_capacity(cap(d))).collect(),
            // One offset per entry, plus the closing sentinel.
            child_start: (0..arity.saturating_sub(1))
                .map(|d| Vec::with_capacity(cap(d) + 1))
                .collect(),
            rows: 0,
        }
    }

    /// Appends the row whose level-`d` value is `value(d)`; it must sort after
    /// every row appended before it.
    #[inline]
    fn push(&mut self, value: impl Fn(usize) -> Val) {
        let arity = self.values.len();
        // The last entry of every level is the previous row's value there, so the
        // row opens new entries from the first level where it differs.
        let mut diverge = 0;
        while diverge < arity && self.values[diverge].last() == Some(&value(diverge)) {
            diverge += 1;
        }
        debug_assert!(diverge < arity, "rows must be distinct");
        for d in diverge..arity {
            if d > 0 && self.child_start[d - 1].len() < self.values[d - 1].len() {
                // A new entry at level d opens under the current last entry of
                // level d-1; record where its children start.
                self.child_start[d - 1].push(self.values[d].len() as u32);
            }
            self.values[d].push(value(d));
        }
        self.rows += 1;
    }

    /// Appends rows `lo..hi` of `core` (row positions in trie order), which must
    /// sort after every row appended before: each level's entries on their paths
    /// in one copy, each copied entry's child offset moved to where its children
    /// land. Entries the last appended row already opened are not repeated.
    fn copy_rows(&mut self, core: &TrieCore, lo: usize, hi: usize) {
        if lo == hi {
            return;
        }
        let (first, last) = (core.path(lo), core.path(hi - 1));
        let shared = (0..core.arity)
            .take_while(|&d| self.values[d].last() == Some(&core.values[d][first[d]]))
            .count();
        let from = |d: usize| first[d] + usize::from(d < shared);
        for (d, &to) in last.iter().enumerate() {
            self.values[d].extend_from_slice(&core.values[d][from(d)..=to]);
            if d + 1 < core.arity {
                // The copied children start at `at`; children of the first entry that
                // precede the run (written already, or dropped) are not copied.
                let (at, skip) = (self.values[d + 1].len() as u32, from(d + 1) as u32);
                let starts = &core.child_start[d][from(d)..=to];
                self.child_start[d].extend(starts.iter().map(|&c| at + c.saturating_sub(skip)));
            }
        }
        self.rows += hi - lo;
    }

    fn finish(mut self) -> TrieCore {
        // Close the offset arrays with a final sentinel.
        for d in 0..self.child_start.len() {
            self.child_start[d].push(self.values[d + 1].len() as u32);
        }
        TrieCore {
            arity: self.values.len(),
            num_rows: self.rows,
            values: self.values,
            child_start: self.child_start,
        }
    }
}

/// A trie (prefix tree) index over a [`Relation`] in a chosen attribute order: an
/// `Arc`-shared immutable base trie plus an optional delta layer of inserts and
/// tombstoned deletes (see the [module docs](self) for the layer semantics).
///
/// Every reader — [`TrieIndex::iter`], [`TrieIndex::probe`] and the level accessors
/// — reads one solid trie: the base when there is no delta, otherwise the fold of
/// base and delta, built once on the first read and shared by every later one.
#[derive(Debug, Clone)]
pub struct TrieIndex {
    base: Arc<TrieCore>,
    delta: Option<DeltaLayer>,
    /// Column permutation used to build the index: output level `d` corresponds to
    /// source column `perm[d]` of the original relation.
    perm: Vec<usize>,
    /// Live row count: `base - deletes + inserts`.
    num_rows: usize,
    /// Upper bound on the largest live value (exact for solid indexes; deletes may
    /// make it an overestimate, which is all Minesweeper's domain bound needs).
    max_value: Option<Val>,
}

/// The mutable-by-replacement half of a [`TrieIndex`]: the inserted rows and the
/// tombstoned rows, both with their columns in the base's order (so sorted as the
/// trie sorts them), and their fold with the base once a reader asked for it.
/// Deletes apply to the base only — the logical content is `(base \ del) ∪ ins`.
#[derive(Debug, Clone)]
struct DeltaLayer {
    ins: Relation,
    del: Relation,
    folded: OnceLock<Arc<TrieCore>>,
}

/// Result of probing a trie index with a full projected tuple (Minesweeper, Idea 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The whole tuple is present in the relation.
    Found,
    /// The prefix of length `depth` is present but extending it with the probed value
    /// is not. `(lower, upper)` is the maximal open interval around the probed value
    /// that contains no value extending that prefix; the ends are `NEG_INF` /
    /// `POS_INF` when the probe falls before the first or after the last child.
    Gap { depth: usize, lower: Val, upper: Val },
}

/// Where the previous [`TrieIndex::probe_with`] left its descent of one index, so
/// the next probe redoes only the levels its tuple changes, and gallops forward
/// from where a level's search ended when its value grew.
#[derive(Debug, Clone)]
pub struct ProbeCursor {
    /// Per level: the value probed there, the entry range `lo..hi` of the level
    /// it was searched in (the children of the probed prefix), and the position
    /// the search found (the first entry `>=` the value). Valid for levels
    /// `0..=matched` (all of them after a `Found`).
    levels: Vec<Level>,
    /// Leading levels whose probed value was found: the gap depth, or the arity
    /// after a `Found`.
    matched: usize,
}

/// One level of a [`ProbeCursor`].
#[derive(Debug, Clone, Copy)]
struct Level {
    value: Val,
    lo: usize,
    hi: usize,
    pos: usize,
}

impl ProbeCursor {
    /// Forgets the previous probe: the next one searches every level from the
    /// root, as on a fresh cursor.
    pub fn reset(&mut self) {
        if let Some(root) = self.levels.first_mut() {
            root.value = NEG_INF;
            root.pos = root.lo;
        }
        self.matched = 0;
    }
}

impl TrieIndex {
    /// Builds a solid (delta-free) trie index over `relation`, indexing the columns in
    /// the order given by `perm` (`perm[d]` is the source column that becomes trie
    /// level `d`). `perm` must be a permutation of `0..relation.arity()`, and the
    /// relation may hold at most `u32::MAX` rows.
    pub fn build(relation: &Relation, perm: &[usize]) -> Self {
        let core = TrieCore::build(relation, perm);
        TrieIndex {
            num_rows: core.num_rows,
            base: Arc::new(core),
            delta: None,
            perm: perm.to_vec(),
            max_value: relation.max_value(),
        }
    }

    /// Builds a trie index over a relation in its natural column order.
    pub fn build_natural(relation: &Relation) -> Self {
        let perm: Vec<usize> = (0..relation.arity()).collect();
        Self::build(relation, &perm)
    }

    /// Returns this index with one edit batch applied on top of its live content:
    /// `ins` rows enter and `del` rows leave, in O(delta) work; no trie is rebuilt.
    /// If a reader has built this index's fold, the fold is the result's base and
    /// the batch its delta. Otherwise the batch is stacked onto the pending delta by
    /// four linear merges (a delete of a pending insert cancels it, a re-insert of a
    /// tombstoned row revives it), over the same shared base. The first read of the
    /// result folds its delta into a solid trie.
    ///
    /// Preconditions (the `Database` normalizes every batch against its relation):
    /// `del` rows are live in this index, `ins` rows are not, and the two are
    /// disjoint.
    pub fn with_edits(&self, ins: &Relation, del: &Relation) -> TrieIndex {
        assert_eq!(ins.arity(), self.arity(), "insert batch arity mismatch");
        assert_eq!(del.arity(), self.arity(), "delete batch arity mismatch");
        let num_rows = self.num_rows - del.len() + ins.len();
        let max_value = self.max_value.max(ins.max_value());
        let (mut ins, mut del) = (ins.permute(&self.perm), del.permute(&self.perm));
        let mut base = &self.base;
        if let Some(delta) = &self.delta {
            match delta.folded.get() {
                Some(fold) => base = fold,
                None => {
                    let none = Relation::empty(self.arity());
                    (ins, del) = (
                        delta.ins.with_edits(&ins, &del).with_edits(&none, &delta.del),
                        delta.del.with_edits(&del, &ins).with_edits(&none, &delta.ins),
                    );
                }
            }
        }
        let delta =
            (ins.len() + del.len() > 0).then(|| DeltaLayer { ins, del, folded: OnceLock::new() });
        TrieIndex { base: Arc::clone(base), delta, perm: self.perm.clone(), num_rows, max_value }
    }

    /// This index as a solid one: its delta (if any) folded into a fresh base, with
    /// the exact live maximum. Costs one fold, shared with this index's readers.
    pub fn compacted(&self) -> TrieIndex {
        let Some(delta) = &self.delta else { return self.clone() };
        let core = Arc::clone(delta.folded(&self.base));
        let max_value = core.values.iter().flatten().copied().max();
        TrieIndex {
            base: core,
            delta: None,
            perm: self.perm.clone(),
            num_rows: self.num_rows,
            max_value,
        }
    }

    /// The trie every reader reads: the base, or the fold of base and delta (built
    /// by the first caller; concurrent first readers wait for that one fold).
    #[inline]
    fn core(&self) -> &TrieCore {
        match &self.delta {
            None => &self.base,
            Some(delta) => delta.folded(&self.base),
        }
    }

    /// Whether this index carries a delta layer (updates not yet compacted).
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Rows in the delta layer (`inserts + tombstones`; 0 for a solid index). The
    /// `IndexCache` compares this against its compaction threshold.
    pub fn delta_len(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.ins.len() + d.del.len())
    }

    /// Whether this index and `other` share the same physical base trie (true for
    /// an index and the versions [`TrieIndex::with_edits`] stacks onto it until a
    /// fold becomes their base).
    pub fn shares_base(&self, other: &TrieIndex) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Number of indexed attributes (trie depth).
    pub fn arity(&self) -> usize {
        self.base.arity
    }

    /// Number of live rows (`base - deletes + inserts`).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The column permutation this index was built with.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The distinct values at trie level `d` (grouped by parent, each group sorted).
    pub fn level_values(&self, d: usize) -> &[Val] {
        &self.core().values[d]
    }

    /// An upper bound on the largest value appearing in the live relation (`None`
    /// when the index never held a row). Minesweeper uses this to bound its search:
    /// values beyond the data cannot appear in any output tuple, and an overestimate
    /// (deletes are not subtracted) only costs a little search headroom, never
    /// correctness. Cached at build/edit time — calling it per bind is free.
    pub fn max_value(&self) -> Option<Val> {
        self.max_value
    }

    /// The range of entries at level 0 (children of the conceptual root).
    pub fn root_range(&self) -> (usize, usize) {
        self.core().root_range()
    }

    /// The range of children (at level `depth + 1`) of entry `idx` at level `depth`.
    pub fn children_range(&self, depth: usize, idx: usize) -> (usize, usize) {
        self.core().children_range(depth, idx)
    }

    /// The root level's least and greatest values when it holds every integer
    /// between them, checked in O(1) on the trie this index reads (the fold, over a
    /// delta-carrying index). Such a level needs no search: a value's position is
    /// its distance from the least one.
    pub fn contiguous_root(&self) -> Option<(Val, Val)> {
        self.core().contiguous_root()
    }

    /// The raw child-offset array of level `d` (one entry per level-`d` value plus a
    /// closing sentinel). Parallel partitioning reads level 0's as the first-level
    /// keys' fanouts, and equivalence tests compare two builds structurally with it;
    /// engine searches should use [`TrieIndex::children_range`].
    pub fn child_offsets(&self, d: usize) -> &[u32] {
        &self.core().child_start[d]
    }

    /// The sorted, distinct first-level keys of the live relation — what parallel
    /// partitioning splits over (a delta-only key outside the base's min/max owns
    /// output rows too, and a key whose rows are all tombstoned is gone).
    pub fn first_level_values(&self) -> &[Val] {
        self.core().values.first().map_or(&[], Vec::as_slice)
    }

    /// Locates the node reached by following `prefix` from the root.
    ///
    /// Returns the `(lo, hi)` range of that node's children at level `prefix.len()`,
    /// or `None` if the prefix is not present in the relation. An empty prefix returns
    /// the root range. A full-length prefix cannot be located this way (it has no
    /// children); use [`TrieIndex::contains`] instead.
    pub fn prefix_range(&self, prefix: &[Val]) -> Option<(usize, usize)> {
        assert!(prefix.len() < self.arity(), "prefix must be shorter than the arity");
        let core = self.core();
        let (mut lo, mut hi) = core.root_range();
        for (d, &v) in prefix.iter().enumerate() {
            let idx = core.find_in(d, lo, hi, v)?;
            (lo, hi) = core.children_range(d, idx);
        }
        Some((lo, hi))
    }

    /// Whether the full tuple `t` (of length `arity`) is live: present in the insert
    /// delta, or present in the base and not tombstoned.
    pub fn contains(&self, t: &[Val]) -> bool {
        matches!(self.probe(t), ProbeResult::Found)
    }

    /// Probes the index with a full tuple `t` in index (GAO-projected) order.
    ///
    /// This is Minesweeper's `seekGap`: walk the trie level by level; at the first
    /// level `d` where `t[d]` is absent among the children of the matched prefix,
    /// return the maximal open gap interval `(lower, upper)` around `t[d]` at that
    /// level. If every level matches, the tuple is in the relation. Over a
    /// delta-carrying index the walk reads the fold, so its gaps are those of the
    /// live relation, maximal at every level.
    pub fn probe(&self, t: &[Val]) -> ProbeResult {
        let (lo, hi) = self.root_range();
        self.descend(t, 0, Level { value: NEG_INF, lo, hi, pos: lo }, |_, _| {})
    }

    /// A cursor for [`TrieIndex::probe_with`] on this index, positioned at the root.
    pub fn probe_cursor(&self) -> ProbeCursor {
        let (lo, hi) = self.root_range();
        let root = Level { value: NEG_INF, lo, hi, pos: lo };
        ProbeCursor { levels: vec![root; self.arity()], matched: 0 }
    }

    /// [`TrieIndex::probe`], resumed from the levels of the previous probe through
    /// `cursor` that `t` leaves unchanged: the walk skips every leading level whose
    /// value was found last time and is probed again, and searches from the first
    /// changed level inside the entry range it was searched in before. When that
    /// level's value grew — the common case for Minesweeper, whose frontier only
    /// moves forward — the search gallops forward from the position the last one
    /// found instead of bisecting the range. Repeating a member costs `arity`
    /// comparisons and no search. The answer is exactly [`TrieIndex::probe`]'s.
    ///
    /// `cursor` must come from [`TrieIndex::probe_cursor`] on this index: its entry
    /// ranges are positions in the trie this index reads.
    pub fn probe_with(&self, t: &[Val], cursor: &mut ProbeCursor) -> ProbeResult {
        debug_assert_eq!(cursor.levels.len(), self.arity(), "cursor of another index");
        let mut d = 0;
        while d < cursor.matched && cursor.levels[d].value == t[d] {
            d += 1;
        }
        if d == self.arity() {
            return ProbeResult::Found;
        }
        let levels = &mut cursor.levels;
        let result = self.descend(t, d, levels[d], |d, level| levels[d] = level);
        cursor.matched = match result {
            ProbeResult::Found => self.arity(),
            ProbeResult::Gap { depth, .. } => depth,
        };
        result
    }

    /// The probe's one descent loop: searches level `d` for `t[d]` among the
    /// entries `prev.lo..prev.hi` (the children of the matched prefix `t[..d]`) and
    /// goes down until a level misses or the leaf matches. A contiguous root level
    /// ([`TrieIndex::contiguous_root`]) is not searched: the position is found by
    /// subtraction. Otherwise `prev` is the last search of the range: its value and
    /// the first entry `>=` it, from which a larger `t[d]` is galloped to. Deeper
    /// levels are bisected. `visit` sees each level's search.
    fn descend(
        &self,
        t: &[Val],
        mut d: usize,
        prev: Level,
        mut visit: impl FnMut(usize, Level),
    ) -> ProbeResult {
        assert_eq!(t.len(), self.arity(), "probe tuple must have the index arity");
        let core = self.core();
        let Level { mut lo, mut hi, .. } = prev;
        let mut from = if t.get(d).is_some_and(|&v| v > prev.value) { prev.pos } else { lo };
        while d < core.arity {
            let value = t[d];
            let vals = &core.values[d][..hi];
            let root = if d == 0 { core.contiguous_root() } else { None };
            let pos = if let Some((first, _)) = root {
                // The root range is the whole level, `first` at position 0.
                if value <= first {
                    0
                } else {
                    value.abs_diff(first).min(hi as u64) as usize
                }
            } else if from > lo {
                from + gallop(&vals[from..], value)
            } else {
                lo + vals[lo..].partition_point(|&x| x < value)
            };
            visit(d, Level { value, lo, hi, pos });
            if pos == hi || vals[pos] != value {
                let lower = if pos == lo { NEG_INF } else { vals[pos - 1] };
                let upper = if pos == hi { POS_INF } else { vals[pos] };
                return ProbeResult::Gap { depth: d, lower, upper };
            }
            if d + 1 < core.arity {
                (lo, hi) = core.children_range(d, pos);
                from = lo;
            }
            d += 1;
        }
        ProbeResult::Found
    }

    /// Creates a fresh [`TrieIterator`] positioned at the root.
    pub fn iter(&self) -> TrieIterator<'_> {
        TrieIterator::new(self)
    }
}

impl DeltaLayer {
    /// The fold of `base` with this layer, built on the first call.
    fn folded(&self, base: &TrieCore) -> &Arc<TrieCore> {
        self.folded.get_or_init(|| Arc::new(TrieCore::fold(base, &self.ins, &self.del)))
    }
}

/// LeapFrog TrieJoin iterator over a [`TrieIndex`].
///
/// Implements the interface of Veldhuizen's LFTJ paper:
///
/// * [`open`](TrieIterator::open) — descend to the first child of the current node;
/// * [`up`](TrieIterator::up) — return to the parent;
/// * [`key`](TrieIterator::key) — the value at the current position;
/// * [`next`](TrieIterator::next) — advance to the next sibling;
/// * [`seek`](TrieIterator::seek) — advance to the least sibling `>= v` (galloping +
///   binary search);
/// * [`at_end`](TrieIterator::at_end) — whether the current level is exhausted.
///
/// It walks the one solid trie its index reads (over a delta-carrying index, the
/// fold), so each level shows exactly the keys of the sorted live relation.
#[derive(Debug, Clone)]
pub struct TrieIterator<'a> {
    core: &'a TrieCore,
    /// One frame per open level: (current position, lo, hi) within `values[depth]`.
    stack: Vec<(usize, usize, usize)>,
    /// Set when `next`/`seek` runs past `hi` at the current level.
    at_end: bool,
}

impl<'a> TrieIterator<'a> {
    /// Creates an iterator positioned at the root (no level open).
    pub fn new(index: &'a TrieIndex) -> Self {
        TrieIterator { core: index.core(), stack: Vec::with_capacity(index.arity()), at_end: false }
    }

    /// The number of currently open levels (0 = at root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Whether the iterator has run past the last sibling at the current level.
    pub fn at_end(&self) -> bool {
        self.at_end
    }

    /// The value at the current position. Panics if no level is open or the level is
    /// exhausted.
    pub fn key(&self) -> Val {
        assert!(!self.at_end, "key() called on an exhausted level");
        let &(pos, _, _) = self.stack.last().expect("key() called at the root");
        self.core.values[self.stack.len() - 1][pos]
    }

    /// Opens the next trie level, positioning at the first child of the current node.
    ///
    /// At the root this opens level 0. Panics if the maximum depth is already open or
    /// if the current level is exhausted.
    pub fn open(&mut self) {
        assert!(self.stack.len() < self.core.arity, "open() past the last level");
        assert!(!self.at_end, "open() on an exhausted level");
        let (lo, hi) = match self.stack.last() {
            None => self.core.root_range(),
            Some(&(pos, _, _)) => self.core.children_range(self.stack.len() - 1, pos),
        };
        self.stack.push((lo, lo, hi));
        self.at_end = lo >= hi;
    }

    /// Closes the current level and returns to the parent position.
    pub fn up(&mut self) {
        self.stack.pop().expect("up() called at the root");
        self.at_end = false;
    }

    /// Advances to the next sibling. Sets `at_end` when the level is exhausted.
    pub fn next(&mut self) {
        assert!(!self.at_end, "next() on an exhausted level");
        let frame = self.stack.last_mut().expect("next() called at the root");
        frame.0 += 1;
        self.at_end = frame.0 >= frame.2;
    }

    /// Positions at the least sibling with value `>= v`, or exhausts the level.
    ///
    /// `seek` never moves backwards; seeking to a value smaller than the current key
    /// is a no-op (as specified by the LFTJ iterator contract).
    pub fn seek(&mut self, v: Val) {
        assert!(!self.at_end, "seek() on an exhausted level");
        let depth = self.stack.len();
        let frame = self.stack.last_mut().expect("seek() called at the root");
        frame.0 += gallop(&self.core.values[depth - 1][frame.0..frame.2], v);
        self.at_end = frame.0 >= frame.2;
    }

    /// The open level as `(values, pos)`: the sorted values cut at the end of the
    /// current node's children, and the position (`values.len()` once exhausted),
    /// which [`set_pos`](Self::set_pos) takes back. An empty level at the root.
    #[inline]
    pub fn level(&self) -> (&'a [Val], usize) {
        match self.stack.last() {
            None => (&[], 0),
            Some(&(pos, _, hi)) => (&self.core.values[self.stack.len() - 1][..hi], pos),
        }
    }

    /// Moves to `pos` of [`level`](Self::level)'s slice. Panics at the root.
    #[inline]
    pub fn set_pos(&mut self, pos: usize) {
        let frame = self.stack.last_mut().expect("set_pos() called at the root");
        frame.0 = pos;
        self.at_end = pos >= frame.2;
    }
}

/// Offset of the first element `>= v` in `values` (galloping + binary search — a
/// forward jump of `d` positions costs `O(log d)`).
fn gallop(values: &[Val], v: Val) -> usize {
    if values.first().is_none_or(|&x| x >= v) {
        return 0;
    }
    let mut step = 1;
    let mut lo = 0;
    let mut hi = 1;
    while hi < values.len() && values[hi] < v {
        lo = hi;
        hi = (hi + step).min(values.len());
        step *= 2;
    }
    lo + values[lo..hi].partition_point(|&x| x < v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The relation of Figure 1 in the paper: R(A2, A4, A5).
    fn figure1_relation() -> Relation {
        Relation::from_rows(
            3,
            vec![
                vec![5, 1, 4],
                vec![5, 1, 7],
                vec![5, 1, 12],
                vec![7, 4, 6],
                vec![7, 9, 8],
                vec![7, 9, 13],
                vec![10, 4, 1],
            ],
        )
    }

    #[test]
    fn figure1_trie_levels() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        assert_eq!(idx.level_values(0), &[5, 7, 10]);
        assert_eq!(idx.level_values(1), &[1, 4, 9, 4]);
        assert_eq!(idx.level_values(2), &[4, 7, 12, 6, 8, 13, 1]);
        assert_eq!(idx.children_range(0, 0), (0, 1)); // 5 -> {1}
        assert_eq!(idx.children_range(0, 1), (1, 3)); // 7 -> {4, 9}
        assert_eq!(idx.children_range(0, 2), (3, 4)); // 10 -> {4}
        assert_eq!(idx.children_range(1, 0), (0, 3)); // (5,1) -> {4,7,12}
        assert_eq!(idx.children_range(1, 2), (4, 6)); // (7,9) -> {8,13}
    }

    #[test]
    fn probe_reproduces_paper_gap_examples() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        // Section 4.2: free tuple projected to (6, 3, 7) -> gap between A2 = 5 and 7.
        assert_eq!(idx.probe(&[6, 3, 7]), ProbeResult::Gap { depth: 0, lower: 5, upper: 7 });
        // Free tuple projected to (7, 5, 8) -> band inside A2 = 7, 4 < A4 < 9.
        assert_eq!(idx.probe(&[7, 5, 8]), ProbeResult::Gap { depth: 1, lower: 4, upper: 9 });
        // A present tuple is Found.
        assert_eq!(idx.probe(&[7, 9, 13]), ProbeResult::Found);
    }

    #[test]
    fn probe_open_ends_use_sentinels() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        assert_eq!(idx.probe(&[1, 0, 0]), ProbeResult::Gap { depth: 0, lower: NEG_INF, upper: 5 });
        assert_eq!(
            idx.probe(&[20, 0, 0]),
            ProbeResult::Gap { depth: 0, lower: 10, upper: POS_INF }
        );
        // Last level gap: prefix (5,1) exists, value 20 is past 12.
        assert_eq!(
            idx.probe(&[5, 1, 20]),
            ProbeResult::Gap { depth: 2, lower: 12, upper: POS_INF }
        );
    }

    #[test]
    fn prefix_range_walks_the_trie() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        assert_eq!(idx.prefix_range(&[]), Some((0, 3)));
        assert_eq!(idx.prefix_range(&[7]), Some((1, 3)));
        assert_eq!(idx.prefix_range(&[7, 9]), Some((4, 6)));
        assert_eq!(idx.prefix_range(&[6]), None);
        assert_eq!(idx.prefix_range(&[7, 5]), None);
    }

    #[test]
    fn contains_full_tuples() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        assert!(idx.contains(&[10, 4, 1]));
        assert!(!idx.contains(&[10, 4, 2]));
    }

    #[test]
    fn build_with_permutation_reorders_levels() {
        // Index R(A,B) by (B,A).
        let r = Relation::from_pairs(vec![(1, 10), (2, 10), (2, 20)]);
        let idx = TrieIndex::build(&r, &[1, 0]);
        assert_eq!(idx.level_values(0), &[10, 20]);
        assert_eq!(idx.level_values(1), &[1, 2, 2]);
        assert!(idx.contains(&[10, 1]));
        assert!(idx.contains(&[20, 2]));
        assert!(!idx.contains(&[20, 1]));
    }

    #[test]
    fn iterator_walks_figure1() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        let mut it = idx.iter();
        it.open();
        assert_eq!(it.key(), 5);
        it.next();
        assert_eq!(it.key(), 7);
        it.open();
        assert_eq!(it.key(), 4);
        it.next();
        assert_eq!(it.key(), 9);
        it.open();
        assert_eq!(it.key(), 8);
        it.next();
        assert_eq!(it.key(), 13);
        it.next();
        assert!(it.at_end());
        it.up();
        assert_eq!(it.key(), 9);
        it.up();
        assert_eq!(it.key(), 7);
        it.next();
        assert_eq!(it.key(), 10);
        it.next();
        assert!(it.at_end());
    }

    #[test]
    fn iterator_seek_moves_forward_only() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        let mut it = idx.iter();
        it.open();
        it.seek(6);
        assert_eq!(it.key(), 7);
        // Seeking backwards is a no-op.
        it.seek(1);
        assert_eq!(it.key(), 7);
        it.seek(8);
        assert_eq!(it.key(), 10);
        it.seek(11);
        assert!(it.at_end());
    }

    #[test]
    fn level_exposes_the_open_node_and_takes_positions_back() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        let mut it = idx.iter();
        assert_eq!(it.level(), (&[][..], 0), "no level is open at the root");
        it.open();
        it.next();
        it.open();
        // Level 1 is [1, 4, 9, 4]; the children of 7 occupy positions 1..3.
        assert_eq!(it.level(), (&[1, 4, 9][..], 1));
        it.set_pos(2);
        assert_eq!(it.key(), 9);
        it.open();
        assert_eq!(it.key(), 8, "open() descends from the position handed back");
        it.up();
        it.set_pos(3);
        assert!(it.at_end());

        let (ins, del) = (Relation::from_pairs(vec![(3, 3)]), Relation::empty(2));
        let edited =
            TrieIndex::build_natural(&Relation::from_pairs(vec![(1, 2)])).with_edits(&ins, &del);
        let mut it = edited.iter();
        it.open();
        assert_eq!(it.level(), (&[1, 3][..], 0), "a delta-carrying level is one slice too");
    }

    #[test]
    fn iterator_on_empty_relation() {
        let idx = TrieIndex::build_natural(&Relation::empty(2));
        let mut it = idx.iter();
        it.open();
        assert!(it.at_end());
    }

    #[test]
    fn unary_relation_trie() {
        let r = Relation::from_values(vec![3, 1, 4, 1, 5]);
        let idx = TrieIndex::build_natural(&r);
        assert_eq!(idx.level_values(0), &[1, 3, 4, 5]);
        assert_eq!(idx.probe(&[2]), ProbeResult::Gap { depth: 0, lower: 1, upper: 3 });
        assert_eq!(idx.probe(&[4]), ProbeResult::Found);
        let mut it = idx.iter();
        it.open();
        it.seek(4);
        assert_eq!(it.key(), 4);
    }

    #[test]
    fn seek_gallop_long_runs() {
        let r = Relation::from_values((0..1000).map(|i| i * 3).collect::<Vec<_>>());
        let idx = TrieIndex::build_natural(&r);
        let mut it = idx.iter();
        it.open();
        for target in [1, 100, 101, 2500, 2997] {
            it.seek(target);
            assert!(!it.at_end());
            let expected = ((target + 2) / 3) * 3; // least multiple of 3 >= target
            assert_eq!(it.key(), expected, "seek({target})");
        }
        it.seek(2998);
        assert!(it.at_end());
    }

    // ------------------------------------------------------------------
    // Delta layers
    // ------------------------------------------------------------------

    /// Walks an index depth-first through the public iterator, collecting the rows.
    fn enumerate(idx: &TrieIndex) -> Vec<Vec<Val>> {
        fn rec(
            it: &mut TrieIterator<'_>,
            arity: usize,
            prefix: &mut Vec<Val>,
            out: &mut Vec<Vec<Val>>,
        ) {
            it.open();
            while !it.at_end() {
                prefix.push(it.key());
                if prefix.len() == arity {
                    out.push(prefix.clone());
                } else {
                    rec(it, arity, prefix, out);
                }
                prefix.pop();
                it.next();
            }
            it.up();
        }
        let mut out = Vec::new();
        let mut it = idx.iter();
        rec(&mut it, idx.arity(), &mut Vec::new(), &mut out);
        out
    }

    /// An index with a delta layer, and the solid index over the same live rows.
    fn edited_pair(
        base: &Relation,
        perm: &[usize],
        ins: &Relation,
        del: &Relation,
    ) -> (TrieIndex, TrieIndex) {
        let idx = TrieIndex::build(base, perm).with_edits(ins, del);
        let solid = TrieIndex::build(&base.with_edits(ins, del), perm);
        (idx, solid)
    }

    #[test]
    fn with_edits_shares_the_base_and_counts_live_rows() {
        let base = figure1_relation();
        let solid = TrieIndex::build_natural(&base);
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6]]);
        let del = Relation::from_rows(3, vec![vec![7, 4, 6], vec![5, 1, 7]]);
        let idx = solid.with_edits(&ins, &del);
        assert!(idx.has_delta());
        assert!(!solid.has_delta());
        assert!(idx.shares_base(&solid));
        assert_eq!(idx.delta_len(), 3);
        assert_eq!(idx.num_rows(), base.len() - 2 + 1);
        assert_eq!(idx.perm(), solid.perm());
    }

    /// Asserts that two indexes read structurally identical tries.
    fn assert_same_trie(a: &TrieIndex, b: &TrieIndex) {
        assert_eq!(a.num_rows(), b.num_rows());
        for d in 0..a.arity() {
            assert_eq!(a.level_values(d), b.level_values(d), "level {d}");
        }
        for d in 0..a.arity().saturating_sub(1) {
            assert_eq!(a.child_offsets(d), b.child_offsets(d), "offsets of level {d}");
        }
    }

    #[test]
    fn fold_is_the_trie_of_the_live_relation() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6], vec![5, 1, 5], vec![11, 0, 0]]);
        let del = Relation::from_rows(3, vec![vec![7, 4, 6], vec![10, 4, 1]]);
        for perm in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let (idx, solid) = edited_pair(&base, &perm, &ins, &del);
            assert_same_trie(&idx, &solid);
            assert_eq!(enumerate(&idx), enumerate(&solid), "perm {perm:?}");
        }
    }

    #[test]
    fn fold_handles_delta_only_and_all_deleted() {
        let base = figure1_relation();
        // Delete everything; insert a fresh row.
        let ins = Relation::from_rows(3, vec![vec![1, 2, 3]]);
        let (idx, solid) = edited_pair(&base, &[0, 1, 2], &ins, &base);
        assert_eq!(idx.num_rows(), 1);
        assert_same_trie(&idx, &solid);
        // Empty base, delta-only content.
        let empty = Relation::empty(3);
        let (idx, solid) = edited_pair(&empty, &[0, 1, 2], &ins, &empty);
        assert_same_trie(&idx, &solid);
        // Everything deleted, nothing inserted: an empty trie.
        let (idx, solid) = edited_pair(&base, &[0, 1, 2], &empty, &base);
        assert_same_trie(&idx, &solid);
        assert_eq!(idx.root_range(), (0, 0));
    }

    #[test]
    fn folded_seek_skips_tombstones_and_finds_inserts() {
        let base = Relation::from_values(vec![10, 20, 30, 40]);
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::from_values(vec![25, 50]), &Relation::from_values(vec![30]));
        let mut it = idx.iter();
        it.open();
        it.seek(21);
        assert_eq!(it.key(), 25, "insert-side key found by seek");
        it.seek(26);
        assert_eq!(it.key(), 40, "tombstoned 30 skipped");
        it.seek(41);
        assert_eq!(it.key(), 50, "delta key beyond the base max");
        it.next();
        assert!(it.at_end());
    }

    #[test]
    fn fold_drops_interior_keys_whose_rows_are_all_tombstoned() {
        let base = figure1_relation();
        // Every row under 5 and under (7, 9) is deleted; (7, 4) keeps its row.
        let del = Relation::from_rows(
            3,
            vec![vec![5, 1, 4], vec![5, 1, 7], vec![5, 1, 12], vec![7, 9, 8], vec![7, 9, 13]],
        );
        let idx = TrieIndex::build_natural(&base).with_edits(&Relation::empty(3), &del);
        assert_eq!(idx.level_values(0), &[7, 10], "5 has no live row");
        assert_eq!(idx.level_values(1), &[4, 4], "(7, 9) has no live row");
        assert_eq!(idx.first_level_values(), &[7, 10]);
        // A dead interior key bounds no gap: the probe's gap is maximal.
        assert_eq!(idx.probe(&[6, 0, 0]), ProbeResult::Gap { depth: 0, lower: NEG_INF, upper: 7 });
        assert_eq!(idx.probe(&[7, 9, 8]), ProbeResult::Gap { depth: 1, lower: 4, upper: POS_INF });
        // A key with one live row left stays.
        let del = Relation::from_rows(3, vec![vec![5, 1, 4], vec![5, 1, 7]]);
        let idx = TrieIndex::build_natural(&base).with_edits(&Relation::empty(3), &del);
        assert_eq!(idx.level_values(0), &[5, 7, 10]);
    }

    #[test]
    fn folded_contains_and_probe_respect_liveness() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6]]);
        let del = Relation::from_rows(3, vec![vec![7, 9, 8]]);
        let idx = TrieIndex::build_natural(&base).with_edits(&ins, &del);
        assert!(idx.contains(&[6, 6, 6]), "inserted row is live");
        assert!(!idx.contains(&[7, 9, 8]), "tombstoned row is dead");
        assert!(idx.contains(&[7, 9, 13]), "untouched base row stays live");
        // Probing the dead row yields a gap whose endpoints are live leaf values.
        assert_eq!(idx.probe(&[7, 9, 8]), ProbeResult::Gap { depth: 2, lower: NEG_INF, upper: 13 });
        // A gap bracketed by an inserted first-level key.
        assert_eq!(idx.probe(&[6, 3, 7]), ProbeResult::Gap { depth: 1, lower: NEG_INF, upper: 6 });
    }

    #[test]
    fn folded_probes_answer_as_the_rebuilt_index_does() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6], vec![5, 2, 2]]);
        let del = Relation::from_rows(3, vec![vec![5, 1, 7], vec![10, 4, 1]]);
        let (idx, solid) = edited_pair(&base, &[0, 1, 2], &ins, &del);
        let mut cursor = idx.probe_cursor();
        for a in 0..13 {
            for b in [0, 1, 2, 4, 6, 9] {
                for c in [0, 1, 4, 6, 7, 8, 12, 13, 20] {
                    let t = [a, b, c];
                    assert_eq!(idx.probe(&t), solid.probe(&t), "{t:?}");
                    assert_eq!(idx.probe_with(&t, &mut cursor), solid.probe(&t), "{t:?}");
                }
            }
        }
    }

    #[test]
    fn folded_leaf_gap_endpoints_are_live() {
        // Base 10,20,30; delete 20: probing 20 must bracket with live 10 and 30,
        // never the dead 20 itself.
        let base = Relation::from_values(vec![10, 20, 30]);
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::empty(1), &Relation::from_values(vec![20]));
        assert_eq!(idx.probe(&[20]), ProbeResult::Gap { depth: 0, lower: 10, upper: 30 });
        assert_eq!(idx.probe(&[15]), ProbeResult::Gap { depth: 0, lower: 10, upper: 30 });
    }

    #[test]
    fn first_level_values_are_the_live_keys() {
        let base = Relation::from_pairs(vec![(10, 1), (20, 2)]);
        let solid = TrieIndex::build_natural(&base);
        assert_eq!(solid.first_level_values(), &[10, 20]);
        let idx = solid.with_edits(
            &Relation::from_pairs(vec![(-5, 0), (10, 9), (99, 1)]),
            &Relation::from_pairs(vec![(20, 2)]),
        );
        // Both layers' first keys, sorted distinct, without the fully deleted 20.
        assert_eq!(idx.first_level_values(), &[-5, 10, 99]);
    }

    #[test]
    fn max_value_is_a_live_upper_bound() {
        let base = Relation::from_values(vec![10, 20]);
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::from_values(vec![35]), &Relation::empty(1));
        assert_eq!(idx.max_value(), Some(35), "out-of-range insert raises the bound");
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::empty(1), &Relation::from_values(vec![20]));
        assert_eq!(idx.max_value(), Some(20), "after deleting the max the bound overestimates");
        assert_eq!(idx.compacted().max_value(), Some(10), "compaction makes it exact");
    }

    #[test]
    fn compaction_reuses_the_fold_as_a_fresh_base() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6]]);
        let del = Relation::from_rows(3, vec![vec![7, 4, 6]]);
        let (idx, solid) = edited_pair(&base, &[1, 2, 0], &ins, &del);
        let compacted = idx.compacted();
        assert!(!compacted.has_delta());
        assert!(!compacted.shares_base(&idx));
        assert_same_trie(&compacted, &solid);
        assert_eq!(compacted.max_value(), solid.max_value());
        assert_eq!(compacted.perm(), &[1, 2, 0]);
        assert_eq!(
            compacted.level_values(2).as_ptr(),
            idx.level_values(2).as_ptr(),
            "the compacted base is the fold the edited index reads"
        );
    }

    #[test]
    fn concurrent_first_readers_share_one_fold() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6], vec![11, 0, 0]]);
        let del = Relation::from_rows(3, vec![vec![7, 9, 8]]);
        let (idx, solid) = edited_pair(&base, &[0, 1, 2], &ins, &del);
        let idx = Arc::new(idx);
        let read = || {
            let rows = enumerate(&idx);
            (idx.level_values(0).as_ptr() as usize, rows)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(read);
            let b = s.spawn(read);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.0, b.0, "both threads read one fold");
        assert_eq!(a.1, b.1);
        assert_eq!(a.1, enumerate(&solid));
    }

    #[test]
    fn with_edits_stacks_on_a_previous_delta() {
        let base = Relation::from_values(vec![1, 2, 3]);
        let solid = TrieIndex::build_natural(&base);
        let first =
            solid.with_edits(&Relation::from_values(vec![9]), &Relation::from_values(vec![2]));
        // Unread, the batch merges into the pending delta over the same base: the
        // delete of 9 cancels its insert and the re-insert of 2 revives it.
        let second = first
            .with_edits(&Relation::from_values(vec![2, 10]), &Relation::from_values(vec![1, 9]));
        assert!(second.shares_base(&solid));
        assert_eq!(second.delta_len(), 2, "insert 10, tombstone 1");
        assert_eq!(second.num_rows(), 3);
        assert_eq!(enumerate(&second), vec![vec![2], vec![3], vec![10]]);
        // Read, its fold is the next version's base and the batch its whole delta.
        let third = second.with_edits(&Relation::from_values(vec![1]), &Relation::empty(1));
        assert!(!third.shares_base(&solid));
        assert_eq!(third.delta_len(), 1);
        // A batch that cancels the whole pending delta leaves a solid index.
        let fourth = third.with_edits(&Relation::empty(1), &Relation::from_values(vec![1]));
        assert!(!fourth.has_delta() && fourth.shares_base(&third));
        assert_eq!(enumerate(&third), vec![vec![1], vec![2], vec![3], vec![10]]);
        assert_eq!(enumerate(&fourth), vec![vec![2], vec![3], vec![10]]);
    }
}
