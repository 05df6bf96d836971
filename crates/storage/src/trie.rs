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
//!   of one solid index skip the leading levels whose value did not change.
//!
//! # Delta layers (incremental maintenance)
//!
//! A [`TrieIndex`] is an immutable **base** trie (`TrieCore`, shared through an
//! `Arc` by every updated version of the index) plus an optional **delta layer**: two
//! small sorted tries holding inserted rows and tombstoned deletes
//! ([`TrieIndex::with_edits`]). The logical content is `(base \ deletes) ∪ inserts`,
//! and the merge happens *lazily at the iterator level*: [`TrieIterator`] and
//! [`TrieIndex::probe`] walk base and insert tries in lockstep, presenting one sorted
//! stream with tombstoned leaves skipped, so every engine sees the updated relation
//! without the base ever being rebuilt. An edit batch therefore costs
//! O(delta × permutations) instead of O(relation × permutations); the
//! [`IndexCache`](../../gj_query/struct.IndexCache.html) folds deltas back into a
//! fresh base once they cross its compaction threshold.

use crate::relation::Relation;
use crate::value::{Val, NEG_INF, POS_INF};
use std::borrow::Cow;
use std::sync::Arc;

/// The immutable flat-trie layer: one sorted value array per level plus child-range
/// offsets. Level `d` stores one entry per distinct length-`d+1` prefix of the
/// (permuted) relation; `child_start[d][i]` gives the index in level `d+1` where the
/// children of entry `i` begin, so the children of entry `i` occupy
/// `child_start[d][i] .. child_start[d][i + 1]`.
///
/// The example of Figure 1 in the paper — `R(A2, A4, A5)` indexed in the order
/// `A2, A4, A5` — produces level 0 = `[5, 7, 10]`, level 1 = `[1, 4, 9, 4]`, and
/// level 2 = `[4, 7, 12, 6, 8, 13, 1]`.
#[derive(Debug, Clone)]
struct TrieCore {
    arity: usize,
    num_rows: usize,
    values: Vec<Vec<Val>>,
    child_start: Vec<Vec<usize>>,
}

impl TrieCore {
    /// Builds the flat trie over `relation` in the column order given by `perm`.
    ///
    /// The build is **zero-materialization**: it sorts a row-index permutation of the
    /// relation's flat buffer ([`Relation::sorted_row_order`] — a no-op for the
    /// identity permutation, since relations store their rows sorted) and streams the
    /// trie levels directly out of the buffer through that order. No permuted copy of
    /// the relation is ever created.
    fn build(relation: &Relation, perm: &[usize]) -> Self {
        let arity = relation.arity();
        // sorted_row_order validates that perm is a permutation of 0..arity.
        let order = relation.sorted_row_order(perm);

        let mut values: Vec<Vec<Val>> = vec![Vec::new(); arity];
        let mut child_start: Vec<Vec<usize>> = vec![Vec::new(); arity.saturating_sub(1)];
        if arity > 0 {
            // The deepest level has one entry per row (rows are distinct, and they
            // stay distinct under a full column permutation).
            values[arity - 1].reserve_exact(relation.len());
        }

        let mut prev: Option<&[Val]> = None;
        for &ri in &order {
            let row = relation.row(ri as usize);
            // First level at which this row differs from the previous one, in the
            // permuted attribute order.
            let diverge = match prev {
                None => 0,
                Some(p) => {
                    let mut d = 0;
                    while d < arity && p[perm[d]] == row[perm[d]] {
                        d += 1;
                    }
                    d
                }
            };
            for d in diverge..arity {
                if d > 0 {
                    // A new entry at level d opens under the current last entry of
                    // level d-1; record where its children start.
                    if child_start[d - 1].len() < values[d - 1].len() {
                        child_start[d - 1].push(values[d].len());
                    }
                }
                values[d].push(row[perm[d]]);
            }
            prev = Some(row);
        }
        // Close the offset arrays with a final sentinel.
        for d in 0..arity.saturating_sub(1) {
            child_start[d].push(values[d + 1].len());
        }

        TrieCore { arity, num_rows: relation.len(), values, child_start }
    }

    fn root_range(&self) -> (usize, usize) {
        (0, self.values.first().map_or(0, Vec::len))
    }

    fn children_range(&self, depth: usize, idx: usize) -> (usize, usize) {
        let cs = &self.child_start[depth];
        (cs[idx], cs[idx + 1])
    }

    /// Number of rows (last-level entries) under entry `idx` of level `d`: its
    /// child range followed down to the last level, O(arity).
    fn leaves_under(&self, d: usize, idx: usize) -> usize {
        let (lo, hi) =
            self.child_start[d..].iter().fold((idx, idx + 1), |(lo, hi), cs| (cs[lo], cs[hi]));
        hi - lo
    }

    /// Binary search for `v` among the entries `lo..hi` of level `d`.
    fn find_in(&self, d: usize, lo: usize, hi: usize, v: Val) -> Option<usize> {
        let vals = &self.values[d][lo..hi];
        vals.binary_search(&v).ok().map(|i| lo + i)
    }
}

/// A trie (prefix tree) index over a [`Relation`] in a chosen attribute order: an
/// `Arc`-shared immutable base trie plus an optional delta layer of inserts and
/// tombstoned deletes (see the [module docs](self) for the layer semantics).
///
/// Engines consume it through [`TrieIndex::iter`] and [`TrieIndex::probe`], both of
/// which merge the layers into one logical sorted stream.
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

/// The mutable-by-replacement half of a [`TrieIndex`]: a sorted insert trie and a
/// sorted tombstone trie, both built with the base's column permutation. Deletes
/// apply to the base only — the logical content is `(base \ del) ∪ ins`.
#[derive(Debug, Clone)]
struct DeltaLayer {
    ins: TrieCore,
    del: TrieCore,
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

/// Where the previous [`TrieIndex::probe_with`] left its descent of one solid
/// index, so the next probe redoes only the levels its tuple changes, and
/// gallops forward from where a level's search ended when its value grew.
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
    /// level `d`). `perm` must be a permutation of `0..relation.arity()`.
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

    /// Returns an updated index over the same shared base trie, with `ins` rows
    /// inserted and `del` rows tombstoned — O(|ins| + |del|) work, the base is
    /// **not** rebuilt (any previous delta layer is replaced, so the batches must be
    /// cumulative against the base).
    ///
    /// Preconditions (maintained by the `IndexCache` normalization): `del` rows are
    /// present in the base, `ins` rows are absent from it, and both are disjoint.
    /// The logical content becomes `(base \ del) ∪ ins`.
    pub fn with_edits(&self, ins: &Relation, del: &Relation) -> TrieIndex {
        assert_eq!(ins.arity(), self.arity(), "insert batch arity mismatch");
        assert_eq!(del.arity(), self.arity(), "delete batch arity mismatch");
        let delta = DeltaLayer {
            ins: TrieCore::build(ins, &self.perm),
            del: TrieCore::build(del, &self.perm),
        };
        TrieIndex {
            base: Arc::clone(&self.base),
            num_rows: self.base.num_rows - del.len() + ins.len(),
            max_value: self.base_max_value().max(ins.max_value()),
            delta: Some(delta),
            perm: self.perm.clone(),
        }
    }

    /// The base layer's exact max value (what `max_value` was at build time).
    fn base_max_value(&self) -> Option<Val> {
        // A delta never lowers the recorded base bound; recompute from the stored
        // overestimate minus the insert contribution is impossible, so the solid
        // build's value is carried through `max_value` when there is no delta.
        match &self.delta {
            None => self.max_value,
            Some(_) => {
                // The deepest level of the base holds every row's last value, but the
                // true bound was cached at solid-build time; walking levels would be
                // O(n). `with_edits` is only ever applied to a chain that started
                // solid, so the stored max is base_max ∪ previous inserts — still a
                // sound upper bound to carry forward.
                self.max_value
            }
        }
    }

    /// Whether this index carries a delta layer (updates not yet compacted).
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Rows in the delta layer (`inserts + tombstones`; 0 for a solid index). The
    /// `IndexCache` compares this against its compaction threshold.
    pub fn delta_len(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.ins.num_rows + d.del.num_rows)
    }

    /// Whether this index and `other` share the same physical base trie (true for
    /// every index produced from the same solid ancestor by [`TrieIndex::with_edits`]).
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

    /// The distinct values at trie level `d` of the **base** layer (grouped by
    /// parent, each group sorted). Solid indexes only — delta-carrying indexes must
    /// be read through [`TrieIndex::iter`] / [`TrieIndex::first_level_values`].
    pub fn level_values(&self, d: usize) -> &[Val] {
        debug_assert!(self.delta.is_none(), "level_values() reads the base layer only");
        &self.base.values[d]
    }

    /// An upper bound on the largest value appearing in the live relation (`None`
    /// when the index never held a row). Minesweeper uses this to bound its search:
    /// values beyond the data cannot appear in any output tuple, and an overestimate
    /// (deletes are not subtracted) only costs a little search headroom, never
    /// correctness. Cached at build/edit time — calling it per bind is free.
    pub fn max_value(&self) -> Option<Val> {
        self.max_value
    }

    /// The range of entries at level 0 of the base layer (children of the conceptual
    /// root). Solid indexes only, like [`TrieIndex::level_values`].
    pub fn root_range(&self) -> (usize, usize) {
        debug_assert!(self.delta.is_none(), "root_range() reads the base layer only");
        self.base.root_range()
    }

    /// The range of children (at level `depth + 1`) of entry `idx` at level `depth`
    /// of the base layer. Solid indexes only.
    pub fn children_range(&self, depth: usize, idx: usize) -> (usize, usize) {
        debug_assert!(self.delta.is_none(), "children_range() reads the base layer only");
        self.base.children_range(depth, idx)
    }

    /// The raw child-offset array of level `d` of the base layer (one entry per
    /// level-`d` value plus a closing sentinel). Exposed so equivalence tests can
    /// compare two builds structurally; engine code should use
    /// [`TrieIndex::children_range`]. Solid indexes only.
    pub fn child_offsets(&self, d: usize) -> &[usize] {
        debug_assert!(self.delta.is_none(), "child_offsets() reads the base layer only");
        &self.base.child_start[d]
    }

    /// The merged, sorted, distinct first-level key set: base level 0 unioned with
    /// any delta inserts' level 0. Borrowed (zero-copy) for solid indexes. This is
    /// what parallel partitioning must split over — a delta-only key outside the
    /// base's min/max still owns output rows.
    ///
    /// Keys whose whole subtree is tombstoned may still appear; they contribute no
    /// rows, which partitioning tolerates (boundaries affect load balance only).
    pub fn first_level_values(&self) -> Cow<'_, [Val]> {
        let base0 = self.base.values.first().map_or(&[][..], Vec::as_slice);
        match &self.delta {
            None => Cow::Borrowed(base0),
            Some(delta) => {
                let ins0 = delta.ins.values.first().map_or(&[][..], Vec::as_slice);
                if ins0.is_empty() {
                    return Cow::Borrowed(base0);
                }
                Cow::Owned(merge_union(base0, ins0))
            }
        }
    }

    /// Locates the node reached by following `prefix` from the root of the **base**
    /// layer. Solid indexes only; delta-aware callers use [`TrieIndex::iter`].
    ///
    /// Returns the `(lo, hi)` range of that node's children at level `prefix.len()`,
    /// or `None` if the prefix is not present in the relation. An empty prefix returns
    /// the root range. A full-length prefix cannot be located this way (it has no
    /// children); use [`TrieIndex::contains`] instead.
    pub fn prefix_range(&self, prefix: &[Val]) -> Option<(usize, usize)> {
        debug_assert!(self.delta.is_none(), "prefix_range() reads the base layer only");
        assert!(prefix.len() < self.arity(), "prefix must be shorter than the arity");
        let (mut lo, mut hi) = self.base.root_range();
        for (d, &v) in prefix.iter().enumerate() {
            let idx = self.base.find_in(d, lo, hi, v)?;
            let (clo, chi) = self.base.children_range(d, idx);
            lo = clo;
            hi = chi;
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
    /// level. If every level matches (with the tuple live under the delta layer), the
    /// tuple is in the relation.
    ///
    /// With a delta layer the walk descends base and insert tries in lockstep.
    /// Last-level gap endpoints are always **live** values (Minesweeper's Idea 4 memo
    /// treats a finite last-attribute endpoint as a member); interior endpoints may
    /// head tombstoned subtrees — the interval is still free of live values, just not
    /// always maximal.
    pub fn probe(&self, t: &[Val]) -> ProbeResult {
        if self.delta.is_none() {
            let (lo, hi) = self.base.root_range();
            return self.descend(t, 0, Level { value: NEG_INF, lo, hi, pos: lo }, |_, _| {});
        }
        self.probe_merged(t)
    }

    /// A cursor for [`TrieIndex::probe_with`] on this index, positioned at the root.
    pub fn probe_cursor(&self) -> ProbeCursor {
        let (lo, hi) = self.base.root_range();
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
    /// `cursor` must come from [`TrieIndex::probe_cursor`] on this index (or one
    /// sharing its base and carrying no delta). Delta-carrying indexes ignore the
    /// cursor and take the merged probe.
    pub fn probe_with(&self, t: &[Val], cursor: &mut ProbeCursor) -> ProbeResult {
        if self.delta.is_some() {
            return self.probe_merged(t);
        }
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

    /// The solid probe's one descent loop: searches level `d` of the base for
    /// `t[d]` among the entries `prev.lo..prev.hi` (the children of the matched
    /// prefix `t[..d]`) and goes down until a level misses or the leaf matches.
    /// `prev` is the last search of that range: its value and the first entry `>=`
    /// it, from which a larger `t[d]` is galloped to. Deeper levels are bisected.
    /// `visit` sees each level's search.
    fn descend(
        &self,
        t: &[Val],
        mut d: usize,
        prev: Level,
        mut visit: impl FnMut(usize, Level),
    ) -> ProbeResult {
        assert_eq!(t.len(), self.arity(), "probe tuple must have the index arity");
        let core = &self.base;
        let Level { mut lo, mut hi, .. } = prev;
        let mut from = if t.get(d).is_some_and(|&v| v > prev.value) { prev.pos } else { lo };
        while d < core.arity {
            let value = t[d];
            let vals = &core.values[d][..hi];
            let pos = if from > lo {
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

    /// The delta-layer probe: base and insert tries walked in lockstep. It stays a
    /// separate, cursor-free path only until readers see solid tries alone, which
    /// deletes it together with the merged iterator.
    fn probe_merged(&self, t: &[Val]) -> ProbeResult {
        let delta = self.delta.as_ref().expect("the merged probe runs on a delta layer");
        assert_eq!(t.len(), self.arity(), "probe tuple must have the index arity");
        let arity = self.arity();
        let mut b = Some(self.base.root_range());
        let mut i = Some(delta.ins.root_range());
        let mut del = Some(delta.del.root_range());
        for (d, &tv) in t.iter().enumerate() {
            let b_idx = b.and_then(|(lo, hi)| self.base.find_in(d, lo, hi, tv));
            let i_idx = i.and_then(|(lo, hi)| delta.ins.find_in(d, lo, hi, tv));
            let d_idx = del.and_then(|(lo, hi)| delta.del.find_in(d, lo, hi, tv));
            let leaf = d + 1 == arity;
            if leaf {
                // Live: inserted, or in the base and not tombstoned.
                if i_idx.is_some() || (b_idx.is_some() && d_idx.is_none()) {
                    return ProbeResult::Found;
                }
                let b_vals = b.map_or(&[][..], |(lo, hi)| &self.base.values[d][lo..hi]);
                let i_vals = i.map_or(&[][..], |(lo, hi)| &delta.ins.values[d][lo..hi]);
                let d_vals = del.map_or(&[][..], |(lo, hi)| &delta.del.values[d][lo..hi]);
                let (lower, upper) = live_leaf_gap(b_vals, i_vals, d_vals, tv);
                return ProbeResult::Gap { depth: d, lower, upper };
            }
            if b_idx.is_none() && i_idx.is_none() {
                // Interior gap: tightest bracket over both present layers. Endpoints
                // may head dead subtrees — sound (the interval holds no live value),
                // merely non-maximal.
                let (mut lower, mut upper) = (NEG_INF, POS_INF);
                for (vals, range) in [(&self.base.values[d], b), (&delta.ins.values[d], i)] {
                    let Some((lo, hi)) = range else { continue };
                    let vals = &vals[lo..hi];
                    let pos = vals.partition_point(|&x| x < tv);
                    if pos > 0 {
                        lower = lower.max(vals[pos - 1]);
                    }
                    if pos < vals.len() {
                        upper = upper.min(vals[pos]);
                    }
                }
                return ProbeResult::Gap { depth: d, lower, upper };
            }
            b = b_idx.map(|idx| self.base.children_range(d, idx));
            i = i_idx.map(|idx| delta.ins.children_range(d, idx));
            del = match (del, d_idx) {
                (Some(_), Some(idx)) => Some(delta.del.children_range(d, idx)),
                _ => None,
            };
        }
        unreachable!("the loop returns at the leaf level");
    }

    /// Creates a fresh [`TrieIterator`] positioned at the root.
    pub fn iter(&self) -> TrieIterator<'_> {
        TrieIterator::new(self)
    }
}

/// Merges two sorted distinct slices into one sorted distinct vector.
fn merge_union(a: &[Val], b: &[Val]) -> Vec<Val> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The maximal open interval around `tv` containing no **live** last-level value,
/// where live = `(base \ del) ∪ ins` over the three sorted leaf slices.
fn live_leaf_gap(base: &[Val], ins: &[Val], del: &[Val], tv: Val) -> (Val, Val) {
    // Greatest live value < tv: scan the base downwards past tombstones, take the
    // best of that and the insert side.
    let mut lower = NEG_INF;
    let mut pos = base.partition_point(|&x| x < tv);
    while pos > 0 {
        let v = base[pos - 1];
        if del.binary_search(&v).is_err() {
            lower = v;
            break;
        }
        pos -= 1;
    }
    let ipos = ins.partition_point(|&x| x < tv);
    if ipos > 0 {
        lower = lower.max(ins[ipos - 1]);
    }
    // Least live value > tv, symmetric.
    let mut upper = POS_INF;
    let mut pos = base.partition_point(|&x| x <= tv);
    while pos < base.len() {
        let v = base[pos];
        if del.binary_search(&v).is_err() {
            upper = v;
            break;
        }
        pos += 1;
    }
    let ipos = ins.partition_point(|&x| x <= tv);
    if ipos < ins.len() {
        upper = upper.min(ins[ipos]);
    }
    (lower, upper)
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
/// Over a delta-carrying index the iterator walks base and insert tries in lockstep
/// and skips every key whose rows are all tombstoned, so each level shows exactly
/// the keys of the sorted live relation — engines never see the layers. Solid
/// indexes take a dedicated single-layer path with no merge overhead.
#[derive(Debug, Clone)]
pub struct TrieIterator<'a>(Iter<'a>);

#[derive(Debug, Clone)]
enum Iter<'a> {
    Solid(SolidIter<'a>),
    Merged(MergedIter<'a>),
}

impl<'a> TrieIterator<'a> {
    /// Creates an iterator positioned at the root (no level open).
    pub fn new(index: &'a TrieIndex) -> Self {
        TrieIterator(match &index.delta {
            None => Iter::Solid(SolidIter {
                core: &index.base,
                stack: Vec::with_capacity(index.arity()),
                at_end: false,
            }),
            Some(delta) => Iter::Merged(MergedIter {
                base: &index.base,
                ins: &delta.ins,
                del: &delta.del,
                stack: Vec::with_capacity(index.arity()),
                at_end: false,
            }),
        })
    }

    /// The number of currently open levels (0 = at root).
    pub fn depth(&self) -> usize {
        match &self.0 {
            Iter::Solid(it) => it.stack.len(),
            Iter::Merged(it) => it.stack.len(),
        }
    }

    /// Whether the iterator has run past the last sibling at the current level.
    pub fn at_end(&self) -> bool {
        match &self.0 {
            Iter::Solid(it) => it.at_end,
            Iter::Merged(it) => it.at_end,
        }
    }

    /// The value at the current position. Panics if no level is open or the level is
    /// exhausted.
    pub fn key(&self) -> Val {
        match &self.0 {
            Iter::Solid(it) => it.key(),
            Iter::Merged(it) => it.key(),
        }
    }

    /// Opens the next trie level, positioning at the first child of the current node.
    ///
    /// At the root this opens level 0. Panics if the maximum depth is already open or
    /// if the current level is exhausted.
    pub fn open(&mut self) {
        match &mut self.0 {
            Iter::Solid(it) => it.open(),
            Iter::Merged(it) => it.open(),
        }
    }

    /// Closes the current level and returns to the parent position.
    pub fn up(&mut self) {
        match &mut self.0 {
            Iter::Solid(it) => it.up(),
            Iter::Merged(it) => it.up(),
        }
    }

    /// Advances to the next sibling. Sets `at_end` when the level is exhausted.
    pub fn next(&mut self) {
        match &mut self.0 {
            Iter::Solid(it) => it.next(),
            Iter::Merged(it) => it.next(),
        }
    }

    /// Positions at the least sibling with value `>= v`, or exhausts the level.
    ///
    /// `seek` never moves backwards; seeking to a value smaller than the current key
    /// is a no-op (as specified by the LFTJ iterator contract).
    pub fn seek(&mut self, v: Val) {
        match &mut self.0 {
            Iter::Solid(it) => it.seek(v),
            Iter::Merged(it) => it.seek(v),
        }
    }

    /// A solid index's open level as `(values, pos)`: the sorted values cut at the
    /// end of the current node's children, and the position (`values.len()` once
    /// exhausted), which [`set_solid_pos`](Self::set_solid_pos) takes back. `None`
    /// at the root and over a delta-carrying index.
    #[inline]
    pub fn solid_level(&self) -> Option<(&'a [Val], usize)> {
        match &self.0 {
            Iter::Solid(it) => {
                let &(pos, _, hi) = it.stack.last()?;
                Some((&it.core.values[it.stack.len() - 1][..hi], pos))
            }
            Iter::Merged(_) => None,
        }
    }

    /// Moves a solid iterator to `pos` of [`solid_level`](Self::solid_level)'s
    /// slice. Panics at the root and over a delta-carrying index.
    #[inline]
    pub fn set_solid_pos(&mut self, pos: usize) {
        match &mut self.0 {
            Iter::Solid(it) => {
                let frame = it.stack.last_mut().expect("set_solid_pos() called at the root");
                frame.0 = pos;
                it.at_end = pos >= frame.2;
            }
            Iter::Merged(_) => panic!("set_solid_pos() on a delta-carrying index"),
        }
    }
}

/// The single-layer iterator: the original flat-trie walk, byte-for-byte.
#[derive(Debug, Clone)]
struct SolidIter<'a> {
    core: &'a TrieCore,
    /// One frame per open level: (current position, lo, hi) within `values[depth]`.
    stack: Vec<(usize, usize, usize)>,
    /// Set when `next`/`seek` runs past `hi` at the current level.
    at_end: bool,
}

impl SolidIter<'_> {
    fn key(&self) -> Val {
        assert!(!self.at_end, "key() called on an exhausted level");
        let &(pos, _, _) = self.stack.last().expect("key() called at the root");
        self.core.values[self.stack.len() - 1][pos]
    }

    fn open(&mut self) {
        assert!(self.stack.len() < self.core.arity, "open() past the last level");
        assert!(!self.at_end, "open() on an exhausted level");
        let (lo, hi) = if self.stack.is_empty() {
            self.core.root_range()
        } else {
            let depth = self.stack.len() - 1;
            let &(pos, _, _) = self.stack.last().unwrap();
            self.core.children_range(depth, pos)
        };
        self.stack.push((lo, lo, hi));
        self.at_end = lo >= hi;
    }

    fn up(&mut self) {
        self.stack.pop().expect("up() called at the root");
        self.at_end = false;
    }

    fn next(&mut self) {
        assert!(!self.at_end, "next() on an exhausted level");
        let frame = self.stack.last_mut().expect("next() called at the root");
        frame.0 += 1;
        self.at_end = frame.0 >= frame.2;
    }

    fn seek(&mut self, v: Val) {
        assert!(!self.at_end, "seek() on an exhausted level");
        let depth = self.stack.len() - 1;
        let frame = self.stack.last_mut().expect("seek() called at the root");
        let values = &self.core.values[depth];
        if values[frame.0] >= v {
            return;
        }
        // Gallop forward to find a bracket, then binary search inside it.
        let mut step = 1;
        let mut lo = frame.0;
        let mut hi = frame.0 + 1;
        while hi < frame.2 && values[hi] < v {
            lo = hi;
            hi = (hi + step).min(frame.2);
            step *= 2;
        }
        let off = values[lo..hi.min(frame.2)].partition_point(|&x| x < v);
        frame.0 = lo + off;
        // If the bracket ended before finding >= v, continue from there.
        while frame.0 < frame.2 && values[frame.0] < v {
            frame.0 += 1;
        }
        self.at_end = frame.0 >= frame.2;
    }
}

/// Which layer(s) the merged iterator's current key came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Base,
    Ins,
    Both,
}

/// One open level of the merged walk: a cursor into the base level range, a cursor
/// into the insert level range, and a forward-only tombstone cursor used for
/// last-level liveness checks. `pos == hi` encodes both "exhausted" and "this layer
/// never matched the path here".
#[derive(Debug, Clone, Copy)]
struct Frame {
    b_pos: usize,
    b_hi: usize,
    i_pos: usize,
    i_hi: usize,
    d_pos: usize,
    d_hi: usize,
    src: Src,
}

/// The two-layer lockstep iterator: presents `min(base, ins)` at every level with
/// duplicates collapsed, and skips base keys whose whole subtree appears in the
/// tombstone trie.
#[derive(Debug, Clone)]
struct MergedIter<'a> {
    base: &'a TrieCore,
    ins: &'a TrieCore,
    del: &'a TrieCore,
    stack: Vec<Frame>,
    at_end: bool,
}

impl MergedIter<'_> {
    fn key(&self) -> Val {
        assert!(!self.at_end, "key() called on an exhausted level");
        let frame = self.stack.last().expect("key() called at the root");
        let d = self.stack.len() - 1;
        match frame.src {
            Src::Base | Src::Both => self.base.values[d][frame.b_pos],
            Src::Ins => self.ins.values[d][frame.i_pos],
        }
    }

    fn open(&mut self) {
        assert!(self.stack.len() < self.base.arity, "open() past the last level");
        assert!(!self.at_end, "open() on an exhausted level");
        let mut frame = match self.stack.last() {
            None => {
                let (b_lo, b_hi) = self.base.root_range();
                let (i_lo, i_hi) = self.ins.root_range();
                let (d_lo, d_hi) = self.del.root_range();
                Frame { b_pos: b_lo, b_hi, i_pos: i_lo, i_hi, d_pos: d_lo, d_hi, src: Src::Base }
            }
            Some(parent) => {
                let pd = self.stack.len() - 1;
                let key = self.key();
                let (b_pos, b_hi) = match parent.src {
                    Src::Base | Src::Both => self.base.children_range(pd, parent.b_pos),
                    Src::Ins => (0, 0),
                };
                let (i_pos, i_hi) = match parent.src {
                    Src::Ins | Src::Both => self.ins.children_range(pd, parent.i_pos),
                    Src::Base => (0, 0),
                };
                // The tombstone path stays open only while it matches every key on
                // the way down; its cursor already sits at the first entry >= key.
                let (d_pos, d_hi) =
                    if parent.d_pos < parent.d_hi && self.del.values[pd][parent.d_pos] == key {
                        self.del.children_range(pd, parent.d_pos)
                    } else {
                        (0, 0)
                    };
                Frame { b_pos, b_hi, i_pos, i_hi, d_pos, d_hi, src: Src::Base }
            }
        };
        let depth = self.stack.len();
        self.at_end = !self.settle(&mut frame, depth);
        self.stack.push(frame);
    }

    fn up(&mut self) {
        self.stack.pop().expect("up() called at the root");
        self.at_end = false;
    }

    fn next(&mut self) {
        assert!(!self.at_end, "next() on an exhausted level");
        let depth = self.stack.len() - 1;
        let mut frame = *self.stack.last().expect("next() called at the root");
        match frame.src {
            Src::Base => frame.b_pos += 1,
            Src::Ins => frame.i_pos += 1,
            Src::Both => {
                frame.b_pos += 1;
                frame.i_pos += 1;
            }
        }
        self.at_end = !self.settle(&mut frame, depth);
        *self.stack.last_mut().unwrap() = frame;
    }

    fn seek(&mut self, v: Val) {
        assert!(!self.at_end, "seek() on an exhausted level");
        let depth = self.stack.len() - 1;
        let mut frame = *self.stack.last().expect("seek() called at the root");
        if self.key() >= v {
            return;
        }
        frame.b_pos += gallop(&self.base.values[depth][frame.b_pos..frame.b_hi], v);
        frame.i_pos += gallop(&self.ins.values[depth][frame.i_pos..frame.i_hi], v);
        self.at_end = !self.settle(&mut frame, depth);
        *self.stack.last_mut().unwrap() = frame;
    }

    /// Computes the merged key/source at `frame`'s cursors, skipping base keys
    /// whose every row is tombstoned. Returns `false` when the level is exhausted.
    fn settle(&self, frame: &mut Frame, depth: usize) -> bool {
        loop {
            let bv = (frame.b_pos < frame.b_hi).then(|| self.base.values[depth][frame.b_pos]);
            let iv = (frame.i_pos < frame.i_hi).then(|| self.ins.values[depth][frame.i_pos]);
            let (key, src) = match (bv, iv) {
                (None, None) => return false,
                (Some(b), None) => (b, Src::Base),
                (None, Some(i)) => (i, Src::Ins),
                (Some(b), Some(i)) => match b.cmp(&i) {
                    std::cmp::Ordering::Less => (b, Src::Base),
                    std::cmp::Ordering::Greater => (i, Src::Ins),
                    std::cmp::Ordering::Equal => (b, Src::Both),
                },
            };
            // Advance the tombstone cursor to the first entry >= key (forward-only,
            // amortized linear over the level; deltas are small by construction).
            while frame.d_pos < frame.d_hi && self.del.values[depth][frame.d_pos] < key {
                frame.d_pos += 1;
            }
            // A pure-base key is dead when the tombstones under it cover its whole
            // subtree: deletes are a subset of the base, so equal leaf counts mean
            // every row is deleted (at the last level both counts are 1). Insert-side
            // keys are live by the delta invariants — deletes apply to the base.
            if src == Src::Base
                && frame.d_pos < frame.d_hi
                && self.del.values[depth][frame.d_pos] == key
                && self.base.leaves_under(depth, frame.b_pos)
                    == self.del.leaves_under(depth, frame.d_pos)
            {
                frame.b_pos += 1;
                continue;
            }
            frame.src = src;
            return true;
        }
    }
}

/// Offset of the first element `>= v` in `values` (galloping + binary search — the
/// same forward-only probe pattern as the solid seek).
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
    fn solid_level_exposes_the_open_node_and_takes_positions_back() {
        let idx = TrieIndex::build_natural(&figure1_relation());
        let mut it = idx.iter();
        assert_eq!(it.solid_level(), None, "no level is open at the root");
        it.open();
        it.next();
        it.open();
        // Level 1 is [1, 4, 9, 4]; the children of 7 occupy positions 1..3.
        assert_eq!(it.solid_level(), Some((&[1, 4, 9][..], 1)));
        it.set_solid_pos(2);
        assert_eq!(it.key(), 9);
        it.open();
        assert_eq!(it.key(), 8, "open() descends from the position handed back");
        it.up();
        it.set_solid_pos(3);
        assert!(it.at_end());

        let (ins, del) = (Relation::from_pairs(vec![(3, 3)]), Relation::empty(2));
        let edited =
            TrieIndex::build_natural(&Relation::from_pairs(vec![(1, 2)])).with_edits(&ins, &del);
        let mut merged = edited.iter();
        merged.open();
        assert_eq!(merged.solid_level(), None, "a merged level has no single array");
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

    #[test]
    fn merged_iterator_streams_the_live_relation() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6], vec![5, 1, 5], vec![11, 0, 0]]);
        let del = Relation::from_rows(3, vec![vec![7, 4, 6], vec![10, 4, 1]]);
        for perm in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let (idx, solid) = edited_pair(&base, &perm, &ins, &del);
            assert_eq!(enumerate(&idx), enumerate(&solid), "perm {perm:?}");
        }
    }

    #[test]
    fn merged_iterator_handles_delta_only_and_all_deleted() {
        let base = figure1_relation();
        // Delete everything; insert a fresh row.
        let ins = Relation::from_rows(3, vec![vec![1, 2, 3]]);
        let (idx, solid) = edited_pair(&base, &[0, 1, 2], &ins, &base);
        assert_eq!(idx.num_rows(), 1);
        assert_eq!(enumerate(&idx), enumerate(&solid));
        // Empty base, delta-only content.
        let empty = Relation::empty(3);
        let (idx, solid) = edited_pair(&empty, &[0, 1, 2], &ins, &empty);
        assert_eq!(enumerate(&idx), enumerate(&solid));
    }

    #[test]
    fn merged_seek_skips_tombstones_and_finds_inserts() {
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
    fn merged_iteration_skips_interior_keys_whose_rows_are_all_tombstoned() {
        let base = figure1_relation();
        // Every row under 5 and under (7, 9) is deleted; (7, 4) keeps its row.
        let del = Relation::from_rows(
            3,
            vec![vec![5, 1, 4], vec![5, 1, 7], vec![5, 1, 12], vec![7, 9, 8], vec![7, 9, 13]],
        );
        let idx = TrieIndex::build_natural(&base).with_edits(&Relation::empty(3), &del);
        let mut it = idx.iter();
        it.open();
        assert_eq!(it.key(), 7, "5 has no live row");
        it.open();
        assert_eq!(it.key(), 4);
        it.next();
        assert!(it.at_end(), "(7, 9) has no live row");
        it.up();
        it.next();
        assert_eq!(it.key(), 10);
        it.seek(11);
        assert!(it.at_end());
        // A key with one live row left stays.
        let del = Relation::from_rows(3, vec![vec![5, 1, 4], vec![5, 1, 7]]);
        let idx = TrieIndex::build_natural(&base).with_edits(&Relation::empty(3), &del);
        let mut it = idx.iter();
        it.open();
        assert_eq!(it.key(), 5);
    }

    #[test]
    fn merged_contains_and_probe_respect_liveness() {
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
    fn merged_probe_is_sound_against_the_live_relation() {
        let base = figure1_relation();
        let ins = Relation::from_rows(3, vec![vec![6, 6, 6], vec![5, 2, 2]]);
        let del = Relation::from_rows(3, vec![vec![5, 1, 7], vec![10, 4, 1]]);
        let (idx, solid) = edited_pair(&base, &[0, 1, 2], &ins, &del);
        let live = enumerate(&solid);
        for a in 0..13 {
            for b in [0, 1, 2, 4, 6, 9] {
                for c in [0, 1, 4, 6, 7, 8, 12, 13, 20] {
                    let t = [a, b, c];
                    match idx.probe(&t) {
                        // Found exactly when the tuple is live.
                        ProbeResult::Found => assert!(live.contains(&t.to_vec()), "{t:?}"),
                        // A gap may sit deeper than the solid probe's (descending a
                        // dead path is allowed), but its open interval must contain
                        // no live value extending the matched prefix — and never the
                        // probed value itself outside the interval.
                        ProbeResult::Gap { depth, lower, upper } => {
                            assert!(!live.contains(&t.to_vec()), "{t:?}: gap on a live tuple");
                            assert!(
                                lower < t[depth] && t[depth] < upper,
                                "{t:?}: probe outside gap"
                            );
                            for row in &live {
                                if row[..depth] == t[..depth] {
                                    assert!(
                                        row[depth] <= lower || row[depth] >= upper,
                                        "{t:?}: live {row:?} inside gap ({lower}, {upper}) at depth {depth}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merged_leaf_gap_endpoints_are_live() {
        // Base 10,20,30; delete 20: probing 20 must bracket with live 10 and 30,
        // never the dead 20 itself.
        let base = Relation::from_values(vec![10, 20, 30]);
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::empty(1), &Relation::from_values(vec![20]));
        assert_eq!(idx.probe(&[20]), ProbeResult::Gap { depth: 0, lower: 10, upper: 30 });
        assert_eq!(idx.probe(&[15]), ProbeResult::Gap { depth: 0, lower: 10, upper: 30 });
    }

    #[test]
    fn first_level_values_merges_delta_keys() {
        let base = Relation::from_pairs(vec![(10, 1), (20, 2)]);
        let solid = TrieIndex::build_natural(&base);
        assert!(matches!(solid.first_level_values(), Cow::Borrowed(_)));
        assert_eq!(&*solid.first_level_values(), &[10, 20]);
        let idx = solid.with_edits(
            &Relation::from_pairs(vec![(-5, 0), (10, 9), (99, 1)]),
            &Relation::from_pairs(vec![(20, 2)]),
        );
        // Union of both layers' first keys, sorted distinct; the fully-deleted 20
        // may remain (harmless for partitioning).
        assert_eq!(&*idx.first_level_values(), &[-5, 10, 20, 99]);
    }

    #[test]
    fn max_value_is_a_live_upper_bound() {
        let base = Relation::from_values(vec![10, 20]);
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::from_values(vec![35]), &Relation::empty(1));
        assert_eq!(idx.max_value(), Some(35), "out-of-range insert raises the bound");
        let idx = TrieIndex::build_natural(&base)
            .with_edits(&Relation::empty(1), &Relation::from_values(vec![20]));
        assert!(idx.max_value() >= Some(10), "after deleting the max the bound may overestimate");
    }

    #[test]
    fn with_edits_replaces_a_previous_delta() {
        let base = Relation::from_values(vec![1, 2, 3]);
        let solid = TrieIndex::build_natural(&base);
        let first = solid.with_edits(&Relation::from_values(vec![9]), &Relation::empty(1));
        // Cumulative batches are applied against the base, replacing the old layer.
        let second =
            first.with_edits(&Relation::from_values(vec![9, 10]), &Relation::from_values(vec![1]));
        assert!(second.shares_base(&solid));
        assert_eq!(enumerate(&second), vec![vec![2], vec![3], vec![9], vec![10]],);
        assert_eq!(second.num_rows(), 4);
    }
}
