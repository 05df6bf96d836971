//! Columnar intermediate results and the pairwise physical join operators.
//!
//! A Selinger-style engine evaluates a join query as a sequence of two-way joins,
//! materialising each intermediate result. [`Intermediate`] is that materialised
//! table, stored the same way [`Relation`] stores base data: **one contiguous
//! row-major buffer** of `len × arity` values. There is no per-row allocation
//! anywhere in the pairwise path — rows are zero-copy `&[Val]` slices
//! ([`Intermediate::row`]), join output is written straight into the output
//! buffer, and every reordering (the sort side of a sort-merge join) happens
//! through a row-*index* permutation over the flat buffer
//! ([`Intermediate::sort_perm`], mirroring `Relation::sorted_row_order`).
//!
//! # Buffer invariants
//!
//! * `buf.len() == len() * width()` with `width() == vars().len()`; row `i`
//!   occupies `buf[i * width .. (i + 1) * width]`.
//! * The schema ([`Intermediate::vars`]) never repeats a variable, and joins never
//!   drop columns — the output schema is the left schema followed by the right
//!   side's non-shared columns ([`JoinCols::resolve`]).
//! * Rows are **not** kept sorted (unlike `Relation`): the row order is the
//!   deterministic emission order of the operator that produced them, which the
//!   parallel pairwise runtime relies on (see below).
//! * Sorting for the merge join never rearranges the buffer: it produces a `u32`
//!   row-index permutation ordered by the key columns (ties broken by row index,
//!   i.e. a stable sort), and consumers read `row(perm[k])`.
//!
//! One operator, [`Intermediate::stream_join`], implements both physical joins,
//! picked by the prebuilt [`RightIndex`] of the right side:
//! [`RightIndex::Hash`] (row-store stand-in; a chained hash table of row indices,
//! no per-key bucket allocations) and [`RightIndex::Sorted`] (column-store
//! stand-in; both sides sorted by index permutation, runs aligned by a linear
//! merge). It pipelines each joined row into a caller sink; the executor either
//! materialises those rows ([`Intermediate::push_row`]) or streams them on.
//! [`Intermediate::apply_filters`] is the selection operator.
//!
//! # Emission order
//!
//! Both joins emit (and materialise) output **in left-row order**: for each left
//! row in stored order, its right-side matches in a deterministic order (right
//! stored order for the hash join, right key-sorted order for the merge join).
//! Left-order emission is what makes the parallel pairwise path exact: the plan's
//! base relation is sorted, so restricting it to consecutive first-attribute
//! ranges (morsels) and concatenating the per-range outputs in range order
//! reproduces the serial emission stream byte for byte. The sort-merge join still
//! *computes* through sorted runs (both sides are key-sorted and merged — the
//! column-store cost profile is unchanged); only its emission is re-ordered to the
//! left probe order via a per-left-row run table.

use gj_query::VarId;
use gj_storage::{Relation, Val};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

/// Sentinel for "no next row" in [`RightIndex::Hash`] chains.
const NO_ROW: u32 = u32::MAX;

/// A materialised intermediate relation over query variables, stored as one flat
/// `len × arity` row-major buffer (see the [module docs](self) for the layout
/// invariants).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Intermediate {
    /// The variables of each column (never repeats a variable).
    vars: Vec<VarId>,
    /// Row width; equals `vars.len()` (cached to keep the hot loops free of
    /// `vars` reads).
    width: usize,
    /// Row-major flat buffer of `len * width` values.
    buf: Vec<Val>,
}

impl Intermediate {
    /// Builds an intermediate from a base relation and the variables of its atom:
    /// one `memcpy` of the relation's flat buffer, no per-row work. Atoms never
    /// repeat a variable (checked by the query validator).
    pub fn from_relation(relation: &Relation, vars: &[VarId]) -> Self {
        // gj-lint: allow(no-panic-in-engines) — a width that is not the relation's arity would misread every row; queries are arity-checked before planning, so this only fires on a caller bug
        assert_eq!(vars.len(), relation.arity(), "one variable per relation column");
        Intermediate {
            vars: vars.to_vec(),
            width: vars.len(),
            buf: relation.flat_values().to_vec(),
        }
    }

    /// Resets the schema and drops all rows, keeping the buffer capacity — the
    /// reuse primitive for per-worker intermediates carried across morsels.
    pub fn reset(&mut self, vars: &[VarId]) {
        self.vars.clear();
        self.vars.extend_from_slice(vars);
        self.width = vars.len();
        self.buf.clear();
    }

    /// The row-index bounds `[start, end)` of the rows whose **first column**
    /// value lies in `[lo, hi)`. The rows must be sorted on their first column
    /// (base relations are — `Relation` stores rows in lexicographic order), so
    /// this is a pair of binary searches. Separate from
    /// [`load_row_range`](Self::load_row_range) so callers can check a row
    /// budget against the restriction's size *before* paying the copy.
    pub fn first_col_range(&self, lo: Val, hi: Val) -> (usize, usize) {
        if self.is_empty() {
            return (0, 0);
        }
        let first = |i: usize| self.row(i)[0];
        debug_assert!((1..self.len()).all(|i| first(i - 1) <= first(i)));
        let start = partition_rows(self.len(), |i| first(i) < lo);
        let end = partition_rows(self.len(), |i| first(i) < hi);
        (start, end)
    }

    /// Replaces the contents with rows `start..end` of `source` — one `memcpy`,
    /// reusing this buffer's capacity.
    pub fn load_row_range(&mut self, source: &Intermediate, start: usize, end: usize) {
        self.reset(&source.vars);
        self.buf.extend_from_slice(&source.buf[start * source.width..end * source.width]);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.buf.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether the intermediate is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The variables of each column.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Row `i` as a zero-copy slice into the flat buffer.
    #[inline]
    pub fn row(&self, i: usize) -> &[Val] {
        &self.buf[i * self.width..(i + 1) * self.width]
    }

    /// Appends one row (must match the schema width).
    pub fn push_row(&mut self, row: &[Val]) {
        debug_assert_eq!(row.len(), self.width);
        self.buf.extend_from_slice(row);
    }

    /// The column index of `var`, if present.
    fn col_of(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// The row-index permutation that orders the rows by the given key columns,
    /// ties broken by row index (a stable key sort). Sorting never touches the
    /// buffer — consumers read `row(perm[k])`.
    pub fn sort_perm(&self, key_cols: &[usize]) -> Vec<u32> {
        match *key_cols {
            [] => (0..self.len() as u32).collect(),
            // One key column: sort extracted `(key, row)` pairs, which order exactly
            // as the comparator below does, without re-slicing two rows per
            // comparison.
            [col] => {
                let mut pairs: Vec<(Val, u32)> =
                    self.buf.chunks_exact(self.width).map(|row| row[col]).zip(0..).collect();
                pairs.sort_unstable();
                pairs.into_iter().map(|(_, row)| row).collect()
            }
            _ => {
                let mut order: Vec<u32> = (0..self.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| {
                    self.cmp_keys(a as usize, self, b as usize, key_cols, key_cols).then(a.cmp(&b))
                });
                order
            }
        }
    }

    /// Compares the key of `self.row(i)` (under `self_cols`) with the key of
    /// `other.row(j)` (under `other_cols`).
    #[inline]
    fn cmp_keys(
        &self,
        i: usize,
        other: &Intermediate,
        j: usize,
        self_cols: &[usize],
        other_cols: &[usize],
    ) -> std::cmp::Ordering {
        let (a, b) = (self.row(i), other.row(j));
        for (&ca, &cb) in self_cols.iter().zip(other_cols) {
            match a[ca].cmp(&b[cb]) {
                std::cmp::Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Streams the join of `self` (left side) with `right` through a prebuilt
    /// [`RightIndex`], emitting each joined row — left row followed by the right
    /// side's extra columns, in **left-row order** — into one scratch buffer passed
    /// to `emit`; the scan stops as soon as `emit` breaks. Returns the number of
    /// rows emitted.
    ///
    /// This is the shared core of both physical joins: the operator (hash probe vs
    /// merge of sorted runs) is picked by the index variant. Per call it allocates
    /// only the scratch row and, for the merge join, the left permutation and run
    /// table — never anything per output row.
    pub fn stream_join(
        &self,
        right: &Intermediate,
        cols: &JoinCols,
        index: &RightIndex,
        emit: &mut impl FnMut(&[Val]) -> ControlFlow<()>,
    ) -> u64 {
        let mut out = vec![0; self.width + cols.extra.len()];
        let mut emitted = 0u64;
        let mut send = |left_row: &[Val], right_row: &[Val]| {
            out[..left_row.len()].copy_from_slice(left_row);
            for (slot, &c) in out[left_row.len()..].iter_mut().zip(&cols.extra) {
                *slot = right_row[c];
            }
            emitted += 1;
            emit(&out)
        };
        match index {
            RightIndex::Hash { heads, next } => {
                'rows: for i in 0..self.len() {
                    let lrow = self.row(i);
                    let h = hash_key(lrow, &cols.left);
                    let Some(&head) = heads.get(&h) else { continue };
                    let mut j = head;
                    while j != NO_ROW {
                        if self.cmp_keys(i, right, j as usize, &cols.left, &cols.right).is_eq()
                            && send(lrow, right.row(j as usize)).is_break()
                        {
                            break 'rows;
                        }
                        j = next[j as usize];
                    }
                }
            }
            RightIndex::Sorted { order } => {
                // Sort-merge: sort the left by the key columns too, align the
                // equal-key runs of both sorted sides with one linear merge, then
                // emit in left *stored* order through the per-left-row run table.
                let lperm = self.sort_perm(&cols.left);
                let mut runs = vec![(0u32, 0u32); self.len()];
                let (mut i, mut j) = (0usize, 0usize);
                while i < lperm.len() && j < order.len() {
                    let (li, rj) = (lperm[i] as usize, order[j] as usize);
                    match self.cmp_keys(li, right, rj, &cols.left, &cols.right) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let i_end = (i..lperm.len())
                                .find(|&x| {
                                    self.cmp_keys(
                                        lperm[x] as usize,
                                        self,
                                        li,
                                        &cols.left,
                                        &cols.left,
                                    )
                                    .is_ne()
                                })
                                .unwrap_or(lperm.len());
                            let j_end = (j..order.len())
                                .find(|&x| {
                                    right
                                        .cmp_keys(
                                            order[x] as usize,
                                            right,
                                            rj,
                                            &cols.right,
                                            &cols.right,
                                        )
                                        .is_ne()
                                })
                                .unwrap_or(order.len());
                            for &l in &lperm[i..i_end] {
                                runs[l as usize] = (j as u32, j_end as u32);
                            }
                            i = i_end;
                            j = j_end;
                        }
                    }
                }
                'rows: for (li, &(rs, re)) in runs.iter().enumerate() {
                    for &rj in &order[rs as usize..re as usize] {
                        if send(self.row(li), right.row(rj as usize)).is_break() {
                            break 'rows;
                        }
                    }
                }
            }
        }
        emitted
    }

    /// Keeps only rows satisfying `binding[x] < binding[y]` for each applicable
    /// filter (both variables must be present in the schema). Compacts the flat
    /// buffer in place — surviving rows slide forward, nothing is reallocated.
    pub fn apply_filters(&mut self, filters: &[(VarId, VarId)]) {
        let applicable: Vec<(usize, usize)> =
            filters.iter().filter_map(|&(x, y)| Some((self.col_of(x)?, self.col_of(y)?))).collect();
        if applicable.is_empty() {
            return;
        }
        let (len, w) = (self.len(), self.width);
        let mut kept = 0usize;
        for i in 0..len {
            let r = &self.buf[i * w..(i + 1) * w];
            if applicable.iter().all(|&(cx, cy)| r[cx] < r[cy]) {
                if kept != i {
                    self.buf.copy_within(i * w..(i + 1) * w, kept * w);
                }
                kept += 1;
            }
        }
        self.buf.truncate(kept * w);
    }

    /// The distinct values of the first column, in increasing order — the morsel
    /// partition axis for the parallel pairwise path. Requires the rows to be
    /// sorted on the first column (base relations are).
    pub fn distinct_first_values(&self) -> Vec<Val> {
        let mut values: Vec<Val> = (0..self.len()).map(|i| self.row(i)[0]).collect();
        values.dedup();
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "first column must be sorted");
        values
    }
}

/// `partition_point` over row indices `0..len`.
fn partition_rows(len: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Hash of a row's key columns (the probe key of the chained hash join).
#[inline]
fn hash_key(row: &[Val], cols: &[usize]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// The column bookkeeping of one pairwise join, resolved once per plan step: which
/// left/right columns form the equi-join key and which right columns are appended
/// to the output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCols {
    /// Left-side key column indices (one per shared variable).
    pub left: Vec<usize>,
    /// Right-side key column indices, aligned with `left`.
    pub right: Vec<usize>,
    /// Right-side columns appended after the left row in the output.
    pub extra: Vec<usize>,
}

impl JoinCols {
    /// Resolves the join columns and the output schema for `left_vars ⋈
    /// right_vars`: the shared variables form the key, the output is the left
    /// schema followed by the right side's non-shared columns.
    pub fn resolve(left_vars: &[VarId], right_vars: &[VarId]) -> (JoinCols, Vec<VarId>) {
        let mut cols = JoinCols { left: Vec::new(), right: Vec::new(), extra: Vec::new() };
        let mut out_vars = left_vars.to_vec();
        for (rc, &v) in right_vars.iter().enumerate() {
            match left_vars.iter().position(|&l| l == v) {
                Some(lc) => {
                    cols.left.push(lc);
                    cols.right.push(rc);
                }
                None => {
                    cols.extra.push(rc);
                    out_vars.push(v);
                }
            }
        }
        (cols, out_vars)
    }
}

/// A precomputed probe structure over the **right** (build) side of one pairwise
/// join. Built once per plan step at prepare time and shared read-only by every
/// worker; both variants store only row indices into the right intermediate's
/// flat buffer.
#[derive(Debug, Clone)]
pub enum RightIndex {
    /// Chained hash table for the hash join: `heads` maps a key hash to the first
    /// right row with that hash, `next[i]` chains to the next one (row order is
    /// ascending, so matches are emitted in right stored order). Hash collisions
    /// are resolved by comparing the actual key columns at probe time.
    Hash {
        /// Key hash → first right row index of the chain.
        heads: HashMap<u64, u32>,
        /// `next[i]` = next right row with the same key hash (`u32::MAX` ends
        /// the chain).
        next: Vec<u32>,
    },
    /// Row-index permutation of the right side sorted on the key columns (ties by
    /// row index), for the merge join.
    Sorted {
        /// The key-sorted right row order.
        order: Vec<u32>,
    },
}

impl RightIndex {
    /// Builds the chained hash table over `right`'s key columns.
    pub fn hash(right: &Intermediate, key_cols: &[usize]) -> RightIndex {
        let mut heads = HashMap::new();
        let mut next = vec![NO_ROW; right.len()];
        // Insert in reverse row order so each chain head is the smallest row
        // index and chains walk in ascending (stored) order.
        for i in (0..right.len()).rev() {
            let h = hash_key(right.row(i), key_cols);
            if let Some(prev) = heads.insert(h, i as u32) {
                next[i] = prev;
            }
        }
        RightIndex::Hash { heads, next }
    }

    /// Builds the key-sorted row permutation over `right`.
    pub fn sorted(right: &Intermediate, key_cols: &[usize]) -> RightIndex {
        RightIndex::Sorted { order: right.sort_perm(key_cols) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: an intermediate from a flat buffer (rows are `vars.len()`
    /// wide).
    fn r(vars: &[VarId], flat: &[Val]) -> Intermediate {
        let mut inter = Intermediate::default();
        inter.reset(vars);
        assert_eq!(flat.len() % vars.len(), 0);
        for row in flat.chunks_exact(vars.len()) {
            inter.push_row(row);
        }
        inter
    }

    /// Joins `left ⋈ right` on their shared variables through `stream_join` with
    /// the given index variant (`merge`: sorted, else hash), stopping after
    /// `limit` rows. Returns the output schema and the flat row stream.
    fn join(
        left: &Intermediate,
        right: &Intermediate,
        merge: bool,
        limit: usize,
    ) -> (Vec<VarId>, Vec<Val>) {
        let (cols, out_vars) = JoinCols::resolve(left.vars(), right.vars());
        let index = if merge {
            RightIndex::sorted(right, &cols.right)
        } else {
            RightIndex::hash(right, &cols.right)
        };
        let (mut flat, mut rows) = (Vec::new(), 0);
        let emitted = left.stream_join(right, &cols, &index, &mut |row| {
            flat.extend_from_slice(row);
            rows += 1;
            if rows == limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(emitted as usize, rows, "stream_join reports the rows it emitted");
        (out_vars, flat)
    }

    /// Sorted rows of a flat `width`-wide stream (for order-insensitive
    /// comparisons).
    fn sorted_rows(flat: &[Val], width: usize) -> Vec<Val> {
        let mut rows: Vec<&[Val]> = flat.chunks_exact(width).collect();
        rows.sort_unstable();
        rows.concat()
    }

    #[test]
    fn hash_join_on_one_shared_variable() {
        let left = r(&[0, 1], &[1, 2, 2, 3, 4, 5]);
        let right = r(&[1, 2], &[2, 7, 3, 8, 3, 9]);
        let (vars, out) = join(&left, &right, false, usize::MAX);
        assert_eq!(vars, &[0, 1, 2]);
        assert_eq!(sorted_rows(&out, 3), vec![1, 2, 7, 2, 3, 8, 2, 3, 9]);
    }

    #[test]
    fn sort_merge_join_agrees_with_hash_join() {
        let left = r(&[0, 1], &[1, 2, 2, 3, 4, 5, 6, 3]);
        let right = r(&[1, 2], &[2, 7, 3, 8, 3, 9, 5, 1]);
        let (_, h) = join(&left, &right, false, usize::MAX);
        let (_, s) = join(&left, &right, true, usize::MAX);
        // (1,2)x(2,7), (2,3)x(3,8),(3,9), (6,3)x(3,8),(3,9), (4,5)x(5,1).
        assert_eq!(h.len(), 6 * 3);
        // Both joins emit in left-row order (the parallel-exactness invariant).
        assert_eq!(h, s);
        assert_eq!(&h[..3], &[1, 2, 7]);
        assert_eq!(&h[15..], &[6, 3, 9]);
    }

    #[test]
    fn join_on_two_shared_variables() {
        let left = r(&[0, 1], &[1, 2, 3, 4]);
        let right = r(&[0, 1, 2], &[1, 2, 9, 1, 5, 8, 3, 4, 7]);
        for merge in [false, true] {
            let (vars, out) = join(&left, &right, merge, usize::MAX);
            assert_eq!(vars, &[0, 1, 2]);
            assert_eq!(sorted_rows(&out, 3), vec![1, 2, 9, 3, 4, 7], "merge={merge}");
        }
    }

    #[test]
    fn join_without_shared_variables_is_a_cross_product() {
        let left = r(&[0], &[1, 2]);
        let right = r(&[1], &[7, 8]);
        for merge in [false, true] {
            let (_, out) = join(&left, &right, merge, usize::MAX);
            assert_eq!(out, &[1, 7, 1, 8, 2, 7, 2, 8], "merge={merge}");
        }
    }

    #[test]
    fn streamed_joins_stop_when_the_sink_breaks() {
        let left = r(&[0, 1], &[1, 2, 2, 3, 4, 5, 6, 3]);
        let right = r(&[1, 2], &[2, 7, 3, 8, 3, 9, 5, 1]);
        for merge in [false, true] {
            let (_, all) = join(&left, &right, merge, usize::MAX);
            // Early termination stops the scan on the sink's row, and the prefix
            // is the full stream's.
            for limit in [1, 4] {
                let (_, prefix) = join(&left, &right, merge, limit);
                assert_eq!(prefix, all[..limit * 3], "merge={merge} limit={limit}");
            }
        }
        // The cartesian case streams too.
        let a = r(&[0], &[1, 2]);
        let b = r(&[1], &[7]);
        assert_eq!(join(&a, &b, true, usize::MAX).1, &[1, 7, 2, 7]);
    }

    #[test]
    fn filters_prune_rows_once_both_sides_are_present() {
        let mut inter = r(&[0, 1], &[1, 2, 3, 2, 2, 2]);
        inter.apply_filters(&[(0, 1), (2, 3)]); // the second filter is not applicable
        assert_eq!(inter.buf, &[1, 2]);
        assert_eq!(inter.len(), 1);
    }

    #[test]
    fn from_relation_preserves_rows() {
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4)]);
        let inter = Intermediate::from_relation(&rel, &[5, 7]);
        assert_eq!(inter.vars(), &[5, 7]);
        assert_eq!(inter.len(), 2);
        assert_eq!(inter.buf, rel.flat_values());
    }

    #[test]
    fn first_col_range_restriction_is_a_contiguous_slice() {
        let rel = Relation::from_pairs(vec![(1, 2), (1, 5), (3, 4), (7, 0), (9, 9)]);
        let base = Intermediate::from_relation(&rel, &[0, 1]);
        let mut restricted = Intermediate::default();
        let mut load = |lo, hi| {
            let (start, end) = base.first_col_range(lo, hi);
            restricted.load_row_range(&base, start, end);
            restricted.buf.clone()
        };
        assert_eq!(load(1, 7), &[1, 2, 1, 5, 3, 4]);
        assert_eq!(load(8, gj_storage::POS_INF), &[9, 9]);
        assert_eq!(load(gj_storage::NEG_INF, gj_storage::POS_INF), base.buf);
        // Splitting at boundaries tiles the base exactly.
        assert_eq!(base.distinct_first_values(), vec![1, 3, 7, 9]);
        let reassembled: Vec<Val> = [(-1, 3), (3, 9), (9, gj_storage::POS_INF)]
            .into_iter()
            .flat_map(|(lo, hi)| load(lo, hi))
            .collect();
        assert_eq!(reassembled, base.buf);
    }

    #[test]
    fn sort_perm_is_stable_on_equal_keys() {
        let inter = r(&[0, 1], &[5, 1, 3, 2, 5, 0, 3, 1]);
        assert_eq!(inter.sort_perm(&[0]), vec![1, 3, 0, 2]);
        // The empty key is the identity (cartesian runs keep stored order).
        assert_eq!(inter.sort_perm(&[]), vec![0, 1, 2, 3]);
    }

    /// The single-column fast path yields the comparator's permutation: the key
    /// order, ties by row index.
    #[test]
    fn single_key_sort_perm_matches_the_comparator_on_duplicate_keys() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<Val> = (0..3 * 500).map(|_| rng.gen_range(0..40)).collect();
        let inter = r(&[0, 1, 2], &values);
        for col in 0..3 {
            let mut expected: Vec<u32> = (0..inter.len() as u32).collect();
            expected.sort_by(|&a, &b| {
                inter.cmp_keys(a as usize, &inter, b as usize, &[col], &[col]).then(a.cmp(&b))
            });
            assert_eq!(inter.sort_perm(&[col]), expected, "column {col}");
        }
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut inter = r(&[0, 1], &[1, 2, 3, 4, 5, 6]);
        let capacity = inter.buf.capacity();
        inter.reset(&[7]);
        assert_eq!(inter.vars(), &[7]);
        assert!(inter.is_empty());
        assert_eq!(inter.buf.capacity(), capacity);
    }
}
