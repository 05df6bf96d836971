//! Sorted, deduplicated relations in a flat columnar-strided layout.
//!
//! A [`Relation`] is the logical object the join algorithms consume: a set of
//! fixed-arity tuples. Physically the tuples live in **one contiguous buffer** of
//! `len × arity` values in row-major order, kept sorted in lexicographic order and
//! deduplicated. There is no per-row allocation: a row is a `&[Val]` slice into the
//! buffer ([`Relation::row`]), and every reordering operation (sorting on
//! construction, [`Relation::sorted_row_order`] for index builds) works on row
//! *indices* over that buffer rather than on materialized row copies. This is what
//! lets [`TrieIndex::build`](crate::trie::TrieIndex::build) construct a
//! GAO-consistent index in any attribute order without ever materializing a permuted
//! copy of the relation.
//!
//! A permuted order costs no comparison sort: [`Relation::sorted_row_order`]
//! re-sorts only the columns before the permutation's ascending tail, one stable
//! pass each (a counting sort over `value − min` when the column's range is
//! narrower than 64 × rows, else a stable sort on the column), so an index build
//! in any order costs O(passes × (rows + span)).

use crate::value::{is_finite, Tuple, Val};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// A fixed-arity relation stored as sorted, deduplicated rows in one flat buffer.
///
/// The row ordering is plain lexicographic order on the stored column order. To index
/// a relation in a different attribute order (as required by GAO-consistency), build a
/// [`TrieIndex`](crate::trie::TrieIndex) with the desired column permutation — the
/// relation itself is never reordered or copied.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    len: usize,
    /// Row-major flat buffer of `len * arity` values; rows are sorted and distinct.
    values: Vec<Val>,
    /// Cached largest value in the relation (`None` when empty). Column order does
    /// not affect it, so every [`TrieIndex`](crate::trie::TrieIndex) built over this
    /// relation shares it instead of rescanning its levels.
    max_value: Option<Val>,
    /// Distinct values per column, computed on first use by
    /// [`Relation::column_distinct`]. A derived statistic: equality ignores it,
    /// and an edited relation starts without it.
    distinct: OnceLock<Box<[usize]>>,
}

/// Equality is set equality of the rows (the cached maximum follows from them);
/// whether the distinct counts have been computed yet does not matter.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.len == other.len
            && self.values == other.values
            && self.max_value == other.max_value
    }
}

impl Eq for Relation {}

impl Relation {
    /// Assembles a relation from a buffer already sorted and deduplicated.
    fn from_parts(arity: usize, values: Vec<Val>, max_value: Option<Val>) -> Self {
        let len = values.len() / arity;
        Relation { arity, len, values, max_value, distinct: OnceLock::new() }
    }

    /// Creates an empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        assert!(arity > 0, "relations need at least one attribute");
        Self::from_parts(arity, Vec::new(), None)
    }

    /// Builds a relation from a flat row-major buffer of `values.len() / arity` rows.
    ///
    /// Rows are sorted and deduplicated in place (by index permutation — no per-row
    /// allocation). Panics if the buffer length is not a multiple of the arity or if
    /// any value is a sentinel (`NEG_INF`/`POS_INF`), because the join algorithms
    /// reserve those for internal use.
    pub fn from_flat(arity: usize, values: Vec<Val>) -> Self {
        assert!(arity > 0, "relations need at least one attribute");
        assert_eq!(
            values.len() % arity,
            0,
            "flat buffer length {} is not a multiple of arity {arity}",
            values.len()
        );
        assert!(values.iter().all(|&v| is_finite(v)), "rows must not contain sentinel values");
        Self::from_flat_unchecked(arity, values)
    }

    /// `from_flat` without the finiteness re-validation, for internal callers whose
    /// values are already known to be legal data values.
    fn from_flat_unchecked(arity: usize, mut values: Vec<Val>) -> Self {
        assert!(arity > 0, "relations need at least one attribute");
        let len = values.len() / arity;
        assert!(len <= u32::MAX as usize, "relation exceeds u32 row indexing");
        let row = |i: usize| &values[i * arity..(i + 1) * arity];

        // Fast path: many loaders (graph edge lists, ranges) already hand us sorted,
        // distinct rows; detect that with one linear scan and skip the sort entirely.
        let sorted_unique = (1..len).all(|i| row(i - 1) < row(i));
        if !sorted_unique {
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_unstable_by(|&a, &b| row(a as usize).cmp(row(b as usize)));
            // Gather in sorted order, dropping duplicates of the previous row.
            let mut gathered: Vec<Val> = Vec::with_capacity(values.len());
            for &i in &order {
                let r = row(i as usize);
                if gathered.is_empty() || &gathered[gathered.len() - arity..] != r {
                    gathered.extend_from_slice(r);
                }
            }
            values = gathered;
        }
        let max_value = values.iter().copied().max();
        Self::from_parts(arity, values, max_value)
    }

    /// Builds a relation from an arbitrary collection of rows.
    ///
    /// Rows are sorted and deduplicated. Panics if any row has the wrong arity or
    /// contains a sentinel value (`NEG_INF`/`POS_INF`).
    pub fn from_rows(arity: usize, rows: Vec<Tuple>) -> Self {
        for row in &rows {
            assert_eq!(row.len(), arity, "row arity mismatch: {row:?} vs arity {arity}");
            assert!(
                row.iter().all(|&v| is_finite(v)),
                "rows must not contain sentinel values: {row:?}"
            );
        }
        let mut values = Vec::with_capacity(rows.len() * arity);
        for row in &rows {
            values.extend_from_slice(row);
        }
        Self::from_flat_unchecked(arity, values)
    }

    /// Builds a unary relation from a set of values.
    pub fn from_values(values: impl IntoIterator<Item = Val>) -> Self {
        let flat: Vec<Val> = values.into_iter().collect();
        assert!(flat.iter().all(|&v| is_finite(v)), "values must not contain sentinels");
        Self::from_flat_unchecked(1, flat)
    }

    /// Builds a binary relation from `(a, b)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Val, Val)>) -> Self {
        let mut flat = Vec::new();
        for (a, b) in pairs {
            assert!(is_finite(a) && is_finite(b), "values must not contain sentinels");
            flat.push(a);
            flat.push(b);
        }
        Self::from_flat_unchecked(2, flat)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` as a zero-copy slice into the flat buffer.
    #[inline]
    pub fn row(&self, i: usize) -> &[Val] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// The flat row-major buffer (`len() * arity()` values, rows sorted, distinct).
    pub fn flat_values(&self) -> &[Val] {
        &self.values
    }

    /// The largest value appearing anywhere in the relation (`None` when empty).
    /// Cached at construction; independent of column order.
    pub fn max_value(&self) -> Option<Val> {
        self.max_value
    }

    /// The number of distinct values in column `col`.
    ///
    /// Computed for every column on the first call and cached for the life of
    /// this relation value, in O(rows) per column: column 0 counts the run
    /// boundaries of the sorted buffer; another column marks a bitset over its
    /// value range when that range is at most 64 × rows wide, and sorts a copy
    /// of the column otherwise. Panics if `col >= arity`.
    pub fn column_distinct(&self, col: usize) -> usize {
        assert!(col < self.arity, "column {col} out of range for arity {}", self.arity);
        self.distinct.get_or_init(|| (0..self.arity).map(|c| self.count_distinct(c)).collect())[col]
    }

    fn count_distinct(&self, col: usize) -> usize {
        let rows = || self.values.chunks_exact(self.arity);
        if self.len == 0 {
            return 0;
        }
        if col == 0 {
            // The rows are sorted, so column 0 is too: count its runs.
            return 1 + rows()
                .zip(rows().skip(1))
                .filter(|(prev, next)| prev[0] != next[0])
                .count();
        }
        let Some((lo, span)) = self.narrow_range(col) else {
            let mut values: Vec<Val> = rows().map(|r| r[col]).collect();
            values.sort_unstable();
            values.dedup();
            return values.len();
        };
        let mut seen = vec![0u64; span / 64 + 1];
        for r in rows() {
            let bit = (r[col] - lo) as usize;
            seen[bit / 64] |= 1 << (bit % 64);
        }
        seen.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Materializes the rows as owned tuples (convenience for tests and engines that
    /// need owned intermediates; the hot paths use [`Relation::row`] /
    /// [`Relation::iter`] instead).
    pub fn to_rows(&self) -> Vec<Tuple> {
        self.iter().map(<[Val]>::to_vec).collect()
    }

    /// Membership test (binary search over the sorted rows).
    pub fn contains(&self, row: &[Val]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        self.lower_bound(0, row).1
    }

    /// The least value of column `col` and the width of its value range, when that
    /// range is narrower than 64 × rows (computed in `i128`, so extreme values cannot
    /// overflow). Every offset `value − lo` then lies in `0..=span` and cannot
    /// overflow, so an array indexed by it costs O(rows). `None` for a wider range
    /// or an empty relation.
    fn narrow_range(&self, col: usize) -> Option<(Val, usize)> {
        let (lo, hi) =
            self.iter().fold((Val::MAX, Val::MIN), |(lo, hi), r| (lo.min(r[col]), hi.max(r[col])));
        let span = i128::from(hi) - i128::from(lo);
        (self.len > 0 && span < 64 * self.len as i128).then_some((lo, span as usize))
    }

    /// The order of this relation's row indices when rows are compared through the
    /// column permutation `perm` (`perm[d]` is the source column compared at
    /// position `d`).
    ///
    /// This is the primitive behind zero-materialization index builds: a consumer
    /// walks `order` and reads `row(order[k])[perm[d]]` instead of materializing a
    /// permuted, re-sorted copy of the relation. Because the stored rows are
    /// distinct and `perm` is a full permutation, the permuted rows are distinct
    /// too — no deduplication pass is needed.
    ///
    /// No comparison sort runs. Take the smallest `m` with `perm[m..]` ascending:
    /// rows that tie on `perm[..m]` are already in `perm[m..]` order, because the
    /// stored rows are sorted on columns `0..arity`. So one stable pass per column
    /// `perm[m - 1], …, perm[0]`, starting from the stored order, sorts them (at
    /// most `arity − 1` passes; none for the identity). A pass is a counting sort
    /// over `value − min` when the column's range is narrower than 64 × rows, and a
    /// stable sort on the column otherwise; both are stable, so the order is the
    /// same either way. Cost: O(passes × (rows + span)), or O(rows × log rows) for
    /// a pass over a wide column.
    pub fn sorted_row_order(&self, perm: &[usize]) -> Vec<u32> {
        assert_permutation(perm, self.arity);
        let mut order: Vec<u32> = (0..self.len as u32).collect();
        let m = (1..perm.len()).rev().find(|&d| perm[d - 1] > perm[d]).unwrap_or(0);
        for &col in perm[..m].iter().rev() {
            self.stable_pass(col, &mut order);
        }
        order
    }

    /// Stably reorders `order` by the value of column `col`: a counting sort over
    /// the offsets `value − lo` for a narrow column, else a stable sort on the value.
    fn stable_pass(&self, col: usize, order: &mut [u32]) {
        let value = |i: u32| self.values[i as usize * self.arity + col];
        let Some((lo, span)) = self.narrow_range(col) else {
            order.sort_by_key(|&i| value(i));
            return;
        };
        // `next[k]` is the output slot of the next row whose offset is `k`.
        let mut next = vec![0u32; span + 2];
        for &i in order.iter() {
            next[(value(i) - lo) as usize + 1] += 1;
        }
        for k in 1..next.len() {
            next[k] += next[k - 1];
        }
        let unsorted = order.to_vec();
        for &i in &unsorted {
            let slot = &mut next[(value(i) - lo) as usize];
            order[*slot as usize] = i;
            *slot += 1;
        }
    }

    /// Returns a new relation with the columns permuted by `perm` (`perm[i]` is the
    /// source column of output column `i`), re-sorted for the new column order.
    ///
    /// The index builds do **not** use this (see [`Relation::sorted_row_order`], which
    /// orders the rows here too); the delta layers of
    /// [`TrieIndex::with_edits`](crate::trie::TrieIndex::with_edits) do.
    pub fn permute(&self, perm: &[usize]) -> Relation {
        let order = self.sorted_row_order(perm);
        let mut values = Vec::with_capacity(self.values.len());
        for &i in &order {
            let r = self.row(i as usize);
            values.extend(perm.iter().map(|&c| r[c]));
        }
        // Distinct rows stay distinct under a full column permutation, and `order`
        // already sorted them, so no normalization pass is needed.
        Self::from_parts(self.arity, values, self.max_value)
    }

    /// Iterates over the rows as zero-copy slices.
    pub fn iter(&self) -> impl Iterator<Item = &[Val]> {
        self.values.chunks_exact(self.arity)
    }

    /// Returns a new relation with `ins` rows added and `del` rows removed, i.e.
    /// exactly `(self ∪ ins) \ del` (deletes win over simultaneous inserts of the
    /// same row; inserting an existing row or deleting an absent one is a no-op).
    ///
    /// The edit rows are walked in sorted order; each costs one binary search for
    /// its position in `self`, and the base rows between two consecutive edit rows
    /// are copied as one slice. So the cost is one `memcpy` of the relation plus
    /// O(edits × log len) comparisons.
    ///
    /// This is the *eager* half of incremental maintenance: the relation catalog is
    /// updated immediately (so baseline engines that read rows directly stay
    /// consistent), while the trie indexes absorb the same edits as delta layers
    /// ([`TrieIndex::with_edits`](crate::trie::TrieIndex::with_edits)) instead of
    /// being rebuilt.
    pub fn with_edits(&self, ins: &Relation, del: &Relation) -> Relation {
        assert_eq!(ins.arity(), self.arity, "insert batch arity mismatch");
        assert_eq!(del.arity(), self.arity, "delete batch arity mismatch");
        let arity = self.arity;
        let mut values = Vec::with_capacity(self.values.len() + ins.values.len());
        // `i` is the first base row not yet copied; `removed_max` records whether a
        // removed base row held the cached maximum, which forces a rescan.
        let (mut i, mut a, mut d) = (0usize, 0usize, 0usize);
        let mut inserted_max: Option<Val> = None;
        let mut removed_max = false;
        while a < ins.len || d < del.len {
            // The next edit row in sorted order; a row in both batches is a delete.
            let (row, is_insert) = match (a < ins.len, d < del.len) {
                (true, true) => match ins.row(a).cmp(del.row(d)) {
                    Ordering::Less => (ins.row(a), true),
                    Ordering::Greater => (del.row(d), false),
                    Ordering::Equal => {
                        a += 1;
                        (del.row(d), false)
                    }
                },
                (true, false) => (ins.row(a), true),
                _ => (del.row(d), false),
            };
            if is_insert {
                a += 1;
            } else {
                d += 1;
            }
            let (pos, found) = self.lower_bound(i, row);
            values.extend_from_slice(&self.values[i * arity..pos * arity]);
            i = if found { pos + 1 } else { pos };
            if is_insert {
                values.extend_from_slice(row);
                inserted_max = inserted_max.max(row.iter().copied().max());
            } else if found {
                removed_max |= row.iter().any(|&v| Some(v) == self.max_value);
            }
        }
        values.extend_from_slice(&self.values[i * arity..]);
        let max_value = if removed_max {
            values.iter().copied().max()
        } else {
            self.max_value.max(inserted_max)
        };
        Self::from_parts(arity, values, max_value)
    }

    /// The first row index `>= from` whose row is not less than `row`, and whether
    /// that row equals `row`.
    fn lower_bound(&self, from: usize, row: &[Val]) -> (usize, bool) {
        let (mut lo, mut hi) = (from, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid) < row {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, lo < self.len && self.row(lo) == row)
    }
}

/// Asserts that `perm` is a permutation of `0..arity`. Both [`Relation::permute`]
/// and the zero-materialization index build rely on full permutations keeping
/// distinct rows distinct, so a duplicate column must fail loudly here rather than
/// silently produce a relation with duplicate rows.
fn assert_permutation(perm: &[usize], arity: usize) {
    assert_eq!(perm.len(), arity, "permutation length must equal the arity");
    let mut seen = vec![false; arity];
    for &p in perm {
        assert!(p < arity && !seen[p], "perm must be a permutation of 0..{arity}: {perm:?}");
        seen[p] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must be a permutation")]
    fn permute_rejects_duplicate_columns() {
        Relation::from_pairs(vec![(1, 2), (1, 3)]).permute(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn zero_arity_rejected() {
        Relation::from_flat(0, Vec::new());
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let r = Relation::from_rows(2, vec![vec![3, 1], vec![1, 2], vec![3, 1], vec![1, 1]]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_rows(), vec![vec![1, 1], vec![1, 2], vec![3, 1]]);
        assert_eq!(r.flat_values(), &[1, 1, 1, 2, 3, 1]);
    }

    #[test]
    fn contains_uses_set_semantics() {
        let r = Relation::from_pairs(vec![(1, 2), (2, 3), (1, 2)]);
        assert!(r.contains(&[1, 2]));
        assert!(r.contains(&[2, 3]));
        assert!(!r.contains(&[2, 1]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn permute_reorders_columns() {
        let r = Relation::from_pairs(vec![(1, 10), (2, 5)]);
        let p = r.permute(&[1, 0]);
        assert_eq!(p.to_rows(), vec![vec![5, 2], vec![10, 1]]);
    }

    #[test]
    fn unary_relation_from_values() {
        let r = Relation::from_values(vec![5, 1, 5, 3]);
        assert_eq!(r.to_rows(), vec![vec![1], vec![3], vec![5]]);
    }

    #[test]
    fn rows_are_zero_copy_slices_into_the_flat_buffer() {
        let r = Relation::from_rows(3, vec![vec![4, 5, 6], vec![1, 2, 3]]);
        assert_eq!(r.row(0), &[1, 2, 3]);
        assert_eq!(r.row(1), &[4, 5, 6]);
        let collected: Vec<&[Val]> = r.iter().collect();
        assert_eq!(collected, vec![&[1, 2, 3][..], &[4, 5, 6][..]]);
        // Row slices alias the single flat buffer.
        let base = r.flat_values().as_ptr();
        // SAFETY: the relation holds 2 rows × 3 columns = 6 values in one flat
        // allocation, so base + 3 is in bounds of that same allocation.
        assert_eq!(r.row(1).as_ptr(), unsafe { base.add(3) });
    }

    #[test]
    fn sorted_row_order_identity_is_a_no_op() {
        let r = Relation::from_pairs(vec![(2, 1), (1, 2), (1, 1)]);
        assert_eq!(r.sorted_row_order(&[0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn sorted_row_order_sorts_the_projected_rows() {
        // Column 2 spans 2·10⁹ over 5 rows, so `[2, 0, 1]` takes the stable-sort
        // pass and `[1, 0, 2]` the counting pass; `[0, 2, 1]` takes one of each.
        let r = Relation::from_rows(
            3,
            vec![
                vec![5, 1, 4],
                vec![5, 1, 7],
                vec![7, 4, 6],
                vec![7, 9, 8],
                vec![10, 4, -2_000_000_000],
            ],
        );
        for perm in [[2usize, 0, 1], [1, 0, 2], [0, 2, 1]] {
            let project = |row: &[Val]| perm.iter().map(|&c| row[c]).collect::<Vec<Val>>();
            let via_order: Vec<Vec<Val>> =
                r.sorted_row_order(&perm).iter().map(|&i| project(r.row(i as usize))).collect();
            let mut expected: Vec<Vec<Val>> = r.iter().map(project).collect();
            expected.sort();
            assert_eq!(via_order, expected, "perm {perm:?}");
        }
    }

    #[test]
    fn max_value_is_cached_and_correct() {
        assert_eq!(Relation::empty(2).max_value(), None);
        assert_eq!(Relation::from_pairs(vec![(3, 9), (12, 0)]).max_value(), Some(12));
        assert_eq!(Relation::from_values(vec![-5, -2]).max_value(), Some(-2));
    }

    #[test]
    fn column_distinct_counts_each_column() {
        // Column 1 spans 104 values over 4 rows (a two-word bitset); column 2
        // spans 2·10⁹ (sort fallback).
        let r = Relation::from_rows(
            3,
            vec![vec![1, -100, 0], vec![1, 3, 2_000_000_000], vec![2, -100, 0], vec![5, 0, 7]],
        );
        assert_eq!((0..3).map(|c| r.column_distinct(c)).collect::<Vec<_>>(), vec![3, 3, 3]);
        assert_eq!(Relation::empty(2).column_distinct(1), 0);
        // Computed statistics do not take part in equality.
        assert_eq!(r, Relation::from_flat(3, r.flat_values().to_vec()));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        Relation::from_rows(2, vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_values_rejected() {
        Relation::from_rows(1, vec![vec![crate::value::POS_INF]]);
    }

    #[test]
    #[should_panic(expected = "multiple of arity")]
    fn ragged_flat_buffer_rejected() {
        Relation::from_flat(2, vec![1, 2, 3]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(3);
        assert!(r.is_empty());
        assert_eq!(r.arity(), 3);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn with_edits_merges_inserts_and_deletes() {
        let r = Relation::from_pairs(vec![(1, 2), (2, 3), (5, 5)]);
        let ins = Relation::from_pairs(vec![(0, 9), (2, 3), (7, 1)]);
        let del = Relation::from_pairs(vec![(5, 5), (8, 8)]);
        let out = r.with_edits(&ins, &del);
        assert_eq!(out.to_rows(), vec![vec![0, 9], vec![1, 2], vec![2, 3], vec![7, 1]]);
        assert_eq!(out.max_value(), Some(9));
        // Empty edit batches are the identity.
        let same = r.with_edits(&Relation::empty(2), &Relation::empty(2));
        assert_eq!(same, r);
    }

    #[test]
    fn with_edits_delete_wins_over_simultaneous_insert() {
        let r = Relation::from_pairs(vec![(1, 1)]);
        let ins = Relation::from_pairs(vec![(2, 2)]);
        let del = Relation::from_pairs(vec![(2, 2)]);
        assert_eq!(r.with_edits(&ins, &del).to_rows(), vec![vec![1, 1]]);
    }

    #[test]
    fn with_edits_can_empty_a_relation() {
        let r = Relation::from_values(vec![1, 2]);
        let out = r.with_edits(&Relation::empty(1), &Relation::from_values(vec![1, 2]));
        assert!(out.is_empty());
        assert_eq!(out.max_value(), None);
    }
}
