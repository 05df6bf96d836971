//! Unary leapfrog intersection and its seek kernel.
//!
//! The heart of LeapFrog TrieJoin: given `k` trie iterators positioned at the same
//! trie level, enumerate the intersection of their (sorted) value lists by repeatedly
//! seeking the iterator with the smallest key to the current maximum key — each miss
//! "leapfrogs" over a swath of values that cannot participate in the join.
//!
//! `seek` is the kernel of the executor's loop, which runs it on its own slice
//! cursors over open trie levels ([`executor`](crate::executor)): it gallops
//! forward from the position, then binary-searches. [`LeapfrogJoin`], the classic
//! presentation over an iterator vector, seeks through [`TrieIterator::seek`],
//! which gallops the same way.

use gj_storage::{TrieIterator, Val};

/// The first position `>= pos` of the sorted `values` holding a value `>= v`, or
/// `values.len()`. Gallops in doubling steps, then binary-searches the bracket, so
/// a jump of `d` positions costs `O(log d)`.
#[inline]
pub(crate) fn seek(values: &[Val], pos: usize, v: Val) -> usize {
    if values.get(pos).is_none_or(|&x| x >= v) {
        return pos;
    }
    // Invariant: values[lo] < v; the answer lies in lo + 1 ..= hi.
    let (mut lo, mut hi, mut step) = (pos, pos + 1, 1);
    while hi < values.len() && values[hi] < v {
        lo = hi;
        step *= 2;
        hi = (lo + step).min(values.len());
    }
    lo + 1 + values[lo + 1..hi].partition_point(|&x| x < v)
}

/// Leapfrog intersection state over a subset of the executor's trie iterators.
#[derive(Debug, Clone)]
pub struct LeapfrogJoin {
    /// Indices (into the executor's iterator vector) of the participating atoms,
    /// reordered by key during `init`.
    participants: Vec<usize>,
    /// Cached current key of each participant (parallel to `participants`), so the
    /// search loop touches the trie level arrays only when an iterator actually
    /// moves, never to re-read a key it already knows.
    keys: Vec<Val>,
    /// Rotation pointer: the participant currently holding the smallest key.
    p: usize,
    /// Whether the intersection is exhausted.
    at_end: bool,
    /// The key of the current match (valid when `!at_end` after a successful search).
    key: Val,
}

impl LeapfrogJoin {
    /// Creates a leapfrog join over the given participant iterator indices. A
    /// join over no iterator is exhausted from [`init`](Self::init) on.
    pub fn new(participants: Vec<usize>) -> Self {
        let keys = vec![0; participants.len()];
        LeapfrogJoin { participants, keys, p: 0, at_end: false, key: 0 }
    }

    /// The participating iterator indices (in current rotation order).
    pub fn participants(&self) -> &[usize] {
        &self.participants
    }

    /// Whether the intersection is exhausted.
    pub fn at_end(&self) -> bool {
        self.at_end
    }

    /// The current match value. Only meaningful when `!at_end()`.
    pub fn key(&self) -> Val {
        self.key
    }

    /// Branch-free-wrap successor of a rotation position (`% k` costs a hardware
    /// divide on every rotation step; the compare compiles to a conditional move).
    #[inline]
    fn rotate(p: usize, k: usize) -> usize {
        if p + 1 == k {
            0
        } else {
            p + 1
        }
    }

    /// `leapfrog-init`: to be called when every participating iterator has just been
    /// opened at this level. Establishes the rotation order and finds the first match.
    pub fn init(&mut self, iters: &mut [TrieIterator<'_>]) {
        if self.participants.is_empty() || self.participants.iter().any(|&i| iters[i].at_end()) {
            self.at_end = true;
            return;
        }
        self.at_end = false;
        self.participants.sort_by_key(|&i| iters[i].key());
        self.keys.clear();
        self.keys.extend(self.participants.iter().map(|&i| iters[i].key()));
        self.p = 0;
        self.search(iters);
    }

    /// `leapfrog-search`: advances iterators until all participants agree on a key
    /// (a match) or one of them is exhausted. Keys move only forward, so the cached
    /// key of the participant before `p` is the current maximum — no re-read of the
    /// max key after a `seek` is ever needed.
    pub fn search(&mut self, iters: &mut [TrieIterator<'_>]) {
        let k = self.participants.len();
        let mut max_key = self.keys[if self.p == 0 { k - 1 } else { self.p - 1 }];
        loop {
            let cur = self.keys[self.p];
            if cur == max_key {
                self.key = cur;
                return;
            }
            let idx = self.participants[self.p];
            iters[idx].seek(max_key);
            if iters[idx].at_end() {
                self.at_end = true;
                return;
            }
            max_key = iters[idx].key();
            self.keys[self.p] = max_key;
            self.p = Self::rotate(self.p, k);
        }
    }

    /// `leapfrog-next`: moves past the current match to the next one. An
    /// exhausted join stays exhausted.
    pub fn next(&mut self, iters: &mut [TrieIterator<'_>]) {
        if self.at_end {
            return;
        }
        let idx = self.participants[self.p];
        iters[idx].next();
        if iters[idx].at_end() {
            self.at_end = true;
        } else {
            self.keys[self.p] = iters[idx].key();
            self.p = Self::rotate(self.p, self.participants.len());
            self.search(iters);
        }
    }

    /// `leapfrog-seek`: moves to the first match with key `>= v`. An exhausted
    /// join stays exhausted.
    pub fn seek(&mut self, v: Val, iters: &mut [TrieIterator<'_>]) {
        if self.at_end || self.key >= v {
            return;
        }
        let idx = self.participants[self.p];
        iters[idx].seek(v);
        if iters[idx].at_end() {
            self.at_end = true;
        } else {
            self.keys[self.p] = iters[idx].key();
            self.p = Self::rotate(self.p, self.participants.len());
            self.search(iters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_storage::{Relation, TrieIndex};

    /// Opens level 0 of each index and collects the full leapfrog intersection.
    fn intersect(lists: &[&[Val]]) -> Vec<Val> {
        let indexes: Vec<TrieIndex> = lists
            .iter()
            .map(|vs| TrieIndex::build_natural(&Relation::from_values(vs.to_vec())))
            .collect();
        let mut iters: Vec<TrieIterator> = indexes.iter().map(TrieIndex::iter).collect();
        for it in &mut iters {
            it.open();
        }
        let mut lf = LeapfrogJoin::new((0..iters.len()).collect());
        lf.init(&mut iters);
        let mut out = Vec::new();
        while !lf.at_end() {
            out.push(lf.key());
            lf.next(&mut iters);
        }
        out
    }

    /// The kernel's contract, stated as a linear scan.
    fn reference_seek(values: &[Val], pos: usize, v: Val) -> usize {
        (pos..values.len()).find(|&i| values[i] >= v).unwrap_or(values.len())
    }

    #[test]
    fn seek_below_the_position_stays_put() {
        let values: &[Val] = &[1, 3, 5, 7];
        assert_eq!(seek(values, 2, 2), 2);
        assert_eq!(seek(values, 2, 5), 2);
        assert_eq!(seek(values, 0, Val::MIN), 0);
    }

    #[test]
    fn seek_past_the_end_exhausts() {
        let values: &[Val] = &[1, 3, 5, 7];
        assert_eq!(seek(values, 0, 8), 4);
        assert_eq!(seek(values, 3, 100), 4);
        assert_eq!(seek(values, 4, 0), 4, "an exhausted cursor stays exhausted");
        assert_eq!(seek(&[], 0, 1), 0);
    }

    #[test]
    fn seek_finds_the_last_element() {
        let values: &[Val] = &[1, 3, 5, 7];
        assert_eq!(seek(values, 0, 7), 3);
        assert_eq!(seek(values, 0, 6), 3);
        assert_eq!(seek(values, 3, 7), 3);
    }

    #[test]
    fn seek_agrees_with_a_scan_over_long_gallops() {
        let values: Vec<Val> = (0..5_000).map(|x| 3 * x + x % 2).collect();
        for pos in [0, 1, 7, 100, 2_500, 4_998, 4_999, 5_000] {
            for v in [-1, 0, 2, 31, 32, 4_000, 14_997, 14_998, 14_999, 15_000, 20_000] {
                assert_eq!(
                    seek(&values, pos, v),
                    reference_seek(&values, pos, v),
                    "pos {pos} v {v}"
                );
            }
        }
    }

    #[test]
    fn a_join_over_a_delta_carrying_index_reads_its_fold() {
        let solid = TrieIndex::build_natural(&Relation::from_values(vec![1, 2, 4, 6, 8]));
        let base = TrieIndex::build_natural(&Relation::from_values(vec![2, 3, 6, 7]));
        let edited =
            base.with_edits(&Relation::from_values(vec![8]), &Relation::from_values(vec![6]));
        let mut iters = vec![solid.iter(), edited.iter()];
        for it in &mut iters {
            it.open();
        }
        let mut lf = LeapfrogJoin::new(vec![0, 1]);
        lf.init(&mut iters);
        let mut out = Vec::new();
        while !lf.at_end() {
            out.push(lf.key());
            lf.next(&mut iters);
        }
        assert_eq!(out, vec![2, 8], "6 is tombstoned, 8 is inserted");
    }

    #[test]
    fn intersection_of_the_classic_example() {
        // The example from Veldhuizen's paper.
        let a: &[Val] = &[0, 1, 3, 4, 5, 6, 7, 8, 9, 11];
        let b: &[Val] = &[0, 2, 6, 7, 8, 9];
        let c: &[Val] = &[2, 4, 5, 8, 10];
        assert_eq!(intersect(&[a, b, c]), vec![8]);
    }

    #[test]
    fn a_join_over_no_iterator_is_exhausted() {
        assert_eq!(intersect(&[]), Vec::<Val>::new());
    }

    #[test]
    fn an_exhausted_join_stays_exhausted() {
        let index = TrieIndex::build_natural(&Relation::from_values(vec![1, 4]));
        let mut iters = vec![index.iter()];
        iters[0].open();
        let mut lf = LeapfrogJoin::new(vec![0]);
        lf.init(&mut iters);
        lf.seek(5, &mut iters);
        assert!(lf.at_end());
        lf.next(&mut iters);
        lf.seek(9, &mut iters);
        assert!(lf.at_end(), "next/seek past the end keep the join exhausted");
    }

    #[test]
    fn disjoint_lists_intersect_empty() {
        assert_eq!(intersect(&[&[1, 3, 5], &[2, 4, 6]]), Vec::<Val>::new());
    }

    #[test]
    fn identical_lists_intersect_to_themselves() {
        assert_eq!(intersect(&[&[1, 5, 9], &[1, 5, 9]]), vec![1, 5, 9]);
    }

    #[test]
    fn single_iterator_is_identity() {
        assert_eq!(intersect(&[&[2, 4, 8]]), vec![2, 4, 8]);
    }

    #[test]
    fn empty_input_list_gives_empty_intersection() {
        assert_eq!(intersect(&[&[1, 2, 3], &[]]), Vec::<Val>::new());
    }

    #[test]
    fn seek_skips_ahead_within_intersection() {
        let lists: Vec<&[Val]> = vec![&[1, 2, 3, 4, 5, 6, 7, 8], &[2, 4, 6, 8]];
        let indexes: Vec<TrieIndex> = lists
            .iter()
            .map(|vs| TrieIndex::build_natural(&Relation::from_values(vs.to_vec())))
            .collect();
        let mut iters: Vec<TrieIterator> = indexes.iter().map(TrieIndex::iter).collect();
        for it in &mut iters {
            it.open();
        }
        let mut lf = LeapfrogJoin::new(vec![0, 1]);
        lf.init(&mut iters);
        assert_eq!(lf.key(), 2);
        lf.seek(5, &mut iters);
        assert_eq!(lf.key(), 6);
        lf.seek(9, &mut iters);
        assert!(lf.at_end());
    }

    #[test]
    fn three_way_intersection_agrees_with_reference() {
        let a: Vec<Val> = (0..200).filter(|x| x % 2 == 0).collect();
        let b: Vec<Val> = (0..200).filter(|x| x % 3 == 0).collect();
        let c: Vec<Val> = (0..200).filter(|x| x % 5 == 0).collect();
        let expected: Vec<Val> = (0..200).filter(|x| x % 30 == 0).collect();
        assert_eq!(intersect(&[&a, &b, &c]), expected);
    }
}
