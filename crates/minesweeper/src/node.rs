//! CDS nodes and their point lists (Idea 1 of the paper).
//!
//! Every CDS node stores, for the attribute one past its depth:
//!
//! * a set of **disjoint open intervals** — the gaps known to contain no output tuple
//!   under this node's pattern (overlapping intervals are merged on insertion, and
//!   children whose labels fall strictly inside a newly inserted interval are pruned);
//! * the node's **children**: one per equality label plus at most one wildcard child;
//! * the **free points** discovered so far and the completeness bookkeeping of
//!   Idea 6 (a complete last-level node also answers Idea 8's run counts).
//!
//! The paper fuses intervals, children and free values into a single sorted
//! `pointList`. We keep them apart and provide every operation of the paper's
//! pointList (`Next`, `hasNoFreeValue`, child pruning, complete-node iteration).
//! Intervals and free points are sorted vectors. The equality children take
//! whichever of two layouts costs fewer bytes: a sorted list of `(label, id)`
//! pairs, or — when the labels are dense in their span, as under the wildcard
//! nodes that hold one child per node id — a table with one slot per label of
//! the span, addressed by `label - min`. With `k` intervals, `c` children and `f`
//! free points:
//!
//! * `next` is one binary search, O(log k); `child` is one subtraction on a
//!   table and one binary search, O(log c), on a list; `next_free_point` answers
//!   an `x` at or below the first free point (the first walk under a fresh
//!   prefix asks from `-1`) with that point and bisects otherwise, O(log f);
//! * `insert_interval` binary-searches the run of stored intervals it overlaps and
//!   the free points it rules out, then drains each range in place: O(log k +
//!   log f) comparisons plus the shift of each vector's tail. A list drops the
//!   children it rules out the same way; a table empties their slots, O(span
//!   covered), and returns to the list layout when what is left is no longer
//!   dense. The shift is a `memmove`; a balanced tree, as in the paper, would
//!   avoid it at the price of a pointer chase per step of every search.
//!
//! A free point never lies inside its own node's intervals: `insert_interval`
//! drops the ones a new interval covers, and a free point is only recorded outside
//! every interval of the chain it was found in.

use gj_storage::{Val, NEG_INF, POS_INF};

/// Identifier of a node inside the [`Cds`](crate::cds::Cds) arena.
pub type NodeId = usize;

/// One node of the constraint data structure.
#[derive(Debug, Clone, Default)]
pub struct Node {
    /// Disjoint open intervals, sorted by lower end. Values strictly inside any of
    /// them are ruled out for every tuple matching this node's pattern.
    intervals: Vec<(Val, Val)>,
    /// Children reached by an equality label.
    children: Children,
    /// The wildcard (`˚`) child, if any.
    wildcard_child: Option<NodeId>,
    /// Free values discovered while this node was the bottom of the chain (sorted).
    free_points: Vec<Val>,
    /// How many times the free-value scan wrapped past `+∞` at this node (Idea 6).
    wraps: u8,
    /// Whether the node is complete: its `free_points` enumerate every value that can
    /// still be free under its pattern (Idea 6).
    complete: bool,
    /// Raised by every change to `intervals` or `free_points` ([`Node::version`]).
    version: u64,
}

impl Node {
    /// Creates an empty node.
    pub fn new() -> Self {
        Node::default()
    }

    /// Empties the node for arena reuse, keeping every vector's capacity — the
    /// allocation-batching half of the reusable CDS (`Cds::reset`): a worker that
    /// processes many morsels re-populates recycled nodes instead of allocating
    /// fresh point lists per job.
    pub fn clear(&mut self) {
        self.intervals.clear();
        self.children.clear();
        self.wildcard_child = None;
        self.free_points.clear();
        self.wraps = 0;
        self.complete = false;
        self.version = 0;
    }

    // ----- intervals -------------------------------------------------------------

    /// The stored disjoint open intervals (sorted).
    pub fn intervals(&self) -> &[(Val, Val)] {
        &self.intervals
    }

    /// Whether the node has at least one interval (i.e. participates in `G_depth`).
    pub fn has_intervals(&self) -> bool {
        !self.intervals.is_empty()
    }

    /// Inserts the open interval `(low, high)`, merging it with every overlapping
    /// stored interval, and removes children whose labels fall strictly inside the
    /// merged interval.
    ///
    /// Degenerate intervals (`high <= low`) are ignored; intervals with an empty
    /// integer interior such as `(9, 10)` are kept, as in the paper's point lists.
    pub fn insert_interval(&mut self, low: Val, high: Val) {
        if high <= low {
            return;
        }
        self.version += 1;
        // Stored intervals are disjoint and sorted, so their upper ends are sorted
        // too and the ones overlapping (strictly, on the real line) the new one
        // form the run `first..end`. Touching intervals like (1,5) and (5,9) stay
        // separate because the shared endpoint 5 itself is still free.
        let first = self.intervals.partition_point(|&(_, h)| h <= low);
        let end = self.intervals.partition_point(|&(l, _)| l < high);
        let (new_low, new_high) = if first < end {
            let merged = (low.min(self.intervals[first].0), high.max(self.intervals[end - 1].1));
            self.intervals[first] = merged;
            self.intervals.drain(first + 1..end);
            merged
        } else {
            self.intervals.insert(first, (low, high));
            (low, high)
        };

        // Prune children strictly inside the merged interval (their whole branch is
        // subsumed by the gap).
        self.children.prune(new_low, new_high);
        // Free points strictly inside the interval are no longer free.
        let lo = self.free_points.partition_point(|&v| v <= new_low);
        let hi = self.free_points.partition_point(|&v| v < new_high);
        self.free_points.drain(lo..hi);
    }

    /// `Next(x)`: the smallest value `y >= x` not strictly inside any stored interval.
    pub fn next(&self, x: Val) -> Val {
        // Find the interval with the greatest lower end <= x (candidates are sorted).
        let idx = self.intervals.partition_point(|&(l, _)| l < x);
        if idx > 0 {
            let (l, h) = self.intervals[idx - 1];
            if l < x && x < h {
                return h;
            }
        }
        x
    }

    /// `hasNoFreeValue()`: whether every value from `-1` upwards is covered, i.e.
    /// `Next(-1) == +∞` (the paper's domains are the naturals; the frontier starts at
    /// `-1`).
    pub fn has_no_free_value(&self) -> bool {
        self.next(-1) == POS_INF
    }

    // ----- children --------------------------------------------------------------

    /// The equality-labelled children as `(label, id)`, in label order.
    pub fn children(&self) -> impl Iterator<Item = (Val, NodeId)> + '_ {
        self.children.iter()
    }

    /// Whether the children are held in the label-indexed table (module docs).
    pub fn is_label_indexed(&self) -> bool {
        !self.children.table.is_empty()
    }

    /// The wildcard child, if any.
    pub fn wildcard_child(&self) -> Option<NodeId> {
        self.wildcard_child
    }

    /// Looks up the child with equality label `v`.
    #[inline]
    pub fn child(&self, v: Val) -> Option<NodeId> {
        self.children.get(v)
    }

    /// Registers `id` as the child with equality label `v` (caller creates the node).
    /// The label must not be covered by an existing interval and must not already
    /// have a child.
    pub fn set_child(&mut self, v: Val, id: NodeId) {
        debug_assert!(self.child(v).is_none(), "child {v} already exists");
        self.children.insert(v, id);
    }

    /// Registers `id` as the wildcard child.
    pub fn set_wildcard_child(&mut self, id: NodeId) {
        debug_assert!(self.wildcard_child.is_none(), "wildcard child already exists");
        self.wildcard_child = Some(id);
    }

    // ----- free points and completeness (Ideas 6 and 8) --------------------------

    /// Records that `v` was found free while this node was the bottom of the chain.
    pub fn add_free_point(&mut self, v: Val) {
        if v == NEG_INF || v == POS_INF {
            return;
        }
        if let Err(i) = self.free_points.binary_search(&v) {
            self.free_points.insert(i, v);
            self.version += 1;
        }
    }

    /// The recorded free points (sorted).
    pub fn free_points(&self) -> &[Val] {
        &self.free_points
    }

    /// The recorded free points in `[lo, hi)` (sorted).
    pub fn free_points_in(&self, lo: Val, hi: Val) -> &[Val] {
        let start = self.free_points.partition_point(|&v| v < lo);
        let end = self.free_points.partition_point(|&v| v < hi);
        &self.free_points[start..end.max(start)]
    }

    /// The smallest recorded free point `>= x`, or `POS_INF` if none. Used when the
    /// node is complete (Idea 6). No free point lies inside the node's own
    /// intervals (module docs), so the first one `>= x` is the answer.
    pub fn next_free_point(&self, x: Val) -> Val {
        let at = match self.free_points.first() {
            Some(&first) if x <= first => 0,
            _ => self.free_points.partition_point(|&v| v < x),
        };
        let Some(&v) = self.free_points.get(at) else {
            return POS_INF;
        };
        debug_assert_eq!(self.next(v), v, "free point {v} inside its node's intervals");
        v
    }

    /// Records a wrap past `+∞` (Idea 6); the node becomes complete on the second
    /// wrap. Returns whether the node is now complete.
    pub fn record_wrap(&mut self) -> bool {
        self.wraps = self.wraps.saturating_add(1);
        if self.wraps >= 2 {
            self.complete = true;
        }
        self.complete
    }

    /// Whether the node is complete (Idea 6).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// A count that every [`insert_interval`](Self::insert_interval) and every new
    /// free point raises: while it stands, whatever was computed from the node's
    /// intervals and free points still holds.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// A table slot that holds no child: an arena index no node can have.
const VACANT: NodeId = NodeId::MAX;

/// A node's equality-labelled children, in the layout that costs fewer bytes
/// (module docs). Both vectors keep their capacity through [`clear`](Self::clear)
/// and layout changes, so a recycled node reuses them.
#[derive(Debug, Clone, Default)]
struct Children {
    /// The children sorted by label; empty while the table is in use.
    list: Vec<(Val, NodeId)>,
    /// Slot `v - min` holds the child labelled `v`, or [`VACANT`]; empty in the list
    /// layout. It spans labels that occur, so `min + len - 1` does not overflow.
    table: Vec<NodeId>,
    /// The label of slot 0.
    min: Val,
    /// The table's occupied slots.
    count: usize,
}

/// Whether a table of the labels `lo..=hi` costs no more bytes than the sorted
/// list of its `count` children.
fn dense(lo: Val, hi: Val, count: usize) -> bool {
    let span = u128::from(hi.abs_diff(lo)) + 1;
    span * size_of::<NodeId>() as u128 <= count as u128 * size_of::<(Val, NodeId)>() as u128
}

impl Children {
    fn clear(&mut self) {
        self.list.clear();
        self.table.clear();
        self.count = 0;
    }

    #[inline]
    fn get(&self, v: Val) -> Option<NodeId> {
        if self.table.is_empty() {
            let i = self.list.binary_search_by_key(&v, |&(label, _)| label).ok()?;
            return Some(self.list[i].1);
        }
        let slot = usize::try_from(v.checked_sub(self.min)?).ok()?;
        self.table.get(slot).copied().filter(|&id| id != VACANT)
    }

    /// Adds the child `id` labelled `v`, which has none yet, switching to the
    /// table when the labels with `v` are dense and to the list when they are not.
    fn insert(&mut self, v: Val, id: NodeId) {
        debug_assert!(id != VACANT, "node id {id} marks a vacant slot");
        if self.table.is_empty() {
            let (lo, hi) = match (self.list.first(), self.list.last()) {
                (Some(&(first, _)), Some(&(last, _))) => (first.min(v), last.max(v)),
                _ => (v, v),
            };
            if !dense(lo, hi, self.list.len() + 1) {
                let pos = self.list.partition_point(|&(label, _)| label < v);
                self.list.insert(pos, (v, id));
                return;
            }
            self.switch_to_table(lo, hi);
        } else {
            let last = self.min + (self.table.len() - 1) as Val;
            if !dense(self.min.min(v), last.max(v), self.count + 1) {
                self.switch_to_list();
                return self.insert(v, id);
            }
            if v < self.min {
                let (len, grow) = (self.table.len(), v.abs_diff(self.min) as usize);
                self.table.resize(len + grow, VACANT);
                self.table.copy_within(0..len, grow);
                self.table[..grow].fill(VACANT);
                self.min = v;
            } else if v > last {
                self.table.resize(v.abs_diff(self.min) as usize + 1, VACANT);
            }
        }
        self.table[v.abs_diff(self.min) as usize] = id;
        self.count += 1;
    }

    /// Removes the children labelled strictly between `low` and `high`.
    fn prune(&mut self, low: Val, high: Val) {
        if self.table.is_empty() {
            let lo = self.list.partition_point(|&(label, _)| label <= low);
            let hi = self.list.partition_point(|&(label, _)| label < high);
            self.list.drain(lo..hi);
            return;
        }
        // Slot `i` holds label `min + i`, strictly inside when `low - min < i < high - min`.
        let len = self.table.len() as u64;
        let from = if low < self.min { 0 } else { low.abs_diff(self.min).saturating_add(1) };
        let to = if high <= self.min { 0 } else { high.abs_diff(self.min) };
        let (from, to) = (from.min(len) as usize, to.min(len) as usize);
        if from >= to {
            return;
        }
        for slot in &mut self.table[from..to] {
            if *slot != VACANT {
                *slot = VACANT;
                self.count -= 1;
            }
        }
        let last = self.min + (self.table.len() - 1) as Val;
        if !dense(self.min, last, self.count) {
            self.switch_to_list();
        }
    }

    /// Moves the list's children into a table of the labels `lo..=hi`.
    fn switch_to_table(&mut self, lo: Val, hi: Val) {
        self.table.resize(hi.abs_diff(lo) as usize + 1, VACANT);
        for &(label, id) in &self.list {
            self.table[label.abs_diff(lo) as usize] = id;
        }
        (self.min, self.count) = (lo, self.list.len());
        self.list.clear();
    }

    /// Moves the table's children into the list.
    fn switch_to_list(&mut self) {
        let min = self.min;
        let occupied = self.table.iter().enumerate().filter(|&(_, &id)| id != VACANT);
        self.list.extend(occupied.map(|(i, &id)| (min + i as Val, id)));
        self.table.clear();
        self.count = 0;
    }

    /// The children as `(label, id)`, in label order.
    fn iter(&self) -> impl Iterator<Item = (Val, NodeId)> + '_ {
        let occupied = self.table.iter().enumerate().filter(|&(_, &id)| id != VACANT);
        let table = occupied.map(|(i, &id)| (self.min + i as Val, id));
        self.list.iter().copied().chain(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_overlapping_intervals() {
        let mut n = Node::new();
        n.insert_interval(1, 10);
        n.insert_interval(5, 12);
        assert_eq!(n.intervals(), &[(1, 12)]);
        n.insert_interval(3, 7); // contained
        assert_eq!(n.intervals(), &[(1, 12)]);
    }

    #[test]
    fn touching_intervals_stay_separate() {
        // (1,10) and (10,20): 10 itself is free, exactly the paper's point-list example.
        let mut n = Node::new();
        n.insert_interval(1, 10);
        n.insert_interval(10, 20);
        assert_eq!(n.intervals(), &[(1, 10), (10, 20)]);
        assert_eq!(n.next(5), 10);
        assert_eq!(n.next(10), 10);
        assert_eq!(n.next(11), 20);
    }

    #[test]
    fn degenerate_intervals_are_ignored_but_empty_interiors_are_kept() {
        let mut n = Node::new();
        n.insert_interval(5, 5);
        n.insert_interval(6, 4);
        assert!(n.intervals().is_empty());
        // (3, 4) has no integer inside but is a legal open interval (Figure 2 keeps
        // (9, 10) in the point list); next() is unaffected.
        n.insert_interval(3, 4);
        assert_eq!(n.intervals(), &[(3, 4)]);
        assert_eq!(n.next(3), 3);
        assert_eq!(n.next(4), 4);
    }

    #[test]
    fn next_outside_any_interval_is_identity() {
        let mut n = Node::new();
        n.insert_interval(5, 9);
        assert_eq!(n.next(3), 3);
        assert_eq!(n.next(5), 5);
        assert_eq!(n.next(6), 9);
        assert_eq!(n.next(9), 9);
        assert_eq!(n.next(20), 20);
    }

    #[test]
    fn has_no_free_value_requires_total_coverage() {
        let mut n = Node::new();
        n.insert_interval(NEG_INF, 50);
        assert!(!n.has_no_free_value());
        n.insert_interval(49, POS_INF);
        assert_eq!(n.intervals(), &[(NEG_INF, POS_INF)]);
        assert!(n.has_no_free_value());
    }

    #[test]
    fn coverage_with_touching_endpoint_is_not_total() {
        let mut n = Node::new();
        n.insert_interval(NEG_INF, 5);
        n.insert_interval(5, POS_INF);
        assert!(!n.has_no_free_value()); // 5 is still free
        assert_eq!(n.next(-1), 5);
    }

    #[test]
    fn inserting_interval_prunes_children_inside() {
        let mut n = Node::new();
        n.set_child(3, 30);
        n.set_child(7, 70);
        n.set_child(10, 100);
        n.insert_interval(5, 10);
        assert_eq!(n.children().collect::<Vec<_>>(), [(3, 30), (10, 100)]);
        assert_eq!(n.child(3), Some(30));
        assert_eq!(n.child(7), None);
        assert_eq!(n.child(10), Some(100)); // 10 is the open end, not inside
    }

    #[test]
    fn children_lookup_is_by_label() {
        let mut n = Node::new();
        n.set_child(8, 1);
        n.set_child(2, 2);
        assert_eq!(n.child(2), Some(2));
        assert_eq!(n.child(8), Some(1));
        assert_eq!(n.child(5), None);
        assert_eq!(n.children().collect::<Vec<_>>(), [(2, 2), (8, 1)]);
        n.set_wildcard_child(9);
        assert_eq!(n.wildcard_child(), Some(9));
    }

    #[test]
    fn free_points_track_values_and_completeness() {
        let mut n = Node::new();
        n.add_free_point(9);
        n.add_free_point(4);
        n.add_free_point(4);
        assert_eq!(n.free_points(), &[4, 9]);
        assert_eq!(n.free_points_in(4, 9), &[4]);
        assert_eq!(n.free_points_in(5, POS_INF), &[9]);
        assert_eq!(n.free_points_in(9, 4), &[] as &[Val]);
        assert_eq!(n.next_free_point(0), 4);
        assert_eq!(n.next_free_point(5), 9);
        assert_eq!(n.next_free_point(10), POS_INF);
        assert!(!n.is_complete());
        assert!(!n.record_wrap());
        assert!(n.record_wrap());
        assert!(n.is_complete());
    }

    #[test]
    fn free_points_inside_new_intervals_are_dropped() {
        let mut n = Node::new();
        n.add_free_point(4);
        n.add_free_point(9);
        n.insert_interval(3, 8);
        assert_eq!(n.free_points(), &[9]);
        assert_eq!(n.next_free_point(0), 9);
    }

    /// The point-list semantics spelled out on plain vectors: merge every
    /// interval that overlaps the new one, keep the list sorted, and drop the
    /// children and free points strictly inside the merged interval.
    #[derive(Default)]
    struct Model {
        intervals: Vec<(Val, Val)>,
        children: Vec<(Val, NodeId)>,
        free_points: Vec<Val>,
    }

    impl Model {
        fn insert_interval(&mut self, low: Val, high: Val) {
            if high <= low {
                return;
            }
            let (mut low, mut high) = (low, high);
            for &(l, h) in &self.intervals {
                if l < high && low < h {
                    (low, high) = (low.min(l), high.max(h));
                }
            }
            self.intervals.retain(|&(l, h)| !(l < high && low < h));
            self.intervals.push((low, high));
            self.intervals.sort_unstable();
            self.children.retain(|&(v, _)| !(low < v && v < high));
            self.free_points.retain(|&v| !(low < v && v < high));
        }

        fn child(&self, v: Val) -> Option<NodeId> {
            self.children.iter().find(|&&(label, _)| label == v).map(|&(_, id)| id)
        }
    }

    /// Random point-list updates, each followed by a comparison with the model:
    /// the intervals (and a raised `version` when they or the free points
    /// changed), the children (by iteration and by `child` for every label
    /// around the data, around the table's ends and at the extremes of `Val`) and
    /// `next_free_point` below, at and above the first free point. Labels sit near
    /// 0, below 0, or next to either end of `Val`; one in ten lands far out, so
    /// nodes cross the layout rule both ways. Returns the switches seen:
    /// list → table, table → list on an insert, table → list on a pruning.
    fn point_list_run(seed: u64, base: Val) -> [u32; 3] {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut node, mut model) = (Node::new(), Model::default());
        let mut switches = [0; 3];
        for op in 0..40 {
            let width = if rng.gen_bool(0.1) { 400 } else { 60 };
            let v = base.saturating_add(rng.gen_range(0..width));
            let indexed = node.is_label_indexed();
            let (version, intervals, free_points) =
                (node.version(), node.intervals().to_vec(), node.free_points().to_vec());
            let pruning = match rng.gen_range(0..4) {
                0 if node.next(v) == v && node.child(v).is_none() => {
                    node.set_child(v, op);
                    model.children.push((v, op));
                    model.children.sort_unstable();
                    false
                }
                1 if node.next(v) == v => {
                    node.add_free_point(v);
                    if !model.free_points.contains(&v) {
                        model.free_points.push(v);
                        model.free_points.sort_unstable();
                    }
                    false
                }
                _ => {
                    let low = if rng.gen_bool(0.1) {
                        NEG_INF
                    } else {
                        v.saturating_sub(rng.gen_range(0..4))
                    };
                    let high = if rng.gen_bool(0.1) {
                        POS_INF
                    } else {
                        v.saturating_add(rng.gen_range(0..6))
                    };
                    node.insert_interval(low, high);
                    model.insert_interval(low, high);
                    true
                }
            };
            match (indexed, node.is_label_indexed()) {
                (false, true) => switches[0] += 1,
                (true, false) if pruning => switches[2] += 1,
                (true, false) => switches[1] += 1,
                _ => {}
            }

            assert_eq!(node.intervals(), model.intervals.as_slice(), "seed {seed}");
            if (node.intervals(), node.free_points()) != (&intervals[..], &free_points[..]) {
                assert!(node.version() > version, "seed {seed}: a change kept version {version}");
            }
            assert_eq!(node.children().collect::<Vec<_>>(), model.children, "seed {seed}");
            let table = &node.children;
            let table_ends = if node.is_label_indexed() {
                let end = table.min.saturating_add(table.table.len() as Val);
                vec![table.min.saturating_sub(1), table.min, end - 1, end]
            } else {
                Vec::new()
            };
            let around = (-3..64).map(|i| base.saturating_add(i));
            let children = model
                .children
                .iter()
                .flat_map(|&(l, _)| [l.saturating_sub(1), l, l.saturating_add(1)]);
            let extremes = [NEG_INF, NEG_INF + 1, -1, 0, 1, POS_INF - 1, POS_INF];
            for label in around.chain(children).chain(table_ends).chain(extremes) {
                assert_eq!(node.child(label), model.child(label), "seed {seed}: label {label}");
            }
            assert_eq!(node.free_points(), model.free_points.as_slice(), "seed {seed}");
            let first = model.free_points.first().copied();
            let probes = first.map_or(vec![], |p| vec![p - 1, p, p + 1]);
            for x in probes.into_iter().chain([NEG_INF, -1, v, base.saturating_add(30), POS_INF]) {
                let expected = model.free_points.iter().copied().find(|&p| p >= x);
                assert_eq!(
                    node.next_free_point(x),
                    expected.unwrap_or(POS_INF),
                    "seed {seed}: x {x}"
                );
            }
        }
        switches
    }

    #[test]
    fn point_list_updates_match_the_model() {
        let mut switches = [0; 3];
        for seed in 0..200 {
            for base in [0, -200, NEG_INF + 1, POS_INF - 400] {
                let run = point_list_run(seed, base);
                switches.iter_mut().zip(run).for_each(|(total, n)| *total += n);
            }
        }
        let [to_table, to_list_on_insert, to_list_on_pruning] = switches;
        assert!(to_table > 0, "no list became a table");
        assert!(to_list_on_insert > 0, "no insert turned a table back into a list");
        assert!(to_list_on_pruning > 0, "no pruning turned a table back into a list");
    }

    #[test]
    fn sentinel_free_points_are_ignored() {
        let mut n = Node::new();
        n.add_free_point(POS_INF);
        n.add_free_point(NEG_INF);
        assert!(n.free_points().is_empty());
    }
}
