//! The constraint data structure (CDS) — Sections 4.3, 4.4 and 4.7 of the paper.
//!
//! The CDS is a tree with one level per GAO attribute. A node is identified by the
//! labels on the path from the root (its *pattern*: equality values or wildcards) and
//! stores the open intervals of the constraints whose pattern is that path, plus the
//! bookkeeping of Ideas 5 and 6 (cached intervals, discovered free values,
//! completeness).
//!
//! Its two operations are exactly the paper's:
//!
//! * [`Cds::insert_constraint`] — add a gap box;
//! * [`Cds::compute_free_tuple`] — find the lexicographically smallest tuple `≥` the
//!   current frontier that is not covered by any stored gap box, walking the levels
//!   with `getFreeValue` (Algorithm 5), backtracking and truncating (Algorithm 6) as
//!   needed.
//!
//! A third, [`Cds::complete_run_len`], is Idea 8's count: how many outputs share the
//! first `n - 1` values of the free tuple just returned, read off a complete
//! last-level node instead of enumerated, and kept by that node until its range or
//! chain changes.
//!
//! Three deliberate deviations from the pseudocode:
//!
//! * **Eager tail reset.** Whenever the frontier value at a level is bumped during
//!   backtracking, the deeper frontier components are reset to `-1` immediately (the
//!   paper resets them lazily at the next descent, which as written can leave a stale
//!   suffix and skip tuples; resetting eagerly is always sound because it only lowers
//!   the frontier tail).
//! * **Conflict-directed backjumping when caching is off.** Algorithm 6 (`truncate`)
//!   walks from the exhausted bottom node to its first equality edge, which is only
//!   available in chain mode. Without caching, the pseudocode's fallback is
//!   chronological: bump position `d - 1` by one and re-scan level `d`. When no
//!   pattern that covers level `d` mentions position `d - 1`, that re-scan dies again
//!   for every value up to `domain_max` — O(domain × gaps) per dead prefix. Instead,
//!   when level `d` is exhausted, let `j` be the deepest position `< d` at which the
//!   root path of *any* chain node (a node with intervals that generalises the
//!   prefix) carries an equality label. Every chain pattern is a wildcard on
//!   `j+1..d`, so **if the chain covers the whole level** every tuple that agrees
//!   with the frontier on `0..=j` lies in one of its gap boxes, whatever it holds on
//!   `j+1..d`: position `j` is bumped, the tail reset, and the walk resumes at `j`
//!   (no equality edge at all means the space is exhausted). "Whole level" matters:
//!   values below the frontier value the scan started from were skipped for *this*
//!   prefix only and may be free under a later value of `j+1..d`, so a scan that
//!   started above `-1` is re-run from `-1` first, and a free value found there
//!   falls back to the chronological bump. With `j == d - 1` the jump *is* the
//!   chronological bump. Caching mode does not need any of this: there the cached
//!   interval makes the bottom node itself cover the level and `truncate` rules the
//!   branch out at its first equality edge. The jump learns nothing (no constraint
//!   is inserted), so node and constraint counts are those of the chronological
//!   walk.
//! * **Walk resumption.** Algorithm 4 walks from the root on every call. Here a
//!   call starts at `resume`, the shallowest level whose frontier value, active set
//!   or chain intervals may have changed since the last walk: [`Cds::set_frontier`]
//!   lowers it to the first position that changes, [`Cds::insert_constraint`] to the
//!   constraint's interval position, or to `i` when it created a node at pattern
//!   index `i` (that node may join the active set level `i` computes), and
//!   [`Cds::reset`] to 0. A walk that returns sets it to the level it returned from,
//!   which covers Algorithm 4's early return: the levels below it were not walked,
//!   so their active sets are stale. This is sound because a level whose prefix and
//!   nodes did not change returns its frontier value again (`y == x`): the value
//!   was free when the walk left it, so the level caches no interval, truncates
//!   nothing, records no new free point and computes the same next active set.
//!   Truncations, backjumps and cached intervals all happen *inside* a walk, which
//!   re-descends from where they struck. So every outcome and counter equals the
//!   restart-from-root walk's, except `free_tuple_steps` and `complete_node_hits`,
//!   which count the skipped re-checks.

use crate::constraint::{Constraint, PatternComp};
use crate::node::{Node, NodeId};
use gj_runtime::Counters;
use gj_storage::{Val, POS_INF};

/// The constraint data structure.
#[derive(Debug, Clone)]
pub struct Cds {
    /// Number of GAO attributes (tree depth).
    n: usize,
    /// Node arena; index 0 is the root. Only the first `live` entries are part of
    /// the current tree — [`Cds::reset`] rewinds `live` instead of deallocating, so
    /// a reused CDS recycles node storage across runs.
    nodes: Vec<Node>,
    /// Number of arena entries in use by the current tree.
    live: usize,
    /// Parent link and incoming edge label of each node (`None` label = wildcard
    /// edge). The root's entry is unused.
    parents: Vec<(NodeId, Option<Val>)>,
    /// Per node: the last run [`Cds::complete_run_len`] counted with it as the
    /// bottom node.
    run_memos: Vec<RunMemo>,
    /// The moving frontier (Idea 2).
    frontier: Vec<Val>,
    /// Whether `getFreeValue` may cache intervals into the bottom node (Idea 5).
    /// Sound only when the constraint-inserting atoms form a β-acyclic skeleton and
    /// the GAO is one of its nested elimination orders — the engine decides.
    caching: bool,
    /// Whether complete nodes short-circuit the chain walk (Idea 6; requires caching).
    complete_nodes: bool,
    /// Largest value that can appear in any output tuple (the maximum data value).
    /// Free values beyond it are treated as exhausted, which keeps every level's
    /// search bounded even when no constraint caps it yet.
    domain_max: Val,
    /// Per-depth active sets of the walk in progress: the CDS nodes whose pattern
    /// generalises the frontier prefix, with their specificity (number of equality
    /// edges), most specific first. Owned so that a call refills them in place;
    /// `active[0]` is always the root alone.
    active: Vec<Vec<(NodeId, u32)>>,
    /// Scratch: the chain (active nodes that constrain the level, with their
    /// specificity, bottom node first) of the level last scanned.
    chain: Vec<(NodeId, u32)>,
    /// The level the next [`compute_free_tuple`](Self::compute_free_tuple) walk
    /// starts at: the shallowest level whose frontier value, active set or chain
    /// intervals may have changed since the last walk (see the module docs, "walk
    /// resumption"). `active[..=resume]` is valid for the current frontier.
    resume: usize,
    /// The counters the CDS keeps about its own operation (for the ablation
    /// tables): `constraints_inserted`, `cached_intervals`, `truncations`,
    /// `complete_node_hits`, `free_tuple_steps` (turns of
    /// [`Cds::compute_free_tuple`]'s level loop — per free tuple O(depth + gaps
    /// crossed)) and `backjumps` (exhausted levels left by a conflict-directed
    /// backjump; non-caching mode, see the module docs). Every other field stays 0.
    pub stats: Counters,
}

/// The run [`Cds::complete_run_len`] counted from one bottom node, with what it
/// was counted from: the range of last values and the chain, each node with its
/// [`version`](Node::version) at the time.
#[derive(Debug, Clone, Default, PartialEq)]
struct RunMemo {
    from: Val,
    upper: Val,
    /// The chain, bottom node first; empty when nothing is memoised.
    chain: Vec<(NodeId, u64)>,
    run: u64,
}

/// Result of a `getFreeValue` call.
struct FreeValue {
    /// The value found (may be `POS_INF` when backtracking).
    value: Val,
    /// Whether the caller must backtrack.
    backtracked: bool,
    /// The depth to continue at (only meaningful when `backtracked`); `-1` means the
    /// whole output space is exhausted.
    resume_depth: isize,
}

impl Cds {
    /// Creates an empty CDS over `n` GAO attributes, with the frontier at
    /// `(-1, …, -1)`.
    pub fn new(n: usize, caching: bool, complete_nodes: bool) -> Self {
        // gj-lint: allow(no-panic-in-engines) — a CDS over zero attributes has no frontier; query validation rejects a query without atoms, so every bound query has a variable
        assert!(n > 0, "a query needs at least one variable");
        let mut active = vec![Vec::new(); n];
        active[0].push((0, 0));
        Cds {
            n,
            nodes: vec![Node::new()],
            live: 1,
            parents: vec![(0, None)],
            run_memos: vec![RunMemo::default()],
            frontier: vec![-1; n],
            caching,
            complete_nodes: complete_nodes && caching,
            domain_max: POS_INF,
            active,
            chain: Vec::new(),
            resume: 0,
            stats: Counters::default(),
        }
    }

    /// Bounds the search to values `<= domain_max` (the largest data value): anything
    /// beyond it cannot belong to an output tuple, so a level whose next free value
    /// exceeds the bound is treated as exhausted. The engine always sets this; the
    /// default is unbounded.
    pub fn with_domain_max(mut self, domain_max: Val) -> Self {
        self.domain_max = domain_max;
        self
    }

    /// The current frontier.
    pub fn frontier(&self) -> &[Val] {
        &self.frontier
    }

    /// Replaces the frontier. The new frontier must be lexicographically `>=` the old
    /// one (the CDS never moves backwards). The next walk resumes no deeper than the
    /// first position that changes.
    pub fn set_frontier(&mut self, frontier: &[Val]) {
        debug_assert!(
            frontier >= self.frontier.as_slice(),
            "frontier may only move forward: {:?} -> {frontier:?}",
            self.frontier
        );
        if let Some(p) = self.frontier.iter().zip(frontier).position(|(a, b)| a != b) {
            self.resume = self.resume.min(p);
        }
        self.frontier.copy_from_slice(frontier);
    }

    /// Read access to a node (for tests and diagnostics).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes in the current tree (including pruned/detached ones).
    pub fn num_nodes(&self) -> usize {
        self.live
    }

    /// Rewinds the CDS to its initial state — frontier at `(-1, …, -1)`, no
    /// constraints, zeroed statistics — while keeping the node arena allocated.
    /// `domain_max` and the caching/completeness configuration are preserved. This
    /// is what lets one executor serve every morsel a worker claims without paying
    /// a fresh CDS allocation per job.
    pub fn reset(&mut self) {
        self.nodes[0].clear();
        self.run_memos[0].chain.clear();
        self.live = 1;
        self.frontier.iter_mut().for_each(|v| *v = -1);
        self.resume = 0;
        self.stats = Counters::default();
    }

    /// Makes the next walk start at the root, as if nothing were known about the
    /// previous one: the reference the walk resumption is tested against.
    #[cfg(test)]
    fn restart_from_root(&mut self) {
        self.resume = 0;
    }

    /// Finds the node with exactly this pattern, if it exists.
    pub fn find_node(&self, pattern: &[PatternComp]) -> Option<NodeId> {
        let mut cur = 0;
        for comp in pattern {
            cur = match comp {
                PatternComp::Wildcard => self.nodes[cur].wildcard_child()?,
                PatternComp::Eq(v) => self.nodes[cur].child(*v)?,
            };
        }
        Some(cur)
    }

    fn new_node(&mut self, parent: NodeId, label: Option<Val>) -> NodeId {
        let id = self.live;
        if id < self.nodes.len() {
            // Recycle an arena slot left over from before the last reset.
            self.nodes[id].clear();
            self.parents[id] = (parent, label);
            self.run_memos[id].chain.clear();
        } else {
            self.nodes.push(Node::new());
            self.parents.push((parent, label));
            self.run_memos.push(RunMemo::default());
        }
        self.live = id + 1;
        id
    }

    /// `InsConstraint(c)`: walks (creating as needed) the node with the constraint's
    /// pattern and inserts the interval there. The next walk resumes no deeper than
    /// the level whose chain gained the interval, or the level whose descent
    /// reaches the first node created.
    pub fn insert_constraint(&mut self, c: &Constraint) {
        debug_assert!(c.interval_pos() < self.n, "constraint interval beyond the last attribute");
        let mut cur = 0;
        // A node created at depth `i + 1` may join the active set level `i` computes.
        for (i, comp) in c.pattern.iter().enumerate() {
            cur = match comp {
                PatternComp::Wildcard => match self.nodes[cur].wildcard_child() {
                    Some(w) => w,
                    None => {
                        self.resume = self.resume.min(i);
                        let id = self.new_node(cur, None);
                        self.nodes[cur].set_wildcard_child(id);
                        id
                    }
                },
                PatternComp::Eq(v) => match self.nodes[cur].child(*v) {
                    Some(ch) => ch,
                    None => {
                        self.resume = self.resume.min(i);
                        let id = self.new_node(cur, Some(*v));
                        self.nodes[cur].set_child(*v, id);
                        id
                    }
                },
            };
        }
        self.nodes[cur].insert_interval(c.interval.0, c.interval.1);
        self.resume = self.resume.min(c.interval_pos());
        self.stats.constraints_inserted += 1;
    }

    /// `computeFreeTuple()`: advances the frontier to the lexicographically smallest
    /// tuple `≥` the current frontier that is not covered by any stored constraint,
    /// returning `false` when no such tuple exists (the space is exhausted).
    ///
    /// Following Algorithm 4, the walk may return early as soon as no CDS node
    /// generalises the current prefix at the next level (in which case no deeper
    /// constraint can apply either); the returned tuple is then still a sound
    /// candidate because every value skipped so far was inside a stored
    /// (output-free) gap box.
    ///
    /// The walk starts at the `resume` level rather than the root: every level above
    /// it would return its frontier value unchanged (module docs, "walk
    /// resumption").
    pub fn compute_free_tuple(&mut self) -> bool {
        let mut depth = self.resume as isize;

        loop {
            if depth < 0 {
                self.resume = 0;
                return false;
            }
            self.stats.free_tuple_steps += 1;
            let d = depth as usize;
            let x = self.frontier[d];
            let fv = self.get_free_value(x, d);
            if fv.backtracked {
                depth = fv.resume_depth;
                continue;
            }
            self.frontier[d] = fv.value;
            if fv.value > x {
                self.frontier[d + 1..].fill(-1);
            }
            if d + 1 == self.n {
                self.resume = d;
                return true;
            }

            // Compute the next active set: children reached by the chosen label (one
            // more equality edge) or by a wildcard edge, most specific first. Both
            // lists inherit the parents' order, so one stable merge sorts them; on
            // equal specificity the wildcard child goes first, since its parent is
            // the more specific one.
            let label = fv.value;
            let (upto, below) = self.active.split_at_mut(d + 1);
            let next = &mut below[0];
            next.clear();
            let nodes = &self.nodes;
            let mut equal = upto[d]
                .iter()
                .filter_map(|&(id, spec)| Some((nodes[id].child(label)?, spec + 1)))
                .peekable();
            let mut wildcard = upto[d]
                .iter()
                .filter_map(|&(id, spec)| Some((nodes[id].wildcard_child()?, spec)))
                .peekable();
            loop {
                let take = match (equal.peek(), wildcard.peek()) {
                    (Some(&(_, e)), Some(&(_, w))) if e > w => equal.next(),
                    (_, Some(_)) => wildcard.next(),
                    (Some(_), None) => equal.next(),
                    (None, None) => break,
                };
                next.extend(take);
            }
            if next.is_empty() {
                // Algorithm 4, line 13–16: no CDS node generalises the prefix at the
                // next level, hence none exists at any deeper level either (paths are
                // connected), so the current frontier completion is already free.
                // The deeper frontier components are left untouched: resetting them
                // here could move the frontier backwards past an already-reported
                // output, whereas keeping them is always sound. The next walk
                // resumes here too, never below: `active[d + 1]` is empty, and
                // the levels under it were not walked.
                self.resume = d;
                return true;
            }
            depth += 1;
        }
    }

    /// Idea 8: the length of the *run* of the free tuple the last walk returned —
    /// the tuples that share its first `n - 1` values and whose last value lies in
    /// `[frontier[n - 1], upper)` — when that tuple is a verified output and the
    /// walk's last-level bottom node can answer for the run. `None` means "take a
    /// normal one-output iteration".
    ///
    /// The bottom node answers when it is complete (Idea 6) and its pattern pins
    /// `pins` positions by equality, where `pins` counts the earlier positions that
    /// the atoms containing the last attribute mention. Every last-level node's
    /// pattern is the equality prefix of one such atom, so then the bottom node pins
    /// all of them, and whether a value `y` extends the prefix depends on those
    /// pinned values alone. Each free point `y` was probed (under some prefix
    /// agreeing on them) when the node recorded it; a failing atom then inserted a
    /// gap around `y` into a node that generalises the current prefix, i.e. a chain
    /// node. Hence the free points outside every chain node's intervals are exactly
    /// the run, and completeness says no output lies outside the free points. A
    /// less specific bottom node (say `<*, *, *>` of a 3-path before `<*, *, c>`
    /// exists) lists values that some unpinned atom may still reject.
    ///
    /// Valid only right after a [`compute_free_tuple`](Self::compute_free_tuple)
    /// that returned `true` at level `n - 1`, before any constraint is inserted or
    /// the frontier moves; returns `None` otherwise. The caller's escape past the
    /// run leaves completeness sound: it skips values at the last level only under
    /// this (already complete) bottom node, exactly as its wrap would.
    ///
    /// The run depends on the bottom node's free points, the rest of the chain's
    /// intervals and the range alone, so the bottom node keeps its last answer and
    /// gives it again while the range, the chain and every chain node's
    /// [`version`](Node::version) are the same.
    pub fn complete_run_len(&mut self, pins: u32, upper: Val) -> Option<u64> {
        let last = self.n - 1;
        if !self.complete_nodes || self.resume != last {
            return None;
        }
        // The walk returned from level `last`, so the chain is that level's.
        let (&(bottom, spec), above) = self.chain.split_first()?;
        if spec != pins || !self.nodes[bottom].is_complete() {
            return None;
        }
        let (from, nodes, memo) = (self.frontier[last], &self.nodes, &mut self.run_memos[bottom]);
        let unchanged = (memo.from, memo.upper) == (from, upper)
            && memo.chain.len() == self.chain.len()
            && memo.chain.iter().zip(&self.chain).all(|(&(id, version), &(chain_id, _))| {
                id == chain_id && nodes[id].version() == version
            });
        if !unchanged {
            // The bottom node's free points lie outside its own intervals, and
            // active nodes outside the chain have none: only the rest of the chain
            // can rule a point out.
            let run = nodes[bottom]
                .free_points_in(from, upper)
                .iter()
                .filter(|&&y| above.iter().all(|&(id, _)| nodes[id].next(y) == y))
                .count();
            (memo.from, memo.upper, memo.run) = (from, upper, run as u64);
            memo.chain.clear();
            memo.chain.extend(self.chain.iter().map(|&(id, _)| (id, nodes[id].version())));
        }
        Some(memo.run)
    }

    /// `getFreeValue(x, G)` (Algorithm 5): the smallest value `>= x` not covered by
    /// any interval of the nodes in the chain for depth `d`, caching the scan into
    /// the bottom node (Idea 5), answering from complete nodes (Idea 6), and
    /// triggering backtracking / truncation / backjumping when the level is
    /// exhausted.
    fn get_free_value(&mut self, x: Val, d: usize) -> FreeValue {
        self.chain.clear();
        for &(id, spec) in &self.active[d] {
            if self.nodes[id].has_intervals() || self.nodes[id].is_complete() {
                self.chain.push((id, spec));
            }
        }
        let Some(&(bottom, _)) = self.chain.first() else {
            if x > self.domain_max {
                return self.backtrack_bump(d);
            }
            return FreeValue { value: x, backtracked: false, resume_depth: d as isize };
        };

        // Idea 6: a complete bottom node already knows every value that can be free.
        if self.complete_nodes && self.nodes[bottom].is_complete() {
            self.stats.complete_node_hits += 1;
            let mut y = self.nodes[bottom].next_free_point(x);
            if y > self.domain_max {
                y = POS_INF;
            }
            if y == POS_INF {
                return self.backtrack_bump(d);
            }
            return FreeValue { value: y, backtracked: false, resume_depth: d as isize };
        }

        let y = self.chain_fixpoint(x);

        if self.caching {
            if y > x {
                self.nodes[bottom].insert_interval(x - 1, y);
                self.stats.cached_intervals += 1;
            }
            if y < POS_INF {
                self.nodes[bottom].add_free_point(y);
            }
            // A finite `y` stays free in the bottom node (the cached interval ends
            // at it), so only an exhausted scan can have covered the level.
            if y == POS_INF && self.nodes[bottom].has_no_free_value() {
                let resume_depth = self.truncate(bottom, d);
                return FreeValue { value: y, backtracked: true, resume_depth };
            }
        }

        if y == POS_INF {
            if self.complete_nodes {
                self.nodes[bottom].record_wrap();
            }
            if !self.caching {
                return self.backjump(x, d);
            }
            return self.backtrack_bump(d);
        }
        FreeValue { value: y, backtracked: false, resume_depth: d as isize }
    }

    /// Ping-pongs `x` across the current chain to a fixpoint: the smallest value
    /// `>= x` outside every chain interval. Values beyond the largest data value
    /// cannot be outputs and are reported as `POS_INF` (exhausted), so unconstrained
    /// levels still terminate.
    ///
    /// The chain is walked round robin until as many consecutive nodes as it has
    /// leave `y` where it is. A node that moves `y` counts as the first of them: `next` is
    /// idempotent, so a one-node chain takes a single call.
    fn chain_fixpoint(&self, x: Val) -> Val {
        let mut y = x;
        let mut settled = 0;
        for &(id, _) in self.chain.iter().cycle() {
            if settled == self.chain.len() || y == POS_INF {
                break;
            }
            let moved = self.nodes[id].next(y);
            settled = if moved == y { settled + 1 } else { 1 };
            y = moved;
        }
        if y > self.domain_max {
            POS_INF
        } else {
            y
        }
    }

    /// Leaves level `d`, found exhausted from `x` upwards by the current chain, in
    /// non-caching mode (the module docs carry the soundness argument): jumps to the
    /// deepest position any chain pattern pins by equality when the chain covers the
    /// whole level, and falls back to [`backtrack_bump`](Self::backtrack_bump) when
    /// that position is `d - 1` anyway or a value below `x` is still free.
    fn backjump(&mut self, x: Val, d: usize) -> FreeValue {
        let mut meet: Option<usize> = None;
        for &(id, _) in &self.chain {
            let mut cur = id;
            for pos in (0..d).rev() {
                let (parent, label) = self.parents[cur];
                if label.is_some() {
                    meet = meet.max(Some(pos));
                    break;
                }
                cur = parent;
            }
        }
        if d == 0 || meet == Some(d - 1) || (x > -1 && self.chain_fixpoint(-1) != POS_INF) {
            return self.backtrack_bump(d);
        }
        self.stats.backjumps += 1;
        let resume_depth = match meet {
            Some(j) => {
                self.frontier[j] += 1;
                self.frontier[j + 1..].fill(-1);
                j as isize
            }
            None => -1,
        };
        FreeValue { value: POS_INF, backtracked: true, resume_depth }
    }

    /// Backtracking when a level has no free value `>=` its frontier value: move to
    /// the previous attribute, bump its frontier value, and reset the deeper ones.
    fn backtrack_bump(&mut self, d: usize) -> FreeValue {
        if d >= 1 {
            self.frontier[d - 1] += 1;
            self.frontier[d..].fill(-1);
        }
        FreeValue { value: POS_INF, backtracked: true, resume_depth: d as isize - 1 }
    }

    /// `truncate(u)` (Algorithm 6): walks from `u` towards the root; at the first
    /// equality edge it rules that single value out at the parent and stops.
    /// Returns the depth at which the walk stopped (`-1` means the root was passed,
    /// i.e. the whole space is exhausted).
    fn truncate(&mut self, u: NodeId, d: usize) -> isize {
        self.stats.truncations += 1;
        let mut depth = d as isize;
        let mut cur = u;
        loop {
            depth -= 1;
            if depth < 0 {
                return depth;
            }
            let (parent, label) = self.parents[cur];
            match label {
                Some(x) => {
                    self.nodes[parent].insert_interval(x - 1, x + 1);
                    return depth;
                }
                None => cur = parent,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::PatternComp::{Eq, Wildcard};
    use gj_storage::NEG_INF;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn c(pattern: Vec<PatternComp>, interval: (Val, Val)) -> Constraint {
        Constraint::new(pattern, interval)
    }

    /// Drives a CDS that resumes its walks and a twin forced back to the root before
    /// every walk through one seeded, engine-like script: each free tuple gets up to
    /// two gap boxes around it, then the frontier moves to its successor or jumps at
    /// a random position. Returns the resumed CDS's statistics, the restarted twin's,
    /// and how many walks returned early (Algorithm 4's empty next active set).
    fn resumed_and_restarted_walks(seed: u64, caching: bool) -> (Counters, Counters, u32) {
        let n = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut resumed = Cds::new(n, caching, caching).with_domain_max(24);
        let mut restarted = resumed.clone();
        let mut early_returns = 0;
        for _ in 0..5_000 {
            restarted.restart_from_root();
            let more = resumed.compute_free_tuple();
            assert_eq!(restarted.compute_free_tuple(), more, "seed {seed}");
            assert_eq!(resumed.frontier(), restarted.frontier(), "seed {seed}");
            assert_eq!(resumed.num_nodes(), restarted.num_nodes(), "seed {seed}");
            let (a, b) = (resumed.stats, restarted.stats);
            assert_eq!(a.constraints_inserted, b.constraints_inserted, "seed {seed}");
            assert_eq!(a.cached_intervals, b.cached_intervals, "seed {seed}");
            assert_eq!(a.truncations, b.truncations, "seed {seed}");
            assert_eq!(a.backjumps, b.backjumps, "seed {seed}");
            if !more {
                break;
            }
            early_returns += u32::from(resumed.resume + 1 < n);
            let t = resumed.frontier().to_vec();
            for _ in 0..rng.gen_range(0..3) {
                let pos = rng.gen_range(0..n);
                let pattern: Vec<PatternComp> = t[..pos]
                    .iter()
                    .map(|&v| if rng.gen_bool(0.5) { Eq(v) } else { Wildcard })
                    .collect();
                let low =
                    if rng.gen_bool(0.2) { NEG_INF } else { t[pos] - 1 - rng.gen_range(0..4) };
                let high =
                    if rng.gen_bool(0.2) { POS_INF } else { t[pos] + 1 + rng.gen_range(0..4) };
                let gap = c(pattern, (low, high));
                resumed.insert_constraint(&gap);
                restarted.insert_constraint(&gap);
            }
            // The successor, or a jump at a random position that may land one past
            // the largest value, as the engine's escapes and successors can.
            let mut next = t;
            let p = if rng.gen_bool(0.8) { n - 1 } else { rng.gen_range(0..n) };
            next[p] = (next[p] + 1).max(rng.gen_range(0..26));
            next[p + 1..].fill(-1);
            resumed.set_frontier(&next);
            restarted.set_frontier(&next);
        }
        (resumed.stats, restarted.stats, early_returns)
    }

    #[test]
    fn resumed_walks_match_walks_restarted_from_the_root() {
        for caching in [true, false] {
            let mut totals = [0u64; 5];
            for seed in 0..20 {
                let (resumed, restarted, early_returns) =
                    resumed_and_restarted_walks(seed, caching);
                assert!(resumed.free_tuple_steps <= restarted.free_tuple_steps);
                assert!(resumed.complete_node_hits <= restarted.complete_node_hits);
                totals[0] += u64::from(early_returns);
                totals[1] += resumed.truncations;
                totals[2] += resumed.backjumps;
                totals[3] += resumed.free_tuple_steps;
                totals[4] += restarted.free_tuple_steps;
            }
            let [early_returns, truncations, backjumps, steps, restarted_steps] = totals;
            // The script must reach every way a walk ends or leaves a level.
            assert!(early_returns > 0, "caching {caching}: no early return");
            if caching {
                assert!(truncations > 0, "no truncation");
            } else {
                assert!(backjumps > 0, "no backjump");
            }
            assert!(steps < restarted_steps, "caching {caching}: resumption saved nothing");
        }
    }

    /// The open interval around `v` that a sorted list leaves free of values, or
    /// `None` when `v` is in the list.
    fn gap_around(list: &[Val], v: Val) -> Option<(Val, Val)> {
        let i = list.partition_point(|&x| x < v);
        if list.get(i) == Some(&v) {
            return None;
        }
        let low = if i == 0 { NEG_INF } else { list[i - 1] };
        Some((low, list.get(i).copied().unwrap_or(POS_INF)))
    }

    /// Drives the engine's loop by hand over `R(a), T(b, c), S(c)` in GAO order
    /// `a, b, c` (random data, so the atoms containing `c` pin `b` only): every
    /// output asks [`Cds::complete_run_len`] for its run, and a counted run must
    /// equal the run listed from the data and the run a twin with no memoised
    /// runs counts. A sparse `S` lets `S`'s node `<*, *>` complete under a `b`
    /// whose `T(b, ·)` holds all of `S`; counting from it under another `b` would
    /// over-count. Returns the runs counted at once and how many of them the
    /// bottom node's memo answered.
    fn runs_counted_from_complete_nodes(seed: u64) -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r: Vec<Val> = (0..6).filter(|_| rng.gen_bool(0.8)).collect();
        let t_rows: Vec<(Val, Val)> = (0..6)
            .flat_map(|b| (0..12).map(move |c| (b, c)))
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let s: Vec<Val> = (0..12).filter(|_| rng.gen_bool(0.25)).collect();
        let t_bs: Vec<Val> = {
            let mut bs: Vec<Val> = t_rows.iter().map(|&(b, _)| b).collect();
            bs.dedup();
            bs
        };
        let t_cs = |b: Val| -> Vec<Val> {
            t_rows.iter().filter(|&&(tb, _)| tb == b).map(|&(_, c)| c).collect()
        };
        let run_in_data = |b: Val, from: Val| {
            t_cs(b).into_iter().filter(|c| *c >= from && s.contains(c)).count() as u64
        };

        let mut cds = Cds::new(3, true, true).with_domain_max(12);
        let (mut outputs, mut batched, mut memo_hits) = (0, 0, 0);
        while cds.compute_free_tuple() {
            let t = cds.frontier().to_vec();
            let (a, b, v) = (t[0], t[1], t[2]);
            let mut gaps = Vec::new();
            if let Some(gap) = gap_around(&r, a) {
                gaps.push(c(vec![], gap));
            }
            if let Some(gap) = gap_around(&t_bs, b) {
                gaps.push(c(vec![Wildcard], gap));
            } else if let Some(gap) = gap_around(&t_cs(b), v) {
                gaps.push(c(vec![Wildcard, Eq(b)], gap));
            }
            if let Some(gap) = gap_around(&s, v) {
                gaps.push(c(vec![Wildcard, Wildcard], gap));
            }
            let mut next = vec![a, b, v + 1];
            if gaps.is_empty() {
                let mut twin = cds.clone();
                twin.run_memos.iter_mut().for_each(|memo| memo.chain.clear());
                let bottom = cds.chain.first().map_or(0, |&(id, _)| id);
                let before = cds.run_memos[bottom].clone();
                let counted = cds.complete_run_len(1, POS_INF);
                assert_eq!(
                    counted,
                    twin.complete_run_len(1, POS_INF),
                    "seed {seed}: memo of {t:?}"
                );
                if counted.is_some() && !before.chain.is_empty() && before == cds.run_memos[bottom]
                {
                    memo_hits += 1;
                }
                match counted {
                    Some(run) => {
                        assert_eq!(run, run_in_data(b, v), "seed {seed}: run of {t:?}");
                        outputs += run;
                        batched += 1;
                        next = vec![a, b + 1, -1];
                    }
                    None => outputs += 1,
                }
            }
            gaps.iter().for_each(|gap| cds.insert_constraint(gap));
            cds.set_frontier(&next);
        }
        let expected = r.len() as u64 * t_bs.iter().map(|&b| run_in_data(b, -1)).sum::<u64>();
        assert_eq!(outputs, expected, "seed {seed}");
        (batched, memo_hits)
    }

    #[test]
    fn complete_run_len_equals_the_run_listed_from_the_data() {
        let (batched, memo_hits) = (0..64)
            .map(runs_counted_from_complete_nodes)
            .fold((0, 0), |(a, b), (batched, hits)| (a + batched, b + hits));
        assert!(batched > 0, "no run was counted from a complete node");
        assert!(memo_hits > 0, "no run was answered by a memo");
    }

    /// `<*, 1>` completes over `a = 0` and `a = 1` with free points 3 and 6; under
    /// `a = 2` it counts the run `{3, 6}`, and the same question again is answered
    /// by its memo. A gap inserted into `<*, *>` around 6 leaves the range and the
    /// chain as they were, so only the chain's versions tell the memo is stale.
    #[test]
    fn a_memoised_run_is_recounted_when_the_chain_changes() {
        let mut cds = Cds::new(3, true, true).with_domain_max(10);
        cds.insert_constraint(&c(vec![], (NEG_INF, 0)));
        cds.insert_constraint(&c(vec![Wildcard], (NEG_INF, 1)));
        cds.insert_constraint(&c(vec![Wildcard], (1, POS_INF)));
        for gap in [(NEG_INF, 3), (3, 6), (6, POS_INF)] {
            cds.insert_constraint(&c(vec![Wildcard, Eq(1)], gap));
        }
        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (7, 9)));
        let mut outputs = Vec::new();
        while cds.compute_free_tuple() && cds.frontier()[0] < 2 {
            let t = cds.frontier().to_vec();
            outputs.push(t.clone());
            cds.set_frontier(&[t[0], t[1], t[2] + 1]);
        }
        assert_eq!(outputs, [[0, 1, 3], [0, 1, 6], [1, 1, 3], [1, 1, 6]]);
        assert_eq!(cds.frontier(), &[2, 1, 3]);
        let bottom = cds.find_node(&[Wildcard, Eq(1)]).unwrap();
        assert!(cds.node(bottom).is_complete());
        assert_eq!(cds.complete_run_len(1, POS_INF), Some(2));
        assert_eq!(cds.complete_run_len(1, POS_INF), Some(2), "the memo's answer");

        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (5, 7)));
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[2, 1, 3]);
        assert_eq!(cds.complete_run_len(1, POS_INF), Some(1), "6 is covered now");
    }

    #[test]
    fn reset_recycles_the_arena_and_restarts_the_search() {
        let mut cds = Cds::new(4, true, true).with_domain_max(50);
        cds.insert_constraint(&c(vec![Wildcard, Eq(1)], (1, 3)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(2)], (10, 19)));
        assert!(cds.compute_free_tuple());
        let first = cds.frontier().to_vec();
        let nodes_before = cds.num_nodes();
        assert!(nodes_before > 1);

        cds.reset();
        assert_eq!(cds.num_nodes(), 1, "reset rewinds to the root");
        assert_eq!(cds.frontier(), &[-1, -1, -1, -1]);
        assert_eq!(cds.stats, Counters::default());

        // Re-inserting the same constraints reuses the arena slots and reproduces
        // the same first free tuple.
        cds.insert_constraint(&c(vec![Wildcard, Eq(1)], (1, 3)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(2)], (10, 19)));
        assert_eq!(cds.num_nodes(), nodes_before);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), first.as_slice());
    }

    /// Builds the CDS of Figure 2 in the paper (n = 5) and checks its shape.
    #[test]
    fn figure2_example() {
        let mut cds = Cds::new(5, true, true);
        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (5, 7)));
        cds.insert_constraint(&c(vec![Wildcard, Wildcard, Eq(7), Wildcard], (4, 9)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1)], (1, 3)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1)], (9, 10)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(2)], (10, 19)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(3), Eq(5)], (3, 9)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(3), Eq(5)], (1, 3)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(3), Eq(5)], (10, 14)));
        cds.insert_constraint(&c(vec![Wildcard, Eq(1), Eq(3), Wildcard], (5, 10)));

        // <*, *> holds (5,7) on A2.
        let ww = cds.find_node(&[Wildcard, Wildcard]).unwrap();
        assert_eq!(cds.node(ww).intervals(), &[(5, 7)]);
        // <*, *, 7, *> holds (4,9) on A4.
        let w7w = cds.find_node(&[Wildcard, Wildcard, Eq(7), Wildcard]).unwrap();
        assert_eq!(cds.node(w7w).intervals(), &[(4, 9)]);
        // <*, 1> holds (1,3) and (9,10).
        let u1 = cds.find_node(&[Wildcard, Eq(1)]).unwrap();
        assert_eq!(cds.node(u1).intervals(), &[(1, 3), (9, 10)]);
        // <*, 1, 2> holds (10,19).
        let u12 = cds.find_node(&[Wildcard, Eq(1), Eq(2)]).unwrap();
        assert_eq!(cds.node(u12).intervals(), &[(10, 19)]);
        // v = <*, 1, 3, 5> holds (1,3), (3,9), (10,14) — (1,3) and (3,9) are NOT merged
        // because 3 itself is free.
        let v = cds.find_node(&[Wildcard, Eq(1), Eq(3), Eq(5)]).unwrap();
        assert_eq!(cds.node(v).intervals(), &[(1, 3), (3, 9), (10, 14)]);
        // w = <*, 1, 3, *> holds (5,10).
        let w = cds.find_node(&[Wildcard, Eq(1), Eq(3), Wildcard]).unwrap();
        assert_eq!(cds.node(w).intervals(), &[(5, 10)]);
        // u = <*, 1, 3> has child 5 -> v and wildcard child -> w (Figure 2, bottom).
        let u = cds.find_node(&[Wildcard, Eq(1), Eq(3)]).unwrap();
        assert_eq!(cds.node(u).child(5), Some(v));
        assert_eq!(cds.node(u).wildcard_child(), Some(w));
        assert_eq!(cds.stats.constraints_inserted, 9);
    }

    #[test]
    fn free_tuple_on_empty_cds_is_the_frontier() {
        let mut cds = Cds::new(3, true, true);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[-1, -1, -1]);
        cds.set_frontier(&[4, 2, 7]);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[4, 2, 7]);
    }

    #[test]
    fn free_tuple_skips_root_level_gaps() {
        let mut cds = Cds::new(2, true, true);
        cds.insert_constraint(&c(vec![], (NEG_INF, 5)));
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[5, -1]);
        // A second gap pushes it further.
        cds.insert_constraint(&c(vec![], (4, 9)));
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[9, -1]);
    }

    #[test]
    fn free_tuple_descends_into_pattern_specific_gaps() {
        let mut cds = Cds::new(2, true, true);
        // Under first attribute = 3, the second attribute is blocked below 8.
        cds.insert_constraint(&c(vec![Eq(3)], (NEG_INF, 8)));
        cds.set_frontier(&[3, -1]);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[3, 8]);
        // Under a different first value the constraint does not apply.
        cds.set_frontier(&[4, -1]);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[4, -1]);
    }

    #[test]
    fn wildcard_gaps_apply_to_every_prefix() {
        let mut cds = Cds::new(3, true, true);
        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (NEG_INF, 4)));
        cds.set_frontier(&[7, 2, -1]);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[7, 2, 4]);
    }

    #[test]
    fn exhausted_space_returns_false() {
        let mut cds = Cds::new(2, true, true);
        // Everything is covered at the root level.
        cds.insert_constraint(&c(vec![], (NEG_INF, POS_INF)));
        assert!(!cds.compute_free_tuple());
    }

    #[test]
    fn backtracking_bumps_the_parent_value() {
        let mut cds = Cds::new(2, true, true);
        // Under first attribute = 2 the second attribute is fully covered.
        cds.insert_constraint(&c(vec![Eq(2)], (NEG_INF, POS_INF)));
        cds.set_frontier(&[2, -1]);
        assert!(cds.compute_free_tuple());
        // The CDS must move past first attribute 2 entirely.
        assert!(cds.frontier()[0] >= 3, "frontier {:?}", cds.frontier());
    }

    #[test]
    fn truncation_rules_out_the_branch_at_the_parent() {
        let mut cds = Cds::new(3, true, true);
        // Under (1, 5) the third attribute is fully covered.
        cds.insert_constraint(&c(vec![Eq(1), Eq(5)], (NEG_INF, POS_INF)));
        cds.set_frontier(&[1, 5, -1]);
        assert!(cds.compute_free_tuple());
        let f = cds.frontier().to_vec();
        assert!(f.as_slice() > [1, 5, POS_INF - 1].as_slice() || f[1] != 5, "frontier {f:?}");
        // The parent node <1> must have an interval around 5 after the truncation.
        let p = cds.find_node(&[Eq(1)]).unwrap();
        assert!(cds.node(p).intervals().iter().any(|&(l, h)| l < 5 && 5 < h));
        assert!(cds.stats.truncations >= 1);
    }

    #[test]
    fn frontier_never_moves_backwards() {
        let mut cds = Cds::new(2, true, true);
        cds.set_frontier(&[5, 5]);
        assert!(cds.compute_free_tuple());
        assert!(cds.frontier() >= &[5, 5][..]);
    }

    // The check is a `debug_assert!`, so there is nothing to observe in release.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "forward")]
    fn set_frontier_rejects_backward_moves() {
        let mut cds = Cds::new(2, true, true);
        cds.set_frontier(&[5, 5]);
        cds.set_frontier(&[4, 0]);
    }

    #[test]
    fn caching_inserts_intervals_into_the_bottom_node() {
        let mut cds = Cds::new(2, true, true);
        // Two constraints at different nodes of the chain for attribute 1.
        cds.insert_constraint(&c(vec![Wildcard], (2, 6)));
        cds.insert_constraint(&c(vec![Eq(1)], (5, 9)));
        cds.set_frontier(&[1, 3]);
        assert!(cds.compute_free_tuple());
        // 3..8 are covered by the union of the two gaps; the first free value is 9.
        assert_eq!(cds.frontier(), &[1, 9]);
        // The bottom node <1> must have cached the combined interval (Idea 5).
        let bottom = cds.find_node(&[Eq(1)]).unwrap();
        assert!(cds.node(bottom).next(3) >= 9, "cached: {:?}", cds.node(bottom).intervals());
        assert!(cds.stats.cached_intervals >= 1);
    }

    #[test]
    fn no_caching_still_computes_correct_free_values() {
        let mut cds = Cds::new(2, false, false);
        cds.insert_constraint(&c(vec![Wildcard], (2, 6)));
        cds.insert_constraint(&c(vec![Eq(1)], (5, 9)));
        cds.set_frontier(&[1, 3]);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[1, 9]);
        assert_eq!(cds.stats.cached_intervals, 0);
    }

    #[test]
    fn backjump_skips_an_irrelevant_attribute_in_o_gaps_steps() {
        let a = 7;
        let mut cds = Cds::new(3, false, false).with_domain_max(1_000_000);
        // Under `a` level 2 is covered by gaps that never mention the middle attribute.
        cds.insert_constraint(&c(vec![Eq(a), Wildcard], (NEG_INF, 10)));
        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (9, POS_INF)));
        cds.set_frontier(&[a, -1, -1]);
        assert!(cds.compute_free_tuple());
        // Every (a, *, *) is dead; chronological backtracking would bump the middle
        // value a million times before noticing.
        assert_eq!(cds.frontier(), &[a + 1, -1, -1]);
        assert!(cds.stats.free_tuple_steps <= 8, "steps: {}", cds.stats.free_tuple_steps);
        assert!(cds.stats.backjumps >= 1);
        assert_eq!(cds.stats.constraints_inserted, 2, "the jump learns nothing");
        assert_eq!(cds.num_nodes(), 5);
    }

    #[test]
    fn backjump_requires_the_whole_level_to_be_covered() {
        let a = 7;
        let mut cds = Cds::new(3, false, false).with_domain_max(1_000_000);
        // Neither pattern mentions the middle attribute, but under `a` they cover
        // level 2 from 5 upwards only.
        cds.insert_constraint(&c(vec![Eq(a), Wildcard], (4, POS_INF)));
        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (20, 30)));
        // The frontier stands at 5 because (a, 3, 0..=4) were stepped over one by one
        // (outputs, say): those values were skipped for middle value 3 only.
        cds.set_frontier(&[a, 3, 5]);
        assert!(cds.compute_free_tuple());
        assert_eq!(cds.frontier(), &[a, 4, -1], "a jump past `a` would lose (a, 4, 0..=4)");
        assert_eq!(cds.stats.backjumps, 0);
    }

    #[test]
    fn all_wildcard_chain_covering_a_level_exhausts_the_space() {
        let mut cds = Cds::new(3, false, false).with_domain_max(1_000_000);
        cds.insert_constraint(&c(vec![Wildcard, Wildcard], (NEG_INF, POS_INF)));
        cds.set_frontier(&[2, 5, -1]);
        assert!(!cds.compute_free_tuple());
        assert!(cds.stats.free_tuple_steps <= 4, "steps: {}", cds.stats.free_tuple_steps);
        assert_eq!(cds.stats.backjumps, 1);
    }
}
