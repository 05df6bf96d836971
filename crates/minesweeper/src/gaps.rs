//! Gap extraction from the input relations (Ideas 3 and 4 of the paper).
//!
//! For a free tuple `t` and a relation `R`, Minesweeper asks `R`'s trie index for the
//! *maximal gap box* around the projection of `t` onto `R`'s attributes: the deepest
//! prefix of the projection that exists in the index determines the pattern, and the
//! greatest-lower-bound / least-upper-bound pair around the failing value determines
//! the open interval (`seekGap`, Section 4.5).
//!
//! Idea 4 keeps, per relation, the last constraint that relation produced. If the
//! next free tuple is still inside that constraint the `seekGap` call is skipped
//! entirely; and if the free tuple sits exactly on the interval's finite endpoint and
//! the interval was on the relation's *last* attribute, the projection is known to be
//! a member — again without touching the index.

use crate::constraint::{Constraint, PatternComp};
use gj_query::bind::BoundAtom;
use gj_query::BoundQuery;
use gj_runtime::Counters;
use gj_storage::{ProbeCursor, ProbeResult, TrieIndex, Val, POS_INF};
use std::sync::Arc;

/// Outcome of probing one atom around a free tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome<'a> {
    /// The projection of the free tuple is a member of the relation.
    Member,
    /// The projection is not a member; `constraint` is the maximal gap box around it
    /// (in GAO space), borrowed from the prober's memo. `newly_discovered` is `false`
    /// when the gap was answered from the Idea 4 memo (it is already known to the
    /// CDS).
    Gap { constraint: &'a Constraint, newly_discovered: bool },
}

/// Per-atom prober: projection bookkeeping plus the Idea 4 memo.
#[derive(Debug, Clone)]
pub struct AtomProber {
    /// Index of the atom in the query.
    pub atom_idx: usize,
    /// Whether the atom belongs to the β-acyclic skeleton (Idea 7). Gaps from
    /// non-skeleton atoms are not inserted into the CDS.
    pub skeleton: bool,
    /// GAO positions of the atom's attributes, ascending (level `d` of the index is
    /// GAO position `positions[d]`).
    positions: Vec<usize>,
    /// The atom's GAO-consistent trie index.
    index: Arc<TrieIndex>,
    /// Where the last index probe left its descent, so the next one searches only
    /// the levels whose projected value changed, galloping forward on the first
    /// of them. It stays valid across runs and morsels because the index behind a
    /// prober never changes; memo answers do not touch it.
    cursor: ProbeCursor,
    /// Idea 4 memo: the last gap constraint produced, rewritten in place by every
    /// probe that finds a gap (so its pattern buffer is allocated once). It is kept
    /// whether or not Idea 4 is enabled, because it is also the storage
    /// [`probe`](Self::probe) lends its gap out of. Meaningless until `memo_level`
    /// is set.
    memo: Constraint,
    /// The index level that carried the memoised interval; `None` until the first
    /// gap.
    memo_level: Option<usize>,
    /// Whether the memo predates the current run (see [`begin_run`](Self::begin_run)).
    memo_stale: bool,
    /// Scratch buffer for projections.
    scratch: Vec<Val>,
}

impl AtomProber {
    /// Builds a prober for a bound atom. `var_pos` maps variables to GAO positions;
    /// `skeleton` says whether the atom inserts constraints into the CDS.
    pub fn new(bound_atom: &BoundAtom, var_pos: &[usize], skeleton: bool) -> Self {
        let positions: Vec<usize> = bound_atom.vars.iter().map(|&v| var_pos[v]).collect();
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "atom vars must be GAO-ordered");
        AtomProber {
            atom_idx: bound_atom.atom_idx,
            skeleton,
            scratch: vec![0; positions.len()],
            positions,
            cursor: bound_atom.index.probe_cursor(),
            index: Arc::clone(&bound_atom.index),
            memo: Constraint { pattern: Vec::new(), interval: (0, 0) },
            memo_level: None,
            memo_stale: false,
        }
    }

    /// Marks the start of a new run over a *fresh* CDS. The memoised gap stays
    /// usable (it is a fact about the data, valid across runs and ranges), but its
    /// first hit in the new run reports `newly_discovered: true` again so the
    /// engine re-inserts the constraint into the empty CDS — otherwise the frontier
    /// would crawl through the remembered gap value by value.
    pub fn begin_run(&mut self) {
        self.memo_stale = self.memo_level.is_some();
    }

    /// Forgets the memo and the probe cursor: the next probe searches the index
    /// from the root, as a fresh prober's would.
    pub(crate) fn forget(&mut self) {
        self.memo_level = None;
        self.memo_stale = false;
        self.cursor.reset();
    }

    /// The GAO positions of the atom's attributes.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Probes the relation around the free tuple `t` (in GAO order), counting
    /// into `stats` the `seekGap` probes issued (`probes`) and those the Idea 4
    /// memo avoided (`probes_skipped`).
    pub fn probe(&mut self, t: &[Val], use_memo: bool, stats: &mut Counters) -> ProbeOutcome<'_> {
        // Idea 4: answer from the memo when possible.
        if let (true, Some(level)) = (use_memo, self.memo_level) {
            if self.memo.pattern_matches(t) {
                let v = t[self.memo.interval_pos()];
                let (lo, hi) = self.memo.interval;
                if lo < v && v < hi {
                    stats.probes_skipped += 1;
                    // A memo carried over from a previous run answers its first
                    // hit as newly discovered: the (reset) CDS has not seen it.
                    let newly_discovered = std::mem::replace(&mut self.memo_stale, false);
                    return ProbeOutcome::Gap { constraint: &self.memo, newly_discovered };
                }
                // On the finite endpoint of a last-attribute interval the
                // projection is a member: the endpoint came from the index, and
                // there is no deeper attribute left to check.
                if level + 1 == self.positions.len()
                    && (v == lo || v == hi)
                    && v > gj_storage::NEG_INF
                    && v < POS_INF
                {
                    stats.probes_skipped += 1;
                    return ProbeOutcome::Member;
                }
            }
        }

        for (i, &p) in self.positions.iter().enumerate() {
            self.scratch[i] = t[p];
        }
        stats.probes += 1;
        match self.index.probe_with(&self.scratch, &mut self.cursor) {
            ProbeResult::Found => ProbeOutcome::Member,
            ProbeResult::Gap { depth, lower, upper } => {
                self.memoise_gap(t, depth, lower, upper);
                ProbeOutcome::Gap { constraint: &self.memo, newly_discovered: true }
            }
        }
    }

    /// Translates an index-level gap into a GAO-space constraint (Idea 3) — equality
    /// components at the atom's earlier attributes, wildcards elsewhere, and the open
    /// interval at the failing attribute's GAO position — overwriting the memo.
    fn memoise_gap(&mut self, t: &[Val], level: usize, lower: Val, upper: Val) {
        debug_assert!(lower < upper, "the index reports non-empty gaps: ({lower}, {upper})");
        let pattern = &mut self.memo.pattern;
        pattern.clear();
        pattern.resize(self.positions[level], PatternComp::Wildcard);
        for &p in &self.positions[..level] {
            pattern[p] = PatternComp::Eq(t[p]);
        }
        self.memo.interval = (lower, upper);
        self.memo_level = Some(level);
        self.memo_stale = false;
    }
}

/// Builds the probers for every atom of a bound query. `skeleton[i]` controls whether
/// atom `i` inserts constraints into the CDS (Idea 7).
pub fn build_probers(bq: &BoundQuery, skeleton: &[bool]) -> Vec<AtomProber> {
    bq.atoms.iter().map(|ba| AtomProber::new(ba, &bq.var_pos, skeleton[ba.atom_idx])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{BoundQuery, Instance, QueryBuilder};
    use gj_storage::{Relation, NEG_INF};

    /// R(A2, A4, A5) from Figure 1, used as the only atom of a 7-attribute query so
    /// the GAO positions mirror the paper's Section 4.2 example (A0..A6).
    fn paper_setup() -> (BoundQuery, Vec<AtomProber>) {
        let mut inst = Instance::new();
        inst.add_relation(
            "r",
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
            ),
        );
        // Pad with unary atoms so the query has attributes A0..A6 in natural order
        // (variables get their ids in first-use order).
        inst.add_relation("u", Relation::from_values(0..20));
        let mut builder = QueryBuilder::new("example");
        for name in ["a0", "a1", "a2", "a3", "a4", "a5", "a6"] {
            builder = builder.atom("u", &[name]);
        }
        let q = builder.atom("r", &["a2", "a4", "a5"]).build();
        let gao = (0..7).collect();
        let bq = BoundQuery::new(&inst, &q, Some(gao)).unwrap();
        let probers = build_probers(&bq, &[true; 8]);
        (bq, probers)
    }

    #[test]
    fn gap_constraints_match_the_paper_examples() {
        let (_bq, mut probers) = paper_setup();
        let mut stats = Counters::default();
        let r = probers.iter_mut().find(|p| p.positions() == [2, 4, 5]).unwrap();

        // Free tuple (2,6,6,1,3,7,9): R returns <*,*,(5,7),*,*,*,*>.
        let t = [2, 6, 6, 1, 3, 7, 9];
        match r.probe(&t, false, &mut stats) {
            ProbeOutcome::Gap { constraint, newly_discovered } => {
                assert!(newly_discovered);
                assert_eq!(constraint.interval_pos(), 2);
                assert_eq!(constraint.interval, (5, 7));
                assert_eq!(constraint.pattern, vec![PatternComp::Wildcard, PatternComp::Wildcard]);
            }
            other => panic!("expected a gap, got {other:?}"),
        }

        // Free tuple (2,6,7,1,5,8,9): R returns <*,*,7,*,(4,9),*,*>.
        let t = [2, 6, 7, 1, 5, 8, 9];
        match r.probe(&t, false, &mut stats) {
            ProbeOutcome::Gap { constraint, .. } => {
                assert_eq!(constraint.interval_pos(), 4);
                assert_eq!(constraint.interval, (4, 9));
                assert_eq!(
                    constraint.pattern,
                    vec![
                        PatternComp::Wildcard,
                        PatternComp::Wildcard,
                        PatternComp::Eq(7),
                        PatternComp::Wildcard,
                    ]
                );
            }
            other => panic!("expected a gap, got {other:?}"),
        }
    }

    #[test]
    fn member_when_projection_present() {
        let (_bq, mut probers) = paper_setup();
        let mut stats = Counters::default();
        let r = probers.iter_mut().find(|p| p.positions() == [2, 4, 5]).unwrap();
        let t = [0, 0, 7, 0, 9, 13, 0];
        assert_eq!(r.probe(&t, false, &mut stats), ProbeOutcome::Member);
    }

    #[test]
    fn idea4_memo_skips_probe_inside_the_same_gap() {
        let (_bq, mut probers) = paper_setup();
        let mut stats = Counters::default();
        let r = probers.iter_mut().find(|p| p.positions() == [2, 4, 5]).unwrap();
        let t1 = [2, 6, 6, 1, 3, 7, 9];
        assert!(matches!(
            r.probe(&t1, true, &mut stats),
            ProbeOutcome::Gap { newly_discovered: true, .. }
        ));
        // A different free tuple whose A2 value is still inside (5, 7).
        let t2 = [3, 9, 6, 2, 8, 1, 0];
        match r.probe(&t2, true, &mut stats) {
            ProbeOutcome::Gap { newly_discovered, .. } => assert!(!newly_discovered),
            other => panic!("expected a memoised gap, got {other:?}"),
        }
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.probes_skipped, 1);
        // With the memo disabled the probe is issued again.
        assert!(matches!(
            r.probe(&t2, false, &mut stats),
            ProbeOutcome::Gap { newly_discovered: true, .. }
        ));
        assert_eq!(stats.probes, 2);
    }

    #[test]
    fn a_memo_hit_between_index_probes_leaves_the_cursor_valid() {
        let (_bq, mut probers) = paper_setup();
        let mut stats = Counters::default();
        let r = probers.iter_mut().find(|p| p.positions() == [2, 4, 5]).unwrap();
        // Index probes: a gap on A2, then the member (7, 9, 13).
        assert!(matches!(
            r.probe(&[2, 6, 6, 1, 3, 7, 9], true, &mut stats),
            ProbeOutcome::Gap { .. }
        ));
        assert_eq!(r.probe(&[0, 0, 7, 0, 9, 13, 0], true, &mut stats), ProbeOutcome::Member);
        // Answered by the memo (A2 = 6 is inside (5, 7)): the cursor still holds
        // the member's descent.
        assert!(matches!(
            r.probe(&[3, 9, 6, 2, 8, 1, 0], true, &mut stats),
            ProbeOutcome::Gap { newly_discovered: false, .. }
        ));
        assert_eq!(stats.probes, 2);
        // Index probes resumed below the unchanged prefix (7, 9).
        assert_eq!(r.probe(&[1, 1, 7, 1, 9, 8, 1], true, &mut stats), ProbeOutcome::Member);
        match r.probe(&[1, 1, 7, 1, 9, 10, 1], true, &mut stats) {
            ProbeOutcome::Gap { constraint, newly_discovered } => {
                assert!(newly_discovered);
                assert_eq!(constraint.interval_pos(), 5);
                assert_eq!(constraint.interval, (8, 13));
                assert_eq!(
                    constraint.pattern,
                    vec![
                        PatternComp::Wildcard,
                        PatternComp::Wildcard,
                        PatternComp::Eq(7),
                        PatternComp::Wildcard,
                        PatternComp::Eq(9),
                    ]
                );
            }
            other => panic!("expected a gap, got {other:?}"),
        }
        // A changed first value searches from the root again.
        assert_eq!(r.probe(&[1, 1, 5, 1, 1, 12, 1], true, &mut stats), ProbeOutcome::Member);
        assert_eq!(stats.probes, 5);
    }

    #[test]
    fn stale_memos_reinsert_their_gap_after_begin_run() {
        let (_bq, mut probers) = paper_setup();
        let mut stats = Counters::default();
        let r = probers.iter_mut().find(|p| p.positions() == [2, 4, 5]).unwrap();
        let t = [2, 6, 6, 1, 3, 7, 9];
        assert!(matches!(
            r.probe(&t, true, &mut stats),
            ProbeOutcome::Gap { newly_discovered: true, .. }
        ));
        // Same run: the memo answers and the CDS already knows the gap.
        assert!(matches!(
            r.probe(&t, true, &mut stats),
            ProbeOutcome::Gap { newly_discovered: false, .. }
        ));
        // New run over a reset CDS: the first memo hit must report the gap as newly
        // discovered again (the fresh CDS has never seen it), later hits must not.
        r.begin_run();
        assert!(matches!(
            r.probe(&t, true, &mut stats),
            ProbeOutcome::Gap { newly_discovered: true, .. }
        ));
        assert!(matches!(
            r.probe(&t, true, &mut stats),
            ProbeOutcome::Gap { newly_discovered: false, .. }
        ));
        assert_eq!(stats.probes, 1, "every repeat was answered from the memo");
        assert_eq!(stats.probes_skipped, 3);
    }

    #[test]
    fn idea4_memo_detects_membership_on_last_attribute_endpoints() {
        // The paper's own example: after R(B,C) produced <*, b, (l, r)>, the free
        // tuple (a, b, r) is known to be in R without a probe.
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs(vec![(1, 5), (1, 9)]));
        inst.add_relation("u", Relation::from_values(0..10));
        let q = QueryBuilder::new("q").atom("u", &["a"]).atom("r", &["b", "c"]).build();
        let bq = BoundQuery::new(&inst, &q, Some(vec![0, 1, 2])).unwrap();
        let mut probers = build_probers(&bq, &[true, true]);
        let r = probers.iter_mut().find(|p| p.positions() == [1, 2]).unwrap();
        let mut stats = Counters::default();
        // (a=0, b=1, c=7): gap (5, 9) on the last attribute.
        assert!(matches!(r.probe(&[0, 1, 7], true, &mut stats), ProbeOutcome::Gap { .. }));
        // (a=3, b=1, c=9): 9 is the finite right endpoint -> member, no probe issued.
        assert_eq!(r.probe(&[3, 1, 9], true, &mut stats), ProbeOutcome::Member);
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.probes_skipped, 1);
    }

    #[test]
    fn memo_endpoint_shortcut_not_applied_on_infinite_ends() {
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs(vec![(1, 5)]));
        inst.add_relation("u", Relation::from_values(0..10));
        let q = QueryBuilder::new("q").atom("u", &["a"]).atom("r", &["b", "c"]).build();
        let bq = BoundQuery::new(&inst, &q, Some(vec![0, 1, 2])).unwrap();
        let mut probers = build_probers(&bq, &[true, true]);
        let r = probers.iter_mut().find(|p| p.positions() == [1, 2]).unwrap();
        let mut stats = Counters::default();
        // Gap above the largest C value: (5, +inf).
        assert!(matches!(r.probe(&[0, 1, 7], true, &mut stats), ProbeOutcome::Gap { .. }));
        // POS_INF is not a data value; the memo must not claim membership for it.
        let outcome = r.probe(&[0, 1, POS_INF - 1], true, &mut stats);
        assert!(matches!(outcome, ProbeOutcome::Gap { .. }));
        let _ = NEG_INF;
    }
}
