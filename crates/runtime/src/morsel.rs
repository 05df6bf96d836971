//! Morsels: quantile-based partitioning of the first GAO attribute.
//!
//! The paper's multi-threaded results (Section 4.10, Table 5) come from splitting the
//! output space on the first GAO attribute into `threads × granularity` jobs at
//! quantiles of the values actually present in the data. This module lifts that
//! partitioning out of Minesweeper (where it was a count-only special case) so every
//! engine can share it: a [`Morsel`] is a half-open value range `[lo, hi)` of the
//! first GAO attribute, and [`partition_first_attribute`] tiles the whole axis with
//! them.
//!
//! Quantiles of the *present* values (rather than an even split of the value range)
//! keep morsels balanced under skew — a power-law graph's dense low-degree prefix
//! gets as many morsels as its sparse tail. The granularity factor `f` (the paper
//! uses `f = 1` for acyclic and `f = 8` for cyclic queries) over-splits the domain so
//! the job pool can work-steal around stragglers.

use gj_query::BoundQuery;
use gj_storage::{Val, NEG_INF, POS_INF};

/// One unit of parallel work: the query restricted to first-GAO-attribute values in
/// `[lo, hi)`. Morsels produced by [`partition_first_attribute`] tile the axis, so
/// running every morsel visits each output tuple exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Inclusive lower end of the first-attribute range.
    pub lo: Val,
    /// Exclusive upper end of the first-attribute range.
    pub hi: Val,
}

impl Morsel {
    /// Creates the morsel `[lo, hi)`.
    pub fn new(lo: Val, hi: Val) -> Self {
        Morsel { lo, hi }
    }

    /// The whole axis as a single morsel — what a serial (one-worker) run drives.
    pub const fn whole_axis() -> Self {
        Morsel { lo: NEG_INF, hi: POS_INF }
    }
}

/// Splits the domain of the first GAO attribute into at most `parts` morsels whose
/// boundaries are values present in the data, covering the whole axis.
///
/// Returns a single [`Morsel::whole_axis`] when the query has no variables, no atom
/// leads with the first GAO variable, or the first attribute has too few distinct
/// values to split — the driver then runs that one morsel with one worker, on the
/// calling thread.
pub fn partition_first_attribute(bq: &BoundQuery, parts: usize) -> Vec<Morsel> {
    let Some(&first_var) = bq.gao.first() else {
        return vec![Morsel::whole_axis()];
    };
    // Any atom containing the first GAO variable has it as its first index level.
    let Some(atom) = bq.atoms.iter().find(|a| a.vars.first() == Some(&first_var)) else {
        return vec![Morsel::whole_axis()];
    };
    // The live first-level keys: over a delta-carrying index these are its fold's,
    // so keys inserted beyond the base's min/max get morsels too.
    partition_values(atom.index.first_level_values(), parts)
}

/// Splits a **sorted, distinct** slice of attribute values into at most `parts`
/// morsels whose boundaries are values from the slice, covering the whole axis —
/// the quantile core of [`partition_first_attribute`], exposed for engines whose
/// partition axis is not a trie level (the pairwise baseline partitions the first
/// column of its plan's base relation). The first morsel starts at [`NEG_INF`],
/// so the tiling covers arbitrary signed domains; engines whose search encodes
/// "before everything" differently clamp at their own boundary (Minesweeper's
/// frontier clamps a morsel's `lo` to the paper's `-1` natural-number
/// convention). A result of fewer than two morsels is driven by one worker.
pub fn partition_values(values: &[Val], parts: usize) -> Vec<Morsel> {
    debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values must be sorted and distinct");
    if values.is_empty() || parts <= 1 {
        return vec![Morsel::whole_axis()];
    }
    let parts = parts.min(values.len());
    let mut morsels = Vec::with_capacity(parts);
    let mut start = NEG_INF;
    for k in 1..parts {
        let boundary = values[k * values.len() / parts];
        if boundary > start {
            morsels.push(Morsel::new(start, boundary));
            start = boundary;
        }
    }
    morsels.push(Morsel::new(start, POS_INF));
    morsels
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{CatalogQuery, Instance};
    use gj_storage::{Graph, Relation};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_instance(seed: u64, n: u32, p: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let g = Graph::new_undirected(n as usize, edges);
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        inst
    }

    #[test]
    fn partitions_tile_the_axis_without_overlap() {
        let inst = random_instance(14, 40, 0.2);
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        for parts in [2, 3, 7, 64] {
            let morsels = partition_first_attribute(&bq, parts);
            assert!(!morsels.is_empty());
            assert_eq!(morsels[0].lo, NEG_INF);
            assert_eq!(morsels.last().unwrap().hi, POS_INF);
            for w in morsels.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "morsels must tile the axis");
                assert!(w[0].lo < w[0].hi);
            }
        }
    }

    #[test]
    fn negative_boundaries_keep_the_tiling_well_formed() {
        // Signed domains: quantile boundaries may be negative; the tiling must
        // still cover the whole axis with strictly increasing, non-inverted
        // morsels starting at NEG_INF.
        for parts in [2, 3, 5, 16] {
            let morsels = partition_values(&[-20, -5, -1, 0, 3, 9], parts);
            assert_eq!(morsels[0].lo, NEG_INF);
            assert_eq!(morsels.last().unwrap().hi, POS_INF);
            for w in morsels.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "morsels must tile the axis");
                assert!(w[0].lo < w[0].hi, "no inverted morsels");
            }
        }
    }

    #[test]
    fn degenerate_inputs_fall_back_to_one_morsel() {
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::empty(2));
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(partition_first_attribute(&bq, 8), vec![Morsel::whole_axis()]);
        // parts <= 1 never splits.
        let inst = random_instance(3, 20, 0.3);
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        assert_eq!(partition_first_attribute(&bq, 1), vec![Morsel::whole_axis()]);
    }

    #[test]
    fn never_produces_more_morsels_than_distinct_values() {
        // Three distinct first-attribute values can make at most three morsels.
        let mut inst = Instance::new();
        inst.add_relation("edge", Relation::from_pairs(vec![(1, 2), (5, 6), (9, 1)]));
        let q = CatalogQuery::ThreeClique.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let morsels = partition_first_attribute(&bq, 16);
        assert!(morsels.len() <= 3, "{morsels:?}");
    }
}
