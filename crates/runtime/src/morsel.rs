//! Morsels: work-quantile partitioning of the first GAO attribute.
//!
//! The paper's multi-threaded results (Section 4.10, Table 5) come from splitting the
//! output space on the first GAO attribute into `threads × granularity` jobs at
//! quantiles of the values actually present in the data. This module lifts that
//! partitioning out of Minesweeper (where it was a count-only special case) so every
//! engine can share it: a [`Morsel`] is a half-open value range `[lo, hi)` of the
//! first GAO attribute, and [`partition_first_attribute`] tiles the whole axis with
//! them.
//!
//! The cut points are equal quantiles of *estimated work*: a first-level key weighs
//! its fanout squared, the child pairs a depth-1 intersection touches under it. A
//! power-law graph's hubs have the lowest ids: on `powerlaw_cluster(2000, 8, 0.4)`,
//! the costliest of 16 equal-*count* morsels took 62 % / 77 % / 81 % of the 3-clique
//! / 4-clique / 4-cycle time, and of 16 work-quantile morsels 8 % / 17 % / 16 %. The
//! granularity factor `f` (the paper uses `f = 1` for acyclic and `f = 8` for cyclic
//! queries) over-splits the domain so the job pool can work-steal around stragglers.

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

/// Splits the domain of the first GAO attribute into at most `parts` morsels of about
/// equal estimated work, whose boundaries are values present in the data, covering
/// the whole axis. A key of the leading atom weighs its fanout squared, read from the
/// live trie's level-0 child offsets (over a delta-carrying index, its fold's); a
/// unary leading atom weighs every key 1.
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
    let keys = atom.index.first_level_values();
    if atom.index.arity() < 2 {
        return partition_values(keys, parts);
    }
    let offsets = atom.index.child_offsets(0);
    let fanouts = offsets.iter().zip(offsets.iter().skip(1)).map(|(lo, hi)| hi.saturating_sub(*lo));
    cut_by_weight(keys, fanouts.map(|f| u128::from(u64::from(f) * u64::from(f))), parts)
}

/// Splits a **sorted, distinct** slice of attribute values into at most `parts`
/// morsels whose boundaries are values from the slice, covering the whole axis —
/// the unit-weight case of [`partition_first_attribute`]'s cut, exposed for engines
/// whose partition axis is not a trie level (the pairwise baseline partitions the
/// first column of its plan's base relation). The first morsel starts at [`NEG_INF`],
/// so the tiling covers arbitrary signed domains; engines whose search encodes
/// "before everything" differently clamp at their own boundary (Minesweeper's
/// frontier clamps a morsel's `lo` to the paper's `-1` natural-number
/// convention). A result of fewer than two morsels is driven by one worker.
pub fn partition_values(values: &[Val], parts: usize) -> Vec<Morsel> {
    cut_by_weight(values, std::iter::repeat_n(1, values.len()), parts)
}

/// The cut of both partitioners: one prefix-sum pass, one `u128` division per
/// boundary. With `W` the total weight and `parts` clamped to `values.len()`,
/// boundary `k` is the first value whose preceding weights sum to at least
/// `⌊k·W/parts⌋`, so a heavy value ends its morsel, and unit weights cut at index
/// `k·len/parts`. It cannot panic or overflow: it indexes nothing, a fanout is below
/// 2^32 (its square fits in a `u64`), and the weights add up in `u128`.
fn cut_by_weight(
    values: &[Val],
    weights: impl Iterator<Item = u128> + Clone,
    parts: usize,
) -> Vec<Morsel> {
    debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values must be sorted and distinct");
    if values.is_empty() || parts <= 1 {
        return vec![Morsel::whole_axis()];
    }
    let parts = parts.min(values.len());
    let total: u128 = weights.clone().sum();
    let target = |k: usize| (k as u128).saturating_mul(total) / parts as u128;
    let mut morsels = Vec::with_capacity(parts);
    let mut start = NEG_INF;
    let (mut k, mut next, mut before) = (1, target(1), 0u128);
    for (&value, weight) in values.iter().zip(weights) {
        let mut cut = false;
        while k < parts && before >= next {
            (k, next, cut) = (k + 1, target(k + 1), true);
        }
        if cut {
            morsels.push(Morsel::new(start, value));
            start = value;
        }
        before += weight;
    }
    morsels.push(Morsel::new(start, POS_INF));
    morsels
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{CatalogQuery, Instance, QueryBuilder};
    use gj_storage::{Graph, Relation, TrieIndex};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn assert_tiles(morsels: &[Morsel]) {
        assert_eq!(morsels[0].lo, NEG_INF);
        assert_eq!(morsels.last().unwrap().hi, POS_INF);
        for w in morsels.windows(2) {
            assert_eq!(w[0].hi, w[1].lo, "morsels must tile the axis");
            assert!(w[0].lo < w[0].hi, "no inverted morsels");
        }
    }

    /// `r(a, b)` bound over `rows` in GAO order `a, b`, its index then replaced by
    /// `edit(index)`.
    fn bound_pairs(rows: Vec<(Val, Val)>, edit: impl Fn(&TrieIndex) -> TrieIndex) -> BoundQuery {
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs(rows));
        let q = QueryBuilder::new("r").atom("r", &["a", "b"]).build();
        let mut bq = BoundQuery::new(&inst, &q, Some(vec![0, 1])).unwrap();
        bq.atoms[0].index = Arc::new(edit(&bq.atoms[0].index));
        bq
    }

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
            assert_tiles(&partition_first_attribute(&bq, parts));
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
        assert_eq!(partition_values(&[], 8), vec![Morsel::whole_axis()]);
        assert_eq!(partition_values(&[1, 2, 3], 1), vec![Morsel::whole_axis()]);
        assert_eq!(partition_values(&[1, 2, 3], 0), vec![Morsel::whole_axis()]);
        // A delta that tombstones every row leaves no key to split.
        let bq = bound_pairs(vec![(1, 2), (3, 4)], |i| {
            i.with_edits(&Relation::empty(2), &Relation::from_pairs(vec![(1, 2), (3, 4)]))
        });
        assert_eq!(partition_first_attribute(&bq, 8), vec![Morsel::whole_axis()]);
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

    /// The equal-count cut `partition_values` made before it became the
    /// unit-weight case of the work cut.
    fn count_quantiles(values: &[Val], parts: usize) -> Vec<Morsel> {
        if values.is_empty() || parts <= 1 {
            return vec![Morsel::whole_axis()];
        }
        let parts = parts.min(values.len());
        let mut morsels = Vec::new();
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

    #[test]
    fn unit_weights_reproduce_the_equal_count_cut() {
        let mut rng = StdRng::seed_from_u64(43);
        // Signed values included: the tiling still starts at NEG_INF.
        let mut slices: Vec<Vec<Val>> = vec![
            vec![7],
            vec![-20, -5, -1, 0, 3, 9],
            (0..16).collect(),
            (0..100).step_by(3).collect(),
        ];
        slices.push((0..1000).filter(|_| rng.gen_bool(0.3)).map(|v| v - 500).collect());
        for values in &slices {
            for parts in [2, 3, 4, 5, 7, 16, 33, 64, 1000] {
                let morsels = partition_values(values, parts);
                assert_eq!(
                    morsels,
                    count_quantiles(values, parts),
                    "{} values, {parts} parts",
                    values.len()
                );
                assert_tiles(&morsels);
            }
        }
    }

    #[test]
    fn a_heavy_key_ends_its_morsel() {
        // Key 5 has 40 children, every other key one: its weight (1600) dwarfs the
        // rest (9), so the cut lands right after it.
        let rows: Vec<(Val, Val)> =
            (0..10).flat_map(|a| (0..if a == 5 { 40 } else { 1 }).map(move |b| (a, b))).collect();
        let bq = bound_pairs(rows, TrieIndex::clone);
        let morsels = partition_first_attribute(&bq, 4);
        assert_eq!(morsels, [Morsel::new(NEG_INF, 6), Morsel::new(6, POS_INF)]);
        // Equal counts would leave the heavy key in a morsel with key 6.
        assert_eq!(
            partition_values(&(0..10).collect::<Vec<_>>(), 4),
            [
                Morsel::new(NEG_INF, 2),
                Morsel::new(2, 5),
                Morsel::new(5, 7),
                Morsel::new(7, POS_INF)
            ]
        );
    }

    #[test]
    fn a_delta_index_is_weighted_from_its_fold() {
        // Base: keys 1..=10 with two children each, key 3 with 31 (heavy).
        let base: Vec<(Val, Val)> = (1..=10)
            .flat_map(|a| (1000..if a == 3 { 1031 } else { 1002 }).map(move |b| (a, b)))
            .collect();
        // Every row of key 3 goes; key 100 arrives beyond the base's max with 50
        // children, followed by four light keys.
        let del = Relation::from_pairs((1000..1031).map(|b| (3, b)));
        let ins =
            Relation::from_pairs((0..50).map(|b| (100, b)).chain((101..=104).map(|a| (a, 0))));
        let bq = bound_pairs(base.clone(), |i| i.with_edits(&ins, &del));
        assert!(bq.atoms[0].index.has_delta());
        let live: Vec<(Val, Val)> = base
            .into_iter()
            .filter(|&(a, _)| a != 3)
            .chain(ins.iter().map(|row| (row[0], row[1])))
            .collect();
        let solid = bound_pairs(live, TrieIndex::clone);
        for parts in [2, 4, 8, 16] {
            let morsels = partition_first_attribute(&bq, parts);
            assert_tiles(&morsels);
            assert_eq!(morsels, partition_first_attribute(&solid, parts), "{parts} parts");
            assert!(morsels.iter().all(|m| m.lo != 3), "a tombstoned key is no boundary");
        }
        // Key 100 (weight 2500 of 2540) ends the first morsel.
        assert_eq!(
            partition_first_attribute(&bq, 4),
            [Morsel::new(NEG_INF, 101), Morsel::new(101, POS_INF)]
        );
    }
}
