//! A Selinger-style pairwise join optimizer.
//!
//! The paper's point of comparison is the classical architecture: enumerate two-way
//! join orders with dynamic programming, pick the cheapest under textbook cardinality
//! estimates, and execute the chosen order pairwise with materialised intermediates.
//! This module implements the left-deep variant of that optimizer (what System R and
//! PostgreSQL's default search do for this many relations), with the standard
//! System-R estimate `|L ⋈ R| = |L|·|R| / Π_{v shared} max(ndv_L(v), ndv_R(v))`.
//!
//! The optimizer is deliberately *not* given any knowledge of worst-case bounds: its
//! blind spot on cyclic self-joins — choosing plans whose intermediates are orders of
//! magnitude larger than the final result — is precisely the behaviour the paper
//! contrasts with worst-case optimal joins.

use gj_query::{Query, VarId};
use gj_storage::Relation;
use std::collections::HashMap;

/// The most atoms the subset DP plans: it keeps one entry per atom subset, so
/// `2^MAX_ATOMS` of them.
pub const MAX_ATOMS: usize = 16;

/// Per-atom statistics used by the estimator.
struct AtomStats {
    cardinality: f64,
    /// Distinct values per variable of the atom.
    ndv: HashMap<VarId, f64>,
}

/// Statistics of a partial (left-deep) result.
#[derive(Clone)]
struct PartialStats {
    cardinality: f64,
    ndv: HashMap<VarId, f64>,
    cost: f64,
    order: Vec<usize>,
}

/// Plans a left-deep pairwise join order for `query` — the atom indices in join
/// order, the first being the base of the chain — given each atom's relation.
///
/// Connected sub-plans are preferred (cartesian products are only considered when a
/// query is disconnected), matching what real pairwise optimizers do. The caller
/// guarantees 1..=[`MAX_ATOMS`] atoms and one relation per atom.
pub fn plan_left_deep(query: &Query, relations: &[&Relation]) -> Vec<usize> {
    debug_assert_eq!(relations.len(), query.num_atoms(), "one relation per atom required");
    let m = query.num_atoms();
    debug_assert!((1..=MAX_ATOMS).contains(&m), "{m} atoms is outside 1..={MAX_ATOMS}");

    let atom_stats: Vec<AtomStats> = query
        .atoms
        .iter()
        .zip(relations)
        .map(|(atom, rel)| {
            let mut ndv = HashMap::new();
            for (col, &v) in atom.vars.iter().enumerate() {
                ndv.insert(v, rel.column_distinct(col).max(1) as f64);
            }
            AtomStats { cardinality: rel.len().max(1) as f64, ndv }
        })
        .collect();

    // DP over subsets: best left-deep partial plan per subset of atoms.
    let mut best: Vec<Option<PartialStats>> = vec![None; 1 << m];
    for (i, stats) in atom_stats.iter().enumerate() {
        best[1 << i] = Some(PartialStats {
            cardinality: stats.cardinality,
            ndv: stats.ndv.clone(),
            cost: 0.0,
            order: vec![i],
        });
    }

    for subset in 1usize..(1 << m) {
        let Some(partial) = best[subset].clone() else { continue };
        for next in 0..m {
            if subset & (1 << next) != 0 {
                continue;
            }
            let connected = query.atoms[next].vars.iter().any(|v| partial.ndv.contains_key(v));
            // Prefer connected extensions; allow a cartesian step only if no atom
            // outside the subset connects to it (disconnected query).
            if !connected {
                let any_connected = (0..m).any(|j| {
                    subset & (1 << j) == 0
                        && query.atoms[j].vars.iter().any(|v| partial.ndv.contains_key(v))
                });
                if any_connected {
                    continue;
                }
            }
            let extended = extend(&partial, next, &atom_stats[next], &query.atoms[next].vars);
            let slot = &mut best[subset | (1 << next)];
            let better = match slot {
                None => true,
                Some(existing) => extended.cost < existing.cost,
            };
            if better {
                *slot = Some(extended);
            }
        }
    }

    match best[(1 << m) - 1].take() {
        Some(full) => full.order,
        // The DP always fills the full subset (every singleton seeds it and every
        // extension step is admissible); if that invariant ever breaks, degrade
        // to textual atom order instead of taking the whole query down.
        None => (0..m).collect(),
    }
}

/// Extends a partial plan with one more atom, producing the new statistics under the
/// System-R estimate. The cost accumulates the sizes of all materialised
/// intermediates (the final result included).
fn extend(
    partial: &PartialStats,
    atom_idx: usize,
    atom: &AtomStats,
    atom_vars: &[VarId],
) -> PartialStats {
    let mut selectivity = 1.0;
    for v in atom_vars {
        if let Some(&left_ndv) = partial.ndv.get(v) {
            let right_ndv = atom.ndv.get(v).copied().unwrap_or(1.0);
            selectivity /= left_ndv.max(right_ndv).max(1.0);
        }
    }
    let cardinality = (partial.cardinality * atom.cardinality * selectivity).max(1.0);
    let mut ndv = partial.ndv.clone();
    for (v, &d) in &atom.ndv {
        let entry = ndv.entry(*v).or_insert(d);
        *entry = entry.min(d).min(cardinality);
    }
    for d in ndv.values_mut() {
        *d = d.min(cardinality);
    }
    let mut order = partial.order.clone();
    order.push(atom_idx);
    PartialStats { cardinality, ndv, cost: partial.cost + cardinality, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::CatalogQuery;

    fn relations_for<'a>(
        query: &Query,
        edge: &'a Relation,
        samples: &'a HashMap<String, Relation>,
    ) -> Vec<&'a Relation> {
        query
            .atoms
            .iter()
            .map(|a| {
                if a.relation == "edge" {
                    edge
                } else {
                    samples.get(&a.relation).expect("sample relation present")
                }
            })
            .collect()
    }

    fn dense_edge() -> Relation {
        Relation::from_pairs(
            (0..40i64).flat_map(|a| (0..40i64).filter(move |&b| b != a).map(move |b| (a, b))),
        )
    }

    #[test]
    fn plan_covers_every_atom_exactly_once() {
        let q = CatalogQuery::FourClique.query();
        let edge = dense_edge();
        let samples = HashMap::new();
        let plan = plan_left_deep(&q, &relations_for(&q, &edge, &samples));
        let mut order = plan;
        order.sort_unstable();
        assert_eq!(order, (0..q.num_atoms()).collect::<Vec<_>>());
    }

    #[test]
    fn planner_starts_from_selective_samples_on_path_queries() {
        // The paper observes PostgreSQL starting from the small node samples for
        // 3-path; with a tiny v1/v2 the estimator must do the same.
        let q = CatalogQuery::ThreePath.query();
        let edge = dense_edge();
        let mut samples = HashMap::new();
        samples.insert("v1".to_string(), Relation::from_values(vec![1]));
        samples.insert("v2".to_string(), Relation::from_values(vec![2, 3]));
        let plan = plan_left_deep(&q, &relations_for(&q, &edge, &samples));
        let first_atom = &q.atoms[plan[0]];
        assert!(
            first_atom.relation == "v1" || first_atom.relation == "v2",
            "expected the plan to start from a sample, got {}",
            first_atom.relation
        );
    }

    #[test]
    fn connected_plans_preferred_over_cartesian_products() {
        let q = CatalogQuery::ThreeClique.query();
        let edge = dense_edge();
        let samples = HashMap::new();
        let plan = plan_left_deep(&q, &relations_for(&q, &edge, &samples));
        // Each successive atom must share a variable with the prefix.
        let mut seen: Vec<VarId> = q.atoms[plan[0]].vars.clone();
        for &idx in &plan[1..] {
            assert!(
                q.atoms[idx].vars.iter().any(|v| seen.contains(v)),
                "atom {idx} does not connect to the prefix"
            );
            seen.extend(&q.atoms[idx].vars);
        }
    }
}
