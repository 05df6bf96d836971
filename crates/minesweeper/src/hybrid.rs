//! The hybrid Minesweeper + LeapFrog TrieJoin algorithm (Section 4.12 of the paper).
//!
//! Lollipop queries combine a path (where Minesweeper's caching shines) with a clique
//! (where LFTJ's simultaneous multiway intersection shines). The hybrid splits the
//! query at the vertex shared by the two parts: LFTJ counts, for every possible value
//! of the shared vertex, the number of clique completions; Minesweeper then
//! enumerates the path bindings and each one contributes the pre-computed clique
//! count of its endpoint. Because the two parts share only the split vertex, the sum
//! equals the size of the full join.

use crate::engine::{MinesweeperExecutor, MsConfig};
use gj_query::{BindReport, BoundQuery, IndexCache, Instance, Query, QueryBuilder, VarId};
use gj_runtime::{ExecCtx, Morsel};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// A hybrid query prepared once: the clique and path sub-queries are split, validated
/// and bound (GAO selection + trie indexes), so repeated executions only pay the two
/// engine runs.
///
/// Built by [`HybridPlan::new`] (private index cache) or [`HybridPlan::with_cache`]
/// (shared database-level cache, as used by the prepared-query API in `gj-core`).
#[derive(Debug, Clone)]
pub struct HybridPlan {
    /// The clique part, bound with the shared vertex first in the GAO.
    clique_bq: BoundQuery,
    /// The path part, bound under its default (longest-path NEO) GAO.
    path_bq: BoundQuery,
    /// GAO position of the shared vertex inside the path part.
    path_joint_gao_pos: usize,
}

impl HybridPlan {
    /// Splits, validates and binds `query` for the hybrid algorithm, building every
    /// index into a private single-threaded cache.
    ///
    /// `split` is the number of leading variables (in the query's variable-id order)
    /// that form the path part; variable `split - 1` is shared with the clique part
    /// (see [`CatalogQuery::hybrid_split`](gj_query::CatalogQuery::hybrid_split)).
    ///
    /// Fails if the query cannot be split at that point (an atom or filter straddles
    /// the two parts beyond the shared vertex).
    pub fn new(instance: &Instance, query: &Query, split: usize) -> Result<Self, String> {
        let cache = IndexCache::new();
        Ok(Self::with_cache(instance, query, split, &cache, 1)?.0)
    }

    /// Like [`HybridPlan::new`], but takes trie indexes from `cache` (building the
    /// misses across up to `threads` worker threads) so repeated preparations over
    /// the same relations are warm.
    pub fn with_cache(
        instance: &Instance,
        query: &Query,
        split: usize,
        cache: &IndexCache,
        threads: usize,
    ) -> Result<(Self, BindReport), String> {
        if split == 0 || split >= query.num_vars() {
            return Err(format!("split {split} out of range for {} variables", query.num_vars()));
        }
        let joint: VarId = split - 1;

        let in_path = |v: VarId| v < split;
        let in_clique = |v: VarId| v >= joint;

        let mut path_atoms = Vec::new();
        let mut clique_atoms = Vec::new();
        for atom in &query.atoms {
            if atom.vars.iter().all(|&v| in_path(v)) {
                path_atoms.push(atom);
            } else if atom.vars.iter().all(|&v| in_clique(v)) {
                clique_atoms.push(atom);
            } else {
                return Err(format!(
                    "atom {}({:?}) straddles the path/clique split",
                    atom.relation, atom.vars
                ));
            }
        }
        if clique_atoms.is_empty() {
            return Err("the clique part of the query is empty".to_string());
        }

        // Filters are classified by membership in the part's *atom* variables —
        // not by the id-range split — so a sub-query can never end up with a
        // filter-only variable contained in no atom (which the executors reject).
        let path_vars: Vec<VarId> =
            path_atoms.iter().flat_map(|a| a.vars.iter().copied()).collect();
        let clique_vars: Vec<VarId> =
            clique_atoms.iter().flat_map(|a| a.vars.iter().copied()).collect();
        if !clique_vars.contains(&joint) {
            return Err("the shared variable does not occur in the clique part".to_string());
        }
        if !path_vars.contains(&joint) {
            return Err("the shared variable does not occur in the path part".to_string());
        }
        let in_path = |v: VarId| path_vars.contains(&v);
        let in_clique = |v: VarId| clique_vars.contains(&v);

        let mut path_filters = Vec::new();
        let mut clique_filters = Vec::new();
        for &(x, y) in &query.filters {
            if in_path(x) && in_path(y) {
                path_filters.push((x, y));
            } else if in_clique(x) && in_clique(y) {
                clique_filters.push((x, y));
            } else {
                return Err("an order filter straddles the path/clique split".to_string());
            }
        }

        // --- clique part: bound for LFTJ, grouped by the shared vertex -----------
        let clique_query = build_subquery(
            &format!("{}-clique", query.name),
            query,
            &clique_atoms,
            &clique_filters,
        );
        let clique_joint = clique_query
            .var(&query.var_names[joint])
            .ok_or_else(|| "the shared variable is missing from the clique subquery".to_string())?;
        // Put the shared vertex first in the clique GAO so groups are contiguous.
        let mut clique_gao: Vec<VarId> = vec![clique_joint];
        clique_gao.extend((0..clique_query.num_vars()).filter(|&v| v != clique_joint));
        let (clique_bq, clique_report) =
            BoundQuery::with_cache(instance, &clique_query, Some(clique_gao), cache, threads)?;

        // --- path part: bound for Minesweeper ------------------------------------
        let path_query =
            build_subquery(&format!("{}-path", query.name), query, &path_atoms, &path_filters);
        let path_joint = path_query
            .var(&query.var_names[joint])
            .ok_or_else(|| "the shared variable is missing from the path subquery".to_string())?;
        let (path_bq, path_report) =
            BoundQuery::with_cache(instance, &path_query, None, cache, threads)?;
        let path_joint_gao_pos = path_bq.var_pos[path_joint];

        let report = BindReport {
            indexes_built: clique_report.indexes_built + path_report.indexes_built,
            build_threads: clique_report.build_threads.max(path_report.build_threads),
        };
        Ok((HybridPlan { clique_bq, path_bq, path_joint_gao_pos }, report))
    }

    /// Executes the plan: LFTJ counts, for every value of the shared vertex, the
    /// number of clique completions; Minesweeper enumerates the path bindings and
    /// each one contributes the pre-computed clique count of its endpoint.
    pub fn count(&self, config: &MsConfig) -> u64 {
        self.count_ctx(config, &ExecCtx::none())
    }

    /// [`count`](Self::count) under an execution context: both sub-engine runs poll
    /// `ctx` at their coarse check stride and stop cleanly on a trip. An aborted
    /// run returns a meaningless partial total — the caller must consult the
    /// context's monitor before using it.
    pub fn count_ctx(&self, config: &MsConfig, ctx: &ExecCtx<'_>) -> u64 {
        let mut clique_counts: HashMap<i64, u64> = HashMap::new();
        let all = Morsel::whole_axis();
        let mut clique = gj_lftj::LftjExecutor::new(&self.clique_bq);
        clique.run_range_ctx(all.lo, all.hi, ctx, &mut |binding| {
            *clique_counts.entry(binding[0]).or_insert(0) += 1;
            ControlFlow::Continue(())
        });

        // An Idea 8 run shares every path value but the last, so it carries one
        // shared-vertex value only when that vertex is not the last attribute.
        let joint_is_last = self.path_joint_gao_pos + 1 == self.path_bq.num_vars();
        let config = MsConfig {
            idea8_batch_counting: config.idea8_batch_counting && !joint_is_last,
            ..config.clone()
        };
        let mut total = 0u64;
        let mut path = MinesweeperExecutor::new(&self.path_bq, config);
        path.run_range_ctx(all.lo, all.hi, ctx, &mut |binding, multiplicity| {
            let joint_value = binding[self.path_joint_gao_pos];
            total += multiplicity * clique_counts.get(&joint_value).copied().unwrap_or(0);
            ControlFlow::Continue(())
        });
        total
    }
}

/// Counts the output of `query` over `instance` with the hybrid algorithm — the
/// one-shot convenience over [`HybridPlan`] (prepare + execute in one call).
pub fn hybrid_count(
    instance: &Instance,
    query: &Query,
    split: usize,
    config: &MsConfig,
) -> Result<u64, String> {
    Ok(HybridPlan::new(instance, query, split)?.count(config))
}

/// Rebuilds a sub-query from a subset of atoms and filters, keeping the original
/// variable names (ids are re-assigned by first use).
fn build_subquery(
    name: &str,
    query: &Query,
    atoms: &[&gj_query::Atom],
    filters: &[(VarId, VarId)],
) -> Query {
    let mut builder = QueryBuilder::new(name);
    for atom in atoms {
        let names: Vec<&str> = atom.vars.iter().map(|&v| query.var_names[v].as_str()).collect();
        builder = builder.atom(&atom.relation, &names);
    }
    for &(x, y) in filters {
        builder = builder.lt(&query.var_names[x], &query.var_names[y]);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{naive_count, CatalogQuery};
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
        inst.add_relation("v1", Relation::from_values((0..n as i64).step_by(4)));
        inst.add_relation("v2", Relation::from_values((0..n as i64).step_by(2)));
        inst
    }

    #[test]
    fn hybrid_matches_naive_on_two_lollipop() {
        let inst = random_instance(21, 26, 0.18);
        let cq = CatalogQuery::TwoLollipop;
        let q = cq.query();
        let expected = naive_count(&inst, &q);
        let got =
            hybrid_count(&inst, &q, cq.hybrid_split().unwrap(), &MsConfig::default()).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn hybrid_matches_naive_on_three_lollipop() {
        let inst = random_instance(22, 18, 0.25);
        let cq = CatalogQuery::ThreeLollipop;
        let q = cq.query();
        let expected = naive_count(&inst, &q);
        let got =
            hybrid_count(&inst, &q, cq.hybrid_split().unwrap(), &MsConfig::default()).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn hybrid_matches_lftj_and_minesweeper() {
        let inst = random_instance(23, 30, 0.15);
        let cq = CatalogQuery::TwoLollipop;
        let q = cq.query();
        let bq = BoundQuery::new(&inst, &q, None).unwrap();
        let lftj = gj_lftj::count(&bq);
        let ms = crate::engine::count(&bq, &MsConfig::default());
        let hybrid =
            hybrid_count(&inst, &q, cq.hybrid_split().unwrap(), &MsConfig::default()).unwrap();
        assert_eq!(lftj, ms);
        assert_eq!(hybrid, lftj);
    }

    #[test]
    fn out_of_range_splits_are_rejected_and_alternative_splits_stay_correct() {
        let inst = random_instance(24, 14, 0.3);
        let q = CatalogQuery::TwoLollipop.query();
        assert!(hybrid_count(&inst, &q, 0, &MsConfig::default()).is_err());
        assert!(hybrid_count(&inst, &q, 99, &MsConfig::default()).is_err());
        // Splitting after `b` instead of `c` is also legal (the "clique" side is then
        // the triangle plus one pendant edge) and must give the same answer.
        let expected = naive_count(&inst, &q);
        assert_eq!(hybrid_count(&inst, &q, 2, &MsConfig::default()).unwrap(), expected);
        assert_eq!(hybrid_count(&inst, &q, 3, &MsConfig::default()).unwrap(), expected);
    }

    #[test]
    fn triangle_cannot_be_split() {
        let inst = random_instance(25, 10, 0.3);
        let q = CatalogQuery::ThreeClique.query();
        assert!(hybrid_count(&inst, &q, 1, &MsConfig::default()).is_err());
    }
}
