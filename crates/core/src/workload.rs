//! Workload assembly: dataset + query + selectivity → ready-to-run [`Database`].
//!
//! The paper's experiments are always "run query Q over dataset D, with node samples
//! of selectivity s" (Section 5.1). [`Workload`] captures that triple and
//! [`workload_database`] materialises it: it generates (or accepts) the graph, draws
//! the `v1 … vk` samples the query needs, and loads everything into a [`Database`].

use crate::database::Database;
use gj_datagen::{sample_relations, Dataset};
use gj_query::CatalogQuery;
use gj_storage::Graph;
use std::borrow::Borrow;

/// One experimental cell: a dataset, a query and a sample selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The dataset (synthetic SNAP stand-in).
    pub dataset: Dataset,
    /// The benchmark query.
    pub query: CatalogQuery,
    /// Selectivity of the node samples (`1/selectivity` keep probability); ignored by
    /// queries without sample predicates.
    pub selectivity: u32,
    /// Seed for the sample draws (the paper redraws samples across runs).
    pub seed: u64,
}

impl Workload {
    /// Creates a workload with the default seed.
    pub fn new(dataset: Dataset, query: CatalogQuery, selectivity: u32) -> Self {
        Workload { dataset, query, selectivity, seed: 0x5eed }
    }

    /// Materialises the workload at the dataset's default scale.
    pub fn database(&self) -> Database {
        let graph = self.dataset.generate();
        self.database_over(graph)
    }

    /// Materialises the workload over an explicitly provided graph (used by the
    /// scaling experiments, which reuse one generated graph across many subsets).
    pub fn database_over(&self, graph: impl Borrow<Graph>) -> Database {
        workload_database(graph, self.query, self.selectivity, self.seed)
    }
}

/// Builds a [`Database`] holding `graph`'s edge relation plus the node samples the
/// query requires, drawn with the given selectivity and seed. Accepts an owned,
/// borrowed or shared [`Graph`]; the database keeps only its edge relation.
pub fn workload_database(
    graph: impl Borrow<Graph>,
    query: CatalogQuery,
    selectivity: u32,
    seed: u64,
) -> Database {
    let graph = graph.borrow();
    let mut db = Database::new();
    let num_nodes = graph.num_nodes();
    db.add_graph(graph);
    let needed = query.sample_relations().len();
    for (name, relation) in sample_relations(num_nodes, selectivity, needed, seed) {
        db.add_relation(name, relation);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Engine;
    use std::sync::Arc;

    #[test]
    fn workload_database_has_every_relation_the_query_needs() {
        let graph = Arc::new(Graph::new_undirected(100, (0..99).map(|i| (i, i + 1)).collect()));
        for cq in CatalogQuery::all() {
            let db = workload_database(Arc::clone(&graph), cq, 4, 7);
            let q = cq.query();
            for name in q.relation_names() {
                assert!(db.instance().relation(name).is_some(), "{} missing {name}", q.name);
            }
            // Binding (and therefore every engine) must work.
            assert!(db.bind(&q, None).is_ok(), "{}", q.name);
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let graph = Graph::new_undirected(200, (0..199).map(|i| (i, i + 1)).collect());
        let w = Workload {
            dataset: Dataset::CaGrQc,
            query: CatalogQuery::ThreePath,
            selectivity: 10,
            seed: 3,
        };
        let graph = Arc::new(graph);
        let a = w.database_over(Arc::clone(&graph));
        let b = w.database_over(graph);
        let q = CatalogQuery::ThreePath.query();
        assert_eq!(a.count(&q, &Engine::Lftj).unwrap(), b.count(&q, &Engine::Lftj).unwrap());
    }

    #[test]
    fn selectivity_changes_the_result_size() {
        // A denser sample can only produce at least as many paths.
        let graph = Arc::new(Graph::new_undirected(300, (0..299).map(|i| (i, i + 1)).collect()));
        let q = CatalogQuery::ThreePath.query();
        let dense = workload_database(Arc::clone(&graph), CatalogQuery::ThreePath, 2, 11)
            .count(&q, &Engine::Lftj)
            .unwrap();
        let sparse = workload_database(graph, CatalogQuery::ThreePath, 50, 11)
            .count(&q, &Engine::Lftj)
            .unwrap();
        assert!(dense >= sparse, "dense {dense} sparse {sparse}");
    }

    #[test]
    fn small_workload_end_to_end() {
        let w = Workload::new(Dataset::CaGrQc, CatalogQuery::OneTree, 8);
        // Use a small explicit graph rather than the full dataset to keep the test fast.
        let graph = Graph::new_undirected(60, (0..59).map(|i| (i, (i * 7 + 1) % 60)).collect());
        let db = w.database_over(graph);
        let q = CatalogQuery::OneTree.query();
        let lftj = db.count(&q, &Engine::Lftj).unwrap();
        let ms = db.count(&q, &Engine::minesweeper()).unwrap();
        assert_eq!(lftj, ms);
    }
}
