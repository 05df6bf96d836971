//! Graph containers: edge lists and CSR adjacency.
//!
//! The paper's workloads are graph-pattern queries over a single `edge(a, b)`
//! relation derived from SNAP graphs. [`Graph`] is the loader-side container
//! (deduplicated edge list with optional symmetrisation), and [`Csr`] is the
//! compressed-sparse-row adjacency view used by the specialised graph-engine baseline
//! (the GraphLab stand-in) and by the data generators when they need neighbourhood
//! queries.

use crate::relation::Relation;
use crate::value::Val;

/// An undirected or directed graph stored as a deduplicated edge list.
///
/// Node identifiers are dense `0..num_nodes`. Self-loops are dropped on construction
/// because none of the paper's pattern queries admit them (every query binds distinct
/// nodes through `<` filters or distinct sample predicates).
#[derive(Debug, Clone)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph from raw edges. Self-loops are removed and duplicate edges are
    /// collapsed. `num_nodes` must be larger than every endpoint.
    pub fn new(num_nodes: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.retain(|&(a, b)| a != b);
        for &(a, b) in &edges {
            assert!(
                (a as usize) < num_nodes && (b as usize) < num_nodes,
                "edge ({a}, {b}) out of range for {num_nodes} nodes"
            );
        }
        edges.sort_unstable();
        edges.dedup();
        Graph { num_nodes, edges }
    }

    /// Builds an undirected graph: both orientations of every edge are kept so that
    /// the `edge` relation is symmetric, matching how the paper treats graphs as
    /// undirected for the clique queries.
    pub fn new_undirected(num_nodes: usize, edges: Vec<(u32, u32)>) -> Self {
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for (a, b) in edges {
            if a == b {
                continue;
            }
            sym.push((a, b));
            sym.push((b, a));
        }
        Graph::new(num_nodes, sym)
    }

    /// Derives a graph from a binary `edge(a, b)` relation, the inverse of
    /// [`Graph::edge_relation`]. The node count is one past the largest
    /// endpoint. An endpoint outside `u32` is returned as the offending row.
    pub fn from_edge_relation(rel: &Relation) -> Result<Graph, (Val, Val)> {
        let mut edges = Vec::with_capacity(rel.len());
        let mut num_nodes = 0;
        for row in rel.iter() {
            let (Ok(a), Ok(b)) = (u32::try_from(row[0]), u32::try_from(row[1])) else {
                return Err((row[0], row[1]));
            };
            num_nodes = num_nodes.max(a.max(b) as usize + 1);
            edges.push((a, b));
        }
        Ok(Graph::new(num_nodes, edges))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of stored (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges (each symmetric pair counted once).
    pub fn num_undirected_edges(&self) -> usize {
        self.edges.iter().filter(|&&(a, b)| a < b).count()
    }

    /// The sorted, deduplicated edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Converts the edge list into the binary `edge(a, b)` relation used by the join
    /// engines.
    pub fn edge_relation(&self) -> Relation {
        Relation::from_pairs(self.edges.iter().map(|&(a, b)| (a as Val, b as Val)))
    }

    /// Converts only the `a < b` orientation into a relation (useful for queries that
    /// already impose an order on the pattern's nodes).
    pub fn oriented_edge_relation(&self) -> Relation {
        Relation::from_pairs(
            self.edges.iter().filter(|&&(a, b)| a < b).map(|&(a, b)| (a as Val, b as Val)),
        )
    }

    /// Keeps only the first `n` edges in `(a, b)` sorted order, mirroring the paper's
    /// "LiveJournal subset of N edges" scaling experiment (Figures 6 and 7).
    pub fn edge_prefix(&self, n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = self.edges.iter().copied().take(n).collect();
        Graph::new(self.num_nodes, edges)
    }

    /// Builds the CSR adjacency view.
    pub fn to_csr(&self) -> Csr {
        Csr::from_graph(self)
    }

    /// Counts triangles, treating the graph as undirected. Used to validate that the
    /// synthetic datasets land in the same clique-richness regime as the SNAP graphs
    /// they stand in for.
    pub fn triangle_count(&self) -> u64 {
        self.to_csr().triangle_count()
    }
}

/// Compressed-sparse-row adjacency with sorted neighbour lists.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Csr {
    /// Builds the CSR from a graph's directed edge list.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut degree = vec![0usize; n];
        for &(a, _) in g.edges() {
            degree[a as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut neighbors = vec![0u32; g.num_edges()];
        let mut cursor = offsets.clone();
        for &(a, b) in g.edges() {
            neighbors[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
        }
        // Edge list is sorted by (a, b), so each neighbour run is already sorted.
        Csr { offsets, neighbors }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbour list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the directed edge `(a, b)` exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Size of the intersection of two sorted neighbour lists.
    pub fn intersection_count(xs: &[u32], ys: &[u32]) -> u64 {
        let mut i = 0;
        let mut j = 0;
        let mut count = 0;
        while i < xs.len() && j < ys.len() {
            match xs[i].cmp(&ys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Triangle count via the node-iterator algorithm (each triangle counted once,
    /// graph treated as undirected / symmetric).
    pub fn triangle_count(&self) -> u64 {
        let n = self.num_nodes();
        let mut count = 0u64;
        for a in 0..n as u32 {
            let na = self.neighbors(a);
            for &b in na.iter().filter(|&&b| b > a) {
                let nb = self.neighbors(b);
                // Count common neighbours c with c > b to count each triangle once.
                let start_a = na.partition_point(|&x| x <= b);
                let start_b = nb.partition_point(|&x| x <= b);
                count += Self::intersection_count(&na[start_a..], &nb[start_b..]);
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> Graph {
        // Triangle 0-1-2 plus a pendant 2-3.
        Graph::new_undirected(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn undirected_construction_symmetrises() {
        let g = small_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.num_undirected_edges(), 4);
        assert!(g.edges().contains(&(1, 0)));
        assert!(g.edges().contains(&(0, 1)));
    }

    #[test]
    fn self_loops_and_duplicates_removed() {
        let g = Graph::new(3, vec![(0, 0), (0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_relation_roundtrip() {
        let g = small_graph();
        let r = g.edge_relation();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 8);
        assert!(r.contains(&[3, 2]));
        let oriented = g.oriented_edge_relation();
        assert_eq!(oriented.len(), 4);
        assert!(oriented.contains(&[0, 1]));
        assert!(!oriented.contains(&[1, 0]));
    }

    #[test]
    fn from_edge_relation_sizes_the_graph_by_its_largest_endpoint() {
        let g = Graph::from_edge_relation(&small_graph().edge_relation()).unwrap();
        assert_eq!((g.num_nodes(), g.edges()), (4, small_graph().edges()));
        let far = Relation::from_pairs(vec![(0, 9), (9, 0)]);
        assert_eq!(Graph::from_edge_relation(&far).unwrap().num_nodes(), 10);
        assert_eq!(Graph::from_edge_relation(&Relation::empty(2)).unwrap().num_nodes(), 0);
        let negative = Relation::from_pairs(vec![(-1, 0)]);
        assert_eq!(Graph::from_edge_relation(&negative).unwrap_err(), (-1, 0));
    }

    #[test]
    fn csr_neighbors_sorted() {
        let csr = small_graph().to_csr();
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
        assert_eq!(csr.degree(0), 2);
        assert!(csr.has_edge(0, 2));
        assert!(!csr.has_edge(0, 3));
    }

    #[test]
    fn triangle_count_small() {
        assert_eq!(small_graph().triangle_count(), 1);
        // K4 has 4 triangles.
        let k4 = Graph::new_undirected(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(k4.triangle_count(), 4);
        // A path has none.
        let path = Graph::new_undirected(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(path.triangle_count(), 0);
    }

    #[test]
    fn edge_prefix_truncates() {
        let g = small_graph();
        let sub = g.edge_prefix(3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.num_nodes(), g.num_nodes());
    }

    #[test]
    fn intersection_count_basic() {
        assert_eq!(Csr::intersection_count(&[1, 3, 5, 7], &[2, 3, 5, 8]), 2);
        assert_eq!(Csr::intersection_count(&[], &[1, 2]), 0);
    }
}
