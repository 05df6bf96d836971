//! The specialised graph-engine baseline (GraphLab stand-in).
//!
//! The paper compares against GraphLab's hand-written triangle counting program and a
//! community-written 4-clique program. Those are not general query processors: they
//! work directly on adjacency lists and support exactly those patterns. This module
//! provides the equivalent: clique counting by sorted-neighbourhood intersection over
//! the CSR representation — very fast, but nothing beyond cliques, which is precisely
//! the trade-off the paper discusses (specialised engines versus a general-purpose
//! engine with optimal joins).

use gj_runtime::{ExecCtx, ExecWatch};
use gj_storage::{Csr, Graph};

/// A graph loaded into the specialised engine.
#[derive(Debug, Clone)]
pub struct GraphEngine {
    csr: Csr,
}

impl GraphEngine {
    /// Loads a graph (treated as undirected; the CSR must be symmetric, which
    /// [`Graph::new_undirected`] guarantees).
    pub fn load(graph: &Graph) -> Self {
        GraphEngine { csr: graph.to_csr() }
    }

    /// Counts triangles with the node-iterator algorithm: for every edge `(a, b)`
    /// with `a < b`, count the common neighbours above `b`. Polls `ctx` once per
    /// edge and stops on a trip (an aborted run returns a partial count — the
    /// caller must consult the context's monitor).
    pub fn triangle_count(&self, ctx: &ExecCtx<'_>) -> u64 {
        let mut watch = ctx.watch();
        // A context with nothing to watch runs the tick-free loop.
        if watch.is_inert() {
            self.triangles::<false>(&mut watch)
        } else {
            self.triangles::<true>(&mut watch)
        }
    }

    /// Counts 4-cliques: for every triangle `a < b < c`, count the common
    /// neighbours `d > c` of all three vertices. Polls `ctx` as
    /// [`triangle_count`](Self::triangle_count) does.
    pub fn four_clique_count(&self, ctx: &ExecCtx<'_>) -> u64 {
        let mut watch = ctx.watch();
        if watch.is_inert() {
            self.four_cliques::<false>(&mut watch)
        } else {
            self.four_cliques::<true>(&mut watch)
        }
    }

    fn triangles<const WATCHED: bool>(&self, watch: &mut ExecWatch<'_>) -> u64 {
        let mut count = 0u64;
        for a in 0..self.csr.num_nodes() as u32 {
            let na = self.csr.neighbors(a);
            for &b in na.iter().filter(|&&b| b > a) {
                if WATCHED && watch.tick() {
                    return count;
                }
                count += Csr::intersection_count(above(na, b), above(self.csr.neighbors(b), b));
            }
        }
        count
    }

    fn four_cliques<const WATCHED: bool>(&self, watch: &mut ExecWatch<'_>) -> u64 {
        let mut count = 0u64;
        let mut common_ab: Vec<u32> = Vec::new();
        for a in 0..self.csr.num_nodes() as u32 {
            let na = self.csr.neighbors(a);
            for &b in na.iter().filter(|&&b| b > a) {
                if WATCHED && watch.tick() {
                    return count;
                }
                // Common neighbours of a and b that are greater than b.
                common_ab.clear();
                intersect_into(above(na, b), above(self.csr.neighbors(b), b), &mut common_ab);
                for (i, &c) in common_ab.iter().enumerate() {
                    let nc = self.csr.neighbors(c);
                    // d must be a common neighbour of a, b (i.e. in common_ab after c)
                    // and also adjacent to c.
                    let ds = common_ab[i + 1..].iter().filter(|d| nc.binary_search(d).is_ok());
                    count += ds.count() as u64;
                }
            }
        }
        count
    }
}

/// The part of a sorted list above `floor`.
fn above(xs: &[u32], floor: u32) -> &[u32] {
    &xs[xs.partition_point(|&x| x <= floor)..]
}

/// Pushes the intersection of two sorted lists into `out`.
fn intersect_into(xs: &[u32], ys: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_query::{naive_count, CatalogQuery, Instance};
    use gj_runtime::ExecMonitor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(seed: u64, n: u32, p: f64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        Graph::new_undirected(n as usize, edges)
    }

    #[test]
    fn k4_has_four_triangles_and_one_four_clique() {
        let k4 = Graph::new_undirected(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let engine = GraphEngine::load(&k4);
        assert_eq!(engine.triangle_count(&ExecCtx::none()), 4);
        assert_eq!(engine.four_clique_count(&ExecCtx::none()), 1);
    }

    #[test]
    fn k5_counts() {
        let edges: Vec<(u32, u32)> = (0..5).flat_map(|a| (a + 1..5).map(move |b| (a, b))).collect();
        let k5 = Graph::new_undirected(5, edges);
        let engine = GraphEngine::load(&k5);
        assert_eq!(engine.triangle_count(&ExecCtx::none()), 10); // C(5,3)
        assert_eq!(engine.four_clique_count(&ExecCtx::none()), 5); // C(5,4)
    }

    #[test]
    fn counts_agree_with_the_relational_definition() {
        let g = random_graph(41, 35, 0.3);
        let mut inst = Instance::new();
        inst.add_relation("edge", g.edge_relation());
        let engine = GraphEngine::load(&g);
        assert_eq!(
            engine.triangle_count(&ExecCtx::none()),
            naive_count(&inst, &CatalogQuery::ThreeClique.query())
        );
        assert_eq!(
            engine.four_clique_count(&ExecCtx::none()),
            naive_count(&inst, &CatalogQuery::FourClique.query())
        );
        // A context with a monitor runs the watched loops: same patterns, same counts.
        let monitor = ExecMonitor::unlimited();
        let watched = ExecCtx::with_monitor(&monitor);
        assert_eq!(engine.triangle_count(&watched), engine.triangle_count(&ExecCtx::none()));
        assert_eq!(engine.four_clique_count(&watched), engine.four_clique_count(&ExecCtx::none()));
    }

    #[test]
    fn triangle_free_graph_has_zero_counts() {
        // Bipartite graphs have no odd cycles, hence no triangles or 4-cliques.
        let edges: Vec<(u32, u32)> = (0..10).flat_map(|a| (10..20).map(move |b| (a, b))).collect();
        let g = Graph::new_undirected(20, edges);
        let engine = GraphEngine::load(&g);
        assert_eq!(engine.triangle_count(&ExecCtx::none()), 0);
        assert_eq!(engine.four_clique_count(&ExecCtx::none()), 0);
    }
}
