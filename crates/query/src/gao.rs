//! Global attribute orders (GAOs), nested elimination orders (NEOs), and the
//! β-acyclic skeleton.
//!
//! Both join algorithms process variables in one *global attribute order* shared by
//! every index of a query (Section 4.1). The engines choose that order differently:
//!
//! * Minesweeper and the hybrid use [`select_gao`]. For Minesweeper the GAO
//!   additionally has to be a *nested elimination order* when the query is
//!   β-acyclic, so that the set of CDS nodes constraining each prefix is a chain
//!   (Proposition 4.2); the paper further picks the NEO "with the longest path
//!   length" because longer equality prefixes give the CDS more caching
//!   opportunities (Section 4.9, Table 4).
//! * LFTJ needs no NEO, so it uses [`lftj_gao`]: a greedy order that estimates
//!   each variable's candidate count from per-column distinct counts and binds the
//!   most selective join variable first.
//!
//! For β-cyclic queries Minesweeper falls back to Idea 7: it chooses a β-acyclic
//! *skeleton* of the atoms (a spanning forest of the pattern graph plus every unary
//! atom); only skeleton atoms insert constraints into the CDS
//! ([`acyclic_skeleton`]).
//!
//! The NEO helpers are defined for queries whose atoms are unary or binary — which
//! covers every graph-pattern query in the paper. (`is_neo` on a query with a wider
//! atom conservatively returns `false`.)

use crate::bind::Instance;
use crate::hypergraph::Hypergraph;
use crate::query::{Atom, Query, VarId};
use std::collections::VecDeque;

/// Whether `gao` is a nested elimination order for the (unary/binary) query `q`.
///
/// For a pattern graph this is the condition that every variable has **at most one
/// neighbour that precedes it** in the order: the CDS constraints that restrict a
/// variable then all carry equalities on the same earlier position (or none), so the
/// nodes generalising any prefix form a chain.
pub fn is_neo(q: &Query, gao: &[VarId]) -> bool {
    if q.atoms.iter().any(|a| a.arity() > 2) {
        return false;
    }
    let h = Hypergraph::of_query(q);
    let adj = h.graph_adjacency();
    let mut pos = vec![usize::MAX; q.num_vars()];
    for (i, &v) in gao.iter().enumerate() {
        pos[v] = i;
    }
    for &v in gao {
        let earlier_neighbors = adj[v].iter().filter(|&&u| pos[u] < pos[v]).count();
        if earlier_neighbors > 1 {
            return false;
        }
    }
    true
}

/// Selects Minesweeper's (and the hybrid's) GAO for a query, following the paper's
/// heuristics (LFTJ estimates its own order with [`lftj_gao`]):
///
/// * β-acyclic (forest) pattern: the NEO that follows the longest path of the pattern
///   graph (path vertices first, in path order; remaining vertices appended in BFS
///   order from the path; other components likewise). This is the "NEO with the
///   longest path length" of Section 4.9.
/// * β-cyclic pattern: the natural variable order of the query (the order in which
///   the Datalog formulation introduces the variables), which for the lollipop
///   queries also puts the path prefix before the clique — what the hybrid algorithm
///   of Section 4.12 expects.
pub fn select_gao(q: &Query) -> Vec<VarId> {
    let h = Hypergraph::of_query(q);
    let n = q.num_vars();
    if h.is_graph_forest() != Some(true) {
        return (0..n).collect();
    }
    let adj = h.graph_adjacency();
    let mut visited = vec![false; n];
    let mut order: Vec<VarId> = Vec::with_capacity(n);

    // Component representatives, processed largest-diameter first.
    let mut components: Vec<Vec<VarId>> = Vec::new();
    {
        let mut seen = vec![false; n];
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([s]);
            seen[s] = true;
            while let Some(v) = queue.pop_front() {
                comp.push(v);
                for &u in &adj[v] {
                    if !seen[u] {
                        seen[u] = true;
                        queue.push_back(u);
                    }
                }
            }
            components.push(comp);
        }
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));

    for comp in components {
        if comp.len() == 1 {
            let v = comp[0];
            if !visited[v] {
                visited[v] = true;
                order.push(v);
            }
            continue;
        }
        // Double BFS to find a diameter path of this tree component.
        let far = |start: VarId| -> (VarId, Vec<Option<VarId>>) {
            let mut dist = vec![usize::MAX; n];
            let mut pred = vec![None; n];
            let mut queue = VecDeque::from([start]);
            dist[start] = 0;
            let mut last = start;
            while let Some(v) = queue.pop_front() {
                last = v;
                for &u in &adj[v] {
                    if dist[u] == usize::MAX && comp.contains(&u) {
                        dist[u] = dist[v] + 1;
                        pred[u] = Some(v);
                        queue.push_back(u);
                    }
                }
            }
            (last, pred)
        };
        let (end_a, _) = far(comp[0]);
        let (end_b, pred) = far(end_a);
        // Reconstruct the path end_a .. end_b.
        let mut path = vec![end_b];
        while let Some(p) = pred[*path.last().unwrap()] {
            path.push(p);
        }
        path.reverse();

        for &v in &path {
            if !visited[v] {
                visited[v] = true;
                order.push(v);
            }
        }
        // Hang the rest of the component off the path in BFS order (each vertex is
        // enqueued by its unique already-ordered neighbour, so the result is a NEO).
        let mut queue: VecDeque<VarId> = path.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if comp.contains(&u) && !visited[u] {
                    visited[u] = true;
                    order.push(u);
                    queue.push_back(u);
                }
            }
        }
    }
    // Variables that appear only in unary atoms (or nowhere) go last.
    for (v, &seen) in visited.iter().enumerate() {
        if !seen {
            order.push(v);
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Chooses LFTJ's GAO for `q` over `instance`: selective join variables first.
///
/// Variables that occur in two or more atoms come before the others. Within each
/// group the order is greedy: the next variable is the unbound one with the
/// smallest estimated candidate count, the minimum over its atoms of
///
/// * `distinct(column)` when no other column of the atom is bound yet, and
/// * `min(distinct(column), max(1, |R| / max distinct(bound column)))` otherwise
///   (the mean fan-out of the bound prefix).
///
/// Estimates with the same `⌊log2⌋` (within 2× of each other) tie, and ties go to
/// the lowest `VarId`, i.e. to first appearance in the query. The statistics are
/// [`Relation::column_distinct`](gj_storage::Relation::column_distinct), computed
/// once per relation value.
///
/// An invalid query, a missing relation or an arity mismatch yields the natural
/// order, so that binding reports the error as it would for any other order.
pub fn lftj_gao(q: &Query, instance: &Instance) -> Vec<VarId> {
    let n = q.num_vars();
    let relations: Result<Vec<_>, _> = q.atoms.iter().map(|a| instance.atom_relation(a)).collect();
    let (Ok(()), Ok(relations)) = (q.validate(), relations) else {
        return (0..n).collect();
    };
    let mut bound = vec![false; n];
    let estimate = |v: VarId, bound: &[bool]| {
        let per_atom = q.atoms.iter().zip(&relations).filter_map(|(atom, rel)| {
            let col = atom.vars.iter().position(|&u| u == v)?;
            let distinct = rel.column_distinct(col);
            let bound_distinct = (0..atom.arity())
                .filter(|&c| bound[atom.vars[c]])
                .map(|c| rel.column_distinct(c))
                .max();
            Some(match bound_distinct {
                None => distinct,
                Some(b) => distinct.min((rel.len() / b.max(1)).max(1)),
            })
        });
        per_atom.min().unwrap_or(usize::MAX)
    };
    let occurrences: Vec<usize> =
        (0..n).map(|v| q.atoms.iter().filter(|a| a.contains(v)).count()).collect();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let next = (0..n)
            .filter(|&v| !bound[v])
            .min_by_key(|&v| {
                let log2_bucket = usize::BITS - estimate(v, &bound).leading_zeros();
                (occurrences[v] < 2, log2_bucket, v)
            })
            .expect("an unbound variable remains");
        bound[next] = true;
        order.push(next);
    }
    order
}

/// The column permutation that indexes `atom`'s relation consistently with `gao`:
/// output level `d` of the trie is the atom column holding the `d`-th of the atom's
/// variables in GAO order.
///
/// For example, for the triangle query with GAO `B, A, C`, the atom `R(A, B)` is
/// indexed in the `(B, A)` order, i.e. permutation `[1, 0]`.
pub fn atom_index_perm(atom: &Atom, gao: &[VarId]) -> Vec<usize> {
    let mut pos = vec![usize::MAX; gao.len()];
    for (i, &v) in gao.iter().enumerate() {
        pos[v] = i;
    }
    let mut cols: Vec<usize> = (0..atom.arity()).collect();
    cols.sort_by_key(|&c| pos[atom.vars[c]]);
    cols
}

/// The atom's variables reordered by GAO position (the variable of trie level `d`).
pub fn atom_gao_vars(atom: &Atom, gao: &[VarId]) -> Vec<VarId> {
    atom_index_perm(atom, gao).into_iter().map(|c| atom.vars[c]).collect()
}

/// Chooses a β-acyclic skeleton of the query for Idea 7: all unary atoms plus a
/// spanning forest of the binary atoms (greedy, in atom order, skipping any atom that
/// would close a cycle — including a second atom over the same variable pair).
///
/// Returns one flag per atom: `true` if the atom is part of the skeleton (its gaps
/// are inserted into the CDS), `false` if it only advances the frontier.
pub fn acyclic_skeleton(q: &Query) -> Vec<bool> {
    let n = q.num_vars();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, v: usize) -> usize {
        if parent[v] != v {
            let root = find(parent, parent[v]);
            parent[v] = root;
        }
        parent[v]
    }
    q.atoms
        .iter()
        .map(|atom| {
            if atom.arity() != 2 {
                return true;
            }
            let (a, b) = (atom.vars[0], atom.vars[1]);
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra == rb {
                false
            } else {
                parent[ra] = rb;
                true
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::BoundQuery;
    use crate::catalog::CatalogQuery;
    use crate::ldbc::LdbcQuery;
    use crate::query::QueryBuilder;
    use gj_datagen::{powerlaw_cluster, LdbcConfig, SocialNetwork};
    use gj_storage::Relation;

    fn names<'q>(q: &'q Query, gao: &[VarId]) -> Vec<&'q str> {
        gao.iter().map(|&v| q.var_names[v].as_str()).collect()
    }

    #[test]
    fn lftj_gao_puts_join_variables_before_single_atom_variables() {
        // x has one distinct value but occurs in one atom only, so it goes last.
        let q = QueryBuilder::new("q")
            .atom("r", &["x", "a"])
            .atom("s", &["a", "b"])
            .atom("u", &["b"])
            .build();
        let mut inst = Instance::new();
        inst.add_relation("r", Relation::from_pairs((0..8).map(|i| (0, i))));
        inst.add_relation("s", Relation::from_pairs((0..64).map(|i| (i / 8, i % 8))));
        inst.add_relation("u", Relation::from_values(0..8));
        assert_eq!(names(&q, &lftj_gao(&q, &inst)), ["a", "b", "x"]);
    }

    #[test]
    fn lftj_gao_ties_estimates_within_2x_to_the_first_variable() {
        let q = QueryBuilder::new("q")
            .atom("r", &["a"])
            .atom("s", &["b"])
            .atom("t", &["a", "b"])
            .build();
        let t = Relation::from_pairs((0..16).flat_map(|i| (0..16).map(move |j| (i, j))));
        let with_sizes = |r: i64, s: i64| {
            let mut inst = Instance::new();
            inst.add_relation("r", Relation::from_values(0..r));
            inst.add_relation("s", Relation::from_values(0..s));
            inst.add_relation("t", t.clone());
            lftj_gao(&q, &inst)
        };
        // 6 and 4 candidates share ⌊log2⌋ = 2: a tie, so declaration order.
        assert_eq!(names(&q, &with_sizes(6, 4)), ["a", "b"]);
        // 9 against 4 is more than 2× apart: the smaller estimate goes first.
        assert_eq!(names(&q, &with_sizes(9, 4)), ["b", "a"]);
    }

    #[test]
    fn lftj_gao_starts_two_hop_friends_at_the_sampled_person() {
        let net = SocialNetwork::generate(&LdbcConfig {
            persons: 120,
            person_selectivity: 4,
            ..LdbcConfig::default()
        })
        .expect("valid config");
        let mut inst = Instance::new();
        for (name, rel) in net.relations() {
            inst.add_relation(*name, rel.clone());
        }
        let q = LdbcQuery::TwoHopFriends.query();
        assert_eq!(names(&q, &lftj_gao(&q, &inst)), ["a", "b", "c"]);
        // The NEO order starts at the other end of the path.
        assert_eq!(names(&q, &select_gao(&q)), ["c", "b", "a"]);
    }

    #[test]
    fn lftj_gao_keeps_the_natural_order_of_cyclic_queries_on_a_symmetric_edge() {
        let mut inst = Instance::new();
        inst.add_relation("edge", powerlaw_cluster(300, 4, 0.3, 7).edge_relation());
        for cq in [CatalogQuery::ThreeClique, CatalogQuery::FourClique, CatalogQuery::FourCycle] {
            let q = cq.query();
            assert_eq!(lftj_gao(&q, &inst), select_gao(&q), "{}", q.name);
        }
    }

    #[test]
    fn lftj_gao_leaves_bind_errors_and_empty_relations_alone() {
        let q = LdbcQuery::TwoHopFriends.query();
        let bind_error = |inst: &Instance| {
            let chosen = BoundQuery::new(inst, &q, Some(lftj_gao(&q, inst))).map(|_| ());
            assert_eq!(chosen, BoundQuery::new(inst, &q, None).map(|_| ()));
            chosen
        };
        let mut inst = Instance::new();
        inst.add_relation("knows", Relation::empty(2));
        assert!(bind_error(&inst).unwrap_err().contains("personSample"));
        inst.add_relation("personSample", Relation::empty(2));
        assert!(bind_error(&inst).unwrap_err().contains("arity"));
        inst.add_relation("personSample", Relation::empty(1));
        assert_eq!(bind_error(&inst), Ok(()));
        let mut gao = lftj_gao(&q, &inst);
        gao.sort_unstable();
        assert_eq!(gao, [0, 1, 2]);
    }

    #[test]
    fn four_path_neo_classification_matches_table4() {
        let q = CatalogQuery::FourPath.query();
        let v = |name: &str| q.var(name).unwrap();
        let order = |names: &[&str]| names.iter().map(|n| v(n)).collect::<Vec<_>>();
        // NEO GAOs from Table 4.
        for names in [
            ["a", "b", "c", "d", "e"],
            ["b", "a", "c", "d", "e"],
            ["b", "c", "a", "d", "e"],
            ["c", "b", "a", "d", "e"],
            ["c", "b", "d", "a", "e"],
        ] {
            assert!(is_neo(&q, &order(&names)), "{names:?} should be a NEO");
        }
        // non-NEO GAOs from Table 4.
        for names in [["a", "b", "d", "c", "e"], ["b", "a", "d", "c", "e"]] {
            assert!(!is_neo(&q, &order(&names)), "{names:?} should not be a NEO");
        }
    }

    #[test]
    fn selected_gao_for_four_path_is_the_path_order() {
        let q = CatalogQuery::FourPath.query();
        let gao = select_gao(&q);
        let names: Vec<&str> = gao.iter().map(|&v| q.var_names[v].as_str()).collect();
        assert!(names == ["a", "b", "c", "d", "e"] || names == ["e", "d", "c", "b", "a"]);
        assert!(is_neo(&q, &gao));
    }

    #[test]
    fn selected_gao_is_neo_for_all_acyclic_catalog_queries() {
        for cq in CatalogQuery::all() {
            let q = cq.query();
            let gao = select_gao(&q);
            assert_eq!(gao.len(), q.num_vars());
            if !cq.is_cyclic() {
                assert!(is_neo(&q, &gao), "selected GAO for {} must be a NEO", q.name);
            }
        }
    }

    #[test]
    fn cyclic_queries_keep_natural_order() {
        let q = CatalogQuery::TwoLollipop.query();
        let gao = select_gao(&q);
        assert_eq!(gao, (0..q.num_vars()).collect::<Vec<_>>());
    }

    #[test]
    fn atom_perm_follows_gao() {
        // Triangle with GAO B, A, C: R(A,B) indexed as (B,A), S(B,C) as (B,C), T(A,C) as (A,C).
        let q = QueryBuilder::new("triangle")
            .atom("r", &["a", "b"])
            .atom("s", &["b", "c"])
            .atom("t", &["a", "c"])
            .build();
        let (a, b, c) = (q.var("a").unwrap(), q.var("b").unwrap(), q.var("c").unwrap());
        let gao = vec![b, a, c];
        assert_eq!(atom_index_perm(&q.atoms[0], &gao), vec![1, 0]);
        assert_eq!(atom_index_perm(&q.atoms[1], &gao), vec![0, 1]);
        assert_eq!(atom_index_perm(&q.atoms[2], &gao), vec![0, 1]);
        assert_eq!(atom_gao_vars(&q.atoms[0], &gao), vec![b, a]);
    }

    #[test]
    fn skeleton_of_acyclic_query_is_everything() {
        let q = CatalogQuery::FourPath.query();
        assert!(acyclic_skeleton(&q).iter().all(|&x| x));
    }

    #[test]
    fn skeleton_of_triangle_drops_one_edge() {
        let q = CatalogQuery::ThreeClique.query();
        let skel = acyclic_skeleton(&q);
        assert_eq!(skel.iter().filter(|&&x| x).count(), 2);
        // The skeleton must itself be a forest.
        let kept = q
            .atoms
            .iter()
            .zip(&skel)
            .filter(|(_, &k)| k)
            .map(|(a, _)| a.clone())
            .collect::<Vec<_>>();
        let sub = Query {
            name: "skel".into(),
            var_names: q.var_names.clone(),
            atoms: kept,
            filters: vec![],
        };
        assert_eq!(Hypergraph::of_query(&sub).is_graph_forest(), Some(true));
    }

    #[test]
    fn skeleton_of_lollipop_keeps_path_and_spanning_tree_of_clique() {
        let q = CatalogQuery::TwoLollipop.query();
        let skel = acyclic_skeleton(&q);
        // v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e) are kept; edge(c,e) closes
        // the triangle and is dropped.
        assert_eq!(skel, vec![true, true, true, true, true, false]);
    }
}
