//! Join queries and atoms.
//!
//! A natural join query `Q = ⋈_{R ∈ atoms(Q)} R` is a set of [`Atom`]s over a shared
//! variable space (Section 2.1 of the paper). The graph-pattern benchmark queries
//! additionally carry *order filters* of the form `x < y` (e.g. `a < b < c` in the
//! triangle query) which deduplicate automorphic matches; engines apply them during
//! enumeration.

use std::collections::BTreeMap;
use std::fmt;

/// A query variable, identified by its index into [`Query::var_names`].
pub type VarId = usize;

/// One relational atom `R(x₁, …, x_k)` of a join query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Name of the relation symbol (e.g. `"edge"`, `"v1"`).
    pub relation: String,
    /// The variables of the atom, in the relation's column order.
    pub vars: Vec<VarId>,
}

impl Atom {
    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Whether the atom mentions `v`.
    pub fn contains(&self, v: VarId) -> bool {
        self.vars.contains(&v)
    }
}

/// A natural join query with optional `x < y` order filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Human-readable query name (e.g. `"3-clique"`).
    pub name: String,
    /// Variable names; `VarId` indexes into this vector.
    pub var_names: Vec<String>,
    /// The atoms of the query.
    pub atoms: Vec<Atom>,
    /// Order filters `(x, y)` meaning `x < y`.
    pub filters: Vec<(VarId, VarId)>,
}

impl Query {
    /// Number of variables `n = |vars(Q)|`.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of atoms `m = |atoms(Q)|`.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The `VarId` of a variable name, if it exists.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.var_names.iter().position(|n| n == name)
    }

    /// The atoms that mention variable `v`.
    pub fn atoms_with_var(&self, v: VarId) -> impl Iterator<Item = (usize, &Atom)> {
        self.atoms.iter().enumerate().filter(move |(_, a)| a.contains(v))
    }

    /// The set of distinct relation names referenced by the query.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.atoms.iter().map(|a| a.relation.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Checks that a candidate binding (one value per variable) satisfies every order
    /// filter.
    pub fn filters_satisfied(&self, binding: &[i64]) -> bool {
        self.filters.iter().all(|&(x, y)| binding[x] < binding[y])
    }

    /// Checks internal consistency: the query has an atom, every atom variable is
    /// in range, no atom repeats a variable, filters reference existing variables.
    pub fn validate(&self) -> Result<(), String> {
        if self.atoms.is_empty() {
            return Err("a query needs at least one atom".to_string());
        }
        for atom in &self.atoms {
            let mut seen = vec![false; self.num_vars()];
            for &v in &atom.vars {
                if v >= self.num_vars() {
                    return Err(format!("atom {} references unknown variable {v}", atom.relation));
                }
                if seen[v] {
                    return Err(format!(
                        "atom {} repeats variable {}",
                        atom.relation, self.var_names[v]
                    ));
                }
                seen[v] = true;
            }
        }
        for &(x, y) in &self.filters {
            if x >= self.num_vars() || y >= self.num_vars() {
                return Err("filter references unknown variable".to_string());
            }
            if x == y {
                return Err("filter compares a variable with itself".to_string());
            }
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let vars: Vec<&str> = a.vars.iter().map(|&v| self.var_names[v].as_str()).collect();
                format!("{}({})", a.relation, vars.join(", "))
            })
            .collect();
        let mut parts = atoms;
        for &(x, y) in &self.filters {
            parts.push(format!("{} < {}", self.var_names[x], self.var_names[y]));
        }
        write!(f, "{}: {}", self.name, parts.join(", "))
    }
}

/// Builder for [`Query`], mapping variable names to [`VarId`]s in order of first use.
///
/// ```
/// use gj_query::QueryBuilder;
///
/// let triangle = QueryBuilder::new("3-clique")
///     .atom("edge", &["a", "b"])
///     .atom("edge", &["b", "c"])
///     .atom("edge", &["a", "c"])
///     .lt("a", "b")
///     .lt("b", "c")
///     .build();
/// assert_eq!(triangle.num_vars(), 3);
/// assert_eq!(triangle.num_atoms(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    name: String,
    var_ids: BTreeMap<String, VarId>,
    var_names: Vec<String>,
    atoms: Vec<Atom>,
    filters: Vec<(VarId, VarId)>,
}

impl QueryBuilder {
    /// Starts a new query with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        QueryBuilder {
            name: name.into(),
            var_ids: BTreeMap::new(),
            var_names: Vec::new(),
            atoms: Vec::new(),
            filters: Vec::new(),
        }
    }

    fn var_id(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.var_ids.get(name) {
            return id;
        }
        let id = self.var_names.len();
        self.var_names.push(name.to_string());
        self.var_ids.insert(name.to_string(), id);
        id
    }

    /// Adds an atom `relation(vars…)`.
    pub fn atom(mut self, relation: &str, vars: &[&str]) -> Self {
        let vars = vars.iter().map(|v| self.var_id(v)).collect();
        self.atoms.push(Atom { relation: relation.to_string(), vars });
        self
    }

    /// Adds an order filter `x < y`.
    pub fn lt(mut self, x: &str, y: &str) -> Self {
        let x = self.var_id(x);
        let y = self.var_id(y);
        self.filters.push((x, y));
        self
    }

    /// Finishes the query. Panics if the query is not well formed.
    pub fn build(self) -> Query {
        let q = Query {
            name: self.name,
            var_names: self.var_names,
            atoms: self.atoms,
            filters: self.filters,
        };
        if let Err(e) = q.validate() {
            panic!("invalid query {}: {e}", q.name);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Query {
        QueryBuilder::new("3-clique")
            .atom("edge", &["a", "b"])
            .atom("edge", &["b", "c"])
            .atom("edge", &["a", "c"])
            .lt("a", "b")
            .lt("b", "c")
            .build()
    }

    #[test]
    fn builder_assigns_var_ids_in_first_use_order() {
        let q = triangle();
        assert_eq!(q.var_names, vec!["a", "b", "c"]);
        assert_eq!(q.var("c"), Some(2));
        assert_eq!(q.var("z"), None);
        assert_eq!(q.atoms[1].vars, vec![1, 2]);
    }

    #[test]
    fn atoms_with_var_finds_all_occurrences() {
        let q = triangle();
        let with_a: Vec<usize> = q.atoms_with_var(0).map(|(i, _)| i).collect();
        assert_eq!(with_a, vec![0, 2]);
    }

    #[test]
    fn filters_satisfied_checks_all() {
        let q = triangle();
        assert!(q.filters_satisfied(&[1, 2, 3]));
        assert!(!q.filters_satisfied(&[2, 1, 3]));
        assert!(!q.filters_satisfied(&[1, 3, 3]));
    }

    #[test]
    fn relation_names_deduplicated() {
        let q = QueryBuilder::new("3-path")
            .atom("v1", &["a"])
            .atom("v2", &["d"])
            .atom("edge", &["a", "b"])
            .atom("edge", &["b", "c"])
            .atom("edge", &["c", "d"])
            .build();
        assert_eq!(q.relation_names(), vec!["edge", "v1", "v2"]);
    }

    #[test]
    fn display_is_readable() {
        let q = triangle();
        let s = q.to_string();
        assert!(s.contains("edge(a, b)"));
        assert!(s.contains("a < b"));
    }

    #[test]
    #[should_panic(expected = "repeats variable")]
    fn repeated_variable_in_atom_rejected() {
        QueryBuilder::new("bad").atom("edge", &["a", "a"]).build();
    }

    #[test]
    fn validate_rejects_a_query_without_atoms() {
        let empty =
            Query { name: "empty".into(), var_names: vec![], atoms: vec![], filters: vec![] };
        assert_eq!(empty.validate(), Err("a query needs at least one atom".to_string()));
    }

    #[test]
    fn validate_catches_self_comparison() {
        let mut q = triangle();
        q.filters.push((0, 0));
        assert!(q.validate().is_err());
    }
}
