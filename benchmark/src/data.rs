//! Inputs: the base datasets from `gj-datagen`, the seeded perturbation of
//! them, the query suites, edit batches, and reference answers.

use crate::config::{DATA_SEED, EDIT_ROWS, PERTURB_DIVISOR};
use crate::fingerprint::Fingerprint;
use crate::rng::Rng;
use gj_datagen::{Catalog, Domain, LdbcConfig, SocialNetwork};
use graphjoin::{
    CatalogQuery, Database, Engine, ExecLimits, Graph, LdbcQuery, MsConfig, PreparedQuery, Query,
    Relation, Val,
};

/// Relations the seed perturbs and the service and store workloads edit.
pub const EDITED: [&str; 3] = ["knows", "likes", "hasTag"];

/// A named input relation with the fingerprint of its base and of what the
/// workload actually loads.
#[derive(Debug, Clone)]
pub struct InputPrint {
    pub name: String,
    pub base: Fingerprint,
    pub loaded: Fingerprint,
}

pub fn cyclic_queries() -> Vec<Query> {
    [CatalogQuery::ThreeClique, CatalogQuery::FourClique, CatalogQuery::FourCycle]
        .iter()
        .map(CatalogQuery::query)
        .collect()
}

/// The nine cheap LDBC reads of the service workloads (the two analytic
/// queries of the suite, `3-hop-friends` and `fan-fan-tag`, are left out).
pub fn serve_queries() -> Vec<Query> {
    [
        LdbcQuery::TwoHopFriends,
        LdbcQuery::FriendTriangle,
        LdbcQuery::CommonLikes,
        LdbcQuery::CreatorFan,
        LdbcQuery::TaggedCreatorPath,
        LdbcQuery::MutualFans,
        LdbcQuery::FreshLikes,
        LdbcQuery::CommonTagPair,
        LdbcQuery::DeepTagReach,
    ]
    .iter()
    .map(LdbcQuery::query)
    .collect()
}

/// The selective acyclic family the paper reports Minesweeper ahead on.
pub fn ms_graph_queries() -> Vec<Query> {
    [CatalogQuery::ThreePath, CatalogQuery::TwoComb, CatalogQuery::OneTree]
        .iter()
        .map(CatalogQuery::query)
        .collect()
}

/// `mutual-fans` (the serial cliff) first, then four cheap LDBC reads.
pub fn ms_social_queries() -> Vec<Query> {
    [
        LdbcQuery::MutualFans,
        LdbcQuery::TaggedCreatorPath,
        LdbcQuery::FreshLikes,
        LdbcQuery::TwoHopFriends,
        LdbcQuery::CreatorFan,
    ]
    .iter()
    .map(LdbcQuery::query)
    .collect()
}

/// The three queries a restarted database answers first.
pub fn restart_queries() -> Vec<Query> {
    [LdbcQuery::CreatorFan, LdbcQuery::FriendTriangle, LdbcQuery::TaggedCreatorPath]
        .iter()
        .map(LdbcQuery::query)
        .collect()
}

pub fn minesweeper() -> Engine {
    Engine::Minesweeper(MsConfig::default())
}

/// The engine reference answers come from: pairwise hash joins share no code
/// with the trie engines under test, and finish every query used here.
pub fn reference_engine() -> Engine {
    Engine::HashJoin(ExecLimits::default())
}

/// `Database::prepare`, for queries that must bind: a failure is a broken
/// input, not a measurement.
pub fn prepare<'db>(db: &'db Database, query: &Query, engine: &Engine) -> PreparedQuery<'db> {
    db.prepare(query, engine).unwrap_or_else(|e| panic!("prepare {}: {e}", query.name))
}

pub fn reference_counts(db: &Database, queries: &[Query]) -> Vec<u64> {
    let engine = reference_engine();
    queries
        .iter()
        .map(|q| {
            prepare(db, q, &engine)
                .count()
                .unwrap_or_else(|e| panic!("reference count of {}: {e}", q.name))
        })
        .collect()
}

/// The graph of the cyclic workloads: `powerlaw_cluster(nodes, 8, 0.4)` from
/// the data seed, with one undirected edge in a hundred rewired by `seed`.
pub struct GraphInput {
    pub graph: Graph,
    pub print: InputPrint,
}

pub fn graph_input(nodes: usize, seed: u64) -> GraphInput {
    let base = gj_datagen::powerlaw_cluster(nodes, 8, 0.4, DATA_SEED);
    let base_print = Fingerprint::of(&base.edge_relation());
    let mut undirected: Vec<(u32, u32)> =
        base.edges().iter().copied().filter(|&(a, b)| a < b).collect();
    let mut rng = Rng::new(seed, 0x67);
    let rewired = undirected.len() / PERTURB_DIVISOR;
    for _ in 0..rewired {
        let victim = rng.below(undirected.len());
        let a = rng.below(nodes) as u32;
        let b = rng.below(nodes) as u32;
        if a != b {
            undirected[victim] = (a.min(b), a.max(b));
        }
    }
    let graph = Graph::new_undirected(nodes, undirected);
    let loaded = Fingerprint::of(&graph.edge_relation());
    GraphInput { graph, print: InputPrint { name: "edge".into(), base: base_print, loaded } }
}

/// An LDBC-style network from the data seed, with one row in a hundred of
/// `knows`, `likes` and `hasTag` rewritten by `seed`.
pub struct SocialInput {
    pub relations: Vec<(&'static str, Relation)>,
    pub catalog: Catalog,
    pub prints: Vec<InputPrint>,
}

impl SocialInput {
    pub fn database(&self) -> Database {
        let mut db = Database::new();
        for (name, relation) in &self.relations {
            db.add_relation(*name, relation.clone());
        }
        db
    }

    /// Ids a new value of column 0 of `relation` may take.
    pub fn first_column_domain(&self, relation: &str) -> Domain {
        let meta = self.catalog.relation(relation).expect("relation in the LDBC catalog");
        self.catalog.domain(meta.columns[0])
    }
}

pub fn social_input(persons: usize, seed: u64) -> SocialInput {
    let config = LdbcConfig {
        persons,
        tags: (persons / 8).clamp(16, 400),
        seed: DATA_SEED,
        ..LdbcConfig::default()
    };
    let net = SocialNetwork::generate(&config).expect("LDBC parameters are in range");
    let catalog = net.catalog().clone();
    let mut out = SocialInput { relations: Vec::new(), catalog, prints: Vec::new() };
    for (i, (name, base)) in net.relations().iter().enumerate() {
        let base_print = Fingerprint::of(base);
        let relation = if EDITED.contains(name) {
            let mut rng = Rng::new(seed, 0x50 + i as u64);
            let rows = (base.len() / PERTURB_DIVISOR).max(1);
            let domain = out.first_column_domain(name);
            let batch = EditBatch::draw(&mut rng, base, domain, rows, None, &mut Vec::new());
            base.with_edits(
                &Relation::from_rows(base.arity(), batch.ins),
                &Relation::from_rows(base.arity(), batch.del),
            )
        } else {
            base.clone()
        };
        out.prints.push(InputPrint {
            name: (*name).into(),
            base: base_print,
            loaded: Fingerprint::of(&relation),
        });
        out.relations.push((*name, relation));
    }
    out
}

/// One edit batch: rows that leave and rows that enter a relation.
#[derive(Debug, Clone, Default)]
pub struct EditBatch {
    pub relation: &'static str,
    pub ins: Vec<Vec<Val>>,
    pub del: Vec<Vec<Val>>,
}

impl EditBatch {
    /// Deletes sample live rows of `current`; inserts copy a live row and move
    /// its first column to another id of that column's domain, so new rows
    /// stay in the relation's value regime. With `parity`, only rows whose
    /// first value has that parity are touched: two sessions given different
    /// parities edit disjoint rows, so their batches commute. Half of the
    /// inserts revive a row from `graveyard` (rows this caller deleted
    /// earlier), so relations drift instead of shrinking.
    pub fn draw(
        rng: &mut Rng,
        current: &Relation,
        domain: Domain,
        rows: usize,
        parity: Option<i64>,
        graveyard: &mut Vec<Vec<Val>>,
    ) -> EditBatch {
        let mut batch = EditBatch::default();
        if current.is_empty() {
            return batch;
        }
        let owns = |v: Val| parity.is_none_or(|p| v.rem_euclid(2) == p);
        for _ in 0..rows {
            let row = current.row(rng.below(current.len()));
            if owns(row[0]) {
                batch.del.push(row.to_vec());
            }
            if !graveyard.is_empty() && rng.below(2) == 0 {
                batch.ins.push(graveyard.swap_remove(rng.below(graveyard.len())));
                continue;
            }
            let mut row = current.row(rng.below(current.len())).to_vec();
            let mut id = domain.lo + rng.below(domain.len()) as Val;
            if !owns(id) {
                id = if id + 1 < domain.hi { id + 1 } else { id - 1 };
            }
            row[0] = id;
            batch.ins.push(row);
        }
        graveyard.extend(batch.del.iter().cloned());
        batch
    }
}

/// Rows deleted so far, per edited relation, for [`draw_edit`] to revive.
pub type Graveyards = [Vec<Vec<Val>>; EDITED.len()];

/// One batch of the service and store workloads: at most [`EDIT_ROWS`]
/// inserts and as many deletes into one of the [`EDITED`] relations.
pub fn draw_edit(
    rng: &mut Rng,
    input: &SocialInput,
    current: &Database,
    parity: Option<i64>,
    graveyards: &mut Graveyards,
) -> EditBatch {
    let which = rng.below(EDITED.len());
    let relation = EDITED[which];
    let live = current.instance().relation(relation).expect("edited relation is loaded");
    let domain = input.first_column_domain(relation);
    let mut batch = EditBatch::draw(rng, live, domain, EDIT_ROWS, parity, &mut graveyards[which]);
    batch.relation = relation;
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_seeds() {
        let a = social_input(60, 1);
        let b = social_input(60, 1);
        let c = social_input(60, 2);
        let loaded = |s: &SocialInput| s.prints.iter().map(|p| p.loaded.hash).collect::<Vec<_>>();
        let base = |s: &SocialInput| s.prints.iter().map(|p| p.base.hash).collect::<Vec<_>>();
        assert_eq!(loaded(&a), loaded(&b));
        assert_ne!(loaded(&a), loaded(&c), "the seed rewrites rows");
        assert_eq!(base(&a), base(&c), "the base comes from the data seed alone");
        assert_ne!(graph_input(80, 1).print.loaded, graph_input(80, 2).print.loaded);
    }

    #[test]
    fn batches_of_different_parity_touch_disjoint_rows_and_so_commute() {
        let input = social_input(60, 1);
        let base = input.database();
        let mut batches = Vec::new();
        for parity in 0..2 {
            let mut rng = Rng::new(9, parity as u64);
            let mut graveyards = Graveyards::default();
            for _ in 0..12 {
                let batch = draw_edit(&mut rng, &input, &base, Some(parity), &mut graveyards);
                assert!(batch.ins.iter().chain(&batch.del).all(|r| r[0].rem_euclid(2) == parity));
                batches.push(batch);
            }
        }
        let apply = |order: &[usize]| {
            let mut db = input.database();
            for &i in order {
                let b = &batches[i];
                db.edit_rows(b.relation, &b.ins, &b.del).unwrap();
            }
            EDITED.map(|name| Fingerprint::of(db.instance().relation(name).unwrap()))
        };
        let in_order: Vec<usize> = (0..24).collect();
        // Interleave the two sessions, each keeping its own order.
        let interleaved: Vec<usize> = (0..12).flat_map(|i| [12 + i, i]).collect();
        assert_eq!(apply(&in_order), apply(&interleaved));
    }
}
