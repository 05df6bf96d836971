//! Property-based tests for relation edits: `with_edits` must equal
//! `(self ∪ ins) \ del` computed on a plain `BTreeSet` of rows, including its
//! cached maximum.

use gj_storage::{Relation, Val};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: up to `max` random rows of the given arity with values in 0..12.
fn rows(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..12, arity), 0..max)
}

fn check(arity: usize, base: Vec<Vec<Val>>, ins: Vec<Vec<Val>>, mut del: Vec<Vec<Val>>) {
    // Some rows in both batches, so "a delete wins" is exercised every case.
    del.extend(ins.iter().step_by(3).cloned());
    let mut model: BTreeSet<Vec<Val>> = base.iter().cloned().collect();
    model.extend(ins.iter().cloned());
    for row in &del {
        model.remove(row);
    }
    let base = Relation::from_rows(arity, base);
    let got = base.with_edits(&Relation::from_rows(arity, ins), &Relation::from_rows(arity, del));
    let want = Relation::from_rows(arity, model.into_iter().collect());
    // Equality covers the cached maximum too.
    assert_eq!(got, want);
}

proptest! {
    #[test]
    fn unary_with_edits_matches_a_set_model(base in rows(1, 40), ins in rows(1, 15), del in rows(1, 15)) {
        check(1, base, ins, del);
    }

    #[test]
    fn binary_with_edits_matches_a_set_model(base in rows(2, 80), ins in rows(2, 20), del in rows(2, 20)) {
        check(2, base, ins, del);
    }

    #[test]
    fn ternary_with_edits_matches_a_set_model(base in rows(3, 80), ins in rows(3, 20), del in rows(3, 30)) {
        check(3, base, ins, del);
    }
}
