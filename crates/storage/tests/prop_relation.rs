//! Property-based tests for relation edits and statistics: `with_edits` must
//! equal `(self ∪ ins) \ del` computed on a plain `BTreeSet` of rows, including
//! its cached maximum, and `column_distinct` must equal a sort + dedup of the
//! column, before and after edits.

use gj_storage::{Relation, Val};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: up to `max` random rows of the given arity with values in 0..12.
fn rows(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    rows_in(arity, max, 0..12)
}

/// Strategy: up to `max` random rows of the given arity with values in `values`.
fn rows_in(
    arity: usize,
    max: usize,
    values: std::ops::Range<i64>,
) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(values, arity), 0..max)
}

/// `column_distinct` on every column against a sort + dedup of that column; and
/// a relation whose counts were computed still equals a fresh copy of itself.
fn check_distinct(relation: &Relation) {
    let fresh = Relation::from_flat(relation.arity(), relation.flat_values().to_vec());
    for col in 0..relation.arity() {
        let mut column: Vec<Val> = relation.iter().map(|r| r[col]).collect();
        column.sort_unstable();
        column.dedup();
        assert_eq!(relation.column_distinct(col), column.len(), "column {col}");
    }
    assert_eq!(*relation, fresh);
    assert_eq!(fresh, *relation);
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
    check_distinct(&base);
    check_distinct(&got);
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

    #[test]
    fn distinct_counts_match_sort_dedup_on_bitset_ranges(base in rows_in(3, 200, -300..300), ins in rows_in(3, 30, -300..300)) {
        // Multi-word bitsets below zero; fewer than 10 rows take the sort fallback.
        let base = Relation::from_rows(3, base);
        check_distinct(&base);
        check_distinct(&base.with_edits(&Relation::from_rows(3, ins), &Relation::empty(3)));
    }

    #[test]
    fn distinct_counts_match_sort_dedup_on_wide_ranges(base in rows_in(2, 40, -1_000_000..1_000_000), del in rows_in(2, 10, -1_000_000..1_000_000)) {
        // Wider than 64 values per row: the sort fallback.
        let base = Relation::from_rows(2, base);
        // Some deletes hit existing rows.
        let hits = base.iter().take(3).map(<[Val]>::to_vec);
        let del = Relation::from_rows(2, del.into_iter().chain(hits).collect());
        check_distinct(&base);
        check_distinct(&base.with_edits(&Relation::empty(2), &del));
    }
}
