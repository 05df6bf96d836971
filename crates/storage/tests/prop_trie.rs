//! Property-based tests for the trie index: every probe, seek and prefix walk must
//! agree with a naive linear-scan reference over the same set of rows, a probe
//! resumed through a cursor must agree with a fresh one (also along the increasing
//! probe sequences Minesweeper issues, where the cursor gallops), the
//! zero-materialization build must be structurally identical to a reference build
//! of the projected rows, the row order behind that build must sort the projected
//! rows, the fold of an index that stacked edit batches must be structurally
//! identical to the build of the live relation, and a contiguous root level, which
//! a probe positions by subtraction, must probe as the reference at either end of
//! `i64` and after a fold opens a hole in it or extends it.

use gj_storage::{ProbeResult, Relation, TrieIndex, Val, NEG_INF, POS_INF};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a small relation of the given arity with values in 0..20.
fn rows(arity: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..20, arity), 0..60)
}

/// Reference probe: scan all rows, restrict on the longest matching prefix.
fn reference_probe(rows: &[Vec<i64>], t: &[i64]) -> ProbeResult {
    let arity = t.len();
    let mut candidates: Vec<&Vec<i64>> = rows.iter().collect();
    for d in 0..arity {
        let extending: Vec<&Vec<i64>> =
            candidates.iter().copied().filter(|r| r[d] == t[d]).collect();
        if extending.is_empty() {
            let lower =
                candidates.iter().map(|r| r[d]).filter(|&v| v < t[d]).max().unwrap_or(NEG_INF);
            let upper =
                candidates.iter().map(|r| r[d]).filter(|&v| v > t[d]).min().unwrap_or(POS_INF);
            return ProbeResult::Gap { depth: d, lower, upper };
        }
        candidates = extending;
    }
    ProbeResult::Found
}

/// Deterministic permutation of `0..n` derived from a seed (Fisher–Yates with a
/// cheap multiplicative stream).
fn seeded_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (seed as usize).wrapping_mul(2654435761).wrapping_add(i * 40503) % (i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Every permutation of `0..n`, in lexicographic order.
fn all_perms(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..n {
        for rest in all_perms(n - 1) {
            let mut perm = vec![first];
            perm.extend(rest.into_iter().map(|c| c + usize::from(c >= first)));
            out.push(perm);
        }
    }
    out
}

/// Maps a small value `v` in `0..12` into one of six column shapes, so one column
/// can take the counting pass of `sorted_row_order` and another the stable-sort
/// fallback: narrow, narrow and negative, wide (≥ 64 × rows) and negative, both
/// ends of the domain at once (a span that overflows `i64`), and narrow next to
/// either sentinel.
fn shaped(v: i64, shape: u64) -> i64 {
    match shape {
        0 => v,
        1 => v - 6,
        2 => (v - 6) * 1_000_000_007,
        3 if v % 2 == 0 => NEG_INF + 1 + v,
        3 => POS_INF - 1 - v,
        4 => NEG_INF + 1 + v,
        _ => POS_INF - 12 + v,
    }
}

/// Asserts that `folded` reads the trie `rebuilt` reads: every level's values and
/// child offsets, and the row count.
fn assert_same_trie(folded: &TrieIndex, rebuilt: &TrieIndex) -> Result<(), String> {
    prop_assert_eq!(folded.num_rows(), rebuilt.num_rows());
    for d in 0..rebuilt.arity() {
        prop_assert_eq!(folded.level_values(d), rebuilt.level_values(d), "level {} values", d);
    }
    for d in 0..rebuilt.arity().saturating_sub(1) {
        prop_assert_eq!(folded.child_offsets(d), rebuilt.child_offsets(d), "level {} offsets", d);
    }
    Ok(())
}

proptest! {
    /// Edit scripts applied as the index cache applies them: each batch is
    /// normalized against the live rows and applied to the previous index on its
    /// own. Every other batch is left unread, so a batch lands both on a pending
    /// delta (stacked: cancelled inserts, revived tombstones) and on a read
    /// index's fold (the fold becomes the base). Inserts reach values up to 29,
    /// beyond the base's 0..20, so some keys exist only in the insert trie; a
    /// batch may also delete every live row under one first-level key, which
    /// leaves that base key with no live row. After every read batch and the last
    /// one the folded index must equal the build of the live relation, level by
    /// level, and answer every probe as it.
    #[test]
    fn folded_indexes_equal_the_build_of_the_live_relation(
        raw in prop::collection::vec(prop::collection::vec(0i64..20, 4), 0..60),
        arity in 1usize..5,
        seed in 0u64..1_000_000,
        script in prop::collection::vec(
            (
                prop::collection::vec(prop::collection::vec(0i64..30, 4), 0..10),
                prop::collection::vec(0usize..1000, 0..10),
                0i64..40,
            ),
            1..5,
        ),
        probes in prop::collection::vec(prop::collection::vec(-1i64..31, 4), 1..40),
    ) {
        let cut = |rows: &[Vec<i64>]| rows.iter().map(|r| r[..arity].to_vec()).collect::<Vec<_>>();
        let base = Relation::from_rows(arity, cut(&raw));
        let perm = seeded_perm(arity, seed);
        let mut live: BTreeSet<Vec<Val>> = base.iter().map(<[Val]>::to_vec).collect();
        let mut idx = TrieIndex::build(&base, &perm);
        for (step, (inserts, deletes, dropped_key)) in script.iter().enumerate() {
            let rows: Vec<Vec<Val>> = live.iter().cloned().collect();
            let mut batch_del: BTreeSet<Vec<Val>> =
                deletes.iter().filter(|_| !rows.is_empty()).map(|&i| rows[i % rows.len()].clone()).collect();
            batch_del.extend(rows.iter().filter(|r| r[0] == *dropped_key).cloned());
            let batch_ins: BTreeSet<Vec<Val>> =
                cut(inserts).into_iter().filter(|r| !live.contains(r) && !batch_del.contains(r)).collect();
            live.retain(|r| !batch_del.contains(r));
            live.extend(batch_ins.iter().cloned());
            let as_relation = |set: &BTreeSet<Vec<Val>>| Relation::from_rows(arity, set.iter().cloned().collect());
            idx = idx.with_edits(&as_relation(&batch_ins), &as_relation(&batch_del));
            prop_assert_eq!(idx.num_rows(), live.len());
            if step % 2 == 0 && step + 1 < script.len() {
                continue;
            }
            let rebuilt = TrieIndex::build(&as_relation(&live), &perm);
            assert_same_trie(&idx, &rebuilt)?;
            prop_assert_eq!(idx.first_level_values(), rebuilt.level_values(0));
            let mut cursor = idx.probe_cursor();
            for t in &probes {
                let t = &t[..arity];
                prop_assert_eq!(idx.probe(t), rebuilt.probe(t), "probe {:?}", t);
                prop_assert_eq!(idx.probe_with(t, &mut cursor), rebuilt.probe(t), "cursor probe {:?}", t);
            }
            let compacted = idx.compacted();
            assert_same_trie(&compacted, &rebuilt)?;
            prop_assert_eq!(compacted.max_value(), rebuilt.max_value());
        }
    }

    #[test]
    fn probe_agrees_with_linear_scan(rows in rows(3), probes in prop::collection::vec(prop::collection::vec(0i64..20, 3), 1..20)) {
        let rel = Relation::from_rows(3, rows);
        let idx = TrieIndex::build_natural(&rel);
        for t in &probes {
            prop_assert_eq!(idx.probe(t), reference_probe(&rel.to_rows(), t));
        }
    }

    /// One cursor carried through a random walk of probes — each probe changes one
    /// position of the previous, so consecutive probes share prefixes of every
    /// length — answers every probe exactly as the stateless probe does, on a solid
    /// index and on the same index with a delta layer.
    #[test]
    fn cursor_probes_agree_with_stateless_probes(
        base in rows(3),
        inserts in rows(3),
        deletes in prop::collection::vec(0usize..60, 0..12),
        steps in prop::collection::vec((0usize..3, 0i64..20), 1..60),
    ) {
        let rel = Relation::from_rows(3, base);
        let solid = TrieIndex::build_natural(&rel);
        // `with_edits` wants inserts absent from the base and deletes present in it.
        let ins = Relation::from_rows(3, inserts.into_iter().filter(|r| !rel.contains(r)).collect());
        let del = Relation::from_rows(
            3,
            deletes.iter().filter(|_| !rel.is_empty()).map(|&i| rel.row(i % rel.len()).to_vec()).collect(),
        );
        let edited = solid.with_edits(&ins, &del);
        for idx in [&solid, &edited] {
            let mut cursor = idx.probe_cursor();
            let mut t = vec![0i64; 3];
            for &(pos, v) in &steps {
                t[pos] = v;
                prop_assert_eq!(idx.probe_with(&t, &mut cursor), idx.probe(&t), "probe {:?}", &t);
            }
        }
    }

    /// Probes in lexicographically increasing order, as Minesweeper's moving
    /// frontier issues them: most steps keep a prefix and raise the next value —
    /// the path on which the cursor gallops forward from the position its last
    /// search found — and reset the deeper values. Every answer equals the
    /// linear-scan reference; so does a second pass over the same probes after
    /// the cursor is reset, which starts below where the first pass left it.
    #[test]
    fn cursor_probes_in_increasing_order_agree_with_the_reference(
        rows in rows(3),
        steps in prop::collection::vec((0usize..6, 1i64..4), 1..60),
    ) {
        let rel = Relation::from_rows(3, rows);
        let idx = TrieIndex::build_natural(&rel);
        let reference = rel.to_rows();
        let mut probes = Vec::new();
        let mut t = vec![-1i64; 3];
        for &(pos, step) in &steps {
            let pos = pos.min(2);
            t[pos] += step;
            t[pos + 1..].fill(-1);
            probes.push(t.clone());
        }
        let mut cursor = idx.probe_cursor();
        for _ in 0..2 {
            for t in &probes {
                prop_assert_eq!(idx.probe_with(t, &mut cursor), reference_probe(&reference, t), "probe {:?}", t);
            }
            cursor.reset();
        }
    }

    /// Root levels that hold every integer of their span, which a probe positions
    /// by subtraction, answer every probe as the linear-scan reference does,
    /// stateless and through a cursor (in random and in increasing order), with
    /// the run at 0, below 0, or at either end of the values a relation holds
    /// (`NEG_INF + 1` and `POS_INF - 1`, next to `i64::MIN` and `i64::MAX`). So do
    /// their folds after one edit batch that either deletes every row of one key,
    /// which opens a hole when the key is inside the run, or inserts rows under the
    /// key one past either end of the run, which extends it (unless that key is a
    /// sentinel). Probed keys reach two past either end, sentinels included.
    #[test]
    fn contiguous_roots_probe_as_the_reference(
        children in prop::collection::vec(prop::collection::vec(0i64..20, 1..4), 1..12),
        shape in 0u64..4,
        (kind, key, inserted) in (0u64..3, 0i64..12, prop::collection::vec(0i64..20, 1..3)),
        probes in prop::collection::vec((0i64..16, 0i64..20), 1..40),
    ) {
        let len = children.len() as i64;
        let first = match shape {
            0 => 0,
            1 => -7,
            2 => NEG_INF + 1,
            _ => POS_INF - len,
        };
        let last = first + (len - 1);
        let rows: Vec<Vec<Val>> = children
            .iter()
            .zip(first..=last)
            .flat_map(|(cs, k)| cs.iter().map(move |&c| vec![k, c]))
            .collect();
        let rel = Relation::from_rows(2, rows.clone());
        let solid = TrieIndex::build_natural(&rel);
        prop_assert_eq!(solid.contiguous_root(), Some((first, last)));

        let under = |k: Val| match k {
            NEG_INF | POS_INF => vec![],
            k => inserted.iter().map(|&c| vec![k, c]).collect(),
        };
        let (ins, del): (Vec<Vec<Val>>, Vec<Vec<Val>>) = match kind {
            0 => (vec![], rows.iter().filter(|r| r[0] == first + key % len).cloned().collect()),
            1 => (under(last + 1), vec![]),
            _ => (under(first - 1), vec![]),
        };
        let mut live: BTreeSet<Vec<Val>> = rows.iter().cloned().collect();
        live.retain(|r| !del.contains(r));
        live.extend(ins.iter().cloned());
        let live: Vec<Vec<Val>> = live.into_iter().collect();
        let edited = solid.with_edits(&Relation::from_rows(2, ins), &Relation::from_rows(2, del));
        let keys: BTreeSet<Val> = live.iter().map(|r| r[0]).collect();
        let expected = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) if hi.abs_diff(lo) == keys.len() as u64 - 1 => Some((lo, hi)),
            _ => None,
        };
        prop_assert_eq!(edited.contiguous_root(), expected);

        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for (idx, reference) in [(&solid, &rows), (&edited, &live)] {
            let mut cursor = idx.probe_cursor();
            for order in [&probes, &sorted] {
                for &(at, c) in order {
                    let t = [first.saturating_add(at - 2), c];
                    let want = reference_probe(reference, &t);
                    prop_assert_eq!(idx.probe(&t), want, "probe {:?}", t);
                    prop_assert_eq!(idx.probe_with(&t, &mut cursor), want, "cursor probe {:?}", t);
                }
                cursor.reset();
            }
        }
    }

    #[test]
    fn contains_agrees_with_relation(rows in rows(2), probes in prop::collection::vec(prop::collection::vec(0i64..20, 2), 1..20)) {
        let rel = Relation::from_rows(2, rows);
        let idx = TrieIndex::build_natural(&rel);
        for t in &probes {
            prop_assert_eq!(idx.contains(t), rel.contains(t));
        }
    }

    #[test]
    fn permuted_index_is_permuted_relation(rows in rows(3)) {
        let rel = Relation::from_rows(3, rows);
        let perm = [2usize, 0, 1];
        let idx = TrieIndex::build(&rel, &perm);
        for row in rel.iter() {
            let projected: Vec<i64> = perm.iter().map(|&i| row[i]).collect();
            prop_assert!(idx.contains(&projected));
        }
        prop_assert_eq!(idx.num_rows(), rel.len());
    }

    /// `sorted_row_order` lists the rows in the order of their projections through
    /// `perm`, for arities 1–4, every permutation and every column shape of
    /// `shaped` (counting passes and stable-sort passes, negative values, values
    /// next to the sentinels), on the relation and on its 0- and 1-row prefixes.
    /// The reference sorts the projected tuples themselves. Rows are distinct, so
    /// equal projection sequences mean equal orders.
    #[test]
    fn sorted_row_order_sorts_the_projected_rows(
        raw in prop::collection::vec(prop::collection::vec(0i64..12, 4), 0..80),
        shapes in prop::collection::vec(0u64..6, 4),
    ) {
        for arity in 1..=4 {
            let rows: Vec<Vec<i64>> = raw
                .iter()
                .map(|r| (0..arity).map(|c| shaped(r[c], shapes[c])).collect())
                .collect();
            for len in [0, rows.len().min(1), rows.len()] {
                let rel = Relation::from_rows(arity, rows[..len].to_vec());
                for perm in all_perms(arity) {
                    let project = |row: &[i64]| perm.iter().map(|&c| row[c]).collect::<Vec<_>>();
                    let got: Vec<Vec<i64>> = rel
                        .sorted_row_order(&perm)
                        .iter()
                        .map(|&i| project(rel.row(i as usize)))
                        .collect();
                    let mut expected: Vec<Vec<i64>> = rel.iter().map(project).collect();
                    expected.sort();
                    prop_assert_eq!(got, expected, "perm {:?}, shapes {:?}", &perm, &shapes);
                }
            }
        }
    }

    /// The tentpole invariant of the columnar refactor: building straight from the
    /// flat buffer via a sorted row-index permutation produces an index that is
    /// structurally identical — every level's value array and every child-offset
    /// array — to the natural build of the projected rows, which `from_rows` sorts
    /// on its own path, for random relations, arities and permutations.
    #[test]
    fn flat_build_is_identical_to_build_through_permuted_relation(
        raw in prop::collection::vec(prop::collection::vec(0i64..12, 4), 0..80),
        arity in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let rows: Vec<Vec<i64>> = raw.into_iter().map(|r| r[..arity].to_vec()).collect();
        let rel = Relation::from_rows(arity, rows);
        let perm = seeded_perm(arity, seed);

        // Zero-materialization build in the permuted order.
        let flat = TrieIndex::build(&rel, &perm);
        // Reference: the projected rows as a relation of their own, indexed naturally.
        let projected = rel.iter().map(|r| perm.iter().map(|&c| r[c]).collect()).collect();
        let reference = TrieIndex::build_natural(&Relation::from_rows(arity, projected));

        prop_assert_eq!(flat.arity(), reference.arity());
        prop_assert_eq!(flat.num_rows(), reference.num_rows());
        prop_assert_eq!(flat.max_value(), reference.max_value());
        for d in 0..arity {
            prop_assert_eq!(
                flat.level_values(d),
                reference.level_values(d),
                "level {} values differ under perm {:?}", d, &perm
            );
        }
        for d in 0..arity.saturating_sub(1) {
            prop_assert_eq!(
                flat.child_offsets(d),
                reference.child_offsets(d),
                "level {} child offsets differ under perm {:?}", d, &perm
            );
        }
    }

    /// `max_value` is cached at build time and equals the true maximum across all
    /// levels regardless of the indexing order.
    #[test]
    fn cached_max_value_is_the_level_maximum(rows in rows(3), seed in 0u64..1000) {
        let rel = Relation::from_rows(3, rows);
        let perm = seeded_perm(3, seed);
        let idx = TrieIndex::build(&rel, &perm);
        let scanned = (0..3).flat_map(|d| idx.level_values(d).iter().copied()).max();
        prop_assert_eq!(idx.max_value(), scanned);
        prop_assert_eq!(idx.max_value(), rel.max_value());
    }

    #[test]
    fn iterator_enumerates_level0_values(rows in rows(2)) {
        let rel = Relation::from_rows(2, rows);
        let idx = TrieIndex::build_natural(&rel);
        let mut seen = Vec::new();
        let mut it = idx.iter();
        it.open();
        while !it.at_end() {
            seen.push(it.key());
            it.next();
        }
        let mut expected: Vec<i64> = rel.iter().map(|r| r[0]).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn seek_lands_on_least_geq(rows in rows(1), targets in prop::collection::vec(0i64..25, 1..10)) {
        let rel = Relation::from_rows(1, rows);
        let idx = TrieIndex::build_natural(&rel);
        let values: Vec<Val> = rel.iter().map(|r| r[0]).collect();
        for &t in &targets {
            let mut it = idx.iter();
            it.open();
            if it.at_end() { continue; }
            it.seek(t);
            let expected = values.iter().copied().find(|&v| v >= t);
            match expected {
                Some(v) => { prop_assert!(!it.at_end()); prop_assert_eq!(it.key(), v); }
                None => prop_assert!(it.at_end()),
            }
        }
    }
}
