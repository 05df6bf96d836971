//! #Minesweeper-style batch counting (Idea 8 of the paper).
//!
//! When a query is only executed as a count, enumerating each output tuple through a
//! separate outer-loop iteration wastes a full CDS walk per tuple. The paper's
//! #Minesweeper propagates per-point counts through the CDS instead; this module
//! implements the workhorse special case of that idea: once a free tuple has been
//! verified as an output, the whole *run* of outputs sharing its first `n-1`
//! attributes is counted in one pass by intersecting the extension lists of the atoms
//! that contain the last GAO attribute, and the frontier jumps past the entire block.

use gj_query::BoundQuery;
use gj_storage::{Val, POS_INF};
use std::borrow::Cow;

/// The buffers of [`count_last_level_run`], owned by the executor so that counting
/// a run allocates nothing once they have grown (solid indexes lend their extension
/// lists; a delta-carrying index still merges into a fresh one).
#[derive(Debug, Default)]
pub struct RunScratch<'a> {
    /// Extension lists of the atoms containing the last attribute.
    lists: Vec<Cow<'a, [Val]>>,
    /// One atom's projection of `t` minus the last attribute.
    prefix: Vec<Val>,
    /// One intersection cursor per list.
    cursors: Vec<usize>,
}

/// Counts the outputs that share `t`'s first `n-1` attributes and whose last
/// attribute is `>= t[n-1]` (subject to the query's order filters). The caller moves
/// the frontier past the whole block.
///
/// Precondition: `t` itself has been verified to be an output.
pub fn count_last_level_run<'a>(
    bq: &'a BoundQuery,
    filters: &[Vec<(usize, bool)>],
    t: &[Val],
    scratch: &mut RunScratch<'a>,
) -> u64 {
    let n = bq.num_vars();
    let last = n - 1;

    // Bounds induced by the order filters on the last attribute.
    let mut lower = t[last];
    let mut upper = POS_INF;
    for &(other, other_is_smaller) in &filters[last] {
        if other_is_smaller {
            lower = lower.max(t[other] + 1);
        } else {
            upper = upper.min(t[other]);
        }
    }
    // Filters whose *later-in-GAO* variable is not the last attribute can still
    // mention it as the earlier side; varying the last value must keep them true.
    for (pos, checks) in filters.iter().enumerate().take(last) {
        for &(other, other_is_smaller) in checks {
            if other == last {
                if other_is_smaller {
                    // t[pos] must stay greater than the last attribute.
                    upper = upper.min(t[pos]);
                } else {
                    lower = lower.max(t[pos] + 1);
                }
            }
        }
    }

    // Extension lists of every atom containing the last attribute (its variables
    // are GAO-ordered, so such an atom ends with it).
    scratch.lists.clear();
    for atom in &bq.atoms {
        let Some((&last_var, earlier)) = atom.vars.split_last() else { continue };
        if bq.var_pos[last_var] != last {
            continue;
        }
        scratch.prefix.clear();
        scratch.prefix.extend(earlier.iter().map(|&v| t[bq.var_pos[v]]));
        match atom.index.extensions(&scratch.prefix) {
            Some(list) => scratch.lists.push(list),
            // `t` was verified as an output, so the prefix must exist; be defensive
            // anyway and fall back to counting just `t`.
            None => return 1,
        }
    }
    if scratch.lists.is_empty() {
        // Every variable of a valid query occurs in some atom, so this cannot happen;
        // count just the verified tuple to stay safe.
        return 1;
    }

    intersect_count(&scratch.lists, &mut scratch.cursors, lower, upper).max(1)
}

/// Counts the values present in every sorted list within `[lower, upper)`, with
/// `cursors` as scratch.
fn intersect_count<L: AsRef<[Val]>>(
    lists: &[L],
    cursors: &mut Vec<usize>,
    lower: Val,
    upper: Val,
) -> u64 {
    // Position every cursor at the first value >= lower.
    cursors.clear();
    cursors.extend(lists.iter().map(|s| s.as_ref().partition_point(|&v| v < lower)));
    let mut count = 0u64;
    'outer: loop {
        // Current maximum across cursors.
        let mut target = Val::MIN;
        for (c, s) in cursors.iter().zip(lists) {
            let s = s.as_ref();
            if *c >= s.len() {
                break 'outer;
            }
            target = target.max(s[*c]);
        }
        if target >= upper {
            break;
        }
        // Advance every cursor to >= target.
        let mut all_match = true;
        for (c, s) in cursors.iter_mut().zip(lists) {
            let s = s.as_ref();
            *c += s[*c..].partition_point(|&v| v < target);
            if *c >= s.len() {
                break 'outer;
            }
            if s[*c] != target {
                all_match = false;
            }
        }
        if all_match {
            count += 1;
            for c in cursors.iter_mut() {
                *c += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_count_basic() {
        let count =
            |lists: &[&[Val]], lower, upper| intersect_count(lists, &mut Vec::new(), lower, upper);
        assert_eq!(count(&[&[1, 3, 5, 7], &[3, 5, 9]], 0, POS_INF), 2);
        assert_eq!(count(&[&[1, 3, 5, 7], &[3, 5, 9]], 4, POS_INF), 1);
        assert_eq!(count(&[&[1, 3, 5, 7], &[3, 5, 9]], 0, 5), 1);
        assert_eq!(count(&[&[1, 2, 3]], 2, 4), 2);
        assert_eq!(count(&[&[1, 2], &[3, 4]], 0, POS_INF), 0);
        assert_eq!(count(&[&[], &[1]], 0, POS_INF), 0);
    }
}
