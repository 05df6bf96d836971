//! The engines' work counters: one [`Counters`] shape for every engine.
//!
//! The paper checks each of Minesweeper's ideas by counting work (probes,
//! constraints inserted, iterations, cached intervals — Tables 1–3) and LFTJ by
//! the bindings it explores; the pairwise baselines report what they
//! materialise. Every engine counts into the same struct, each filling the
//! fields that describe its own work, and the morsel driver sums the workers'
//! counters with [`Counters::merge`] into the run's
//! [`DriveReport`](crate::DriveReport).

/// Work counters of one execution (or one morsel, or one worker's morsels).
///
/// Every field adds up under [`merge`](Self::merge), except the high-water marks
/// `cds_nodes` and `peak_intermediate`, which take the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Output tuples found (after order filters), counted by LFTJ and Minesweeper.
    pub results: u64,
    /// LFTJ: variable bindings explored, one per match at every GAO position.
    /// A count adds a last position's count under each match of the loop
    /// above it, or a tail's product of range sizes, at once: its figure
    /// equals the row path's.
    pub bindings_explored: u64,
    /// Minesweeper: outer-loop iterations (free tuples probed).
    pub iterations: u64,
    /// Minesweeper: runs of outputs counted at once from a complete node (Idea 8);
    /// each takes one iteration however long the run.
    pub batched_runs: u64,
    /// Minesweeper: `seekGap` probes issued against the trie indexes.
    pub probes: u64,
    /// Minesweeper: probes avoided by the Idea 4 memo.
    pub probes_skipped: u64,
    /// Minesweeper: constraints (gap boxes) inserted into the CDS.
    pub constraints_inserted: u64,
    /// Minesweeper: intervals cached by `getFreeValue` (Idea 5).
    pub cached_intervals: u64,
    /// Minesweeper: CDS branch truncations (Algorithm 6).
    pub truncations: u64,
    /// Minesweeper: `getFreeValue` calls answered by a complete node (Idea 6).
    pub complete_node_hits: u64,
    /// Minesweeper: CDS nodes allocated — an arena high-water mark.
    pub cds_nodes: u64,
    /// Minesweeper: turns of the CDS free-tuple search (one `getFreeValue` each).
    /// A healthy run spends a small constant number per iteration; a figure in the
    /// thousands means the search is crawling through a dead region value by value.
    pub free_tuple_steps: u64,
    /// Minesweeper: exhausted levels left by a conflict-directed backjump of the
    /// CDS (non-chain mode only).
    pub backjumps: u64,
    /// Pairwise baselines: rows written by the materialising joins (and the base
    /// copy), counted before filter pruning. The streamed final join is not
    /// counted.
    pub materialized_rows: u64,
    /// Pairwise baselines: rows of the largest materialised step (pre-filter) — a
    /// high-water mark.
    pub peak_intermediate: u64,
}

impl Counters {
    /// Folds `other` into `self`: counters add up, the high-water marks
    /// `cds_nodes` and `peak_intermediate` take the maximum.
    pub fn merge(&mut self, other: Counters) {
        let Counters {
            results,
            bindings_explored,
            iterations,
            batched_runs,
            probes,
            probes_skipped,
            constraints_inserted,
            cached_intervals,
            truncations,
            complete_node_hits,
            cds_nodes,
            free_tuple_steps,
            backjumps,
            materialized_rows,
            peak_intermediate,
        } = other;
        self.results += results;
        self.bindings_explored += bindings_explored;
        self.iterations += iterations;
        self.batched_runs += batched_runs;
        self.probes += probes;
        self.probes_skipped += probes_skipped;
        self.constraints_inserted += constraints_inserted;
        self.cached_intervals += cached_intervals;
        self.truncations += truncations;
        self.complete_node_hits += complete_node_hits;
        self.cds_nodes = self.cds_nodes.max(cds_nodes);
        self.free_tuple_steps += free_tuple_steps;
        self.backjumps += backjumps;
        self.materialized_rows += materialized_rows;
        self.peak_intermediate = self.peak_intermediate.max(peak_intermediate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field set to `v`.
    fn all(v: u64) -> Counters {
        Counters {
            results: v,
            bindings_explored: v,
            iterations: v,
            batched_runs: v,
            probes: v,
            probes_skipped: v,
            constraints_inserted: v,
            cached_intervals: v,
            truncations: v,
            complete_node_hits: v,
            cds_nodes: v,
            free_tuple_steps: v,
            backjumps: v,
            materialized_rows: v,
            peak_intermediate: v,
        }
    }

    #[test]
    fn merge_sums_counters_and_keeps_the_high_water_marks() {
        let mut merged = all(3);
        merged.merge(all(5));
        let expected = Counters { cds_nodes: 5, peak_intermediate: 5, ..all(8) };
        assert_eq!(merged, expected);
        // The maximum, not the latest: a smaller mark leaves the larger one.
        merged.merge(all(1));
        assert_eq!(merged, Counters { cds_nodes: 5, peak_intermediate: 5, ..all(9) });
        // The empty counters are the identity.
        let mut same = expected;
        same.merge(Counters::default());
        assert_eq!(same, expected);
    }
}
