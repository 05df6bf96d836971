//! The metric catalogue: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` carries the same list for the driver;
//! `smoke.sh` fails when the two differ.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// What a user of the system sees; printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("read_typical_ms", "ms"),
    lower("read_p95_ms", "ms"),
    lower("cpu_ms_per_op", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that exist on some workloads only. The driver has
/// every workload print every metric of `BENCHMARK.json`, none ever 0, so
/// these cannot be listed there: an untraced run prints the ones it has on
/// its `also` line, `suite` keeps them, and `compare` gates them with
/// [`workload_only_bound`]. Absent where they do not apply, not zero.
pub const WORKLOAD_ONLY: &[MetricDef] = &[
    lower("edit_p50_ms", "ms"),
    lower("edit_p95_ms", "ms"),
    lower("first_answer_p50_ms", "ms"),
    lower("store_bytes_per_user_byte", "ratio"),
];

/// Share of `a`'s median by which a [`WORKLOAD_ONLY`] metric may get worse.
pub fn workload_only_bound(name: &str) -> f64 {
    match name {
        // Page counts of an image of the same rows: repeats within a page.
        "store_bytes_per_user_byte" => 0.01,
        _ => 0.25,
    }
}

/// Single layers; printed by every workload with `--trace 1`. The first
/// block comes from the spans of the workload's own traced window (a layer
/// the workload bypasses reads 0), the second from the window's recorder,
/// the rest are micro-measurements that do not depend on the workload.
pub const PER_LAYER: &[MetricDef] = &[
    lower("core.count.self_us_per_op", "us"),
    lower("lftj.bind.self_us_per_op", "us"),
    lower("lftj.run.self_us_per_op", "us"),
    lower("minesweeper.bind.self_us_per_op", "us"),
    lower("minesweeper.run.self_us_per_op", "us"),
    lower("runtime.partition.self_us_per_op", "us"),
    lower("runtime.drive.self_us_per_op", "us"),
    lower("query.prepare.self_us_per_op", "us"),
    lower("service.count.self_us_per_op", "us"),
    lower("service.edit.self_us_per_op", "us"),
    lower("core.open.self_us_per_op", "us"),
    lower("store.open.self_us_per_op", "us"),
    lower("core.commit_edits.self_us_per_op", "us"),
    lower("core.checkpoint.self_us_per_op", "us"),
    lower("bench.trace_overhead", "ratio"),
    lower("bench.read_p50_ms", "ms"),
    lower("bench.read_p99_ms", "ms"),
    lower("bench.edit_p50_ms", "ms"),
    lower("bench.edit_p95_ms", "ms"),
    lower("service.history_events", "count"),
    lower("service.saturated", "count"),
    lower("core.delta_len_at_end", "count"),
    // storage
    lower("storage.trie_build_ms", "ms"),
    lower("storage.seek_solid_ns", "ns"),
    lower("storage.seek_merged_ns", "ns"),
    lower("storage.merged_over_solid", "ratio"),
    lower("storage.scan_solid_ns_per_tuple", "ns"),
    lower("storage.probe_solid_ns", "ns"),
    lower("storage.trie_with_edits_us", "us"),
    lower("storage.relation_with_edits_us", "us"),
    // lftj
    lower("lftj.intersect2_ns_per_key", "ns"),
    lower("lftj.intersect3_ns_per_key", "ns"),
    lower("lftj.3-clique.run_ms", "ms"),
    lower("lftj.4-clique.run_ms", "ms"),
    lower("lftj.4-cycle.run_ms", "ms"),
    lower("lftj.3-clique.bindings_explored", "count"),
    lower("lftj.4-clique.bindings_explored", "count"),
    lower("lftj.4-cycle.bindings_explored", "count"),
    lower("lftj.bind_us", "us"),
    lower("lftj.ldbc_sweep_ms", "ms"),
    // minesweeper
    lower("minesweeper.3-path.run_ms", "ms"),
    lower("minesweeper.2-comb.run_ms", "ms"),
    lower("minesweeper.1-tree.run_ms", "ms"),
    lower("minesweeper.mutual-fans.run_ms", "ms"),
    lower("minesweeper.tagged-creator-path.run_ms", "ms"),
    lower("minesweeper.3-path.probes", "count"),
    lower("minesweeper.3-path.cds_nodes", "count"),
    lower("minesweeper.3-path.constraints_inserted", "count"),
    lower("minesweeper.mutual-fans.probes", "count"),
    lower("minesweeper.mutual-fans.cds_nodes", "count"),
    lower("minesweeper.mutual-fans.constraints_inserted", "count"),
    lower("minesweeper.over_lftj.3-path", "ratio"),
    lower("minesweeper.over_lftj.mutual-fans", "ratio"),
    lower("minesweeper.serial_over_par2.mutual-fans", "ratio"),
    lower("minesweeper.cds_insert_ns", "ns"),
    lower("minesweeper.cds_free_tuple_ns", "ns"),
    // runtime
    lower("runtime.partition_us", "us"),
    lower("runtime.drive_noop_us_per_morsel", "us"),
    higher("runtime.par2_speedup.3-clique", "ratio"),
    higher("runtime.par2_speedup.4-clique", "ratio"),
    higher("runtime.par2_speedup.4-cycle", "ratio"),
    lower("runtime.morsel_skew.3-clique", "ratio"),
    lower("runtime.par2_tiny_overhead_us", "us"),
    // query
    lower("query.prepare_cold_ms", "ms"),
    lower("query.prepare_warm_us", "us"),
    lower("query.cache_get_ns", "ns"),
    lower("query.apply_edits_us", "us"),
    lower("query.cached_perms", "count"),
    // core
    lower("core.db_clone_us", "us"),
    lower("core.edit_rows_us", "us"),
    lower("core.post_edit_run_ratio", "ratio"),
    // store
    lower("store.persist_ms", "ms"),
    lower("store.open_ms", "ms"),
    lower("store.recovery_us_per_record", "us"),
    lower("store.load_relation_ms", "ms"),
    lower("store.wal_append_us", "us"),
    lower("store.wal_bytes_per_row", "ratio"),
    lower("store.bytes_per_user_byte", "ratio"),
    lower("store.checkpoint_ms", "ms"),
    higher("store.pool_hit_rate", "ratio"),
    lower("store.pool_evictions", "count"),
    lower("store.pool_fetch_hit_ns", "ns"),
    lower("store.pool_fetch_miss_us", "us"),
    // service
    lower("service.overhead_us", "us"),
    lower("service.admit_ns", "ns"),
    lower("service.history_record_ns", "ns"),
    lower("service.snapshot_ns", "ns"),
    higher("service.sessions2_over_1", "ratio"),
    lower("service.edit_growth_4x", "ratio"),
    lower("service.edit_under_readers_ratio", "ratio"),
    // baselines: the paper's pairwise comparators, for engine-vs-pairwise ratios
    lower("baselines.psql.3-path.run_ms", "ms"),
    lower("baselines.monetdb.3-path.run_ms", "ms"),
    lower("baselines.psql.ldbc_sweep_ms", "ms"),
    lower("baselines.monetdb.ldbc_sweep_ms", "ms"),
];

fn cell(def: &MetricDef, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))])
}

/// Values for one catalogue, set by name.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics { defs, values: vec![None; defs.len()] }
    }

    /// Panics on a name outside the catalogue: a typo must not print a
    /// metric the driver does not know.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = Some(value);
    }

    /// The metrics that were set, in the catalogue's order.
    pub fn present(&self) -> Json {
        Json::Obj(
            self.defs
                .iter()
                .zip(&self.values)
                .filter_map(|(def, value)| Some((def.name.to_string(), cell(def, (*value)?))))
                .collect(),
        )
    }

    /// Every metric of the catalogue, in its order. `default` stands in for
    /// an unset one: `Some(0.0)` for per-layer work a workload did not do,
    /// `None` where a missing value is a bug.
    pub fn to_json(&self, default: Option<f64>) -> Json {
        Json::Obj(
            self.defs
                .iter()
                .zip(&self.values)
                .map(|(def, value)| {
                    let value = value
                        .or(default)
                        .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
                    (def.name.to_string(), cell(def, value))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER).chain(WORKLOAD_ONLY).map(|d| d.name).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(def.name, "_.-", 64), "{}", def.name);
            assert!(def.name.as_bytes()[0].is_ascii_alphanumeric(), "{}", def.name);
            assert!(ok(def.unit, "_/%.-", 16), "{}", def.unit);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn unset_metrics_take_the_default_or_panic() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.25);
        let json = m.to_json(Some(0.0));
        assert_eq!(
            json.get("setup_s").and_then(|c| c.get("value")).and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            json.get("ops_per_s").and_then(|c| c.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(std::panic::catch_unwind(|| Metrics::new(END_TO_END).to_json(None)).is_err());
    }
}
