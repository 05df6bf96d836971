//! Golden counters: the exact work Minesweeper reports on fixed smoke-scale
//! inputs. Every catalog query runs under every ablation configuration, and
//! every LDBC read under the default one, through `PreparedQuery`. A change
//! that claims to leave the algorithm alone — a faster point list, a cheaper
//! probe, a reused executor — must leave each of these counters bit-identical.
//!
//! The table was generated before the constant-factor work on the CDS, the
//! probes and the executor reuse. On a mismatch the test prints the table it
//! computed, so a change that deliberately moves a counter can replace it whole.

use gj_datagen::{powerlaw_cluster, LdbcConfig, SocialNetwork};
use gj_minesweeper::MsConfig;
use graphjoin::{workload_database, CatalogQuery, Counters, Database, Engine, LdbcQuery, Query};
use std::fmt::Write;
use std::sync::Arc;
use support::all_configs;

mod support;

/// One row per (query, configuration); the columns are the fields of
/// [`Counters`] in declaration order.
const GOLDEN: &str = "\
query               config    results bindings iterations batched probes skipped constraints cached truncations complete_hits cds_nodes steps backjumps materialized peak
3-clique            default   72 0 655 0 1504 461 329 681 0 0 98 1179 0 0 0
3-clique            no idea4  72 0 655 0 1965 0 329 681 0 0 98 1179 0 0 0
3-clique            no idea5  72 0 655 0 1504 461 329 0 0 0 98 1179 0 0 0
3-clique            no idea6  72 0 655 0 1504 461 329 681 0 0 98 1179 0 0 0
3-clique            no idea7  72 0 556 0 1347 321 545 0 0 0 146 1205 0 0 0
3-clique            baseline  72 0 556 0 1668 0 545 0 0 0 146 1205 0 0 0
3-clique            nothing   72 0 556 0 1668 0 545 0 0 0 146 1205 0 0 0
4-clique            default   10 0 840 0 3761 1279 411 1327 0 0 145 1917 0 0 0
4-clique            no idea4  10 0 840 0 5040 0 411 1327 0 0 145 1917 0 0 0
4-clique            no idea5  10 0 840 0 3761 1279 411 0 0 0 145 1917 0 0 0
4-clique            no idea6  10 0 840 0 3761 1279 411 1327 0 0 145 1917 0 0 0
4-clique            no idea7  10 0 619 0 3237 477 1099 0 0 0 291 2496 1 0 0
4-clique            baseline  10 0 619 0 3714 0 1099 0 0 0 291 2496 1 0 0
4-clique            nothing   10 0 619 0 3714 0 1099 0 0 0 291 2496 1 0 0
4-cycle             default   90 0 1253 0 3945 1067 482 2096 0 0 147 2831 0 0 0
4-cycle             no idea4  90 0 1253 0 5012 0 482 2096 0 0 147 2831 0 0 0
4-cycle             no idea5  90 0 1253 0 3945 1067 482 0 0 0 147 2831 0 0 0
4-cycle             no idea6  90 0 1253 0 3945 1067 482 2096 0 0 147 2831 0 0 0
4-cycle             no idea7  90 0 1009 0 3302 734 667 0 0 0 239 2769 0 0 0
4-cycle             baseline  90 0 1009 0 4036 0 667 0 0 0 239 2769 0 0 0
4-cycle             nothing   90 0 1009 0 4036 0 667 0 0 0 239 2769 0 0 0
3-path              default   1639 0 1131 515 3945 1710 498 979 11 1038 119 2491 0 0 0
3-path              no idea4  1639 0 1131 515 5655 0 498 979 11 1038 119 2491 0 0 0
3-path              no idea5  1639 0 2095 0 7281 3194 498 0 0 0 119 4238 0 0 0
3-path              no idea6  1639 0 2095 0 7281 3194 498 3275 11 0 119 3970 0 0 0
3-path              no idea7  1639 0 1131 515 3945 1710 498 979 11 1038 119 2491 0 0 0
3-path              baseline  1639 0 2095 0 10475 0 498 3275 11 0 119 3970 0 0 0
3-path              nothing   1639 0 2095 0 10475 0 498 0 0 0 119 4238 0 0 0
4-path              default   13107 0 5417 4595 24119 8383 731 1553 11 10392 168 12772 0 0 0
4-path              no idea4  13107 0 5417 4595 32502 0 731 1553 11 10392 168 12772 0 0 0
4-path              no idea5  13107 0 13769 0 61373 21241 731 0 0 0 168 27839 0 0 0
4-path              no idea6  13107 0 13769 0 61373 21241 731 22397 11 0 168 25719 0 0 0
4-path              no idea7  13107 0 5417 4595 24119 8383 731 1553 11 10392 168 12772 0 0 0
4-path              baseline  13107 0 13769 0 82614 0 731 22397 11 0 168 25719 0 0 0
4-path              nothing   13107 0 13769 0 82614 0 731 0 0 0 168 27839 0 0 0
1-tree              default   187 0 383 17 1015 517 264 479 10 48 70 694 0 0 0
1-tree              no idea4  187 0 383 17 1532 0 264 479 10 48 70 694 0 0 0
1-tree              no idea5  187 0 425 0 1151 549 264 0 0 0 70 783 0 0 0
1-tree              no idea6  187 0 425 0 1151 549 264 582 10 0 70 753 0 0 0
1-tree              no idea7  187 0 383 17 1015 517 264 479 10 48 70 694 0 0 0
1-tree              baseline  187 0 425 0 1700 0 264 582 10 0 70 753 0 0 0
1-tree              nothing   187 0 425 0 1700 0 264 0 0 0 70 783 0 0 0
2-tree              default   96844 0 27343 26383 229394 44036 951 2070 24 81885 394 84723 0 0 0
2-tree              no idea4  96844 0 27343 26383 273430 0 951 2070 24 81885 394 84723 0 0 0
2-tree              no idea5  96844 0 97660 0 823196 153404 951 0 0 0 394 185543 850 0 0
2-tree              no idea6  96844 0 97660 0 823196 153404 951 167396 24 0 394 181423 0 0 0
2-tree              no idea7  96844 0 27343 26383 229394 44036 951 2070 24 81885 394 84723 0 0 0
2-tree              baseline  96844 0 97660 0 976600 0 951 167396 24 0 394 181423 0 0 0
2-tree              nothing   96844 0 97660 0 976600 0 951 0 0 0 394 185543 850 0 0
2-comb              default   1639 0 1131 515 3945 1710 498 979 11 1038 119 2491 0 0 0
2-comb              no idea4  1639 0 1131 515 5655 0 498 979 11 1038 119 2491 0 0 0
2-comb              no idea5  1639 0 2095 0 7281 3194 498 0 0 0 119 4238 0 0 0
2-comb              no idea6  1639 0 2095 0 7281 3194 498 3275 11 0 119 3970 0 0 0
2-comb              no idea7  1639 0 1131 515 3945 1710 498 979 11 1038 119 2491 0 0 0
2-comb              baseline  1639 0 2095 0 10475 0 498 3275 11 0 119 3970 0 0 0
2-comb              nothing   1639 0 2095 0 10475 0 498 0 0 0 119 4238 0 0 0
2-lollipop          default   5664 0 21910 0 95127 36333 700 23518 0 0 161 32651 0 0 0
2-lollipop          no idea4  5664 0 21910 0 131460 0 700 23518 0 0 161 32651 0 0 0
2-lollipop          no idea5  5664 0 21910 0 95127 36333 700 0 0 0 161 32651 0 0 0
2-lollipop          no idea6  5664 0 21910 0 95127 36333 700 23518 0 0 161 32651 0 0 0
2-lollipop          no idea7  5664 0 10394 0 46700 15664 1011 0 0 0 209 24154 0 0 0
2-lollipop          baseline  5664 0 10394 0 62364 0 1011 0 0 0 209 24154 0 0 0
2-lollipop          nothing   5664 0 10394 0 62364 0 1011 0 0 0 209 24154 0 0 0
3-lollipop          default   10610 0 297368 0 2394216 579464 1222 466208 0 0 257 575782 0 0 0
3-lollipop          no idea4  10610 0 297368 0 2973680 0 1222 466208 0 0 257 575782 0 0 0
3-lollipop          no idea5  10610 0 297368 0 2394216 579464 1222 0 0 0 257 575782 0 0 0
3-lollipop          no idea6  10610 0 297368 0 2394216 579464 1222 466208 0 0 257 575782 0 0 0
3-lollipop          no idea7  10610 0 47013 0 399546 70584 1766 0 0 0 403 570559 1 0 0
3-lollipop          baseline  10610 0 47013 0 470130 0 1766 0 0 0 403 570559 1 0 0
3-lollipop          nothing   10610 0 47013 0 470130 0 1766 0 0 0 403 570559 1 0 0
2-hop-friends       default   130 0 379 59 901 236 302 536 23 156 81 863 0 0 0
3-hop-friends       default   721 0 991 518 3009 955 483 943 23 1332 121 2618 0 0 0
friend-triangle     default   21 0 360 0 782 298 229 418 0 0 77 714 0 0 0
common-likes        default   821 0 2858 0 3662 2054 1857 0 0 0 842 8157 0 0 0
creator-fan         default   214 0 913 0 1650 1089 1001 0 0 0 444 1929 0 0 0
tagged-creator-path default   115 0 410 0 615 1025 371 0 0 0 169 807 0 0 0
mutual-fans         default   82 0 1020 0 2222 838 1366 0 0 0 713 4463 432 0 0
fresh-likes         default   177 0 598 0 621 575 606 0 0 0 235 925 0 0 0
common-tag-pair     default   87 0 286 0 652 206 179 518 7 0 104 740 0 0 0
fan-fan-tag         default   3447 0 4013 0 11706 8359 639 0 0 0 297 12469 0 0 0
deep-tag-reach      default   135 0 583 0 1614 1884 590 0 0 0 216 1685 0 0 0
";

/// Every field of `c`, in declaration order (a new field fails to compile here).
fn fields(c: &Counters) -> [u64; 15] {
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
    } = *c;
    [
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
    ]
}

/// Counts `query` three times on one prepared plan, checks that the second and
/// third executions report exactly the first one's counters, and appends the
/// row to `table`.
fn record(table: &mut String, db: &Database, query: &Query, label: &str, config: MsConfig) {
    let prepared = db.prepare(query, &Engine::Minesweeper(config)).expect("prepare");
    let (count, first) = prepared.count_with_stats().expect("count");
    assert_eq!(first.counters.results, count, "{} {label}", query.name);
    for execution in 2..=3 {
        let (again, stats) = prepared.count_with_stats().expect("count");
        assert_eq!(again, count, "{} {label}: execution {execution}", query.name);
        assert_eq!(
            stats.counters, first.counters,
            "{} {label}: execution {execution} of one plan must repeat the first exactly",
            query.name
        );
    }
    let values: Vec<String> = fields(&first.counters).iter().map(u64::to_string).collect();
    writeln!(table, "{:<19} {:<9} {}", query.name, label, values.join(" ")).expect("write");
}

#[test]
fn minesweeper_counters_match_the_golden_table() {
    let mut table = GOLDEN.lines().next().expect("header").to_string();
    table.push('\n');

    // Smaller and sparser than the benchmark's `powerlaw_cluster(n, 8, 0.4)`:
    // on 120 nodes at 8 edges per node one 3-lollipop execution takes about a
    // minute, here a fraction of a second.
    let graph = Arc::new(powerlaw_cluster(48, 3, 0.4, 2014));
    for cq in CatalogQuery::all() {
        let db = workload_database(Arc::clone(&graph), cq, 4, 2014);
        for (label, config) in all_configs() {
            record(&mut table, &db, &cq.query(), label, config);
        }
    }

    let config = LdbcConfig { persons: 40, tags: 16, ..LdbcConfig::default() };
    let net = SocialNetwork::generate(&config).expect("valid config");
    let mut db = Database::new();
    for (name, rel) in net.relations() {
        db.add_relation(*name, rel.clone());
    }
    for lq in LdbcQuery::all() {
        record(&mut table, &db, &lq.query(), "default", MsConfig::default());
    }

    for (line, (got, want)) in table.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {line} differs; the computed table is:\n{table}");
    }
    assert_eq!(table.lines().count(), GOLDEN.lines().count(), "the computed table is:\n{table}");
}
