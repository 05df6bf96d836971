//! Helpers shared by the root integration tests that include this module.

use gj_minesweeper::MsConfig;

/// Every Minesweeper configuration the ablation tests cover: the default, each
/// idea switched off on its own (Idea 6 goes with Idea 5, which it needs), the
/// paper's "no ideas" baseline, and everything off.
pub fn all_configs() -> Vec<(&'static str, MsConfig)> {
    let base = MsConfig::default();
    vec![
        ("default", base.clone()),
        ("no idea4", MsConfig { idea4_gap_memo: false, ..base.clone() }),
        (
            "no idea5",
            MsConfig { idea5_caching: false, idea6_complete_nodes: false, ..base.clone() },
        ),
        ("no idea6", MsConfig { idea6_complete_nodes: false, ..base.clone() }),
        ("no idea7", MsConfig { idea7_skeleton: false, ..base.clone() }),
        ("baseline", MsConfig::baseline()),
        (
            "nothing",
            MsConfig {
                idea4_gap_memo: false,
                idea5_caching: false,
                idea6_complete_nodes: false,
                idea7_skeleton: false,
                ..base
            },
        ),
    ]
}
