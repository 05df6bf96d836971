//! The frozen inputs: for the default and the held-out seed, the fingerprint
//! of every input relation and every reference answer, per workload. A run
//! whose generated inputs differ fails before it measures anything, so a
//! drifting generator cannot silently move the numbers.

use crate::config::{Ctx, DEFAULT_SEED};
use crate::json::Json;
use crate::workloads::Outcome;

const FROZEN: &str = include_str!("../frozen.json");

/// This run's inputs and answers in the form `frozen.json` stores them.
pub fn describe(outcome: &Outcome) -> Json {
    Json::obj([
        (
            "inputs",
            Json::Obj(
                outcome
                    .inputs
                    .iter()
                    .map(|p| {
                        let prints = vec![Json::str(p.base.render()), Json::str(p.loaded.render())];
                        (p.name.clone(), Json::Arr(prints))
                    })
                    .collect(),
            ),
        ),
        (
            "answers",
            Json::Obj(
                outcome.answers.iter().map(|(q, n)| (q.clone(), Json::Num(*n as f64))).collect(),
            ),
        ),
    ])
}

/// Compares this run with the frozen record: everything when the seed is a
/// frozen one, the seed-independent base fingerprints otherwise.
pub fn check(ctx: &Ctx, outcome: &Outcome) -> Result<&'static str, String> {
    if ctx.smoke {
        return Ok("not checked (smoke sizes)");
    }
    let frozen = Json::parse(FROZEN).map_err(|e| format!("frozen.json: {e}"))?;
    let entry = |seed: u64| {
        frozen
            .get("seeds")
            .and_then(|s| s.get(&seed.to_string()))
            .and_then(|s| s.get(&ctx.workload))
    };
    let mine = describe(outcome);
    if let Some(expected) = entry(ctx.seed) {
        if *expected != mine {
            return Err(format!(
                "inputs or answers of seed {} differ from frozen.json\n  frozen: {}\n  now:    {}",
                ctx.seed,
                expected.emit(),
                mine.emit()
            ));
        }
        return Ok("inputs and answers match frozen.json");
    }
    let expected =
        entry(DEFAULT_SEED).ok_or(format!("frozen.json has no entry for {}", ctx.workload))?;
    for print in &outcome.inputs {
        let frozen_base = expected
            .get("inputs")
            .and_then(|i| i.get(&print.name))
            .and_then(Json::as_arr)
            .and_then(|a| a[0].as_str());
        if frozen_base != Some(print.base.render().as_str()) {
            return Err(format!(
                "base relation {} is {}, frozen.json says {frozen_base:?}: the generator drifted",
                print.name,
                print.base.render()
            ));
        }
    }
    Ok("base inputs match frozen.json (seed-specific answers are not frozen for this seed)")
}
