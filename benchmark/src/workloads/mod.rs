//! The six workloads. Each builds its inputs from the seed, computes
//! reference answers with the pairwise hash-join engine, sets up (timed,
//! repeated), and hands one closed-loop round to [`crate::harness::measure`].

pub mod durable;
pub mod engines;
pub mod serve;

use crate::config::Ctx;
use crate::data::InputPrint;
use crate::harness::Measured;

/// A finished workload: what was measured, and what the inputs and answers
/// were, for the frozen-inputs check.
pub struct Outcome {
    pub measured: Measured,
    pub inputs: Vec<InputPrint>,
    /// Reference answers by query name.
    pub answers: Vec<(String, u64)>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "cyclic-lftj" => engines::cyclic(ctx, 1),
        "par2-cyclic" => engines::cyclic(ctx, crate::config::CLIENTS),
        "ms-patterns" => engines::ms_patterns(ctx),
        "serve-read" => serve::run(ctx, false),
        "serve-mixed" => serve::run(ctx, true),
        "durable-restart" => durable::run(ctx),
        other => panic!("unknown workload {other:?}; one of {:?}", crate::config::WORKLOADS),
    }
}
