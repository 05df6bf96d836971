#!/usr/bin/env bash
# The command of BENCHMARK.json. Builds this package from source (a no-op when
# it is up to date) and hands every argument to the program:
#
#   bash benchmark/run.sh --workload serve-mixed --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh                      # suite: every workload once
#   bash benchmark/run.sh compare a.json b.json
#
# Cargo writes to $CARGO_TARGET_DIR when set, to benchmark/target otherwise;
# the program writes under benchmark/out. Nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
if [ "$#" -eq 0 ]; then
    set -- suite
fi
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/gj-benchmark" "$@"
