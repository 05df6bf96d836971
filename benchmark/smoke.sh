#!/usr/bin/env bash
# All six workloads at tiny sizes, untraced and traced, then a check that the
# output holds exactly the workload and metric names (with units) that
# BENCHMARK.json lists. A quarter of a minute; the numbers mean nothing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/out
bash benchmark/run.sh suite --smoke --trace both --out benchmark/out/smoke.json >/dev/null
bash benchmark/run.sh check-schema benchmark/out/smoke.json
