#!/usr/bin/env bash
# The standing benchmark's one command. Builds the benchmark package from
# source, then either runs one workload once (any call that passes --trace:
# this is the form BENCHMARK.json records) or hands over to suite.py, which
# runs every workload with tracing off and then the traced pass.
#
#   benchmark/run.sh                      whole suite, default seed
#   benchmark/run.sh --seed 7             whole suite, another seed
#   benchmark/run.sh --workload nat_read  one workload, both passes
#   benchmark/run.sh --smoke              whole suite in under 15 s of measuring
#   benchmark/run.sh --selfcheck          whole suite twice, compared to the bounds
#   benchmark/run.sh --spread 10          ten seeds per workload, spread vs bounds
#   benchmark/run.sh --compare A B        two saved suite results
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last line of stdout is the result
set -euo pipefail
cd "$(dirname "$0")/.."

# The engine and the run length are fixed conditions of the benchmark.
unset FTC_ENGINE FTC_BENCH_QUICK

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/ftc-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bin" "$@"
    fi
done
FTC_BENCHMARK_BIN="$bin" exec python3 benchmark/suite.py "$@"
