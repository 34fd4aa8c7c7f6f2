#!/usr/bin/env bash
# Perf ledger v1: the one command.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --workload NAME      that workload, untraced then traced
#   benchmark/run.sh --trace 0|1          every workload, that half only
#   benchmark/run.sh --workload NAME --trace 0|1
#                                         that one run, in one process, the
#                                         result object last (the driver's form)
#   benchmark/run.sh --repeat 2           two untraced sets, held to the bounds
#   benchmark/run.sh --smoke              ~2 s per workload on small rigs
#   benchmark/run.sh --seed N --seconds S
#   benchmark/run.sh --bless [--smoke]    regenerate expected/*.digest (seed 1)
#
# Builds offline into $CARGO_TARGET_DIR (default benchmark/target); exits
# non-zero when the build fails or any workload's outputs are incorrect.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Relative to the caller's directory when possible, so result paths read well.
dir="$(realpath --relative-to="$PWD" "$here")"

# The host's load before this command added its own: the build below and
# every workload run after another would otherwise read themselves.
read -r CAPM_BENCH_LOAD_AVG_1M _ < /proc/loadavg
export CAPM_BENCH_LOAD_AVG_1M

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export CAPM_BENCH_RUSTC="$(rustc -V)"

exec "$CARGO_TARGET_DIR/release/capmaestro-benchmark" --dir "$dir" "$@"
