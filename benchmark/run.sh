#!/usr/bin/env bash
# Builds fabench in release mode and runs it with the arguments given.
#
#   benchmark/run.sh --workload net_closed --seed 1 --seconds 8 --trace 0   one run, one result line
#   benchmark/run.sh [--seed N]                                             one full set, all workloads
#   benchmark/run.sh --repeat 10                                            ten sets and the noise floor
#   benchmark/run.sh --check                                                every output check, quickly
#
# Run it from the root of the checkout. The build goes to
# $CARGO_TARGET_DIR when set (relative to the current directory, as
# cargo reads it) and to benchmark/target otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/fabench" "$@"
