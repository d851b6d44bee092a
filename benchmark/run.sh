#!/usr/bin/env bash
# The performance ledger's one command: builds the benchmark package from
# source (release, offline) and hands every argument to it.
#
#   benchmark/run.sh                         all six workloads, every metric
#   benchmark/run.sh storm_w1 --no-trace     named workloads, end-to-end only
#   benchmark/run.sh selfcheck               the suite twice, held to the bounds
#   benchmark/run.sh --workload storm_w1 --seed 7 --seconds 10 --trace 0
#                                            the driver's form: one JSON line
#
# README.md beside this file has the protocol and the reasons for it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# cargo reports on stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/potemkin-benchmark" "$@"
