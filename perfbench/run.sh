#!/usr/bin/env bash
# Build the release `fairrank` binary and the benchmark harness from the
# sources of the checkout this is run from, then run the harness.
#
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Both builds honour CARGO_TARGET_DIR
# (relative to the repository root); the last line of stdout is the
# result JSON.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-perfbench/target}"

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin fairrank >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# not exec'd: the harness reads the peak RSS of its reaped children, and
# an exec'd harness would inherit the two cargo builds as reaped children
"$bench_target/release/perfbench" --fairrank "$target/release/fairrank" "$@"
