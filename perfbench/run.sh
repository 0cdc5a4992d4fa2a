#!/usr/bin/env bash
# Build the benchmark (and the daemon it drives) from source, then run
# it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default perfbench/target).
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
