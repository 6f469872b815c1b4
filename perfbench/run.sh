#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); traced runs write their spans under .bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_GIT_SHA="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_RUSTC PERFBENCH_GIT_SHA
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
