#!/usr/bin/env bash
# Build the release `reecc` binary and this benchmark from source, then run
# one workload. Arguments: --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p reecc-cli --bin reecc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/reecc-perfbench" --reecc "$CARGO_TARGET_DIR/release/reecc" "$@"
