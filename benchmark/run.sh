#!/usr/bin/env bash
# Builds the benchmark and the cocktail-serve binary from this checkout,
# then runs one benchmark pass. Run from the repository root:
#
#   bash benchmark/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. Exits non-zero, printing no result, when anything fails to build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p cocktail-serve --bin cocktail-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/cocktail-e2e-bench" \
    --server-bin "$CARGO_TARGET_DIR/release/cocktail-serve" "$@"
