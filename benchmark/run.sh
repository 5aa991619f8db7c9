#!/usr/bin/env bash
# Builds the benchmark package from source and runs it. Every argument goes to
# the binary; `run.sh --help` lists the modes. Nothing outside this directory
# is written: the build goes to $CARGO_TARGET_DIR (default benchmark/target),
# traces and results to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$here" status --porcelain 2>/dev/null || true)" ]; then
  commit="$commit+uncommitted"
fi

# defaults go last: the binary takes the first occurrence of a flag
exec "$CARGO_TARGET_DIR/release/das-benchmark" "$@" --out "$here/out" --commit "$commit"
