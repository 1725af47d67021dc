#!/usr/bin/env bash
# Builds the benchmark package, then runs the untraced end-to-end binary
# (--trace 0) or the traced per-layer binary (--trace 1) with the same
# arguments. Run from the repository root; see fsambench/README.md.
set -euo pipefail

dir="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" --bins >&2

bin=fsambench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=fsambench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
