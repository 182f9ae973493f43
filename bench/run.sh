#!/bin/sh
# The benchmark's command (BENCHMARK.json): build the benchmark crate from
# source, then hand every argument to the untraced binary. Run from the
# repository root; honours CARGO_TARGET_DIR (relative to the root) and
# falls back to cargo's default for this manifest, bench/target.
set -e
here=$(dirname "$0")
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/armada-bench" "$@"
