#!/usr/bin/env bash
# Formatting, lints, unit tests and a smoke run of the standalone benchmark
# package: the one step a CI job needs. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
# Every workload at 1/20 size, untraced and traced, each in its own process.
cargo run --release --offline --manifest-path "$manifest" -- run --smoke --seconds 1
cargo run --release --offline --manifest-path "$manifest" -- run --smoke --seconds 1 --trace 1
