#!/usr/bin/env bash
# The host-time benchmark: builds `repro` and the benchmark, runs it, checks
# outputs, prints every metric by name with its unit. README.md has the rest.
#
#   benchmark/run.sh [--seed N] [--reps N] [--layers] [--smoke] [--out FILE]
#   benchmark/run.sh --noise
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."

# With CARGO_TARGET_DIR set (the benchmark driver sets it) both builds share
# it; otherwise `repro` lands in target/ as always and the benchmark package
# in target/benchmark, so neither disturbs the other's artifacts.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  repro_dir="$CARGO_TARGET_DIR"
  bench_dir="$CARGO_TARGET_DIR"
  work_dir="$CARGO_TARGET_DIR/benchmark-out"
else
  repro_dir="target"
  bench_dir="target/benchmark"
  work_dir="target/benchmark/out"
fi

build_start=$(date +%s%N)
# --workspace: the root facade does not depend on beehive-bench (repro).
# --manifest-path: without the repo around it (no ./Cargo.toml) this must
# fail here, not pick up some manifest in a parent directory.
cargo build --release --offline --workspace --manifest-path Cargo.toml >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$bench_dir" >&2
build_ns=$(( $(date +%s%N) - build_start ))
build_s="$(( build_ns / 1000000000 )).$(printf '%09d' $(( build_ns % 1000000000 )))"

exec "$bench_dir/release/beehive-benchmark" \
  --repro "$repro_dir/release/repro" --work "$work_dir" --build-s "$build_s" "$@"
