#!/usr/bin/env bash
# Repo verification: style + lint gates, tier-1 build + tests, the host-time
# benchmark's smoke pass, a quick full reproduction pass, golden-file checks
# of the machine-readable reports, and the metrics regression gate against
# the checked-in baseline. Everything runs offline — the workspace has no
# external dependencies.
#
#   scripts/verify.sh [--full]
#
# `--full` additionally regenerates the paper-scale report (about a minute)
# and diffs it against scripts/golden/repro_full.txt. Exits non-zero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

full=false
case "${1-}" in
  "") ;;
  --full) full=true ;;
  *) echo "usage: scripts/verify.sh [--full]" >&2; exit 2 ;;
esac

# Golden-gate outputs land in a stable directory instead of mktemp/tmpfiles:
# each gate removes its own artifacts on success, so whatever is left after
# a failure is exactly the mismatching output — CI uploads this directory
# when verify fails.
verify_out="target/verify"
rm -rf "$verify_out"
mkdir -p "$verify_out"

# golden_at_workers GOLDEN CMD...: the stdout of CMD must equal
# scripts/golden/GOLDEN at worker-pool sizes 1, 2 and 8.
golden_at_workers() {
  local golden="$1"
  shift
  for w in 1 2 8; do
    BEEHIVE_WORKERS=$w "$@" > "$verify_out/$golden"
    diff -u "scripts/golden/$golden" "$verify_out/$golden"
  done
  rm -f "$verify_out/$golden"
}

echo "==> style: cargo fmt --check"
cargo fmt --check

echo "==> lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> docs: cargo doc --no-deps --offline"
# The workspace warns on missing docs; the doc build is the gate that the
# public API surface (including the new driver layers) stays documented
# and intra-doc links resolve.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline > /dev/null

echo "==> smoke: cargo run --release --example quickstart"
cargo run --release --offline --example quickstart > /dev/null

echo "==> benchmark: benchmark/run.sh --smoke + the package's own unit tests"
# The one measurement harness must keep building against these crates and
# passing its own checks (every workload and the per-layer pass, once).
benchmark/run.sh --smoke
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "==> golden: repro all --quick is byte-stable (text and --json, at 1 worker and at 2)"
# Every table and figure at quick scale, pinned by length and digest: the
# report text and the JSON document, each at a single worker and at two.
digests="scripts/golden/all_quick.digests"
for w in 1 2; do
  BEEHIVE_WORKERS=$w ./target/release/repro all --quick --seed 42 > "$verify_out/all_quick.text"
  BEEHIVE_WORKERS=$w ./target/release/repro all --quick --seed 42 --json > "$verify_out/all_quick.json"
  for form in text json; do
    out="$verify_out/all_quick.$form"
    printf '%s  %s  %s\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$(wc -c < "$out")" "$form"
  done > "$verify_out/all_quick.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/all_quick.digests"
  rm -f "$verify_out"/all_quick.*
done

echo "==> golden: the steady-offload items at seed 7 are byte-stable (at 1 worker and at 2)"
# The items the steady_offload benchmark workload runs, under a second
# scenario and chaos seed, pinned by length and digest: a change to how the
# interpreter executes bytecode must leave every figure they report alone.
digests="scripts/golden/steady_quick_seed7.digests"
for w in 1 2; do
  out="$verify_out/steady_quick_seed7.json"
  BEEHIVE_WORKERS=$w ./target/release/repro fig9 table5 ablations table4 --quick \
    --seed 7 --chaos-seed 7 --json > "$out"
  printf '%s  %s  json\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$(wc -c < "$out")" \
    > "$verify_out/steady_quick_seed7.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/steady_quick_seed7.digests"
  rm -f "$out" "$verify_out/steady_quick_seed7.digests"
done

echo "==> golden: repro fig9 --quick --seed 42 --json is byte-stable"
./target/release/repro fig9 --quick --seed 42 --json > "$verify_out/fig9_quick.json"
diff -u scripts/golden/fig9_quick.json "$verify_out/fig9_quick.json"
rm -f "$verify_out/fig9_quick.json"

echo "==> golden: traced quick repro critical-path summary is byte-stable"
trace_dir="$verify_out/trace"
mkdir -p "$trace_dir"
BEEHIVE_WORKERS=2 ./target/release/repro shadow --quick --seed 42 --trace "$trace_dir" > /dev/null
diff -u scripts/golden/shadow_summary_quick.json "$trace_dir/shadow.summary.json"
head -c 64 "$trace_dir/shadow.trace.json" | grep -q '^{"traceEvents":\[' \
  || { echo "trace file is not a Chrome trace-event document"; exit 1; }
rm -rf "$trace_dir"

echo "==> golden: the streamed --obs artifacts of table5 --quick are byte-stable"
# The Chrome trace is too large for a golden file (72 MB); its length and
# digest are pinned instead, with the two documents folded from the same
# event stream, at a worker count that streams every scenario straight into
# the file and at one that spills fragments to part files.
digests="scripts/golden/obs_table5_quick.digests"
for w in 1 2; do
  mkdir -p "$trace_dir"
  BEEHIVE_WORKERS=$w ./target/release/repro table5 --quick --seed 42 \
    --obs "$trace_dir" > /dev/null 2>&1
  grep -v '^#' "$digests" | while read -r _ _ file; do
    printf '%s  %s  %s\n' "$(sha256sum < "$trace_dir/$file" | cut -d' ' -f1)" \
      "$(wc -c < "$trace_dir/$file")" "$file"
  done > "$verify_out/obs_table5_quick.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/obs_table5_quick.digests"
  [ "$(ls "$trace_dir" | wc -l)" -eq 10 ] \
    || { echo "--obs left something besides its ten artifacts:"; ls "$trace_dir"; exit 1; }
  rm -rf "$trace_dir" "$verify_out/obs_table5_quick.digests"
done

echo "==> golden: the --obs artifacts of several items in one run are byte-stable"
# Three items in one invocation: one that runs no simulation and two that
# do, each with its own ten artifacts. The stdout (the reports) and every
# file are pinned by length and digest, at a single worker and at two.
digests="scripts/golden/obs_multi_quick.digests"
for w in 1 2; do
  mkdir -p "$trace_dir"
  BEEHIVE_WORKERS=$w ./target/release/repro table1 fig2 gcstats --quick --seed 42 \
    --obs "$trace_dir" > "$verify_out/stdout" 2> /dev/null
  grep -v '^#' "$digests" | while read -r _ _ file; do
    if [ "$file" = stdout ]; then path="$verify_out/stdout"; else path="$trace_dir/$file"; fi
    printf '%s  %s  %s\n' "$(sha256sum < "$path" | cut -d' ' -f1)" "$(wc -c < "$path")" "$file"
  done > "$verify_out/obs_multi_quick.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/obs_multi_quick.digests"
  [ "$(ls "$trace_dir" | wc -l)" -eq 20 ] \
    || { echo "--obs left something besides its twenty artifacts:"; ls "$trace_dir"; exit 1; }
  rm -rf "$trace_dir" "$verify_out/stdout" "$verify_out/obs_multi_quick.digests"
done

echo "==> golden: profiled quick repro folded stacks are byte-stable"
profile_dir="$verify_out/profile"
mkdir -p "$profile_dir"
BEEHIVE_WORKERS=2 ./target/release/repro shadow --quick --seed 42 \
  --profile "$profile_dir" > /dev/null
# The folded export is the per-endpoint attribution artifact: the same app
# methods appear under the server and faas:* lanes with lane-specific cost.
diff -u scripts/golden/profile_quick.folded "$profile_dir/shadow.folded"
# The JSON call tree is too large for a golden; check its shape instead.
head -c 32 "$profile_dir/shadow.profile.json" | grep -q '^{"scenarios":\[' \
  || { echo "profile file is not a profile document"; exit 1; }
rm -rf "$profile_dir"

echo "==> golden: every synthetic profile frame is byte-stable"
# Between them these three items charge every synthetic cost frame but
# `[sync:volatile]` (`[db:fallback]`, `[fallback:native]`, `[gc]`,
# `[recovery]`, …): their folded stacks are pinned by length and digest, at
# a single worker and at two.
digests="scripts/golden/profile_quick.digests"
for w in 1 2; do
  mkdir -p "$profile_dir"
  BEEHIVE_WORKERS=$w ./target/release/repro ablations recovery gcstats --quick --seed 42 \
    --profile "$profile_dir" > /dev/null 2>&1
  grep -v '^#' "$digests" | while read -r _ _ file; do
    printf '%s  %s  %s\n' "$(sha256sum < "$profile_dir/$file" | cut -d' ' -f1)" \
      "$(wc -c < "$profile_dir/$file")" "$file"
  done > "$verify_out/profile_quick.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/profile_quick.digests"
  rm -rf "$profile_dir" "$verify_out/profile_quick.digests"
done

echo "==> golden: repro recovery --quick is byte-stable at any worker count"
# The §4.5 fault-injection sweep must be deterministic in the worker pool
# size: the fault plan is expanded from its own seeded stream, and recovery
# happens inside each scenario's single-threaded event loop.
golden_at_workers recovery_quick.json \
  ./target/release/repro recovery --quick --seed 42 --json

echo "==> golden: repro recovery --quick is byte-stable under more chaos plans"
# Seed 42's plan restores from a snapshot only a handful of times; these
# seeds pin further plans (scenario and fault seeds moved together) by
# length and digest, at a single worker and at two.
seeds="scripts/golden/recovery_seeds.digests"
for w in 1 2; do
  grep -v '^#' "$seeds" | while read -r _ _ s; do
    out="$verify_out/recovery_seed_$s.json"
    BEEHIVE_WORKERS=$w ./target/release/repro recovery --quick --json \
      --seed "$s" --chaos-seed "$s" > "$out"
    printf '%s  %s  %s\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$(wc -c < "$out")" "$s"
    rm -f "$out"
  done > "$verify_out/recovery_seeds.digests"
  grep -v '^#' "$seeds" | diff -u - "$verify_out/recovery_seeds.digests"
  rm -f "$verify_out/recovery_seeds.digests"
done

echo "==> golden: repro explain is byte-stable at any worker count"
# The attribution + SLO breakdown is pure integer rendering over the
# deterministic trace, so the whole report is byte-identical at any
# worker-pool size.
golden_at_workers explain_shadow_quick.txt \
  ./target/release/repro explain --quick --seed 42 --slowest 3 shadow

echo "==> sentinel gate: repro check is clean and byte-stable at any worker count"
# Every golden scenario plus the §4.5 chaos recovery sweep runs under the
# conformance engine: zero invariant violations (the exit status is the
# gate), and the pinpointing report itself is byte-identical at any
# worker-pool size.
golden_at_workers check_quick.json \
  ./target/release/repro check fig9 shadow recovery --quick --seed 42 --json

echo "==> sentinel gate: every simulating item conforms, strictly and byte-stably"
# The same checker over every item that runs a simulation, with vocabulary
# drift escalated to violations: the exit status is the gate, and the whole
# report's length and digest are pinned at one worker and at two.
digests="scripts/golden/check_all_quick.digests"
for w in 1 2; do
  out="$verify_out/check_all_quick.json"
  BEEHIVE_WORKERS=$w ./target/release/repro check fig2 fig7 fig8 fig9 table4 fig10 \
    table5 gcstats shadow ablations combination recovery --quick --seed 42 \
    --strict --json > "$out"
  printf '%s  %s\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$(wc -c < "$out")" \
    > "$verify_out/check_all_quick.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/check_all_quick.digests"
  rm -f "$out" "$verify_out/check_all_quick.digests"
done

echo "==> golden: repro timeline is byte-stable at any worker count"
# The elasticity timeline — sparklines, per-bin quantiles and the derived
# scale-up-lag signals — is pure integer rendering over the deterministic
# event stream, so the ASCII report is byte-identical at any worker count.
golden_at_workers timeline_quick.txt \
  ./target/release/repro timeline recovery --quick --seed 42

echo "==> golden: repro timeline --json is byte-stable at any worker count"
# The timeline document `repro lag` reads back, pinned by length and digest
# for a bursty item (it carries a burst onset signal), for one run under
# chaos and for the two items that route through the scaled and combined
# strategies (their `forwarded` series counts every request sent to the
# scaled pool, their dispatch series every offload decision), at a single
# worker and at two.
digests="scripts/golden/timeline_json_quick.digests"
for w in 1 2; do
  grep -v '^#' "$digests" | while read -r _ _ item; do
    out="$verify_out/timeline_$item.json"
    BEEHIVE_WORKERS=$w ./target/release/repro timeline "$item" --quick --seed 42 --json > "$out"
    printf '%s  %s  %s\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$(wc -c < "$out")" "$item"
    rm -f "$out"
  done > "$verify_out/timeline_json_quick.digests"
  grep -v '^#' "$digests" | diff -u - "$verify_out/timeline_json_quick.digests"
  rm -f "$verify_out/timeline_json_quick.digests"
done

echo "==> lag gate: repro lag agrees across worker counts"
# Two --obs passes at different worker counts must yield identical timeline
# artifacts, so the scale-up-lag diff between them reports no regression.
lag_base="$verify_out/lag_base"
lag_cur="$verify_out/lag_cur"
mkdir -p "$lag_base" "$lag_cur"
BEEHIVE_WORKERS=1 ./target/release/repro recovery --quick --seed 42 \
  --obs "$lag_base" > /dev/null 2>&1
BEEHIVE_WORKERS=8 ./target/release/repro recovery --quick --seed 42 \
  --obs "$lag_cur" > /dev/null 2>&1
diff -u "$lag_base/recovery.timeline.json" "$lag_cur/recovery.timeline.json"
./target/release/repro lag "$lag_base" "$lag_cur" > /dev/null
rm -rf "$lag_base" "$lag_cur"

echo "==> metrics+insight gate: repro diff against scripts/golden/metrics_quick"
# A fixed path (not mktemp), since the `--bench-out` verdict names it: that
# verdict must equal the committed BENCH_metrics.json byte for byte. The
# golden directory carries both the
# metrics snapshots and the insight documents, so this exercises the full
# root-cause path of `repro diff`; with nothing regressed its verdict table
# must be byte-stable too, at every worker count. Every artifact is also
# byte-pinned: the metrics registry is a fold over the same events as the
# insight document, and must not drift inside the diff's tolerances either.
metrics_dir="target/metrics_quick"
# cmp_golden_metrics GLOB...: the named golden files equal the fresh ones.
cmp_golden_metrics() {
  for f in "$@"; do
    cmp "$f" "$metrics_dir/$(basename "$f")" >&2
  done
}
# The verdict table on stdout; everything else this prints goes to stderr.
metrics_insight_diff() {
  rm -rf "$metrics_dir" && mkdir -p "$metrics_dir"
  ./target/release/repro shadow fig9 recovery --quick --seed 42 \
    --metrics "$metrics_dir" --insight "$metrics_dir" > /dev/null
  cmp_golden_metrics scripts/golden/metrics_quick/*
  ./target/release/repro diff scripts/golden/metrics_quick "$metrics_dir" \
    --bench-out "$verify_out/BENCH_metrics.json"
  cmp BENCH_metrics.json "$verify_out/BENCH_metrics.json" >&2
}
golden_at_workers diff_quick.txt metrics_insight_diff
rm -f "$verify_out/BENCH_metrics.json"

echo "==> metrics gate: --metrics alone writes the same snapshots"
# With no other consumer, --metrics is what arms the telemetry recorder.
for w in 1 8; do
  rm -rf "$metrics_dir" && mkdir -p "$metrics_dir"
  BEEHIVE_WORKERS=$w ./target/release/repro shadow fig9 recovery --quick --seed 42 \
    --metrics "$metrics_dir" > /dev/null
  cmp_golden_metrics scripts/golden/metrics_quick/*.metrics.json \
    scripts/golden/metrics_quick/*.prom
done

echo "==> metrics gate: only the event_queue gauge moved since its digests were recorded"
# The number of pending simulator events depends on how the kernel keeps its
# queue; every other metric depends only on what the simulated system did.
# These digests were recorded before the queue changed and pin the rest.
digests="scripts/golden/metrics_quick_gauge_free.digests"
grep -v '^#' "$digests" | while read -r _ _ file; do
  sed -E 's/\{"name":"event_queue"[^}]*\},?//g; /beehive_event_queue/d' "$metrics_dir/$file" \
    > "$verify_out/gauge_free"
  printf '%s  %s  %s\n' "$(sha256sum < "$verify_out/gauge_free" | cut -d' ' -f1)" \
    "$(wc -c < "$verify_out/gauge_free")" "$file"
done > "$verify_out/metrics_quick_gauge_free.digests"
grep -v '^#' "$digests" | diff -u - "$verify_out/metrics_quick_gauge_free.digests"
rm -f "$verify_out/gauge_free" "$verify_out/metrics_quick_gauge_free.digests"
rm -rf "$metrics_dir"

if $full; then
  echo "==> golden: the paper-scale repro report is byte-stable (--full)"
  ./target/release/repro > "$verify_out/repro_full.txt"
  diff -u scripts/golden/repro_full.txt "$verify_out/repro_full.txt"
  rm -f "$verify_out/repro_full.txt"
fi

echo "OK: style, lint, build, tests, benchmark smoke, quick repro, goldens, sentinel, timeline, and the metrics gates all pass."
