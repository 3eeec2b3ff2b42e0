#!/usr/bin/env bash
# Tier-1 verification gate: offline build, full test suite, and a quick
# end-to-end smoke of the figure pipeline. Run from anywhere; exits
# non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: offline release build =="
cargo build --release --offline

echo "== tier-1: clippy (deny warnings) =="
cargo clippy -q --workspace --offline --all-targets -- -D warnings

echo "== tier-1: rustdoc (deny warnings) =="
# Every intra-doc link must resolve: a deletion that leaves a doc link
# dangling fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== tier-1: test suite =="
cargo test -q --workspace --offline

echo "== tier-1: bj-lint --deny (16 kernels + call kernels + examples) =="
# Every kernel and example must be statically clean under the
# interprocedural lints; any finding anywhere fails the gate.
cargo run --release -q --offline -p blackjack-bench --bin bj-lint -- \
  --deny examples/programs/*.s >/dev/null

echo "== tier-1: fig_all smoke (BJ_SCALE=1) =="
BJ_SCALE=1 cargo run --release -q --offline -p blackjack-bench --bin fig_all >/dev/null

echo "== tier-1: BJ_TRACE smoke (traced detection run through bj-trace) =="
trace_file="$(mktemp /tmp/bj_trace_smoke.XXXXXX.jsonl)"
trap 'rm -f "$trace_file"' EXIT
# A traced injection run must detect, leave schema-valid JSONL behind,
# and bj-trace must render a non-empty report from it.
BJ_TRACE="$trace_file" cargo run --release -q --offline --bin bjsim -- \
  --quiet --fault backend:4:2 examples/programs/checksum.s | grep -q DETECTED
grep -q '"type":"meta"' "$trace_file"
grep -q '"type":"flight_event"' "$trace_file"
grep -q '"type":"detection"' "$trace_file"
rendered="$(cargo run --release -q --offline -p blackjack-bench --bin bj-trace -- "$trace_file")"
[ -n "$rendered" ]
echo "$rendered" | grep -q "flight recorder:"
echo "$rendered" | grep -q "detection:"

echo "== tier-1: bjsim --oracle smoke (commit-log replay, fault-free and faulted) =="
# A fault-free run must replay against the interpreter commit for commit;
# under a fault the replay names the first corrupted commit, and the run
# still detects and exits 0.
cargo run --release -q --offline --bin bjsim -- --quiet --oracle examples/programs/checksum.s \
  | grep -q "^oracle: all [0-9]* commits match the interpreter$"
cargo run --release -q --offline --bin bjsim -- --quiet --oracle --fault backend:4:2 \
  examples/programs/checksum.s | grep -q DETECTED

echo "== tier-1: equivalence matrix (release) =="
# Every campaign acceleration (snapshots, early exit, worker count,
# static pruning) must leave the detection report byte-identical to the
# plain replay path, for hard faults on every kernel the benchmark
# injects into and for transient and intermittent faults with ECC on;
# the matrix also pins the fork and early-exit counts that only working
# optimisations produce. The harness has no switch for the replay path,
# so this is its only check. The debug test suite above skips it.
cargo test --release -q --offline -p blackjack-bench --test detection_equiv

echo "== tier-1: benchmark package tests (release) =="
# The benchmark builds against the library's campaign API; a change that
# breaks its build or its own checks fails here. It builds into the
# ignored benchmark/target.
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml

echo "== tier-1: benchmark reps against its pinned outputs (one untraced rep each) =="
# Every benchmark op is checked against benchmark/expected/: the
# statistics of all 64 figure runs and the verdicts of all 1,700
# injection jobs. One rep of each of these workloads is the tier-1 check
# that the simulation still produces them (fuzz's programs are the oracle
# battery's, run below). The last stdout line is the run's JSON result.
for workload in figures inject-hard inject-transient; do
  cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seconds 1 --trace 0 2>/dev/null | tail -1 | grep -qF '"failed": 0'
done

echo "== tier-1: observability smoke (BJ_TRACE alone: metrics + progress) =="
# BJ_TRACE is the only telemetry switch: a traced run must stream at
# least one well-formed progress record (the guaranteed done:true tick)
# and the metrics record, render through bj-trace top — and leave stdout
# byte-identical to the unobserved run. The worker counts are pinned and
# differ, so the one diff checks both that observation is invisible and
# that the report does not depend on the worker count, on any host. Both
# sides run the full default sweep: its 8 groups on 3 workers build some
# groups while other groups' jobs run.
obs_file="$(mktemp /tmp/bj_obs_smoke.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$obs_file"' EXIT
obs_out="$(BJ_THREADS=1 BJ_TRACE="$obs_file" \
  cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection 2>/dev/null)"
plain_out="$(BJ_THREADS=3 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection 2>/dev/null)"
[ -n "$obs_out" ]
diff <(printf '%s' "$plain_out") <(printf '%s' "$obs_out")
# The final progress tick is guaranteed and carries the full shape.
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"done":true'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"jobs_total":'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"runs":'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"nondet":\["elapsed_nanos"'
grep -q '"type":"metrics"' "$obs_file"
top_out="$(cargo run --release -q --offline -p blackjack-bench --bin bj-trace -- top "$obs_file")"
echo "$top_out" | grep -q "campaign:"
echo "$top_out" | grep -q "phase attribution"
echo "$top_out" | grep -q "metrics registry:"

echo "== tier-1: bj-fuzz smoke (fixed seed, 50 iterations) =="
# Differential fuzz of the core against the interpreter: zero
# mismatches, zero fault-free false detections, all guaranteed-site
# injections detected or masked. Deterministic for the fixed seed.
cargo run --release -q --offline -p blackjack-fuzz --bin bj-fuzz -- \
  --seed 0xB1AC --iters 50 --quiet | grep -q "all checks passed"

echo "== tier-1: fault-universe oracle battery (bj-fuzz, all kinds, ECC on, 300 iterations) =="
# The soundness battery over the full universe: hard, transient, and
# intermittent plans on every site family with the LVQ SEC-DED layer on
# — every load-value site is guaranteed, so zero escapes anywhere. The
# 300 programs include the four whose faults wedge the core until the
# 200,000-cycle watchdog ends the run (the longest quiet stretches the
# simulator skips through), and the pinned verdict counts catch any
# change in what those runs, or any other, simulate.
battery="$(BJ_FAULT_KINDS=hard,transient,intermittent BJ_ECC=1 \
  cargo run --release -q --offline -p blackjack-fuzz --bin bj-fuzz -- \
  --seed 0xB1AC --iters 300 --quiet)"
echo "$battery" | grep -q "all checks passed"
echo "$battery" | grep -qF "guaranteed [detected 1149 watchdog 4 masked 2402 escaped 0]"

echo "verify: OK"
