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

echo "== tier-1: BJ_SNAPSHOT equivalence smoke (ext_detection, gzip, equake, gcc and apsi) =="
# The fork-at-injection path must be invisible in the report: stdout is
# byte-identical with snapshots off (replay from cycle 0) and on. gzip
# touches 2 memory pages; equake touches 1,192, so its forks write
# through pages that their snapshots still share. A snapshot copies the
# uop slab only up to its last live slot and each active list only over
# its window: gcc's slab is cut deepest (in BlackJack mode, about 16
# live uops of a 959-slot slab through the late half, where the arms
# are), and apsi's windows are the longest (about 530 entries over both
# contexts in BlackJack mode).
for bench in gzip equake gcc apsi; do
  snap_off="$(BJ_SCALE=1 BJ_SNAPSHOT=0 cargo run --release -q --offline -p blackjack-bench \
    --bin ext_detection -- --bench "$bench" 2>/dev/null)"
  snap_on="$(BJ_SCALE=1 BJ_SNAPSHOT=1 cargo run --release -q --offline -p blackjack-bench \
    --bin ext_detection -- --bench "$bench" 2>/dev/null)"
  [ -n "$snap_on" ]
  diff <(printf '%s' "$snap_off") <(printf '%s' "$snap_on")
done

echo "== tier-1: bench_snapshot (refreshes BENCH_snapshot.json) =="
# Full-sweep replay-vs-fork timing; asserts the reports match and
# requires the measured speedup recorded in BENCH_snapshot.json.
BJ_SCALE=1 cargo run --release -q --offline -p blackjack-bench --bin bench_snapshot >/dev/null
grep -q '"reports_identical": true' BENCH_snapshot.json

echo "== tier-1: BJ_EARLYEXIT equivalence smoke (ext_detection, gzip) =="
# The early-exit layer must be invisible in the report: stdout is
# byte-identical with every run simulated to its natural end and with
# runs cut the moment their verdict is decided.
ee_off="$(BJ_SCALE=1 BJ_EARLYEXIT=0 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
ee_on="$(BJ_SCALE=1 BJ_EARLYEXIT=1 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
[ -n "$ee_on" ]
diff <(printf '%s' "$ee_off") <(printf '%s' "$ee_on")

echo "== tier-1: bench_earlyexit (refreshes BENCH_earlyexit.json) =="
# Full-sweep full-run-vs-early-exit timing; asserts the reports match
# and records the speedup with per-mechanism attribution.
BJ_SCALE=1 cargo run --release -q --offline -p blackjack-bench --bin bench_earlyexit >/dev/null
grep -q '"reports_identical": true' BENCH_earlyexit.json

echo "== tier-1: bj-bench --check (bench regression gate) =="
# The unified BENCH_*.json documents (just refreshed above) must pass
# their committed tolerances: speedup floors, throughput ratio bounds,
# and the exact early-exit attribution counts.
cargo run --release -q --offline -p blackjack-bench --bin bj-bench -- --check

echo "== tier-1: observability smoke (BJ_METRICS + BJ_PROGRESS_SECS) =="
# A metrics-and-progress run must stream at least one well-formed
# progress record (the guaranteed done:true tick), the phase and metrics
# record families, render through bj-trace top — and leave stdout
# byte-identical to the unobserved run. The worker counts are pinned and
# differ, so the one diff checks both that observation is invisible and
# that the report does not depend on the worker count, on any host.
obs_file="$(mktemp /tmp/bj_obs_smoke.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$obs_file"' EXIT
obs_out="$(BJ_SCALE=1 BJ_THREADS=1 BJ_METRICS=1 BJ_PROGRESS_SECS=1 BJ_TRACE="$obs_file" \
  cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
plain_out="$(BJ_SCALE=1 BJ_THREADS=8 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
[ -n "$obs_out" ]
diff <(printf '%s' "$plain_out") <(printf '%s' "$obs_out")
# The final progress tick is guaranteed and carries the full shape.
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"done":true'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"jobs_total":'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"nondet":\["elapsed_nanos"'
grep -q '"type":"phase"' "$obs_file"
grep -q '"type":"metrics"' "$obs_file"
top_out="$(cargo run --release -q --offline -p blackjack-bench --bin bj-trace -- top "$obs_file")"
echo "$top_out" | grep -q "campaign:"
echo "$top_out" | grep -q "phase attribution"
echo "$top_out" | grep -q "metrics registry:"

echo "== tier-1: call-kernel equivalence smoke (ext_detection, perlbmk) =="
# The call-bearing kernel's report rows must be byte-identical with
# static pruning on and off (pruning changes only the trailing
# pruned_sites block, stripped here).
pr_off="$(BJ_SCALE=1 BJ_PRUNE=0 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench perlbmk 2>/dev/null | sed '/^pruned_sites/,$d')"
pr_on="$(BJ_SCALE=1 BJ_PRUNE=1 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench perlbmk 2>/dev/null | sed '/^pruned_sites/,$d')"
[ -n "$pr_on" ]
diff <(printf '%s' "$pr_off") <(printf '%s' "$pr_on")

echo "== tier-1: bj-fuzz smoke (fixed seed, 50 iterations) =="
# Differential fuzz of the core against the interpreter: zero
# mismatches, zero fault-free false detections, all guaranteed-site
# injections detected or masked. Deterministic for the fixed seed.
BJ_FUZZ_ITERS=50 cargo run --release -q --offline -p blackjack-fuzz --bin bj-fuzz -- \
  --seed 0xB1AC --quiet | grep -q "all checks passed"

echo "== tier-1: transient-campaign smoke (ext_detection, gzip and equake, worker determinism) =="
# A transient campaign with the ECC layer on must report the CE/DUE/SDC
# taxonomy and be byte-identical for any worker count. On 8 workers
# every chain is live at once and both threads fork from snapshots
# whose cache chunks they share; equake touches far more L2 sets.
for bench in gzip equake; do
  tr_1="$(BJ_SCALE=1 BJ_THREADS=1 BJ_FAULT_KINDS=transient BJ_ECC=1 \
    cargo run --release -q --offline -p blackjack-bench \
    --bin ext_detection -- --bench "$bench" 2>/dev/null)"
  tr_8="$(BJ_SCALE=1 BJ_THREADS=8 BJ_FAULT_KINDS=transient BJ_ECC=1 \
    cargo run --release -q --offline -p blackjack-bench \
    --bin ext_detection -- --bench "$bench" 2>/dev/null)"
  [ -n "$tr_1" ]
  echo "$tr_1" | grep -q "per injected transient fault"
  echo "$tr_1" | grep -q "taxonomy (ECC on):"
  diff <(printf '%s' "$tr_1") <(printf '%s' "$tr_8")
done

echo "== tier-1: fault-universe oracle battery (bj-fuzz, all kinds, ECC on) =="
# The soundness battery over the full universe: hard, transient, and
# intermittent plans on every site family with the LVQ SEC-DED layer on
# — every load-value site is guaranteed, so zero escapes anywhere.
BJ_FUZZ_ITERS=50 BJ_FAULT_KINDS=hard,transient,intermittent BJ_ECC=1 \
  cargo run --release -q --offline -p blackjack-fuzz --bin bj-fuzz -- \
  --seed 0xB1AC --quiet | grep -q "all checks passed"

echo "verify: OK"
