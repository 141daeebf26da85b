#!/usr/bin/env bash
# CI gate for the repo. Everything runs fully offline — the workspace has no
# registry dependencies by default (see the `proptest` feature note in the
# root Cargo.toml), so `--offline` must always succeed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format gate =="
cargo fmt --check

echo "== lint gate: clippy, warnings are errors =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1 gate: release build + test =="
cargo build --release
cargo test -q

echo "== full workspace, offline =="
cargo test --workspace --offline

echo "== served benchmark builds and passes its own tests =="
# xqpbench is a separate workspace on path deps: an engine API change that
# breaks its ledger must fail here, not in the benchmark run.
cargo test --offline --manifest-path xqpbench/Cargo.toml

echo "== crash-recovery suite =="
cargo test --offline --test recovery --test persistence

echo "== release CLI builds =="
cargo build --release --offline -p xqp-serve --bin xqp

echo "== differential regression corpus =="
cargo test --offline --test differential -q

echo "== differential fuzz smoke: 200 fresh cases across the engine matrix =="
# Seed from the commit so every CI run explores a different slice of the
# case space while staying reproducible from the log line it prints.
FUZZ_SEED=$((16#$(git rev-parse --short=8 HEAD 2>/dev/null || echo 1)))
./target/release/xqp fuzz --seed "$FUZZ_SEED" --iters 200

echo "== optimizer-rule fuzz smoke: 200 join-shaped cases across every rule ablation =="
# Join-shaped generator + the rule leg: every case is additionally checked
# with all rules / no rules / each of R10-R12 disabled against the
# all-rules reference, under all 12 Strategy x EvalMode configurations.
./target/release/xqp fuzz --joins --seed "$FUZZ_SEED" --iters 200

echo "== function-surface fuzz smoke: 200 cases over aggregates, focus and quantifiers =="
# Function-shaped generator + the same rule-ablation leg: aggregates over
# nested FLWORs, position()/last() windows, some/every quantifiers and
# typed-error hazards (multi-item string(), mixed-type min/max).
./target/release/xqp fuzz --functions --seed "$FUZZ_SEED" --iters 200

echo "== loopback fuzz smoke: 100 cases through a real client session =="
# The serving leg: every case runs through a TCP client session against a
# live server AND in-process; values must be byte-identical, errors
# class-compatible, and governor trips must agree as a class.
./target/release/xqp fuzz --server --seed "$FUZZ_SEED" --iters 100

echo "== fault-injection torture smoke: 300 seeded I/O fault points =="
# Same commit-derived seed: reproducible from the log, different slice of
# the fault space per commit. Any recovery-invariant violation fails CI.
./target/release/xqp torture --seed "$FUZZ_SEED" --iters 300

echo "== tiny-pool fuzz smoke: 100 cases with every paged leg behind a 4-page pool =="
# Each case's full engine matrix re-runs over the document spilled to paged
# storage behind a starved pool, plus pooled durable round trips — paged
# rank/select and content access must agree byte-for-byte while evicting.
./target/release/xqp fuzz --tiny-pool --seed "$FUZZ_SEED" --iters 100

echo "== paged torture smoke: 200 seeded I/O fault points over the paged store format =="
# The same recovery invariants with every database behind an 8-page pool:
# faults now land on page writes, paged opens, group-committed WAL batches
# and the snapshot->paged conversion paths.
./target/release/xqp torture --buffer-pages 8 --seed "$FUZZ_SEED" --iters 200

echo "== network torture smoke: 200 seeded wire fault points over a live server =="
# The wire twin of the disk sweep: one fault (error, short read/write,
# truncation, delay, mid-frame disconnect) per replay at every socket I/O
# point, asserting no panic, no slot leak, no wrong answer, convergence on
# retry. Commit-seeded like the rest; reproducible from the log line.
./target/release/xqp torture --net --seed "$FUZZ_SEED" --iters 200

echo "== buffer-pool smoke: XMark-shaped doc through an 8-page pool on the CLI =="
POOL_DOC=$(mktemp /tmp/xqp-ci-pool-XXXXXX.xml)
printf '<site><regions><africa>%s</africa></regions></site>' \
  "$(printf '<item id="i%d"><name>widget</name><payload>some moderately long padding text to spread the arena over many pages</payload></item>' {1..400})" > "$POOL_DOC"
./target/release/xqp query "$POOL_DOC" 'count(//item)' --buffer-pages 8 \
  2>/tmp/xqp-ci-pool-err | grep -qx '400' \
  || { echo "buffer-pool smoke FAILED: wrong count through the pool" >&2; exit 1; }
grep -q "buffer pool: " /tmp/xqp-ci-pool-err \
  || { echo "buffer-pool smoke FAILED: no pool counters on stderr" >&2; exit 1; }
XQP_BUFFER_PAGES=8 ./target/release/xqp query "$POOL_DOC" 'count(//item)' \
  2>/dev/null | grep -qx '400' \
  || { echo "buffer-pool smoke FAILED: XQP_BUFFER_PAGES env path broken" >&2; exit 1; }
rm -f "$POOL_DOC" /tmp/xqp-ci-pool-err

echo "== governor smoke: limits trip as typed errors on the CLI =="
GOV_DOC=$(mktemp /tmp/xqp-ci-gov-XXXXXX.xml)
printf '<r>%s</r>' "$(printf '<x><y>1</y></x>%.0s' {1..50})" > "$GOV_DOC"
if ./target/release/xqp query "$GOV_DOC" \
    "for \$a in doc()/r/x for \$b in doc()/r/x/y return \$b" \
    --max-rows 3 2>/tmp/xqp-ci-gov-err; then
  echo "governor smoke FAILED: row cap did not trip" >&2; exit 1
fi
grep -q "resource governor" /tmp/xqp-ci-gov-err \
  || { echo "governor smoke FAILED: error not governor-classed" >&2; exit 1; }
rm -f "$GOV_DOC" /tmp/xqp-ci-gov-err

echo "== server smoke: concurrent clients, mid-flight disconnect, writer, clean shutdown =="
SRV_DOC=$(mktemp /tmp/xqp-ci-srv-XXXXXX.xml)
printf '<bib>%s</bib>' "$(printf '<book year="1990"><title>t</title></book>%.0s' {1..200})" > "$SRV_DOC"
SRV_OUT=$(mktemp /tmp/xqp-ci-srv-out-XXXXXX)
SRV_IN=$(mktemp -u /tmp/xqp-ci-srv-in-XXXXXX); mkfifo "$SRV_IN"
./target/release/xqp serve "$SRV_DOC" --addr 127.0.0.1:0 > "$SRV_OUT" 2>/dev/null < "$SRV_IN" &
SRV_PID=$!
exec 9>"$SRV_IN"   # hold the server's stdin open; closing fd 9 stops it
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(head -n1 "$SRV_OUT"); [ -n "$ADDR" ] && break; sleep 0.1
done
[ -n "$ADDR" ] || { echo "server smoke FAILED: no bound address on stdout" >&2; exit 1; }
CLI="./target/release/xqp client $ADDR"
# Concurrent reader sessions racing a writer session.
READERS=()
for _ in 1 2 3 4; do
  (for _ in $(seq 1 5); do $CLI query doc 'count(//book)' >/dev/null 2>&1 || exit 1; done) &
  READERS+=($!)
done
$CLI insert doc /bib '<book year="2024"><title>new</title></book>' 2>/dev/null
$CLI delete doc '//book[@year="2024"]' 2>/dev/null
# A client killed mid-query must not wedge the server: the disconnect
# watcher cancels the abandoned query server-side.
timeout -s KILL 1 $CLI query doc \
  'for $a in //book for $b in //book for $c in //book return <p/>' >/dev/null 2>&1 || true
for pid in "${READERS[@]}"; do
  wait "$pid" || { echo "server smoke FAILED: a reader session errored" >&2; exit 1; }
done
$CLI query doc 'count(//book)' 2>/dev/null | grep -qx '200' \
  || { echo "server smoke FAILED: final count wrong after insert+delete" >&2; exit 1; }
exec 9>&-   # EOF on the server's stdin: deterministic clean shutdown
wait "$SRV_PID" || { echo "server smoke FAILED: unclean server exit" >&2; exit 1; }
rm -f "$SRV_DOC" "$SRV_OUT" "$SRV_IN"

echo "== drain smoke: SIGTERM under client load drains and exits clean =="
DRN_DOC=$(mktemp /tmp/xqp-ci-drn-XXXXXX.xml)
printf '<bib>%s</bib>' "$(printf '<book year="1990"><title>t</title></book>%.0s' {1..200})" > "$DRN_DOC"
DRN_OUT=$(mktemp /tmp/xqp-ci-drn-out-XXXXXX)
DRN_ERR=$(mktemp /tmp/xqp-ci-drn-err-XXXXXX)
DRN_IN=$(mktemp -u /tmp/xqp-ci-drn-in-XXXXXX); mkfifo "$DRN_IN"
./target/release/xqp serve "$DRN_DOC" --addr 127.0.0.1:0 --drain-ms 2000 \
  > "$DRN_OUT" 2>"$DRN_ERR" < "$DRN_IN" &
DRN_PID=$!
exec 8>"$DRN_IN"
DADDR=""
for _ in $(seq 1 100); do
  DADDR=$(head -n1 "$DRN_OUT"); [ -n "$DADDR" ] && break; sleep 0.1
done
[ -n "$DADDR" ] || { echo "drain smoke FAILED: no bound address" >&2; exit 1; }
# Clients hammering the server (with retries) when the SIGTERM lands.
# Sessions caught by the drain get a typed Draining refusal — an expected
# outcome here, not a failure.
for _ in 1 2 3; do
  (for _ in $(seq 1 40); do
     ./target/release/xqp client "$DADDR" query doc 'count(//book)' --retry 3 \
       >/dev/null 2>&1 || exit 0
   done) &
done
sleep 0.3
kill -TERM "$DRN_PID"
wait "$DRN_PID" || { echo "drain smoke FAILED: unclean exit after SIGTERM" >&2; exit 1; }
wait
grep -q -- "-- draining" "$DRN_ERR" \
  || { echo "drain smoke FAILED: no drain announcement on stderr" >&2; exit 1; }
grep -q -- "-- shutting down" "$DRN_ERR" \
  || { echo "drain smoke FAILED: no final stats line (orphan sessions?)" >&2; exit 1; }
exec 8>&-
rm -f "$DRN_DOC" "$DRN_OUT" "$DRN_ERR" "$DRN_IN"

echo "== benches compile (std harness, no criterion) =="
cargo build --offline --benches -p xqp-bench

echo "== E16 smoke: streaming vs materializing pipeline (release) =="
cargo bench --offline -p xqp-bench --bench exp_flwor_pipeline

echo "== T17 smoke: governor overhead on E16 workloads (release) =="
# Overhead numbers land in the log; the ≤5% acceptance bar is tracked in
# EXPERIMENTS.md (in-container runs are too noisy for a hard CI gate).
cargo bench --offline -p xqp-bench --bench exp_governor

echo "== T19 smoke: concurrent serving QPS under a streaming writer (release) =="
# Gates on served-equals-in-process soundness before timing; QPS medians
# land in BENCH_serve.json (single-core containers: flat scaling expected,
# see EXPERIMENTS.md T19).
cargo bench --offline -p xqp-bench --bench exp_serve

echo "== T20 smoke: paged-storage latency at 10%/50%/100% pool residency (release) =="
# Gates on paged-equals-resident answers before timing; medians land in
# BENCH_paged.json and the table is tracked in EXPERIMENTS.md T20.
cargo bench --offline -p xqp-bench --bench exp_paged

echo "== T21 smoke: streaming aggregate folds vs materializing (release) =="
# Gates on mode-equivalent answers before timing; peak-bindings and medians
# land in BENCH_functions.json and the table is tracked in EXPERIMENTS.md T21.
cargo bench --offline -p xqp-bench --bench exp_functions

echo "== T22 smoke: serving resilience under injected wire faults (release) =="
# Gates on served-equals-in-process soundness, zero lost requests for the
# retrying client at 0%/1%/5% fault rates, and ≤5% retry-layer overhead on
# the clean path; medians land in BENCH_resilience.json (EXPERIMENTS.md T22).
cargo bench --offline -p xqp-bench --bench exp_resilience

echo "CI gate passed."
