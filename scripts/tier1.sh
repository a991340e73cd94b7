#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green.
#
# Fully offline by design — the workspace has no external dependencies
# (see DESIGN.md §4), so `--offline` both enforces that invariant and
# keeps the gate runnable on air-gapped boxes. `--workspace` matters:
# a plain `cargo test` in this workspace runs only the root package.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings -W clippy::perf
# Rustdoc gate: a broken intra-doc link, or a public doc linking a private
# item, fails the build instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --keep-going
# Cargo unifies features, so cv-sim's fault-injection feature can be on
# while cv-server's own is off; every cv-sim type cv-server builds must
# still compile in that union.
cargo check --offline -p cv-server --features cv-sim/fault-injection

# Shield smoke through the public API: a full-throttle planner on the left
# turn and a reckless cruise controller on car following, each wrapped in
# safe_shield::CompoundPlanner, the type the engine runs. Each example
# asserts that its shield held (no collision, the gap kept).
cargo run -q --release --offline --example custom_planner
cargo run -q --release --offline --example car_following

# Benchmark smoke: perfbench is a cargo workspace of its own, so the
# workspace build above never compiles it. Build it, then run every
# workload for one second: each run must exit 0 and its last line must
# report a correct run with no failed operation. The runs check their
# outputs against the per-episode reference (bit for bit, or within the
# lane tolerance gate on tables-lanes) and the service's summaries against
# an in-process run. Planners are cached under perfbench/target/.
PERFBENCH=(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --)
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in tables tables-lanes platoon service; do
  last=$(timeout 300 "${PERFBENCH[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  { echo "$last" | grep -q '"correct": true' && echo "$last" | grep -q '"failed": 0,'; } \
    || { echo "tier1: perfbench $workload did not run correctly:"; echo "$last"; exit 1; } >&2
done

# Lane-batching smoke: the integration-level numeric contract (DESIGN.md
# §15) — K=4 batches compared per episode against the per-episode
# reference under the tolerance gate, Lanes(1) bit-identity, and the
# early-exit refill case — in release mode, where the vectorised kernels
# the contract is about are actually selected.
timeout 300 cargo test -q --release --offline --test lane_batching

# Golden-fingerprint smoke: every exact path's pinned digests, and the
# event wheel's delivery-order digests (tests/event_core.rs: seeds x worker
# counts x stacks, tick-collision delays; engine_golden's odd cadences;
# DESIGN.md §18), in release mode, where the optimiser may reorder what the
# debug run above does not.
timeout 300 cargo test -q --release --offline --test engine_golden --test event_core

# Alloc-guard: the counting-allocator proof that the NN hot paths
# (predict_into, forward_batch_into, NnPlanner::plan, the warmed episode
# loop, Trainer::fit's mini-batches and the lane-batched step loop) are
# allocation-free in the steady state (DESIGN.md §13, §15). Runs in release
# mode as its own binary so its #[global_allocator] never leaks into the
# workspace test run above.
timeout 300 cargo test -q --release --offline --test alloc_guard

# NN bit-identity smoke, in release mode (the optimiser settings under
# which the equivalences actually have to hold): cv-nn's tiled/fused kernels
# against the naive kernels its tests keep under #[cfg(test)], and the
# trainer against its golden digests — cv-nn's fixed `Trainer::fit` runs
# and cv-planner's behaviour-cloning run, pinned across commits.
timeout 300 cargo test -q --release --offline -p cv-nn -p cv-planner

# Cache smoke in release mode: the LRU's eviction order and counters, the
# segment store's crash properties, and the barrier-synchronised race of
# readers against evictions on the one lock, which the optimiser schedules
# differently than the debug pass above.
timeout 300 cargo test -q --release --offline -p cv-cache

# Chaos smoke run: the seeded fault matrix through the cv-chaos proxy in
# release mode (timings differ from the debug pass above), under a hard
# wall-clock cap so a hang in any networking path fails the gate instead
# of wedging it. The full matrix/soak lives in scripts/soak.sh.
timeout 300 cargo test -q --release --offline -p cv-server --test chaos_e2e

# Supervision smoke run: deadlines, cancellation determinism, and overload
# shedding in release mode (DESIGN.md §12). Same hard cap rationale as the
# chaos smoke above.
timeout 300 cargo test -q --release --offline -p cv-server --test supervision_e2e

# Service smoke in release mode: the daemon's end-to-end contract
# (bit-identical streamed summaries, malformed-input survival, cancel,
# drain), the wire codec's properties, and the cache's warm stream, whose
# frames must be byte for byte what the `to_json` oracle encodes. Bursts
# of frames only form when the runner and a connection thread race, and
# they race differently in release than in debug.
timeout 300 cargo test -q --release --offline -p cv-server --test e2e --test wire_props \
  --test cache_e2e

# Panic isolation behind the fault-injection feature: the deliberately
# panicking planner stack is not nameable in default builds, so this is
# the only place the containment/quarantine path gets release coverage.
# The feature is additive — default-build artifacts above are untouched.
timeout 300 cargo test -q --release --offline -p cv-server \
  --features fault-injection --test panic_isolation

# The fault-injection unit tests of cv-sim and cv-server: the fan-out's
# dead-worker rescue through the kill switch, panic containment and
# quarantine at the library and the daemon layer. Same feature, same cap.
timeout 300 cargo test -q --release --offline -p cv-sim -p cv-server \
  --features cv-server/fault-injection --lib

# Cache smoke: a daemon with a small content-addressed result cache must
# answer a repeated batch entirely from the cache (hits == episodes) with
# summary lines identical to the first run, byte for byte (the wall-time
# and cache-counter lines are the only operational, non-deterministic
# ones). Exercises cv-serve flags, the wire counters, and the server-side
# cache end to end.
CACHE_LOG=target/tier1-cache-serve.log
cargo run -q --release --offline -p cv-server --bin cv-serve -- \
  --addr 127.0.0.1:0 --cache-bytes 1048576 > "$CACHE_LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^cv-serve listening on //p' "$CACHE_LOG")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
test -n "$ADDR" || { echo "tier1: cv-serve never reported its address" >&2; exit 1; }
submit() {
  cargo run -q --release --offline -p cv-server --bin cv-submit -- \
    --addr "$ADDR" --episodes 8 --quiet 2>/dev/null
}
run_cold=$(submit)
run_warm=$(submit)
echo "$run_warm" | grep -q "cache               8 hits, 0 misses" \
  || { echo "tier1: warm run was not served from the cache:"; echo "$run_warm"; exit 1; } >&2
det_cold=$(echo "$run_cold" | grep -v -e "^wall time" -e "^cache")
det_warm=$(echo "$run_warm" | grep -v -e "^wall time" -e "^cache")
[ "$det_cold" = "$det_warm" ] \
  || { echo "tier1: cached summary diverged from the computed one:"; \
       diff <(echo "$det_cold") <(echo "$det_warm"); exit 1; } >&2

# A batch of 10^15 episodes, too large to hold in memory, is refused with
# invalid_batch before it is queued, and the daemon keeps serving: the
# next submission is still answered from the cache.
if huge=$(cargo run -q --release --offline -p cv-server --bin cv-submit -- \
    --addr "$ADDR" --episodes 1000000000000000 --quiet 2>&1); then
  echo "tier1: a 10^15-episode batch was not refused" >&2
  exit 1
fi
echo "$huge" | grep -q "server error \[invalid_batch\]" \
  || { echo "tier1: a 10^15-episode batch did not get invalid_batch:"; echo "$huge"; exit 1; } >&2
run_after=$(submit)
echo "$run_after" | grep -q "cache               8 hits, 0 misses" \
  || { echo "tier1: the daemon stopped serving after the huge batch:"; \
       echo "$run_after"; exit 1; } >&2

# Platoon smoke: an n=4 platoon batch (leader + two gap-tracking
# followers, per-pair V2V channels — DESIGN.md §16) through the same live
# daemon. Submitted twice: the repeat must be answered from the cache and
# the deterministic summary lines must match byte for byte, pinning the
# platoon template's wire round-trip and cache keying end to end.
submit_platoon() {
  cargo run -q --release --offline -p cv-server --bin cv-submit -- \
    --addr "$ADDR" --platoon 4 --episodes 4 --quiet 2>/dev/null
}
plat_cold=$(submit_platoon)
plat_warm=$(submit_platoon)
echo "$plat_cold" | grep -q "^episodes            4" \
  || { echo "tier1: platoon batch did not complete:"; echo "$plat_cold"; exit 1; } >&2
echo "$plat_warm" | grep -q "cache               4 hits, 0 misses" \
  || { echo "tier1: warm platoon run was not served from the cache:"; \
       echo "$plat_warm"; exit 1; } >&2
det_plat_cold=$(echo "$plat_cold" | grep -v -e "^wall time" -e "^cache")
det_plat_warm=$(echo "$plat_warm" | grep -v -e "^wall time" -e "^cache")
[ "$det_plat_cold" = "$det_plat_warm" ] \
  || { echo "tier1: cached platoon summary diverged from the computed one:"; \
       diff <(echo "$det_plat_cold") <(echo "$det_plat_warm"); exit 1; } >&2
cargo run -q --release --offline -p cv-server --bin cv-submit -- --addr "$ADDR" shutdown
wait "$SERVE_PID"
trap - EXIT

# Persistent-cache smoke (DESIGN.md §17): a daemon with --cache-dir is
# cold-filled, then SIGKILLed mid-batch — the harshest crash the segment
# format must survive. A fresh daemon on the same directory must report
# recovery and answer the repeat batch entirely from persisted records,
# with deterministic summary lines byte-identical to the cold run.
CACHE_DIR=target/tier1-cache-dir
rm -rf "$CACHE_DIR"
PERSIST_LOG=target/tier1-persist-serve.log
cargo run -q --release --offline -p cv-server --bin cv-serve -- \
  --addr 127.0.0.1:0 --cache-bytes 1048576 --cache-dir "$CACHE_DIR" \
  > "$PERSIST_LOG" &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^cv-serve listening on //p' "$PERSIST_LOG")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
test -n "$ADDR" || { echo "tier1: persistent cv-serve never reported its address" >&2; exit 1; }
run_cold=$(submit)
# Crash the daemon while a larger batch is appending to the active segment.
cargo run -q --release --offline -p cv-server --bin cv-submit -- \
  --addr "$ADDR" --episodes 200 --quiet >/dev/null 2>&1 &
KILLED_SUBMIT=$!
sleep 0.3
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
wait "$KILLED_SUBMIT" 2>/dev/null || true
test -s "$CACHE_DIR"/seg-*.seg \
  || { echo "tier1: no segment file written before the crash" >&2; exit 1; }
cargo run -q --release --offline -p cv-server --bin cv-serve -- \
  --addr 127.0.0.1:0 --cache-bytes 1048576 --cache-dir "$CACHE_DIR" \
  > "$PERSIST_LOG" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^cv-serve listening on //p' "$PERSIST_LOG")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
test -n "$ADDR" || { echo "tier1: restarted cv-serve never reported its address" >&2; exit 1; }
grep -q "^cv-serve: cache recovered" "$PERSIST_LOG" \
  || { echo "tier1: restarted daemon reported no cache recovery:"; \
       cat "$PERSIST_LOG"; exit 1; } >&2
run_warm=$(submit)
echo "$run_warm" | grep -q "cache               8 hits, 0 misses" \
  || { echo "tier1: post-restart run was not served from the cache:"; \
       echo "$run_warm"; exit 1; } >&2
echo "$run_warm" | grep -q "cache persisted     8 hits" \
  || { echo "tier1: post-restart hits were not served from disk:"; \
       echo "$run_warm"; exit 1; } >&2
det_cold=$(echo "$run_cold" | grep -v -e "^wall time" -e "^cache")
det_warm=$(echo "$run_warm" | grep -v -e "^wall time" -e "^cache")
[ "$det_cold" = "$det_warm" ] \
  || { echo "tier1: recovered summary diverged from the computed one:"; \
       diff <(echo "$det_cold") <(echo "$det_warm"); exit 1; } >&2
cargo run -q --release --offline -p cv-server --bin cv-submit -- --addr "$ADDR" shutdown
wait "$SERVE_PID"
trap - EXIT

# cv-submit must report failure through its exit code (typed, non-zero):
# a dead address is an I/O error, exit code 1.
if cargo run -q --release --offline -p cv-server --bin cv-submit -- \
    --addr 127.0.0.1:9 --episodes 1 --quiet >/dev/null 2>&1; then
  echo "tier1: cv-submit to a dead address must exit non-zero" >&2
  exit 1
fi

# Strict command lines (cv_server::cli): a value that does not parse, an
# unknown flag or an unknown panel is a usage error with exit code 64,
# raised before cv-submit connects, cv-serve binds or an experiment trains
# its planners, so none can silently run on a default.
expect_usage_error() {
  local package=$1 code=0
  shift
  timeout 60 cargo run -q --release --offline -p "$package" --bin "$@" >/dev/null 2>&1 || code=$?
  [ "$code" = 64 ] \
    || { echo "tier1: '$*' exited with $code, not the usage error 64" >&2; exit 1; }
}
expect_usage_error cv-server cv-submit -- --episodes ten
expect_usage_error cv-server cv-serve -- --bogus
# One spelling each: the cache is turned off with --cache-bytes 0, a cache
# directory for a disabled cache is refused rather than left unused, and a
# job is cancelled with the `cancel JOB` subcommand.
expect_usage_error cv-server cv-serve -- --cache-bytes 0 --cache-dir target/x
expect_usage_error cv-server cv-serve -- --no-cache
expect_usage_error cv-server cv-submit -- --cancel 1
expect_usage_error bench exp_table1 -- --sims ten
expect_usage_error bench exp_fig5 -- --panel g

# Non-test lines per crate, the line count ROADMAP tracks. For information
# only: nothing here gates on it.
scripts/loc.sh
