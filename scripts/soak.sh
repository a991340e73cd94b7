#!/usr/bin/env bash
# Chaos soak: the full fault matrix and session storm from
# crates/server/tests/chaos_e2e.rs (the #[ignore]d soak test), in release
# mode, under a hard wall-clock cap.
#
# The soak runs the 6-fault-kind matrix over a wide seed sweep TWICE and
# compares the per-cell outcome vectors (seed reproducibility), then runs
# rounds of concurrent sessions through per-session random-fault proxies
# against one shared server. Tunables:
#
#   CV_SOAK_SEEDS         seeds per fault kind   (default 16)
#   CV_SOAK_ROUNDS        kill-a-worker rounds   (default 16)
#   CV_SOAK_TIMEOUT_SECS  hard wall-clock cap    (default 1800, per phase)
#
# Examples:
#   scripts/soak.sh                      # default sweep
#   CV_SOAK_SEEDS=64 scripts/soak.sh     # wider sweep, same cap
set -euo pipefail
cd "$(dirname "$0")/.."

: "${CV_SOAK_SEEDS:=16}"
: "${CV_SOAK_ROUNDS:=16}"
: "${CV_SOAK_TIMEOUT_SECS:=1800}"
export CV_SOAK_SEEDS CV_SOAK_ROUNDS

echo "soak: ${CV_SOAK_SEEDS} seeds/fault-kind, cap ${CV_SOAK_TIMEOUT_SECS}s"
timeout "${CV_SOAK_TIMEOUT_SECS}" \
  cargo test --release --offline -p cv-server --test chaos_e2e -- \
  --ignored --nocapture

# Kill-a-worker cycle (crates/sim/src/supervise.rs): murder a different
# batch worker mid-batch every round and require the rescue pass to keep
# the batch summary bit-identical to the clean run. Needs the
# fault-injection feature for the kill switch.
echo "soak: kill-a-worker, ${CV_SOAK_ROUNDS} rounds"
timeout "${CV_SOAK_TIMEOUT_SECS}" \
  cargo test --release --offline -p cv-sim --features fault-injection --lib \
  killing_a_worker_every_round -- --ignored --nocapture

# Disk-fault cycle (crates/sim/tests/disk_fault.rs): the 5-kind
# storage-fault matrix — short writes, ENOSPC, fsync failure, read
# corruption, torn tails — over the same CV_SOAK_SEEDS sweep. Every cell
# must end in typed degradation or clean recovery with served summaries
# bit-identical to an uncached run (DESIGN.md §17).
echo "soak: disk-fault matrix, ${CV_SOAK_SEEDS} seeds/fault-kind"
timeout "${CV_SOAK_TIMEOUT_SECS}" \
  cargo test --release --offline -p cv-sim --test disk_fault -- \
  --ignored --nocapture

# Event-wheel sparse-disturbance soak (tests/scheduler_determinism.rs):
# thousands of long-horizon n=8 platoon episodes per cell (lost and heavy
# delay/drop channels, two seeds), each batch at 2 and 4 workers, run
# twice, asserted identical to the 1-worker batch (DESIGN.md §18).
# CV_SOAK_EVENT_EPISODES overrides the per-cell episode count.
echo "soak: event-wheel sparse-disturbance determinism"
timeout "${CV_SOAK_TIMEOUT_SECS}" \
  cargo test --release --offline --test scheduler_determinism -- \
  --ignored --nocapture

echo "soak: clean"
