#!/usr/bin/env bash
# Kill-and-resume check (the mdl::ckpt end-to-end guarantee): SIGKILL a
# checkpointing FedAvg run mid-training, resume it in a fresh process, and
# require the final model to be byte-identical to an uninterrupted run.
#
# Usage: scripts/kill_resume.sh <ckpt_resume_runner> <work-dir> [runner args]
#   The work dir is wiped first. Extra args go to every runner invocation:
#     --virtual 1000   the O(cohort) virtual-population path
#     --compress-ckpt  BlockCodec-compressed (format v2) checkpoints
set -euo pipefail

RUNNER="$1"
ROOT="$2"
shift 2

rm -rf "$ROOT"
mkdir -p "$ROOT"
"$RUNNER" --rounds 6 --seed 17 "$@" --out "$ROOT/ref.bin"
"$RUNNER" --rounds 6 --seed 17 "$@" --out "$ROOT/killed.bin" \
  --checkpoint-dir "$ROOT/ckpt" --sleep-ms 300 &
RUNNER_PID=$!
for _ in $(seq 1 600); do
  compgen -G "$ROOT/ckpt/ckpt.*" > /dev/null && break
  sleep 0.05
done
compgen -G "$ROOT/ckpt/ckpt.*" > /dev/null || {
  echo "error: no checkpoint appeared before the kill ($*)" >&2
  kill -9 "$RUNNER_PID" 2> /dev/null || true
  exit 1
}
kill -9 "$RUNNER_PID"
wait "$RUNNER_PID" || true
# The kill must land before the run finishes, or nothing resumes.
[[ ! -f "$ROOT/killed.bin" ]] || {
  echo "error: killed run finished before SIGKILL landed ($*)" >&2
  exit 1
}
"$RUNNER" --rounds 6 --seed 17 "$@" --out "$ROOT/resumed.bin" \
  --checkpoint-dir "$ROOT/ckpt" --resume
cmp "$ROOT/ref.bin" "$ROOT/resumed.bin"
echo "kill-and-resume OK ($*): resumed model byte-identical to uninterrupted run"
