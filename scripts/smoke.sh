#!/usr/bin/env bash
# Smoke run: configure, build, run the unit tests, then every bench in
# MDL_QUICK mode with JSONL output enabled, and finally the unit-label
# tests again under ASan+UBSan. Fails on the first error.
#
# Usage: scripts/smoke.sh [build-dir]
#   MDL_SANITIZE=address,undefined scripts/smoke.sh build-asan
#     (with MDL_SANITIZE set, the whole run is sanitized and the extra
#      sanitizer stage at the end is skipped)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-smoke}"

CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release)
if [[ -n "${MDL_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=("-DMDL_SANITIZE=${MDL_SANITIZE}")
fi
cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# GEMM dispatch matrix: the kernel-facing tests, the forward()==infer()
# parity tests and the GRU and LSTM tests (GruSequence and LstmSequence pin
# the hoisted sequence routines to the per-step math bit for bit) under
# every MDL_GEMM value.
# simd only runs where the CPU has
# AVX2 (elsewhere requesting it is the error path the dispatch tests cover
# from the default run above).
for mode in naive blocked simd; do
  if [[ "$mode" == simd ]] && ! grep -qw avx2 /proc/cpuinfo; then
    echo "=== MDL_GEMM=simd skipped: CPU lacks AVX2 ==="
    continue
  fi
  echo "=== MDL_GEMM=$mode (kernel-facing tests) ==="
  MDL_GEMM=$mode "$BUILD_DIR/tests/mdl_tests" \
    --gtest_filter='Gemm*:GateActivation*:Tensor*:Int8*:ActQuant*:Linear*:Serve*:InferParity*:GRU*:GruSequence*:LSTM*:LstmSequence*'
done

OUT_DIR="$BUILD_DIR/smoke-jsonl"
mkdir -p "$OUT_DIR"
BENCHES=(
  fig1_selective_sgd
  fig2_fedavg_communication
  tab_dp_federated
  fig3_split_inference
  tab_compression
  fig4_deepmood_fusion
  fig5_per_participant
  fig6_pattern_analysis
  table1_user_identification
  tab_binary_identification
  tab_mobile_inference
)
for bench in "${BENCHES[@]}"; do
  echo "=== $bench (MDL_QUICK=1) ==="
  MDL_QUICK=1 "$BUILD_DIR/bench/$bench" --json "$OUT_DIR/$bench.jsonl"
  [[ -s "$OUT_DIR/$bench.jsonl" ]] || {
    echo "error: $bench wrote no JSONL records" >&2
    exit 1
  }
done

# Chaos tier: the fault-tolerance suite (admission control, circuit
# breaker, seeded fault injection, SplitClient degradation ladder) with a
# fixed seed so a failure here replays exactly: rerun the same binary with
# MDL_PROP_SEED=20260808 and the identical fault schedule fires again.
echo "=== chaos tests (fixed seed, MDL_PROP_SEED=20260808) ==="
MDL_PROP_SEED=20260808 "$BUILD_DIR/tests/mdl_chaos_tests"

# Flight recorder: a serve run with MDL_TRACE_OUT must leave a Chrome-trace
# JSON that parses and passes the required-key schema check, and the
# summarizer must be able to read it back.
echo "=== flight-recorder trace (serve_requests + trace_report.py) ==="
MDL_TRACE_OUT="$OUT_DIR/trace.json" \
  "$BUILD_DIR/examples/serve_requests" > /dev/null
python3 scripts/trace_report.py --check "$OUT_DIR/trace.json"
python3 scripts/trace_report.py "$OUT_DIR/trace.json"

# Kill-and-resume (mdl::ckpt): plain checkpoints, the O(cohort)
# virtual-population path (shards are re-derived from (population_seed,
# client_id) after the resume, so this also exercises the checkpoint's
# population-fingerprint guard), and BlockCodec-compressed (format v2)
# checkpoints, where the resume decodes the v2 archive before a single
# payload byte is interpreted.
RUNNER="$BUILD_DIR/tests/ckpt_resume_runner"
echo "=== kill-and-resume (mdl::ckpt) ==="
scripts/kill_resume.sh "$RUNNER" "$BUILD_DIR/smoke-ckpt"
echo "=== kill-and-resume (virtual population) ==="
scripts/kill_resume.sh "$RUNNER" "$BUILD_DIR/smoke-ckpt-virtual" --virtual 1000
echo "=== kill-and-resume (compressed checkpoints) ==="
scripts/kill_resume.sh "$RUNNER" "$BUILD_DIR/smoke-ckpt-compressed" \
  --compress-ckpt

echo "=== micro_kernels (filtered) ==="
MDL_QUICK=1 "$BUILD_DIR/bench/micro_kernels" \
  --json "$OUT_DIR/micro_kernels.jsonl" \
  --benchmark_filter='BM_DenseMatvec|BM_GruInfer/1|BM_Int8Gemm/64' \
  --benchmark_min_time=0.01

# Sanitizer pass: rebuild the fast unit tier with ASan+UBSan and run it,
# then rebuild with TSan and run the concurrency surface (thread pool,
# parallel GEMM, parallel federated/DP rounds) at two shared-pool sizes.
# Skipped when the main build is already sanitized (MDL_SANITIZE set).
if [[ -z "${MDL_SANITIZE:-}" ]]; then
  ASAN_DIR="${BUILD_DIR}-asan"
  echo "=== unit tests under ASan+UBSan ($ASAN_DIR) ==="
  cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMDL_SANITIZE=address,undefined \
    -DMDL_BUILD_BENCH=OFF \
    -DMDL_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_DIR" -j "$(nproc)"
  UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$ASAN_DIR" -L unit --output-on-failure -j "$(nproc)"
  # The differential kernel-equivalence harness under ASan+UBSan: the AVX2
  # masked loads/stores and the unaligned-pointer sweep are exactly the
  # code sanitizers exist to vet.
  echo "=== GemmDiff harness under ASan+UBSan ==="
  UBSAN_OPTIONS=halt_on_error=1 \
    "$ASAN_DIR/tests/mdl_tests" --gtest_filter='GemmDiff.*'
  # The codec and Deep Compression artifact decode-hardening sweeps (every
  # bit flip, every truncation, random tampering) under ASan+UBSan: the
  # adversarial-input contract is "clean mdl::Error, zero out-of-bounds
  # reads", which only sanitizers can actually certify.
  echo "=== Codec hardening sweeps under ASan+UBSan ==="
  UBSAN_OPTIONS=halt_on_error=1 \
    "$ASAN_DIR/tests/mdl_tests" \
    --gtest_filter='Codec*:ArchiveCompressed.*:DeepCompression*'

  TSAN_DIR="${BUILD_DIR}-tsan"
  echo "=== concurrency tests under TSan ($TSAN_DIR) ==="
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMDL_SANITIZE=thread \
    -DMDL_BUILD_BENCH=OFF \
    -DMDL_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_DIR" -j "$(nproc)" --target mdl_tests mdl_chaos_tests
  for threads in 2 8; do
    TSAN_OPTIONS=halt_on_error=1 MDL_THREADS=$threads \
      "$TSAN_DIR/tests/mdl_tests" \
      --gtest_filter='ThreadPool*:ParallelFor*:SharedPool*:Gemm*:*GemmEquivalence*:FedFixture*:DpFixture*:Serve*:Flight*:Population*:CodecFederated*:SimFedFixture*:TrainerFixture*'
  done
  # The chaos liveness property under TSan: producers x injected faults x
  # breaker transitions x shutdown, fixed seed for replayability.
  TSAN_OPTIONS=halt_on_error=1 MDL_PROP_SEED=20260808 \
    "$TSAN_DIR/tests/mdl_chaos_tests" --gtest_filter='Chaos*:Circuit*'
fi

echo "smoke OK: JSONL records in $OUT_DIR"
