#!/usr/bin/env bash
# Regenerates the golden JSONL traces under tests/golden/ from the current
# build: fig2 (FedAvg communication), fig3 (split inference), fig4 (DeepMood
# fusion), table1 (user identification baselines), tab_compression and
# tab_dp_federated. Run this ONLY after an intentional behaviour change to
# one of them, then review the diff — every changed non-timing field should
# be explained by your change (see DESIGN.md §Testing strategy).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
# "<bench target> <golden file stem>", one golden per line.
GOLDENS="
fig2_fedavg_communication fig2
fig3_split_inference fig3
fig4_deepmood_fusion fig4
table1_user_identification table1
tab_compression tab_compression
tab_dp_federated tab_dp_federated
"

# shellcheck disable=SC2046  # word splitting picks the target column
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target $(awk 'NF { print $1 }' <<<"$GOLDENS")

mkdir -p tests/golden
while read -r bench stem; do
  [ -n "$bench" ] || continue
  # MDL_GEMM=blocked: goldens record the canonical scalar-chain floats; the
  # AVX2 default would bake machine-dependent (ULP-shifted) values in.
  MDL_QUICK=1 MDL_GEMM=blocked "$BUILD_DIR/bench/$bench" \
    --json "tests/golden/${stem}_quick.jsonl" >/dev/null
  echo "regenerated: tests/golden/${stem}_quick.jsonl" \
    "($(wc -l <"tests/golden/${stem}_quick.jsonl") lines)"
done <<<"$GOLDENS"
echo "review 'git diff tests/golden' before committing"
