#!/usr/bin/env bash
# Desk-scale rendition of the evaluation protocols: instance split,
# category split, noisy evaluation, ICP polishing, ablations, and timing.
# Expects to run from the repository root. Results land in $OUT.
# The config keys written below are those of the key tables in
# src/dcpreg/harness.py, the one list of config keys; an unknown key makes
# `experiment` and `bench --config` exit 3.
set -euo pipefail
# Run the package from this checkout, installed or not.
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

OUT=${OUT:-runs/desk}
SEED=${SEED:-0}
EPOCHS=${EPOCHS:-50}

mkdir -p "$OUT"
python3 scripts/make_shapes.py --out "$OUT/corpus" --n-shapes 20 --seed 41

common() {
  cat <<EOF
data.corpus = $OUT/corpus
data.n_points = 128
split.fraction = 0.5
pairs.per_cloud_train = 25
pairs.per_cloud_test = 3
pairgen.max_rot_deg = 45
pairgen.trans_bound = 0.5
model.widths = 16,16,32,64
model.emb_dims = 64
model.heads = 4
model.ffn_dims = 128
model.knn_k = 10
train.epochs = $EPOCHS
train.batch_size = 8
seed = $SEED
EOF
}

{ common; echo "experiment.kind = full";
  echo "methods = oracle, icp, dcp-v1, dcp-v2, dcp+icp"; } > "$OUT/full.conf"
{ common; echo "experiment.kind = category";
  echo "methods = icp, dcp-v1, dcp-v2"; } > "$OUT/category.conf"
{ common; echo "experiment.kind = noise";
  echo "methods = icp, dcp-v1, dcp-v2"; } > "$OUT/noise.conf"
{ common; echo "experiment.kind = ablation";
  echo "methods = dcp-v1, dcp-v1:pointnet, dcp-v1:mlp"; } > "$OUT/ablation.conf"

for kind in full category noise ablation; do
  echo "=== experiment: $kind ==="
  python3 -m dcpreg experiment --config "$OUT/$kind.conf" --out "$OUT/$kind"
done

echo "=== bench ==="
python3 -m dcpreg bench --out "$OUT/bench" \
  --methods icp,dcp-v1,dcp-v2 --sizes 512,1024,2048,4096 --trials 10 \
  --config "$OUT/full.conf"

echo "reports under $OUT/{full,category,noise,ablation}/report.txt and $OUT/bench/timing.csv"
