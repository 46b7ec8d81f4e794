#!/usr/bin/env bash
# Full pipeline on lqr2d: expert -> demos -> bc -> imitation -> eval,
# then the multi-seed imitation protocol (seeds are a shell loop).
set -euo pipefail

OUT=${1:-runs/lqr_pipeline}
mkdir -p "$OUT"

echo "== 1/5 expert training (environment reward) =="
ailsrs train-expert --env lqr2d --iters 500 --n-dirs 8 --seed 1 \
    --out "$OUT/expert.policy"

echo "== 2/5 recording demonstrations =="
ailsrs record --policy "$OUT/expert.policy" --episodes 50 \
    --seed 0 --out "$OUT/expert.demos"

echo "== 3/5 behavior cloning (closed form) =="
ailsrs bc --demos "$OUT/expert.demos" --ridge 1e-8 --out "$OUT/bc.policy"

echo "== 4/5 imitation training, seeds 1 2 3 =="
for seed in 1 2 3; do
    # desk-scale imitation settings
    ailsrs train --demos "$OUT/expert.demos" --n-dirs 32 --iters 2000 \
        --eval-every 10 --eval-episodes 10 --seed "$seed" --target-frac 0.9 \
        --out "$OUT/imitator_s$seed.policy" \
        --metrics "$OUT/metrics_s$seed.csv"
done

echo "== 5/5 evaluation =="
for seed in 1 2 3; do
    printf "seed %s: " "$seed"
    ailsrs eval --policy "$OUT/imitator_s$seed.policy" \
        --episodes 100 --seed 0
done
printf "expert: "
ailsrs eval --policy "$OUT/expert.policy" --episodes 100 --seed 0
echo "metrics CSVs in $OUT (plot iteration vs eval_env_return_mean)"
