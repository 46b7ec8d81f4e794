#!/usr/bin/env bash
# Sample-efficiency sweep: imitation performance as a function of the
# number of demonstration episodes (the curves should be nearly flat).
set -euo pipefail

OUT=${1:-runs/sample_efficiency}
SEED=${2:-1}
mkdir -p "$OUT"

if [ ! -f "$OUT/expert.policy" ]; then
    ailsrs train-expert --env lqr2d --iters 500 --n-dirs 8 --seed 1 \
        --out "$OUT/expert.policy"
fi

for episodes in 10 20 50; do
    demos="$OUT/expert_${episodes}ep.demos"
    ailsrs record --policy "$OUT/expert.policy" \
        --episodes "$episodes" --seed 0 --out "$demos"
    ailsrs train --demos "$demos" --n-dirs 32 --iters 2000 --eval-every 10 \
        --eval-episodes 10 --seed "$SEED" --target-frac 0.9 \
        --out "$OUT/imitator_${episodes}ep.policy" \
        --metrics "$OUT/metrics_${episodes}ep.csv"
    printf "%2d episodes -> " "$episodes"
    ailsrs eval --policy "$OUT/imitator_${episodes}ep.policy" \
        --episodes 100 --seed 0
done
