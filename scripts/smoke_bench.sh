#!/usr/bin/env bash
# Smoke-run exp_hotpath on tiny inputs, then every example.
#
# `--smoke` shrinks the experiment to CI size and skips writing the
# tracked BENCH_hotpath.json, while still asserting word-parallel
# kernel parity, the >= 3x median speedup floor and the stage-telemetry
# overhead budget (<= 3% of sequential throughput, or <= 10 ms over a
# fleet pass). The other `--smoke` binaries, exp_accuracy and
# exp_checkpoint, run in their own CI steps, as do the scheduler suites.
# Last, every example under examples/ runs once in release and must
# exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== smoke: exp_hotpath =="
cargo run --release -p ebbiot_bench --bin exp_hotpath -- --smoke

echo "== smoke: examples =="
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "${example}" .rs)"
    echo "-- example: ${name}"
    cargo run --release --example "${name}" > /dev/null
done

echo "smoke_bench: all experiments passed"
