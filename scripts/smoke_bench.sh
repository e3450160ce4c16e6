#!/usr/bin/env bash
# Smoke-run the exp_* bench binaries on tiny inputs.
#
# `--smoke` shrinks each experiment to CI size and skips writing the
# tracked BENCH_*.json artifacts, while still asserting the experiments'
# invariants internally: engine == sequential (exp_fleet), TCP ingestion
# == in-process run_fleet (exp_server), disk replay == in-memory plus
# EBST compression > EAER (exp_replay), word-parallel kernel parity
# plus the >= 3x median speedup floor (exp_hotpath), the
# scenario-matrix accuracy floors (exp_accuracy), and bit-exact EBSS
# checkpoint resume plus the crash-recovery drill (exp_checkpoint). A
# final
# `exp_fleet --overhead` pass gates the telemetry cost: instrumented
# sequential throughput must stay within 3% (or 10 ms absolute) of the
# uninstrumented twin, best-of-3 — and a scheduler pass reruns the
# jitter determinism proptest plus the oversubscription smokes. Last,
# every example under examples/ runs once in release and must exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p ebbiot_bench --bins

for exp in exp_fleet exp_server exp_replay exp_hotpath exp_accuracy exp_checkpoint; do
    echo "== smoke: ${exp} =="
    cargo run --release -p ebbiot_bench --bin "${exp}" -- --smoke
done

echo "== smoke: telemetry overhead gate =="
cargo run --release -p ebbiot_bench --bin exp_fleet -- --overhead --cameras 4 --seconds 1

echo "== smoke: scheduler (jitter determinism + oversubscription) =="
cargo test --release --test engine_determinism jittered_work_stealing_schedule_is_bit_identical
cargo test --release --test engine_scheduler

echo "== smoke: examples =="
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "${example}" .rs)"
    echo "-- example: ${name}"
    cargo run --release --example "${name}" > /dev/null
done

echo "smoke_bench: all experiments passed"
