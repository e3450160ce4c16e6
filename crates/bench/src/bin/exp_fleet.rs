//! **Fleet experiment** — aggregate throughput of the concurrent
//! multi-camera engine vs sequential per-camera processing, on a
//! simulated K-camera fleet of one site preset.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_fleet -- \
//!     [--cameras K] [--workers W1,W2,...] [--seconds S] [--seed N] \
//!     [--backend ebbiot|ebbi-kf|nn-ebms] [--preset LT4|ENG] \
//!     [--chunk E] [--queue C] [--smoke] [--overhead]
//! ```
//!
//! Defaults: 16 cameras, a `1,2,4,8` worker sweep, 2 s per camera, the
//! `ebbiot` back-end on LT4. The report prints per-camera stats, the
//! stage/contention breakdown of ARCHITECTURE.md §7.3 (at the sweep's
//! largest worker count), aggregate events/s for engine and sequential
//! drive modes, a per-worker-count `speedup_wN` scaling series, and a
//! bit-for-bit determinism check of engine output against the
//! sequential baseline. Speedup scales with physical cores — on a
//! single-core host expect ~1x regardless of worker count; the
//! determinism check must hold everywhere. `--smoke` shrinks the run to
//! CI size and skips the `BENCH_fleet.json` artifact while still
//! asserting parity. `--overhead` runs only the telemetry-overhead
//! bench: best-of-N plain vs stage-instrumented sequential passes
//! (interleaved, both sides best-of-N, delta clamped at 0), asserting
//! the instrumentation costs ≤ 3% of throughput.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ebbiot_baselines::registry;
use ebbiot_bench::breakdown::{
    append_contention_fields, histogram_summary, run_fleet_backend_instrumented,
    run_fleet_sequential_instrumented, stage_rows, worker_rows, STAGE_HEADER, WORKER_HEADER,
};
use ebbiot_bench::{run_fleet_sequential, JsonReport};
use ebbiot_core::StageTelemetry;
use ebbiot_engine::{EngineTelemetry, FleetOptions, StreamTelemetry};
use ebbiot_eval::report::render_table;
use ebbiot_sim::{DatasetPreset, FleetConfig};
use ebbiot_telemetry::Registry;

struct Args {
    cameras: usize,
    /// Worker counts to sweep (`--workers 1,2,4,8`); the breakdown
    /// tables and the artifact's headline `speedup` use the largest.
    workers: Vec<usize>,
    seconds: f64,
    seed: u64,
    backend: String,
    preset: DatasetPreset,
    chunk: usize,
    queue: usize,
    smoke: bool,
    overhead: bool,
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        cameras: 16,
        workers: vec![1, 2, 4, 8],
        seconds: 2.0,
        seed: 42,
        backend: "ebbiot".into(),
        preset: DatasetPreset::Lt4,
        chunk: 4096,
        queue: 32,
        smoke: false,
        overhead: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match arg.as_str() {
            "--cameras" => parsed.cameras = value().parse().expect("--cameras <usize>"),
            "--workers" => {
                parsed.workers = value()
                    .split(',')
                    .map(|w| w.trim().parse().expect("--workers <usize>[,<usize>...]"))
                    .collect();
                assert!(!parsed.workers.is_empty(), "--workers needs at least one count");
            }
            "--seconds" => parsed.seconds = value().parse().expect("--seconds <f64>"),
            "--seed" => parsed.seed = value().parse().expect("--seed <u64>"),
            "--backend" => parsed.backend = value(),
            "--chunk" => parsed.chunk = value().parse().expect("--chunk <usize>"),
            "--queue" => parsed.queue = value().parse().expect("--queue <usize>"),
            "--smoke" => parsed.smoke = true,
            "--overhead" => parsed.overhead = true,
            "--preset" => {
                parsed.preset = match value().to_uppercase().as_str() {
                    "ENG" => DatasetPreset::Eng,
                    "LT4" => DatasetPreset::Lt4,
                    other => panic!("--preset must be ENG or LT4, got {other:?}"),
                }
            }
            other => panic!("unknown argument {other}"),
        }
    }
    parsed
}

/// Times `iters` plain and `iters` stage-instrumented sequential fleet
/// passes (interleaved, best-of-N to shave scheduler noise), returning
/// `(plain_min_s, instrumented_min_s, overhead_pct)`. Also asserts the
/// instrumented output is bit-identical to the plain one.
fn measure_overhead(
    spec: &registry::BackendSpec,
    preset: DatasetPreset,
    fleet: &[ebbiot_sim::SimulatedRecording],
    iters: usize,
) -> (f64, f64, f64) {
    let mut plain_min = f64::INFINITY;
    let mut inst_min = f64::INFINITY;
    let mut plain_out = None;
    let mut inst_out = None;
    for _ in 0..iters.max(1) {
        let started = Instant::now();
        plain_out = Some(run_fleet_sequential(spec, preset, fleet));
        plain_min = plain_min.min(started.elapsed().as_secs_f64());

        let stage = StageTelemetry::register(&Registry::new());
        let started = Instant::now();
        inst_out = Some(run_fleet_sequential_instrumented(spec, preset, fleet, &stage));
        inst_min = inst_min.min(started.elapsed().as_secs_f64());
    }
    assert_eq!(inst_out, plain_out, "stage telemetry changed sequential output");
    // Clamp at 0: with best-of-N on both sides, a negative delta just
    // means the instrumented pass got the luckier schedule — reporting
    // a nonsense negative "overhead" would hide real regressions in
    // the trajectory while telling us nothing.
    let pct = (100.0 * (inst_min - plain_min) / plain_min.max(1e-9)).max(0.0);
    (plain_min, inst_min, pct)
}

/// The ≤3% overhead gate, with an absolute floor so micro-workloads
/// (where one scheduler tick exceeds 3%) cannot flake: a delta under
/// 10 ms is below timing resolution and passes regardless of its
/// percentage.
fn assert_overhead_budget(plain_s: f64, inst_s: f64, pct: f64) {
    assert!(
        pct <= 3.0 || (inst_s - plain_s) <= 0.010,
        "stage telemetry cost {pct:.2}% of sequential throughput \
         ({plain_s:.3} s plain vs {inst_s:.3} s instrumented; budget 3%)"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse_args(&argv);
    if args.smoke {
        // CI-sized: exercise engine vs sequential parity in a couple of
        // seconds, without touching the BENCH artifact.
        args.cameras = args.cameras.min(2);
        args.workers = vec![1, 2];
        args.seconds = args.seconds.min(0.25);
    }
    let spec = registry::find_backend(&args.backend)
        .unwrap_or_else(|| panic!("unknown backend {:?}", args.backend));

    // The engine clamps workers to the stream count; sweep what runs
    // (deduplicated, ascending — the largest drives the breakdown).
    let mut sweep: Vec<usize> = args.workers.iter().map(|&w| w.min(args.cameras).max(1)).collect();
    sweep.sort_unstable();
    sweep.dedup();
    let workers = *sweep.last().expect("at least one worker count");
    println!(
        "== Fleet: {} cameras x {:.1} s of {} through `{}`, workers {:?} ==\n",
        args.cameras,
        args.seconds,
        args.preset.name(),
        spec.name,
        sweep
    );

    let fleet = FleetConfig::new(args.preset, args.cameras)
        .with_seconds(args.seconds)
        .with_base_seed(args.seed)
        .generate();

    if args.overhead {
        // Overhead-only mode (scripts/smoke_bench.sh): best-of-3 plain
        // vs instrumented sequential, gate at 3%, no artifacts.
        let (plain_s, inst_s, pct) = measure_overhead(spec, args.preset, &fleet, 3);
        println!(
            "telemetry overhead (best of 3): {pct:+.2}% \
             ({plain_s:.3} s plain, {inst_s:.3} s instrumented)"
        );
        assert_overhead_budget(plain_s, inst_s, pct);
        println!("telemetry overhead within budget (<= 3% or <= 10 ms absolute)");
        return;
    }

    let total_events: u64 = fleet.iter().map(|r| r.events.len() as u64).sum();
    println!(
        "generated {} recordings, {} events total ({:.1} k ev/s offered)\n",
        fleet.len(),
        total_events,
        total_events as f64 / args.seconds / 1e3
    );

    // Concurrent engine run, fully instrumented: engine contention
    // metrics plus per-stage pipeline timings in one registry.
    let options = FleetOptions { workers, queue_capacity: args.queue, chunk_events: args.chunk };
    let metrics = Arc::new(Registry::new());
    let (run, stage) =
        run_fleet_backend_instrumented(spec, args.preset, &fleet, &options, &metrics);
    let engine_metrics = EngineTelemetry::register(Arc::clone(&metrics));

    let rows: Vec<Vec<String>> = run
        .snapshot
        .streams
        .iter()
        .map(|s| {
            let waits = StreamTelemetry::register(&metrics, &s.id.to_string());
            vec![
                s.id.to_string(),
                s.events_in.to_string(),
                s.chunks_in.to_string(),
                s.frames_out.to_string(),
                s.tracks_out.to_string(),
                s.queue_high_water.to_string(),
                format!("{:.2}", waits.queue_wait.get() as f64 / 1e6),
                format!("{:.2}", waits.producer_block.get() as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Camera",
                "Events",
                "Chunks",
                "Frames",
                "Tracks",
                "Queue HWM",
                "Queue-wait ms",
                "Blocked ms"
            ],
            &rows
        )
    );

    // Where each worker's wall clock went
    // (busy + acquire + idle == wall exactly).
    println!("{}", render_table(&WORKER_HEADER, &worker_rows(&metrics, run.snapshot.workers)));

    // Per-stage cost across the whole fleet.
    println!("{}", render_table(&STAGE_HEADER, &stage_rows(&stage)));
    println!("chunk enqueue→dequeue: {}", histogram_summary(&engine_metrics.queue_wait, "ns"));
    println!(
        "queue depth at admission: {}",
        histogram_summary(&engine_metrics.queue_depth, "chunks")
    );
    println!(
        "collector buffer occupancy: {}\n",
        histogram_summary(&engine_metrics.collector_buffered, "frames")
    );

    // Sequential baseline over the identical fleet, best-of-3 so one
    // descheduled run cannot inflate every speedup ratio keyed off it.
    let mut seq_elapsed = Duration::MAX;
    let mut sequential = Vec::new();
    for _ in 0..3 {
        let seq_started = Instant::now();
        sequential = run_fleet_sequential(spec, args.preset, &fleet);
        seq_elapsed = seq_elapsed.min(seq_started.elapsed());
    }

    // Telemetry overhead on the same sequential workload: instrumented
    // twin vs plain, interleaved best-of-5 on both sides with the delta
    // clamped at 0 (full runs take the extra rounds because the tracked
    // artifact records this number). Stage timers are two `Instant`
    // reads and two relaxed atomic adds per stage per frame, so the
    // delta should vanish into noise (≤ ~3%, asserted on full runs).
    let (plain_s, inst_s, overhead_pct) = measure_overhead(spec, args.preset, &fleet, 5);

    let identical = run.streams == sequential;
    let engine_rate = run.snapshot.events_per_sec();
    let seq_rate = total_events as f64 / seq_elapsed.as_secs_f64().max(1e-9);
    let speedup = engine_rate / seq_rate.max(1e-9);

    // Worker-count scaling sweep: plain (uninstrumented) engine runs
    // per requested count, each checked bit-identical to sequential and
    // reported best-of-3 so scheduler noise on short runs does not
    // wobble the tracked curve. The `speedup_wN` series lands in
    // BENCH_fleet.json so scaling is tracked per-PR, not just the
    // single headline number.
    let mut scaling: Vec<(usize, f64)> = Vec::with_capacity(sweep.len());
    for &w in &sweep {
        let opts =
            FleetOptions { workers: w, queue_capacity: args.queue, chunk_events: args.chunk };
        let mut best = 0.0f64;
        for _ in 0..3 {
            let sweep_run = ebbiot_bench::run_fleet_backend(spec, args.preset, &fleet, &opts);
            assert_eq!(
                sweep_run.streams, sequential,
                "engine output diverged from sequential at {w} workers"
            );
            best = best.max(sweep_run.snapshot.events_per_sec());
        }
        scaling.push((w, best / seq_rate.max(1e-9)));
    }

    println!("\nAggregate throughput:");
    println!(
        "  engine ({} workers): {:>10.1} k ev/s, {:>8.1} frames/s  ({:.3} s wall)",
        workers,
        engine_rate / 1e3,
        run.snapshot.frames_per_sec(),
        run.snapshot.elapsed.as_secs_f64()
    );
    println!(
        "  sequential:          {:>10.1} k ev/s              ({:.3} s wall)",
        seq_rate / 1e3,
        seq_elapsed.as_secs_f64()
    );
    println!(
        "  speedup: {speedup:.2}x on {} core(s) (target >= 4x with 16 cameras / 8 workers on >= 8 cores)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let curve = scaling.iter().map(|(w, s)| format!("w{w}={s:.2}x")).collect::<Vec<_>>().join(", ");
    println!("  scaling: {curve}");
    println!(
        "  telemetry overhead: {overhead_pct:+.2}% on sequential \
         ({plain_s:.3} s plain, {inst_s:.3} s instrumented, best of 5)"
    );
    println!("\nDeterminism: engine output bit-for-bit identical to sequential: {identical}");

    // Machine-readable artifact for the perf trajectory (skipped in
    // smoke mode so CI-sized runs never clobber the tracked numbers).
    if args.smoke {
        println!("--smoke: skipping BENCH_fleet.json");
    } else {
        let mut report = JsonReport::new()
            .str("experiment", "fleet")
            .str("backend", spec.name)
            .str("preset", args.preset.name())
            .u64("cameras", args.cameras as u64)
            .u64("workers", workers as u64)
            .f64("seconds_per_camera", args.seconds)
            .u64("events", total_events)
            .f64("engine_events_per_sec", engine_rate)
            .f64("sequential_events_per_sec", seq_rate)
            .f64("speedup", speedup)
            .f64("telemetry_overhead_pct", overhead_pct)
            .bool("identical", identical);
        for (w, s) in &scaling {
            report = report.f64(&format!("speedup_w{w}"), *s);
        }
        append_contention_fields(report, &run.snapshot, &stage, &engine_metrics)
            .write(std::path::Path::new("BENCH_fleet.json"))
            .expect("write BENCH_fleet.json");
        println!("wrote BENCH_fleet.json");
        // Overhead gate only on full (non-smoke) runs: smoke workloads
        // are too short to time a ≤3% delta above scheduler noise.
        assert_overhead_budget(plain_s, inst_s, overhead_pct);
    }

    assert!(identical, "engine output diverged from sequential processing");
}
