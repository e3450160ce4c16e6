//! Stage/contention breakdown shared by `exp_fleet` and `exp_server`:
//! instrumented fleet runs, the tables that localize where parallel
//! speedup goes, and the flat `BENCH_*.json` fields that track it
//! across PRs (the "reading the fleet breakdown" cookbook in
//! ARCHITECTURE.md §7 walks through the output).

use std::sync::Arc;

use ebbiot_baselines::registry::BackendSpec;
use ebbiot_core::{FrameResult, StageTelemetry};
use ebbiot_engine::{
    Engine, EngineOutput, EngineTelemetry, FleetOptions, FleetStream, Snapshot, StreamTelemetry,
    WorkerTelemetry,
};
use ebbiot_sim::{DatasetPreset, SimulatedRecording};
use ebbiot_telemetry::{Histogram, Registry};

use crate::{ebbiot_config_for, JsonReport};

/// Column headers of [`worker_rows`].
pub const WORKER_HEADER: [&str; 7] =
    ["Worker", "Busy ms", "Acquire ms", "Idle ms", "Busy %", "Chunks", "Steals"];

/// Column headers of [`stage_rows`].
pub const STAGE_HEADER: [&str; 5] = ["Stage", "Calls", "Total ms", "Mean µs", "Max ≤ µs"];

/// Like [`crate::run_fleet_backend`], but with the full telemetry story
/// attached: the engine registers its contention metrics in `registry`
/// and every pipeline records per-stage durations into one shared
/// [`StageTelemetry`] (returned alongside the run). Worker, scheduler
/// and queue-wait numbers are read back from `registry` after the run.
/// Output is still bit-for-bit the sequential result — telemetry
/// observes, never steers.
#[must_use]
pub fn run_fleet_backend_instrumented(
    spec: &BackendSpec,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
    options: &FleetOptions,
    registry: &Arc<Registry>,
) -> (EngineOutput, StageTelemetry) {
    assert!(!fleet.is_empty(), "fleet needs at least one camera");
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    let stage = StageTelemetry::register(registry);
    let pipelines = spec
        .build_fleet(&config, fleet.len())
        .into_iter()
        .map(|p| p.with_stage_telemetry(stage.clone()))
        .collect();
    let streams: Vec<FleetStream<'_>> =
        fleet.iter().map(|r| FleetStream { events: &r.events, span_us: r.duration_us }).collect();
    let run = Engine::run_fleet_with_registry(pipelines, &streams, options, Arc::clone(registry));
    (run, stage)
}

/// Sequential per-camera baseline with per-stage telemetry attached —
/// the workload the telemetry-overhead measurement times against its
/// uninstrumented twin [`crate::run_fleet_sequential`].
#[must_use]
pub fn run_fleet_sequential_instrumented(
    spec: &BackendSpec,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
    stage: &StageTelemetry,
) -> Vec<Vec<FrameResult>> {
    assert!(!fleet.is_empty(), "fleet needs at least one camera");
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    fleet
        .iter()
        .map(|rec| {
            spec.build(config.clone())
                .with_stage_telemetry(stage.clone())
                .process_recording(&rec.events, rec.duration_us)
        })
        .collect()
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Per-worker contention table: where each of the engine's `workers`
/// workers spent its wall clock, read from `registry`. Headers in
/// [`WORKER_HEADER`]. After `join`, Busy + Acquire + Idle == wall
/// exactly; a low busy share with high stream queue waits is the
/// contention signature of an over-subscribed core, while a high
/// acquire share means batching is too fine
/// (`EngineConfig::batch_chunks`).
#[must_use]
pub fn worker_rows(registry: &Registry, workers: usize) -> Vec<Vec<String>> {
    (0..workers)
        .map(|w| {
            let t = WorkerTelemetry::register(registry, w);
            let (busy, acquire, idle) = (t.busy.get(), t.acquire.get(), t.idle.get());
            let wall = busy + acquire + idle;
            let busy_pct = if wall > 0 { 100.0 * busy as f64 / wall as f64 } else { 0.0 };
            vec![
                w.to_string(),
                ms(busy),
                ms(acquire),
                ms(idle),
                format!("{busy_pct:.1}"),
                t.chunks.get().to_string(),
                t.steals.get().to_string(),
            ]
        })
        .collect()
}

/// Per-stage timing table over one [`StageTelemetry`]'s histograms.
/// Headers in [`STAGE_HEADER`]; "Max ≤ µs" is the upper bound of the
/// highest non-empty log2 bucket (the histograms store bounds, not
/// exact maxima).
#[must_use]
pub fn stage_rows(stage: &StageTelemetry) -> Vec<Vec<String>> {
    stage
        .stages()
        .iter()
        .map(|(label, hist)| {
            vec![
                (*label).to_string(),
                hist.count().to_string(),
                ms(hist.sum()),
                format!("{:.2}", hist.mean() / 1e3),
                format!("{:.1}", hist.max_bound() as f64 / 1e3),
            ]
        })
        .collect()
}

/// One-line summary of a latency/occupancy histogram for the console.
#[must_use]
pub fn histogram_summary(hist: &Histogram, unit: &str) -> String {
    format!("n={}, mean {:.2} {unit}, max ≤ {} {unit}", hist.count(), hist.mean(), hist.max_bound())
}

/// Appends the contention breakdown to a `BENCH_*.json` report as flat
/// keys: per-worker busy/acquire/idle and steals, per-stream
/// queue high-water, wait totals and migrations, scheduler steal/batch
/// statistics, per-stage means, and the chunk-latency / queue-depth
/// / collector-occupancy distributions' count+mean. Everything but the
/// stream high-water marks, migrations and the ready high-water comes
/// from `engine`'s registry.
#[must_use]
pub fn append_contention_fields(
    mut report: JsonReport,
    snapshot: &Snapshot,
    stage: &StageTelemetry,
    engine: &EngineTelemetry,
) -> JsonReport {
    let registry = engine.registry();
    let mut steals = 0;
    for w in 0..snapshot.workers {
        let t = WorkerTelemetry::register(registry, w);
        let key = |suffix: &str| format!("worker{w:02}_{suffix}");
        steals += t.steals.get();
        report = report
            .u64(&key("busy_ns"), t.busy.get())
            .u64(&key("acquire_ns"), t.acquire.get())
            .u64(&key("idle_ns"), t.idle.get())
            .u64(&key("chunks"), t.chunks.get())
            .u64(&key("steals"), t.steals.get());
    }
    for s in &snapshot.streams {
        let t = StreamTelemetry::register(registry, &s.id.to_string());
        let key = |suffix: &str| format!("{}_{suffix}", s.id);
        report = report
            .u64(&key("queue_high_water"), s.queue_high_water as u64)
            .u64(&key("queue_wait_ns"), t.queue_wait.get())
            .u64(&key("producer_block_ns"), t.producer_block.get())
            .u64(&key("migrations"), s.migrations);
    }
    report = report
        .u64("sched_steals", steals)
        .u64("sched_batches", engine.batch_size.count())
        .f64("sched_batch_mean_chunks", engine.batch_size.mean())
        .u64("sched_batch_max_le_chunks", engine.batch_size.max_bound())
        .u64("sched_ready_high_water", snapshot.ready_high_water as u64);
    for (label, hist) in stage.stages() {
        report = report
            .u64(&format!("stage_{label}_calls"), hist.count())
            .f64(&format!("stage_{label}_mean_ns"), hist.mean());
    }
    report
        .u64("chunk_queue_wait_count", engine.queue_wait.count())
        .f64("chunk_queue_wait_mean_ns", engine.queue_wait.mean())
        .u64("chunk_queue_wait_max_le_ns", engine.queue_wait.max_bound())
        .f64("queue_depth_mean_chunks", engine.queue_depth.mean())
        .f64("collector_buffered_mean_frames", engine.collector_buffered.mean())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_fleet_sequential;
    use ebbiot_baselines::registry;
    use ebbiot_sim::FleetConfig;

    #[test]
    fn instrumented_fleet_run_matches_sequential_and_counts_frames() {
        let fleet = FleetConfig::new(DatasetPreset::Lt4, 2).with_seconds(0.5).generate();
        let spec = registry::find_backend("ebbiot").unwrap();
        let registry = Arc::new(Registry::new());
        let (run, stage) = run_fleet_backend_instrumented(
            spec,
            DatasetPreset::Lt4,
            &fleet,
            &FleetOptions { workers: 2, queue_capacity: 4, chunk_events: 512 },
            &registry,
        );
        let sequential = run_fleet_sequential(spec, DatasetPreset::Lt4, &fleet);
        assert_eq!(run.streams, sequential, "telemetry is observation-only");
        assert_eq!(
            stage.frames_observed(),
            run.snapshot.frames_out(),
            "one tracker call per frame"
        );

        let workers = worker_rows(&registry, run.snapshot.workers);
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].len(), WORKER_HEADER.len());
        let stages = stage_rows(&stage);
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0].len(), STAGE_HEADER.len());

        let engine = EngineTelemetry::register(Arc::clone(&registry));
        let json = append_contention_fields(
            JsonReport::new().str("experiment", "test"),
            &run.snapshot,
            &stage,
            &engine,
        )
        .render();
        // The key set is part of the BENCH_*.json format: pin it whole.
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
            .collect();
        let mut expected = vec!["experiment".to_string()];
        for w in ["worker00", "worker01"] {
            for suffix in ["busy_ns", "acquire_ns", "idle_ns", "chunks", "steals"] {
                expected.push(format!("{w}_{suffix}"));
            }
        }
        for cam in ["cam00", "cam01"] {
            for suffix in ["queue_high_water", "queue_wait_ns", "producer_block_ns", "migrations"] {
                expected.push(format!("{cam}_{suffix}"));
            }
        }
        expected.extend(
            [
                "sched_steals",
                "sched_batches",
                "sched_batch_mean_chunks",
                "sched_batch_max_le_chunks",
                "sched_ready_high_water",
            ]
            .map(String::from),
        );
        for stage in ["ebbi", "median", "rpn", "roe", "tracker"] {
            expected.push(format!("stage_{stage}_calls"));
            expected.push(format!("stage_{stage}_mean_ns"));
        }
        expected.extend(
            [
                "chunk_queue_wait_count",
                "chunk_queue_wait_mean_ns",
                "chunk_queue_wait_max_le_ns",
                "queue_depth_mean_chunks",
                "collector_buffered_mean_frames",
            ]
            .map(String::from),
        );
        assert_eq!(keys, expected);
    }
}
