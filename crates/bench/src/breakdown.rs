//! Stage/contention breakdown shared by `exp_fleet` and `exp_server`:
//! instrumented fleet runs, the tables that localize where parallel
//! speedup goes, and the flat `BENCH_*.json` fields that track it
//! across PRs (the "reading the fleet breakdown" cookbook in
//! ARCHITECTURE.md §7 walks through the output).

use std::sync::Arc;

use ebbiot_baselines::registry::BackendSpec;
use ebbiot_core::{FrameResult, StageTelemetry};
use ebbiot_engine::{Engine, EngineTelemetry, FleetOptions, FleetRun, FleetStream, Snapshot};
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
/// [`StageTelemetry`] (returned alongside the run). Output is still
/// bit-for-bit the sequential result — telemetry observes, never steers.
#[must_use]
pub fn run_fleet_backend_instrumented(
    spec: &BackendSpec,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
    options: &FleetOptions,
    registry: &Arc<Registry>,
) -> (FleetRun, StageTelemetry) {
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

/// Per-worker contention table: where each worker's wall clock went.
/// Headers in [`WORKER_HEADER`]. After `join`,
/// Busy + Acquire + Idle == wall exactly; a low busy share with high
/// stream queue waits is the contention signature of an over-subscribed
/// core, while a high acquire share means batching is too fine
/// (`EngineConfig::batch_chunks`).
#[must_use]
pub fn worker_rows(snapshot: &Snapshot) -> Vec<Vec<String>> {
    snapshot
        .workers
        .iter()
        .map(|w| {
            let wall = w.busy_ns + w.acquire_ns + w.idle_ns;
            let busy_pct = if wall > 0 { 100.0 * w.busy_ns as f64 / wall as f64 } else { 0.0 };
            vec![
                w.id.to_string(),
                ms(w.busy_ns),
                ms(w.acquire_ns),
                ms(w.idle_ns),
                format!("{busy_pct:.1}"),
                w.chunks.to_string(),
                w.steals.to_string(),
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
/// / collector-occupancy distributions' count+mean.
#[must_use]
pub fn append_contention_fields(
    mut report: JsonReport,
    snapshot: &Snapshot,
    stage: &StageTelemetry,
    engine: &EngineTelemetry,
) -> JsonReport {
    for w in &snapshot.workers {
        let key = |suffix: &str| format!("worker{:02}_{suffix}", w.id);
        report = report
            .u64(&key("busy_ns"), w.busy_ns)
            .u64(&key("acquire_ns"), w.acquire_ns)
            .u64(&key("idle_ns"), w.idle_ns)
            .u64(&key("chunks"), w.chunks)
            .u64(&key("steals"), w.steals);
    }
    for s in &snapshot.streams {
        let key = |suffix: &str| format!("{}_{suffix}", s.id);
        report = report
            .u64(&key("queue_high_water"), s.queue_high_water as u64)
            .u64(&key("queue_wait_ns"), s.queue_wait_ns)
            .u64(&key("producer_block_ns"), s.producer_block_ns)
            .u64(&key("migrations"), s.migrations);
    }
    let sched = snapshot.scheduler;
    report = report
        .u64("sched_steals", sched.steals)
        .u64("sched_batches", sched.batches)
        .f64("sched_batch_mean_chunks", sched.batch_mean)
        .u64("sched_batch_max_le_chunks", sched.batch_max_le)
        .u64("sched_ready_high_water", sched.ready_high_water as u64);
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
        assert_eq!(run.output.streams, sequential, "telemetry is observation-only");
        assert_eq!(stage.frames_observed(), run.frames(), "one tracker stage call per frame");

        let workers = worker_rows(&run.output.snapshot);
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].len(), WORKER_HEADER.len());
        let stages = stage_rows(&stage);
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0].len(), STAGE_HEADER.len());

        let engine = EngineTelemetry::register(Arc::clone(&registry));
        let json = append_contention_fields(
            JsonReport::new().str("experiment", "test"),
            &run.output.snapshot,
            &stage,
            &engine,
        )
        .render();
        assert!(json.contains("\"worker00_busy_ns\""));
        assert!(json.contains("\"worker00_acquire_ns\""));
        assert!(json.contains("\"worker01_steals\""));
        assert!(json.contains("\"cam00_queue_high_water\""));
        assert!(json.contains("\"cam01_queue_wait_ns\""));
        assert!(json.contains("\"cam00_migrations\""));
        assert!(json.contains("\"sched_steals\""));
        assert!(json.contains("\"sched_batches\""));
        assert!(json.contains("\"stage_tracker_calls\""));
        assert!(json.contains("\"chunk_queue_wait_count\""));
    }
}
