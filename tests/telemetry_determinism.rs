//! Telemetry is observation-only: a fully instrumented 16-camera fleet
//! (engine contention metrics + per-stage pipeline timings) produces
//! output **bit-for-bit identical** to the uninstrumented sequential
//! baseline — and the metrics themselves obey exact accounting
//! invariants, not tolerances:
//!
//! * per worker, `busy_ns + acquire_ns + idle_ns == wall_ns`
//!   (telescoping timestamps attribute every nanosecond exactly once);
//! * the chunk-latency histogram counts exactly the chunks routed;
//! * each stage histogram counts exactly the frames emitted.
//!
//! This is the telemetry twin of `engine_determinism.rs`.

use std::sync::Arc;

use ebbiot::engine::FleetOptions;
use ebbiot::prelude::*;
use ebbiot_bench::breakdown::run_fleet_backend_instrumented;
use ebbiot_bench::run_fleet_sequential;
use ebbiot_engine::EngineTelemetry;

const CAMERAS: usize = 16;
const SECONDS: f64 = 0.4;

#[test]
fn instrumented_sixteen_camera_fleet_is_bit_identical_with_exact_metric_accounting() {
    let fleet = FleetConfig::new(DatasetPreset::Lt4, CAMERAS).with_seconds(SECONDS).generate();
    let spec = registry::find_backend("ebbiot").unwrap();
    let expected = run_fleet_sequential(spec, DatasetPreset::Lt4, &fleet);

    for workers in [1usize, 4] {
        let metrics = Arc::new(Registry::new());
        let options = FleetOptions { workers, queue_capacity: 2, chunk_events: 777 };
        let (run, stage) =
            run_fleet_backend_instrumented(spec, DatasetPreset::Lt4, &fleet, &options, &metrics);

        // 1. Observation-only: bit-identical output with everything on.
        assert_eq!(
            run.output.streams, expected,
            "{workers} workers: instrumented fleet diverged from sequential"
        );

        // 2. Worker time accounting is exact after join.
        let snapshot = &run.output.snapshot;
        assert_eq!(snapshot.workers.len(), workers);
        let mut worker_chunks = 0u64;
        for w in &snapshot.workers {
            assert!(w.wall_ns > 0, "worker {} wall clock stamped at exit", w.id);
            assert_eq!(
                w.busy_ns + w.acquire_ns + w.idle_ns,
                w.wall_ns,
                "worker {}: busy + acquire + idle must equal wall exactly",
                w.id
            );
            worker_chunks += w.chunks;
        }

        // 3. The chunk-latency histogram saw every routed chunk, no
        //    more, no less — and workers dequeued exactly that many.
        let engine_metrics = EngineTelemetry::register(Arc::clone(&metrics));
        let chunks_in: u64 = snapshot.streams.iter().map(|s| s.chunks_in).sum();
        assert_eq!(engine_metrics.queue_wait.count(), chunks_in);
        assert_eq!(engine_metrics.queue_depth.count(), chunks_in);
        assert_eq!(worker_chunks, chunks_in);

        // 4. Stream queue-wait totals distribute the histogram's sum.
        let stream_wait: u64 = snapshot.streams.iter().map(|s| s.queue_wait_ns).sum();
        assert_eq!(engine_metrics.queue_wait.sum(), stream_wait, "same waits, per stream vs all");

        // 5. Every stage histogram counts exactly the emitted frames.
        let frames = run.frames();
        assert!(frames > 0);
        for (label, hist) in stage.stages() {
            assert_eq!(hist.count(), frames, "stage {label}: one observation per frame");
        }

        // 6. And the whole story renders as a parseable exposition.
        let text = metrics.render();
        assert!(validate_exposition(&text).unwrap() > 0);
        assert!(text.contains("ebbiot_engine_worker_busy_nanoseconds_total{worker=\"0\"}"));
        assert!(
            text.contains("ebbiot_engine_stream_queue_wait_nanoseconds_total{stream=\"cam15\"}")
        );
    }
}
