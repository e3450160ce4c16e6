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
//! The registry is the only copy of these numbers, so the invariants
//! are checked twice: on the live handles, and on the rendered text a
//! STATS scrape serves.
//!
//! This is the telemetry twin of `engine_determinism.rs`.

use std::sync::Arc;

use ebbiot::engine::FleetOptions;
use ebbiot::prelude::*;
use ebbiot_bench::breakdown::run_fleet_backend_instrumented;
use ebbiot_bench::run_fleet_sequential;
use ebbiot_engine::{EngineTelemetry, StreamTelemetry, WorkerTelemetry};

const CAMERAS: usize = 16;
const SECONDS: f64 = 0.4;

/// The `(series, value)` samples of a text exposition, `series` being
/// the metric name and label set exactly as rendered.
fn samples(text: &str) -> Vec<(&str, u64)> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            (series, value.parse().unwrap_or_else(|_| panic!("integer sample in {line:?}")))
        })
        .collect()
}

/// The value of one series.
fn value(samples: &[(&str, u64)], series: &str) -> u64 {
    samples.iter().find(|(s, _)| *s == series).unwrap_or_else(|| panic!("no {series}")).1
}

/// Every sample of the family `name`, across all label sets.
fn family<'a>(samples: &'a [(&'a str, u64)], name: &str) -> Vec<u64> {
    samples
        .iter()
        .filter(|(s, _)| s.split('{').next() == Some(name))
        .map(|&(_, value)| value)
        .collect()
}

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
            run.streams, expected,
            "{workers} workers: instrumented fleet diverged from sequential"
        );

        // 2. Worker time accounting is exact after join.
        let snapshot = &run.snapshot;
        assert_eq!(snapshot.workers, workers);
        let mut worker_chunks = 0u64;
        for w in 0..snapshot.workers {
            let t = WorkerTelemetry::register(&metrics, w);
            assert!(t.wall.get() > 0, "worker {w} wall clock stamped at exit");
            assert_eq!(
                t.busy.get() + t.acquire.get() + t.idle.get(),
                t.wall.get(),
                "worker {w}: busy + acquire + idle must equal wall exactly"
            );
            worker_chunks += t.chunks.get();
        }

        // 3. The chunk-latency histogram saw every routed chunk, no
        //    more, no less — and workers dequeued exactly that many.
        let engine_metrics = EngineTelemetry::register(Arc::clone(&metrics));
        let chunks_in: u64 = snapshot.streams.iter().map(|s| s.chunks_in).sum();
        assert_eq!(engine_metrics.queue_wait.count(), chunks_in);
        assert_eq!(engine_metrics.queue_depth.count(), chunks_in);
        assert_eq!(worker_chunks, chunks_in);

        // 4. Stream queue-wait totals distribute the histogram's sum.
        let stream_wait: u64 = snapshot
            .streams
            .iter()
            .map(|s| StreamTelemetry::register(&metrics, &s.id.to_string()).queue_wait.get())
            .sum();
        assert_eq!(engine_metrics.queue_wait.sum(), stream_wait, "same waits, per stream vs all");

        // 5. Every stage histogram counts exactly the emitted frames.
        let frames = snapshot.frames_out();
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

        // 7. The same identities hold on the scraped text alone.
        let scraped = samples(&text);
        assert_eq!(
            family(&scraped, "ebbiot_engine_worker_wall_nanoseconds_total").len(),
            workers,
            "one series per spawned worker, no phantom workers"
        );
        for w in 0..workers {
            let series = |what: &str| {
                value(&scraped, &format!("ebbiot_engine_worker_{what}{{worker=\"{w}\"}}"))
            };
            assert_eq!(
                series("busy_nanoseconds_total")
                    + series("acquire_nanoseconds_total")
                    + series("idle_nanoseconds_total"),
                series("wall_nanoseconds_total"),
                "scrape, worker {w}: busy + acquire + idle == wall"
            );
        }
        assert_eq!(
            family(&scraped, "ebbiot_engine_worker_chunks_total").iter().sum::<u64>(),
            chunks_in,
            "scrape: worker chunks == chunks routed"
        );
        assert_eq!(
            family(&scraped, "ebbiot_engine_stream_queue_wait_nanoseconds_total")
                .iter()
                .sum::<u64>(),
            value(&scraped, "ebbiot_engine_chunk_queue_wait_nanoseconds_sum"),
            "scrape: per-stream queue waits sum to the queue-wait histogram's _sum"
        );
    }
}
