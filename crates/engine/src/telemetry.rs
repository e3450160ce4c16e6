//! Engine contention telemetry — the instruments that explain where
//! parallel speedup goes.
//!
//! The engine always carries an [`EngineTelemetry`] (share one across
//! components with [`crate::Engine::with_registry`]): a handful of
//! relaxed atomic adds per *chunk* is noise next to the kernel work a
//! chunk performs, so unlike the per-stage pipeline telemetry there is
//! no off switch. The registry is the only place these numbers live —
//! [`crate::Snapshot`] copies none of them — so a STATS scrape and an
//! in-process reader see the same values. Four views cover the
//! contention story (ARCHITECTURE.md §7):
//!
//! * **per worker** ([`WorkerTelemetry`]) — busy / acquire / idle /
//!   wall time, chunk counts and steals, accounted with telescoping
//!   timestamps so that `busy + acquire + idle == wall` holds *exactly*
//!   at worker exit (the determinism suite asserts equality, not a
//!   tolerance);
//! * **per chunk** — enqueue→dequeue latency and queue-depth
//!   distributions, plus collector reorder-buffer occupancy;
//! * **per stream** ([`StreamTelemetry`]) — cumulative queue wait and
//!   producer back-pressure blocking, labelled by camera;
//! * **scheduler** — the jobs-per-acquisition batch-size histogram (how
//!   well batching amortizes hand-off), and a live ready-streams gauge.
//!
//! Every `register` call is idempotent: it returns handles to the live
//! series, creating them only when absent. Readers should therefore
//! register worker handles only for the [`crate::Snapshot::workers`]
//! workers that exist.

use std::sync::Arc;

use ebbiot_telemetry::{Counter, Gauge, Histogram, Registry};

/// Chunk enqueue→dequeue latency histogram (nanoseconds).
pub const CHUNK_QUEUE_WAIT_METRIC: &str = "ebbiot_engine_chunk_queue_wait_nanoseconds";
/// Queue depth observed at each admission (chunks in flight).
pub const QUEUE_DEPTH_METRIC: &str = "ebbiot_engine_queue_depth_chunks";
/// Collector buffer occupancy after each append (frames awaiting drain).
pub const COLLECTOR_BUFFERED_METRIC: &str = "ebbiot_engine_collector_buffered_frames";
/// Jobs drained per stream acquisition (batching effectiveness).
pub const BATCH_SIZE_METRIC: &str = "ebbiot_engine_batch_chunks";
/// Streams currently ready and awaiting a worker.
pub const READY_STREAMS_METRIC: &str = "ebbiot_engine_ready_streams";

/// Engine-wide instruments plus the registry they live in.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    registry: Arc<Registry>,
    /// Chunk enqueue→dequeue latency (nanoseconds).
    pub queue_wait: Arc<Histogram>,
    /// Stream queue depth sampled at each admission.
    pub queue_depth: Arc<Histogram>,
    /// Collector buffer occupancy sampled after each append.
    pub collector_buffered: Arc<Histogram>,
    /// Jobs drained per stream acquisition.
    pub batch_size: Arc<Histogram>,
    /// Streams ready and awaiting a worker, live.
    pub ready_streams: Arc<Gauge>,
}

impl EngineTelemetry {
    /// Registers (or retrieves) the engine-wide instruments in `registry`.
    #[must_use]
    pub fn register(registry: Arc<Registry>) -> Self {
        Self {
            queue_wait: registry.histogram(CHUNK_QUEUE_WAIT_METRIC, &[]),
            queue_depth: registry.histogram(QUEUE_DEPTH_METRIC, &[]),
            collector_buffered: registry.histogram(COLLECTOR_BUFFERED_METRIC, &[]),
            batch_size: registry.histogram(BATCH_SIZE_METRIC, &[]),
            ready_streams: registry.gauge(READY_STREAMS_METRIC, &[]),
            registry,
        }
    }

    /// The registry the engine's metrics are registered in.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// One worker thread's time accounting.
///
/// Every nanosecond of the worker's life is attributed to exactly one of
/// `busy` (processing jobs), `acquire` (claiming stream ownership and
/// draining a batch) or `idle` (waiting for a ready stream), and `wall`
/// is stamped once at exit — so after [`crate::Engine::join`],
/// `busy + acquire + idle == wall` exactly.
#[derive(Debug, Clone)]
pub struct WorkerTelemetry {
    /// Nanoseconds spent processing jobs.
    pub busy: Arc<Counter>,
    /// Nanoseconds spent acquiring stream ownership and draining batches.
    pub acquire: Arc<Counter>,
    /// Nanoseconds spent waiting for a ready stream.
    pub idle: Arc<Counter>,
    /// Worker lifetime in nanoseconds (written once, at exit).
    pub wall: Arc<Counter>,
    /// Chunks processed (finish jobs excluded).
    pub chunks: Arc<Counter>,
    /// Stream acquisitions taken from another worker's deque.
    pub steals: Arc<Counter>,
}

impl WorkerTelemetry {
    /// Registers (or retrieves) worker `index`'s counters.
    #[must_use]
    pub fn register(registry: &Registry, index: usize) -> Self {
        let worker = index.to_string();
        let labels: &[(&str, &str)] = &[("worker", &worker)];
        Self {
            busy: registry.counter("ebbiot_engine_worker_busy_nanoseconds_total", labels),
            acquire: registry.counter("ebbiot_engine_worker_acquire_nanoseconds_total", labels),
            idle: registry.counter("ebbiot_engine_worker_idle_nanoseconds_total", labels),
            wall: registry.counter("ebbiot_engine_worker_wall_nanoseconds_total", labels),
            chunks: registry.counter("ebbiot_engine_worker_chunks_total", labels),
            steals: registry.counter("ebbiot_engine_worker_steals_total", labels),
        }
    }
}

/// One stream's cumulative contention counters, labelled by camera
/// (`stream="cam03"`).
#[derive(Debug, Clone)]
pub struct StreamTelemetry {
    /// Total nanoseconds this stream's chunks sat queued.
    pub queue_wait: Arc<Counter>,
    /// Total nanoseconds producers spent in blocking admission.
    pub producer_block: Arc<Counter>,
}

impl StreamTelemetry {
    /// Registers (or retrieves) the counters for the stream labelled
    /// `name` (use the [`crate::StreamId`] display form).
    #[must_use]
    pub fn register(registry: &Registry, name: &str) -> Self {
        let labels: &[(&str, &str)] = &[("stream", name)];
        Self {
            queue_wait: registry
                .counter("ebbiot_engine_stream_queue_wait_nanoseconds_total", labels),
            producer_block: registry
                .counter("ebbiot_engine_stream_producer_block_nanoseconds_total", labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_families_render_in_the_exposition() {
        let telemetry = EngineTelemetry::register(Arc::new(Registry::new()));
        telemetry.queue_wait.record(1_000);
        telemetry.queue_depth.record(3);
        telemetry.collector_buffered.record(16);
        telemetry.batch_size.record(4);
        telemetry.ready_streams.set(2);
        let text = telemetry.registry().render();
        for family in [
            CHUNK_QUEUE_WAIT_METRIC,
            QUEUE_DEPTH_METRIC,
            COLLECTOR_BUFFERED_METRIC,
            BATCH_SIZE_METRIC,
        ] {
            assert!(text.contains(&format!("# TYPE {family} histogram")), "missing {family}");
        }
        assert!(text.contains(&format!("{READY_STREAMS_METRIC} 2")));
    }

    #[test]
    fn worker_and_stream_series_are_labelled() {
        let registry = Registry::new();
        let w1 = WorkerTelemetry::register(&registry, 1);
        w1.busy.add(5);
        w1.acquire.add(2);
        w1.chunks.inc();
        w1.steals.inc();
        StreamTelemetry::register(&registry, "cam02").queue_wait.add(9);
        let text = registry.render();
        assert!(text.contains("ebbiot_engine_worker_busy_nanoseconds_total{worker=\"1\"} 5"));
        assert!(text.contains("ebbiot_engine_worker_acquire_nanoseconds_total{worker=\"1\"} 2"));
        assert!(text.contains("ebbiot_engine_worker_chunks_total{worker=\"1\"} 1"));
        assert!(text.contains("ebbiot_engine_worker_steals_total{worker=\"1\"} 1"));
        assert!(
            text.contains("ebbiot_engine_stream_queue_wait_nanoseconds_total{stream=\"cam02\"} 9")
        );
    }

    #[test]
    fn register_is_idempotent_per_worker() {
        let registry = Registry::new();
        let a = WorkerTelemetry::register(&registry, 0);
        let b = WorkerTelemetry::register(&registry, 0);
        a.chunks.inc();
        assert_eq!(b.chunks.get(), 1);
    }
}
