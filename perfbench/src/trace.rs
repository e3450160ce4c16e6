//! The per-layer time a traced pass reads back from the engine's own
//! telemetry, and the identities it must satisfy.

use std::sync::Arc;

use ebbiot_core::StageTelemetry;
use ebbiot_engine::{EngineTelemetry, WorkerTelemetry};
use ebbiot_telemetry::Registry;

/// Per-layer time of one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Chunk decode (`EBST` read or `EBWP` frame parse, CRC and varint
    /// decode), timed in a decode-only pass over the pass's own bytes.
    pub decode_ns: u64,
    pub events: u64,
    pub frames: u64,
    /// Time per stage, in `ebbiot_core::STAGES` order.
    pub stage_ns: [u64; 5],
    /// Worker time, summed over workers: `busy + acquire + idle ==
    /// worker_wall`.
    pub busy_ns: u64,
    pub acquire_ns: u64,
    pub idle_ns: u64,
    pub worker_wall_ns: u64,
    pub batches: u64,
    pub batch_jobs: u64,
    pub queue_wait_ns: u64,
    pub queued_chunks: u64,
}

impl Layers {
    /// Adds what the engine's telemetry in `registry` accounted, after
    /// its `workers` workers have exited. Checks the two identities the
    /// trace rests on and returns the first that fails: every worker's
    /// busy, acquire and idle time sum to its lifetime, and the stages
    /// fit inside busy time.
    pub fn add_engine(&mut self, registry: &Arc<Registry>, workers: usize) -> Result<(), String> {
        for w in 0..workers {
            let t = WorkerTelemetry::register(registry, w);
            let (busy, acquire, idle, wall) =
                (t.busy.get(), t.acquire.get(), t.idle.get(), t.wall.get());
            if busy + acquire + idle != wall {
                return Err(format!(
                    "worker {w}: busy {busy} + acquire {acquire} + idle {idle} != wall {wall}"
                ));
            }
            self.busy_ns += busy;
            self.acquire_ns += acquire;
            self.idle_ns += idle;
            self.worker_wall_ns += wall;
        }
        let stages = StageTelemetry::register(registry);
        for (slot, (_, histogram)) in self.stage_ns.iter_mut().zip(stages.stages()) {
            *slot += histogram.sum();
        }
        let stage_sum: u64 = self.stage_ns.iter().sum();
        if stage_sum > self.busy_ns {
            return Err(format!(
                "stage time {stage_sum} ns exceeds worker busy time {} ns",
                self.busy_ns
            ));
        }
        self.frames += stages.frames_observed();
        let engine = EngineTelemetry::register(Arc::clone(registry));
        self.batches += engine.batch_size.count();
        self.batch_jobs += engine.batch_size.sum();
        self.queue_wait_ns += engine.queue_wait.sum();
        self.queued_chunks += engine.queue_wait.count();
        Ok(())
    }

    /// The per-layer metrics, `(name, unit, value)`.
    ///
    /// They add up. The worker's lifetime splits exactly into busy,
    /// acquire and idle shares, and busy time splits exactly into the
    /// five stages plus the engine's own overhead, per frame. Decode
    /// runs on the producer side (the replay thread, or each session
    /// thread of the server), beside the worker, so its share is of the
    /// pass's wall time.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let stage_sum: u64 = self.stage_ns.iter().sum();
        vec![
            ("decode_ns_per_event", "ns", per(self.decode_ns, self.events)),
            ("stage_ebbi_ns_per_frame", "ns", per(self.stage_ns[0], self.frames)),
            ("stage_median_ns_per_frame", "ns", per(self.stage_ns[1], self.frames)),
            ("stage_rpn_ns_per_frame", "ns", per(self.stage_ns[2], self.frames)),
            ("stage_roe_ns_per_frame", "ns", per(self.stage_ns[3], self.frames)),
            ("stage_tracker_ns_per_frame", "ns", per(self.stage_ns[4], self.frames)),
            ("engine_overhead_ns_per_frame", "ns", per(self.busy_ns - stage_sum, self.frames)),
            ("worker_acquire_ns_per_batch", "ns", per(self.acquire_ns, self.batches)),
            ("batch_chunks_mean", "count", per(self.batch_jobs, self.batches)),
            ("chunk_queue_wait_us", "us", per(self.queue_wait_ns, self.queued_chunks) / 1e3),
            ("decode_share", "ratio", per(self.decode_ns, self.wall_ns)),
            ("worker_busy_share", "ratio", per(self.busy_ns, self.worker_wall_ns)),
            ("worker_acquire_share", "ratio", per(self.acquire_ns, self.worker_wall_ns)),
            ("worker_idle_share", "ratio", per(self.idle_ns, self.worker_wall_ns)),
        ]
    }
}
