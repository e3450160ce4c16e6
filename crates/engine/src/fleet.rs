//! Fleet driving: feed K recorded/simulated streams through an engine
//! and drain it. The returned [`EngineOutput`]'s snapshot carries the
//! run's rates ([`crate::Snapshot::events_per_sec`]).

use std::sync::Arc;

use ebbiot_core::{Pipeline, Tracker};
use ebbiot_events::{Event, Micros};
use ebbiot_telemetry::Registry;

use crate::engine::{Engine, EngineConfig, EngineOutput, StreamId};

/// One camera's input to a fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetStream<'a> {
    /// The stream's time-ordered events.
    pub events: &'a [Event],
    /// Span handed to the stream's `finish` (usually the recording
    /// duration), so trailing silence still advances the tracker.
    pub span_us: Micros,
}

/// Knobs for [`Engine::run_fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOptions {
    /// Worker threads.
    pub workers: usize,
    /// Per-stream queue bound, in chunks.
    pub queue_capacity: usize,
    /// Events per routed chunk (the granularity at which streams
    /// interleave; clamped to at least 1).
    pub chunk_events: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        let EngineConfig { workers, queue_capacity, .. } = EngineConfig::default();
        Self { workers, queue_capacity, chunk_events: 4096 }
    }
}

impl<T: Tracker + Send + 'static> Engine<T> {
    /// Runs a whole fleet to completion: builds an engine over
    /// `pipelines` (one per entry of `streams`), feeds every stream's
    /// events in `chunk_events`-sized chunks interleaved round-robin
    /// across cameras (so the router genuinely multiplexes), finishes
    /// each stream with its span, and drains.
    ///
    /// The returned per-stream outputs are bit-for-bit identical to
    /// running each pipeline sequentially over its events, regardless of
    /// `options.workers`.
    ///
    /// ```
    /// use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    /// use ebbiot_engine::{Engine, FleetOptions, FleetStream};
    /// use ebbiot_events::{Event, SensorGeometry};
    ///
    /// let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    /// let cameras: Vec<Vec<Event>> = (0..3u16)
    ///     .map(|cam| (0..200).map(|i| Event::on(40 + cam * 8 + i % 16, 80, u64::from(i))).collect())
    ///     .collect();
    /// let streams: Vec<FleetStream> = cameras
    ///     .iter()
    ///     .map(|events| FleetStream { events, span_us: 132_000 })
    ///     .collect();
    ///
    /// let pipelines = (0..3).map(|_| EbbiotPipeline::new(config.clone())).collect();
    /// let run = Engine::run_fleet(
    ///     pipelines,
    ///     &streams,
    ///     &FleetOptions { workers: 2, ..FleetOptions::default() },
    /// );
    /// assert_eq!(run.streams.len(), 3);
    /// assert_eq!(run.snapshot.events_in(), 600);
    ///
    /// // Identical to processing each camera alone, any worker count.
    /// let alone = EbbiotPipeline::new(config).process_recording(&cameras[0], 132_000);
    /// assert_eq!(run.streams[0], alone);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `pipelines` and `streams` lengths differ, or when a
    /// stream's events are not time-ordered.
    #[must_use]
    pub fn run_fleet(
        pipelines: Vec<Pipeline<T>>,
        streams: &[FleetStream<'_>],
        options: &FleetOptions,
    ) -> EngineOutput {
        Self::run_fleet_with_registry(pipelines, streams, options, Arc::new(Registry::new()))
    }

    /// Like [`Self::run_fleet`], but registers the engine's metrics in a
    /// caller-provided [`Registry`], so the experiment harness can read
    /// the worker, scheduler and queue-wait numbers (and any stage
    /// telemetry the pipelines carry) after the run.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::run_fleet`].
    #[must_use]
    pub fn run_fleet_with_registry(
        pipelines: Vec<Pipeline<T>>,
        streams: &[FleetStream<'_>],
        options: &FleetOptions,
        registry: Arc<Registry>,
    ) -> EngineOutput {
        assert_eq!(pipelines.len(), streams.len(), "one pipeline per fleet stream");
        let config = EngineConfig {
            workers: options.workers,
            queue_capacity: options.queue_capacity,
            ..EngineConfig::default()
        };
        let chunk = options.chunk_events.max(1);

        let engine = Engine::with_registry(config, pipelines, registry);
        let mut offsets = vec![0usize; streams.len()];
        loop {
            let mut progressed = false;
            for (i, stream) in streams.iter().enumerate() {
                if offsets[i] < stream.events.len() {
                    let end = (offsets[i] + chunk).min(stream.events.len());
                    engine.push(StreamId(i), stream.events[offsets[i]..end].to_vec());
                    offsets[i] = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (i, stream) in streams.iter().enumerate() {
            engine.finish_stream(StreamId(i), stream.span_us);
        }
        engine.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    use ebbiot_events::SensorGeometry;

    fn pipelines(n: usize) -> Vec<EbbiotPipeline> {
        let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
        (0..n).map(|_| EbbiotPipeline::new(config.clone())).collect()
    }

    fn moving_block(seed: u16, frames: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for f in 0..frames {
            for dy in 0..10u16 {
                for dx in 0..20u16 {
                    let x = 30 + seed % 40 + (f as u16) * 3 + dx;
                    events.push(Event::on(x, 70 + dy, f * 66_000 + u64::from(dy) * 7));
                }
            }
        }
        events
    }

    #[test]
    fn run_fleet_matches_sequential_processing() {
        let recordings: Vec<Vec<Event>> = (0..4).map(|k| moving_block(k * 9, 5)).collect();
        let span = 6 * 66_000;
        let streams: Vec<FleetStream<'_>> =
            recordings.iter().map(|events| FleetStream { events, span_us: span }).collect();

        let expected: Vec<Vec<_>> = recordings
            .iter()
            .map(|events| pipelines(1).pop().unwrap().process_recording(events, span))
            .collect();

        for workers in [1, 2, 8] {
            let run = Engine::run_fleet(
                pipelines(4),
                &streams,
                &FleetOptions { workers, queue_capacity: 2, chunk_events: 100 },
            );
            assert_eq!(run.streams, expected, "{workers} workers");
            let events = recordings.iter().map(|r| r.len() as u64).sum::<u64>();
            assert_eq!(run.snapshot.events_in(), events);
            assert!(run.snapshot.frames_out() >= 4 * 6);
            assert!(run.snapshot.events_per_sec() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "one pipeline per fleet stream")]
    fn mismatched_fleet_sizes_panic() {
        let streams = [FleetStream { events: &[], span_us: 0 }];
        let _ = Engine::run_fleet(pipelines(2), &streams, &FleetOptions::default());
    }
}
