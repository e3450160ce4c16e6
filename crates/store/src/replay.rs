//! [`Replayer`]: drives engines from stored recordings, at maximum
//! speed or paced against the wall clock.

use std::time::{Duration, Instant};

use ebbiot_core::Tracker;
use ebbiot_engine::{Engine, EngineOutput, StreamId};
use ebbiot_events::Event;

use crate::reader::{ChunkReader, ChunkSource};
use crate::StoreError;

/// How replay time relates to wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// Push chunks as fast as they decode — throughput benchmarking.
    MaxSpeed,
    /// Pace pushes so recording time advances at `rate` × real time
    /// (1.0 = original sensor timing). Each chunk is released once the
    /// scaled wall clock reaches its first event's timestamp.
    Paced {
        /// Recording-seconds per wall-clock second; must be > 0.
        rate: f64,
    },
}

impl ReplayMode {
    /// Real-time pacing (`rate` = 1.0).
    #[must_use]
    pub const fn real_time() -> Self {
        ReplayMode::Paced { rate: 1.0 }
    }

    /// Sleeps until `t_us` of recording time has elapsed since `start`,
    /// under this mode's scaling. No-op for [`ReplayMode::MaxSpeed`].
    fn pace(&self, start: Instant, t_us: u64) {
        if let ReplayMode::Paced { rate } = *self {
            assert!(rate > 0.0, "replay rate must be positive");
            let target = Duration::from_secs_f64(t_us as f64 / 1e6 / rate);
            let elapsed = start.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
    }
}

/// Per-stream progress counters for one replay run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// The stream's position in the reader list (== its [`StreamId`]).
    pub stream: usize,
    /// Events pushed.
    pub events: u64,
    /// Chunks pushed.
    pub chunks: u64,
    /// Recording timestamp of the last pushed event, 0 when none.
    pub last_t: u64,
}

/// Everything an engine replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReplay {
    /// The engine's per-stream outputs and final snapshot.
    pub output: EngineOutput,
    /// Per-stream progress counters, indexed by [`StreamId`].
    pub stats: Vec<ReplayStats>,
    /// Wall-clock duration from first push to full drain.
    pub elapsed: Duration,
}

impl EngineReplay {
    /// Total events replayed across streams.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.stats.iter().map(|s| s.events).sum()
    }

    /// Aggregate replay throughput, events/second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Replays stored recordings through the streaming tracking stack.
///
/// The replayer is the bridge between the on-disk store and the
/// processing layers: it feeds [`Engine::push`]/`finish_stream` straight
/// from [`ChunkReader`]s, one per stream, so no recording is ever
/// memory-resident. A single recording replays through a one-stream
/// engine.
///
/// ```
/// use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
/// use ebbiot_engine::{Engine, EngineConfig};
/// use ebbiot_events::{Event, SensorGeometry};
/// use ebbiot_store::{ChunkReader, RecordingWriter, ReplayMode, Replayer, StoreOptions};
///
/// // Spool a tiny recording (normally a file; any Write sink works)…
/// let geometry = SensorGeometry::davis240();
/// let mut writer = RecordingWriter::new(Vec::new(), geometry, "demo", 66_000,
///     StoreOptions::default())?;
/// writer.push_events(&[Event::on(10, 20, 0), Event::on(11, 20, 40_000)])?;
/// let (bytes, _) = writer.finish()?;
///
/// // …and replay it through a one-stream engine at maximum speed.
/// let mut readers = vec![ChunkReader::new(std::io::Cursor::new(bytes))?];
/// let pipeline = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry));
/// let engine = Engine::new(EngineConfig::with_workers(1), vec![pipeline]);
/// let run = Replayer::new(ReplayMode::MaxSpeed).replay_engine(&mut readers, engine)?;
/// assert_eq!(run.events(), 2);
/// assert_eq!(run.output.streams[0], EbbiotPipeline::new(EbbiotConfig::paper_default(geometry))
///     .process_recording(&[Event::on(10, 20, 0), Event::on(11, 20, 40_000)], 66_000));
/// # Ok::<(), ebbiot_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replayer {
    mode: ReplayMode,
}

impl Replayer {
    /// A replayer in the given mode.
    #[must_use]
    pub const fn new(mode: ReplayMode) -> Self {
        Self { mode }
    }

    /// The configured mode.
    #[must_use]
    pub const fn mode(&self) -> ReplayMode {
        self.mode
    }

    /// Drives a whole engine from one reader per stream (reader `i`
    /// feeds [`StreamId`]`(i)`), joins it and returns its output.
    ///
    /// Chunks are fanned in globally time-ordered: at every step the
    /// stream with the earliest pending chunk (by the index metadata —
    /// no decode needed to schedule) is pushed next, which is also what
    /// paces correctly in [`ReplayMode::Paced`]. Each stream is
    /// finished with its header's nominal span. Per-stream output is
    /// bit-for-bit identical to in-memory processing of the same
    /// events.
    ///
    /// # Errors
    ///
    /// Returns the first read/decode error. The engine is dropped
    /// without joining in that case; its `Drop` signals the scheduler
    /// shutdown, so the workers drain what was queued and exit.
    ///
    /// # Panics
    ///
    /// Panics when `readers` does not have exactly one reader per
    /// engine stream.
    pub fn replay_engine<T: Tracker + Send + 'static, R: ChunkSource>(
        &self,
        readers: &mut [ChunkReader<R>],
        engine: Engine<T>,
    ) -> Result<EngineReplay, StoreError> {
        assert_eq!(readers.len(), engine.num_streams(), "one reader per engine stream");
        let started = Instant::now();
        let mut stats: Vec<ReplayStats> = (0..readers.len())
            .map(|stream| ReplayStats { stream, events: 0, chunks: 0, last_t: 0 })
            .collect();
        // Earliest pending chunk across streams, from index metadata.
        let earliest = |readers: &[ChunkReader<R>]| {
            readers
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.peek_meta().map(|m| (i, m.t_first)))
                .min_by_key(|&(i, t)| (t, i))
        };
        while let Some((stream, t_first)) = earliest(readers) {
            self.mode.pace(started, t_first);
            // Decode straight into the Vec the engine takes by value:
            // the chunk is moved to the worker, never copied.
            let mut chunk = Vec::new();
            let got = readers[stream].next_chunk_into(&mut chunk)?;
            debug_assert!(got, "peeked chunk exists");
            note_chunk(&mut stats[stream], &chunk);
            engine.push(StreamId(stream), chunk);
        }
        for (i, reader) in readers.iter().enumerate() {
            engine.finish_stream(StreamId(i), reader.span_us());
        }
        let output = engine.join();
        Ok(EngineReplay { output, stats, elapsed: started.elapsed() })
    }
}

/// Folds one pushed chunk into a stream's progress counters.
fn note_chunk(stats: &mut ReplayStats, chunk: &[Event]) {
    stats.events += chunk.len() as u64;
    stats.chunks += 1;
    if let Some(last) = chunk.last() {
        stats.last_t = last.t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{RecordingWriter, StoreOptions};
    use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    use ebbiot_engine::EngineConfig;
    use ebbiot_events::{Event, SensorGeometry};
    use std::io::Cursor;

    /// Dense moving block that survives the median filter.
    fn recording() -> Vec<Event> {
        let mut events = Vec::new();
        for f in 0..5u16 {
            for dy in 0..12u16 {
                for dx in 0..24u16 {
                    events.push(Event::on(
                        40 + f * 3 + dx,
                        80 + dy,
                        u64::from(f) * 66_000 + u64::from(dy) * 7,
                    ));
                }
            }
        }
        events
    }

    const SPAN: u64 = 6 * 66_000;

    fn stored(events: &[Event], chunk_events: usize) -> ChunkReader<Cursor<Vec<u8>>> {
        let mut w = RecordingWriter::new(
            Vec::new(),
            SensorGeometry::davis240(),
            "replay",
            SPAN,
            StoreOptions { chunk_events },
        )
        .unwrap();
        w.push_events(events).unwrap();
        ChunkReader::new(Cursor::new(w.finish().unwrap().0)).unwrap()
    }

    fn pipeline() -> EbbiotPipeline {
        EbbiotPipeline::new(EbbiotConfig::paper_default(SensorGeometry::davis240()))
    }

    #[test]
    fn engine_replay_matches_in_memory_processing() {
        let events = recording();
        let expected = pipeline().process_recording(&events, SPAN);
        // Deliberately unequal chunk sizes, so the earliest-pending merge
        // interleaves streams unevenly.
        for sizes in [&[91, 1_024][..], &[91, 1_024, 17]] {
            let mut readers: Vec<_> = sizes.iter().map(|&n| stored(&events, n)).collect();
            let engine = Engine::new(
                EngineConfig::with_workers(2),
                sizes.iter().map(|_| pipeline()).collect(),
            );
            let run =
                Replayer::new(ReplayMode::MaxSpeed).replay_engine(&mut readers, engine).unwrap();
            assert_eq!(run.output.streams.len(), sizes.len());
            for (i, frames) in run.output.streams.iter().enumerate() {
                assert_eq!(frames, &expected, "stream {i} of {sizes:?}");
            }
            assert_eq!(run.events(), sizes.len() as u64 * events.len() as u64);
            assert!(run.events_per_sec() > 0.0);
            for (stats, &n) in run.stats.iter().zip(sizes) {
                assert_eq!(stats.chunks, (events.len() as u64).div_ceil(n as u64));
                assert_eq!(stats.last_t, events.last().unwrap().t);
            }
        }
    }

    #[test]
    fn engine_replay_surfaces_decode_errors() {
        let events = recording();
        let mut w = RecordingWriter::new(
            Vec::new(),
            SensorGeometry::davis240(),
            "bad",
            SPAN,
            StoreOptions { chunk_events: 64 },
        )
        .unwrap();
        w.push_events(&events).unwrap();
        let mut bytes = w.finish().unwrap().0;
        // Corrupt a payload byte mid-file: open succeeds (the index is
        // intact), decode of that chunk fails its CRC.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let mut readers = vec![stored(&events, 64), ChunkReader::new(Cursor::new(bytes)).unwrap()];
        // The error path drops the engine without joining it.
        let engine = Engine::new(EngineConfig::with_workers(1), vec![pipeline(), pipeline()]);
        let err =
            Replayer::new(ReplayMode::MaxSpeed).replay_engine(&mut readers, engine).unwrap_err();
        assert!(
            matches!(err, StoreError::ChunkCrcMismatch { .. } | StoreError::CorruptChunk { .. }),
            "{err}"
        );
    }

    #[test]
    fn paced_replay_takes_at_least_the_scaled_duration() {
        let events = recording();
        // Last chunk begins at t of the final block (4 * 66 ms); at
        // 10x real time the release gate is ~26 ms of wall clock.
        let mut readers = vec![stored(&events, 288)];
        let engine = Engine::new(EngineConfig::with_workers(1), vec![pipeline()]);
        let started = Instant::now();
        let run = Replayer::new(ReplayMode::Paced { rate: 10.0 })
            .replay_engine(&mut readers, engine)
            .unwrap();
        let last_chunk_start = 4 * 66_000u64;
        let floor = Duration::from_secs_f64(last_chunk_start as f64 / 1e6 / 10.0);
        assert!(started.elapsed() >= floor, "paced replay finished too fast");
        assert_eq!(run.output.streams[0], pipeline().process_recording(&events, SPAN));
    }

    #[test]
    fn replay_mode_helpers() {
        assert_eq!(ReplayMode::real_time(), ReplayMode::Paced { rate: 1.0 });
        let replayer = Replayer::new(ReplayMode::MaxSpeed);
        assert_eq!(replayer.mode(), ReplayMode::MaxSpeed);
    }

    #[test]
    #[should_panic(expected = "one reader per engine stream")]
    fn mismatched_reader_count_panics() {
        let mut readers = vec![stored(&recording(), 100)];
        let engine = Engine::new(EngineConfig::with_workers(1), vec![pipeline(), pipeline()]);
        let _ = Replayer::new(ReplayMode::MaxSpeed).replay_engine(&mut readers, engine);
    }
}
