//! The generic streaming tracking pipeline (Fig. 1).
//!
//! [`Pipeline`] composes the shared [`FrontEnd`] (EBBI → median → RPN →
//! ROE, defined once in [`crate::frontend`]) with any [`Tracker`]
//! back-end. [`EbbiotPipeline`] — the paper's system — is simply
//! `Pipeline<OverlapTracker>`; the baselines crate builds
//! `Pipeline<KalmanTracker>` and `Pipeline<NnEbmsTracker>` the same way,
//! and the registry hands out type-erased `Pipeline<BoxedTracker>`.
//!
//! Frames can be driven three ways:
//!
//! * [`Pipeline::process_frame`] — caller-windowed: one call per `tF`
//!   readout interrupt;
//! * [`Pipeline::push`] / [`Pipeline::finish`] — **streaming**: arbitrary
//!   time-ordered event chunks; frames are emitted as window boundaries
//!   are crossed, so a recording never needs to be resident in memory;
//! * [`Pipeline::process_recording`] — batch: an entire time-ordered
//!   recording, which is one `push` and one `finish`, so the streaming
//!   windower is the only one.
//!
//! All three produce identical `FrameResult` sequences for the same
//! event stream.

use ebbiot_events::{Event, Micros, OpsCounter, Timestamp};
use ebbiot_frame::BoundingBox;

use ebbiot_telemetry::timed;

use crate::{
    backend::{BoxedTracker, FrameInput, Tracker, TrackerInput},
    config::EbbiotConfig,
    frontend::FrontEnd,
    telemetry::StageTelemetry,
    tracker::OverlapTracker,
    window::{self, WindowedStream},
};

/// One reported track box.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackBox {
    /// Stable track identity.
    pub track_id: u64,
    /// Box estimate, clipped to the frame.
    pub bbox: BoundingBox,
    /// Velocity estimate in pixels/frame.
    pub velocity: (f32, f32),
    /// Whether the tracker was coasting through a detected occlusion.
    pub occluded: bool,
}

/// Pipeline output for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// Frame index.
    pub index: usize,
    /// Frame start timestamp (microseconds).
    pub t_start: Timestamp,
    /// Frame duration (microseconds).
    pub duration: Micros,
    /// Confirmed tracks.
    pub tracks: Vec<TrackBox>,
    /// Number of region proposals fed to the tracker this frame (after
    /// ROE filtering) — a diagnostic the ablation benches use.
    pub num_proposals: usize,
    /// Number of events accumulated this frame.
    pub num_events: usize,
}

impl FrameResult {
    /// Bit-exact equality: every float is compared as its IEEE-754 bit
    /// pattern (`f32::to_bits`), not approximately and not via `==`
    /// (which would equate `0.0`/`-0.0` and never match NaN). This is
    /// the comparison the checkpoint/restore parity suites use, so
    /// "restored output equals uninterrupted output" means identical
    /// bytes, not merely close values.
    #[must_use]
    pub fn bits_eq(&self, other: &Self) -> bool {
        let track_eq = |a: &TrackBox, b: &TrackBox| {
            a.track_id == b.track_id
                && a.bbox.x.to_bits() == b.bbox.x.to_bits()
                && a.bbox.y.to_bits() == b.bbox.y.to_bits()
                && a.bbox.w.to_bits() == b.bbox.w.to_bits()
                && a.bbox.h.to_bits() == b.bbox.h.to_bits()
                && a.velocity.0.to_bits() == b.velocity.0.to_bits()
                && a.velocity.1.to_bits() == b.velocity.1.to_bits()
                && a.occluded == b.occluded
        };
        self.index == other.index
            && self.t_start == other.t_start
            && self.duration == other.duration
            && self.num_proposals == other.num_proposals
            && self.num_events == other.num_events
            && self.tracks.len() == other.tracks.len()
            && self.tracks.iter().zip(&other.tracks).all(|(a, b)| track_eq(a, b))
    }
}

/// Aggregated per-block operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineOps {
    /// EBBI creation (memory writes of Eq. 1).
    pub ebbi: OpsCounter,
    /// Median filtering (Eq. 1).
    pub median: OpsCounter,
    /// Region proposal (Eq. 5), including ROE filtering.
    pub rpn: OpsCounter,
    /// Tracker back-end (Eqs. 6–8).
    pub tracker: OpsCounter,
}

impl PipelineOps {
    /// Total across all blocks.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.ebbi.total() + self.median.total() + self.rpn.total() + self.tracker.total()
    }
}

/// A tracking pipeline: the shared front-end plus one tracker back-end.
#[derive(Debug, Clone)]
pub struct Pipeline<T: Tracker = BoxedTracker> {
    config: EbbiotConfig,
    /// `None` for event-domain back-ends, which bypass the frame
    /// front-end entirely (and pay none of its cost).
    frontend: Option<FrontEnd>,
    tracker: T,
    frames_processed: usize,
    next_index: usize,
    /// Running sum of active tracker counts, for the mean-`NT` statistic.
    active_tracker_sum: u64,
    /// Streaming state: events of the currently open window.
    pending: Vec<Event>,
    /// Streaming state: timestamp of the last pushed event, for the
    /// cross-chunk ordering check.
    last_pushed_t: Option<Timestamp>,
    /// Opt-in per-stage duration telemetry (`None` = record nothing).
    telemetry: Option<StageTelemetry>,
}

/// The EBBIOT pipeline of the paper: shared front-end + overlap tracker.
pub type EbbiotPipeline = Pipeline<OverlapTracker>;

/// A type-erased pipeline, as built by the back-end registry.
pub type DynPipeline = Pipeline<BoxedTracker>;

// Pipelines move into engine worker threads — keep them `Send` (checked
// at compile time so a non-`Send` field can never sneak in).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EbbiotPipeline>();
    assert_send::<DynPipeline>();
};

impl EbbiotPipeline {
    /// Builds the paper's pipeline from a configuration.
    #[must_use]
    pub fn new(config: EbbiotConfig) -> Self {
        let tracker = OverlapTracker::new(config.geometry, config.ot);
        Pipeline::with_tracker(config, tracker)
    }
}

impl<T: Tracker> Pipeline<T> {
    /// Composes a pipeline from a configuration and a tracker back-end.
    ///
    /// The front-end is only instantiated (and only costs memory and
    /// compute) for back-ends consuming [`TrackerInput::Proposals`].
    #[must_use]
    pub fn with_tracker(config: EbbiotConfig, tracker: T) -> Self {
        let frontend = match tracker.input() {
            TrackerInput::Proposals => Some(FrontEnd::new(&config)),
            TrackerInput::Events => None,
        };
        Self {
            frontend,
            tracker,
            frames_processed: 0,
            next_index: 0,
            active_tracker_sum: 0,
            pending: Vec::new(),
            last_pushed_t: None,
            telemetry: None,
            config,
        }
    }

    /// Attaches (or detaches) per-stage duration telemetry, covering the
    /// front-end blocks and the tracker step. Observation-only: results
    /// are bit-identical with or without it (the determinism suites
    /// assert this), and `None` costs one branch per stage.
    pub fn set_stage_telemetry(&mut self, telemetry: Option<StageTelemetry>) {
        if let Some(frontend) = &mut self.frontend {
            frontend.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Builder form of [`Self::set_stage_telemetry`].
    #[must_use]
    pub fn with_stage_telemetry(mut self, telemetry: StageTelemetry) -> Self {
        self.set_stage_telemetry(Some(telemetry));
        self
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &EbbiotConfig {
        &self.config
    }

    /// The tracker back-end.
    #[must_use]
    pub const fn tracker(&self) -> &T {
        &self.tracker
    }

    /// The shared front-end (`None` for event-domain back-ends).
    #[must_use]
    pub const fn frontend(&self) -> Option<&FrontEnd> {
        self.frontend.as_ref()
    }

    /// The back-end's registry name.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.tracker.name()
    }

    /// Processes one frame's worth of events (the window `[k tF, (k+1) tF)`
    /// as read out at the interrupt).
    pub fn process_frame(&mut self, events: &[Event]) -> FrameResult {
        let index = self.next_index;
        self.next_index += 1;
        let t_start = index as u64 * self.config.frame_us;

        let proposals: &[BoundingBox] = match &mut self.frontend {
            Some(frontend) => frontend.process(events),
            None => &[],
        };
        let input =
            FrameInput { index, t_start, duration: self.config.frame_us, events, proposals };
        let tracks = match &self.telemetry {
            Some(t) => timed(&t.tracker, || self.tracker.step(&input)),
            None => self.tracker.step(&input),
        };
        self.active_tracker_sum += self.tracker.active_count() as u64;
        self.frames_processed += 1;

        FrameResult {
            index,
            t_start,
            duration: self.config.frame_us,
            tracks,
            num_proposals: proposals.len(),
            num_events: events.len(),
        }
    }

    /// Processes a whole recording: [`Self::push`]es it in one chunk,
    /// then [`Self::finish`]es over at least `span_us` so trailing silent
    /// frames still advance the tracker. Returns one result per frame.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::push`]: on events out of time order, or on an
    /// event in a window this pipeline already emitted.
    pub fn process_recording(&mut self, events: &[Event], span_us: Micros) -> Vec<FrameResult> {
        let mut frames = self.push(events);
        frames.extend(self.finish(span_us));
        frames
    }

    /// Streams a time-ordered chunk of events into the pipeline,
    /// returning the frames completed by this chunk.
    ///
    /// Events may be split across `push` calls at arbitrary points; a
    /// frame is emitted as soon as an event at or past its window's end
    /// arrives. Together with [`Self::finish`], a chunked stream produces
    /// exactly the same `FrameResult` sequence as
    /// [`Self::process_recording`] over the concatenated events — without
    /// ever holding more than one window of events in memory.
    ///
    /// ```
    /// use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    /// use ebbiot_events::{Event, SensorGeometry};
    ///
    /// let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    /// let events: Vec<Event> = (0..200_000)
    ///     .step_by(1_000)
    ///     .map(|t| Event::on(60 + (t / 10_000) as u16, 80, t))
    ///     .collect();
    ///
    /// // Stream in arbitrary chunks…
    /// let mut streamed = Vec::new();
    /// let mut pipeline = EbbiotPipeline::new(config.clone());
    /// for chunk in events.chunks(7) {
    ///     streamed.extend(pipeline.push(chunk));
    /// }
    /// streamed.extend(pipeline.finish(250_000));
    ///
    /// // …and get bit-for-bit what the batch path produces.
    /// let batch = EbbiotPipeline::new(config).process_recording(&events, 250_000);
    /// assert_eq!(streamed, batch);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when events are not time-ordered (within the chunk or
    /// relative to previous pushes), or when an event belongs to a window
    /// already emitted.
    pub fn push(&mut self, chunk: &[Event]) -> Vec<FrameResult> {
        window::push(self, chunk)
    }

    /// Ends the stream, emitting the still-open window and trailing empty
    /// frames so that at least `span_us` of time is covered — the
    /// streaming counterpart of [`Self::process_recording`]'s `span_us`.
    ///
    /// ```
    /// use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    /// use ebbiot_events::{Event, SensorGeometry};
    ///
    /// let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    /// let mut pipeline = EbbiotPipeline::new(config.clone());
    /// assert!(pipeline.push(&[Event::on(10, 10, 5)]).is_empty(), "window still open");
    ///
    /// // Finishing emits the open window plus trailing silent frames
    /// // out to the requested span (here 3 x 66 ms paper frames).
    /// let frames = pipeline.finish(3 * config.frame_us);
    /// assert_eq!(frames.len(), 3);
    /// assert_eq!(frames[0].num_events, 1);
    /// assert_eq!(frames[2].num_events, 0);
    /// ```
    pub fn finish(&mut self, span_us: Micros) -> Vec<FrameResult> {
        window::finish(self, span_us)
    }

    /// Per-block op counters accumulated so far.
    #[must_use]
    pub fn ops(&self) -> PipelineOps {
        let front = self.frontend.as_ref().map(FrontEnd::ops).unwrap_or_default();
        PipelineOps {
            ebbi: front.ebbi,
            median: front.median,
            rpn: front.rpn,
            tracker: self.tracker.ops(),
        }
    }

    /// Mean ops/frame per block since construction (or the last reset).
    #[must_use]
    pub fn ops_per_frame(&self) -> Option<PipelineOps> {
        if self.frames_processed == 0 {
            return None;
        }
        let n = self.frames_processed as u64;
        let ops = self.ops();
        let divide = |c: OpsCounter| OpsCounter {
            comparisons: c.comparisons / n,
            additions: c.additions / n,
            multiplications: c.multiplications / n,
            mem_writes: c.mem_writes / n,
        };
        Some(PipelineOps {
            ebbi: divide(ops.ebbi),
            median: divide(ops.median),
            rpn: divide(ops.rpn),
            tracker: divide(ops.tracker),
        })
    }

    /// Frames processed so far.
    #[must_use]
    pub const fn frames_processed(&self) -> usize {
        self.frames_processed
    }

    /// Number of currently active (confirmed or provisional) trackers —
    /// the live `NT` statistic surfaced per stream by the engine's
    /// snapshots.
    #[must_use]
    pub fn active_trackers(&self) -> usize {
        self.tracker.active_count()
    }

    /// Type-erases the back-end, turning any concrete pipeline into the
    /// [`DynPipeline`] shape the registry hands out and `ebbiot_server`
    /// session factories return. All streaming state is preserved —
    /// boxing mid-stream is safe.
    #[must_use]
    pub fn boxed(self) -> DynPipeline
    where
        T: Send + 'static,
    {
        Pipeline {
            config: self.config,
            frontend: self.frontend,
            tracker: Box::new(self.tracker),
            frames_processed: self.frames_processed,
            next_index: self.next_index,
            active_tracker_sum: self.active_tracker_sum,
            pending: self.pending,
            last_pushed_t: self.last_pushed_t,
            telemetry: self.telemetry,
        }
    }

    /// Mean number of active trackers per frame (the paper's `NT ≈ 2`).
    #[must_use]
    pub fn mean_active_trackers(&self) -> f64 {
        if self.frames_processed == 0 {
            0.0
        } else {
            self.active_tracker_sum as f64 / self.frames_processed as f64
        }
    }

    /// Captures the session's complete mutable state between two `push`
    /// calls: frame cursors, the buffered (not yet flushed) window
    /// events, the push watermark, the raw front-end ops counters and
    /// the tracker's serialized state.
    ///
    /// The front end carries no frame state *between* frames (every
    /// readout clears the accumulator), so this checkpoint is total:
    /// [`Pipeline::restore`] followed by pushing the remaining events
    /// yields output bit-identical to the uninterrupted run —
    /// `tests/checkpoint_parity.rs` proves it for every registered
    /// back-end, chunk size and checkpoint position. Telemetry handles
    /// are observation-only and deliberately not captured.
    #[must_use]
    pub fn checkpoint(&self) -> crate::SessionState {
        crate::SessionState {
            backend: self.tracker.name().to_string(),
            frames_processed: self.frames_processed as u64,
            next_index: self.next_index as u64,
            active_tracker_sum: self.active_tracker_sum,
            pending: self.pending.clone(),
            last_pushed_t: self.last_pushed_t,
            frontend_ops: self.frontend.as_ref().map(FrontEnd::raw_ops),
            tracker: self.tracker.save_state(),
        }
    }

    /// Rebuilds a pipeline from a configuration, a freshly constructed
    /// tracker of the same back-end, and a [`checkpoint`](Self::checkpoint)
    /// (possibly round-tripped through the on-disk `EBSS` form). The
    /// registry offers `restore_pipeline` for the type-erased case where
    /// the back-end is looked up from `state.backend`.
    ///
    /// # Errors
    ///
    /// [`StateError::BackendMismatch`](crate::StateError) when `tracker`
    /// is not the back-end that saved the state, or any
    /// [`StateError`](crate::StateError) from decoding the tracker blob.
    pub fn restore(
        config: EbbiotConfig,
        tracker: T,
        state: &crate::SessionState,
    ) -> Result<Self, crate::StateError> {
        if tracker.name() != state.backend {
            return Err(crate::StateError::BackendMismatch {
                expected: tracker.name().to_string(),
                found: state.backend.clone(),
            });
        }
        let mut pipeline = Self::with_tracker(config, tracker);
        pipeline.tracker.load_state(&state.tracker)?;
        match (&mut pipeline.frontend, &state.frontend_ops) {
            (Some(frontend), Some(ops)) => frontend.restore_raw_ops(ops),
            (None, None) => {}
            _ => return Err(crate::StateError::Invalid("front-end presence mismatch")),
        }
        pipeline.frames_processed = usize::try_from(state.frames_processed)
            .map_err(|_| crate::StateError::Invalid("frame counter exceeds usize"))?;
        pipeline.next_index = usize::try_from(state.next_index)
            .map_err(|_| crate::StateError::Invalid("window cursor exceeds usize"))?;
        pipeline.active_tracker_sum = state.active_tracker_sum;
        pipeline.pending = state.pending.clone();
        pipeline.last_pushed_t = state.last_pushed_t;
        Ok(pipeline)
    }

    /// Resets tracker state, streaming state and counters for a new
    /// recording (keeps the configuration).
    pub fn reset(&mut self) {
        if let Some(frontend) = &mut self.frontend {
            frontend.reset();
        }
        self.tracker.reset();
        self.tracker.reset_ops();
        self.frames_processed = 0;
        self.next_index = 0;
        self.active_tracker_sum = 0;
        self.pending.clear();
        self.last_pushed_t = None;
    }
}

impl<T: Tracker> WindowedStream for Pipeline<T> {
    type Frame = FrameResult;

    fn frame_us(&self) -> Micros {
        self.config.frame_us
    }

    fn frames_emitted(&self) -> usize {
        self.next_index
    }

    fn push_state(&mut self) -> (&mut Vec<Event>, &mut Option<Timestamp>) {
        (&mut self.pending, &mut self.last_pushed_t)
    }

    fn process_window(&mut self, events: &[Event]) -> FrameResult {
        self.process_frame(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::SensorGeometry;
    use ebbiot_frame::BoundingBox;

    fn pipeline() -> EbbiotPipeline {
        EbbiotPipeline::new(EbbiotConfig::paper_default(SensorGeometry::davis240()))
    }

    /// Events forming a dense block at the given position (one event per
    /// pixel, which survives the median filter).
    fn block_events(x0: u16, y0: u16, w: u16, h: u16, t0: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for dy in 0..h {
            for dx in 0..w {
                events.push(Event::on(x0 + dx, y0 + dy, t0 + u64::from(dy) * 10));
            }
        }
        events
    }

    #[test]
    fn empty_frames_produce_empty_results() {
        let mut p = pipeline();
        let r = p.process_frame(&[]);
        assert_eq!(r.index, 0);
        assert_eq!(r.num_proposals, 0);
        assert!(r.tracks.is_empty());
    }

    #[test]
    fn solid_object_is_tracked_after_confirmation() {
        let mut p = pipeline();
        let r0 = p.process_frame(&block_events(60, 90, 30, 15, 0));
        assert_eq!(r0.num_proposals, 1);
        assert!(r0.tracks.is_empty(), "provisional on frame 0");
        let r1 = p.process_frame(&block_events(63, 90, 30, 15, 66_000));
        assert_eq!(r1.tracks.len(), 1);
        let tb = &r1.tracks[0];
        assert!(tb.bbox.intersection(&BoundingBox::new(60.0, 90.0, 36.0, 18.0)).is_some());
    }

    #[test]
    fn frame_indices_and_times_advance() {
        let mut p = pipeline();
        let r0 = p.process_frame(&[]);
        let r1 = p.process_frame(&[]);
        assert_eq!((r0.index, r1.index), (0, 1));
        assert_eq!(r1.t_start, 66_000);
        assert_eq!(r1.duration, 66_000);
    }

    #[test]
    fn isolated_noise_is_removed_before_rpn() {
        let mut p = pipeline();
        // 40 isolated single-pixel events scattered on a grid: all median
        // filtered away.
        let mut events = Vec::new();
        for k in 0..40u16 {
            events.push(Event::on(10 + (k % 8) * 25, 10 + (k / 8) * 30, u64::from(k)));
        }
        let r = p.process_frame(&events);
        assert_eq!(r.num_proposals, 0, "salt noise produces no proposals");
    }

    #[test]
    fn roe_blocks_distractor_regions() {
        let roe = crate::RegionOfExclusion::new(vec![BoundingBox::new(0.0, 0.0, 60.0, 60.0)]);
        let cfg = EbbiotConfig::paper_default(SensorGeometry::davis240()).with_roe(roe);
        let mut p = EbbiotPipeline::new(cfg);
        // A solid block inside the ROE...
        let r = p.process_frame(&block_events(10, 10, 30, 20, 0));
        assert_eq!(r.num_proposals, 0, "flickering tree masked");
        // ...and one outside it.
        let r = p.process_frame(&block_events(120, 90, 30, 20, 66_000));
        assert_eq!(r.num_proposals, 1);
    }

    #[test]
    fn process_recording_spans_silence() {
        let mut p = pipeline();
        // Events only in the first frame, but a 1-second span: 16 frames.
        let events = block_events(60, 90, 20, 12, 100);
        let results = p.process_recording(&events, 1_000_000);
        assert_eq!(results.len(), 16);
        assert!(results[0].num_events > 0);
        assert!(results[5].num_events == 0);
    }

    #[test]
    fn ops_accumulate_and_average() {
        let mut p = pipeline();
        assert!(p.ops_per_frame().is_none());
        let _ = p.process_frame(&block_events(60, 90, 30, 15, 0));
        let _ = p.process_frame(&block_events(63, 90, 30, 15, 66_000));
        let per_frame = p.ops_per_frame().unwrap();
        // Median filter dominates: ~A*B comparisons + patch additions.
        assert!(per_frame.median.total() > 43_200);
        // RPN is within the Eq. 5 order (~48 k).
        assert!(per_frame.rpn.total() > 40_000 && per_frame.rpn.total() < 70_000);
        // Tracker is tiny compared to the frame blocks (C_OT ~ 564).
        assert!(per_frame.tracker.total() < 2_000);
        // EBBI + median + RPN together land near the paper's ~171 k
        // total; our op bookkeeping is slightly leaner, so assert the
        // order of magnitude.
        assert!(per_frame.total() > 90_000);
    }

    #[test]
    fn mean_active_trackers_reflects_scene() {
        let mut p = pipeline();
        for k in 0..10 {
            let x = 40 + k * 3;
            let _ = p.process_frame(&block_events(x, 90, 30, 15, u64::from(k) * 66_000));
        }
        let mean = p.mean_active_trackers();
        assert!(mean > 0.8 && mean <= 1.2, "one object tracked, mean {mean}");
    }

    #[test]
    fn reset_starts_a_fresh_recording() {
        let mut p = pipeline();
        let _ = p.process_frame(&block_events(60, 90, 30, 15, 0));
        p.reset();
        assert_eq!(p.frames_processed(), 0);
        let r = p.process_frame(&[]);
        assert_eq!(r.index, 0);
        assert!(r.tracks.is_empty());
    }

    #[test]
    fn two_objects_two_confirmed_tracks() {
        let mut p = pipeline();
        let mut last = None;
        for k in 0..4u16 {
            let mut events = block_events(40 + k * 3, 60, 30, 15, u64::from(k) * 66_000);
            events.extend(block_events(170 - k * 3, 120, 30, 15, u64::from(k) * 66_000 + 10));
            ebbiot_events::stream::sort_by_time(&mut events);
            last = Some(p.process_frame(&events));
        }
        let last = last.unwrap();
        assert_eq!(last.tracks.len(), 2);
        // Opposite velocities.
        let vx: Vec<f32> = last.tracks.iter().map(|t| t.velocity.0).collect();
        assert!(vx[0] * vx[1] < 0.0, "got {vx:?}");
    }

    // -- streaming ---------------------------------------------------

    /// A multi-frame recording with motion, silence gaps and a trailing
    /// silent stretch.
    fn streaming_fixture() -> Vec<Event> {
        let mut events = Vec::new();
        for k in 0..6u16 {
            if k == 3 {
                continue; // one silent frame in the middle
            }
            events.extend(block_events(40 + k * 4, 90, 30, 15, u64::from(k) * 66_000));
        }
        ebbiot_events::stream::sort_by_time(&mut events);
        events
    }

    #[test]
    fn chunked_push_matches_process_recording() {
        let events = streaming_fixture();
        let span = 8 * 66_000;

        let mut batch = pipeline();
        let expected = batch.process_recording(&events, span);

        for chunk_size in [1usize, 7, 97, 1000, events.len() + 1] {
            let mut streaming = pipeline();
            let mut got = Vec::new();
            for chunk in events.chunks(chunk_size) {
                got.extend(streaming.push(chunk));
            }
            got.extend(streaming.finish(span));
            assert_eq!(got, expected, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn stage_telemetry_is_observation_only() {
        let events = streaming_fixture();
        let span = 8 * 66_000;
        let expected = pipeline().process_recording(&events, span);

        let registry = ebbiot_telemetry::Registry::new();
        let telemetry = StageTelemetry::register(&registry);
        let mut instrumented = pipeline().with_stage_telemetry(telemetry.clone());
        let got = instrumented.process_recording(&events, span);

        assert_eq!(got, expected, "telemetry must not change any result");
        let frames = got.len() as u64;
        assert_eq!(telemetry.frames_observed(), frames);
        for (label, histogram) in telemetry.stages() {
            assert_eq!(histogram.count(), frames, "stage {label} runs once per frame");
        }
    }

    #[test]
    fn push_emits_frames_at_window_boundaries() {
        let mut p = pipeline();
        // All of frame 0, then one event in frame 2: frames 0 and 1 are
        // emitted, frame 2 stays open.
        let mut chunk = block_events(60, 90, 30, 15, 0);
        chunk.push(Event::on(10, 10, 2 * 66_000 + 5));
        let emitted = p.push(&chunk);
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].index, 0);
        assert!(emitted[0].num_events > 0);
        assert_eq!(emitted[1].num_events, 0);
        // finish() closes the open frame.
        let rest = p.finish(0);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].index, 2);
        assert_eq!(rest[0].num_events, 1);
    }

    #[test]
    fn finish_pads_to_span() {
        let mut p = pipeline();
        let _ = p.push(&block_events(60, 90, 30, 15, 0));
        let frames = p.finish(10 * 66_000);
        assert_eq!(frames.len(), 10);
        assert!(frames[1..].iter().all(|f| f.num_events == 0));
    }

    #[test]
    fn finish_without_events_and_span_is_empty() {
        let mut p = pipeline();
        assert!(p.finish(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_pushes_panic() {
        let mut p = pipeline();
        let _ = p.push(&[Event::on(10, 10, 70_000)]);
        let _ = p.push(&[Event::on(10, 10, 69_000)]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn a_chunk_out_of_order_within_itself_panics() {
        let mut p = pipeline();
        let _ = p.push(&[Event::on(10, 10, 70_000), Event::on(11, 10, 69_000)]);
    }

    #[test]
    #[should_panic(expected = "already-emitted frame")]
    fn an_event_for_a_frame_emitted_by_finish_panics() {
        let mut p = pipeline();
        let _ = p.push(&[Event::on(10, 10, 5)]);
        assert_eq!(p.finish(3 * 66_000).len(), 3);
        // `finish` clears the ordering watermark, but frame 1 is gone.
        let _ = p.push(&[Event::on(10, 10, 100_000)]);
    }

    /// Events in frames 0, 1, 4 and 9 only, with one on each side of a
    /// window boundary and one exactly on it.
    fn gappy_events() -> Vec<Event> {
        let mut events = block_events(60, 90, 30, 15, 0);
        events.push(Event::on(10, 10, 2 * 66_000 - 1));
        events.extend(block_events(70, 90, 30, 15, 4 * 66_000));
        events.push(Event::on(200, 20, 9 * 66_000 + 7));
        ebbiot_events::stream::sort_by_time(&mut events);
        events
    }

    #[test]
    fn one_chunk_spanning_silent_windows_matches_process_recording() {
        let events = gappy_events();
        let span = 12 * 66_000;
        let expected = pipeline().process_recording(&events, span);
        let mut p = pipeline();
        let pushed = p.push(&events);
        // The event in frame 9 closes frames 0..=8, silent ones included.
        assert_eq!(pushed.iter().map(|f| f.index).collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
        let counts: Vec<usize> = pushed.iter().map(|f| f.num_events).collect();
        assert_eq!(counts, [450, 1, 0, 0, 450, 0, 0, 0, 0]);
        let mut got = pushed;
        got.extend(p.finish(span));
        assert_eq!(got, expected);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let events = streaming_fixture();
        let span = 8 * 66_000;
        let expected = pipeline().process_recording(&events, span);

        // Cut at an arbitrary event index (not a frame boundary): the
        // pending window rides along in the checkpoint.
        for cut in [0, 1, events.len() / 3, events.len() - 1, events.len()] {
            let mut first = pipeline();
            let mut got = first.push(&events[..cut]);
            let state = first.checkpoint();
            drop(first);

            let tracker = OverlapTracker::new(
                SensorGeometry::davis240(),
                EbbiotConfig::paper_default(SensorGeometry::davis240()).ot,
            );
            let mut resumed = Pipeline::restore(
                EbbiotConfig::paper_default(SensorGeometry::davis240()),
                tracker,
                &state,
            )
            .unwrap();
            got.extend(resumed.push(&events[cut..]));
            got.extend(resumed.finish(span));
            assert_eq!(got, expected, "cut at event {cut}");
            assert!(
                got.iter().zip(&expected).all(|(a, b)| a.bits_eq(b)),
                "bit-pattern divergence at cut {cut}"
            );
        }
    }

    #[test]
    fn restore_rejects_wrong_backend_and_hostile_tracker_bytes() {
        let state = pipeline().checkpoint();
        let mut wrong = state.clone();
        wrong.backend = "ebbi-kf".into();
        let cfg = EbbiotConfig::paper_default(SensorGeometry::davis240());
        let tracker = OverlapTracker::new(SensorGeometry::davis240(), cfg.ot);
        let err = Pipeline::restore(cfg.clone(), tracker, &wrong).unwrap_err();
        assert!(matches!(err, crate::StateError::BackendMismatch { .. }), "{err}");

        let mut truncated = state.clone();
        truncated.tracker.pop();
        let tracker = OverlapTracker::new(SensorGeometry::davis240(), cfg.ot);
        let err = Pipeline::restore(cfg, tracker, &truncated).unwrap_err();
        assert_eq!(err, crate::StateError::Truncated);
    }

    #[test]
    fn streaming_keeps_at_most_one_window_buffered() {
        let mut p = pipeline();
        let events = streaming_fixture();
        for chunk in events.chunks(64) {
            let _ = p.push(chunk);
            assert!(
                p.pending.len() <= 64 + 30 * 15,
                "pending window stays bounded, got {}",
                p.pending.len()
            );
        }
    }
}
