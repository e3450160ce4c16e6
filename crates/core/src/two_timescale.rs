//! Two-timescale extension (the paper's conclusion).
//!
//! "We have not tracked slow and small objects like humans — this can be
//! done by a two time scale approach where a second frame is generated
//! with longer exposure times to capture activity of humans."
//!
//! [`TwoTimescalePipeline`] runs the standard fast pipeline at `tF` and a
//! second EBBIOT instance whose EBBI integrates the last `slow_factor`
//! fast frames, re-evaluated every `slow_stride` fast frames (a *sliding*
//! long exposure). Slow movers that leave only a pixel-wide strip per fast
//! frame accumulate a solid silhouette over the long exposure; the sliding
//! stride keeps consecutive slow frames overlapping, which the overlap
//! tracker's matching rule requires. Fast-tracker boxes suppress duplicate
//! slow-tracker boxes covering the same object.

use std::collections::VecDeque;

use ebbiot_events::{Event, Micros, Timestamp};

use crate::{
    config::EbbiotConfig,
    pipeline::{EbbiotPipeline, FrameResult, Pipeline, TrackBox},
    tracker::OverlapTracker,
    window::{self, WindowedStream},
};

/// Configuration of the two-timescale extension.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoTimescaleConfig {
    /// The fast (vehicle) pipeline configuration.
    pub fast: EbbiotConfig,
    /// How many fast frames one slow exposure spans (e.g. 8 -> 528 ms for
    /// the paper's 66 ms `tF`).
    pub slow_factor: usize,
    /// How many fast frames between slow re-evaluations. Must not exceed
    /// `slow_factor`; values below it give overlapping (sliding)
    /// exposures.
    pub slow_stride: usize,
    /// IoU above which a slow track duplicating a fast track is dropped.
    pub dedup_iou: f32,
}

impl TwoTimescaleConfig {
    /// Default: 8x exposure sliding by 4 fast frames, dedup at IoU 0.3.
    #[must_use]
    pub fn paper_extension(fast: EbbiotConfig) -> Self {
        Self { fast, slow_factor: 8, slow_stride: 4, dedup_iou: 0.3 }
    }
}

/// Combined fast/slow tracking output for one fast frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoTimescaleResult {
    /// The fast pipeline's result for this frame.
    pub fast: FrameResult,
    /// Slow-timescale tracks (updated every `slow_stride` frames, held in
    /// between), deduplicated against fast tracks.
    pub slow_tracks: Vec<TrackBox>,
}

/// The two-timescale pipeline: a thin composition of two
/// [`EbbiotPipeline`]s (both sharing the front-end definition of
/// [`crate::frontend::FrontEnd`]) plus cross-timescale deduplication.
#[derive(Debug, Clone)]
pub struct TwoTimescalePipeline {
    config: TwoTimescaleConfig,
    fast: EbbiotPipeline,
    slow: EbbiotPipeline,
    /// Ring of the last `slow_factor` fast windows' events.
    recent_windows: VecDeque<Vec<Event>>,
    frames_since_slow: usize,
    held_slow_tracks: Vec<TrackBox>,
    /// Streaming state: events of the currently open fast window.
    pending: Vec<Event>,
    /// Streaming state: timestamp of the last pushed event.
    last_pushed_t: Option<Timestamp>,
}

impl TwoTimescalePipeline {
    /// Builds the combined pipeline.
    ///
    /// # Panics
    ///
    /// Panics when `slow_factor` or `slow_stride` is zero, or the stride
    /// exceeds the factor.
    #[must_use]
    pub fn new(config: TwoTimescaleConfig) -> Self {
        assert!(config.slow_factor > 0, "slow factor must be non-zero");
        assert!(
            config.slow_stride > 0 && config.slow_stride <= config.slow_factor,
            "slow stride must be in 1..=slow_factor"
        );
        let mut slow_cfg = config.fast.clone();
        slow_cfg.frame_us = config.fast.frame_us * config.slow_stride as Micros;
        // Slow objects are small: accept smaller proposals.
        slow_cfg.rpn.min_area = (slow_cfg.rpn.min_area / 2.0).max(1.0);
        Self {
            fast: EbbiotPipeline::new(config.fast.clone()),
            slow: EbbiotPipeline::new(slow_cfg),
            recent_windows: VecDeque::with_capacity(config.slow_factor),
            frames_since_slow: 0,
            held_slow_tracks: Vec::new(),
            pending: Vec::new(),
            last_pushed_t: None,
            config,
        }
    }

    /// The slow exposure length in microseconds.
    #[must_use]
    pub fn slow_frame_us(&self) -> Micros {
        self.config.fast.frame_us * self.config.slow_factor as Micros
    }

    /// Processes one fast frame of events.
    pub fn process_frame(&mut self, events: &[Event]) -> TwoTimescaleResult {
        let fast_result = self.fast.process_frame(events);
        if self.recent_windows.len() == self.config.slow_factor {
            self.recent_windows.pop_front();
        }
        self.recent_windows.push_back(events.to_vec());
        self.frames_since_slow += 1;
        if self.frames_since_slow >= self.config.slow_stride
            && self.recent_windows.len() >= self.config.slow_factor.min(2)
        {
            let exposure: Vec<Event> =
                self.recent_windows.iter().flat_map(|w| w.iter().copied()).collect();
            let slow_result = self.slow.process_frame(&exposure);
            self.held_slow_tracks = slow_result.tracks;
            self.frames_since_slow = 0;
        }
        let slow_tracks = self.dedup(&fast_result.tracks);
        TwoTimescaleResult { fast: fast_result, slow_tracks }
    }

    /// Drops held slow tracks that duplicate a fast track.
    fn dedup(&self, fast_tracks: &[TrackBox]) -> Vec<TrackBox> {
        self.held_slow_tracks
            .iter()
            .filter(|s| !fast_tracks.iter().any(|f| f.bbox.iou(&s.bbox) > self.config.dedup_iou))
            .cloned()
            .collect()
    }

    /// Processes a whole recording: [`Self::push`] then [`Self::finish`]
    /// over at least `span_us`, one result per fast frame.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::push`].
    pub fn process_recording(
        &mut self,
        events: &[Event],
        span_us: Micros,
    ) -> Vec<TwoTimescaleResult> {
        let mut frames = self.push(events);
        frames.extend(self.finish(span_us));
        frames
    }

    /// Streams a time-ordered chunk of events, returning the fast-frame
    /// results completed by this chunk (same contract as
    /// [`crate::pipeline::Pipeline::push`]).
    ///
    /// The emitted-frame count is the fast pipeline's own frame counter,
    /// so interleaving [`Self::process_frame`] with `push`/`finish`
    /// stays consistent: a directly processed window counts as emitted.
    ///
    /// # Panics
    ///
    /// Panics when events are not time-ordered (within the chunk or
    /// across pushes), or when an event belongs to an already-emitted
    /// fast frame.
    pub fn push(&mut self, chunk: &[Event]) -> Vec<TwoTimescaleResult> {
        window::push(self, chunk)
    }

    /// Ends the stream, emitting the open fast window plus trailing empty
    /// frames covering at least `span_us`.
    pub fn finish(&mut self, span_us: Micros) -> Vec<TwoTimescaleResult> {
        window::finish(self, span_us)
    }

    /// Access to the underlying fast pipeline (ops, statistics).
    #[must_use]
    pub const fn fast_pipeline(&self) -> &EbbiotPipeline {
        &self.fast
    }

    /// Access to the underlying slow pipeline.
    #[must_use]
    pub const fn slow_pipeline(&self) -> &EbbiotPipeline {
        &self.slow
    }

    /// Captures the composite's complete mutable state: both
    /// sub-pipeline checkpoints plus the slow-path phase (window ring,
    /// stride position, held slow tracks) and the composite's own push
    /// buffer. [`Self::restore`] + pushing the remaining events is
    /// bit-identical to the uninterrupted run, even for checkpoints
    /// landing between a fast and a slow frame boundary — the
    /// two-timescale proptests in `crates/core/tests/proptests.rs`
    /// cover exactly that.
    #[must_use]
    pub fn checkpoint(&self) -> crate::TwoTimescaleState {
        crate::TwoTimescaleState {
            fast: self.fast.checkpoint(),
            slow: self.slow.checkpoint(),
            recent_windows: self.recent_windows.iter().cloned().collect(),
            frames_since_slow: self.frames_since_slow as u64,
            held_slow_tracks: self.held_slow_tracks.clone(),
            pending: self.pending.clone(),
            last_pushed_t: self.last_pushed_t,
        }
    }

    /// Rebuilds a two-timescale pipeline from a configuration and a
    /// [`checkpoint`](Self::checkpoint).
    ///
    /// # Errors
    ///
    /// Any [`StateError`](crate::StateError) from restoring either
    /// sub-pipeline, or [`StateError::Invalid`](crate::StateError) when
    /// the window ring exceeds `slow_factor`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid `config` (see [`Self::new`]).
    pub fn restore(
        config: TwoTimescaleConfig,
        state: &crate::TwoTimescaleState,
    ) -> Result<Self, crate::StateError> {
        let mut pipeline = Self::new(config);
        if state.recent_windows.len() > pipeline.config.slow_factor {
            return Err(crate::StateError::Invalid("window ring exceeds slow_factor"));
        }
        let fast_cfg = pipeline.fast.config().clone();
        let slow_cfg = pipeline.slow.config().clone();
        pipeline.fast = Pipeline::restore(
            fast_cfg,
            OverlapTracker::new(pipeline.config.fast.geometry, pipeline.config.fast.ot),
            &state.fast,
        )?;
        pipeline.slow = Pipeline::restore(
            slow_cfg,
            OverlapTracker::new(pipeline.config.fast.geometry, pipeline.config.fast.ot),
            &state.slow,
        )?;
        pipeline.recent_windows = state.recent_windows.iter().cloned().collect();
        pipeline.frames_since_slow = usize::try_from(state.frames_since_slow)
            .map_err(|_| crate::StateError::Invalid("stride phase exceeds usize"))?;
        pipeline.held_slow_tracks = state.held_slow_tracks.clone();
        pipeline.pending = state.pending.clone();
        pipeline.last_pushed_t = state.last_pushed_t;
        Ok(pipeline)
    }

    /// Resets both sub-pipelines and all composite state (window ring,
    /// stride phase, held tracks, push buffer) for a new recording,
    /// keeping the configuration — the composite counterpart of
    /// [`Pipeline::reset`](crate::Pipeline::reset).
    pub fn reset(&mut self) {
        self.fast.reset();
        self.slow.reset();
        self.recent_windows.clear();
        self.frames_since_slow = 0;
        self.held_slow_tracks.clear();
        self.pending.clear();
        self.last_pushed_t = None;
    }
}

impl WindowedStream for TwoTimescalePipeline {
    type Frame = TwoTimescaleResult;

    fn frame_us(&self) -> Micros {
        self.config.fast.frame_us
    }

    /// Fast frames emitted so far, by either drive path — the fast
    /// pipeline's counter is the single authority.
    fn frames_emitted(&self) -> usize {
        self.fast.frames_processed()
    }

    fn push_state(&mut self) -> (&mut Vec<Event>, &mut Option<Timestamp>) {
        (&mut self.pending, &mut self.last_pushed_t)
    }

    fn process_window(&mut self, events: &[Event]) -> TwoTimescaleResult {
        self.process_frame(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::SensorGeometry;

    fn config() -> TwoTimescaleConfig {
        TwoTimescaleConfig::paper_extension(EbbiotConfig::paper_default(SensorGeometry::davis240()))
    }

    /// A slow walker: per fast frame it only paints a 1-px-wide strip
    /// (leading edge), which the 3x3 median erases (max patch count 3),
    /// but which accumulates into a solid silhouette over 8 frames.
    fn walker_strip(frame: usize) -> Vec<Event> {
        let x0 = 100 + frame as u16; // ~1 px/frame drift of the strip
        let t0 = frame as u64 * 66_000;
        (0..16u16).map(|dy| Event::on(x0, 80 + dy, t0 + u64::from(dy))).collect()
    }

    #[test]
    fn slow_frame_duration_is_multiplied() {
        let p = TwoTimescalePipeline::new(config());
        assert_eq!(p.slow_frame_us(), 528_000);
    }

    #[test]
    fn walker_invisible_to_fast_pipeline_alone() {
        let mut p = TwoTimescalePipeline::new(config());
        for k in 0..16 {
            let r = p.process_frame(&walker_strip(k));
            assert!(r.fast.tracks.is_empty(), "1x16 strip erased by the fast median");
        }
    }

    #[test]
    fn walker_tracked_at_slow_timescale() {
        let mut p = TwoTimescalePipeline::new(config());
        let mut frames_with_slow_track = 0;
        for k in 0..48 {
            let r = p.process_frame(&walker_strip(k));
            if !r.slow_tracks.is_empty() {
                frames_with_slow_track += 1;
                let b = &r.slow_tracks[0].bbox;
                assert!(b.x >= 90.0 && b.x_max() <= 160.0, "covers the walker, got {b}");
            }
        }
        assert!(
            frames_with_slow_track >= 16,
            "slow exposure accumulates the walker, got {frames_with_slow_track} frames"
        );
    }

    #[test]
    fn slow_tracks_update_at_the_stride() {
        let mut p = TwoTimescalePipeline::new(config());
        let mut changes = 0;
        let mut prev: Option<Vec<TrackBox>> = None;
        for k in 0..24 {
            let r = p.process_frame(&walker_strip(k));
            if let Some(prev_tracks) = &prev {
                if *prev_tracks != r.slow_tracks {
                    changes += 1;
                }
            }
            prev = Some(r.slow_tracks);
        }
        // 24 frames / stride 4 = 6 slow updates at most.
        assert!(changes <= 7, "slow output held between strides, changed {changes} times");
    }

    #[test]
    fn fast_tracks_suppress_duplicate_slow_tracks() {
        let mut p = TwoTimescalePipeline::new(config());
        // A solid fast-moving block: tracked by the fast pipeline AND
        // visible to the slow one.
        for k in 0..17 {
            let x0 = 60 + k as u16 * 3;
            let mut events = Vec::new();
            for dy in 0..15u16 {
                for dx in 0..30u16 {
                    events.push(Event::on(x0 + dx, 90 + dy, k as u64 * 66_000 + u64::from(dy)));
                }
            }
            let r = p.process_frame(&events);
            if !r.fast.tracks.is_empty() {
                // Any slow track must not duplicate the fast one.
                for s in &r.slow_tracks {
                    assert!(s.bbox.iou(&r.fast.tracks[0].bbox) <= 0.3);
                }
            }
        }
    }

    #[test]
    fn chunked_push_matches_process_recording() {
        let mut events: Vec<Event> = (0..16).flat_map(walker_strip).collect();
        ebbiot_events::stream::sort_by_time(&mut events);
        let span = 16 * 66_000;

        let mut batch = TwoTimescalePipeline::new(config());
        let expected = batch.process_recording(&events, span);

        let mut streaming = TwoTimescalePipeline::new(config());
        let mut got = Vec::new();
        for chunk in events.chunks(13) {
            got.extend(streaming.push(chunk));
        }
        got.extend(streaming.finish(span));
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn a_chunk_out_of_order_within_itself_panics() {
        let mut p = TwoTimescalePipeline::new(config());
        let _ = p.push(&[Event::on(10, 10, 70_000), Event::on(11, 10, 69_000)]);
    }

    #[test]
    #[should_panic(expected = "already-emitted frame")]
    fn an_event_for_a_frame_emitted_by_finish_panics() {
        let mut p = TwoTimescalePipeline::new(config());
        let _ = p.push(&walker_strip(0));
        assert_eq!(p.finish(3 * 66_000).len(), 3);
        let _ = p.push(&[Event::on(10, 10, 100_000)]);
    }

    #[test]
    fn one_chunk_spanning_silent_windows_matches_process_recording() {
        // The walker shows up in frames 0-2, 5 and 11; the rest is silence.
        let mut events: Vec<Event> = [0, 1, 2, 5, 11].into_iter().flat_map(walker_strip).collect();
        ebbiot_events::stream::sort_by_time(&mut events);
        let span = 14 * 66_000;
        let expected = TwoTimescalePipeline::new(config()).process_recording(&events, span);
        let mut p = TwoTimescalePipeline::new(config());
        let pushed = p.push(&events);
        let counts: Vec<usize> = pushed.iter().map(|r| r.fast.num_events).collect();
        assert_eq!(counts, [16, 16, 16, 0, 0, 16, 0, 0, 0, 0, 0]);
        let mut got = pushed;
        got.extend(p.finish(span));
        assert_eq!(got, expected);
    }

    #[test]
    fn process_frame_then_push_stays_aligned() {
        // Mixing the per-frame API with streaming must not shift or
        // duplicate windows: a directly processed frame counts as
        // emitted.
        let mut mixed = TwoTimescalePipeline::new(config());
        let r0 = mixed.process_frame(&walker_strip(0));
        assert_eq!(r0.fast.index, 0);
        let emitted = mixed.push(&walker_strip(1));
        assert!(emitted.is_empty(), "frame 1 still open");
        let rest = mixed.finish(0);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].fast.index, 1);
        assert_eq!(rest[0].fast.num_events, walker_strip(1).len());
    }

    #[test]
    fn checkpoint_between_fast_and_slow_boundaries_resumes_bit_identically() {
        let mut events: Vec<Event> = (0..16).flat_map(walker_strip).collect();
        ebbiot_events::stream::sort_by_time(&mut events);
        let span = 16 * 66_000;
        let expected = TwoTimescalePipeline::new(config()).process_recording(&events, span);

        // Cut mid-stride: after 5 fast frames' events (stride 4), the
        // slow phase is 1 frame into its next stride.
        let cut = events.iter().position(|e| e.t >= 5 * 66_000).unwrap();
        let mut first = TwoTimescalePipeline::new(config());
        let mut got = first.push(&events[..cut]);
        let state = first.checkpoint();
        drop(first);

        let mut resumed = TwoTimescalePipeline::restore(config(), &state).unwrap();
        got.extend(resumed.push(&events[cut..]));
        got.extend(resumed.finish(span));
        assert_eq!(got, expected);
    }

    #[test]
    fn reset_matches_a_fresh_composite() {
        let mut events: Vec<Event> = (0..12).flat_map(walker_strip).collect();
        ebbiot_events::stream::sort_by_time(&mut events);
        let span = 12 * 66_000;

        let mut reused = TwoTimescalePipeline::new(config());
        let _ = reused.process_recording(&events, span);
        reused.reset();
        let after_reset = reused.process_recording(&events, span);
        let fresh = TwoTimescalePipeline::new(config()).process_recording(&events, span);
        assert_eq!(after_reset, fresh);
    }

    #[test]
    #[should_panic(expected = "slow factor")]
    fn zero_slow_factor_panics() {
        let mut c = config();
        c.slow_factor = 0;
        let _ = TwoTimescalePipeline::new(c);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn oversized_stride_panics() {
        let mut c = config();
        c.slow_stride = c.slow_factor + 1;
        let _ = TwoTimescalePipeline::new(c);
    }
}
