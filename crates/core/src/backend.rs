//! The tracker back-end abstraction.
//!
//! The paper's central architectural claim is that one shared front-end
//! can feed interchangeable tracker back-ends at wildly different
//! resource costs. [`Tracker`] is that plug point: the generic
//! [`Pipeline`](crate::pipeline::Pipeline) drives any implementation —
//! the overlap tracker (EBBIOT), the Kalman filter (EBBI+KF), or the
//! event-domain mean-shift tracker (NN-filt+EBMS) — through the same
//! per-frame step, and the registry in `ebbiot_baselines` enumerates
//! them by name.

use ebbiot_events::{Event, Micros, OpsCounter, Timestamp};
use ebbiot_frame::BoundingBox;

use crate::pipeline::TrackBox;

/// Everything a back-end may consume when a frame closes.
///
/// Proposal-driven trackers read [`FrameInput::proposals`] (the ROE
/// filtered region proposals from the shared front-end); event-domain
/// trackers saw the window's events in [`Tracker::on_events`].
#[derive(Debug, Clone, Copy)]
pub struct FrameInput<'a> {
    /// Frame start timestamp (microseconds).
    pub t_start: Timestamp,
    /// Frame duration `tF` (microseconds).
    pub duration: Micros,
    /// Region proposals after ROE filtering (empty for event-domain
    /// back-ends, whose pipelines skip the frame front-end entirely).
    pub proposals: &'a [BoundingBox],
}

impl FrameInput<'_> {
    /// Frame end timestamp (exclusive) — the readout instant.
    #[must_use]
    pub const fn t_end(&self) -> Timestamp {
        self.t_start + self.duration
    }
}

/// What a back-end consumes, deciding whether the pipeline runs the
/// frame front-end at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerInput {
    /// Region proposals from the shared EBBI → median → RPN → ROE
    /// front-end.
    Proposals,
    /// Raw events, as they arrive (the back-end does its own
    /// event-domain filtering, e.g. NN-filt+EBMS).
    Events,
}

/// A tracker back-end: steps once per frame, reports confirmed tracks.
pub trait Tracker {
    /// Short stable identifier (`"ebbiot"`, `"ebbi-kf"`, `"nn-ebms"`).
    fn name(&self) -> &'static str;

    /// What this back-end consumes.
    fn input(&self) -> TrackerInput {
        TrackerInput::Proposals
    }

    /// Consumes the open window's next events, in time order; called
    /// only for [`TrackerInput::Events`] back-ends.
    fn on_events(&mut self, _events: &[Event]) {}

    /// Closes one frame, returning the confirmed tracks.
    fn step(&mut self, frame: &FrameInput<'_>) -> Vec<TrackBox>;

    /// Number of currently active (confirmed or provisional) trackers —
    /// the paper's `NT` statistic.
    fn active_count(&self) -> usize;

    /// Accumulated operation counts (Eqs. 6–8 cross-checks).
    fn ops(&self) -> OpsCounter;

    /// Clears all track state for a new recording.
    fn reset(&mut self);

    /// Resets the op counter.
    fn reset_ops(&mut self);

    /// Serializes the back-end's complete mutable state (track set,
    /// per-track dynamics, id allocator, ops tallies) into an opaque
    /// byte blob [`load_state`](Tracker::save_state) restores exactly.
    /// Floats are encoded as IEEE-754 bit patterns, so a save → load
    /// round trip is bit-identical — the checkpoint/restore parity
    /// suite drives every back-end through this pair.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state previously produced by
    /// [`save_state`](Tracker::save_state) on a tracker of the same
    /// back-end and geometry.
    ///
    /// Implementations parse `bytes` fully before committing anything:
    /// on error the tracker is left exactly as it was (never
    /// partially restored), and hostile bytes must surface as a
    /// [`StateError`](crate::StateError), never a panic.
    ///
    /// # Errors
    ///
    /// [`StateError`](crate::StateError) on truncated, trailing or
    /// structurally invalid bytes.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::StateError>;
}

/// Owned, type-erased back-end — what the pipeline registry hands out.
pub type BoxedTracker = Box<dyn Tracker + Send>;

impl Tracker for BoxedTracker {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn input(&self) -> TrackerInput {
        (**self).input()
    }

    fn on_events(&mut self, events: &[Event]) {
        (**self).on_events(events);
    }

    fn step(&mut self, frame: &FrameInput<'_>) -> Vec<TrackBox> {
        (**self).step(frame)
    }

    fn active_count(&self) -> usize {
        (**self).active_count()
    }

    fn ops(&self) -> OpsCounter {
        (**self).ops()
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn reset_ops(&mut self) {
        (**self).reset_ops();
    }

    fn save_state(&self) -> Vec<u8> {
        (**self).save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::StateError> {
        (**self).load_state(bytes)
    }
}
