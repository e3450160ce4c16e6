//! EBBIOT — the paper's contribution.
//!
//! This crate implements the three blocks of Fig. 1 on top of the frame
//! substrate, plus the system-level models the paper argues from:
//!
//! * [`rpn`] — the event-density region-proposal network (§II-B):
//!   downsample the denoised EBBI, project X/Y histograms, extract
//!   above-threshold runs, intersect them into boxes, validate.
//! * [`tracker`] — the overlap-based tracker (OT, §II-C): up to `NT = 8`
//!   constant-velocity box trackers with overlap matching, fragmentation
//!   merging, and 2-step look-ahead occlusion handling.
//! * [`roe`] — the region of exclusion masking distractors like trees.
//! * [`frontend`] — the **shared front-end**: events → EBBI → median →
//!   RPN → ROE, defined once and reused by every frame-domain pipeline,
//!   with reused scratch buffers and per-block op counters.
//! * [`backend`] — the [`Tracker`] trait: the back-end plug point the
//!   overlap tracker, the KF and EBMS baselines all implement.
//! * [`pipeline`] — the generic streaming [`Pipeline`]: `FrontEnd` +
//!   any `Tracker`, driven per-recording or by arbitrary event chunks
//!   ([`Pipeline::push`] / [`Pipeline::finish`]).
//! * [`telemetry`] — opt-in per-stage duration histograms
//!   ([`StageTelemetry`]): observation-only timing of the five Fig. 1
//!   stages, feeding the `ebbiot_telemetry` registry (ARCHITECTURE.md §7).
//! * [`duty_cycle`] — the interrupt-driven sensing model of Fig. 2
//!   (processor sleeps between `tF` interrupts; the sensor is the memory).
//! * [`two_timescale`] — the conclusion's future-work extension: a second
//!   long-exposure frame stream for slow, small objects (humans).
//! * [`state`] — session checkpoint state ([`SessionState`]) and the
//!   byte codec behind [`Tracker::save_state`] /
//!   [`Tracker::load_state`]; `ebbiot_store` frames it on disk as the
//!   versioned `EBSS` snapshot format (ARCHITECTURE.md §8).
//!
//! # Example
//!
//! ```
//! use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
//! use ebbiot_events::{Event, SensorGeometry};
//!
//! let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
//! let mut pipeline = EbbiotPipeline::new(config.clone());
//! // A tight cluster of events: one region proposal, one (provisional) track.
//! let events: Vec<Event> = (0..200)
//!     .map(|i| Event::on(60 + (i % 20) as u16, 80 + (i / 20) as u16, i))
//!     .collect();
//! let frames = pipeline.process_recording(&events, config.frame_us);
//! assert_eq!(frames.len(), 1);
//! assert_eq!(frames[0].num_proposals, 1);
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod duty_cycle;
pub mod frontend;
pub mod pipeline;
pub mod roe;
pub mod rpn;
pub mod state;
pub mod telemetry;
pub mod tracker;
pub mod two_timescale;
mod window;

pub use backend::{BoxedTracker, FrameInput, Tracker, TrackerInput};
pub use config::EbbiotConfig;
pub use duty_cycle::{DutyCycleModel, DutyCycleReport, ProcessorModel};
pub use frontend::{FrontEnd, FrontEndOps};
pub use pipeline::{DynPipeline, EbbiotPipeline, FrameResult, Pipeline, PipelineOps, TrackBox};
pub use roe::RegionOfExclusion;
pub use rpn::{RegionProposalNetwork, RpnMode};
pub use state::{
    SessionState, StateError, StateReader, StateWriter, TwoTimescaleState, FRONTEND_OPS_COUNTERS,
};
pub use telemetry::{StageTelemetry, STAGES, STAGE_DURATION_METRIC};
pub use tracker::{OtConfig, OverlapTracker, Track};
pub use two_timescale::{TwoTimescaleConfig, TwoTimescalePipeline};
