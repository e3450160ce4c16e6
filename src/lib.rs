//! # EBBIOT — reproduction of "EBBIOT: A Low-complexity Tracking Algorithm
//! for Surveillance in IoVT Using Stationary Neuromorphic Vision Sensors"
//! (Acharya et al., SOCC 2019).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`events`] — event primitives, framing ([`ebbiot_events`])
//! * [`frame`] — EBBI, median filter, histograms, CCA ([`ebbiot_frame`])
//! * [`filters`] — event-domain noise filters ([`ebbiot_filters`])
//! * [`sim`] — the DAVIS traffic-scene simulator ([`ebbiot_sim`])
//! * [`core`] — the shared [`ebbiot_core::FrontEnd`], the
//!   [`ebbiot_core::Tracker`] back-end trait, the generic streaming
//!   [`ebbiot_core::Pipeline`], the RPN and the overlap tracker
//!   ([`ebbiot_core`])
//! * [`baselines`] — KF and EBMS tracker back-ends plus the back-end
//!   registry ([`ebbiot_baselines`])
//! * [`engine`] — the multi-camera concurrent tracking engine with
//!   deterministic fan-out ([`ebbiot_engine`])
//! * [`store`] — the chunked `EBST` on-disk recording store, fleet
//!   spool layout, paced replay and `EBSS` session snapshots
//!   ([`ebbiot_store`])
//! * [`server`] — the TCP ingestion server speaking the framed `EBWP`
//!   wire protocol ([`ebbiot_server`])
//! * [`telemetry`] — lock-free metrics: counters, gauges, log2-bucket
//!   histograms, registry and text exposition ([`ebbiot_telemetry`])
//! * [`eval`] — IoU precision/recall evaluation ([`ebbiot_eval`])
//! * [`resource`] — the paper's analytic cost models ([`ebbiot_resource`])
//! * [`linalg`] — the small dense linear algebra used by the KF
//!   ([`ebbiot_linalg`])
//!
//! `ARCHITECTURE.md` at the workspace root is the guided tour: the
//! FrontEnd/Tracker/Pipeline layering, the engine's deterministic
//! fan-out, and normative field-by-field specifications of the `EBST`
//! disk format and the `EBWP` wire protocol.
//!
//! ## Quickstart
//!
//! ```
//! use ebbiot::prelude::*;
//!
//! // Simulate 2 seconds of LT4-style traffic with exact ground truth.
//! let recording = DatasetPreset::Lt4.config().with_duration_s(2.0).generate(7);
//!
//! // Run the EBBIOT pipeline.
//! let config = EbbiotConfig::paper_default(recording.geometry);
//! let mut pipeline = EbbiotPipeline::new(config.clone());
//! let frames = pipeline.process_recording(&recording.events, recording.duration_us);
//! assert_eq!(frames.len(), recording.ground_truth.len());
//!
//! // Or stream any registered back-end chunk by chunk — no recording
//! // ever needs to be resident in memory.
//! let mut kf = registry::build_pipeline("ebbi-kf", config).unwrap();
//! let mut streamed = Vec::new();
//! for chunk in recording.events.chunks(4096) {
//!     streamed.extend(kf.push(chunk));
//! }
//! streamed.extend(kf.finish(recording.duration_us));
//! assert_eq!(streamed.len(), frames.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ebbiot_baselines as baselines;
pub use ebbiot_core as core;
pub use ebbiot_engine as engine;
pub use ebbiot_eval as eval;
pub use ebbiot_events as events;
pub use ebbiot_filters as filters;
pub use ebbiot_frame as frame;
pub use ebbiot_linalg as linalg;
pub use ebbiot_resource as resource;
pub use ebbiot_server as server;
pub use ebbiot_sim as sim;
pub use ebbiot_store as store;
pub use ebbiot_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use ebbiot_baselines::{
        registry, BackendSpec, EbmsConfig, EbmsTracker, KalmanConfig, KalmanTracker, NnEbmsTracker,
        BACKENDS,
    };
    pub use ebbiot_core::{
        BoxedTracker, DutyCycleModel, DynPipeline, EbbiotConfig, EbbiotPipeline, FrameInput,
        FrameResult, FrontEnd, OtConfig, OverlapTracker, Pipeline, PipelineOps, ProcessorModel,
        RegionOfExclusion, RegionProposalNetwork, RpnMode, SessionState, StageTelemetry,
        StateError, TrackBox, Tracker, TrackerInput, TwoTimescaleConfig, TwoTimescalePipeline,
        TwoTimescaleState,
    };
    pub use ebbiot_engine::{
        Engine, EngineConfig, EngineOutput, FleetOptions, FleetStream, SessionHandoff, Snapshot,
        StreamId, StreamTotals,
    };
    pub use ebbiot_eval::{
        evaluate_frames, sweep_thresholds, weighted_average, EvalAccumulator, PrecisionRecall,
        RecordingEval,
    };
    pub use ebbiot_events::{Event, Polarity, SensorGeometry, StreamStats, Timestamp};
    pub use ebbiot_filters::NnFilter;
    pub use ebbiot_frame::{BinaryImage, BoundingBox, EbbiAccumulator, MedianFilter, PixelBox};
    pub use ebbiot_resource::{fig5_comparison, PaperParams, PipelineCost};
    pub use ebbiot_server::{
        scrape_stats, Frame, Hello, IngestServer, ServerConfig, Session, SessionSummary,
        StatsServer, WireError,
    };
    pub use ebbiot_sim::{
        spool_fleet, spool_recording, BackgroundNoise, DatasetPreset, DavisConfig, DavisSimulator,
        FleetConfig, ObjectClass, Scene, SceneObject, SimulatedRecording, TrafficConfig,
        TrafficGenerator,
    };
    pub use ebbiot_store::{
        read_snapshot, read_snapshot_file, write_snapshot, ChunkReader, EngineReplay,
        FleetArchiver, FleetStore, RecordingWriter, ReplayMode, Replayer, SnapshotError,
        SnapshotHeader, StoreError, StoreOptions, StoreSummary, StoredCamera,
    };
    pub use ebbiot_telemetry::{validate_exposition, Counter, Gauge, Histogram, Registry};
}
