//! The tracker back-end registry.
//!
//! Evaluation sweeps and the experiment binaries enumerate back-ends by
//! name instead of hand-rolling one match arm per tracker: each
//! [`BackendSpec`] names a back-end and knows how to build a type-erased
//! [`DynPipeline`] for it from a shared front-end configuration. Adding
//! a tracker to the comparison set means adding one entry here — the
//! eval and bench layers pick it up automatically.

use ebbiot_core::{
    BoxedTracker, DynPipeline, EbbiotConfig, OverlapTracker, Pipeline, SessionState, StateError,
};

use crate::{
    backends::NnEbmsTracker,
    ebms::EbmsConfig,
    kalman::{KalmanConfig, KalmanTracker},
};

/// One registered tracker back-end.
#[derive(Debug, Clone, Copy)]
pub struct BackendSpec {
    /// Stable registry name (`"ebbiot"`, `"ebbi-kf"`, `"nn-ebms"`).
    pub name: &'static str,
    /// Short display label, as used in the paper's figures.
    pub label: &'static str,
    /// One-line description.
    pub summary: &'static str,
    build: fn(&EbbiotConfig) -> BoxedTracker,
}

impl BackendSpec {
    /// Builds a type-erased pipeline running this back-end behind the
    /// shared front-end configuration.
    #[must_use]
    pub fn build(&self, config: EbbiotConfig) -> DynPipeline {
        let tracker = (self.build)(&config);
        Pipeline::with_tracker(config, tracker)
    }

    /// Builds `cameras` independent pipelines of this back-end sharing
    /// one front-end configuration — one per stream of a multi-camera
    /// engine. Tracker state is per-pipeline; nothing is shared.
    #[must_use]
    pub fn build_fleet(&self, config: &EbbiotConfig, cameras: usize) -> Vec<DynPipeline> {
        (0..cameras).map(|_| self.build(config.clone())).collect()
    }
}

/// All registered back-ends, in the paper's Fig. 4 presentation order.
pub const BACKENDS: &[BackendSpec] = &[
    BackendSpec {
        name: "nn-ebms",
        label: "EBMS",
        summary: "NN-filter + event-based mean shift (fully event-domain)",
        build: |config| Box::new(NnEbmsTracker::new(config.geometry, EbmsConfig::paper_default())),
    },
    BackendSpec {
        name: "ebbi-kf",
        label: "KF",
        summary: "Shared EBBI front-end + Kalman-filter tracker",
        build: |config| {
            Box::new(KalmanTracker::new(config.geometry, KalmanConfig::paper_default()))
        },
    },
    BackendSpec {
        name: "ebbiot",
        label: "EBBIOT",
        summary: "Shared EBBI front-end + overlap tracker (the paper's system)",
        build: |config| Box::new(OverlapTracker::new(config.geometry, config.ot)),
    },
];

/// Looks a back-end up by registry name or display label.
#[must_use]
pub fn find_backend(name: &str) -> Option<&'static BackendSpec> {
    BACKENDS.iter().find(|spec| spec.name == name || spec.label == name)
}

/// Builds a pipeline by back-end name.
#[must_use]
pub fn build_pipeline(name: &str, config: EbbiotConfig) -> Option<DynPipeline> {
    find_backend(name).map(|spec| spec.build(config))
}

/// Rebuilds a type-erased pipeline from a [`SessionState`] checkpoint,
/// resolving the back-end by the name recorded in the state. The restored
/// pipeline resumes bit-identically to the uninterrupted session.
///
/// # Errors
///
/// [`StateError::UnknownBackend`] when the state names a back-end not in
/// [`BACKENDS`], or any [`StateError`] from
/// [`Pipeline::restore`] on corrupt tracker bytes.
pub fn restore_pipeline(
    config: EbbiotConfig,
    state: &SessionState,
) -> Result<DynPipeline, StateError> {
    let spec = find_backend(&state.backend)
        .ok_or_else(|| StateError::UnknownBackend(state.backend.clone()))?;
    let tracker = (spec.build)(&config);
    Pipeline::restore(config, tracker, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::{Event, SensorGeometry};

    fn config() -> EbbiotConfig {
        EbbiotConfig::paper_default(SensorGeometry::davis240())
    }

    #[test]
    fn registry_covers_all_three_trackers() {
        let names: Vec<_> = BACKENDS.iter().map(|spec| spec.name).collect();
        assert_eq!(names, ["nn-ebms", "ebbi-kf", "ebbiot"]);
    }

    #[test]
    fn lookup_by_name_or_label() {
        assert!(find_backend("ebbiot").is_some());
        assert!(find_backend("EBBIOT").is_some());
        assert!(find_backend("KF").is_some());
        assert!(find_backend("unknown").is_none());
        assert!(build_pipeline("unknown", config()).is_none());
    }

    #[test]
    fn built_pipelines_report_their_backend() {
        for spec in BACKENDS {
            let pipeline = spec.build(config());
            assert_eq!(pipeline.backend_name(), spec.name);
        }
    }

    #[test]
    fn built_pipelines_process_frames() {
        let mut events = Vec::new();
        for dy in 0..15u16 {
            for dx in 0..30u16 {
                events.push(Event::on(60 + dx, 90 + dy, u64::from(dy) * 10));
            }
        }
        for spec in BACKENDS {
            let mut pipeline = spec.build(config());
            let frames = pipeline.process_recording(&events, 0);
            assert_eq!(frames.len(), 1, "{}", spec.name);
            assert_eq!(frames[0].index, 0, "{}", spec.name);
            assert_eq!(frames[0].num_events, events.len(), "{}", spec.name);
        }
    }

    #[test]
    fn fleet_pipelines_are_independent() {
        let spec = find_backend("ebbiot").unwrap();
        let mut fleet = spec.build_fleet(&config(), 3);
        assert_eq!(fleet.len(), 3);
        let events: Vec<Event> =
            (0..300).map(|i| Event::on(60 + (i % 20) as u16, 90 + (i / 20) as u16, i)).collect();
        // Stepping one pipeline leaves the others untouched.
        let _ = fleet[0].process_recording(&events, 0);
        assert_eq!(fleet[0].frames_processed(), 1);
        assert_eq!(fleet[1].frames_processed(), 0);
        assert_eq!(fleet[2].frames_processed(), 0);
    }

    /// A dense block moving 3 px right per 66 ms frame.
    fn moving_block_events(frames: usize) -> Vec<Event> {
        let mut events = Vec::new();
        for f in 0..frames {
            let x0 = 50 + f as u16 * 3;
            let t0 = f as u64 * 66_000;
            for dy in 0..15u16 {
                for dx in 0..30u16 {
                    events.push(Event::on(x0 + dx, 90 + dy, t0 + u64::from(dy * 30 + dx) * 20));
                }
            }
        }
        ebbiot_events::stream::sort_by_time(&mut events);
        events
    }

    #[test]
    fn every_backend_tracks_a_moving_block_on_aligned_frames() {
        let events = moving_block_events(6);
        for spec in BACKENDS {
            let frames = spec.build(config()).process_recording(&events, 6 * 66_000);
            assert_eq!(frames.len(), 6, "{}", spec.name);
            for (k, frame) in frames.iter().enumerate() {
                assert_eq!((frame.index, frame.t_start), (k, k as u64 * 66_000), "{}", spec.name);
            }
            let last = &frames[5].tracks;
            let near = last.iter().any(|t| {
                let (cx, cy) = t.bbox.center();
                (cx - 80.0).abs() < 25.0 && (cy - 97.5).abs() < 15.0
            });
            assert!(near, "{} lost the block: {last:?}", spec.name);
            if spec.name == "ebbi-kf" {
                // The KF follows the block's centroid closely.
                assert_eq!(last.len(), 1);
                let (cx, cy) = last[0].bbox.center();
                assert!((cx - 80.0).abs() < 10.0 && (cy - 97.5).abs() < 5.0, "KF at ({cx}, {cy})");
            }
        }
    }

    #[test]
    fn isolated_noise_yields_no_tracks_and_the_nn_filter_drops_it() {
        let noise: Vec<Event> = (0..50)
            .map(|k| Event::on((k * 4) % 240, (k * 7) % 180, u64::from(k) * 1_000))
            .collect();
        for spec in BACKENDS {
            let frames = spec.build(config()).process_recording(&noise, 66_000);
            assert!(frames[0].tracks.is_empty(), "{}", spec.name);
        }
        // The filter statistics live on the concrete tracker.
        let nn_ebms = || {
            let tracker = NnEbmsTracker::new(config().geometry, EbmsConfig::paper_default());
            Pipeline::with_tracker(config(), tracker)
        };
        let mut noisy = nn_ebms();
        let _ = noisy.process_recording(&noise, 66_000);
        let kept = noisy.tracker().keep_fraction();
        assert!(kept < 0.2, "NN filter kept {kept}");
        let mut dense = nn_ebms();
        let _ = dense.process_recording(&moving_block_events(4), 4 * 66_000);
        assert!(dense.tracker().keep_fraction() > 0.6, "a dense block passes the NN filter");
    }

    #[test]
    fn frontend_presence_matches_backend_kind() {
        assert!(build_pipeline("ebbiot", config()).unwrap().frontend().is_some());
        assert!(build_pipeline("ebbi-kf", config()).unwrap().frontend().is_some());
        assert!(build_pipeline("nn-ebms", config()).unwrap().frontend().is_none());
    }
}
