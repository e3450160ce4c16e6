//! Per-stage pipeline telemetry (opt-in, observation-only).
//!
//! [`StageTelemetry`] bundles one duration histogram per front-end block
//! plus one for the tracker back-end — the five stages of Fig. 1 — under
//! the metric family `ebbiot_stage_duration_nanoseconds{stage=…}` (see
//! ARCHITECTURE.md §7). A pipeline without telemetry attached pays one
//! `Option` branch per stage and records nothing; with it attached, each
//! stage costs two relaxed atomic adds per frame, and the clock is read
//! once per stage boundary: the four front-end stages of a window close
//! share five `Instant` reads (each stage ends where the next begins) and
//! the tracker step takes two. Each slice consumed before the close
//! takes two more, added to its stage's one sample for the frame.
//!
//! Telemetry never feeds back into the computation: attaching it cannot
//! change any `FrameResult`, which the determinism suites assert
//! bit-exactly.

use std::sync::Arc;

use ebbiot_telemetry::{Histogram, Registry};

/// The metric family stage timings are registered under.
pub const STAGE_DURATION_METRIC: &str = "ebbiot_stage_duration_nanoseconds";

/// The five stage labels, in pipeline order.
pub const STAGES: [&str; 5] = ["ebbi", "median", "rpn", "roe", "tracker"];

/// Shared handles to the per-stage duration histograms.
///
/// Cloning is cheap (five `Arc`s) and all clones record into the same
/// series, so one `StageTelemetry` can be shared across every pipeline
/// of a fleet — or registered per stream — as the caller prefers.
#[derive(Debug, Clone)]
pub struct StageTelemetry {
    /// EBBI latch of each slice as it arrived, plus the readout.
    pub ebbi: Arc<Histogram>,
    /// Median denoising.
    pub median: Arc<Histogram>,
    /// Region proposal.
    pub rpn: Arc<Histogram>,
    /// Region-of-exclusion filtering.
    pub roe: Arc<Histogram>,
    /// Tracker back-end step, plus an event-domain back-end's slices.
    pub tracker: Arc<Histogram>,
}

impl StageTelemetry {
    /// Registers (or retrieves) the five stage histograms in `registry`,
    /// labelled `stage="ebbi" | "median" | "rpn" | "roe" | "tracker"`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        let stage = |name: &str| registry.histogram(STAGE_DURATION_METRIC, &[("stage", name)]);
        Self {
            ebbi: stage("ebbi"),
            median: stage("median"),
            rpn: stage("rpn"),
            roe: stage("roe"),
            tracker: stage("tracker"),
        }
    }

    /// The histograms in [`STAGES`] order, paired with their labels.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, &Arc<Histogram>); 5] {
        [
            ("ebbi", &self.ebbi),
            ("median", &self.median),
            ("rpn", &self.rpn),
            ("roe", &self.roe),
            ("tracker", &self.tracker),
        ]
    }

    /// Total frames observed (count of the tracker-stage histogram,
    /// which runs exactly once per frame in every pipeline).
    #[must_use]
    pub fn frames_observed(&self) -> u64 {
        self.tracker.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_shared_per_registry() {
        let registry = Registry::new();
        let a = StageTelemetry::register(&registry);
        let b = StageTelemetry::register(&registry);
        a.median.record(7);
        assert_eq!(b.median.count(), 1, "both handles see the same series");
        assert_eq!(a.frames_observed(), 0);
    }

    #[test]
    fn stages_enumerate_in_pipeline_order() {
        let telemetry = StageTelemetry::register(&Registry::new());
        let labels: Vec<&str> = telemetry.stages().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, STAGES);
    }

    #[test]
    fn exposition_contains_the_stage_family() {
        let registry = Registry::new();
        let telemetry = StageTelemetry::register(&registry);
        telemetry.ebbi.record(100);
        let text = registry.render();
        assert!(text.contains("# TYPE ebbiot_stage_duration_nanoseconds histogram"));
        assert!(text.contains("ebbiot_stage_duration_nanoseconds_count{stage=\"ebbi\"} 1"));
    }
}
