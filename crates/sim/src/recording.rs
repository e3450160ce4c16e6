//! A fully generated recording: events + ground truth + metadata.

use ebbiot_events::{Event, Micros, SensorGeometry, StreamStats};

use crate::ground_truth::{count_tracks, GroundTruthFrame};

/// A simulated recording, the unit the evaluation harness consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedRecording {
    /// Recording name (e.g. "ENG", "LT4").
    pub name: String,
    /// Lens focal length being emulated, in millimetres.
    pub lens_mm: f32,
    /// Sensor geometry.
    pub geometry: SensorGeometry,
    /// Frame duration `tF` the ground truth was annotated at.
    pub frame_us: Micros,
    /// Time-ordered event stream.
    pub events: Vec<Event>,
    /// Per-frame ground-truth annotations.
    pub ground_truth: Vec<GroundTruthFrame>,
    /// Recording duration in microseconds.
    pub duration_us: Micros,
}

impl SimulatedRecording {
    /// Stream statistics (for Table I regeneration).
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        StreamStats::from_events(&self.events)
    }

    /// Recording duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.duration_us as f64 / 1e6
    }

    /// Number of distinct ground-truth tracks (the weighting factor for
    /// the paper's multi-recording precision/recall average).
    #[must_use]
    pub fn num_tracks(&self) -> usize {
        count_tracks(&self.ground_truth)
    }

    /// Mean event rate in events/second over the nominal duration.
    #[must_use]
    pub fn event_rate_hz(&self) -> f64 {
        if self.duration_us == 0 {
            0.0
        } else {
            self.events.len() as f64 / (self.duration_us as f64 / 1e6)
        }
    }
}

impl core::fmt::Display for SimulatedRecording {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: {} mm lens, {:.1} s, {} events ({:.1} k ev/s), {} tracks",
            self.name,
            self.lens_mm,
            self.duration_s(),
            self.events.len(),
            self.event_rate_hz() / 1e3,
            self.num_tracks()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::GroundTruthFrame;
    use ebbiot_events::Event;

    fn tiny_recording() -> SimulatedRecording {
        SimulatedRecording {
            name: "TEST".into(),
            lens_mm: 12.0,
            geometry: SensorGeometry::davis240(),
            frame_us: 66_000,
            events: vec![Event::on(0, 0, 0), Event::on(1, 1, 500_000)],
            ground_truth: vec![GroundTruthFrame { index: 0, t_mid: 33_000, boxes: vec![] }],
            duration_us: 1_000_000,
        }
    }

    #[test]
    fn rates_and_durations() {
        let r = tiny_recording();
        assert!((r.duration_s() - 1.0).abs() < 1e-9);
        assert!((r.event_rate_hz() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_gt_has_no_tracks() {
        let r = tiny_recording();
        assert_eq!(r.num_tracks(), 0);
    }

    #[test]
    fn display_mentions_name_and_rate() {
        let r = tiny_recording();
        let s = r.to_string();
        assert!(s.contains("TEST"));
        assert!(s.contains("2 events"));
    }

    #[test]
    fn stats_reflect_events() {
        let r = tiny_recording();
        assert_eq!(r.stats().num_events, 2);
    }
}
