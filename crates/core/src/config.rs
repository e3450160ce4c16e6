//! Top-level EBBIOT configuration.

use ebbiot_events::{Micros, SensorGeometry, DEFAULT_FRAME_DURATION_US};

use crate::{roe::RegionOfExclusion, rpn::RpnConfig, tracker::OtConfig};

/// Everything the end-to-end EBBIOT pipeline needs.
#[derive(Debug, Clone, PartialEq)]
pub struct EbbiotConfig {
    /// Sensor geometry (`A x B`).
    pub geometry: SensorGeometry,
    /// Frame duration `tF` in microseconds (paper: 66 ms).
    pub frame_us: Micros,
    /// Median-filter patch size `p` (paper: 3).
    pub median_patch: u16,
    /// Region-proposal configuration (`s1`, `s2`, threshold, mode).
    pub rpn: RpnConfig,
    /// Overlap-tracker configuration (`NT`, match fraction, blends).
    pub ot: OtConfig,
    /// Manually supplied region of exclusion.
    pub roe: RegionOfExclusion,
}

impl EbbiotConfig {
    /// The paper's configuration for a given sensor: `tF` = 66 ms,
    /// `p` = 3, `s1` = 6, `s2` = 3, threshold 1, `NT` = 8, no ROE.
    #[must_use]
    pub fn paper_default(geometry: SensorGeometry) -> Self {
        Self {
            geometry,
            frame_us: DEFAULT_FRAME_DURATION_US,
            median_patch: 3,
            rpn: RpnConfig::paper_default(),
            ot: OtConfig::paper_default(),
            roe: RegionOfExclusion::none(),
        }
    }

    /// Sets the ROE, builder style.
    #[must_use]
    pub fn with_roe(mut self, roe: RegionOfExclusion) -> Self {
        self.roe = roe;
        self
    }

    /// Sets the frame duration, builder style.
    ///
    /// # Panics
    ///
    /// Panics on a zero duration.
    #[must_use]
    pub fn with_frame_us(mut self, frame_us: Micros) -> Self {
        assert!(frame_us > 0, "frame duration must be non-zero");
        self.frame_us = frame_us;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_2() {
        let c = EbbiotConfig::paper_default(SensorGeometry::davis240());
        assert_eq!(c.frame_us, 66_000);
        assert_eq!(c.median_patch, 3);
        assert_eq!(c.rpn.s1, 6);
        assert_eq!(c.rpn.s2, 3);
        assert_eq!(c.rpn.threshold, 1);
        assert_eq!(c.ot.max_trackers, 8);
        assert_eq!(c.ot.occlusion_lookahead, 2);
        assert!(c.roe.regions().is_empty());
    }

    #[test]
    fn builders_override_fields() {
        let c = EbbiotConfig::paper_default(SensorGeometry::davis240())
            .with_frame_us(100_000)
            .with_roe(RegionOfExclusion::new(vec![ebbiot_frame::BoundingBox::new(
                0.0, 0.0, 10.0, 10.0,
            )]));
        assert_eq!(c.frame_us, 100_000);
        assert_eq!(c.roe.regions().len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frame_duration_panics() {
        let _ = EbbiotConfig::paper_default(SensorGeometry::davis240()).with_frame_us(0);
    }
}
