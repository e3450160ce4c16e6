//! Region of exclusion (ROE).
//!
//! §II-C: "Distractors such as trees which create spurious events can be
//! removed by a manually provided definition of region of exclusion (ROE).
//! Static occlusion from posts etc can also be included in ROE." The ROE
//! is a list of boxes; region proposals that substantially overlap any of
//! them are discarded before reaching the tracker.

use ebbiot_events::OpsCounter;
use ebbiot_frame::BoundingBox;

/// A manually supplied set of excluded regions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegionOfExclusion {
    regions: Vec<BoundingBox>,
}

impl RegionOfExclusion {
    /// A proposal is dropped when more than this fraction of its area
    /// lies inside some excluded region: half.
    pub const DEFAULT_THRESHOLD: f32 = 0.5;

    /// Creates an empty ROE (excludes nothing).
    #[must_use]
    pub fn none() -> Self {
        Self { regions: Vec::new() }
    }

    /// Creates a ROE from regions.
    #[must_use]
    pub fn new(regions: Vec<BoundingBox>) -> Self {
        Self { regions }
    }

    /// The excluded regions.
    #[must_use]
    pub fn regions(&self) -> &[BoundingBox] {
        &self.regions
    }

    /// Whether a single proposal is excluded.
    #[must_use]
    pub fn excludes(&self, proposal: &BoundingBox, ops: &mut OpsCounter) -> bool {
        for region in &self.regions {
            // Overlap test: ~4 comparisons + area ratio.
            ops.compare(4);
            ops.multiply(2);
            if proposal.overlap_fraction(region) > Self::DEFAULT_THRESHOLD {
                return true;
            }
        }
        false
    }

    /// Filters a proposal list, keeping the non-excluded ones.
    #[must_use]
    pub fn filter(&self, proposals: &[BoundingBox], ops: &mut OpsCounter) -> Vec<BoundingBox> {
        let mut out = Vec::with_capacity(proposals.len());
        self.filter_into(proposals, &mut out, ops);
        out
    }

    /// Filters a proposal list into a caller-owned vector — the
    /// allocation-free variant of [`Self::filter`] used by the streaming
    /// front-end (`out` is a reused scratch buffer, cleared first).
    pub fn filter_into(
        &self,
        proposals: &[BoundingBox],
        out: &mut Vec<BoundingBox>,
        ops: &mut OpsCounter,
    ) {
        out.clear();
        if self.regions.is_empty() {
            out.extend_from_slice(proposals);
            return;
        }
        out.extend(proposals.iter().filter(|p| !self.excludes(p, ops)).copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> OpsCounter {
        OpsCounter::new()
    }

    #[test]
    fn empty_roe_keeps_everything() {
        let roe = RegionOfExclusion::none();
        let props = vec![BoundingBox::new(0.0, 0.0, 10.0, 10.0)];
        assert_eq!(roe.filter(&props, &mut ops()), props);
    }

    #[test]
    fn proposal_inside_region_is_dropped() {
        let roe = RegionOfExclusion::new(vec![BoundingBox::new(0.0, 0.0, 50.0, 40.0)]);
        let inside = BoundingBox::new(10.0, 10.0, 20.0, 20.0);
        let outside = BoundingBox::new(100.0, 100.0, 20.0, 20.0);
        let kept = roe.filter(&[inside, outside], &mut ops());
        assert_eq!(kept, vec![outside]);
    }

    #[test]
    fn threshold_is_respected() {
        let region = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let roe = RegionOfExclusion::new(vec![region]);
        // 40% of the first proposal's area is inside the region, 60% of
        // the second's.
        assert!(!roe.excludes(&BoundingBox::new(6.0, 0.0, 10.0, 10.0), &mut ops()));
        assert!(roe.excludes(&BoundingBox::new(4.0, 0.0, 10.0, 10.0), &mut ops()));
    }

    #[test]
    fn multiple_regions_all_checked() {
        let roe = RegionOfExclusion::new(vec![
            BoundingBox::new(0.0, 0.0, 10.0, 10.0),
            BoundingBox::new(200.0, 150.0, 40.0, 30.0),
        ]);
        let near_second = BoundingBox::new(205.0, 155.0, 10.0, 10.0);
        assert!(roe.excludes(&near_second, &mut ops()));
    }

    #[test]
    fn boundary_overlap_exactly_at_threshold_is_kept() {
        let region = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        // Exactly half inside.
        let proposal = BoundingBox::new(5.0, 0.0, 10.0, 10.0);
        let roe = RegionOfExclusion::new(vec![region]);
        assert!(!roe.excludes(&proposal, &mut ops()), "> not >=");
    }

    #[test]
    fn ops_are_charged_per_region_test() {
        let roe = RegionOfExclusion::new(vec![
            BoundingBox::new(0.0, 0.0, 10.0, 10.0),
            BoundingBox::new(50.0, 50.0, 10.0, 10.0),
        ]);
        let mut counter = ops();
        let far = BoundingBox::new(200.0, 100.0, 5.0, 5.0);
        let _ = roe.excludes(&far, &mut counter);
        assert_eq!(counter.comparisons, 8, "both regions tested");
    }
}
