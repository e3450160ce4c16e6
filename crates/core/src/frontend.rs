//! The shared EBBIOT front-end: EBBI → median → RPN → ROE.
//!
//! Every frame-domain pipeline in the paper (EBBIOT's overlap tracker,
//! the EBBI+KF baseline, and both timescales of the two-timescale
//! extension) runs the *same* low-cost front-end and differs only in the
//! tracker back-end it feeds. [`FrontEnd`] is that block chain, defined
//! in exactly one place:
//!
//! ```text
//! events ─▶ EbbiAccumulator ─▶ MedianFilter ─▶ RPN ─▶ ROE ─▶ proposals
//! ```
//!
//! The front-end owns **reused scratch buffers** for the EBBI readout,
//! the denoised frame and the filtered proposal list, and the RPN owns
//! its downsampled image and histograms, so a steady-state pipeline
//! performs no per-frame frame-sized allocations (the root
//! `frontend_allocations` test pins this with a counting allocator).
//! Each block keeps its own [`OpsCounter`] so the resource harness can
//! cross-check the paper's Eqs. 1 and 5 against measured numbers.
//!
//! The frame kernels under these blocks (median, downsample, box
//! queries) run **word-parallel** over `ebbiot_frame`'s row-aligned
//! bit layout — 64 pixels per `u64` operation (see ARCHITECTURE.md,
//! "Frame memory layout"). The [`OpsCounter`] numbers are *logical*
//! Eq. 1 / Eq. 5 charges, deliberately independent of the physical
//! instruction count, so the resource cross-checks and the paper-number
//! suites are unchanged by kernel optimizations.

use std::time::Instant;

use ebbiot_events::{Event, OpsCounter};
use ebbiot_frame::{BinaryImage, BoundingBox, EbbiAccumulator, MedianFilter};

use crate::{
    config::EbbiotConfig, roe::RegionOfExclusion, rpn::RegionProposalNetwork,
    telemetry::StageTelemetry,
};

/// Per-block operation counts of the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontEndOps {
    /// EBBI creation (memory writes of Eq. 1).
    pub ebbi: OpsCounter,
    /// Median filtering (Eq. 1).
    pub median: OpsCounter,
    /// Region proposal (Eq. 5), including ROE filtering.
    pub rpn: OpsCounter,
}

/// The shared EBBI → median → RPN → ROE front-end.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    accumulator: EbbiAccumulator,
    median: MedianFilter,
    rpn: RegionProposalNetwork,
    roe: RegionOfExclusion,
    roe_ops: OpsCounter,
    /// Scratch frame receiving the EBBI readout (reused every frame).
    ebbi_scratch: BinaryImage,
    /// Scratch frame receiving the median-filtered EBBI (reused).
    denoised_scratch: BinaryImage,
    /// Scratch list receiving the ROE-filtered proposals (reused).
    proposals: Vec<BoundingBox>,
    /// Opt-in per-stage duration histograms (`None` = record nothing).
    telemetry: Option<StageTelemetry>,
}

impl FrontEnd {
    /// Builds the front-end from the pipeline configuration.
    #[must_use]
    pub fn new(config: &EbbiotConfig) -> Self {
        Self {
            accumulator: EbbiAccumulator::new(config.geometry),
            median: MedianFilter::new(config.median_patch),
            rpn: RegionProposalNetwork::new(config.rpn),
            roe: config.roe.clone(),
            roe_ops: OpsCounter::new(),
            ebbi_scratch: BinaryImage::new(config.geometry),
            denoised_scratch: BinaryImage::new(config.geometry),
            proposals: Vec::new(),
            telemetry: None,
        }
    }

    /// Attaches (or detaches) per-stage duration telemetry. Observation
    /// only: the produced proposals are identical either way.
    pub fn set_telemetry(&mut self, telemetry: Option<StageTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Runs one frame's worth of events through the block chain and
    /// returns the ROE-filtered region proposals.
    ///
    /// The returned slice borrows the front-end's internal scratch list;
    /// it is valid until the next call.
    pub fn process(&mut self, events: &[Event]) -> &[BoundingBox] {
        if let Some(t) = &self.telemetry {
            // One clock read per stage boundary: each stage ends where
            // the next begins, so four stages cost five reads.
            let start = Instant::now();
            self.accumulator.accumulate_all(events);
            self.accumulator.readout_into(&mut self.ebbi_scratch);
            let ebbi_done = Instant::now();
            self.median.apply_into(&self.ebbi_scratch, &mut self.denoised_scratch);
            let median_done = Instant::now();
            let raw = self.rpn.propose(&self.denoised_scratch);
            let rpn_done = Instant::now();
            self.roe.filter_into(&raw, &mut self.proposals, &mut self.roe_ops);
            let roe_done = Instant::now();
            t.ebbi.record_duration(ebbi_done - start);
            t.median.record_duration(median_done - ebbi_done);
            t.rpn.record_duration(rpn_done - median_done);
            t.roe.record_duration(roe_done - rpn_done);
        } else {
            self.accumulator.accumulate_all(events);
            self.accumulator.readout_into(&mut self.ebbi_scratch);
            self.median.apply_into(&self.ebbi_scratch, &mut self.denoised_scratch);
            let raw = self.rpn.propose(&self.denoised_scratch);
            self.roe.filter_into(&raw, &mut self.proposals, &mut self.roe_ops);
        }
        &self.proposals
    }

    /// The denoised frame of the most recent [`Self::process`] call
    /// (diagnostics and visualization).
    #[must_use]
    pub const fn last_denoised(&self) -> &BinaryImage {
        &self.denoised_scratch
    }

    /// The region of exclusion in force.
    #[must_use]
    pub const fn roe(&self) -> &RegionOfExclusion {
        &self.roe
    }

    /// Per-block op counters accumulated so far (ROE ops are absorbed
    /// into the RPN counter, matching Eq. 5's accounting).
    #[must_use]
    pub fn ops(&self) -> FrontEndOps {
        let mut rpn = *self.rpn.ops();
        rpn.absorb(&self.roe_ops);
        FrontEndOps { ebbi: *self.accumulator.ops(), median: *self.median.ops(), rpn }
    }

    /// The four raw per-block op counters `[ebbi, median, rpn, roe]`,
    /// **before** the ROE tally is absorbed into the RPN's — the exact
    /// form a checkpoint must preserve so a restored front end reports
    /// identical [`Self::ops`] forever after.
    #[must_use]
    pub fn raw_ops(&self) -> [OpsCounter; crate::state::FRONTEND_OPS_COUNTERS] {
        [*self.accumulator.ops(), *self.median.ops(), *self.rpn.ops(), self.roe_ops]
    }

    /// Restores the four raw per-block op counters saved by
    /// [`Self::raw_ops`].
    pub fn restore_raw_ops(&mut self, ops: &[OpsCounter; crate::state::FRONTEND_OPS_COUNTERS]) {
        self.accumulator.restore_ops(ops[0]);
        self.median.restore_ops(ops[1]);
        self.rpn.restore_ops(ops[2]);
        self.roe_ops = ops[3];
    }

    /// Resets all op counters.
    pub fn reset_ops(&mut self) {
        self.accumulator.reset_ops();
        self.median.reset_ops();
        self.rpn.reset_ops();
        self.roe_ops.reset();
    }

    /// Clears accumulated frame state and counters for a new recording.
    pub fn reset(&mut self) {
        let fresh = EbbiAccumulator::new(self.accumulator.geometry());
        self.accumulator = fresh;
        self.ebbi_scratch.clear();
        self.denoised_scratch.clear();
        self.proposals.clear();
        self.reset_ops();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::SensorGeometry;

    fn frontend() -> FrontEnd {
        FrontEnd::new(&EbbiotConfig::paper_default(SensorGeometry::davis240()))
    }

    fn block_events(x0: u16, y0: u16, w: u16, h: u16) -> Vec<Event> {
        let mut events = Vec::new();
        for dy in 0..h {
            for dx in 0..w {
                events.push(Event::on(x0 + dx, y0 + dy, u64::from(dy) * 10));
            }
        }
        events
    }

    #[test]
    fn solid_block_yields_one_proposal() {
        let mut fe = frontend();
        let proposals = fe.process(&block_events(60, 90, 30, 15));
        assert_eq!(proposals.len(), 1);
        assert!(proposals[0].intersection(&BoundingBox::new(60.0, 90.0, 30.0, 15.0)).is_some());
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_frames() {
        let mut fe = frontend();
        assert_eq!(fe.process(&block_events(60, 90, 30, 15)).len(), 1);
        // An empty frame afterwards: the scratch buffers must be fully
        // refreshed, producing no stale proposals.
        assert!(fe.process(&[]).is_empty());
        assert_eq!(fe.last_denoised().count_ones(), 0);
    }

    #[test]
    fn roe_filtering_is_applied() {
        let roe = RegionOfExclusion::new(vec![BoundingBox::new(0.0, 0.0, 120.0, 180.0)]);
        let cfg = EbbiotConfig::paper_default(SensorGeometry::davis240()).with_roe(roe);
        let mut fe = FrontEnd::new(&cfg);
        assert!(fe.process(&block_events(10, 10, 30, 20)).is_empty());
        assert_eq!(fe.process(&block_events(150, 90, 30, 20)).len(), 1);
    }

    #[test]
    fn ops_accumulate_per_block() {
        let mut fe = frontend();
        let _ = fe.process(&block_events(60, 90, 30, 15));
        let ops = fe.ops();
        assert!(ops.ebbi.total() > 0);
        assert!(ops.median.total() > 0);
        assert!(ops.rpn.total() > 0);
        fe.reset_ops();
        assert_eq!(fe.ops().median.total(), 0);
    }

    #[test]
    fn reset_clears_frame_state() {
        let mut fe = frontend();
        let _ = fe.process(&block_events(60, 90, 30, 15));
        fe.reset();
        assert!(fe.process(&[]).is_empty());
    }
}
