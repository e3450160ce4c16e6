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
//! Events latch as they arrive ([`FrontEnd::accumulate_all`]); the `tF`
//! interrupt reads the latch out ([`FrontEnd::close_window`]).
//!
//! The front-end owns **reused scratch buffers** for the EBBI readout,
//! the denoised frame and the filtered proposal list, and the RPN owns
//! its histograms, so a steady-state pipeline
//! performs no per-frame frame-sized allocations (the root
//! `frontend_allocations` test pins this with a counting allocator).
//! Each block keeps its own [`OpsCounter`] so the resource harness can
//! cross-check the paper's Eqs. 1 and 5 against measured numbers.
//!
//! The median hands the RPN the rows it wrote a set pixel to, and the
//! RPN projects only those rows.
//!
//! The frame kernels under these blocks (median, projection, box
//! queries) run **word-parallel** over `ebbiot_frame`'s row-aligned
//! bit layout — 64 pixels per `u64` operation (see ARCHITECTURE.md,
//! "Frame memory layout"). The [`OpsCounter`] numbers are *logical*
//! Eq. 1 / Eq. 5 charges, deliberately independent of the physical
//! instruction count, so the resource cross-checks and the paper-number
//! suites are unchanged by kernel optimizations.

use std::time::{Duration, Instant};

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
    /// Latch time of the open window's slices, added to its EBBI sample.
    latch_time: Duration,
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
            latch_time: Duration::ZERO,
        }
    }

    /// Attaches (or detaches) per-stage duration telemetry. Observation
    /// only: the produced proposals are identical either way.
    pub fn set_telemetry(&mut self, telemetry: Option<StageTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Latches a slice of the open window's events into the EBBI.
    pub fn accumulate_all(&mut self, events: &[Event]) {
        let start = self.telemetry.is_some().then(Instant::now);
        self.accumulator.accumulate_all(events);
        if let Some(start) = start {
            self.latch_time += start.elapsed();
        }
    }

    /// ORs `image` into the open window's latch, charging one Eq. 1
    /// write per pixel it sets.
    ///
    /// # Panics
    ///
    /// Panics when `image` has a different geometry.
    pub fn latch_image(&mut self, image: &BinaryImage) {
        self.accumulator.latch_image(image);
    }

    /// The open window's latched EBBI.
    #[must_use]
    pub fn latch(&self) -> &BinaryImage {
        self.accumulator.current()
    }

    /// Replaces the open window's latch with a checkpointed one that
    /// latched `events` events, without an op charge (see
    /// [`Self::restore_raw_ops`]).
    ///
    /// # Panics
    ///
    /// Panics when `latch` has a different geometry.
    pub fn restore_latch(&mut self, latch: &BinaryImage, events: u64) {
        self.accumulator.restore_latch(latch, events);
    }

    /// Closes the open window: reads the EBBI out, runs it through the
    /// block chain and returns the ROE-filtered region proposals.
    ///
    /// The returned slice borrows the front-end's internal scratch list;
    /// it is valid until the next call.
    pub fn close_window(&mut self) -> &[BoundingBox] {
        // With telemetry, one clock read per stage boundary: each stage
        // ends where the next begins, so four stages cost five reads.
        let timed = self.telemetry.is_some();
        let clock = || timed.then(Instant::now);
        let start = clock();
        let latched = self.accumulator.pixels_latched();
        self.accumulator.readout_into(&mut self.ebbi_scratch);
        let ebbi_done = clock();
        self.median.apply_counted_into(&self.ebbi_scratch, latched, &mut self.denoised_scratch);
        let median_done = clock();
        let raw = self.rpn.propose_rows(&self.denoised_scratch, self.median.written_rows());
        let rpn_done = clock();
        self.roe.filter_into(&raw, &mut self.proposals, &mut self.roe_ops);
        if let (Some(t), Some(start), Some(ebbi_done), Some(median_done), Some(rpn_done)) =
            (&self.telemetry, start, ebbi_done, median_done, rpn_done)
        {
            let roe_done = Instant::now();
            t.ebbi.record_duration(core::mem::take(&mut self.latch_time) + (ebbi_done - start));
            t.median.record_duration(median_done - ebbi_done);
            t.rpn.record_duration(rpn_done - median_done);
            t.roe.record_duration(roe_done - rpn_done);
        }
        &self.proposals
    }

    /// The raw EBBI of the most recent [`Self::close_window`] call.
    #[must_use]
    pub const fn last_ebbi(&self) -> &BinaryImage {
        &self.ebbi_scratch
    }

    /// The denoised frame of the most recent [`Self::close_window`] call
    /// (diagnostics and visualization).
    #[must_use]
    pub const fn last_denoised(&self) -> &BinaryImage {
        &self.denoised_scratch
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
        self.latch_time = Duration::ZERO;
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

    /// Latches one window's events, then closes it.
    fn process<'a>(fe: &'a mut FrontEnd, events: &[Event]) -> &'a [BoundingBox] {
        fe.accumulate_all(events);
        fe.close_window()
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
        let proposals = process(&mut fe, &block_events(60, 90, 30, 15));
        assert_eq!(proposals.len(), 1);
        assert!(proposals[0].intersection(&BoundingBox::new(60.0, 90.0, 30.0, 15.0)).is_some());
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_frames() {
        let mut fe = frontend();
        assert_eq!(process(&mut fe, &block_events(60, 90, 30, 15)).len(), 1);
        // An empty frame afterwards: the scratch buffers must be fully
        // refreshed, producing no stale proposals.
        assert!(process(&mut fe, &[]).is_empty());
        assert_eq!(fe.last_denoised().count_ones(), 0);
    }

    #[test]
    fn roe_filtering_is_applied() {
        let roe = RegionOfExclusion::new(vec![BoundingBox::new(0.0, 0.0, 120.0, 180.0)]);
        let cfg = EbbiotConfig::paper_default(SensorGeometry::davis240()).with_roe(roe);
        let mut fe = FrontEnd::new(&cfg);
        assert!(process(&mut fe, &block_events(10, 10, 30, 20)).is_empty());
        assert_eq!(process(&mut fe, &block_events(150, 90, 30, 20)).len(), 1);
    }

    #[test]
    fn ops_accumulate_per_block() {
        let mut fe = frontend();
        let _ = process(&mut fe, &block_events(60, 90, 30, 15));
        let ops = fe.ops();
        assert!(ops.ebbi.total() > 0);
        assert!(ops.median.total() > 0);
        assert!(ops.rpn.total() > 0);
        fe.reset_ops();
        assert_eq!(fe.ops().median.total(), 0);
    }

    #[test]
    fn the_median_is_charged_as_if_it_counted_the_ebbi_itself() {
        // The front end hands the median the latch's own pixel count.
        // However the window was latched (repeated events, a latched
        // image, a restored latch), the charge equals that of a median
        // that counts the EBBI's pixels itself.
        let geometry = SensorGeometry::davis240();
        let mut repeated = block_events(60, 90, 30, 15);
        repeated.extend(block_events(70, 0, 5, 3));
        repeated.extend(block_events(60, 90, 30, 15));
        let mut image = BinaryImage::new(geometry);
        for (x, y) in [(0, 0), (5, 5), (6, 5), (239, 179), (239, 0)] {
            image.set(x, y, true);
        }
        let mut fe = frontend();
        for window in 0..3 {
            fe.reset_ops();
            match window {
                0 => fe.accumulate_all(&repeated),
                1 => fe.latch_image(&image),
                _ => fe.restore_latch(&image, 5),
            }
            let _ = fe.close_window();
            let mut median = MedianFilter::paper_default();
            median.apply_into(fe.last_ebbi(), &mut BinaryImage::new(geometry));
            assert_eq!(fe.ops().median, *median.ops());
        }
    }

    #[test]
    fn reset_clears_frame_state() {
        let mut fe = frontend();
        let _ = process(&mut fe, &block_events(60, 90, 30, 15));
        fe.reset();
        assert!(process(&mut fe, &[]).is_empty());
    }
}
