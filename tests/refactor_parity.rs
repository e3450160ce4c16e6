//! Refactor parity: the `FrontEnd` + `Tracker` pipelines must reproduce
//! the pre-refactor monolithic implementations **bit for bit**.
//!
//! The reference implementations below are transcriptions of the seed's
//! monolithic EBBIOT, EBBI+KF and NN-filt+EBMS loops (each of which
//! hand-rolled the EBBI → median → RPN → ROE chain inline), built from
//! the same primitives. They window with `FrameWindows`, independently
//! of the pipelines' own streaming windower, so they are the windowing
//! oracle too. Every refactored pipeline — batch or chunked-streaming —
//! must emit identical `FrameResult` sequences on a fixed-seed LT4
//! recording.

use ebbiot::baselines::{
    registry, EbmsConfig, EbmsTracker, KalmanConfig, KalmanTracker, NnEbmsTracker,
};
use ebbiot::core::{EbbiotConfig, EbbiotPipeline, FrameResult, OverlapTracker, Pipeline, TrackBox};
use ebbiot::events::stream::FrameWindows;
use ebbiot::events::{Event, Micros, OpsCounter};
use ebbiot::filters::NnFilter;
use ebbiot::frame::{EbbiAccumulator, MedianFilter};
use ebbiot::prelude::*;

fn recording() -> SimulatedRecording {
    DatasetPreset::Lt4.config().with_duration_s(2.0).generate(7)
}

/// The seed's monolithic EBBIOT loop (pipeline.rs pre-refactor).
fn monolithic_ebbiot(config: &EbbiotConfig, events: &[Event], span_us: Micros) -> Vec<FrameResult> {
    let mut accumulator = EbbiAccumulator::new(config.geometry);
    let mut median = MedianFilter::new(config.median_patch);
    let mut rpn = ebbiot::core::RegionProposalNetwork::new(config.rpn);
    let mut tracker = OverlapTracker::new(config.geometry, config.ot);
    let mut roe_ops = OpsCounter::new();
    FrameWindows::with_span(events, config.frame_us, span_us)
        .map(|w| {
            accumulator.accumulate_all(w.events);
            let num_events = accumulator.events_seen() as usize;
            let ebbi = accumulator.readout();
            let filtered = median.apply(&ebbi);
            let raw = rpn.propose(&filtered);
            let proposals = config.roe.filter(&raw, &mut roe_ops);
            let confirmed = tracker.step(&proposals);
            FrameResult {
                index: w.index,
                t_start: w.start,
                duration: config.frame_us,
                tracks: confirmed
                    .iter()
                    .map(|t| TrackBox {
                        track_id: t.id,
                        bbox: t.bbox,
                        velocity: (t.vx, t.vy),
                        occluded: t.occluded,
                    })
                    .collect(),
                num_proposals: proposals.len(),
                num_events,
            }
        })
        .collect()
}

/// The seed's monolithic EBBI+KF loop (baselines/pipelines.rs
/// pre-refactor) — same hand-rolled front-end, Kalman back-end.
fn monolithic_ebbi_kf(
    config: &EbbiotConfig,
    kf: KalmanConfig,
    events: &[Event],
    span_us: Micros,
) -> Vec<FrameResult> {
    let mut accumulator = EbbiAccumulator::new(config.geometry);
    let mut median = MedianFilter::new(config.median_patch);
    let mut rpn = ebbiot::core::RegionProposalNetwork::new(config.rpn);
    let mut tracker = KalmanTracker::new(config.geometry, kf);
    let mut roe_ops = OpsCounter::new();
    FrameWindows::with_span(events, config.frame_us, span_us)
        .map(|w| {
            accumulator.accumulate_all(w.events);
            let num_events = accumulator.events_seen() as usize;
            let ebbi = accumulator.readout();
            let filtered = median.apply(&ebbi);
            let raw = rpn.propose(&filtered);
            let proposals = config.roe.filter(&raw, &mut roe_ops);
            let outputs = tracker.step(&proposals);
            FrameResult {
                index: w.index,
                t_start: w.start,
                duration: config.frame_us,
                tracks: outputs
                    .into_iter()
                    .map(|o| TrackBox {
                        track_id: o.id,
                        bbox: o.bbox,
                        velocity: o.velocity,
                        occluded: false,
                    })
                    .collect(),
                num_proposals: proposals.len(),
                num_events,
            }
        })
        .collect()
}

/// The seed's monolithic NN-filt + EBMS loop.
fn monolithic_nn_ebms(
    geometry: ebbiot::events::SensorGeometry,
    frame_us: Micros,
    ebms: EbmsConfig,
    events: &[Event],
    span_us: Micros,
) -> Vec<FrameResult> {
    let mut filter = NnFilter::paper_default(geometry);
    let mut tracker = EbmsTracker::new(geometry, ebms);
    FrameWindows::with_span(events, frame_us, span_us)
        .map(|w| {
            for e in w.events {
                if filter.keep(e) {
                    tracker.process_event(e);
                }
            }
            tracker.maintain(w.end());
            FrameResult {
                index: w.index,
                t_start: w.start,
                duration: frame_us,
                tracks: tracker
                    .visible()
                    .into_iter()
                    .map(|o| TrackBox {
                        track_id: o.id,
                        bbox: o.bbox,
                        velocity: (
                            o.velocity.0 * frame_us as f32 / 1e6,
                            o.velocity.1 * frame_us as f32 / 1e6,
                        ),
                        occluded: false,
                    })
                    .collect(),
                num_proposals: 0,
                num_events: w.events.len(),
            }
        })
        .collect()
}

#[test]
fn ebbiot_pipeline_matches_monolithic_reference() {
    let rec = recording();
    let config = EbbiotConfig::paper_default(rec.geometry);
    let expected = monolithic_ebbiot(&config, &rec.events, rec.duration_us);
    let mut pipeline = EbbiotPipeline::new(config);
    let got = pipeline.process_recording(&rec.events, rec.duration_us);
    assert!(!expected.is_empty());
    assert_eq!(got, expected);
}

#[test]
fn ebbi_kf_pipeline_matches_monolithic_reference() {
    let rec = recording();
    let config = EbbiotConfig::paper_default(rec.geometry);
    let expected =
        monolithic_ebbi_kf(&config, KalmanConfig::paper_default(), &rec.events, rec.duration_us);
    let tracker = KalmanTracker::new(config.geometry, KalmanConfig::paper_default());
    let mut pipeline = Pipeline::with_tracker(config, tracker);
    let got = pipeline.process_recording(&rec.events, rec.duration_us);
    assert!(!expected.is_empty());
    assert_eq!(got, expected);
}

#[test]
fn nn_ebms_pipeline_matches_monolithic_reference() {
    let rec = recording();
    let expected = monolithic_nn_ebms(
        rec.geometry,
        rec.frame_us,
        EbmsConfig::paper_default(),
        &rec.events,
        rec.duration_us,
    );
    let config = EbbiotConfig::paper_default(rec.geometry).with_frame_us(rec.frame_us);
    let tracker = NnEbmsTracker::new(rec.geometry, EbmsConfig::paper_default());
    let mut pipeline = Pipeline::with_tracker(config, tracker);
    let got = pipeline.process_recording(&rec.events, rec.duration_us);
    assert!(!expected.is_empty());
    assert_eq!(got, expected);
}

#[test]
fn chunked_streaming_matches_whole_recording_for_every_backend() {
    let rec = recording();
    for spec in registry::BACKENDS {
        let config = EbbiotConfig::paper_default(rec.geometry);
        let mut batch = spec.build(config.clone());
        let expected = batch.process_recording(&rec.events, rec.duration_us);

        for chunk_size in [997usize, 10_000] {
            let mut streaming = spec.build(config.clone());
            let mut got = Vec::new();
            for chunk in rec.events.chunks(chunk_size) {
                got.extend(streaming.push(chunk));
            }
            got.extend(streaming.finish(rec.duration_us));
            assert_eq!(got, expected, "backend {} chunk {chunk_size}", spec.name);
        }
    }
}

#[test]
fn registry_pipelines_match_the_named_wrappers() {
    let rec = recording();
    let config = EbbiotConfig::paper_default(rec.geometry);

    let mut wrapper = EbbiotPipeline::new(config.clone());
    let mut registered = registry::build_pipeline("ebbiot", config).expect("registered");
    assert_eq!(
        wrapper.process_recording(&rec.events, rec.duration_us),
        registered.process_recording(&rec.events, rec.duration_us),
    );
}
