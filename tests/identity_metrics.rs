//! CLEAR-MOT identity metrics over the EBBIOT pipeline: the OT's
//! prediction-based occlusion handling should preserve identities through
//! crossings, and the end-to-end MOTA on preset traffic should be solidly
//! positive.

use ebbiot::eval::{IdentifiedBox, MotAccumulator};
use ebbiot::prelude::*;
use ebbiot::sim::ScenarioBuilder;
use rand::{rngs::StdRng, SeedableRng};

fn simulate(scene: &Scene, duration: u64, seed: u64) -> Vec<Event> {
    DavisSimulator::new(DavisConfig::default()).simulate(
        scene,
        duration,
        BackgroundNoise::new(0.05),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Runs a pipeline built from `config` over `events` and scores each
/// frame against the scene's objects, sampled at the frame's midpoint.
fn score(scene: &Scene, events: &[Event], duration: u64, config: EbbiotConfig) -> MotAccumulator {
    let mut pipeline = EbbiotPipeline::new(config);
    let mut mot = MotAccumulator::new();
    for frame in pipeline.process_recording(events, duration) {
        let midpoint = frame.t_start + frame.duration / 2;
        let gt: Vec<IdentifiedBox> = scene
            .objects
            .iter()
            .filter_map(|o| {
                o.bbox_at(midpoint).and_then(|b| {
                    let c = b.clipped_to(240.0, 180.0);
                    (c.area() > 30.0).then(|| IdentifiedBox::new(u64::from(o.id), c))
                })
            })
            .collect();
        let pred: Vec<IdentifiedBox> =
            frame.tracks.iter().map(|t| IdentifiedBox::new(t.track_id, t.bbox)).collect();
        mot.add_frame(&gt, &pred, 0.3);
    }
    mot
}

fn run_mot(scene: &Scene, duration: u64, seed: u64) -> MotAccumulator {
    let events = simulate(scene, duration, seed);
    score(scene, &events, duration, EbbiotConfig::paper_default(scene.geometry))
}

#[test]
fn single_car_has_no_identity_errors() {
    let scene = ScenarioBuilder::single_car();
    let mot = run_mot(&scene, 5_000_000, 1);
    assert_eq!(mot.id_switches(), 0);
    assert!(mot.mota() > 0.85, "MOTA {:.3}", mot.mota());
    assert!(mot.motp() > 0.5, "MOTP {:.3}", mot.motp());
}

#[test]
fn crossing_cars_keep_identities() {
    let scene = ScenarioBuilder::crossing_cars();
    let mot = run_mot(&scene, 4_500_000, 2);
    assert!(
        mot.id_switches() <= 4,
        "few identity errors through the crossing, got {}",
        mot.id_switches()
    );
    assert!(mot.mota() > 0.7, "MOTA {:.3}", mot.mota());
}

#[test]
fn convoy_tracks_three_distinct_identities() {
    let scene = ScenarioBuilder::convoy();
    let mot = run_mot(&scene, 9_000_000, 3);
    assert!(mot.mota() > 0.7, "MOTA {:.3}", mot.mota());
    assert!(mot.id_switches() <= 3, "id switches {}", mot.id_switches());
}

#[test]
fn fragmenting_bus_is_one_identity() {
    let scene = ScenarioBuilder::fragmenting_bus();
    let mot = run_mot(&scene, 9_000_000, 4);
    // The coarse histograms + OT merging must hold the bus together:
    // few fragmentations and essentially no identity churn.
    assert!(mot.mota() > 0.75, "MOTA {:.3}", mot.mota());
    assert!(mot.fragmentations() <= 4, "fragmentations {}", mot.fragmentations());
}

#[test]
fn occlusion_lookahead_improves_crossing_mota() {
    let scene = ScenarioBuilder::crossing_cars();
    let events = simulate(&scene, 4_500_000, 5);
    let run = |lookahead: u32| {
        let mut cfg = EbbiotConfig::paper_default(scene.geometry);
        cfg.ot.occlusion_lookahead = lookahead;
        score(&scene, &events, 4_500_000, cfg)
    };
    let with = run(2);
    let without = run(0);
    assert!(
        with.mota() > without.mota(),
        "look-ahead helps: {:.3} vs {:.3}",
        with.mota(),
        without.mota()
    );
}

#[test]
fn preset_traffic_mota_is_positive() {
    // End-to-end identity quality on preset traffic, using simulator
    // ground truth ids.
    let rec = DatasetPreset::Lt4.config().with_duration_s(15.0).generate(9);
    let mut pipeline = EbbiotPipeline::new(EbbiotConfig::paper_default(rec.geometry));
    let frames = pipeline.process_recording(&rec.events, rec.duration_us);
    let mut mot = MotAccumulator::new();
    for (gt_frame, frame) in rec.ground_truth.iter().zip(&frames) {
        let gt: Vec<IdentifiedBox> = gt_frame
            .boxes
            .iter()
            .map(|b| IdentifiedBox::new(u64::from(b.object_id), b.bbox))
            .collect();
        let pred: Vec<IdentifiedBox> =
            frame.tracks.iter().map(|t| IdentifiedBox::new(t.track_id, t.bbox)).collect();
        mot.add_frame(&gt, &pred, 0.3);
    }
    // Cell-aligned (paper-default) boxes cap localization quality, so the
    // detection terms dominate MOTA here; the identity term must stay
    // small in absolute numbers.
    assert!(mot.mota() > 0.15, "MOTA {:.3}", mot.mota());
    assert!(
        mot.id_switches() * 20 <= mot.total_ground_truths(),
        "id switches {} out of {} ground truths",
        mot.id_switches(),
        mot.total_ground_truths()
    );
}
