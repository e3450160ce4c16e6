//! Hand-built scenes exercising the paper's §II-C mechanisms end to end:
//! dynamic occlusion between crossing vehicles, fragmentation of large
//! flat-sided vehicles, and the region of exclusion.

use ebbiot::prelude::*;
use ebbiot::sim::LinearTrajectory;
use rand::{rngs::StdRng, SeedableRng};

fn geometry() -> SensorGeometry {
    SensorGeometry::davis240()
}

fn simulate(scene: &Scene, duration_us: u64, seed: u64) -> Vec<Event> {
    DavisSimulator::new(DavisConfig::default()).simulate(
        scene,
        duration_us,
        BackgroundNoise::new(0.05),
        &mut StdRng::seed_from_u64(seed),
    )
}

fn object(id: u32, class: ObjectClass, x: f32, y: f32, vx: f32, z: u8) -> SceneObject {
    let (w, h) = class.nominal_size();
    SceneObject {
        id,
        class,
        width: w,
        height: h,
        trajectory: LinearTrajectory::horizontal(x, y, vx, 0),
        z_order: z,
        stall: None,
    }
}

#[test]
fn crossing_vehicles_keep_identities_through_dynamic_occlusion() {
    // Two cars on different lanes crossing mid-frame. The near one
    // (z = 2) briefly occludes the far one.
    let mut scene = Scene::new(geometry());
    scene.objects.push(object(1, ObjectClass::Car, -40.0, 78.0, 60.0, 1));
    scene.objects.push(object(2, ObjectClass::Car, 240.0, 88.0, -60.0, 2));
    let duration = 4_000_000;
    let events = simulate(&scene, duration, 31);

    let mut pipeline = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry()));
    let frames = pipeline.process_recording(&events, duration);

    // Track ids present well before the crossing (~frame 15-20)...
    let ids_at = |k: usize| -> Vec<u64> {
        let mut v: Vec<u64> = frames[k].tracks.iter().map(|t| t.track_id).collect();
        v.sort_unstable();
        v
    };
    let before = ids_at(18);
    assert_eq!(before.len(), 2, "two tracks before the crossing: {before:?}");
    // ...should survive to well after the crossing (~frame 40).
    let after = ids_at(40);
    assert_eq!(after.len(), 2, "two tracks after the crossing: {after:?}");
    assert_eq!(before, after, "identities preserved through occlusion");
}

#[test]
fn bus_is_tracked_as_one_object_despite_sparse_interior() {
    // A bus's flat side generates few interior events (§II-C); the coarse
    // histograms must still propose one region and the OT one track.
    let mut scene = Scene::new(geometry());
    scene.objects.push(object(1, ObjectClass::Bus, -85.0, 70.0, 45.0, 1));
    let duration = 4_000_000;
    let events = simulate(&scene, duration, 32);

    let mut pipeline = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry()));
    let frames = pipeline.process_recording(&events, duration);

    // In the steady middle of the crossing, exactly one track should
    // cover the bus on a large majority of frames.
    let mid: Vec<_> = frames[20..50].iter().collect();
    let single = mid.iter().filter(|f| f.tracks.len() == 1).count();
    assert!(
        single * 10 >= mid.len() * 8,
        "bus tracked as one object in >= 80% of mid frames, got {single}/{}",
        mid.len()
    );
    // And the track's width should approach the bus's (not a fragment).
    let widths: Vec<f32> = mid.iter().filter_map(|f| f.tracks.first().map(|t| t.bbox.w)).collect();
    let mean_w = widths.iter().sum::<f32>() / widths.len().max(1) as f32;
    assert!(mean_w > 55.0, "mean tracked width {mean_w:.1} should approach the 85 px bus");
}

#[test]
fn roe_suppresses_flicker_tracks_entirely() {
    // Only a flickering "tree" in the corner, no vehicles.
    let mut scene = Scene::new(geometry());
    scene.flickers.push(ebbiot::sim::Flicker {
        region: PixelBox::new(10, 10, 50, 40),
        rate_hz_per_pixel: 30.0,
    });
    let duration = 3_000_000;
    let events = simulate(&scene, duration, 33);
    assert!(!events.is_empty());

    // Without ROE the flicker can produce junk tracks...
    let mut without = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry()));
    let frames_without = without.process_recording(&events, duration);
    let junk: usize = frames_without.iter().map(|f| f.tracks.len()).sum();

    // ...with ROE it must produce none.
    let roe = RegionOfExclusion::new(vec![BoundingBox::new(4.0, 7.0, 52.0, 39.0)]);
    let mut with = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry()).with_roe(roe));
    let frames_with = with.process_recording(&events, duration);
    let masked: usize = frames_with.iter().map(|f| f.tracks.len()).sum();
    assert_eq!(masked, 0, "ROE masks the distractor completely");
    assert!(junk >= masked, "ROE can only reduce tracks ({junk} -> {masked})");
}

#[test]
fn vehicle_outside_roe_is_unaffected_by_roe() {
    let mut scene = Scene::new(geometry());
    scene.objects.push(object(1, ObjectClass::Car, -40.0, 120.0, 60.0, 1));
    let duration = 3_000_000;
    let events = simulate(&scene, duration, 34);

    let roe = RegionOfExclusion::new(vec![BoundingBox::new(0.0, 0.0, 60.0, 50.0)]);
    let run = |config: EbbiotConfig| {
        let mut p = EbbiotPipeline::new(config);
        p.process_recording(&events, duration).iter().map(|f| f.tracks.len()).sum::<usize>()
    };
    let with = run(EbbiotConfig::paper_default(geometry()).with_roe(roe));
    let without = run(EbbiotConfig::paper_default(geometry()));
    assert_eq!(with, without, "car at y=120 never touches the corner ROE");
    assert!(with > 0);
}

#[test]
fn sub_pixel_humans_are_invisible_to_fast_pipeline_but_not_two_timescale() {
    let mut scene = Scene::new(geometry());
    scene.objects.push(object(1, ObjectClass::Human, 60.0, 100.0, 7.0, 1));
    let duration = 8_000_000;
    let events = simulate(&scene, duration, 35);

    // Fast pipeline: nothing (the paper: "we have not tracked slow and
    // small objects like humans").
    let mut fast = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry()));
    let fast_tracks: usize =
        fast.process_recording(&events, duration).iter().map(|f| f.tracks.len()).sum();

    // Two-timescale extension: the slow stream accumulates the walker.
    let config = TwoTimescaleConfig::paper_extension(EbbiotConfig::paper_default(geometry()));
    let mut two = TwoTimescalePipeline::new(config);
    let slow_tracks: usize =
        two.process_recording(&events, duration).iter().map(|r| r.slow_tracks.len()).sum();
    assert!(
        slow_tracks > fast_tracks,
        "two-timescale finds the walker (slow {slow_tracks} vs fast {fast_tracks})"
    );
    assert!(slow_tracks > 0);
}
