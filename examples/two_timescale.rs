//! The conclusion's two-timescale extension: a second, long-exposure EBBI
//! stream tracks slow/small objects (pedestrians) that the 66 ms fast
//! pipeline provably misses.
//!
//! ```text
//! cargo run --release --example two_timescale
//! ```

use ebbiot::prelude::*;
use ebbiot::sim::LinearTrajectory;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let geometry = SensorGeometry::davis240();

    // A scene with one car (fast) and one pedestrian (slow: ~0.4 px/frame).
    let mut scene = Scene::new(geometry);
    let (cw, ch) = ObjectClass::Car.nominal_size();
    scene.objects.push(SceneObject {
        id: 1,
        class: ObjectClass::Car,
        width: cw,
        height: ch,
        trajectory: LinearTrajectory::horizontal(-cw, 60.0, 55.0, 0),
        z_order: 1,
        stall: None,
    });
    let (hw, hh) = ObjectClass::Human.nominal_size();
    scene.objects.push(SceneObject {
        id: 2,
        class: ObjectClass::Human,
        width: hw,
        height: hh,
        trajectory: LinearTrajectory::horizontal(40.0, 120.0, 6.0, 0),
        z_order: 2,
        stall: None,
    });

    let duration = 10_000_000u64;
    let events = DavisSimulator::new(DavisConfig::default()).simulate(
        &scene,
        duration,
        BackgroundNoise::new(0.08),
        &mut StdRng::seed_from_u64(3),
    );
    println!(
        "Scene: one car at 55 px/s (3.6 px/frame) and one pedestrian at 6 px/s \
         (0.4 px/frame); {} events over 10 s.\n",
        events.len()
    );

    let fast_config = EbbiotConfig::paper_default(geometry);
    let config = TwoTimescaleConfig::paper_extension(fast_config);
    println!(
        "Fast exposure: 66 ms.  Slow exposure: {} ms sliding by {} frames.\n",
        config.slow_factor * 66,
        config.slow_stride
    );
    let mut pipeline = TwoTimescalePipeline::new(config);

    let mut fast_frames_with_tracks = 0usize;
    let mut slow_frames_with_tracks = 0usize;
    let mut human_hits = 0usize;
    let mut total = 0usize;
    for result in pipeline.process_recording(&events, duration) {
        let (index, midpoint) = (result.fast.index, result.fast.t_start + result.fast.duration / 2);
        total += 1;
        if !result.fast.tracks.is_empty() {
            fast_frames_with_tracks += 1;
        }
        if !result.slow_tracks.is_empty() {
            slow_frames_with_tracks += 1;
        }
        // Does any slow track cover the pedestrian?
        if let Some(gt) = scene.objects[1].bbox_at(midpoint) {
            if result.slow_tracks.iter().any(|t| t.bbox.iou(&gt) > 0.2) {
                human_hits += 1;
            }
        }
        if index % 30 == 0 && (!result.fast.tracks.is_empty() || !result.slow_tracks.is_empty()) {
            print!("frame {index:>3}:");
            for t in &result.fast.tracks {
                print!(" fast[{:.0},{:.0} {:.0}x{:.0}]", t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h);
            }
            for t in &result.slow_tracks {
                print!(" SLOW[{:.0},{:.0} {:.0}x{:.0}]", t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h);
            }
            println!();
        }
    }

    println!("\nOver {total} fast frames:");
    println!("  frames with fast tracks (the car):        {fast_frames_with_tracks}");
    println!("  frames with slow tracks (the pedestrian): {slow_frames_with_tracks}");
    println!("  slow track covering the pedestrian (IoU > 0.2): {human_hits} frames");
    println!(
        "\nThe fast pipeline's median filter erases the pedestrian's ~1 px/frame\n\
         strips; the sliding 528 ms exposure accumulates them into a trackable\n\
         silhouette — the paper's proposed two-timescale fix, working."
    );
}
