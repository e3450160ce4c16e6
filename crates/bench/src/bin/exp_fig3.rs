//! Regenerates **Fig. 3 — a sample EBBI with X/Y histogram region
//! proposals**, as ASCII art.
//!
//! Builds one frame containing a fragmenting car (dense edges, quiet
//! interior) the way the paper's figure shows, renders the denoised EBBI,
//! the downsampled histograms, and the resulting merged region proposal.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_fig3 -- [--seed N]
//! ```

use ebbiot_bench::Flags;
use ebbiot_core::rpn::{RegionProposalNetwork, RpnConfig};
use ebbiot_events::SensorGeometry;
use ebbiot_frame::{ebbi::ebbi_from_events, MedianFilter};
use ebbiot_sim::{
    BackgroundNoise, DavisConfig, DavisSimulator, LinearTrajectory, ObjectClass, Scene, SceneObject,
};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let seed = Flags::from_env(&["--seed"], &[]).get("--seed", 42u64);

    // One frame (66 ms) of a car and a bus crossing the view.
    let geometry = SensorGeometry::davis240();
    let mut scene = Scene::new(geometry);
    let (cw, ch) = ObjectClass::Car.nominal_size();
    scene.objects.push(SceneObject {
        id: 1,
        class: ObjectClass::Car,
        width: cw,
        height: ch,
        trajectory: LinearTrajectory::horizontal(60.0, 95.0, 70.0, 0),
        z_order: 1,
        stall: None,
    });
    let (bw, bh) = ObjectClass::Bus.nominal_size();
    scene.objects.push(SceneObject {
        id: 2,
        class: ObjectClass::Bus,
        width: bw,
        height: bh,
        trajectory: LinearTrajectory::horizontal(140.0, 40.0, -45.0, 0),
        z_order: 2,
        stall: None,
    });

    let sim = DavisSimulator::new(DavisConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let events = sim.simulate(&scene, 66_000, BackgroundNoise::new(0.15), &mut rng);

    let ebbi = ebbi_from_events(geometry, &events);
    let filtered = MedianFilter::paper_default().apply(&ebbi);

    let mut rpn = RegionProposalNetwork::new(RpnConfig::paper_default());
    let (proposals, _scaled, hx, hy) = rpn.propose_with_intermediates(&filtered);

    println!("== Fig. 3: sample EBBI with X/Y histogram region proposals ==\n");
    println!(
        "One 66 ms frame: car (x~60-104, y~95-113) and bus (x~137-225, y~40-72); {} raw events.\n",
        events.len()
    );
    println!("Denoised EBBI (downscaled 4x, '#' = any event in 4x4 block):");
    println!("{}", filtered.to_ascii(4));
    println!("H_X (40 bins of s1 = 6 columns each; digits = count, '+' >= 10):");
    println!("  {}", hx.to_ascii());
    println!("H_Y (60 bins of s2 = 3 rows each):");
    println!("  {}", hy.to_ascii());
    println!("\nRegion proposals from run intersections:");
    for (k, p) in proposals.iter().enumerate() {
        println!(
            "  proposal {k}: x=[{:.0}, {:.0}) y=[{:.0}, {:.0})  ({:.0} x {:.0} px)",
            p.x,
            p.x_max(),
            p.y,
            p.y_max(),
            p.w,
            p.h
        );
    }
    println!(
        "\nThe car's front/rear event clusters merge into ONE proposal in the\n\
         coarse histograms (the paper's fragmentation fix); the bus appears\n\
         as a separate region despite its quiet flanks."
    );
}
