//! Accuracy ablations for the design choices ARCHITECTURE.md §1 describes:
//!
//! 1. proposal refinement off (paper) vs on (extension) — effect on the
//!    Fig. 4 ordering,
//! 2. histogram RPN vs CCA RPN,
//! 3. OT occlusion look-ahead on vs off (identity metrics on a scripted
//!    crossing),
//! 4. ROE on vs off against a flicker distractor.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_ablations -- [--seconds S] [--seed N]
//! ```

use ebbiot_bench::{gt_boxes, Flags};
use ebbiot_core::{
    rpn::RpnConfig, tracker::OtConfig, EbbiotConfig, EbbiotPipeline, RegionOfExclusion, RpnMode,
};
use ebbiot_eval::{evaluate_frames, report::render_table, IdentifiedBox, MotAccumulator};
use ebbiot_events::stream::FrameWindows;
use ebbiot_frame::BoundingBox;
use ebbiot_sim::{BackgroundNoise, DatasetPreset, DavisConfig, DavisSimulator, ScenarioBuilder};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let flags = Flags::from_env(&["--seconds", "--seed"], &[]);
    let seed: u64 = flags.get("--seed", 42);
    let rec =
        DatasetPreset::Lt4.config().with_duration_s(flags.get("--seconds", 20.0)).generate(seed);
    let gt = gt_boxes(&rec);
    println!("Workload: {rec}\n");

    // ------------------------------------------------------------------
    // 1 + 2: RPN variants on the same recording.
    // ------------------------------------------------------------------
    println!("== RPN ablations (F1 at IoU 0.4 / 0.5) ==\n");
    let variants: Vec<(&str, RpnConfig)> = vec![
        ("histogram (paper)", RpnConfig::paper_default()),
        ("histogram + refinement", RpnConfig::refined()),
        (
            "CCA (future work)",
            RpnConfig { mode: RpnMode::ConnectedComponents, ..RpnConfig::paper_default() },
        ),
        (
            "CCA + refinement",
            RpnConfig {
                mode: RpnMode::ConnectedComponents,
                refine_boxes: true,
                ..RpnConfig::paper_default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, rpn) in variants {
        let mut cfg = EbbiotConfig::paper_default(rec.geometry);
        cfg.rpn = rpn;
        let mut pipeline = EbbiotPipeline::new(cfg);
        let frames = pipeline.process_recording(&rec.events, rec.duration_us);
        let pred: Vec<Vec<BoundingBox>> =
            frames.iter().map(|f| f.tracks.iter().map(|t| t.bbox).collect()).collect();
        let f1 = |thr: f32| evaluate_frames(&gt, &pred, thr).pr.f1();
        rows.push(vec![name.to_string(), format!("{:.3}", f1(0.4)), format!("{:.3}", f1(0.5))]);
    }
    println!("{}", render_table(&["RPN variant", "F1 @0.4", "F1 @0.5"], &rows));

    // ------------------------------------------------------------------
    // 3: occlusion look-ahead on a scripted crossing.
    // ------------------------------------------------------------------
    println!("\n== OT occlusion look-ahead (scripted crossing, IoU 0.3) ==\n");
    let scene = ScenarioBuilder::crossing_cars();
    let duration = 4_500_000u64;
    let events = DavisSimulator::new(DavisConfig::default()).simulate(
        &scene,
        duration,
        BackgroundNoise::new(0.05),
        &mut StdRng::seed_from_u64(seed),
    );
    let mut rows = Vec::new();
    for (name, lookahead) in [("with look-ahead (n = 2)", 2u32), ("without (n = 0)", 0)] {
        let mut cfg = EbbiotConfig::paper_default(scene.geometry);
        cfg.ot = OtConfig { occlusion_lookahead: lookahead, ..cfg.ot };
        let mut pipeline = EbbiotPipeline::new(cfg);
        let mut mot = MotAccumulator::new();
        for frame in pipeline.process_recording(&events, duration) {
            let midpoint = frame.t_start + frame.duration / 2;
            let gt_boxes: Vec<IdentifiedBox> = scene
                .objects
                .iter()
                .filter_map(|o| {
                    o.bbox_at(midpoint).and_then(|b| {
                        let c = b.clipped_to(240.0, 180.0);
                        (c.area() > 25.0).then(|| IdentifiedBox::new(u64::from(o.id), c))
                    })
                })
                .collect();
            let pred: Vec<IdentifiedBox> =
                frame.tracks.iter().map(|t| IdentifiedBox::new(t.track_id, t.bbox)).collect();
            mot.add_frame(&gt_boxes, &pred, 0.3);
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", mot.mota()),
            format!("{}", mot.id_switches()),
            format!("{}", mot.fragmentations()),
            format!("{}", mot.misses()),
        ]);
    }
    println!(
        "{}",
        render_table(&["OT variant", "MOTA", "ID switches", "fragmentations", "misses"], &rows)
    );

    // ------------------------------------------------------------------
    // 4: ROE against a flicker distractor.
    // ------------------------------------------------------------------
    println!("\n== ROE ablation (flickering foliage + one car, IoU 0.3) ==\n");
    let scene = ScenarioBuilder::flicker_and_car();
    let duration = 4_500_000u64;
    let events = DavisSimulator::new(DavisConfig::default()).simulate(
        &scene,
        duration,
        BackgroundNoise::new(0.05),
        &mut StdRng::seed_from_u64(seed + 1),
    );
    let gt_frames: Vec<Vec<BoundingBox>> = FrameWindows::with_span(&events, 66_000, duration)
        .map(|w| {
            scene
                .objects
                .iter()
                .filter_map(|o| o.bbox_at(w.midpoint()))
                .map(|b| b.clipped_to(240.0, 180.0))
                .filter(|b| b.area() > 25.0)
                .collect()
        })
        .collect();
    let mut rows = Vec::new();
    for (name, roe) in [
        ("with ROE", RegionOfExclusion::new(vec![BoundingBox::new(2.0, 5.0, 52.0, 38.0)])),
        ("without ROE", RegionOfExclusion::none()),
    ] {
        let cfg = EbbiotConfig::paper_default(scene.geometry).with_roe(roe);
        let mut pipeline = EbbiotPipeline::new(cfg);
        let frames = pipeline.process_recording(&events, duration);
        let pred: Vec<Vec<BoundingBox>> =
            frames.iter().map(|f| f.tracks.iter().map(|t| t.bbox).collect()).collect();
        let e = evaluate_frames(&gt_frames, &pred, 0.3);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", e.pr.precision),
            format!("{:.3}", e.pr.recall),
            format!("{}", e.proposals),
        ]);
    }
    println!("{}", render_table(&["Variant", "Precision", "Recall", "total boxes"], &rows));
}
