//! Head-to-head: EBBIOT vs the Kalman-filter tracker vs NN-filt + EBMS on
//! the same simulated recording — the Fig. 4 story in miniature.
//!
//! ```text
//! cargo run --release --example tracker_comparison
//! ```

use ebbiot::prelude::*;

fn boxes_of(frames: &[FrameResult]) -> Vec<Vec<BoundingBox>> {
    frames.iter().map(|f| f.tracks.iter().map(|t| t.bbox).collect()).collect()
}

fn main() {
    let recording = DatasetPreset::Lt4.config().with_duration_s(20.0).generate(3);
    println!("Recording: {recording}\n");

    let gt: Vec<Vec<BoundingBox>> =
        recording.ground_truth.iter().map(|f| f.boxes.iter().map(|b| b.bbox).collect()).collect();

    // EBBIOT.
    let mut ebbiot = EbbiotPipeline::new(EbbiotConfig::paper_default(recording.geometry));
    let ebbiot_frames = ebbiot.process_recording(&recording.events, recording.duration_us);

    // Same front end, Kalman tracker.
    let config = EbbiotConfig::paper_default(recording.geometry);
    let mut kf = registry::build_pipeline("ebbi-kf", config.clone()).expect("registered");
    let kf_frames = kf.process_recording(&recording.events, recording.duration_us);

    // Fully event-based: NN-filter + EBMS, built concretely so its
    // filter statistics stay reachable through `tracker()`.
    let tracker = NnEbmsTracker::new(recording.geometry, EbmsConfig::paper_default());
    let mut ebms = Pipeline::with_tracker(config.with_frame_us(recording.frame_us), tracker);
    let ebms_frames = ebms.process_recording(&recording.events, recording.duration_us);

    let thresholds = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    println!(
        "{:<8} {:>18} {:>18} {:>18}",
        "IoU thr", "EBMS (P / R)", "KF (P / R)", "EBBIOT (P / R)"
    );
    for &thr in &thresholds {
        let e = evaluate_frames(&gt, &boxes_of(&ebms_frames), thr).pr;
        let k = evaluate_frames(&gt, &boxes_of(&kf_frames), thr).pr;
        let b = evaluate_frames(&gt, &boxes_of(&ebbiot_frames), thr).pr;
        println!(
            "{:<8.1} {:>8.3} / {:<8.3} {:>8.3} / {:<8.3} {:>8.3} / {:<8.3}",
            thr, e.precision, e.recall, k.precision, k.recall, b.precision, b.recall
        );
    }

    println!("\nWhy the ordering comes out this way:");
    println!("- EBMS uses fixed-extent clusters: large vehicles fragment into several");
    println!("  clusters and box IoU vs ground truth stays low.");
    println!("- The KF tracks centroids; its boxes lag size changes and fragmented");
    println!("  proposals spawn duplicate tracks.");
    println!("- EBBIOT's coarse histograms merge fragments before tracking and the OT");
    println!("  carries full boxes with prediction-based occlusion handling.");
    println!(
        "\nEBMS diagnostic: NN-filter kept {:.0}% of events, {:.0} filtered events/frame (paper N_F ~ 650).",
        ebms.tracker().keep_fraction() * 100.0,
        ebms.tracker().filtered_events_per_frame()
    );
}
