//! Regenerates **Fig. 4 — precision and recall vs IoU threshold** for
//! EBMS, KF and EBBIOT, weighted across recordings by ground-truth
//! tracks.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_fig4 -- [--seconds S] [--seed N] [--full]
//! ```

use ebbiot_baselines::registry::BACKENDS;
use ebbiot_bench::{fig4_sweep, generate_for_harness, harness_args, run_backend};
use ebbiot_eval::{
    report::{render_pr_sweep, render_table},
    sweep::fig4_thresholds,
    weighted_average,
};
use ebbiot_sim::DatasetPreset;

fn main() {
    let (seconds, seed, full) = harness_args();

    println!("== Fig. 4: precision/recall vs IoU threshold (EBMS, KF, EBBIOT) ==\n");

    let thresholds = fig4_thresholds();
    // Per registered back-end, per-threshold, accumulate (pr, weight) per
    // recording.
    type WeightedPrs = Vec<Vec<(ebbiot_eval::PrecisionRecall, usize)>>;
    let mut per_tracker: Vec<(&str, WeightedPrs)> =
        BACKENDS.iter().map(|spec| (spec.label, vec![Vec::new(); thresholds.len()])).collect();

    for preset in DatasetPreset::all() {
        let rec = generate_for_harness(preset, seconds, seed, full, 40.0);
        let weight = rec.num_tracks().max(1);
        println!("{rec}");
        for (tracker_idx, spec) in BACKENDS.iter().enumerate() {
            let sweep = fig4_sweep(&rec, &run_backend(spec, preset, &rec));
            for (t_idx, eval) in sweep.iter().enumerate() {
                per_tracker[tracker_idx].1[t_idx].push((eval.pr, weight));
            }
        }
    }

    println!("\nTrack-weighted average across recordings:\n");
    let named: Vec<(&str, Vec<ebbiot_eval::RecordingEval>)> = per_tracker
        .iter()
        .map(|(name, per_thr)| {
            let evals: Vec<ebbiot_eval::RecordingEval> = per_thr
                .iter()
                .zip(&thresholds)
                .map(|(prs, &thr)| {
                    let pr = weighted_average(prs);
                    ebbiot_eval::RecordingEval {
                        iou_threshold: thr,
                        pr,
                        true_positives: 0,
                        proposals: 0,
                        ground_truths: 0,
                    }
                })
                .collect();
            (*name, evals)
        })
        .collect();
    println!("{}", render_pr_sweep(&named));

    // Shape summary at the paper's canonical IoU = 0.5.
    let at = |name: &str| {
        named
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, evals)| evals[4].pr)
            .expect("tracker present")
    };
    let (ebms, kf, ebbiot) = (at("EBMS"), at("KF"), at("EBBIOT"));
    println!("\nShape check at IoU 0.5 (paper: EBBIOT outperforms both, most stable):");
    let rows = vec![
        vec!["EBMS".into(), format!("{:.3}", ebms.precision), format!("{:.3}", ebms.recall)],
        vec!["KF".into(), format!("{:.3}", kf.precision), format!("{:.3}", kf.recall)],
        vec!["EBBIOT".into(), format!("{:.3}", ebbiot.precision), format!("{:.3}", ebbiot.recall)],
    ];
    println!("{}", render_table(&["Tracker", "Precision", "Recall"], &rows));
    println!(
        "F1 at IoU 0.5: EBMS {:.3}, KF {:.3}, EBBIOT {:.3} -> EBBIOT best: {}",
        ebms.f1(),
        kf.f1(),
        ebbiot.f1(),
        ebbiot.f1() >= kf.f1() && ebbiot.f1() >= ebms.f1()
    );
}
