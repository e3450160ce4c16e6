//! Regenerates **Fig. 5 — total computations/frame and memory relative to
//! EBBIOT**, from the paper's analytic models (Eqs. 1, 2, 5-8), and
//! cross-checks the analytic totals against measured op counters from the
//! instrumented pipelines running on a simulated recording.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_fig5 -- [--seconds S] [--seed N] [--full]
//! ```

use ebbiot_bench::{ebbiot_config_for, generate_for_harness, harness_args};
use ebbiot_core::EbbiotPipeline;
use ebbiot_eval::report::{render_bar, render_table};
use ebbiot_resource::{fig5_comparison, PaperParams};
use ebbiot_sim::DatasetPreset;

fn main() {
    let (seconds, seed, full) = harness_args();

    println!("== Fig. 5: resources relative to EBBIOT (analytic, Eqs. 1-8) ==\n");
    let rows = fig5_comparison(PaperParams::paper());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cost.name.to_string(),
                format!("{:.1}k", r.cost.computes / 1e3),
                format!("{:.2}x", r.relative_computes),
                format!("{:.1}", r.cost.memory_kb()),
                format!("{:.2}x", r.relative_memory),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Pipeline", "computes/frame", "rel. computes", "memory (kB)", "rel. memory"],
            &table
        )
    );

    println!("\nRelative computes:");
    for r in &rows {
        println!(
            "  {:<13} {} {:.2}x",
            r.cost.name,
            render_bar(r.relative_computes, 3.2, 32),
            r.relative_computes
        );
    }
    println!("Relative memory:");
    for r in &rows {
        println!(
            "  {:<13} {} {:.2}x",
            r.cost.name,
            render_bar(r.relative_memory, 7.2, 32),
            r.relative_memory
        );
    }
    println!("\nPaper's claims: EBMS ~3x computes / ~7x memory of EBBIOT; EBBI+KF ~1x.\n");

    // Measured cross-check: instrumented EBBIOT pipeline on ENG traffic.
    let preset = DatasetPreset::Eng;
    let rec = generate_for_harness(preset, seconds, seed, full, 15.0);
    let mut pipeline = EbbiotPipeline::new(ebbiot_config_for(preset, &rec));
    let _ = pipeline.process_recording(&rec.events, rec.duration_us);
    let per_frame = pipeline.ops_per_frame().expect("frames processed");
    println!("Measured EBBIOT ops/frame on {} ({} frames):", rec.name, pipeline.frames_processed());
    let measured = vec![
        vec![
            "EBBI".into(),
            format!("{}", per_frame.ebbi.total()),
            "125.3k (Eq. 1, with median)".into(),
        ],
        vec!["median".into(), format!("{}", per_frame.median.total()), "(in C_EBBI)".into()],
        vec!["RPN".into(), format!("{}", per_frame.rpn.total()), "48.0k (Eq. 5)".into()],
        vec!["OT".into(), format!("{}", per_frame.tracker.total()), "564 (Eq. 6)".into()],
        vec!["total".into(), format!("{}", per_frame.total()), "173.8k".into()],
    ];
    println!("{}", render_table(&["block", "measured ops/frame", "paper analytic"], &measured));
    println!("mean active trackers NT = {:.2} (paper: NT ~ 2)", pipeline.mean_active_trackers());
}
