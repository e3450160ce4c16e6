//! **Accuracy gate** — CLEAR-MOT and precision/recall over the full
//! scenario × back-end matrix, with per-cell regression floors.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_accuracy -- \
//!     [--seed N] [--scenario NAME] [--smoke]
//! ```
//!
//! Every scenario in [`ebbiot_sim::SCENARIO_MATRIX`] is simulated once
//! per run (deterministically from `--seed`), then evaluated under every
//! registered back-end. The full matrix is printed as a table and
//! written to `BENCH_accuracy.json` (one flat key per cell metric);
//! afterwards each cell is checked against its
//! [`ebbiot_bench::accuracy::floors_for`] floor and the binary panics
//! listing every violation. `--smoke` switches to the CI-sized scenario
//! durations and skips the JSON artifact (so a smoke run never clobbers
//! a full-length measurement) while still asserting every floor.

use ebbiot_baselines::registry::BACKENDS;
use ebbiot_bench::accuracy::{evaluate_cell, floors_for, CellMetrics, MOT_IOU};
use ebbiot_bench::{Flags, JsonReport};
use ebbiot_eval::report::render_table;
use ebbiot_sim::SCENARIO_MATRIX;

fn row(m: &CellMetrics) -> Vec<String> {
    vec![
        m.scenario.to_string(),
        m.backend.to_string(),
        format!("{:.3}", m.mota),
        format!("{:.3}", m.motp),
        format!("{:.3}", m.precision),
        format!("{:.3}", m.recall),
        m.id_switches.to_string(),
        m.fragmentations.to_string(),
        m.misses.to_string(),
        m.false_positives.to_string(),
        m.total_gt.to_string(),
    ]
}

fn main() {
    let flags = Flags::from_env(&["--seed", "--scenario"], &["--smoke"]);
    let smoke = flags.has("--smoke");
    let seed: u64 = flags.get("--seed", 42);
    let only_scenario: Option<String> = flags.opt("--scenario");

    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "accuracy gate: {} scenarios x {} back-ends, seed {}, {mode} durations, IoU {MOT_IOU}",
        SCENARIO_MATRIX.len(),
        BACKENDS.len(),
        seed
    );

    let mut cells: Vec<CellMetrics> = Vec::new();
    for spec in SCENARIO_MATRIX {
        if only_scenario.as_deref().is_some_and(|only| only != spec.name) {
            continue;
        }
        let scenario = (spec.build)();
        let rec = if smoke { scenario.generate_smoke(seed) } else { scenario.generate(seed) };
        println!(
            "  {} ({:.1}s, {} events): {}",
            spec.name,
            rec.duration_us as f64 / 1e6,
            rec.events.len(),
            spec.summary
        );
        for backend in BACKENDS {
            cells.push(evaluate_cell(&scenario, backend, &rec));
        }
    }
    assert!(!cells.is_empty(), "no scenario matched {:?}", only_scenario);

    // Print the full matrix BEFORE asserting floors, so a tripped gate
    // still shows every measured number.
    println!();
    println!(
        "{}",
        render_table(
            &[
                "scenario", "backend", "MOTA", "MOTP", "prec", "recall", "IDsw", "frag", "miss",
                "FP", "GT"
            ],
            &cells.iter().map(row).collect::<Vec<_>>()
        )
    );

    if smoke {
        println!("smoke run: skipping BENCH_accuracy.json");
    } else {
        let mut report = JsonReport::new()
            .str("experiment", "accuracy")
            .u64("seed", seed)
            .u64("scenarios", (cells.len() / BACKENDS.len()) as u64)
            .u64("backends", BACKENDS.len() as u64)
            .f64("iou_threshold", f64::from(MOT_IOU));
        for m in &cells {
            let key = |metric: &str| format!("{}.{}.{metric}", m.scenario, m.backend);
            report = report
                .f64(&key("mota"), m.mota)
                .f64(&key("motp"), m.motp)
                .f64(&key("precision"), m.precision)
                .f64(&key("recall"), m.recall)
                .u64(&key("id_switches"), m.id_switches)
                .u64(&key("fragmentations"), m.fragmentations)
                .u64(&key("misses"), m.misses)
                .u64(&key("false_positives"), m.false_positives)
                .u64(&key("total_gt"), m.total_gt);
        }
        let path = std::path::Path::new("BENCH_accuracy.json");
        report.write(path).expect("write BENCH_accuracy.json");
        println!("wrote {}", path.display());
    }

    let violations: Vec<String> =
        cells.iter().flat_map(|m| floors_for(m.scenario, m.backend).violations(m)).collect();
    assert!(
        violations.is_empty(),
        "accuracy gate FAILED — {} floor violation(s):\n  {}",
        violations.len(),
        violations.join("\n  ")
    );
    println!("accuracy gate passed: all {} cells clear their floors", cells.len());
}
