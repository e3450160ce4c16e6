//! Regenerates **Table I — Dataset Details**.
//!
//! Prints the paper's values next to the simulated recordings' measured
//! duration, event count and rate. Usage:
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_table1 -- [--seconds S] [--seed N] [--full]
//! ```

use ebbiot_bench::{generate_for_harness, harness_args};
use ebbiot_eval::report::render_table;
use ebbiot_sim::DatasetPreset;

fn main() {
    let (seconds, seed, full) = harness_args();

    println!("== Table I: Dataset Details (paper vs simulated) ==\n");
    let mut rows = Vec::new();
    for preset in DatasetPreset::all() {
        let rec = generate_for_harness(preset, seconds, seed, full, 30.0);
        let stats = rec.stats();
        rows.push(vec![
            preset.name().to_string(),
            format!("{:.0}", preset.lens_mm()),
            format!("{:.1}", preset.paper_duration_s()),
            format!("{:.1}M", preset.paper_event_count() as f64 / 1e6),
            format!("{:.1}k", preset.paper_event_rate_hz() / 1e3),
            format!("{:.1}", rec.duration_s()),
            format!("{:.2}M", stats.num_events as f64 / 1e6),
            format!("{:.1}k", rec.event_rate_hz() / 1e3),
            format!("{}", rec.num_tracks()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Location",
                "Lens(mm)",
                "Paper dur(s)",
                "Paper events",
                "Paper ev/s",
                "Sim dur(s)",
                "Sim events",
                "Sim ev/s",
                "Sim GT tracks",
            ],
            &rows,
        )
    );
    println!("Note: simulated durations default to short slices for quick runs;");
    println!("use --full for the paper's 2998.4 s / 999.5 s recordings.");
}
