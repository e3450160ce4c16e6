//! Regenerates **Fig. 2 — interrupt-driven duty-cycled operation**.
//!
//! The paper's figure is a timing diagram; the quantitative claim behind
//! it is that waking every `tF` to process the EBBI lets the processor
//! sleep almost always, whereas event-driven wake-ups at traffic rates
//! never sleep. This harness prints both schedules plus the measured
//! per-frame workload of the EBBIOT pipeline on a simulated recording.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_fig2 -- [--seconds S] [--seed N] [--full]
//! ```

use ebbiot_bench::{ebbiot_config_for, generate_for_harness, harness_args};
use ebbiot_core::{DutyCycleModel, EbbiotPipeline, ProcessorModel};
use ebbiot_eval::report::{render_bar, render_table};
use ebbiot_sim::DatasetPreset;

fn main() {
    let (seconds, seed, full) = harness_args();
    let preset = DatasetPreset::Eng;
    let rec = generate_for_harness(preset, seconds, seed, full, 20.0);

    let mut pipeline = EbbiotPipeline::new(ebbiot_config_for(preset, &rec));
    let _ = pipeline.process_recording(&rec.events, rec.duration_us);
    let ops = pipeline.ops_per_frame().expect("frames were processed");
    let ops_per_frame = ops.total() as f64;
    let event_rate = rec.event_rate_hz();

    let model = DutyCycleModel::new(ProcessorModel::cortex_m4_class(), rec.frame_us);
    let interrupt = model.evaluate(ops_per_frame);
    let event_driven = model.evaluate_event_driven(event_rate, 32.0);

    println!("== Fig. 2: interrupt-driven operation vs event-driven wake-ups ==\n");
    println!("Recording: {rec}");
    println!("Measured EBBIOT workload: {ops_per_frame:.0} ops/frame\n");
    let rows = vec![
        vec![
            "EBBIOT interrupt (tF = 66 ms)".into(),
            format!("{:.2}", interrupt.active_us_per_frame / 1000.0),
            format!("{:.2}%", interrupt.duty_cycle * 100.0),
            format!("{:.3}", interrupt.average_mw),
            format!("{}", interrupt.real_time),
        ],
        vec![
            format!("event-driven ({:.1}k ev/s)", event_rate / 1e3),
            format!("{:.2}", event_driven.active_us_per_frame / 1000.0),
            format!("{:.2}%", event_driven.duty_cycle * 100.0),
            format!("{:.3}", event_driven.average_mw),
            format!("{}", event_driven.real_time),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["Scheme", "awake ms/frame", "duty cycle", "avg power (mW)", "real-time"],
            &rows
        )
    );

    println!("\nTiming diagram over one frame (each char = ~1.3 ms of tF):");
    let slots = 50usize;
    let awake = ((interrupt.duty_cycle * slots as f64).ceil() as usize).clamp(1, slots);
    println!(
        "  EBBIOT:       [{}{}]  (wake at interrupt, then sleep)",
        "W".repeat(awake),
        "s".repeat(slots - awake)
    );
    println!("  event-driven: [{}]  (noise events keep waking the core)", "W".repeat(slots));
    println!("\nAverage power: {}", render_bar(interrupt.average_mw, event_driven.average_mw, 40));
    println!(
        "  EBBIOT {:.3} mW vs event-driven {:.3} mW ({:.0}x lower)",
        interrupt.average_mw,
        event_driven.average_mw,
        event_driven.average_mw / interrupt.average_mw
    );
}
