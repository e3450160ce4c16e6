//! **Hot-path kernel experiment** — word-parallel frame kernels vs their
//! scalar per-pixel references, on the frames a simulated fleet produces.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_hotpath -- \
//!     [--seed N] [--budget-ms MS] [--smoke]
//! ```
//!
//! Captures the frame windows of two simulated fleets — LT4 (quiet,
//! sparse frames) and ENG (busy, denser frames) — with their EBBIs and
//! median-filtered EBBIs, then times each kernel pair over that frame
//! rotation: the batched EBBI latch (`accumulate_all`, then
//! `readout_into`) against the one-event-at-a-time `accumulate` loop
//! (then the same readout) on the event windows, the 3x3 median on raw
//! EBBIs, and the (6, 3) block downsample, the axis projections and box
//! counting over tracker-sized boxes on denoised frames, which is what
//! the region proposer and the trackers read. Reports ns/frame and the
//! speedup over the reference per fleet, writes
//! `BENCH_hotpath.json`, and **asserts** the median kernel is at least
//! 3x faster than the scalar reference on both fleets. Parity (bits and
//! op counts) is asserted on every captured frame before timing starts.
//! `--smoke` shrinks the fleets and the timing budget to CI size and
//! skips the JSON artifact while still asserting parity and the floor.

use std::time::{Duration, Instant};

use ebbiot_bench::{tracker_box_tiling, FleetFrames, JsonReport};
use ebbiot_events::OpsCounter;
use ebbiot_frame::{
    reference, Axis, BinaryImage, CountImage, EbbiAccumulator, Histogram, MedianFilter,
};
use ebbiot_sim::DatasetPreset;

struct Args {
    seed: u64,
    budget: Duration,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args { seed: 42, budget: Duration::from_millis(300), smoke: false };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match arg.as_str() {
            "--seed" => parsed.seed = value().parse().expect("--seed <u64>"),
            "--budget-ms" => {
                parsed.budget = Duration::from_millis(value().parse().expect("--budget-ms <u64>"));
            }
            "--smoke" => parsed.smoke = true,
            other => panic!("unknown argument {other}"),
        }
    }
    parsed
}

/// Adaptive wall-clock timer over a frame rotation: runs `f` on
/// successive frames until the budget elapses, returning mean
/// nanoseconds per frame.
fn ns_per_frame<T>(budget: Duration, frames: &[T], mut f: impl FnMut(&T)) -> f64 {
    // Warm-up.
    f(&frames[0]);
    let mut iters = 0usize;
    let started = Instant::now();
    loop {
        f(&frames[iters % frames.len()]);
        iters += 1;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() * 1e9 / iters as f64;
        }
    }
}

/// Asserts every kernel agrees with its scalar reference, op counts
/// included, on every captured frame.
fn assert_parity(frames: &FleetFrames) {
    let geometry = frames.ebbis[0].geometry();
    let mut scratch = BinaryImage::new(geometry);
    let (mut batch, mut single) = (EbbiAccumulator::new(geometry), EbbiAccumulator::new(geometry));
    for (window, ebbi) in frames.windows.iter().zip(&frames.ebbis) {
        batch.accumulate_all(window);
        window.iter().for_each(|e| single.accumulate(e));
        assert_eq!(batch.ops(), single.ops(), "EBBI op parity");
        batch.readout_into(&mut scratch);
        assert_eq!(&scratch, ebbi, "EBBI parity");
        assert_eq!(single.readout(), scratch, "EBBI parity");
    }
    for (ebbi, denoised) in frames.ebbis.iter().zip(&frames.denoised) {
        let mut ref_ops = OpsCounter::new();
        let mut f = MedianFilter::paper_default();
        f.apply_into(ebbi, &mut scratch);
        assert_eq!(scratch, reference::median(ebbi, 3, &mut ref_ops), "median parity");
        assert_eq!(*f.ops(), ref_ops, "median op parity");
        let (mut ops, mut ref_ops) = (OpsCounter::new(), OpsCounter::new());
        let fast = CountImage::downsample(denoised, 6, 3, &mut ops);
        let slow = reference::downsample(denoised, 6, 3, &mut ref_ops);
        assert_eq!(fast, slow, "downsample parity");
        for axis in [Axis::X, Axis::Y] {
            assert_eq!(
                Histogram::project(&fast, axis, &mut ops),
                reference::project(&slow, axis, &mut ref_ops),
                "projection parity"
            );
        }
        assert_eq!(ops, ref_ops, "downsample + projection op parity");
    }
}

/// Times every kernel pair on one fleet's frames, printing a table and
/// adding `<label>_*` fields to the report. Returns the median speedup.
fn measure(
    label: &str,
    frames: &FleetFrames,
    budget: Duration,
    mut report: JsonReport,
) -> (JsonReport, f64) {
    let geometry = frames.ebbis[0].geometry();
    let density =
        |set: &[BinaryImage]| set.iter().map(BinaryImage::density).sum::<f64>() / set.len() as f64;
    let empty_rows = frames
        .denoised
        .iter()
        .flat_map(|img| (0..img.height()).map(move |y| img.row_words(y).iter().all(|&w| w == 0)))
        .filter(|&empty| empty)
        .count() as f64
        / (frames.denoised.len() * geometry.height() as usize) as f64;
    println!(
        "== {label}: {} frames of {geometry}, EBBI alpha {:.2}%, denoised alpha {:.2}%, \
         {:.0}% of denoised rows empty ==",
        frames.ebbis.len(),
        density(&frames.ebbis) * 100.0,
        density(&frames.denoised) * 100.0,
        empty_rows * 100.0
    );

    let mut scratch = BinaryImage::new(geometry);
    let mut acc = EbbiAccumulator::new(geometry);
    let ebbi_word = ns_per_frame(budget, &frames.windows, |events| {
        acc.accumulate_all(events);
        acc.readout_into(&mut scratch);
    });
    let ebbi_ref = ns_per_frame(budget, &frames.windows, |events| {
        events.iter().for_each(|e| acc.accumulate(e));
        acc.readout_into(&mut scratch);
    });

    let mut ops = OpsCounter::new();
    let mut filter = MedianFilter::paper_default();
    let median_word =
        ns_per_frame(budget, &frames.ebbis, |img| filter.apply_into(img, &mut scratch));
    let median_ref = ns_per_frame(budget, &frames.ebbis, |img| {
        reference::median_into(img, 3, &mut scratch, &mut ops);
    });

    let mut scaled = CountImage::default();
    let down_word = ns_per_frame(budget, &frames.denoised, |img| {
        CountImage::downsample_into(img, 6, 3, &mut scaled, &mut ops);
    });
    let down_ref = ns_per_frame(budget, &frames.denoised, |img| {
        std::hint::black_box(reference::downsample(img, 6, 3, &mut ops));
    });

    let scaled_frames: Vec<CountImage> =
        frames.denoised.iter().map(|img| CountImage::downsample(img, 6, 3, &mut ops)).collect();
    let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
    let mut k = 0usize;
    let project_word = ns_per_frame(budget, &frames.denoised, |_| {
        let scaled = &scaled_frames[k % scaled_frames.len()];
        Histogram::project_into(scaled, Axis::X, &mut hx, &mut ops);
        Histogram::project_into(scaled, Axis::Y, &mut hy, &mut ops);
        k += 1;
    });
    let project_ref = ns_per_frame(budget, &frames.denoised, |_| {
        let scaled = &scaled_frames[k % scaled_frames.len()];
        std::hint::black_box(reference::project(scaled, Axis::X, &mut ops));
        std::hint::black_box(reference::project(scaled, Axis::Y, &mut ops));
        k += 1;
    });

    let boxes = tracker_box_tiling(geometry);
    let count_word = ns_per_frame(budget, &frames.denoised, |img| {
        std::hint::black_box(boxes.iter().map(|b| img.count_in_box(b)).sum::<usize>());
    });
    let count_ref = ns_per_frame(budget, &frames.denoised, |img| {
        std::hint::black_box(boxes.iter().map(|b| reference::count_in_box(img, b)).sum::<usize>());
    });

    let rows = [
        ("ebbi", "EBBI latch + readout", ebbi_word, ebbi_ref),
        ("median", "median 3x3 (EBBI)", median_word, median_ref),
        ("downsample", "downsample 6x3", down_word, down_ref),
        ("project", "projections X+Y", project_word, project_ref),
        ("count_in_box", "count_in_box x64", count_word, count_ref),
    ];
    report = report
        .u64(&format!("{label}_frames"), frames.ebbis.len() as u64)
        .f64(&format!("{label}_ebbi_density"), density(&frames.ebbis))
        .f64(&format!("{label}_denoised_density"), density(&frames.denoised))
        .f64(&format!("{label}_denoised_empty_row_share"), empty_rows);
    for (key, name, word, scalar) in rows {
        println!(
            "{name:<20} word {word:>10.0} ns/frame   scalar {scalar:>11.0} ns/frame   \
             speedup {:>7.1}x",
            scalar / word
        );
        report = report
            .f64(&format!("{label}_{key}_word_ns_per_frame"), word)
            .f64(&format!("{label}_{key}_reference_ns_per_frame"), scalar)
            .f64(&format!("{label}_{key}_speedup"), scalar / word);
    }
    println!();
    (report, median_ref / median_word)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse_args(&argv);
    // CI-sized: parity and the speedup floor still hold on a smaller
    // rotation with a short timing budget.
    let (cameras, seconds) = if args.smoke { (1, 1.0) } else { (4, 4.0) };
    if args.smoke {
        args.budget = args.budget.min(Duration::from_millis(50));
    }
    let mut report = JsonReport::new()
        .str("experiment", "hotpath")
        .u64("seed", args.seed)
        .u64("cameras", cameras as u64)
        .f64("seconds_per_camera", seconds);
    let mut median_speedups = Vec::new();
    for (label, preset) in [("lt4", DatasetPreset::Lt4), ("eng", DatasetPreset::Eng)] {
        let frames = FleetFrames::capture(preset, cameras, seconds, args.seed);
        assert_parity(&frames);
        let (next, median_speedup) = measure(label, &frames, args.budget, report);
        report = next;
        median_speedups.push((label, median_speedup));
    }
    let floor_held = median_speedups.iter().all(|&(_, s)| s >= 3.0);

    // Skipped in smoke mode so CI-sized runs never clobber the tracked
    // numbers.
    if args.smoke {
        println!("--smoke: skipping BENCH_hotpath.json");
    } else {
        report
            .bool("median_speedup_at_least_3x", floor_held)
            .write(std::path::Path::new("BENCH_hotpath.json"))
            .expect("write BENCH_hotpath.json");
        println!("wrote BENCH_hotpath.json");
    }

    assert!(
        floor_held,
        "word-parallel median must be >= 3x the scalar reference on every fleet, measured \
         {median_speedups:?}"
    );
}
