//! **Hot-path kernel experiment** — word-parallel frame kernels vs their
//! scalar per-pixel references, on the frames a simulated fleet produces.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_hotpath -- \
//!     [--seed N] [--budget-ms MS] [--smoke]
//! ```
//!
//! Captures the frame windows of two simulated fleets — LT4 (quiet,
//! sparse frames) and ENG (busy, denser frames) — with their EBBIs,
//! median-filtered EBBIs and the rows the median wrote, plus each
//! camera's events in the replay benchmark's 1,024-event chunks. Then
//! times each hot-path kernel against its scalar reference over that
//! rotation:
//! - `ebbi`: the batched EBBI latch (`accumulate_all`, then
//!   `readout_into`) against the one-event-at-a-time `accumulate` loop
//!   (then the same readout), on the event windows;
//! - `median`: the 3x3 median on raw EBBIs, given each frame's set-pixel
//!   count as the front end's latch hands it over; the instance the CPU
//!   selects (AVX2 where available for rows of at most 256 px) is also
//!   timed against the portable word kernel every other host runs, in
//!   alternating slices;
//! - `rpn`: the region proposer's projection of the median's rows
//!   straight into `H_X`/`H_Y` plus the run search on both, against the
//!   count-image downsample, the two projections and the same runs, on
//!   denoised frames;
//! - `count_in_box`: box counting over tracker-sized boxes on denoised
//!   frames, what the trackers read;
//! - `decode` and `encode`: the bit-packed EBST chunk codec on the
//!   fleet's full chunks, in ns/event, timed against each other (the
//!   codec has one implementation, so these rows have no reference);
//!   the report adds the payload's bytes per event;
//! - `crc`: the slice-by-16 CRC-32 against the one-byte-at-a-time
//!   reference, over the same chunks' payloads, in ns/byte.
//! - `telemetry`: a sequential `ebbiot` pass over each camera with the
//!   per-stage timers attached (`with_stage_telemetry`) against the
//!   same pass without them, in µs per camera.
//!
//! Reports ns per frame (per event for `decode` and `encode`, per byte
//! for `crc`) and the speedup over the reference per fleet, writes
//! `BENCH_hotpath.json`, and **asserts** the median kernel is at least
//! 3x faster than the scalar reference on both fleets, that on an AVX2
//! host the AVX2 instance takes at most 0.6x the word kernel's time on
//! both fleets (full runs only: a smoke run's slices are too short to
//! resolve it), and that stage
//! telemetry costs at most 3% of sequential throughput (or 10 ms
//! absolute over a whole fleet pass) on both fleets. The codec, CRC and
//! telemetry rows time each side in five alternating slices and keep
//! the fastest, so a change in the host's speed hits both sides. Parity
//! (bits, op counts, decoded events, encoded bytes, instrumented
//! tracker output) is asserted on every captured frame, chunk and
//! camera before timing starts, for the dispatched and the word median
//! alike. `--smoke` shrinks the fleets and the timing budget to CI size
//! and skips the JSON artifact while still asserting parity, the 3x
//! median floor and the telemetry budget.

use std::time::{Duration, Instant};

use ebbiot_baselines::registry;
use ebbiot_bench::{
    ebbiot_config_for, run_fleet_sequential, tracker_box_tiling, Flags, FleetFrames, JsonReport,
    CHUNK_EVENTS,
};
use ebbiot_core::StageTelemetry;
use ebbiot_events::{Event, OpsCounter, SensorGeometry};
use ebbiot_frame::{reference, Axis, BinaryImage, EbbiAccumulator, Histogram, MedianFilter, Run};
use ebbiot_sim::{DatasetPreset, FleetConfig, SimulatedRecording};
use ebbiot_store::format::{crc32, crc32_reference, decode_chunk_payload, encode_chunk_payload};
use ebbiot_telemetry::Registry;

/// The paper's RPN scale factors `(s1, s2)` and run threshold.
const SCALE: (u16, u16) = (6, 3);
const THRESHOLD: u32 = 1;

/// One full chunk as the decoder sees it: the encoded payload, the
/// frame fields of its `EBST` chunk and the sensor it was recorded on.
struct EncodedChunk {
    payload: Vec<u8>,
    count: u32,
    t_first: u64,
    t_last: u64,
    geometry: SensorGeometry,
}

impl EncodedChunk {
    fn new(events: &[Event], geometry: SensorGeometry) -> Self {
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, events);
        let count = u32::try_from(events.len()).expect("chunk fits u32");
        let (t_first, t_last) = (events[0].t, events[events.len() - 1].t);
        Self { payload, count, t_first, t_last, geometry }
    }

    fn decode(&self, out: &mut Vec<Event>) {
        decode_chunk_payload(
            out,
            &self.payload,
            0,
            self.geometry,
            self.count,
            self.t_first,
            self.t_last,
        )
        .expect("the chunk was encoded from valid events");
    }
}

/// The full chunks of a fleet, with their events.
fn full_chunks(frames: &FleetFrames) -> impl Iterator<Item = (&[Event], EncodedChunk)> {
    let geometry = frames.ebbis[0].geometry();
    frames
        .chunks
        .iter()
        .filter(|c| c.len() == CHUNK_EVENTS)
        .map(move |c| (c.as_slice(), EncodedChunk::new(c, geometry)))
}

/// The production RPN histogram stage: the median's rows projected
/// straight into `H_X`/`H_Y`, then the runs of both.
fn rpn_word(
    img: &BinaryImage,
    rows: &[u16],
    (hx, hy): (&mut Histogram, &mut Histogram),
    ops: &mut OpsCounter,
) -> (Vec<Run>, Vec<Run>) {
    Histogram::project_rows(img, rows.iter().copied(), SCALE, hx, hy, ops);
    (hx.runs_at_least(THRESHOLD, ops), hy.runs_at_least(THRESHOLD, ops))
}

/// The scalar reference of [`rpn_word`]: the count-image downsample, its
/// two projections and the same runs.
fn rpn_reference(img: &BinaryImage, ops: &mut OpsCounter) -> (Histogram, Histogram) {
    let scaled = reference::downsample(img, SCALE.0, SCALE.1, ops);
    let (hx, hy) =
        (reference::project(&scaled, Axis::X, ops), reference::project(&scaled, Axis::Y, ops));
    let _ = (hx.runs_at_least(THRESHOLD, ops), hy.runs_at_least(THRESHOLD, ops));
    (hx, hy)
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

/// Times `word` and `reference` over `items` in alternating slices of
/// the budget, returning each side's fastest slice in ns per item. The
/// per-event codec rows differ by a few nanoseconds, less than this
/// host's speed swings between spells, so both sides must see the same
/// spells.
fn fastest_alternating<T>(
    budget: Duration,
    items: &[T],
    mut word: impl FnMut(&T),
    mut reference: impl FnMut(&T),
) -> (f64, f64) {
    const SLICES: u32 = 5;
    (0..SLICES).fold((f64::INFINITY, f64::INFINITY), |(w, r), _| {
        let w = w.min(ns_per_frame(budget / SLICES, items, &mut word));
        (w, r.min(ns_per_frame(budget / SLICES, items, &mut reference)))
    })
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
    let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
    for ((ebbi, denoised), rows) in
        frames.ebbis.iter().zip(&frames.denoised).zip(&frames.denoised_rows)
    {
        let mut ref_ops = OpsCounter::new();
        let mut f = MedianFilter::paper_default();
        f.apply_into(ebbi, &mut scratch);
        assert_eq!(scratch, reference::median(ebbi, 3, &mut ref_ops), "median parity");
        assert_eq!(*f.ops(), ref_ops, "median op parity");
        assert_eq!(f.written_rows(), rows, "median row list");
        let mut counted = MedianFilter::paper_default();
        counted.apply_counted_into(ebbi, ebbi.count_ones() as u64, &mut scratch);
        assert_eq!((&scratch, counted.ops()), (denoised, &ref_ops), "counted median parity");
        let mut word = MedianFilter::paper_default();
        word.apply_word_counted_into(ebbi, ebbi.count_ones() as u64, &mut scratch);
        assert_eq!((&scratch, word.ops()), (denoised, &ref_ops), "word median parity");
        assert_eq!(word.written_rows(), rows, "word median row list");
        let (mut ops, mut ref_ops) = (OpsCounter::new(), OpsCounter::new());
        let _ = rpn_word(denoised, rows, (&mut hx, &mut hy), &mut ops);
        let (ref_hx, ref_hy) = rpn_reference(denoised, &mut ref_ops);
        assert_eq!((&hx, &hy), (&ref_hx, &ref_hy), "projection parity");
        assert_eq!(ops, ref_ops, "projection + runs op parity");
    }
    let mut decoded = Vec::new();
    for (events, chunk) in full_chunks(frames) {
        chunk.decode(&mut decoded);
        assert_eq!(decoded, events, "codec round trip");
    }
}

/// Stage telemetry's cost on one fleet: plain and stage-instrumented
/// sequential `ebbiot` passes, camera by camera, timed in alternating
/// slices. Asserts the instrumented output is bit-identical to the
/// plain one first, prints the row and adds
/// `telemetry_overhead_pct_<label>` to the report. Returns the
/// overhead in percent (clamped at 0: a negative delta only means the
/// instrumented side got the luckier slice) and the instrumented
/// pass's extra seconds over the whole fleet.
fn measure_telemetry(
    label: &str,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
    budget: Duration,
    report: JsonReport,
) -> (JsonReport, f64, f64) {
    let spec = registry::find_backend("ebbiot").expect("registered");
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    let stage = StageTelemetry::register(&Registry::new());
    let instrumented = |rec: &SimulatedRecording| {
        spec.build(config.clone())
            .with_stage_telemetry(stage.clone())
            .process_recording(&rec.events, rec.duration_us)
    };
    assert_eq!(
        fleet.iter().map(instrumented).collect::<Vec<_>>(),
        run_fleet_sequential(spec, preset, fleet),
        "stage telemetry changed sequential output"
    );
    let (inst_ns, plain_ns) = fastest_alternating(
        budget,
        fleet,
        |rec| {
            std::hint::black_box(instrumented(rec));
        },
        |rec| {
            std::hint::black_box(
                spec.build(config.clone()).process_recording(&rec.events, rec.duration_us),
            );
        },
    );
    let pct = (100.0 * (inst_ns - plain_ns) / plain_ns).max(0.0);
    let extra_s = (inst_ns - plain_ns) * fleet.len() as f64 / 1e9;
    println!(
        "{:<20} on {:>13.1} µs/cam     off {:>13.1} µs/cam     overhead {pct:>6.2}% \
         ({:+.3} ms per fleet pass)",
        "stage telemetry",
        inst_ns / 1e3,
        plain_ns / 1e3,
        extra_s * 1e3
    );
    (report.f64(&format!("telemetry_overhead_pct_{label}"), pct), pct, extra_s)
}

/// The median's speed on one fleet: the instance the CPU selected, and
/// its speedup over the scalar reference and over the portable word
/// kernel.
struct MedianSpeed {
    instance: &'static str,
    over_reference: f64,
    over_word: f64,
}

/// Times every kernel pair on one fleet's frames, printing a table and
/// adding `<label>_*` fields to the report.
fn measure(
    label: &str,
    frames: &FleetFrames,
    budget: Duration,
    mut report: JsonReport,
) -> (JsonReport, MedianSpeed) {
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
    let instance = filter.instance(geometry);
    let counted: Vec<_> = frames.ebbis.iter().map(|img| (img, img.count_ones() as u64)).collect();
    let mut word_scratch = BinaryImage::new(geometry);
    let mut word_filter = MedianFilter::paper_default();
    let (median_dispatched, median_word) = fastest_alternating(
        budget,
        &counted,
        |&(img, set_pixels)| filter.apply_counted_into(img, set_pixels, &mut scratch),
        |&(img, set_pixels)| {
            word_filter.apply_word_counted_into(img, set_pixels, &mut word_scratch);
        },
    );
    let median_ref = ns_per_frame(budget, &frames.ebbis, |img| {
        reference::median_into(img, 3, &mut scratch, &mut ops);
    });

    let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
    let with_rows: Vec<_> = frames.denoised.iter().zip(&frames.denoised_rows).collect();
    let rpn_word_ns = ns_per_frame(budget, &with_rows, |&(img, rows)| {
        std::hint::black_box(rpn_word(img, rows, (&mut hx, &mut hy), &mut ops));
    });
    let rpn_ref_ns = ns_per_frame(budget, &frames.denoised, |img| {
        std::hint::black_box(rpn_reference(img, &mut ops));
    });

    let boxes = tracker_box_tiling(geometry);
    let count_word = ns_per_frame(budget, &frames.denoised, |img| {
        std::hint::black_box(boxes.iter().map(|b| img.count_in_box(b)).sum::<usize>());
    });
    let count_ref = ns_per_frame(budget, &frames.denoised, |img| {
        std::hint::black_box(boxes.iter().map(|b| reference::count_in_box(img, b)).sum::<usize>());
    });

    let chunks: Vec<(&[Event], EncodedChunk)> = full_chunks(frames).collect();
    let (mut decoded, mut payload) = (Vec::new(), Vec::new());
    let (decode_ns, encode_ns) = fastest_alternating(
        budget,
        &chunks,
        |(_, c)| c.decode(&mut decoded),
        |(e, _)| encode_chunk_payload(&mut payload, e),
    );
    let per_event = |ns_per_chunk: f64| ns_per_chunk / CHUNK_EVENTS as f64;
    let (decode_ns, encode_ns) = (per_event(decode_ns), per_event(encode_ns));
    let payloads: Vec<&[u8]> = chunks.iter().map(|(_, c)| c.payload.as_slice()).collect();
    let (crc_word, crc_ref) = fastest_alternating(
        budget,
        &payloads,
        |p| {
            std::hint::black_box(crc32(p));
        },
        |p| {
            std::hint::black_box(crc32_reference(p));
        },
    );
    let mean_bytes = payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / payloads.len() as f64;
    let (crc_word, crc_ref) = (crc_word / mean_bytes, crc_ref / mean_bytes);

    let rows = [
        ("ebbi", "EBBI latch + readout", "frame", ebbi_word, ebbi_ref),
        ("median", "median 3x3 (EBBI)", "frame", median_dispatched, median_ref),
        ("rpn", "RPN rows + runs", "frame", rpn_word_ns, rpn_ref_ns),
        ("count_in_box", "count_in_box x64", "frame", count_word, count_ref),
        ("crc", "CRC-32 of payloads", "byte", crc_word, crc_ref),
    ];
    report = report
        .u64(&format!("{label}_frames"), frames.ebbis.len() as u64)
        .f64(&format!("{label}_ebbi_density"), density(&frames.ebbis))
        .f64(&format!("{label}_denoised_density"), density(&frames.denoised))
        .f64(&format!("{label}_denoised_empty_row_share"), empty_rows)
        .u64(&format!("{label}_decode_chunks"), chunks.len() as u64)
        .f64(&format!("{label}_payload_bytes_per_event"), mean_bytes / CHUNK_EVENTS as f64)
        .f64(&format!("{label}_decode_ns_per_event"), decode_ns)
        .f64(&format!("{label}_encode_ns_per_event"), encode_ns)
        .str(&format!("{label}_median_instance"), instance)
        .f64(&format!("{label}_median_scalar_ns_per_frame"), median_word);
    for (key, name, unit, word, scalar) in rows {
        println!(
            "{name:<20} word {word:>10.1} ns/{unit:<5}   scalar {scalar:>11.1} ns/{unit:<5}   \
             speedup {:>7.1}x",
            scalar / word
        );
        report = report
            .f64(&format!("{label}_{key}_word_ns_per_{unit}"), word)
            .f64(&format!("{label}_{key}_reference_ns_per_{unit}"), scalar)
            .f64(&format!("{label}_{key}_speedup"), scalar / word);
    }
    println!(
        "{:<20} {instance:<5} {median_dispatched:>9.1} ns/frame   word {median_word:>12.1} \
         ns/frame   ratio {:>9.2}x",
        "median 3x3 instance",
        median_dispatched / median_word
    );
    println!(
        "{:<20} decode {decode_ns:>8.1} ns/event   encode {encode_ns:>9.1} ns/event   \
         {:.2} B/event over {} full chunks",
        "EBST chunk codec",
        mean_bytes / CHUNK_EVENTS as f64,
        chunks.len()
    );
    let speed = MedianSpeed {
        instance,
        over_reference: median_ref / median_dispatched,
        over_word: median_word / median_dispatched,
    };
    (report, speed)
}

fn main() {
    let flags = Flags::from_env(&["--seed", "--budget-ms"], &["--smoke"]);
    let smoke = flags.has("--smoke");
    let seed: u64 = flags.get("--seed", 42);
    let mut budget = Duration::from_millis(flags.get("--budget-ms", 300));
    // CI-sized: parity and the speedup floor still hold on a smaller
    // rotation with a short timing budget.
    let (cameras, seconds) = if smoke { (1, 1.0) } else { (4, 4.0) };
    if smoke {
        budget = budget.min(Duration::from_millis(50));
    }
    let mut report = JsonReport::new()
        .str("experiment", "hotpath")
        .u64("seed", seed)
        .u64("cameras", cameras as u64)
        .f64("seconds_per_camera", seconds);
    let mut median_speedups = Vec::new();
    let mut overheads = Vec::new();
    for (label, preset) in [("lt4", DatasetPreset::Lt4), ("eng", DatasetPreset::Eng)] {
        let fleet =
            FleetConfig::new(preset, cameras).with_seconds(seconds).with_base_seed(seed).generate();
        let frames = FleetFrames::capture(&fleet);
        assert_parity(&frames);
        let (next, median_speed) = measure(label, &frames, budget, report);
        let (next, pct, extra_s) = measure_telemetry(label, preset, &fleet, budget, next);
        println!();
        report = next;
        median_speedups.push((label, median_speed));
        overheads.push((label, pct, extra_s));
    }
    let floor_held = median_speedups.iter().all(|(_, s)| s.over_reference >= 3.0);
    // Checked in full runs only: a smoke run's 10 ms slices are too
    // short to resolve a 2x ratio against host noise.
    let instance_gain_held = smoke
        || median_speedups.iter().all(|(_, s)| s.instance != "avx2" || s.over_word >= 1.0 / 0.6);

    // Skipped in smoke mode so CI-sized runs never clobber the tracked
    // numbers.
    if smoke {
        println!("--smoke: skipping BENCH_hotpath.json");
    } else {
        report
            .bool("median_speedup_at_least_3x", floor_held)
            .bool("median_instance_at_most_0_6x_word", instance_gain_held)
            .write(std::path::Path::new("BENCH_hotpath.json"))
            .expect("write BENCH_hotpath.json");
        println!("wrote BENCH_hotpath.json");
    }

    assert!(
        floor_held,
        "word-parallel median must be >= 3x the scalar reference on every fleet, measured {:?}",
        median_speedups.iter().map(|(l, s)| (l, s.over_reference)).collect::<Vec<_>>()
    );
    assert!(
        instance_gain_held,
        "the AVX2 median must take <= 0.6x the word kernel's time on every fleet, measured \
         speedups {:?}",
        median_speedups.iter().map(|(l, s)| (l, s.over_word)).collect::<Vec<_>>()
    );
    for (label, pct, extra_s) in overheads {
        assert!(
            pct <= 3.0 || extra_s <= 0.010,
            "{label}: stage telemetry cost {pct:.2}% of sequential throughput, {:.2} ms over a \
             fleet pass (budget 3% or 10 ms)",
            extra_s * 1e3
        );
    }
    println!("stage telemetry within budget (<= 3% or <= 10 ms per fleet pass) on every fleet");
}
