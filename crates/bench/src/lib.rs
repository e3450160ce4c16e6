//! Shared harness utilities for the experiment binaries and benches.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (the README's Quickstart and per-subsystem sections list
//! how to run each). This library holds
//! the glue: running each tracker pipeline over a simulated recording and
//! extracting per-frame box lists in the shape the evaluator wants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod breakdown;
pub mod net;

use ebbiot_baselines::registry::{self, BackendSpec};
use ebbiot_core::{EbbiotConfig, RegionOfExclusion};
use ebbiot_engine::{Engine, EngineOutput, FleetOptions, FleetStream};
use ebbiot_eval::{sweep_thresholds, RecordingEval};
use ebbiot_frame::BoundingBox;
use ebbiot_sim::{DatasetPreset, SimulatedRecording};

/// Per-frame tracker boxes, the evaluator's input shape.
pub type FrameBoxes = Vec<Vec<BoundingBox>>;

/// Builds the EBBIOT configuration for a recording, deriving the ROE from
/// the preset's flicker distractors (the paper's manually drawn ROE; our
/// "manual" knowledge comes from the preset definition, not from the
/// events).
#[must_use]
pub fn ebbiot_config_for(preset: DatasetPreset, rec: &SimulatedRecording) -> EbbiotConfig {
    let roe_boxes: Vec<BoundingBox> = preset
        .config()
        .flickers
        .iter()
        .map(|f| {
            let b = f.region;
            // One RPN cell of margin so cell-aligned proposals of the
            // flicker are reliably caught.
            BoundingBox::new(
                f32::from(b.x_min) - 6.0,
                f32::from(b.y_min) - 3.0,
                f32::from(b.width()) + 12.0,
                f32::from(b.height()) + 6.0,
            )
        })
        .collect();
    EbbiotConfig::paper_default(rec.geometry).with_roe(RegionOfExclusion::new(roe_boxes))
}

/// Runs one registered back-end over a recording, returning per-frame
/// boxes. The harness enumerates back-ends through
/// [`ebbiot_baselines::registry::BACKENDS`] instead of hand-rolled match
/// arms, so a newly registered tracker appears in every experiment
/// automatically.
#[must_use]
pub fn run_backend(
    spec: &BackendSpec,
    preset: DatasetPreset,
    rec: &SimulatedRecording,
) -> FrameBoxes {
    let config = ebbiot_config_for(preset, rec).with_frame_us(rec.frame_us);
    let mut pipeline = spec.build(config);
    pipeline
        .process_recording(&rec.events, rec.duration_us)
        .into_iter()
        .map(|f| f.tracks.into_iter().map(|t| t.bbox).collect())
        .collect()
}

/// Runs a back-end looked up by registry name or display label.
#[must_use]
pub fn run_backend_named(
    name: &str,
    preset: DatasetPreset,
    rec: &SimulatedRecording,
) -> Option<FrameBoxes> {
    registry::find_backend(name).map(|spec| run_backend(spec, preset, rec))
}

/// Runs the EBBIOT pipeline over a recording, returning per-frame boxes.
#[must_use]
pub fn run_ebbiot(preset: DatasetPreset, rec: &SimulatedRecording) -> FrameBoxes {
    run_backend_named("ebbiot", preset, rec).expect("registered")
}

/// Runs the EBBI + Kalman-filter baseline.
#[must_use]
pub fn run_ebbi_kf(preset: DatasetPreset, rec: &SimulatedRecording) -> FrameBoxes {
    run_backend_named("ebbi-kf", preset, rec).expect("registered")
}

/// Runs the NN-filt + EBMS baseline.
#[must_use]
pub fn run_nn_ebms(preset: DatasetPreset, rec: &SimulatedRecording) -> FrameBoxes {
    run_backend_named("nn-ebms", preset, rec).expect("registered")
}

/// Extracts per-frame ground-truth boxes from a recording.
#[must_use]
pub fn gt_boxes(rec: &SimulatedRecording) -> FrameBoxes {
    rec.ground_truth.iter().map(|f| f.boxes.iter().map(|b| b.bbox).collect()).collect()
}

/// Evaluates one tracker output against a recording's ground truth over
/// the Fig. 4 threshold grid.
#[must_use]
pub fn fig4_sweep(rec: &SimulatedRecording, predictions: &FrameBoxes) -> Vec<RecordingEval> {
    sweep_thresholds(&gt_boxes(rec), predictions, &ebbiot_eval::sweep::fig4_thresholds())
}

/// Runs one registered back-end over a whole camera fleet through the
/// concurrent engine, feeding each recording's events in interleaved
/// chunks. Output is bit-for-bit what [`run_backend`]-style sequential
/// processing of each recording yields, regardless of
/// `options.workers` — that is the engine's determinism guarantee.
#[must_use]
pub fn run_fleet_backend(
    spec: &BackendSpec,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
    options: &FleetOptions,
) -> EngineOutput {
    assert!(!fleet.is_empty(), "fleet needs at least one camera");
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    let pipelines = spec.build_fleet(&config, fleet.len());
    let streams: Vec<FleetStream<'_>> =
        fleet.iter().map(|r| FleetStream { events: &r.events, span_us: r.duration_us }).collect();
    Engine::run_fleet(pipelines, &streams, options)
}

/// Sequentially processes the same fleet, one camera after another —
/// the single-core baseline `exp_fleet` compares the engine against.
/// Returns per-camera frame results in the same shape as
/// [`EngineOutput::streams`].
#[must_use]
pub fn run_fleet_sequential(
    spec: &BackendSpec,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
) -> Vec<Vec<ebbiot_core::FrameResult>> {
    assert!(!fleet.is_empty(), "fleet needs at least one camera");
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    fleet
        .iter()
        .map(|rec| spec.build(config.clone()).process_recording(&rec.events, rec.duration_us))
        .collect()
}

/// The frames the front end sees on a simulated camera fleet: every
/// camera's events windowed at its frame period `tF` (the EBBI latch's
/// input), each window latched into an EBBI (the median filter's input),
/// and each EBBI after the paper's 3x3 median (the region proposer's
/// input). Empty frames are kept, because the workload has them too.
/// Shared by `exp_hotpath` and the `kernels` criterion bench so kernels
/// are timed on workload frames, not on a synthetic density.
#[derive(Debug, Clone)]
pub struct FleetFrames {
    /// Each frame's event window, camera by camera, in frame order.
    pub windows: Vec<Vec<ebbiot_events::Event>>,
    /// The raw EBBI of each window.
    pub ebbis: Vec<ebbiot_frame::BinaryImage>,
    /// The same frames after the 3x3 median filter.
    pub denoised: Vec<ebbiot_frame::BinaryImage>,
}

impl FleetFrames {
    /// Simulates a `cameras`-strong `preset` fleet of `seconds` per
    /// camera from `seed` and captures its frames.
    #[must_use]
    pub fn capture(preset: DatasetPreset, cameras: usize, seconds: f64, seed: u64) -> Self {
        let fleet = ebbiot_sim::FleetConfig::new(preset, cameras)
            .with_seconds(seconds)
            .with_base_seed(seed)
            .generate();
        let (windows, ebbis): (Vec<_>, Vec<_>) = fleet
            .iter()
            .flat_map(|rec| {
                ebbiot_events::stream::FrameWindows::with_span(
                    &rec.events,
                    rec.frame_us,
                    rec.duration_us,
                )
                .map(|w| {
                    (
                        w.events.to_vec(),
                        ebbiot_frame::ebbi::ebbi_from_events(rec.geometry, w.events),
                    )
                })
            })
            .unzip();
        let mut median = ebbiot_frame::MedianFilter::paper_default();
        let denoised = ebbis.iter().map(|ebbi| median.apply(ebbi)).collect();
        Self { windows, ebbis, denoised }
    }
}

/// An 8x8 tiling of tracker-sized boxes across the frame, the shared
/// workload for the box-counting kernel measurements.
#[must_use]
pub fn tracker_box_tiling(geometry: ebbiot_events::SensorGeometry) -> Vec<ebbiot_frame::PixelBox> {
    (0..64u16)
        .map(|i| {
            let x = (i % 8) * (geometry.width() / 8);
            let y = (i / 8) * (geometry.height() / 8);
            ebbiot_frame::PixelBox::new(x, y, x + geometry.width() / 6, y + geometry.height() / 6)
        })
        .collect()
}

/// Minimal ordered JSON-object builder for the machine-readable
/// `BENCH_*.json` artifacts the experiment binaries emit (the
/// workspace is offline — no serde). Insertion order is preserved so
/// diffs between runs stay stable.
#[derive(Debug, Default, Clone)]
pub struct JsonReport {
    fields: Vec<(String, String)>,
}

impl JsonReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a float field (non-finite values become `null`).
    #[must_use]
    pub fn f64(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() { format!("{value:.6}") } else { "null".into() };
        self.push(key, rendered)
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a string field (escaping quotes and backslashes).
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.push(key, format!("\"{escaped}\""))
    }

    /// Renders the report as a single JSON object.
    #[must_use]
    pub fn render(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Writes the rendered report to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Parses `--seconds <f>`, `--seed <u>` and `--full` from argv, returning
/// `(seconds_override, seed, full)`.
#[must_use]
pub fn parse_harness_args(args: &[String]) -> (Option<f64>, u64, bool) {
    let mut seconds = None;
    let mut seed = 42;
    let mut full = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seconds" => {
                seconds = it.next().and_then(|v| v.parse().ok());
            }
            "--seed" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    seed = v;
                }
            }
            "--full" => full = true,
            _ => {}
        }
    }
    (seconds, seed, full)
}

/// Generates a recording for a preset honouring harness args: `--full`
/// restores Table I durations, `--seconds` overrides, default is the
/// preset's 1/10-scaled duration capped at `default_cap_s` for quick runs.
#[must_use]
pub fn generate_for_harness(
    preset: DatasetPreset,
    seconds: Option<f64>,
    seed: u64,
    full: bool,
    default_cap_s: f64,
) -> SimulatedRecording {
    let cfg = preset.config();
    let cfg = if full {
        cfg.with_full_duration(preset)
    } else if let Some(s) = seconds {
        cfg.with_duration_s(s)
    } else {
        let scaled_s = cfg.duration_us as f64 / 1e6;
        cfg.with_duration_s(scaled_s.min(default_cap_s))
    };
    cfg.generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing_defaults_and_overrides() {
        let (s, seed, full) = parse_harness_args(&[]);
        assert_eq!((s, seed, full), (None, 42, false));
        let args: Vec<String> =
            ["--seconds", "12.5", "--seed", "7", "--full"].iter().map(|s| s.to_string()).collect();
        let (s, seed, full) = parse_harness_args(&args);
        assert_eq!(s, Some(12.5));
        assert_eq!(seed, 7);
        assert!(full);
    }

    #[test]
    fn harness_generation_respects_cap() {
        let rec = generate_for_harness(DatasetPreset::Lt4, None, 1, false, 2.0);
        assert_eq!(rec.duration_us, 2_000_000);
        let rec = generate_for_harness(DatasetPreset::Lt4, Some(1.0), 1, false, 2.0);
        assert_eq!(rec.duration_us, 1_000_000);
    }

    #[test]
    fn pipelines_produce_frame_aligned_outputs() {
        let rec = generate_for_harness(DatasetPreset::Lt4, Some(2.0), 3, false, 2.0);
        let gt = gt_boxes(&rec);
        let eb = run_ebbiot(DatasetPreset::Lt4, &rec);
        let kf = run_ebbi_kf(DatasetPreset::Lt4, &rec);
        let ms = run_nn_ebms(DatasetPreset::Lt4, &rec);
        assert_eq!(gt.len(), eb.len());
        assert_eq!(gt.len(), kf.len());
        assert_eq!(gt.len(), ms.len());
    }

    #[test]
    fn fleet_engine_matches_sequential_baseline() {
        let fleet =
            ebbiot_sim::FleetConfig::new(DatasetPreset::Lt4, 2).with_seconds(1.0).generate();
        let spec = registry::find_backend("ebbiot").unwrap();
        let sequential = run_fleet_sequential(spec, DatasetPreset::Lt4, &fleet);
        let run = run_fleet_backend(
            spec,
            DatasetPreset::Lt4,
            &fleet,
            &FleetOptions { workers: 2, queue_capacity: 4, chunk_events: 512 },
        );
        assert_eq!(run.streams, sequential);
    }

    #[test]
    fn json_report_renders_ordered_valid_json() {
        let json = JsonReport::new()
            .u64("events", 1200)
            .f64("ratio", 2.5)
            .f64("bad", f64::NAN)
            .bool("identical", true)
            .str("backend", "ebbi\"ot")
            .render();
        assert_eq!(
            json,
            "{\n  \"events\": 1200,\n  \"ratio\": 2.500000,\n  \"bad\": null,\n  \
             \"identical\": true,\n  \"backend\": \"ebbi\\\"ot\"\n}\n"
        );
    }

    #[test]
    fn roe_covers_eng_flicker() {
        let rec = generate_for_harness(DatasetPreset::Eng, Some(1.0), 3, false, 1.0);
        let cfg = ebbiot_config_for(DatasetPreset::Eng, &rec);
        assert_eq!(cfg.roe.regions().len(), 1);
        let r = cfg.roe.regions()[0];
        assert!(r.x < 4.0 && r.x_max() > 44.0);
    }
}
