//! Shared harness utilities for the experiment binaries.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (the README's Quickstart and per-subsystem sections list
//! how to run each). This library holds
//! the glue: running each tracker pipeline over a simulated recording and
//! extracting per-frame box lists in the shape the evaluator wants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod net;

use std::str::FromStr;
use std::sync::Arc;

use ebbiot_baselines::registry::{self, BackendSpec};
use ebbiot_core::{EbbiotConfig, RegionOfExclusion, StageTelemetry};
use ebbiot_engine::{Engine, EngineOutput, FleetOptions, FleetStream};
use ebbiot_eval::{sweep_thresholds, RecordingEval};
use ebbiot_frame::BoundingBox;
use ebbiot_sim::{DatasetPreset, SimulatedRecording};
use ebbiot_telemetry::Registry;

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

/// Like [`run_fleet_backend`], but with the full telemetry story
/// attached: the engine registers its contention metrics in `registry`
/// and every pipeline records per-stage durations into one shared
/// [`StageTelemetry`] (returned alongside the run). Worker, scheduler
/// and queue-wait numbers are read back from `registry` after the run.
/// Output is still bit-for-bit the sequential result — telemetry
/// observes, never steers.
#[must_use]
pub fn run_fleet_backend_instrumented(
    spec: &BackendSpec,
    preset: DatasetPreset,
    fleet: &[SimulatedRecording],
    options: &FleetOptions,
    registry: &Arc<Registry>,
) -> (EngineOutput, StageTelemetry) {
    assert!(!fleet.is_empty(), "fleet needs at least one camera");
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    let stage = StageTelemetry::register(registry);
    let pipelines = spec
        .build_fleet(&config, fleet.len())
        .into_iter()
        .map(|p| p.with_stage_telemetry(stage.clone()))
        .collect();
    let streams: Vec<FleetStream<'_>> =
        fleet.iter().map(|r| FleetStream { events: &r.events, span_us: r.duration_us }).collect();
    let run = Engine::run_fleet_with_registry(pipelines, &streams, options, Arc::clone(registry));
    (run, stage)
}

/// Sequentially processes the same fleet, one camera after another:
/// the single-core reference the engine's output must equal bit for
/// bit. Returns per-camera frame results in the same shape as
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

/// Events per chunk of the fleets the EBST replay benchmark spools.
pub const CHUNK_EVENTS: usize = 1_024;

/// The frames the front end sees on a simulated camera fleet: every
/// camera's events windowed at its frame period `tF` (the EBBI latch's
/// input), each window latched into an EBBI (the median filter's input),
/// and each EBBI after the paper's 3x3 median (the region proposer's
/// input), with the rows the median wrote. Empty frames are kept,
/// because the workload has them too. Also holds each camera's events
/// cut into [`CHUNK_EVENTS`]-event chunks, the decoder's input on
/// replay. `exp_hotpath` times its kernels on these, so they run on
/// workload data, not on a synthetic density.
#[derive(Debug, Clone)]
pub struct FleetFrames {
    /// Each frame's event window, camera by camera, in frame order.
    pub windows: Vec<Vec<ebbiot_events::Event>>,
    /// The raw EBBI of each window.
    pub ebbis: Vec<ebbiot_frame::BinaryImage>,
    /// The same frames after the 3x3 median filter.
    pub denoised: Vec<ebbiot_frame::BinaryImage>,
    /// The rows the median wrote a set pixel to in each denoised frame
    /// (`MedianFilter::written_rows`), what the region proposer reads.
    pub denoised_rows: Vec<Vec<u16>>,
    /// Each camera's events in chunks of [`CHUNK_EVENTS`], camera by
    /// camera; a camera's last chunk may be shorter.
    pub chunks: Vec<Vec<ebbiot_events::Event>>,
}

impl FleetFrames {
    /// Captures the frames of a simulated camera fleet.
    #[must_use]
    pub fn capture(fleet: &[SimulatedRecording]) -> Self {
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
        let (denoised, denoised_rows) =
            ebbis.iter().map(|ebbi| (median.apply(ebbi), median.written_rows().to_vec())).unzip();
        let chunks = fleet
            .iter()
            .flat_map(|rec| rec.events.chunks(CHUNK_EVENTS).map(<[_]>::to_vec))
            .collect();
        Self { windows, ebbis, denoised, denoised_rows, chunks }
    }
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

/// The command-line flags of an `exp_*` binary: `--name value` options
/// and bare `--name` switches, checked against the names the binary
/// declares. An undeclared flag, an option without its value, or a value
/// that does not parse is an error, never a silent default.
#[derive(Debug, Clone)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parses `args` (without the program name) against the binary's
    /// `options`, which take a value, and `switches`, which do not.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, or the option that
    /// lacks its value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        options: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if switches.contains(&flag.as_str()) {
                given.push((flag, None));
            } else if options.contains(&flag.as_str()) {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                given.push((flag, Some(value)));
            } else {
                return Err(format!("unknown argument {flag}"));
            }
        }
        Ok(Self { given })
    }

    /// [`Self::parse`] over the process's own arguments; on an error it
    /// prints the message and exits with status 2.
    #[must_use]
    pub fn from_env(options: &[&str], switches: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), options, switches).unwrap_or_else(|e| usage_error(&e))
    }

    /// Whether switch `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The parsed value of option `name` (the last one given), or
    /// `None` when it was not given.
    ///
    /// # Errors
    ///
    /// A message naming the option and the value that does not parse.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let raw =
            self.given.iter().rev().find(|(flag, _)| flag == name).and_then(|(_, v)| v.as_ref());
        let type_name = std::any::type_name::<T>().rsplit("::").next().unwrap_or_default();
        raw.map(|v| v.parse().map_err(|_| format!("{name} expects {type_name}, got {v:?}")))
            .transpose()
    }

    /// [`Self::value`]; on an unparseable value it prints the message and
    /// exits with status 2.
    #[must_use]
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).unwrap_or_else(|e| usage_error(&e))
    }

    /// [`Self::opt`], or `default` when the option was not given.
    #[must_use]
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        self.opt(name).unwrap_or(default)
    }

    /// The `--preset LT4|ENG` option, in either case; LT4 when not given.
    #[must_use]
    pub fn preset(&self) -> DatasetPreset {
        match self.opt::<String>("--preset").map(|p| p.to_uppercase()).as_deref() {
            None | Some("LT4") => DatasetPreset::Lt4,
            Some("ENG") => DatasetPreset::Eng,
            Some(other) => usage_error(&format!("--preset must be ENG or LT4, got {other:?}")),
        }
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The flags of the figure and table binaries, `--seconds S`, `--seed N`
/// and `--full`, as `(seconds_override, seed, full)`; the seed defaults
/// to 42.
#[must_use]
pub fn harness_args() -> (Option<f64>, u64, bool) {
    let flags = Flags::from_env(&["--seconds", "--seed"], &["--full"]);
    (flags.opt("--seconds"), flags.get("--seed", 42), flags.has("--full"))
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

    fn flags(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), &["--seconds", "--seed"], &["--full"])
    }

    #[test]
    fn flags_parse_defaults_and_overrides() {
        let none = flags(&[]).unwrap();
        assert_eq!(none.value::<f64>("--seconds"), Ok(None));
        assert_eq!(none.get("--seed", 42u64), 42);
        assert!(!none.has("--full"));
        let set = flags(&["--seconds", "12.5", "--seed", "3", "--full", "--seed", "7"]).unwrap();
        assert_eq!(set.value("--seconds"), Ok(Some(12.5)));
        assert_eq!(set.get("--seed", 42u64), 7, "the last value given wins");
        assert!(set.has("--full"));
    }

    #[test]
    fn flags_reject_unknown_flags_and_missing_values() {
        assert_eq!(flags(&["--second", "1"]).unwrap_err(), "unknown argument --second");
        assert_eq!(flags(&["--seed", "3", "--sed", "3"]).unwrap_err(), "unknown argument --sed");
        assert_eq!(flags(&["--seed"]).unwrap_err(), "--seed needs a value");
    }

    #[test]
    fn flags_reject_values_that_do_not_parse() {
        let bad = flags(&["--seed", "x7", "--seconds", "1s"]).unwrap();
        assert_eq!(bad.value::<u64>("--seed").unwrap_err(), "--seed expects u64, got \"x7\"");
        assert!(bad.value::<f64>("--seconds").is_err());
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
        for name in ["ebbiot", "ebbi-kf", "nn-ebms"] {
            let boxes = run_backend_named(name, DatasetPreset::Lt4, &rec).expect("registered");
            assert_eq!(gt.len(), boxes.len(), "{name}");
        }
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
