//! End-to-end benchmark of the EBBIOT tracking stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-lt4|ingest-eng> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Simulates a camera fleet from the seed, encodes it the way the
//! workload's source reads it (timed as set-up), runs one untimed
//! warm-up pass, then repeats timed passes until `--seconds` have gone
//! by, encoding the fleet once more (timed, then dropped) before each.
//! Every pass's frames are checked bit for bit against sequential
//! in-memory processing. The last line of standard output is one JSON
//! object: with `--trace 0` the end-to-end metrics (`camera_s_per_s`,
//! camera-seconds tracked per wall second, and `setup_s`); with
//! `--trace 1` the per-layer metrics of `trace::Layers`. Replay turns
//! stage telemetry on only in traced runs, since it costs time; the
//! ingest server always records it, so ingest carries it in both.

mod ingest;
mod replay;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ebbiot_core::FrameResult;

use crate::trace::Layers;
use crate::workload::{Camera, Encoded};

/// Fewest timed passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds} out of range (0, 120]"));
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// What one pass produced, already checked against the reference.
pub struct Pass {
    wall: Duration,
    checked: u64,
    failed: u64,
    problem: Option<String>,
    layers: Layers,
}

impl Pass {
    /// Checks `streams` (one per camera, in camera order) against the
    /// cameras' expected frames. `trace` is the outcome of reading the
    /// per-layer trace, when the pass was traced.
    pub fn new(
        cameras: &[Camera],
        streams: &[Vec<FrameResult>],
        wall: Duration,
        mut layers: Layers,
        trace: Result<(), String>,
    ) -> Self {
        let (mut checked, mut failed) = (0, 0);
        for (k, cam) in cameras.iter().enumerate() {
            let got = streams.get(k).map_or(&[][..], Vec::as_slice);
            let expected = &cam.expected;
            checked += expected.len().max(got.len()) as u64;
            failed += expected.len().abs_diff(got.len()) as u64;
            failed += expected.iter().zip(got).filter(|(e, g)| !e.bits_eq(g)).count() as u64;
        }
        layers.wall_ns = wall.as_nanos() as u64;
        layers.events = cameras.iter().map(|c| c.events).sum();
        let problem = trace.err().map(|e| format!("trace does not reconcile: {e}"));
        Self { wall, checked, failed, problem, layers }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = workload::find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {} (one of {})", args.workload, names.join(", "))
    })?;
    let fleet = workload::simulate(w, args.seed);
    let cameras = workload::cameras(w, &fleet);
    let setup = || -> Result<(Encoded, f64), String> {
        let started = Instant::now();
        let encoded = std::hint::black_box(workload::encode(w, &fleet)?);
        Ok((encoded, started.elapsed().as_secs_f64()))
    };
    let (mut encoded, first_setup) = setup()?;
    let mut setup_times = vec![first_setup];

    let mut run_pass = |trace: bool| match &mut encoded {
        Encoded::Store(readers) => replay::pass(&cameras, readers, trace),
        Encoded::Wire(sessions) => ingest::pass(&cameras, sessions, trace),
    };
    let warmup = run_pass(false)?;
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        setup_times.push(setup()?.1);
        passes.push(run_pass(args.trace)?);
    }

    let attempted = warmup.checked + passes.iter().map(|p| p.checked).sum::<u64>();
    let failed = warmup.failed + passes.iter().map(|p| p.failed).sum::<u64>();
    let problems: Vec<&String> =
        std::iter::once(&warmup).chain(&passes).filter_map(|p| p.problem.as_ref()).collect();
    for problem in &problems {
        eprintln!("perfbench: {problem}");
    }

    // Camera-seconds tracked per wall second: how many cameras of this
    // site one engine keeps up with in real time.
    let camera_s: f64 = cameras.iter().map(|c| c.span_us as f64 / 1e6).sum();
    let rates: Vec<f64> = passes.iter().map(|p| camera_s / p.wall.as_secs_f64()).collect();
    println!(
        "{} seed {}: {} passes in {:.2} s, {} frames checked, {} failed",
        w.name,
        args.seed,
        passes.len(),
        started.elapsed().as_secs_f64(),
        attempted,
        failed,
    );
    println!("  camera_s_per_s by pass: {rates:.1?}");
    println!("  setup_s by repeat: {setup_times:.4?}");
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let fastest = passes.iter().min_by_key(|p| p.wall).expect("at least one pass");
        fastest.layers.metrics()
    } else {
        // The run's best pass and fastest set-up. The measurement host is
        // shared and runs in spells of some 10-20 s at speeds up to 2x
        // apart: a run's median lands on whichever spell it mostly saw,
        // while nearly every run of this length sees a fast one. Set-up
        // is repeated between passes, not back to back, for the same
        // reason.
        let fastest = |values: Vec<f64>, better: fn(f64, f64) -> f64| {
            values.into_iter().reduce(better).expect("at least one value")
        };
        vec![
            ("camera_s_per_s", "s/s", fastest(rates, f64::max)),
            ("setup_s", "s", fastest(setup_times, f64::min)),
        ]
    };
    let mut fields = Vec::with_capacity(metrics.len());
    let mut finite = true;
    for (name, unit, value) in metrics {
        println!("  {name:<30} {value:>16.4} {unit}");
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = failed == 0 && problems.is_empty() && finite;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
