//! **Checkpoint experiment** — what freezing and thawing a camera
//! session costs, and proof that recovery is lossless: per-back-end
//! `EBSS` snapshot sizes and checkpoint/encode/restore latencies with
//! bit-exact resume parity, then a crash-recovery drill — archive a
//! mixed-back-end fleet with [`FleetArchiver`], sever every session
//! mid-stream on a running engine via `detach_with_state`, drop all
//! live state, and rebuild each session from its last `EBSS` snapshot
//! plus the archived `EBST` tail (`seek_to_time`). The shipped +
//! recovered output must equal the unsevered run in every bit.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_checkpoint -- \
//!     [--cameras K] [--workers W] [--seconds S] [--seed N] \
//!     [--preset LT4|ENG] [--chunk E] [--dir PATH] [--keep] [--smoke]
//! ```
//!
//! Defaults: 6 cameras, 4 workers, 1 s per camera on LT4, 2048-event
//! archive chunks, archive under the system temp dir (removed unless
//! `--keep`). Emits `BENCH_checkpoint.json`; `--smoke` shrinks the run
//! to CI size and skips the artifact while keeping every parity assert.

use std::path::PathBuf;
use std::time::Instant;

use ebbiot_baselines::{registry, BACKENDS};
use ebbiot_bench::{ebbiot_config_for, Flags, JsonReport};
use ebbiot_core::FrameResult;
use ebbiot_engine::{Engine, EngineConfig, StreamTotals};
use ebbiot_eval::report::render_table;
use ebbiot_events::Event;
use ebbiot_sim::FleetConfig;
use ebbiot_store::{read_snapshot, write_snapshot, FleetArchiver, FleetStore, StoreOptions};

fn assert_bits_eq(got: &[FrameResult], expect: &[FrameResult], context: &str) {
    assert_eq!(got.len(), expect.len(), "{context}: frame count diverged");
    for (g, e) in got.iter().zip(expect) {
        assert!(g.bits_eq(e), "{context}: frame {} diverged bit-wise", e.index);
    }
}

/// A chunk boundary near the middle where time strictly advances — the
/// only kind of cut `seek_to_time` can resume from without replaying or
/// skipping an event.
fn pick_cut(chunks: &[Vec<Event>]) -> usize {
    (1..chunks.len())
        .filter(|&k| chunks[k - 1].last().unwrap().t < chunks[k][0].t)
        .min_by_key(|&k| k.abs_diff(chunks.len() / 2))
        .expect("a strictly advancing chunk boundary exists")
}

fn main() {
    let flags = Flags::from_env(
        &["--cameras", "--workers", "--seconds", "--seed", "--preset", "--chunk", "--dir"],
        &["--keep", "--smoke"],
    );
    let smoke = flags.has("--smoke");
    let mut cameras: usize = flags.get("--cameras", 6);
    let mut workers: usize = flags.get("--workers", 4);
    let mut seconds: f64 = flags.get("--seconds", 1.0);
    let seed: u64 = flags.get("--seed", 42);
    let preset = flags.preset();
    let chunk_events: usize = flags.get("--chunk", 2048);
    let given_dir: Option<PathBuf> = flags.opt("--dir");
    if smoke {
        cameras = cameras.min(2);
        workers = workers.min(2);
        seconds = seconds.min(0.25);
    }
    let workers = workers.min(cameras).max(1);
    let iters = if smoke { 3 } else { 50 };

    println!(
        "== Checkpoint: {} cameras x {:.2} s of {}, EBSS freeze/thaw + crash-recovery drill ==\n",
        cameras,
        seconds,
        preset.name()
    );

    let fleet =
        FleetConfig::new(preset, cameras).with_seconds(seconds).with_base_seed(seed).generate();
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    let mut report = JsonReport::new()
        .str("experiment", "checkpoint")
        .str("preset", preset.name())
        .u64("cameras", cameras as u64)
        .u64("workers", workers as u64)
        .f64("seconds_per_camera", seconds)
        .u64("chunk_events", chunk_events as u64);

    // ------------------------------------------------------------------
    // 1. Per-back-end snapshot cost on camera 0, severed halfway, with
    //    a bit-exact resume assert behind every row.
    // ------------------------------------------------------------------
    let rec = &fleet[0];
    let half = rec.events.len() / 2;
    let mut rows = Vec::new();
    for spec in BACKENDS {
        let expect = spec.build(config.clone()).process_recording(&rec.events, rec.duration_us);

        let mut severed = spec.build(config.clone());
        let mut shipped = Vec::new();
        for chunk in rec.events[..half].chunks(chunk_events.max(1)) {
            shipped.extend(severed.push(chunk));
        }

        let started = Instant::now();
        let mut state = severed.checkpoint();
        for _ in 1..iters {
            state = severed.checkpoint();
        }
        let checkpoint_us = started.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let started = Instant::now();
        let mut bytes = Vec::new();
        for _ in 0..iters {
            bytes.clear();
            write_snapshot(&mut bytes, "cam00", rec.geometry, 0, &state).expect("encode");
        }
        let encode_us = started.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let started = Instant::now();
        let mut resumed = None;
        for _ in 0..iters {
            let (_, decoded) = read_snapshot(&bytes).expect("decode");
            resumed = Some(registry::restore_pipeline(config.clone(), &decoded).expect("restore"));
        }
        let restore_us = started.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let mut resumed = resumed.expect("at least one restore iteration");
        let mut frames = shipped;
        for chunk in rec.events[half..].chunks(chunk_events.max(1)) {
            frames.extend(resumed.push(chunk));
        }
        frames.extend(resumed.finish(rec.duration_us));
        assert_bits_eq(&frames, &expect, &format!("{} resumed from EBSS", spec.name));

        rows.push(vec![
            spec.name.to_string(),
            bytes.len().to_string(),
            state.tracker.len().to_string(),
            format!("{checkpoint_us:.1}"),
            format!("{encode_us:.1}"),
            format!("{restore_us:.1}"),
            "bit-exact".to_string(),
        ]);
        report = report
            .u64(&format!("ebss_bytes_{}", spec.name), bytes.len() as u64)
            .f64(&format!("checkpoint_us_{}", spec.name), checkpoint_us)
            .f64(&format!("encode_us_{}", spec.name), encode_us)
            .f64(&format!("restore_us_{}", spec.name), restore_us);
    }
    println!(
        "{}",
        render_table(
            &[
                "Backend",
                "EBSS bytes",
                "Tracker bytes",
                "ckpt us",
                "encode us",
                "restore us",
                "resume"
            ],
            &rows
        )
    );

    // ------------------------------------------------------------------
    // 2. Crash-recovery drill: archive the whole fleet, sever every
    //    session mid-stream on a running mixed-back-end engine, snapshot
    //    each hand-off into the archive's snapshot area, drop all live
    //    state, then recover from disk alone and prove nothing is lost.
    // ------------------------------------------------------------------
    let dir = given_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ebbiot_checkpoint_{}", std::process::id()))
    });
    // Cap the archive chunk so even a smoke-sized recording spans
    // several chunks — the drill needs a mid-stream boundary to cut at.
    let shortest = fleet.iter().map(|r| r.events.len()).min().unwrap_or(1);
    let archive_chunk = chunk_events.max(1).min((shortest / 8).max(1));
    let archiver = FleetArchiver::create(&dir, StoreOptions { chunk_events: archive_chunk })
        .expect("create archive");
    for rec in &fleet {
        let mut stream =
            archiver.begin(&rec.name, rec.geometry, rec.duration_us).expect("begin archive");
        for chunk in rec.events.chunks(archive_chunk) {
            stream.push_events(chunk).expect("archive events");
        }
        stream.finish(rec.duration_us).expect("seal archive");
    }
    let store = FleetStore::open(&dir).expect("open archive");
    let backend_of = |camera: usize| &BACKENDS[camera % BACKENDS.len()];

    // The live engine, severed camera by camera at its own cut point.
    let chunks_of: Vec<Vec<Vec<Event>>> = (0..fleet.len())
        .map(|k| {
            let mut reader = store.mapped_reader(k).expect("open camera");
            let mut chunks = Vec::new();
            while let Some(chunk) = reader.next_chunk().expect("read chunk") {
                chunks.push(chunk.to_vec());
            }
            chunks
        })
        .collect();
    let engine = Engine::new(
        EngineConfig { workers, queue_capacity: 32, ..EngineConfig::default() },
        Vec::new(),
    );
    let streams: Vec<_> =
        (0..fleet.len()).map(|k| engine.attach(backend_of(k).build(config.clone()))).collect();
    for (k, chunks) in chunks_of.iter().enumerate() {
        for chunk in &chunks[..pick_cut(chunks)] {
            engine.push(streams[k], chunk.clone());
        }
    }
    let mut shipped = Vec::new();
    for (k, chunks) in chunks_of.iter().enumerate() {
        let cut = pick_cut(chunks);
        let handoff = engine.detach_with_state(streams[k]);
        store.write_camera_snapshot(k, chunks[cut][0].t, &handoff.state).expect("write snapshot");
        shipped.push(handoff.frames);
    }
    drop(engine); // the crash: only the archive directory survives

    // Recovery from disk alone.
    let recovery_started = Instant::now();
    let engine = Engine::new(
        EngineConfig { workers, queue_capacity: 32, ..EngineConfig::default() },
        Vec::new(),
    );
    let mut tail_events = 0u64;
    let resumed: Vec<_> = (0..fleet.len())
        .map(|k| {
            let (header, state) =
                store.latest_snapshot(k).expect("scan snapshots").expect("snapshot exists");
            let pipeline =
                registry::restore_pipeline(config.clone(), &state).expect("restore session");
            let id = engine.attach_with_state(pipeline, StreamTotals::default());
            let mut reader = store.mapped_reader(k).expect("reopen camera");
            reader.seek_to_time(header.checkpoint_t);
            while let Some(chunk) = reader.next_chunk().expect("read tail") {
                tail_events += chunk.len() as u64;
                engine.push(id, chunk.to_vec());
            }
            engine.finish_stream(id, fleet[k].duration_us);
            id
        })
        .collect();
    let output = engine.join();
    let recovery_elapsed = recovery_started.elapsed();

    let mut drill_rows = Vec::new();
    let mut identical = true;
    for (k, rec) in fleet.iter().enumerate() {
        let spec = backend_of(k);
        let expect: Vec<FrameResult> =
            spec.build(config.clone()).process_recording(&rec.events, rec.duration_us);
        let mut recovered = shipped[k].clone();
        recovered.extend(output.streams[resumed[k].0].iter().cloned());
        assert_bits_eq(&recovered, &expect, &format!("camera {k} ({})", spec.name));
        identical &= recovered.len() == expect.len();
        drill_rows.push(vec![
            rec.name.clone(),
            spec.name.to_string(),
            shipped[k].len().to_string(),
            (recovered.len() - shipped[k].len()).to_string(),
            "bit-exact".to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Camera", "Backend", "Shipped frames", "Recovered frames", "vs unsevered"],
            &drill_rows
        )
    );
    let recovery_rate = tail_events as f64 / recovery_elapsed.as_secs_f64().max(1e-9);
    println!(
        "drill: {} cameras severed and recovered in {:.3} s ({:.1} k tail ev/s) — lossless: {identical}",
        fleet.len(),
        recovery_elapsed.as_secs_f64(),
        recovery_rate / 1e3
    );

    if smoke {
        println!("--smoke: skipping BENCH_checkpoint.json");
    } else {
        report
            .u64("drill_tail_events", tail_events)
            .f64("drill_recovery_seconds", recovery_elapsed.as_secs_f64())
            .f64("drill_tail_events_per_sec", recovery_rate)
            .bool("identical", identical)
            .write(std::path::Path::new("BENCH_checkpoint.json"))
            .expect("write BENCH_checkpoint.json");
        println!("wrote BENCH_checkpoint.json");
    }

    if flags.has("--keep") || given_dir.is_some() {
        println!("archive kept at {}", dir.display());
    } else {
        std::fs::remove_dir_all(&dir).expect("remove archive dir");
    }
    assert!(identical, "recovery diverged from the unsevered run");
}
