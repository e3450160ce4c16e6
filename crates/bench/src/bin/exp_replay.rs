//! **Replay experiment** — spool a simulated camera fleet to the
//! chunked `EBST` store, measure its compression against the flat
//! 14 B/event `EAER` codec, then replay it from disk through the
//! concurrent engine and check the tracker output is bit-for-bit
//! identical to in-memory processing.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_replay -- \
//!     [--cameras K] [--workers W] [--seconds S] [--seed N] \
//!     [--backend ebbiot|ebbi-kf|nn-ebms] [--preset LT4|ENG] \
//!     [--chunk E] [--rate R] [--dir PATH] [--keep] [--smoke]
//! ```
//!
//! Defaults: 8 cameras, 4 workers, 2 s per camera, the `ebbiot`
//! back-end on LT4, 16384-event chunks, max-speed replay (`--rate R`
//! paces at R× real time), spool under the system temp dir (removed
//! afterwards unless `--keep`). Replay uses the resident
//! (whole-file-in-memory) readers and `Replayer::replay_engine`; a
//! separate decode-only pass isolates `EBST` → `Event`
//! throughput from tracker cost. Emits `BENCH_replay.json` with the
//! compression ratio and both throughputs so the perf trajectory is
//! tracked across PRs. `--smoke` shrinks the run to CI size and skips
//! the JSON artifact while still asserting bit-for-bit parity.

use std::path::PathBuf;
use std::time::Instant;

use ebbiot_baselines::registry;
use ebbiot_bench::{ebbiot_config_for, run_fleet_backend, Flags, JsonReport};
use ebbiot_engine::{Engine, EngineConfig, FleetOptions};
use ebbiot_eval::report::render_table;
use ebbiot_events::codec::{EVENT_RECORD_BYTES, HEADER_BYTES};
use ebbiot_sim::{spool_fleet, FleetConfig};
use ebbiot_store::{ReplayMode, Replayer, StoreOptions};

fn main() {
    let flags = Flags::from_env(
        &[
            "--cameras",
            "--workers",
            "--seconds",
            "--seed",
            "--backend",
            "--preset",
            "--chunk",
            "--rate",
            "--dir",
        ],
        &["--keep", "--smoke"],
    );
    let smoke = flags.has("--smoke");
    let mut cameras: usize = flags.get("--cameras", 8);
    let mut workers: usize = flags.get("--workers", 4);
    let mut seconds: f64 = flags.get("--seconds", 2.0);
    let seed: u64 = flags.get("--seed", 42);
    let backend: String = flags.get("--backend", "ebbiot".into());
    let preset = flags.preset();
    let chunk_events: usize = flags.get("--chunk", StoreOptions::default().chunk_events);
    let rate: Option<f64> = flags.opt("--rate");
    let given_dir: Option<PathBuf> = flags.opt("--dir");
    if smoke {
        // CI-sized: exercise spool → decode → replay → parity
        // in a couple of seconds, without touching the BENCH artifact.
        cameras = cameras.min(2);
        workers = workers.min(2);
        seconds = seconds.min(0.25);
    }
    let spec =
        registry::find_backend(&backend).unwrap_or_else(|| panic!("unknown backend {:?}", backend));
    let workers = workers.min(cameras).max(1);
    let mode = match rate {
        Some(rate) => ReplayMode::Paced { rate },
        None => ReplayMode::MaxSpeed,
    };

    println!(
        "== Replay: {} cameras x {:.1} s of {} spooled to EBST, `{}` back-end, {} workers ==\n",
        cameras,
        seconds,
        preset.name(),
        spec.name,
        workers
    );

    // 1. Generate and spool.
    let fleet =
        FleetConfig::new(preset, cameras).with_seconds(seconds).with_base_seed(seed).generate();
    let dir = given_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ebbiot_replay_{}", std::process::id()))
    });
    let store = spool_fleet(&dir, &fleet, StoreOptions { chunk_events: chunk_events.max(1) })
        .expect("spool fleet to disk");

    // 2. Compression report vs the flat EAER binary codec (14 B/event).
    let rows: Vec<Vec<String>> = store
        .entries()
        .iter()
        .map(|e| {
            let eaer = eaer_bytes(e.events);
            vec![
                e.name.clone(),
                e.events.to_string(),
                eaer.to_string(),
                e.bytes.to_string(),
                format!("{:.2}", e.bytes as f64 / e.events.max(1) as f64),
                format!("{:.2}x", eaer as f64 / e.bytes.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Camera", "Events", "EAER bytes", "EBST bytes", "B/event", "vs EAER"],
            &rows
        )
    );

    let total_events = store.total_events();
    let ebst_bytes = store.total_bytes();
    let eaer_total: u64 = store.entries().iter().map(|e| eaer_bytes(e.events)).sum();
    let compression = eaer_total as f64 / ebst_bytes.max(1) as f64;
    let bytes_per_event = ebst_bytes as f64 / total_events.max(1) as f64;
    println!(
        "spool: {} events in {} bytes ({bytes_per_event:.2} B/event) — {compression:.2}x smaller than EAER\n",
        total_events, ebst_bytes
    );

    // 3. In-memory reference run (also the determinism baseline).
    let options = FleetOptions { workers, queue_capacity: 32, chunk_events: chunk_events.max(1) };
    let in_memory = run_fleet_backend(spec, preset, &fleet, &options);

    // 4. Decode-only pass: CRC + varint decode of every chunk into a
    //    reused buffer, no engine behind it — the store's raw read
    //    throughput, isolated from tracker cost.
    let mut decode_readers = store.mapped_readers().expect("open mapped readers");
    let mut decoded = Vec::new();
    let decode_started = Instant::now();
    let mut decoded_events = 0u64;
    for reader in &mut decode_readers {
        while reader.next_chunk_into(&mut decoded).expect("decode chunk") {
            decoded_events += decoded.len() as u64;
        }
    }
    let decode_elapsed = decode_started.elapsed();
    let decode_only_rate = decoded_events as f64 / decode_elapsed.as_secs_f64().max(1e-9);
    assert_eq!(decoded_events, total_events, "decode-only pass must see every spooled event");

    // 5. Replay from disk through a fresh engine from resident
    //    readers.
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);
    let mut readers = store.mapped_readers().expect("open fleet readers");
    let engine = Engine::new(
        EngineConfig { workers, queue_capacity: 32, ..EngineConfig::default() },
        spec.build_fleet(&config, fleet.len()),
    );
    let replay = Replayer::new(mode).replay_engine(&mut readers, engine).expect("replay fleet");

    let identical = replay.output.streams == in_memory.streams;
    println!("replay ({:?}):", mode);
    println!(
        "  decode:    {:>10.1} k ev/s  ({:.3} s wall, no engine)",
        decode_only_rate / 1e3,
        decode_elapsed.as_secs_f64()
    );
    println!(
        "  disk:      {:>10.1} k ev/s  ({:.3} s wall, {} chunks)",
        replay.events_per_sec() / 1e3,
        replay.elapsed.as_secs_f64(),
        replay.stats.iter().map(|s| s.chunks).sum::<u64>()
    );
    println!(
        "  in-memory: {:>10.1} k ev/s  ({:.3} s wall)",
        in_memory.snapshot.events_per_sec() / 1e3,
        in_memory.snapshot.elapsed.as_secs_f64()
    );
    println!("\nDeterminism: disk replay bit-for-bit identical to in-memory: {identical}");

    // 6. Machine-readable artifact for the perf trajectory (skipped in
    //    smoke mode so CI-sized runs never clobber the tracked numbers).
    if smoke {
        println!("--smoke: skipping BENCH_replay.json");
    } else {
        JsonReport::new()
            .str("experiment", "replay")
            .str("backend", spec.name)
            .str("preset", preset.name())
            .u64("cameras", cameras as u64)
            .u64("workers", workers as u64)
            .f64("seconds_per_camera", seconds)
            .u64("chunk_events", chunk_events as u64)
            .u64("events", total_events)
            .u64("ebst_bytes", ebst_bytes)
            .u64("eaer_bytes", eaer_total)
            .f64("bytes_per_event", bytes_per_event)
            .f64("compression_vs_eaer", compression)
            .f64("decode_only_events_per_sec", decode_only_rate)
            .f64("replay_events_per_sec", replay.events_per_sec())
            .f64("in_memory_events_per_sec", in_memory.snapshot.events_per_sec())
            .bool("identical", identical)
            .write(std::path::Path::new("BENCH_replay.json"))
            .expect("write BENCH_replay.json");
        println!("wrote BENCH_replay.json");
    }

    if flags.has("--keep") || given_dir.is_some() {
        println!("spool kept at {}", dir.display());
    } else {
        std::fs::remove_dir_all(&dir).expect("remove spool dir");
    }

    assert!(identical, "disk replay diverged from in-memory processing");
    assert!(
        compression > 1.0,
        "EBST ({bytes_per_event:.2} B/event) must beat the flat {EVENT_RECORD_BYTES} B/event EAER codec"
    );
}

/// Size of the same recording in the flat `EAER` binary codec.
fn eaer_bytes(events: u64) -> u64 {
    HEADER_BYTES as u64 + events * EVENT_RECORD_BYTES as u64
}
