//! **Server experiment** — drive K concurrent simulated cameras through
//! real loopback TCP sockets into the `EBWP` ingestion server, check
//! the tracker output is bit-for-bit identical to in-process
//! `Engine::run_fleet`, and measure ingestion throughput.
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_server -- \
//!     [--cameras K] [--workers W] [--seconds S] [--seed N] \
//!     [--backend ebbiot|ebbi-kf|nn-ebms] [--preset LT4|ENG] \
//!     [--chunk E] [--queue C] [--archive PATH] [--smoke]
//! ```
//!
//! Defaults: 4 cameras, 4 workers, 2 s per camera, the `ebbiot`
//! back-end on LT4, 4096-event EVENTS frames, queue capacity 32, no
//! archival tee. A decode-only pass times CRC + varint decode of the
//! same wire-sized EVENTS bodies without sockets or trackers behind
//! them. Emits `BENCH_server.json` (events/s ingested and decoded,
//! frames/s returned, per-connection queue high-water) so the
//! serving-layer perf trajectory is tracked across PRs. `--smoke`
//! shrinks the run to CI size and skips the JSON artifact while still
//! asserting bit-for-bit parity.

use std::path::PathBuf;
use std::sync::Arc;

use ebbiot_baselines::registry;
use ebbiot_bench::breakdown::{
    append_contention_fields, stage_rows, worker_rows, STAGE_HEADER, WORKER_HEADER,
};
use ebbiot_bench::net::{encode_session, server_factory, stream_fleet_bytes};
use ebbiot_bench::{ebbiot_config_for, run_fleet_backend, Flags, JsonReport};
use ebbiot_core::StageTelemetry;
use ebbiot_engine::{EngineTelemetry, FleetOptions};
use ebbiot_eval::report::render_table;
use ebbiot_server::{scrape_stats, IngestServer, ServerConfig};
use ebbiot_sim::FleetConfig;
use ebbiot_store::format::{crc32, decode_chunk_payload_fast, encode_chunk_payload};
use ebbiot_telemetry::validate_exposition;

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
            "--queue",
            "--archive",
        ],
        &["--smoke"],
    );
    let smoke = flags.has("--smoke");
    let mut cameras: usize = flags.get("--cameras", 4);
    let mut workers: usize = flags.get("--workers", 4);
    let mut seconds: f64 = flags.get("--seconds", 2.0);
    let seed: u64 = flags.get("--seed", 42);
    let backend: String = flags.get("--backend", "ebbiot".into());
    let preset = flags.preset();
    let chunk_events: usize = flags.get("--chunk", 4096);
    let queue: usize = flags.get("--queue", 32);
    let archive: Option<PathBuf> = flags.opt("--archive");
    if smoke {
        // CI-sized: exercise sockets → decode → engine → parity in a
        // couple of seconds, without touching the BENCH artifact.
        cameras = cameras.min(2);
        workers = workers.min(2);
        seconds = seconds.min(0.25);
    }
    let spec =
        registry::find_backend(&backend).unwrap_or_else(|| panic!("unknown backend {:?}", backend));
    let workers = workers.max(1);
    let chunk = chunk_events.max(1);

    println!(
        "== Server: {} cameras x {:.1} s of {} over loopback EBWP, `{}` back-end, {} workers ==\n",
        cameras,
        seconds,
        preset.name(),
        spec.name,
        workers
    );

    // 1. Simulate the fleet (clients would normally generate per
    //    connection via FleetConfig::generate_one; the reference run
    //    needs the whole fleet anyway).
    let fleet =
        FleetConfig::new(preset, cameras).with_seconds(seconds).with_base_seed(seed).generate();
    let config = ebbiot_config_for(preset, &fleet[0]).with_frame_us(fleet[0].frame_us);

    // 2. In-process reference: the engine's run_fleet on the same
    //    pipelines — the determinism baseline the server must match.
    let options = FleetOptions { workers, queue_capacity: queue, chunk_events: chunk };
    let in_memory = run_fleet_backend(spec, preset, &fleet, &options);

    // 3. Decode-only pass: encode every camera's stream into the same
    //    wire-sized EVENTS bodies the clients will send, then time
    //    CRC + varint decode into a reused buffer — the protocol's
    //    decode cost isolated from sockets and trackers.
    let bodies: Vec<(u32, u64, u64, Vec<u8>)> = fleet
        .iter()
        .flat_map(|rec| rec.events.chunks(chunk))
        .map(|events| {
            let mut body = Vec::new();
            encode_chunk_payload(&mut body, events);
            let t_first = events.first().expect("chunks are never empty").t;
            let t_last = events.last().expect("chunks are never empty").t;
            (events.len() as u32, t_first, t_last, body)
        })
        .collect();
    let geometry = fleet[0].geometry;
    let expected_crcs: Vec<u32> = bodies.iter().map(|(_, _, _, body)| crc32(body)).collect();
    let mut decoded = Vec::new();
    let decode_started = std::time::Instant::now();
    let mut decoded_events = 0u64;
    for (idx, (count, t_first, t_last, body)) in bodies.iter().enumerate() {
        assert_eq!(crc32(body), expected_crcs[idx], "wire chunk CRC");
        decode_chunk_payload_fast(&mut decoded, body, idx, geometry, *count, *t_first, *t_last)
            .expect("decode wire chunk");
        decoded_events += decoded.len() as u64;
    }
    let decode_elapsed = decode_started.elapsed();
    let decode_only_rate = decoded_events as f64 / decode_elapsed.as_secs_f64().max(1e-9);
    let fleet_events: u64 = fleet.iter().map(|r| r.events.len() as u64).sum();
    assert_eq!(decoded_events, fleet_events, "decode-only pass must see every simulated event");

    // 4. Serve on an ephemeral loopback port and stream every camera
    //    over its own real TCP connection, concurrently. Sessions are
    //    encoded up front — a real sensor encodes on-device, so the
    //    timed window measures ingest, not client-side varint encoding
    //    racing the server for the same cores.
    let sessions: Vec<Vec<u8>> = fleet
        .iter()
        .map(|rec| encode_session(&rec.name, rec.geometry, rec.duration_us, &rec.events, chunk))
        .collect();
    let server = IngestServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_capacity: queue,
            archive_dir: archive.clone(),
            archive_options: ebbiot_store::StoreOptions::default(),
            stats_addr: Some("127.0.0.1:0".parse().expect("loopback addr")),
        },
        server_factory(spec, config),
    )
    .expect("bind ingestion server");
    let addr = server.local_addr();
    let stats_addr = server.stats_addr().expect("stats listener requested");
    let started = std::time::Instant::now();
    let runs = stream_fleet_bytes(addr, &fleet, &sessions).expect("stream fleet over TCP");
    let elapsed = started.elapsed();

    // Scrape the live STATS surface while the server is still up and
    // assert it is a parseable exposition carrying every layer's metric
    // families — the CI "Telemetry" step greps for this line.
    let exposition = scrape_stats(stats_addr).expect("scrape STATS listener");
    let stats_samples =
        validate_exposition(&exposition).expect("STATS exposition must parse") as u64;
    for family in [
        "ebbiot_server_connections_total",
        "ebbiot_engine_worker_busy_nanoseconds_total",
        "ebbiot_engine_chunk_queue_wait_nanoseconds",
        "ebbiot_stage_duration_nanoseconds",
    ] {
        assert!(exposition.contains(family), "STATS scrape is missing {family}");
    }
    println!("STATS scrape OK: {stats_samples} samples from {stats_addr}\n");

    let metrics = Arc::clone(server.registry());
    let report = server.shutdown();
    // Idempotent registration returns the live instruments the server
    // recorded into — the handles for the breakdown tables below.
    let stage = StageTelemetry::register(&metrics);
    let engine_metrics = EngineTelemetry::register(Arc::clone(&metrics));

    // 5. Parity: per-camera server output == in-process output, matched
    //    by camera name (concurrent sessions attach in arrival order).
    let mut identical = true;
    for (k, (rec, run)) in fleet.iter().zip(&runs).enumerate() {
        let session = report
            .sessions
            .iter()
            .find(|s| s.summary.name == rec.name)
            .unwrap_or_else(|| panic!("no session report for {}", rec.name));
        assert!(session.error.is_none(), "{}: {:?}", rec.name, session.error);
        if run.frames != in_memory.streams[k] {
            identical = false;
        }
    }

    // 6. Per-connection table: events, frames, queue high-water.
    let rows: Vec<Vec<String>> = fleet
        .iter()
        .zip(&runs)
        .map(|(rec, run)| {
            vec![
                rec.name.clone(),
                run.finished.events.to_string(),
                run.finished.frames.to_string(),
                run.finished.queue_high_water.to_string(),
                format!("{:.3}", run.elapsed.as_secs_f64()),
            ]
        })
        .collect();
    println!("{}", render_table(&["Camera", "Events", "Frames", "Queue HWM", "Session s"], &rows));

    // Contention breakdown of the serving engine (final, post-join).
    println!("{}", render_table(&WORKER_HEADER, &worker_rows(&metrics, report.snapshot.workers)));
    println!("{}", render_table(&STAGE_HEADER, &stage_rows(&stage)));

    let events: u64 = runs.iter().map(|r| r.finished.events).sum();
    let frames: u64 = runs.iter().map(|r| r.finished.frames).sum();
    let max_hwm = runs.iter().map(|r| r.finished.queue_high_water).max().unwrap_or(0);
    let events_per_sec = events as f64 / elapsed.as_secs_f64().max(1e-9);
    let frames_per_sec = frames as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "ingested {events} events / {frames} frames in {:.3} s over {} connections",
        elapsed.as_secs_f64(),
        cameras
    );
    println!(
        "  decode:    {:>10.1} k ev/s  ({:.3} s wall, no sockets)",
        decode_only_rate / 1e3,
        decode_elapsed.as_secs_f64()
    );
    println!(
        "  socket:    {:>10.1} k ev/s  ({frames_per_sec:.1} frames/s, max queue HWM {max_hwm})",
        events_per_sec / 1e3
    );
    println!(
        "  in-memory: {:>10.1} k ev/s  ({:.3} s wall)",
        in_memory.snapshot.events_per_sec() / 1e3,
        in_memory.snapshot.elapsed.as_secs_f64()
    );
    if let Some(dir) = &archive {
        let store = ebbiot_store::FleetStore::open(dir).expect("open archive");
        println!(
            "  archive:   {} cameras, {} events, {} bytes at {}",
            store.cameras(),
            store.total_events(),
            store.total_bytes(),
            dir.display()
        );
    }
    println!(
        "\nDeterminism: TCP ingestion bit-for-bit identical to in-process run_fleet: {identical}"
    );

    // 7. Machine-readable artifact for the perf trajectory (skipped in
    //    smoke mode so CI-sized runs never clobber the tracked numbers).
    if smoke {
        println!("--smoke: skipping BENCH_server.json");
    } else {
        let json = JsonReport::new()
            .str("experiment", "server")
            .str("backend", spec.name)
            .str("preset", preset.name())
            .u64("cameras", cameras as u64)
            .u64("workers", workers as u64)
            .f64("seconds_per_camera", seconds)
            .u64("chunk_events", chunk as u64)
            .u64("queue_capacity", queue as u64)
            .u64("events", events)
            .u64("frames", frames)
            .f64("decode_only_events_per_sec", decode_only_rate)
            .f64("ingest_events_per_sec", events_per_sec)
            .f64("tracks_frames_per_sec", frames_per_sec)
            .u64("max_queue_high_water", u64::from(max_hwm))
            .f64("in_memory_events_per_sec", in_memory.snapshot.events_per_sec())
            .u64("stats_samples", stats_samples)
            .bool("identical", identical);
        append_contention_fields(json, &report.snapshot, &stage, &engine_metrics)
            .write(std::path::Path::new("BENCH_server.json"))
            .expect("write BENCH_server.json");
        println!("wrote BENCH_server.json");
    }

    assert!(identical, "server-side output diverged from in-process run_fleet");
}
