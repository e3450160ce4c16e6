//! The serving layer's contract: a multi-camera fleet ingested over
//! loopback TCP (`EBWP`) produces **bit-for-bit identical** tracker
//! output to in-process `Engine::run_fleet` — for every registered
//! back-end, any chunk size, and concurrent connections.
//!
//! This is the network twin of `engine_determinism.rs` (engine ==
//! sequential) and `store_replay_parity.rs` (disk == in-memory): all
//! three transports feed the same streaming `push`/`finish` API, so
//! the *source* of events must never show up in the output.

use ebbiot::engine::FleetOptions;
use ebbiot::prelude::*;
use ebbiot_bench::net::{server_factory, stream_camera, stream_fleet};
use ebbiot_bench::{ebbiot_config_for, run_fleet_backend};
use ebbiot_server::{IngestServer, ServerConfig};

const CAMERAS: usize = 4;
const SECONDS: f64 = 1.0;

fn fleet() -> Vec<SimulatedRecording> {
    FleetConfig::new(DatasetPreset::Lt4, CAMERAS).with_seconds(SECONDS).generate()
}

fn serving_config(fleet: &[SimulatedRecording]) -> EbbiotConfig {
    ebbiot_config_for(DatasetPreset::Lt4, &fleet[0]).with_frame_us(fleet[0].frame_us)
}

#[test]
fn tcp_ingestion_matches_run_fleet_for_every_backend() {
    let fleet = fleet();
    let config = serving_config(&fleet);

    for spec in BACKENDS {
        // In-process reference.
        let reference = run_fleet_backend(
            spec,
            DatasetPreset::Lt4,
            &fleet,
            &FleetOptions { workers: 2, queue_capacity: 8, chunk_events: 2048 },
        );

        // The same fleet through real sockets, concurrently.
        let server = IngestServer::bind(
            "127.0.0.1:0",
            ServerConfig { workers: 2, queue_capacity: 8, ..ServerConfig::default() },
            server_factory(spec, config.clone()),
        )
        .expect("bind server");
        let runs = stream_fleet(server.local_addr(), &fleet, 2048).expect("stream fleet");
        let report = server.shutdown();

        for (k, run) in runs.iter().enumerate() {
            assert_eq!(
                run.frames, reference.streams[k],
                "backend {} camera {k}: TCP output != in-process output",
                spec.name
            );
            assert_eq!(run.finished.events, fleet[k].events.len() as u64, "{}", spec.name);
            assert_eq!(run.finished.frames, run.frames.len() as u64, "{}", spec.name);
        }
        assert_eq!(report.sessions.len(), CAMERAS, "{}", spec.name);
        assert!(
            report.sessions.iter().all(|s| s.error.is_none()),
            "backend {}: {:?}",
            spec.name,
            report.sessions.iter().filter_map(|s| s.error.clone()).collect::<Vec<_>>()
        );
        assert_eq!(
            report.snapshot.events_in(),
            fleet.iter().map(|r| r.events.len() as u64).sum::<u64>()
        );
    }
}

#[test]
fn chunk_granularity_does_not_change_server_output() {
    let fleet = fleet();
    let config = serving_config(&fleet);
    let spec = registry::find_backend("ebbiot").unwrap();
    let expected = run_fleet_backend(
        spec,
        DatasetPreset::Lt4,
        &fleet,
        &FleetOptions { workers: 2, queue_capacity: 8, chunk_events: 4096 },
    );

    for chunk_events in [257usize, 4096, 1_000_000] {
        let server = IngestServer::bind(
            "127.0.0.1:0",
            ServerConfig { workers: 2, queue_capacity: 8, ..ServerConfig::default() },
            server_factory(spec, config.clone()),
        )
        .expect("bind server");
        let runs = stream_fleet(server.local_addr(), &fleet, chunk_events).expect("stream fleet");
        let _ = server.shutdown();
        for (k, run) in runs.iter().enumerate() {
            assert_eq!(run.frames, expected.streams[k], "chunk {chunk_events} camera {k}");
        }
    }
}

#[test]
fn archival_tee_round_trips_the_ingested_fleet() {
    let fleet = fleet();
    let config = serving_config(&fleet);
    let spec = registry::find_backend("ebbiot").unwrap();
    let dir = std::env::temp_dir().join(format!("ebbiot_server_tee_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let server = IngestServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            archive_dir: Some(dir.clone()),
            archive_options: StoreOptions { chunk_events: 1024 },
            ..ServerConfig::default()
        },
        server_factory(spec, config),
    )
    .expect("bind server");
    stream_fleet(server.local_addr(), &fleet, 1500).expect("stream fleet");
    let _ = server.shutdown();

    // Everything ingested is on disk, replayable, and maps back to the
    // original simulated events by stream name.
    let store = FleetStore::open(&dir).expect("open archive");
    assert_eq!(store.cameras(), CAMERAS);
    for entry in store.entries() {
        let rec = fleet.iter().find(|r| r.name == entry.name).expect("archived unknown camera");
        let camera_index = store.entries().iter().position(|e| e.name == entry.name).unwrap();
        let replayed = store.reader(camera_index).unwrap().read_recording().unwrap();
        assert_eq!(replayed.events, rec.events, "{}", entry.name);
        assert_eq!(entry.span_us, rec.duration_us, "{}", entry.name);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_sessions_fail_cleanly_and_leave_the_server_serving() {
    let fleet = fleet();
    let config = serving_config(&fleet);
    let spec = registry::find_backend("ebbiot").unwrap();
    let server = IngestServer::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 2, queue_capacity: 8, ..ServerConfig::default() },
        server_factory(spec, config),
    )
    .expect("bind server");
    let addr = server.local_addr();

    // A client on the wrong geometry is rejected via ERROR...
    let err =
        stream_camera(addr, "tiny", SensorGeometry::new(16, 16), 1_000, &[Event::on(1, 1, 5)], 64)
            .expect_err("mismatched geometry must be rejected");
    assert!(err.to_string().contains("geometry"), "{err}");

    // ...and a raw-garbage connection is dropped without killing
    // anything.
    {
        use std::io::Write;
        let mut garbage = std::net::TcpStream::connect(addr).unwrap();
        garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    }

    // The server still serves a full, correct session afterwards.
    let expected = run_fleet_backend(
        spec,
        DatasetPreset::Lt4,
        &fleet[..1],
        &FleetOptions { workers: 2, queue_capacity: 8, chunk_events: 2048 },
    );
    let run = stream_camera(
        addr,
        &fleet[0].name,
        fleet[0].geometry,
        fleet[0].duration_us,
        &fleet[0].events,
        2048,
    )
    .expect("healthy session after bad ones");
    assert_eq!(run.frames, expected.streams[0]);

    let report = server.shutdown();
    let failed = report.sessions.iter().filter(|s| s.error.is_some()).count();
    assert!(failed >= 2, "both bad sessions are reported: {report:?}");
    assert!(
        report.snapshot.streams.iter().all(|s| s.detached || s.finished),
        "no abandoned engine streams"
    );
}

#[test]
fn stats_endpoint_serves_live_metrics_during_ingestion() {
    let fleet = fleet();
    let config = serving_config(&fleet);
    let spec = registry::find_backend("ebbiot").unwrap();
    let server = IngestServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            stats_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
        server_factory(spec, config),
    )
    .expect("bind server");
    let stats_addr = server.stats_addr().expect("stats listener was requested");

    // A scrape before any session: parseable, server families present.
    let idle = ebbiot_server::scrape_stats(stats_addr).expect("scrape idle server");
    assert!(validate_exposition(&idle).unwrap() > 0, "exposition must parse");
    assert!(idle.contains("ebbiot_server_connections_total 0"));

    stream_fleet(server.local_addr(), &fleet, 2048).expect("stream fleet");

    // A live scrape after the fleet: every layer's families carry real
    // observations. (Counter *values* are checked post-shutdown — the
    // clients got FINISHED before the server-side session threads
    // finished their bookkeeping, so live values may still move.)
    let text = ebbiot_server::scrape_stats(stats_addr).expect("scrape busy server");
    assert!(validate_exposition(&text).unwrap() > 0, "exposition must parse");
    assert!(text.contains(&format!("ebbiot_server_connections_total {CAMERAS}")));
    for family in [
        "ebbiot_stage_duration_nanoseconds_count{stage=\"tracker\"}",
        "ebbiot_engine_worker_busy_nanoseconds_total{worker=\"0\"}",
        "ebbiot_engine_chunk_queue_wait_nanoseconds_count",
        "ebbiot_engine_queue_depth_chunks_count",
        "ebbiot_engine_collector_buffered_frames_count",
    ] {
        assert!(text.contains(family), "missing {family} in exposition:\n{text}");
    }

    // After shutdown all session threads have joined: the registry (the
    // same Arc the listener rendered) now shows the settled totals.
    let metrics = std::sync::Arc::clone(server.registry());
    let report = server.shutdown();
    let settled = metrics.render();
    assert!(settled.contains("ebbiot_server_sessions_active 0"), "all sessions drained");
    assert!(settled.contains("ebbiot_server_session_errors_total 0"));
    // Stage telemetry aggregates across sessions: the tracker ran once
    // per emitted frame, fleet-wide.
    let frames: u64 = report.sessions.iter().map(|s| s.summary.frames).sum();
    let needle = "ebbiot_stage_duration_nanoseconds_count{stage=\"tracker\"} ";
    let count: u64 = settled
        .lines()
        .find_map(|l| l.strip_prefix(needle))
        .expect("tracker stage count present")
        .parse()
        .unwrap();
    assert_eq!(count, frames, "one tracker-stage observation per frame");
    assert!(
        ebbiot_server::scrape_stats(stats_addr).is_err(),
        "stats listener is down after shutdown"
    );
}
