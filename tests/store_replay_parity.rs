//! Streaming-replay parity: a fleet spooled to disk (`EBST`) and
//! replayed through the concurrent engine must produce tracker output
//! **bit-for-bit identical** to PR 2's in-memory `run_fleet` — for
//! every registered back-end — while the readers hold at most one
//! chunk per stream in memory, and the spool must be smaller than a
//! flat 14-byte-per-event file. Also pins `seek_to_time` semantics:
//! resuming mid-recording equals a fresh read filtered to the seek
//! instant.

use std::path::PathBuf;

use ebbiot::engine::{EngineConfig, FleetOptions};
use ebbiot::prelude::*;
use ebbiot::store::fleet::StoredCamera;

const CAMERAS: usize = 8;
const SECONDS: f64 = 0.4;
const CHUNK_EVENTS: usize = 777;
/// The flat event file EBST replaced (an 18-byte header, then 14 bytes
/// per event) is the size bound a spool must stay under.
const FLAT_HEADER_BYTES: usize = 18;
const FLAT_EVENT_BYTES: usize = 14;

fn fleet() -> Vec<SimulatedRecording> {
    FleetConfig::new(DatasetPreset::Lt4, CAMERAS).with_seconds(SECONDS).generate()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ebbiot_parity_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn spooled_fleet_replay_is_bit_identical_to_in_memory_for_all_backends() {
    let fleet = fleet();
    let dir = temp_dir("engine");
    let store = spool_fleet(&dir, &fleet, StoreOptions::default().with_chunk_events(CHUNK_EVENTS))
        .expect("spool fleet");
    assert_eq!(store.cameras(), CAMERAS);
    // The spool is smaller than the flat file would be: a header plus a
    // fixed-size record per event, per camera.
    let flat_bytes: usize =
        fleet.iter().map(|r| FLAT_HEADER_BYTES + r.events.len() * FLAT_EVENT_BYTES).sum();
    assert!(
        store.total_bytes() < flat_bytes as u64,
        "EBST {} bytes vs flat {flat_bytes} bytes",
        store.total_bytes()
    );

    let config = EbbiotConfig::paper_default(fleet[0].geometry).with_frame_us(fleet[0].frame_us);
    for spec in BACKENDS {
        // In-memory reference: PR 2's engine fan-out over resident
        // event vectors (itself proven equal to sequential
        // process_recording by tests/engine_determinism.rs).
        let streams: Vec<FleetStream<'_>> = fleet
            .iter()
            .map(|r| FleetStream { events: &r.events, span_us: r.duration_us })
            .collect();
        let in_memory = Engine::run_fleet(
            spec.build_fleet(&config, CAMERAS),
            &streams,
            &FleetOptions { workers: 4, queue_capacity: 8, chunk_events: CHUNK_EVENTS },
        );

        // Disk replay: the same fleet through the same engine shape,
        // fed from chunked readers instead of in-memory vectors.
        let mut readers = store.readers().expect("open readers");
        let engine = Engine::new(
            EngineConfig { workers: 4, queue_capacity: 8, ..EngineConfig::default() },
            spec.build_fleet(&config, CAMERAS),
        );
        let replay = Replayer::new(ReplayMode::MaxSpeed)
            .replay_engine(&mut readers, engine)
            .expect("replay fleet");

        assert_eq!(
            replay.output.streams, in_memory.streams,
            "backend {} diverged between disk replay and in-memory processing",
            spec.name
        );
        assert_eq!(
            replay.events(),
            fleet.iter().map(|r| r.events.len() as u64).sum::<u64>(),
            "backend {}: no events dropped",
            spec.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn readers_hold_at_most_one_chunk_per_stream() {
    let fleet = fleet();
    let dir = temp_dir("bounded");
    let store =
        spool_fleet(&dir, &fleet, StoreOptions::default().with_chunk_events(CHUNK_EVENTS)).unwrap();
    for (k, rec) in fleet.iter().enumerate() {
        let mut reader = store.reader(k).unwrap();
        let mut total = 0u64;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            assert!(
                chunk.len() <= CHUNK_EVENTS,
                "decoded chunk of {} events exceeds the {CHUNK_EVENTS}-event bound",
                chunk.len()
            );
            total += chunk.len() as u64;
        }
        assert_eq!(total, rec.events.len() as u64);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seek_to_time_resumes_consistently_with_a_fresh_read() {
    let rec = DatasetPreset::Lt4.config().with_duration_s(SECONDS).generate(11);
    let dir = temp_dir("seek");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rec.ebst");
    spool_recording(&path, &rec, StoreOptions::default().with_chunk_events(CHUNK_EVENTS)).unwrap();

    let mut reader = ebbiot::store::ChunkReader::open(&path).unwrap();
    let full = reader.read_recording().unwrap();
    assert_eq!(full, rec.events, "fresh read is lossless");

    let mid = rec.duration_us / 2;
    for instant in [0, 1, mid, mid + 1, rec.duration_us] {
        reader.seek_to_time(instant);
        let resumed = reader.read_recording().unwrap();
        let expected: Vec<Event> = full.iter().copied().filter(|e| e.t >= instant).collect();
        assert_eq!(resumed, expected, "seek to t={instant}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spooled_single_stream_replay_matches_process_recording() {
    let rec = DatasetPreset::Lt4.config().with_duration_s(SECONDS).generate(5);
    let dir = temp_dir("pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rec.ebst");
    spool_recording(&path, &rec, StoreOptions::default().with_chunk_events(CHUNK_EVENTS)).unwrap();

    let config = EbbiotConfig::paper_default(rec.geometry).with_frame_us(rec.frame_us);
    for spec in BACKENDS {
        let expected = spec.build(config.clone()).process_recording(&rec.events, rec.duration_us);
        let mut readers = vec![ebbiot::store::ChunkReader::open(&path).unwrap()];
        let engine = Engine::new(EngineConfig::with_workers(1), vec![spec.build(config.clone())]);
        let run = Replayer::new(ReplayMode::MaxSpeed).replay_engine(&mut readers, engine).unwrap();
        assert_eq!(run.output.streams, [expected], "backend {}", spec.name);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// Referenced so the import is exercised even if the test above is
// filtered; StoredCamera is the raw (non-sim) spool input shape.
#[test]
fn stored_camera_shape_is_usable_without_the_simulator() {
    let events: Vec<Event> =
        (0..100).map(|i| Event::on(i % 50, i % 40, u64::from(i) * 10)).collect();
    let dir = temp_dir("raw");
    let store = ebbiot::store::FleetStore::write(
        &dir,
        &[StoredCamera {
            name: "raw",
            geometry: SensorGeometry::new(64, 48),
            span_us: 1_000,
            events: &events,
        }],
        StoreOptions::default(),
    )
    .unwrap();
    assert_eq!(store.total_events(), 100);
    assert_eq!(store.reader(0).unwrap().read_recording().unwrap(), events);
    std::fs::remove_dir_all(&dir).unwrap();
}
