//! The workloads and the inputs each one is built from.
//!
//! Every input comes from the `--seed`: the seed is the base seed of a
//! simulated camera fleet (`ebbiot_sim::FleetConfig`), so one seed gives
//! bit-identical recordings, encodings and expected outputs.

use std::io::Cursor;

use ebbiot_core::{EbbiotConfig, EbbiotPipeline, FrameResult, RegionOfExclusion};
use ebbiot_events::SensorGeometry;
use ebbiot_frame::BoundingBox;
use ebbiot_server::{write_frame, EventsChunk, Frame, Hello};
use ebbiot_sim::{DatasetPreset, FleetConfig, SimulatedRecording};
use ebbiot_store::{ChunkReader, RecordingWriter, StoreOptions};

/// How a workload feeds the tracking stack.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Replays `EBST` recordings into the engine through the store's
    /// `Replayer`, one stream per camera, in global chunk-time order, as
    /// fast as the engine admits (closed loop against back-pressure).
    Replay,
    /// Streams `EBWP` sessions, one TCP connection per camera, into an
    /// `IngestServer` on the loopback interface, as fast as it reads.
    Ingest,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub preset: DatasetPreset,
    pub cameras: usize,
    /// Simulated seconds per camera.
    pub recording_s: f64,
    pub drive: Drive,
}

/// Engine workers in every workload. The measurement host is taken to
/// be about one core, where more workers measure hand-off, not scaling.
pub const WORKERS: usize = 1;

/// Events per `EBST` chunk or `EBWP` EVENTS frame.
const CHUNK_EVENTS: usize = 1_024;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "replay-lt4",
        preset: DatasetPreset::Lt4,
        cameras: 48,
        recording_s: 20.0,
        drive: Drive::Replay,
    },
    Workload {
        name: "ingest-eng",
        preset: DatasetPreset::Eng,
        cameras: 20,
        recording_s: 15.0,
        drive: Drive::Ingest,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One camera as the workload sees it: its pipeline configuration and
/// the frames a sequential in-memory run produces, the reference every
/// measured run must reproduce bit for bit.
pub struct Camera {
    pub name: String,
    pub geometry: SensorGeometry,
    pub config: EbbiotConfig,
    pub span_us: u64,
    pub events: u64,
    pub expected: Vec<FrameResult>,
}

/// One camera's session as pre-encoded `EBWP` frames.
pub struct WireSession {
    pub hello: Vec<u8>,
    /// One encoded EVENTS frame per chunk.
    pub events: Vec<Vec<u8>>,
    pub finish: Vec<u8>,
}

/// The encoded form of a fleet a workload drives.
pub enum Encoded {
    Store(Vec<ChunkReader<Cursor<Vec<u8>>>>),
    Wire(Vec<WireSession>),
}

/// Simulates the fleet for `seed`.
pub fn simulate(w: &Workload, seed: u64) -> Vec<SimulatedRecording> {
    FleetConfig::new(w.preset, w.cameras)
        .with_seconds(w.recording_s)
        .with_base_seed(seed)
        .generate()
}

/// The paper pipeline's configuration for one camera, with the region
/// of exclusion drawn around the preset's flicker distractors (one RPN
/// cell of margin, as the experiment binaries do). Kept here rather than
/// imported from the experiment crate so the workload stays fixed while
/// that crate changes.
fn config_for(preset: DatasetPreset, geometry: SensorGeometry) -> EbbiotConfig {
    let roe = preset
        .config()
        .flickers
        .iter()
        .map(|f| {
            let b = f.region;
            BoundingBox::new(
                f32::from(b.x_min) - 6.0,
                f32::from(b.y_min) - 3.0,
                f32::from(b.width()) + 12.0,
                f32::from(b.height()) + 6.0,
            )
        })
        .collect();
    EbbiotConfig::paper_default(geometry).with_roe(RegionOfExclusion::new(roe))
}

/// Per-camera configuration and reference output.
pub fn cameras(w: &Workload, fleet: &[SimulatedRecording]) -> Vec<Camera> {
    fleet
        .iter()
        .map(|rec| {
            let config = config_for(w.preset, rec.geometry);
            let expected =
                EbbiotPipeline::new(config.clone()).process_recording(&rec.events, rec.duration_us);
            Camera {
                name: rec.name.clone(),
                geometry: rec.geometry,
                config,
                span_us: rec.duration_us,
                events: rec.events.len() as u64,
                expected,
            }
        })
        .collect()
}

/// The set-up a workload pays before it can run: encoding the fleet
/// into the form its source reads, and opening it.
pub fn encode(w: &Workload, fleet: &[SimulatedRecording]) -> Result<Encoded, String> {
    match w.drive {
        Drive::Replay => fleet
            .iter()
            .map(|rec| {
                let mut writer = RecordingWriter::new(
                    Vec::new(),
                    rec.geometry,
                    &rec.name,
                    rec.duration_us,
                    StoreOptions { chunk_events: CHUNK_EVENTS },
                )
                .map_err(|e| e.to_string())?;
                writer.push_events(&rec.events).map_err(|e| e.to_string())?;
                let (bytes, _) = writer.finish().map_err(|e| e.to_string())?;
                ChunkReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()
            .map(Encoded::Store),
        Drive::Ingest => {
            let frame_bytes = |frame: &Frame| {
                let mut bytes = Vec::new();
                write_frame(&mut bytes, frame).map(|()| bytes).map_err(|e| e.to_string())
            };
            fleet
                .iter()
                .map(|rec| {
                    let hello = Frame::Hello(Hello {
                        geometry: rec.geometry,
                        span_us: rec.duration_us,
                        name: rec.name.clone(),
                    });
                    let events = rec
                        .events
                        .chunks(CHUNK_EVENTS)
                        .map(|chunk| frame_bytes(&Frame::Events(EventsChunk::encode(chunk))))
                        .collect::<Result<_, String>>()?;
                    Ok(WireSession {
                        hello: frame_bytes(&hello)?,
                        events,
                        finish: frame_bytes(&Frame::Finish { span_us: rec.duration_us })?,
                    })
                })
                .collect::<Result<_, _>>()
                .map(Encoded::Wire)
        }
    }
}
