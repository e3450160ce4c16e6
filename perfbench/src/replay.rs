//! One replay pass: `EBST` readers → engine through the store's own
//! `Replayer::replay_engine`, at maximum speed.

use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebbiot_core::{EbbiotPipeline, StageTelemetry};
use ebbiot_engine::{Engine, EngineConfig};
use ebbiot_store::{ChunkReader, ReplayMode, Replayer};
use ebbiot_telemetry::Registry;

use crate::trace::Layers;
use crate::workload::{Camera, WORKERS};
use crate::Pass;

pub fn pass(
    cameras: &[Camera],
    readers: &mut [ChunkReader<Cursor<Vec<u8>>>],
    trace: bool,
) -> Result<Pass, String> {
    for reader in readers.iter_mut() {
        reader.rewind();
    }
    let registry = Arc::new(Registry::new());
    let stage = trace.then(|| StageTelemetry::register(&registry));

    let started = Instant::now();
    let pipelines = cameras
        .iter()
        .map(|cam| {
            let mut pipeline = EbbiotPipeline::new(cam.config.clone());
            pipeline.set_stage_telemetry(stage.clone());
            pipeline
        })
        .collect();
    let engine = Engine::with_registry(
        EngineConfig::with_workers(WORKERS),
        pipelines,
        Arc::clone(&registry),
    );
    let run = Replayer::new(ReplayMode::MaxSpeed)
        .replay_engine(readers, engine)
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed();

    let mut layers = Layers::default();
    let reconciled = if trace {
        layers.decode_ns = decode_only(readers)?.as_nanos() as u64;
        layers.add_engine(&registry, WORKERS)
    } else {
        Ok(())
    };
    Ok(Pass::new(cameras, &run.output.streams, wall, layers, reconciled))
}

/// Times what the replayer spends decoding: every chunk of every
/// reader, read into one reused buffer, in reader order.
fn decode_only(readers: &mut [ChunkReader<Cursor<Vec<u8>>>]) -> Result<Duration, String> {
    let mut events = Vec::new();
    let started = Instant::now();
    for reader in readers.iter_mut() {
        reader.rewind();
        while reader.next_chunk_into(&mut events).map_err(|e| e.to_string())? {}
    }
    Ok(started.elapsed())
}
