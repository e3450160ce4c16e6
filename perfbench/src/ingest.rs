//! One ingest pass: `EBWP` clients → `IngestServer` over loopback TCP.
//!
//! Each camera is one connection with its own writer and reader thread,
//! sending its pre-encoded session as fast as the server reads it. The
//! server is bound inside the timed pass and shut down after the last
//! FINISHED, so its set-up and drain count like any other work.

use std::collections::HashMap;
use std::io::{BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebbiot_core::{EbbiotConfig, EbbiotPipeline, FrameResult};
use ebbiot_server::{
    read_frame, Frame, FrameReader, FrameRef, Hello, IngestServer, PipelineFactory, ServerConfig,
};

use crate::trace::Layers;
use crate::workload::{Camera, WireSession, WORKERS};
use crate::Pass;

pub fn pass(cameras: &[Camera], sessions: &[WireSession], trace: bool) -> Result<Pass, String> {
    let factory = factory(cameras);

    let started = Instant::now();
    let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let server = IngestServer::bind("127.0.0.1:0", config, factory).map_err(|e| e.to_string())?;
    let registry = Arc::clone(server.registry());
    let addr = server.local_addr();
    let runs: Vec<Result<Vec<FrameResult>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> =
            sessions.iter().map(|session| scope.spawn(move || client(addr, session))).collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    let report = server.shutdown();
    let wall = started.elapsed();

    if let Some(failed) = report.sessions.iter().find(|s| s.error.is_some()) {
        return Err(format!("session {} failed: {:?}", failed.summary.name, failed.error));
    }
    let streams = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut layers = Layers::default();
    let reconciled = if trace {
        layers.decode_ns = decode_only(cameras, sessions)?.as_nanos() as u64;
        layers.add_engine(&registry, WORKERS)
    } else {
        Ok(())
    };
    Ok(Pass::new(cameras, &streams, wall, layers, reconciled))
}

/// Builds each session's pipeline from its HELLO: the camera's own
/// configuration.
fn factory(cameras: &[Camera]) -> Arc<PipelineFactory> {
    let by_name: HashMap<String, EbbiotConfig> =
        cameras.iter().map(|cam| (cam.name.clone(), cam.config.clone())).collect();
    Arc::new(move |hello: &Hello| {
        let config =
            by_name.get(&hello.name).ok_or_else(|| format!("unknown camera {}", hello.name))?;
        Ok(EbbiotPipeline::new(config.clone()).boxed())
    })
}

/// Streams one session and collects every frame the server sends back.
fn client(addr: SocketAddr, session: &WireSession) -> Result<Vec<FrameResult>, String> {
    let io = |e: std::io::Error| e.to_string();
    let connection = TcpStream::connect(addr).map_err(io)?;
    connection.set_nodelay(true).map_err(io)?;
    let read_half = connection.try_clone().map_err(io)?;
    std::thread::scope(|scope| {
        // Read while writing: the server answers on the same connection,
        // and a client reading only at the end would deadlock against
        // back-pressure once both socket buffers fill.
        let reader = scope.spawn(move || collect(read_half));
        let written = (|| -> std::io::Result<()> {
            let mut out = &connection;
            out.write_all(&session.hello)?;
            for bytes in &session.events {
                out.write_all(bytes)?;
            }
            out.write_all(&session.finish)
        })();
        let frames = reader.join().expect("client reader panicked")?;
        written.map_err(io)?;
        Ok(frames)
    })
}

fn collect(connection: TcpStream) -> Result<Vec<FrameResult>, String> {
    let mut reader = BufReader::new(connection);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut reader).map_err(|e| e.to_string())? {
            Some(Frame::Tracks(batch)) => frames.extend(batch),
            Some(Frame::Finished(_)) => return Ok(frames),
            Some(Frame::Error(msg)) => return Err(format!("server error: {msg}")),
            Some(_) => return Err("server sent a client frame".into()),
            None => return Err("connection closed before FINISHED".into()),
        }
    }
}

/// Times what each session thread spends decoding: parsing the EVENTS
/// frames out of a byte stream, CRC checks and varint decode, on the
/// exact bytes the pass sent.
fn decode_only(cameras: &[Camera], sessions: &[WireSession]) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    let mut events = Vec::new();
    for (cam, session) in cameras.iter().zip(sessions) {
        let stream: Vec<u8> = session.events.concat();
        let mut source = Cursor::new(stream);
        let mut frames = FrameReader::new();
        let started = Instant::now();
        while let Some(frame) = frames.read_from(&mut source).map_err(|e| e.to_string())? {
            let FrameRef::Events(chunk) = frame else {
                return Err("non-EVENTS frame in the event stream".into());
            };
            chunk.decode_into(&mut events, cam.geometry).map_err(|e| e.to_string())?;
        }
        total += started.elapsed();
    }
    Ok(total)
}
