//! Loopback `EBWP` client: streams one camera's events to an
//! [`IngestServer`](ebbiot_server::IngestServer) and collects the
//! tracker frames it sends back.
//!
//! The client is deliberately dumb — chunk, frame, send, read — so the
//! parity tests compare *transport*, not client-side cleverness. Frames
//! are read on a dedicated thread while events are still being written:
//! the server streams TRACKS back on the same connection, and a client
//! that only reads at the end would eventually deadlock against
//! back-pressure (both sides blocked on full socket buffers).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use ebbiot_core::FrameResult;
use ebbiot_events::{Event, Micros, SensorGeometry};
use ebbiot_server::{read_frame, write_frame, EventsChunk, Finished, Frame, Hello, WireError};

/// One camera's ingestion run, as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRun {
    /// Every tracker frame the server sent back, in emission order —
    /// bit-for-bit what in-process processing of the same events
    /// yields.
    pub frames: Vec<FrameResult>,
    /// The server's session summary.
    pub finished: Finished,
}

/// Streams `events` to the `EBWP` server at `addr` as one session,
/// in `chunk_events`-sized EVENTS frames, and returns everything the
/// server sent back.
///
/// # Errors
///
/// Returns the first connection, protocol or server-reported error.
///
/// # Panics
///
/// Panics when `events` is not time-ordered (clients frame validated
/// streams) or `chunk_events` is zero.
pub fn stream_camera(
    addr: SocketAddr,
    name: &str,
    geometry: SensorGeometry,
    span_us: Micros,
    events: &[Event],
    chunk_events: usize,
) -> Result<ClientRun, WireError> {
    let bytes = encode_session(name, geometry, span_us, events, chunk_events);
    stream_session_bytes(addr, name, &bytes)
}

/// Encodes a complete client session — HELLO, `chunk_events`-sized
/// EVENTS frames, FINISH — into one wire-ready byte buffer.
fn encode_session(
    name: &str,
    geometry: SensorGeometry,
    span_us: Micros,
    events: &[Event],
    chunk_events: usize,
) -> Vec<u8> {
    assert!(chunk_events > 0, "chunk_events must be at least 1");
    let mut bytes = Vec::new();
    let hello = Hello { geometry, span_us, name: name.to_string() };
    write_frame(&mut bytes, &Frame::Hello(hello)).expect("Vec write cannot fail");
    for chunk in events.chunks(chunk_events) {
        write_frame(&mut bytes, &Frame::Events(EventsChunk::encode(chunk)))
            .expect("Vec write cannot fail");
    }
    write_frame(&mut bytes, &Frame::Finish { span_us }).expect("Vec write cannot fail");
    bytes
}

/// Streams a pre-encoded session ([`encode_session`]) to the server
/// and returns everything it sent back.
fn stream_session_bytes(
    addr: SocketAddr,
    name: &str,
    bytes: &[u8],
) -> Result<ClientRun, WireError> {
    let connection = TcpStream::connect(addr).map_err(WireError::Io)?;
    connection.set_nodelay(true).map_err(WireError::Io)?;

    // Reader thread: collect TRACKS until FINISHED (or an error).
    let read_half = connection.try_clone().map_err(WireError::Io)?;
    let reader = std::thread::Builder::new()
        .name(format!("ebwp-client-read-{name}"))
        .spawn(move || collect_responses(read_half))
        .expect("spawn client reader");

    // Writer: the session is already framed, just push the bytes.
    let write_result = (|| -> Result<(), WireError> {
        let mut writer = BufWriter::new(&connection);
        writer.write_all(bytes).map_err(WireError::Io)?;
        writer.flush().map_err(WireError::Io)
    })();

    let read_result = reader.join().expect("client reader panicked");
    // A writer error is usually the *consequence* of a server-side
    // close; the reader saw the cause (the ERROR frame), so prefer it.
    let (frames, finished) = match (read_result, write_result) {
        (Ok(collected), Ok(())) => collected,
        (Err(read_err), _) => return Err(read_err),
        (Ok(_), Err(write_err)) => return Err(write_err),
    };
    Ok(ClientRun { frames, finished })
}

fn collect_responses(connection: TcpStream) -> Result<(Vec<FrameResult>, Finished), WireError> {
    let mut reader = BufReader::new(connection);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut reader)? {
            Some(Frame::Tracks(batch)) => frames.extend(batch),
            Some(Frame::Finished(finished)) => return Ok((frames, finished)),
            Some(Frame::Error(msg)) => return Err(WireError::Remote(msg)),
            Some(other) => {
                let _ = other;
                return Err(WireError::Protocol { reason: "client received a client frame" });
            }
            None => return Err(WireError::Truncated),
        }
    }
}

/// Streams a whole simulated fleet through the server concurrently —
/// one connection (and one client thread) per camera, mirroring K
/// independent sensors — and returns the per-camera runs in camera
/// order.
///
/// # Errors
///
/// Returns the first camera's error (by camera order).
pub fn stream_fleet(
    addr: SocketAddr,
    fleet: &[ebbiot_sim::SimulatedRecording],
    chunk_events: usize,
) -> Result<Vec<ClientRun>, WireError> {
    let runs: Vec<Result<ClientRun, WireError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .map(|rec| {
                scope.spawn(move || {
                    stream_camera(
                        addr,
                        &rec.name,
                        rec.geometry,
                        rec.duration_us,
                        &rec.events,
                        chunk_events,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    runs.into_iter().collect()
}

/// A server pipeline factory building `spec` back-ends with exactly
/// `config` — the serving-side twin of
/// [`run_fleet_backend`](crate::run_fleet_backend), so the parity tests
/// compare like for like. Sessions announcing a different sensor
/// geometry than the serving configuration are rejected with an ERROR.
#[must_use]
pub fn server_factory(
    spec: &'static ebbiot_baselines::registry::BackendSpec,
    config: ebbiot_core::EbbiotConfig,
) -> std::sync::Arc<ebbiot_server::PipelineFactory> {
    std::sync::Arc::new(move |hello: &Hello| {
        if hello.geometry != config.geometry {
            return Err(format!(
                "session geometry {}x{} does not match the serving configuration {}x{}",
                hello.geometry.width(),
                hello.geometry.height(),
                config.geometry.width(),
                config.geometry.height(),
            ));
        }
        Ok(spec.build(config.clone()))
    })
}
