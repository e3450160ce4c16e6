//! [`IngestServer`]: the TCP accept loop and per-connection threads
//! around [`Session`].

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use ebbiot_core::StageTelemetry;
use ebbiot_engine::{Engine, EngineConfig, Snapshot};
use ebbiot_store::{FleetArchiver, StoreOptions};
use ebbiot_telemetry::Registry;

use crate::protocol::{write_frame, Frame, FrameReader, FrameRef, WireError, ENVELOPE_BYTES};
use crate::session::{PipelineFactory, Session, SessionSummary};
use crate::stats::{ServerTelemetry, StatsServer};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server sizing and archival knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine worker threads shared by every session's stream.
    pub workers: usize,
    /// Per-stream bound on chunks in flight; once a session's queue is
    /// full its reader thread blocks, which propagates back-pressure to
    /// the client socket as TCP flow control.
    pub queue_capacity: usize,
    /// When set, every session is teed into a [`FleetArchiver`] at this
    /// directory — ingest once, replay forever.
    pub archive_dir: Option<PathBuf>,
    /// Chunking of the archival tee's `EBST` files.
    pub archive_options: StoreOptions,
    /// When set, a [`StatsServer`] is bound here (use port 0 for an
    /// ephemeral port) serving the server's full metrics registry —
    /// engine contention, per-stage pipeline timings and session
    /// counters — as the text exposition of ARCHITECTURE.md §7.
    pub stats_addr: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let EngineConfig { workers, queue_capacity, .. } = EngineConfig::default();
        Self {
            workers,
            queue_capacity,
            archive_dir: None,
            archive_options: StoreOptions::default(),
            stats_addr: None,
        }
    }
}

/// One session's outcome in the server's shutdown report.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The peer's socket address.
    pub peer: String,
    /// What the session ingested and returned.
    pub summary: SessionSummary,
    /// `None` for a clean HELLO → FINISH exchange, else the error the
    /// connection was closed with.
    pub error: Option<String>,
}

/// Everything the server did, from [`IngestServer::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The engine's final statistics (per stream == per session).
    pub snapshot: Snapshot,
    /// Per-connection outcomes, in completion order.
    pub sessions: Vec<SessionReport>,
}

#[derive(Default)]
struct ServerShared {
    /// Handles of spawned session threads (drained on shutdown).
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Completed sessions' reports.
    reports: Mutex<Vec<SessionReport>>,
}

/// A TCP ingestion server speaking `EBWP`.
///
/// One accept-loop thread plus one reader thread per connection; every
/// connection becomes a [`Session`] attached to one shared multi-stream
/// [`Engine`], so concurrent cameras are tracked by the same worker
/// pool that `Engine::run_fleet` uses — and produce bit-for-bit the
/// same output (`tests/server_parity.rs` at the workspace root).
///
/// ```no_run
/// use std::sync::Arc;
/// use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
/// use ebbiot_server::{IngestServer, ServerConfig};
///
/// let server = IngestServer::bind(
///     "127.0.0.1:0",
///     ServerConfig::default(),
///     Arc::new(|hello: &ebbiot_server::Hello| {
///         Ok(EbbiotPipeline::new(EbbiotConfig::paper_default(hello.geometry)).boxed())
///     }),
/// )?;
/// println!("serving EBWP on {}", server.local_addr());
/// # Ok::<(), ebbiot_server::WireError>(())
/// ```
pub struct IngestServer {
    engine: Arc<Engine>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shared: Arc<ServerShared>,
    registry: Arc<Registry>,
    stats: Option<StatsServer>,
}

impl IngestServer {
    /// Binds a listener (use port 0 for an ephemeral port), spawns the
    /// shared engine and the accept loop, and starts serving.
    ///
    /// # Errors
    ///
    /// Returns a bind/listen I/O error, or the archiver's creation
    /// error when `config.archive_dir` is set.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        factory: Arc<PipelineFactory>,
    ) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr).map_err(WireError::Io)?;
        let local_addr = listener.local_addr().map_err(WireError::Io)?;
        let archiver = match &config.archive_dir {
            Some(dir) => Some(FleetArchiver::create(dir, config.archive_options)?),
            None => None,
        };
        // One registry aggregates everything the server knows: engine
        // contention, per-stage pipeline timings (shared across all
        // sessions) and connection/session counters.
        let registry = Arc::new(Registry::new());
        let engine = Arc::new(Engine::with_registry(
            EngineConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                ..EngineConfig::default()
            },
            Vec::new(),
            Arc::clone(&registry),
        ));
        let telemetry = ServerTelemetry::register(&registry);
        let stage = StageTelemetry::register(&registry);
        let stats = match config.stats_addr {
            Some(stats_addr) => {
                Some(StatsServer::bind(stats_addr, Arc::clone(&registry)).map_err(WireError::Io)?)
            }
            None => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ServerShared::default());

        let accept = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ebwp-accept".into())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &engine,
                        &factory,
                        archiver.as_ref(),
                        &stop,
                        &shared,
                        &telemetry,
                        &stage,
                    );
                })
                .expect("spawn accept loop")
        };
        Ok(Self { engine, local_addr, accept: Some(accept), stop, shared, registry, stats })
    }

    /// The bound address (with the actual port when bound to port 0).
    #[must_use]
    pub const fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The STATS listener's address, when `config.stats_addr` was set.
    #[must_use]
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats.as_ref().map(StatsServer::local_addr)
    }

    /// The server's metrics registry (engine, pipeline stages, server
    /// counters) — what the STATS listener renders.
    #[must_use]
    pub const fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Live engine statistics: one stream per session ever attached.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.engine.snapshot()
    }

    /// Stops accepting, waits for in-flight sessions to end (clients
    /// must disconnect or finish), drains the engine and returns the
    /// final report.
    ///
    /// # Panics
    ///
    /// Re-raises an engine worker panic, like [`Engine::join`].
    #[must_use]
    pub fn shutdown(mut self) -> ServerReport {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so a blocked `accept` observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept loop panicked");
        }
        for handle in lock(&self.shared.handles).drain(..) {
            handle.join().expect("session thread panicked");
        }
        if let Some(stats) = self.stats.take() {
            stats.shutdown();
        }
        let engine = Arc::into_inner(self.engine).expect("sessions all ended");
        let output = engine.join();
        ServerReport { snapshot: output.snapshot, sessions: lock(&self.shared.reports).clone() }
    }
}

#[allow(clippy::too_many_arguments)] // one call site, spawned by `bind`
fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    factory: &Arc<PipelineFactory>,
    archiver: Option<&FleetArchiver>,
    stop: &Arc<AtomicBool>,
    shared: &Arc<ServerShared>,
    telemetry: &ServerTelemetry,
    stage: &StageTelemetry,
) {
    for connection in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return; // the waking connection (or a raced client) is dropped
        }
        let Ok(connection) = connection else { continue };
        telemetry.connections.inc();
        let session = Session::new(Arc::clone(engine), Arc::clone(factory), archiver.cloned())
            .with_stage_telemetry(stage.clone());
        let shared_for_session = Arc::clone(shared);
        let telemetry_for_session = telemetry.clone();
        let handle = std::thread::Builder::new()
            .name("ebwp-session".into())
            .spawn(move || {
                telemetry_for_session.sessions_active.inc();
                let report = serve_connection(connection, session);
                if report.error.is_some() {
                    telemetry_for_session.session_errors.inc();
                }
                telemetry_for_session.sessions_active.dec();
                lock(&shared_for_session.reports).push(report);
            })
            .expect("spawn session thread");
        lock(&shared.handles).push(handle);
    }
}

/// Bytes each connection reads ahead: a client's burst of EVENTS frames
/// arrives in few reads, and the replies to all of it in few writes.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// Runs one connection to completion: frames in, responses out, an
/// ERROR frame (best effort) on the way down.
fn serve_connection(connection: TcpStream, mut session: Session) -> SessionReport {
    let peer = connection.peer_addr().map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let mut writer = BufWriter::new(&connection);
    let result = drive(&connection, &mut writer, &mut session);
    if let Err(err) = &result {
        // Tell the client why, after any replies still buffered, before
        // hanging up; the socket may already be gone, so ignore failures.
        let _ = write_frame(&mut writer, &Frame::Error(err.to_string()));
        let _ = writer.flush();
        session.abort();
    }
    SessionReport {
        peer,
        summary: session.summary().clone(),
        error: result.err().map(|e| e.to_string()),
    }
}

/// Reads frames through a [`READ_BUFFER_BYTES`] buffer and writes the
/// session's replies to `writer`, which it flushes only after a FLUSH or
/// FINISH, or before a read that can block: when the read buffer holds
/// less than one whole frame. Replies to frames that were already
/// buffered go out together.
fn drive(
    connection: &TcpStream,
    writer: &mut BufWriter<&TcpStream>,
    session: &mut Session,
) -> Result<(), WireError> {
    connection.set_nodelay(true).map_err(WireError::Io)?;
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, connection);
    // One payload buffer for the whole connection: EVENTS chunks are
    // CRC-checked and decoded straight out of it (`Session::on_events`),
    // never copied into an intermediate Vec.
    let mut frames = FrameReader::new();
    loop {
        if !holds_whole_frame(reader.buffer()) {
            writer.flush().map_err(WireError::Io)?;
        }
        let (responses, asked) = match frames.read_from(&mut reader)? {
            Some(FrameRef::Events(chunk)) => (session.on_events(&chunk)?, false),
            Some(FrameRef::Control(frame)) => {
                let asked = matches!(frame, Frame::Flush | Frame::Finish { .. });
                (session.on_frame(frame)?, asked)
            }
            // EOF: fine after FINISH (we already returned), an error in
            // the middle of a session.
            None => return Err(WireError::Truncated),
        };
        for response in &responses {
            write_frame(writer, response).map_err(WireError::Io)?;
        }
        if asked {
            writer.flush().map_err(WireError::Io)?;
        }
        if session.is_finished() {
            return Ok(());
        }
    }
}

/// Whether `buffered` starts with a whole frame: its envelope and every
/// payload byte the envelope declares.
fn holds_whole_frame(buffered: &[u8]) -> bool {
    let Some((envelope, payload)) = buffered.split_first_chunk::<ENVELOPE_BYTES>() else {
        return false;
    };
    let len = u32::from_le_bytes(envelope[1..].try_into().expect("len 4"));
    payload.len() as u64 >= u64::from(len)
}
