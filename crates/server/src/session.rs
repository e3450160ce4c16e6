//! [`Session`]: the server-side per-connection state machine, decoupled
//! from any socket.
//!
//! A session consumes decoded [`Frame`]s and produces response frames;
//! the TCP layer ([`crate::server`]) is a thin loop around
//! [`read_frame`](crate::protocol::read_frame) → [`Session::on_frame`] →
//! [`write_frame`](crate::protocol::write_frame). Keeping the state
//! machine I/O-free is what lets the malformed-input tests (and the
//! doctest below) drive it without opening a single socket.

use std::sync::Arc;

use ebbiot_core::{DynPipeline, FrameResult, StageTelemetry};
use ebbiot_engine::{Engine, StreamId};
use ebbiot_store::{ArchiveStream, FleetArchiver};

use crate::protocol::{tracks_frames, EventsRef, Finished, Frame, Hello, WireError};

/// Builds one pipeline per accepted session from its HELLO. The factory
/// decides the back-end and configuration; rejecting a HELLO (unknown
/// stream name, wrong geometry, …) is done by returning `Err` with a
/// human-readable reason that is sent to the client as an ERROR frame.
pub type PipelineFactory = dyn Fn(&Hello) -> Result<DynPipeline, String> + Send + Sync;

/// What a completed (or failed) session did — the server aggregates
/// these into its shutdown report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// Stream name from HELLO (empty before HELLO was seen).
    pub name: String,
    /// Engine stream the session was attached to, if it got that far.
    pub stream: Option<StreamId>,
    /// Events accepted.
    pub events: u64,
    /// Frames sent back.
    pub frames: u64,
}

/// Per-connection ingestion state: HELLO → EVENTS/FLUSH… → FINISH.
///
/// On HELLO the session builds a pipeline via its factory and
/// [`Engine::attach`]es it to the shared running engine; every EVENTS
/// chunk is validated (CRC, geometry bounds, cross-chunk time order)
/// *before* it reaches the engine, so no network input can panic a
/// worker; FINISH drains the stream and detaches it. A session that
/// errors is [`Session::abort`]ed, which also detaches — a failed
/// connection never leaks an engine stream.
///
/// # Example
///
/// Drive a session in-process, no sockets involved:
///
/// ```
/// use std::sync::Arc;
/// use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
/// use ebbiot_engine::{Engine, EngineConfig};
/// use ebbiot_events::{Event, SensorGeometry};
/// use ebbiot_server::{EventsChunk, Frame, Hello, Session};
///
/// let engine = Arc::new(Engine::new(EngineConfig::with_workers(2), Vec::new()));
/// let factory = Arc::new(|hello: &Hello| {
///     Ok(EbbiotPipeline::new(EbbiotConfig::paper_default(hello.geometry)).boxed())
/// });
/// let mut session = Session::new(Arc::clone(&engine), factory, None);
///
/// // HELLO announces the sensor; EVENTS carries an EBST-encoded chunk.
/// let hello = Hello {
///     geometry: SensorGeometry::davis240(),
///     span_us: 132_000,
///     name: "demo".into(),
/// };
/// session.on_frame(Frame::Hello(hello)).unwrap();
/// let events: Vec<Event> =
///     (0..288).map(|i| Event::on(60 + (i % 24) as u16, 80 + (i / 24) as u16, i)).collect();
/// session.on_frame(Frame::Events(EventsChunk::encode(&events))).unwrap();
///
/// // FINISH flushes the tracker; the responses end with FINISHED.
/// let responses = session.on_frame(Frame::Finish { span_us: 132_000 }).unwrap();
/// assert!(matches!(responses.last(), Some(Frame::Finished(f)) if f.events == 288));
/// assert!(session.is_finished());
/// ```
pub struct Session {
    engine: Arc<Engine>,
    factory: Arc<PipelineFactory>,
    archiver: Option<FleetArchiver>,
    stage: Option<StageTelemetry>,
    state: State,
    summary: SessionSummary,
}

enum State {
    AwaitingHello,
    Streaming(Box<Active>),
    Finished,
    Failed,
}

struct Active {
    stream: StreamId,
    hello: Hello,
    /// `t_last` of the most recent chunk — the cross-chunk ordering
    /// floor the next chunk's `t_first` must not undercut.
    last_t_last: Option<u64>,
    archive: Option<ArchiveStream>,
}

impl Session {
    /// A fresh session over a shared running engine. When `archiver` is
    /// set, every accepted chunk is teed into a per-session `EBST` file
    /// that joins the archive's manifest on FINISH.
    #[must_use]
    pub fn new(
        engine: Arc<Engine>,
        factory: Arc<PipelineFactory>,
        archiver: Option<FleetArchiver>,
    ) -> Self {
        Self {
            engine,
            factory,
            archiver,
            stage: None,
            state: State::AwaitingHello,
            summary: SessionSummary { name: String::new(), stream: None, events: 0, frames: 0 },
        }
    }

    /// Attaches per-stage duration telemetry to the session's pipeline
    /// once it is built (on HELLO). The server shares one
    /// [`StageTelemetry`] across all sessions, so the histograms
    /// aggregate over the whole fleet. Observation-only: output is
    /// bit-identical with or without it.
    #[must_use]
    pub fn with_stage_telemetry(mut self, stage: StageTelemetry) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Whether the session completed a full HELLO → FINISH exchange.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        matches!(self.state, State::Finished)
    }

    /// What the session has done so far.
    #[must_use]
    pub fn summary(&self) -> &SessionSummary {
        &self.summary
    }

    /// Feeds one client frame through the state machine, returning the
    /// frames to send back (in order).
    ///
    /// # Errors
    ///
    /// Returns the first protocol, validation or engine-side error. The
    /// caller should report it to the client (as an ERROR frame) and
    /// then [`Session::abort`] — after an error the session accepts no
    /// further frames.
    pub fn on_frame(&mut self, frame: Frame) -> Result<Vec<Frame>, WireError> {
        let result = self.step(frame);
        if result.is_err() {
            self.abort();
            self.state = State::Failed;
        }
        result
    }

    fn step(&mut self, frame: Frame) -> Result<Vec<Frame>, WireError> {
        match (&mut self.state, frame) {
            (State::AwaitingHello, Frame::Hello(hello)) => {
                let mut pipeline = (self.factory)(&hello).map_err(WireError::Remote)?;
                pipeline.set_stage_telemetry(self.stage.clone());
                let archive = match &self.archiver {
                    Some(archiver) => {
                        Some(archiver.begin(&hello.name, hello.geometry, hello.span_us)?)
                    }
                    None => None,
                };
                let stream = self.engine.attach(pipeline);
                self.summary.name.clone_from(&hello.name);
                self.summary.stream = Some(stream);
                self.state = State::Streaming(Box::new(Active {
                    stream,
                    hello,
                    last_t_last: None,
                    archive,
                }));
                Ok(Vec::new())
            }
            (State::AwaitingHello, _) => {
                Err(WireError::Protocol { reason: "first frame must be HELLO" })
            }
            (State::Streaming(_), Frame::Hello(_)) => {
                Err(WireError::Protocol { reason: "second HELLO on one connection" })
            }
            (State::Streaming(active), Frame::Events(chunk)) => {
                let view = EventsRef {
                    count: chunk.count,
                    t_first: chunk.t_first,
                    t_last: chunk.t_last,
                    body: &chunk.body,
                };
                let frames = Self::ingest(&self.engine, active, &view)?;
                self.summary.events += u64::from(chunk.count);
                self.summary.frames += frames.len() as u64;
                Ok(replies(frames))
            }
            (State::Streaming(active), Frame::Flush) => {
                // Best-effort: returns what the tracker has emitted so
                // far (frames still in flight arrive with a later drain).
                let frames = self.engine.take_results(active.stream);
                self.summary.frames += frames.len() as u64;
                Ok(tracks_frames(frames))
            }
            (State::Streaming(_), Frame::Finish { span_us }) => {
                let State::Streaming(active) = std::mem::replace(&mut self.state, State::Finished)
                else {
                    unreachable!("matched Streaming above")
                };
                let (frames, high_water) = self.finish_stream(*active, span_us)?;
                self.summary.frames += frames.len() as u64;
                let mut responses = replies(frames);
                responses.push(Frame::Finished(Finished {
                    events: self.summary.events,
                    frames: self.summary.frames,
                    queue_high_water: high_water,
                }));
                Ok(responses)
            }
            (State::Streaming(_), Frame::Error(msg)) => Err(WireError::Remote(msg)),
            (State::Streaming(_), _) => {
                Err(WireError::Protocol { reason: "server-to-client frame sent by client" })
            }
            (State::Finished, _) => Err(WireError::Protocol { reason: "frame after FINISH" }),
            (State::Failed, _) => {
                Err(WireError::Protocol { reason: "frame after a session error" })
            }
        }
    }

    /// Feeds one EVENTS frame as a borrowed [`EventsRef`] — the
    /// zero-copy hot path the TCP loop uses: the chunk body is still
    /// sitting in the connection's read buffer and is decoded from
    /// there straight into the `Vec` the engine takes by value.
    /// Equivalent to `on_frame(Frame::Events(...))` in every observable
    /// way (responses, summary, error and failure-state behaviour).
    ///
    /// # Errors
    ///
    /// Returns the first protocol, validation or engine-side error;
    /// like [`Session::on_frame`], the session is aborted and accepts
    /// no further frames afterwards.
    pub fn on_events(&mut self, chunk: &EventsRef<'_>) -> Result<Vec<Frame>, WireError> {
        let result = match &mut self.state {
            State::Streaming(active) => Self::ingest(&self.engine, active, chunk),
            State::AwaitingHello => {
                Err(WireError::Protocol { reason: "first frame must be HELLO" })
            }
            State::Finished => Err(WireError::Protocol { reason: "frame after FINISH" }),
            State::Failed => Err(WireError::Protocol { reason: "frame after a session error" }),
        };
        match result {
            Ok(frames) => {
                self.summary.events += u64::from(chunk.count);
                self.summary.frames += frames.len() as u64;
                Ok(replies(frames))
            }
            Err(e) => {
                self.abort();
                self.state = State::Failed;
                Err(e)
            }
        }
    }

    /// Validates and pushes one chunk, returning newly available frames.
    fn ingest(
        engine: &Engine,
        active: &mut Active,
        chunk: &EventsRef<'_>,
    ) -> Result<Vec<FrameResult>, WireError> {
        if let Some(prev) = active.last_t_last {
            if chunk.t_first < prev {
                return Err(WireError::OutOfOrder { prev_t_last: prev, t_first: chunk.t_first });
            }
        }
        // Decode validates the packing, count/window consistency
        // and pixel bounds against the HELLO geometry. Only validated,
        // time-ordered events ever reach the engine — a hostile client
        // must not be able to panic a shared worker. The Vec moves into
        // the engine, so there is nothing to reuse across chunks.
        let mut decoded = Vec::new();
        chunk.decode_into(&mut decoded, active.hello.geometry)?;
        if let Some(archive) = &mut active.archive {
            archive.push_events(&decoded)?;
        }
        active.last_t_last = Some(chunk.t_last);
        // Blocking push: a full stream queue stalls this session's
        // reader thread, which stalls the socket — back-pressure reaches
        // the client as TCP flow control.
        engine.push(active.stream, decoded);
        Ok(engine.take_results(active.stream))
    }

    /// Finishes, drains and detaches the stream; tees the archive out.
    fn finish_stream(
        &self,
        active: Active,
        span_us: u64,
    ) -> Result<(Vec<FrameResult>, u32), WireError> {
        self.engine.finish_stream(active.stream, span_us);
        self.engine.wait_finished(active.stream);
        let frames = self.engine.detach(active.stream);
        let high_water = self.engine.queue_high_water(active.stream) as u32;
        if let Some(archive) = active.archive {
            // The FINISH span is authoritative; the HELLO hint only
            // pre-filled the header until now.
            archive.finish(span_us)?;
        }
        Ok((frames, high_water))
    }

    /// Tears the session down after an error or disconnect: a stream
    /// still attached is finished (span 0), drained and detached, so
    /// the shared engine never accumulates abandoned pipelines. Safe to
    /// call in any state; idempotent.
    pub fn abort(&mut self) {
        if let State::Streaming(active) = std::mem::replace(&mut self.state, State::Failed) {
            self.engine.finish_stream(active.stream, 0);
            self.engine.wait_finished(active.stream);
            let _ = self.engine.detach(active.stream);
            // The partial archive file is left behind but never enters
            // the manifest — see `FleetArchiver`.
        }
    }
}

/// The TRACKS frames answering an EVENTS or FINISH frame: none when no
/// window closed, otherwise as many as the frame-size cap needs.
fn replies(frames: Vec<FrameResult>) -> Vec<Frame> {
    if frames.is_empty() {
        Vec::new()
    } else {
        tracks_frames(frames)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EventsChunk;
    use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    use ebbiot_engine::EngineConfig;
    use ebbiot_events::{Event, SensorGeometry};

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig::with_workers(2), Vec::new()))
    }

    fn factory() -> Arc<PipelineFactory> {
        Arc::new(|hello: &Hello| {
            Ok(EbbiotPipeline::new(EbbiotConfig::paper_default(hello.geometry)).boxed())
        })
    }

    fn hello(name: &str) -> Frame {
        Frame::Hello(Hello { geometry: SensorGeometry::davis240(), span_us: 0, name: name.into() })
    }

    /// Dense block of events surviving the median filter.
    fn block(t0: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for dy in 0..12u16 {
            for dx in 0..24u16 {
                events.push(Event::on(60 + dx, 80 + dy, t0 + u64::from(dy)));
            }
        }
        events
    }

    #[test]
    fn full_session_matches_direct_pipeline_output() {
        let engine = engine();
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        assert!(session.on_frame(hello("parity")).unwrap().is_empty());

        let mut collected = Vec::new();
        for k in 0..4u64 {
            for frame in
                session.on_frame(Frame::Events(EventsChunk::encode(&block(k * 66_000)))).unwrap()
            {
                match frame {
                    Frame::Tracks(frames) => collected.extend(frames),
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        let responses = session.on_frame(Frame::Finish { span_us: 5 * 66_000 }).unwrap();
        let Some(Frame::Finished(done)) = responses.last() else { panic!("missing FINISHED") };
        assert_eq!(done.events, 4 * 288);
        for frame in &responses[..responses.len() - 1] {
            match frame {
                Frame::Tracks(frames) => collected.extend(frames.iter().cloned()),
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(done.frames, collected.len() as u64);
        assert!(session.is_finished());

        let mut reference =
            EbbiotPipeline::new(EbbiotConfig::paper_default(SensorGeometry::davis240()));
        let mut expected = Vec::new();
        for k in 0..4u64 {
            expected.extend(reference.push(&block(k * 66_000)));
        }
        expected.extend(reference.finish(5 * 66_000));
        let expected: Vec<FrameResult> = expected;
        assert_eq!(collected, expected, "session output is bit-for-bit the pipeline's");
    }

    /// The frames a session's TRACKS responses carry, in order. How they
    /// split across responses depends on when the worker gets to each
    /// chunk, so only the concatenation is comparable.
    fn tracked(responses: Vec<Frame>) -> Vec<FrameResult> {
        responses
            .into_iter()
            .flat_map(|frame| match frame {
                Frame::Tracks(frames) => frames,
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn on_events_is_observably_identical_to_on_frame() {
        let engine = engine();
        let mut by_frame = Session::new(Arc::clone(&engine), factory(), None);
        let mut by_view = Session::new(Arc::clone(&engine), factory(), None);
        by_frame.on_frame(hello("a")).unwrap();
        by_view.on_frame(hello("b")).unwrap();
        let (mut via_view, mut via_frame) = (Vec::new(), Vec::new());
        for k in 0..3u64 {
            let chunk = EventsChunk::encode(&block(k * 66_000));
            let view = EventsRef {
                count: chunk.count,
                t_first: chunk.t_first,
                t_last: chunk.t_last,
                body: &chunk.body,
            };
            via_view.extend(tracked(by_view.on_events(&view).unwrap()));
            via_frame.extend(tracked(by_frame.on_frame(Frame::Events(chunk)).unwrap()));
        }
        let finish = Frame::Finish { span_us: 4 * 66_000 };
        via_frame.extend(tracked(by_frame.on_frame(finish.clone()).unwrap()));
        via_view.extend(tracked(by_view.on_frame(finish).unwrap()));
        assert!(!via_view.is_empty());
        assert_eq!(via_view, via_frame);
        assert_eq!(by_frame.summary().events, by_view.summary().events);
        assert_eq!(by_frame.summary().frames, by_view.summary().frames);
    }

    #[test]
    fn on_events_errors_fail_the_session_like_on_frame() {
        let engine = engine();
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        // Before HELLO: protocol error, session dead afterwards.
        let chunk = EventsChunk::encode(&block(0));
        let view = EventsRef {
            count: chunk.count,
            t_first: chunk.t_first,
            t_last: chunk.t_last,
            body: &chunk.body,
        };
        let err = session.on_events(&view).unwrap_err();
        assert!(matches!(err, WireError::Protocol { reason } if reason.contains("HELLO")));
        assert!(session.on_frame(hello("late")).is_err());

        // Out-of-order chunks through the view path abort the stream.
        let mut session = Session::new(engine, factory(), None);
        session.on_frame(hello("ooo")).unwrap();
        let late = EventsChunk::encode(&block(66_000));
        let early = EventsChunk::encode(&block(0));
        let late_view = EventsRef {
            count: late.count,
            t_first: late.t_first,
            t_last: late.t_last,
            body: &late.body,
        };
        let early_view = EventsRef {
            count: early.count,
            t_first: early.t_first,
            t_last: early.t_last,
            body: &early.body,
        };
        session.on_events(&late_view).unwrap();
        assert!(matches!(
            session.on_events(&early_view).unwrap_err(),
            WireError::OutOfOrder { .. }
        ));
        assert!(session.on_frame(Frame::Flush).is_err(), "failed session accepts nothing");
    }

    #[test]
    fn events_before_hello_is_a_protocol_error() {
        let mut session = Session::new(engine(), factory(), None);
        let err = session.on_frame(Frame::Events(EventsChunk::encode(&block(0)))).unwrap_err();
        assert!(matches!(err, WireError::Protocol { reason } if reason.contains("HELLO")));
        // And the session is dead afterwards.
        assert!(session.on_frame(hello("late")).is_err());
    }

    #[test]
    fn second_hello_and_post_finish_frames_are_rejected() {
        let engine = engine();
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        session.on_frame(hello("a")).unwrap();
        assert!(matches!(
            session.on_frame(hello("b")).unwrap_err(),
            WireError::Protocol { reason } if reason.contains("second HELLO")
        ));

        let mut session = Session::new(engine, factory(), None);
        session.on_frame(hello("c")).unwrap();
        session.on_frame(Frame::Finish { span_us: 0 }).unwrap();
        assert!(matches!(
            session.on_frame(Frame::Flush).unwrap_err(),
            WireError::Protocol { reason } if reason.contains("after FINISH")
        ));
    }

    #[test]
    fn out_of_order_chunks_are_rejected_without_panicking_the_engine() {
        let engine = engine();
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        session.on_frame(hello("ooo")).unwrap();
        session.on_frame(Frame::Events(EventsChunk::encode(&block(66_000)))).unwrap();
        let err = session.on_frame(Frame::Events(EventsChunk::encode(&block(0)))).unwrap_err();
        assert!(matches!(err, WireError::OutOfOrder { .. }), "{err}");
        drop(session);
        // The engine survives and still serves new sessions.
        let mut next = Session::new(engine, factory(), None);
        next.on_frame(hello("next")).unwrap();
        let responses = next.on_frame(Frame::Finish { span_us: 66_000 }).unwrap();
        assert!(matches!(responses.last(), Some(Frame::Finished(_))));
    }

    #[test]
    fn out_of_geometry_events_are_rejected() {
        let engine = engine();
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        session
            .on_frame(Frame::Hello(Hello {
                geometry: SensorGeometry::new(32, 32),
                span_us: 0,
                name: "small".into(),
            }))
            .unwrap();
        // block() writes around (60..84, 80..92) — outside 32x32.
        let err = session.on_frame(Frame::Events(EventsChunk::encode(&block(0)))).unwrap_err();
        assert!(matches!(err, WireError::Store(StoreError::OutOfBounds { .. })), "{err}");
    }

    use ebbiot_store::StoreError;

    #[test]
    fn factory_rejection_reaches_the_client_as_remote_error() {
        let engine = engine();
        let rejecting: Arc<PipelineFactory> =
            Arc::new(|_hello: &Hello| Err("unknown stream".to_string()));
        let mut session = Session::new(engine, rejecting, None);
        let err = session.on_frame(hello("nope")).unwrap_err();
        assert!(matches!(err, WireError::Remote(msg) if msg == "unknown stream"));
    }

    #[test]
    fn flush_returns_a_tracks_frame_even_when_empty() {
        let engine = engine();
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        session.on_frame(hello("flush")).unwrap();
        let responses = session.on_frame(Frame::Flush).unwrap();
        assert!(matches!(responses.as_slice(), [Frame::Tracks(frames)] if frames.is_empty()));
        session.on_frame(Frame::Finish { span_us: 0 }).unwrap();
    }

    #[test]
    fn dropped_sessions_detach_their_engine_stream() {
        let engine = engine();
        {
            let mut session = Session::new(Arc::clone(&engine), factory(), None);
            session.on_frame(hello("dropped")).unwrap();
            session.on_frame(Frame::Events(EventsChunk::encode(&block(0)))).unwrap();
        } // dropped mid-stream
        let snap = engine.snapshot();
        assert_eq!(snap.streams.len(), 1);
        assert!(snap.streams[0].detached, "abort detached the abandoned stream");
    }
}
