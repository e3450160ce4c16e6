//! The `EBWP` wire protocol: frame envelope, payload codecs and errors.
//!
//! Everything byte-level lives here; [`read_frame`] and [`write_frame`]
//! are the only I/O entry points, and both sides of the connection use
//! the same [`Frame`] type. The full byte-offset specification is in
//! the [crate docs](crate) and in `ARCHITECTURE.md` at the workspace
//! root.

use std::io::{self, Read, Write};

use ebbiot_core::{FrameResult, TrackBox};
use ebbiot_events::{Event, Micros, SensorGeometry};
use ebbiot_frame::BoundingBox;
use ebbiot_store::format::{crc32, decode_chunk_payload, encode_chunk_payload};
use ebbiot_store::StoreError;

/// Magic bytes opening a HELLO payload.
pub const MAGIC: [u8; 4] = *b"EBWP";
/// Current protocol version. Version 1 EVENTS bodies were delta-varint
/// coded; its HELLO is rejected as [`WireError::UnsupportedVersion`].
pub const VERSION: u16 = 2;
/// Size of the frame envelope (kind byte + payload length).
pub const ENVELOPE_BYTES: usize = 5;
/// Encoded size of one frame summary before its tracks.
pub const TRACKS_FRAME_FIXED_BYTES: usize = 36;
/// Encoded size of one track box.
pub const TRACK_BYTES: usize = 33;
/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation, bounding what a hostile peer can make the
/// server reserve.
pub const MAX_FRAME_BYTES: usize = 1 << 23;

/// Frame kind byte for HELLO.
pub const KIND_HELLO: u8 = 0x01;
/// Frame kind byte for EVENTS.
pub const KIND_EVENTS: u8 = 0x02;
/// Frame kind byte for FLUSH.
pub const KIND_FLUSH: u8 = 0x03;
/// Frame kind byte for FINISH.
pub const KIND_FINISH: u8 = 0x04;
/// Frame kind byte for TRACKS.
pub const KIND_TRACKS: u8 = 0x81;
/// Frame kind byte for FINISHED.
pub const KIND_FINISHED: u8 = 0x82;
/// Frame kind byte for ERROR.
pub const KIND_ERROR: u8 = 0x83;

/// Everything that can go wrong speaking `EBWP`.
#[derive(Debug)]
pub enum WireError {
    /// An underlying socket/stream failure.
    Io(io::Error),
    /// The connection ended in the middle of a frame or mid-session.
    Truncated,
    /// A frame's length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The frame's kind byte.
        kind: u8,
        /// The declared payload length.
        len: u32,
    },
    /// An unassigned frame kind byte.
    UnknownKind(u8),
    /// HELLO magic did not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version in HELLO.
    UnsupportedVersion(u16),
    /// An EVENTS body does not match its declared CRC-32.
    ChunkCrcMismatch,
    /// A payload is structurally invalid.
    Malformed {
        /// Which frame kind was malformed.
        frame: &'static str,
        /// What was wrong.
        reason: &'static str,
    },
    /// An EVENTS chunk began before the previous chunk ended.
    OutOfOrder {
        /// `t_last` of the previous chunk.
        prev_t_last: u64,
        /// `t_first` of the offending chunk.
        t_first: u64,
    },
    /// A frame arrived that the session state machine does not allow
    /// (EVENTS before HELLO, a second HELLO, anything after FINISH, …).
    Protocol {
        /// What rule was broken.
        reason: &'static str,
    },
    /// A store-layer failure: chunk decode (corruption, out-of-bounds
    /// events) or the archival tee.
    Store(StoreError),
    /// The peer reported an error and is closing the connection.
    Remote(String),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => write!(f, "connection closed mid-frame or mid-session"),
            WireError::FrameTooLarge { kind, len } => {
                write!(f, "frame 0x{kind:02x} declares {len} payload bytes (cap {MAX_FRAME_BYTES})")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind 0x{kind:02x}"),
            WireError::BadMagic(m) => write!(f, "bad EBWP magic bytes {m:?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported EBWP version {v}"),
            WireError::ChunkCrcMismatch => write!(f, "EVENTS body fails its CRC32"),
            WireError::Malformed { frame, reason } => write!(f, "malformed {frame} frame: {reason}"),
            WireError::OutOfOrder { prev_t_last, t_first } => write!(
                f,
                "EVENTS chunk starts at t={t_first} before the previous chunk ended at t={prev_t_last}"
            ),
            WireError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            WireError::Store(e) => write!(f, "store error: {e}"),
            WireError::Remote(msg) => write!(f, "peer reported: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<StoreError> for WireError {
    fn from(e: StoreError) -> Self {
        WireError::Store(e)
    }
}

/// The client's session-opening announcement: who is streaming and on
/// what sensor array. Byte-compatible with an `EBST` file header (magic
/// aside), so a stored recording's identity maps 1:1 onto a session's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Sensor geometry every subsequent chunk is validated against.
    pub geometry: SensorGeometry,
    /// Nominal recording span hint in microseconds (0 = unknown); the
    /// authoritative span arrives with FINISH.
    pub span_us: Micros,
    /// Stream name (e.g. `"LT4-cam03"`); may be empty.
    pub name: String,
}

/// One EVENTS frame: an `EBST`-encoded chunk of time-ordered events.
///
/// The body is exactly the store's bit-packed chunk payload
/// ([`ebbiot_store::format::encode_chunk_payload`]), so bytes spooled
/// to disk and bytes sent over a socket share one codec (and one set of
/// corruption checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventsChunk {
    /// Number of events in the body (> 0).
    pub count: u32,
    /// Timestamp of the first event.
    pub t_first: u64,
    /// Timestamp of the last event.
    pub t_last: u64,
    /// Bit-packed body; its CRC-32 was already verified on read.
    pub body: Vec<u8>,
}

impl EventsChunk {
    /// Encodes a non-empty, time-ordered slice of at most
    /// [`MAX_CHUNK_EVENTS`] events.
    ///
    /// # Panics
    ///
    /// Panics when `events` is empty, longer than [`MAX_CHUNK_EVENTS`]
    /// or not time-ordered — clients chunk a validated stream, they
    /// never frame arbitrary input.
    ///
    /// [`MAX_CHUNK_EVENTS`]: ebbiot_store::format::MAX_CHUNK_EVENTS
    #[must_use]
    pub fn encode(events: &[Event]) -> Self {
        assert!(!events.is_empty(), "EVENTS chunks are never empty");
        let mut body = Vec::new();
        encode_chunk_payload(&mut body, events);
        Self {
            count: events.len() as u32,
            t_first: events[0].t,
            t_last: events[events.len() - 1].t,
            body,
        }
    }

    /// Decodes and validates the body against `geometry` into `out`
    /// (cleared first): CRC was checked on read; this checks the event
    /// count against [`MAX_CHUNK_EVENTS`] before allocating, the field
    /// widths, the body length and padding, the `t_first`/`t_last`
    /// window and pixel bounds.
    ///
    /// [`MAX_CHUNK_EVENTS`]: ebbiot_store::format::MAX_CHUNK_EVENTS
    ///
    /// # Errors
    ///
    /// Returns the store codec's corruption errors as
    /// [`WireError::Store`].
    pub fn decode_into(
        &self,
        out: &mut Vec<Event>,
        geometry: SensorGeometry,
    ) -> Result<(), WireError> {
        decode_chunk_payload(out, &self.body, 0, geometry, self.count, self.t_first, self.t_last)?;
        Ok(())
    }
}

/// A borrowed view of one EVENTS frame: the fixed fields plus the
/// bit-packed body **still sitting in the [`FrameReader`]'s read
/// buffer**. Its CRC-32 was verified in place on read; no byte of the
/// body was copied to produce this view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventsRef<'a> {
    /// Number of events in the body (> 0).
    pub count: u32,
    /// Timestamp of the first event.
    pub t_first: u64,
    /// Timestamp of the last event.
    pub t_last: u64,
    /// Bit-packed body, borrowed from the connection read buffer.
    pub body: &'a [u8],
}

impl EventsRef<'_> {
    /// Decodes and validates the body against `geometry` into `out`
    /// (cleared first) — same checks as [`EventsChunk::decode_into`],
    /// straight out of the read buffer.
    ///
    /// # Errors
    ///
    /// Returns the store codec's corruption errors as
    /// [`WireError::Store`].
    pub fn decode_into(
        &self,
        out: &mut Vec<Event>,
        geometry: SensorGeometry,
    ) -> Result<(), WireError> {
        decode_chunk_payload(out, self.body, 0, geometry, self.count, self.t_first, self.t_last)?;
        Ok(())
    }

    /// Copies the view into an owned [`EventsChunk`].
    #[must_use]
    pub fn to_owned(&self) -> EventsChunk {
        EventsChunk {
            count: self.count,
            t_first: self.t_first,
            t_last: self.t_last,
            body: self.body.to_vec(),
        }
    }
}

/// One frame as produced by [`FrameReader::read_from`]: EVENTS stays a
/// borrowed [`EventsRef`] into the reader's buffer, everything else is
/// decoded to an owned [`Frame`] (control frames are small and rare).
#[derive(Debug)]
pub enum FrameRef<'a> {
    /// An EVENTS frame, body borrowed from the read buffer.
    Events(EventsRef<'a>),
    /// Any other frame kind, decoded to its owned form.
    Control(Frame),
}

impl FrameRef<'_> {
    /// Converts to an owned [`Frame`], copying an EVENTS body out of
    /// the read buffer. This is the compatibility bridge [`read_frame`]
    /// is built on; the server's hot loop never calls it.
    #[must_use]
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Events(events) => Frame::Events(events.to_owned()),
            FrameRef::Control(frame) => frame,
        }
    }
}

/// The server's session-closing summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finished {
    /// Events the server accepted over the session.
    pub events: u64,
    /// Frames the server sent back over the session.
    pub frames: u64,
    /// High-water mark of the session's engine queue — how far the
    /// client ran ahead of the tracker before back-pressure bit.
    pub queue_high_water: u32,
}

/// One `EBWP` frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session (must be the first frame).
    Hello(Hello),
    /// Client → server: one chunk of events.
    Events(EventsChunk),
    /// Client → server: request the tracker results available so far.
    Flush,
    /// Client → server: end of stream, with the authoritative span.
    Finish {
        /// Span handed to the pipeline's `finish` (trailing silence
        /// still advances the tracker).
        span_us: Micros,
    },
    /// Server → client: a batch of tracker frame results, in emission
    /// order.
    Tracks(Vec<FrameResult>),
    /// Server → client: session summary; the last frame of a
    /// successful session.
    Finished(Finished),
    /// Either direction: fatal error description; the sender closes the
    /// connection after it.
    Error(String),
}

impl Frame {
    /// The frame's kind byte.
    #[must_use]
    pub const fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => KIND_HELLO,
            Frame::Events(_) => KIND_EVENTS,
            Frame::Flush => KIND_FLUSH,
            Frame::Finish { .. } => KIND_FINISH,
            Frame::Tracks(_) => KIND_TRACKS,
            Frame::Finished(_) => KIND_FINISHED,
            Frame::Error(_) => KIND_ERROR,
        }
    }
}

// --- little-endian cursor helpers ---------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireError::Malformed { frame: self.frame, reason: "payload too short" })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed { frame: self.frame, reason: "trailing payload bytes" })
        }
    }
}

// --- frame encoding -----------------------------------------------------

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    match frame {
        Frame::Hello(hello) => {
            out.extend_from_slice(&MAGIC);
            out.extend_from_slice(&VERSION.to_le_bytes());
            out.extend_from_slice(&hello.geometry.width().to_le_bytes());
            out.extend_from_slice(&hello.geometry.height().to_le_bytes());
            let name_len = u16::try_from(hello.name.len()).expect("HELLO name fits u16");
            out.extend_from_slice(&name_len.to_le_bytes());
            out.extend_from_slice(&hello.span_us.to_le_bytes());
            out.extend_from_slice(hello.name.as_bytes());
        }
        Frame::Events(chunk) => {
            out.extend_from_slice(&chunk.count.to_le_bytes());
            out.extend_from_slice(&chunk.t_first.to_le_bytes());
            out.extend_from_slice(&chunk.t_last.to_le_bytes());
            out.extend_from_slice(&crc32(&chunk.body).to_le_bytes());
            out.extend_from_slice(&chunk.body);
        }
        Frame::Flush => {}
        Frame::Finish { span_us } => out.extend_from_slice(&span_us.to_le_bytes()),
        Frame::Tracks(frames) => {
            out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
            for f in frames {
                out.extend_from_slice(&(f.index as u64).to_le_bytes());
                out.extend_from_slice(&f.t_start.to_le_bytes());
                out.extend_from_slice(&f.duration.to_le_bytes());
                out.extend_from_slice(&(f.num_proposals as u32).to_le_bytes());
                out.extend_from_slice(&(f.num_events as u32).to_le_bytes());
                out.extend_from_slice(&(f.tracks.len() as u32).to_le_bytes());
                for t in &f.tracks {
                    out.extend_from_slice(&t.track_id.to_le_bytes());
                    for v in [t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h, t.velocity.0, t.velocity.1] {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                    out.push(u8::from(t.occluded));
                }
            }
        }
        Frame::Finished(done) => {
            out.extend_from_slice(&done.events.to_le_bytes());
            out.extend_from_slice(&done.frames.to_le_bytes());
            out.extend_from_slice(&done.queue_high_water.to_le_bytes());
        }
        Frame::Error(msg) => out.extend_from_slice(msg.as_bytes()),
    }
    out
}

/// Packs `results` into as many TRACKS frames as [`MAX_FRAME_BYTES`]
/// needs, in order: each frame takes results until the next one would
/// push its payload past the cap. Always at least one frame, empty when
/// `results` is. A session can close any number of windows in one
/// reply (one EVENTS chunk may span hours of event time), so no reply
/// is sent as a single frame.
///
/// A result with more tracks than one frame can hold still gets a frame
/// of its own, which [`write_frame`] then refuses; the trackers keep far
/// fewer tracks than that.
#[must_use]
pub(crate) fn tracks_frames(mut results: Vec<FrameResult>) -> Vec<Frame> {
    const COUNT_BYTES: usize = 4;
    let mut starts = Vec::new();
    let mut bytes = COUNT_BYTES;
    for (k, result) in results.iter().enumerate() {
        let size = TRACKS_FRAME_FIXED_BYTES + TRACK_BYTES * result.tracks.len();
        if bytes + size > MAX_FRAME_BYTES && bytes > COUNT_BYTES {
            starts.push(k);
            bytes = COUNT_BYTES;
        }
        bytes += size;
    }
    // Split from the back, so each result moves at most once and a reply
    // that fits one frame keeps its vector.
    let mut frames: Vec<Frame> =
        starts.iter().rev().map(|&k| Frame::Tracks(results.split_off(k))).collect();
    frames.push(Frame::Tracks(results));
    frames.reverse();
    frames
}

/// Writes one frame (envelope + payload) to `sink`. The caller flushes.
///
/// # Errors
///
/// Returns the sink's I/O error.
///
/// # Panics
///
/// Panics when the encoded payload exceeds [`MAX_FRAME_BYTES`] (callers
/// bound their chunk sizes, and a [`Session`](crate::Session) splits its
/// results across TRACKS frames) or a HELLO name exceeds `u16`.
pub fn write_frame<W: Write>(sink: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = encode_payload(frame);
    assert!(payload.len() <= MAX_FRAME_BYTES, "frame payload of {} bytes", payload.len());
    sink.write_all(&[frame.kind()])?;
    sink.write_all(&(payload.len() as u32).to_le_bytes())?;
    sink.write_all(&payload)
}

// --- frame decoding -----------------------------------------------------

fn decode_hello(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor { buf: payload, pos: 0, frame: "HELLO" };
    let magic: [u8; 4] = c.take(4)?.try_into().expect("len 4");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let width = c.u16()?;
    let height = c.u16()?;
    if width == 0 || height == 0 {
        return Err(WireError::Malformed { frame: "HELLO", reason: "zero sensor geometry" });
    }
    let name_len = c.u16()?;
    let span_us = c.u64()?;
    let name = String::from_utf8(c.take(usize::from(name_len))?.to_vec())
        .map_err(|_| WireError::Malformed { frame: "HELLO", reason: "name is not UTF-8" })?;
    c.finish()?;
    Ok(Frame::Hello(Hello { geometry: SensorGeometry::new(width, height), span_us, name }))
}

/// Parses an EVENTS payload in place: fixed fields, then the CRC-32
/// checked directly over the borrowed body — no copy anywhere.
fn decode_events_ref(payload: &[u8]) -> Result<EventsRef<'_>, WireError> {
    let mut c = Cursor { buf: payload, pos: 0, frame: "EVENTS" };
    let count = c.u32()?;
    if count == 0 {
        return Err(WireError::Malformed { frame: "EVENTS", reason: "zero event count" });
    }
    let t_first = c.u64()?;
    let t_last = c.u64()?;
    if t_last < t_first {
        return Err(WireError::Malformed { frame: "EVENTS", reason: "t_last before t_first" });
    }
    let crc = c.u32()?;
    let body = c.take(c.remaining())?;
    if crc32(body) != crc {
        return Err(WireError::ChunkCrcMismatch);
    }
    Ok(EventsRef { count, t_first, t_last, body })
}

fn decode_finish(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor { buf: payload, pos: 0, frame: "FINISH" };
    let span_us = c.u64()?;
    c.finish()?;
    Ok(Frame::Finish { span_us })
}

fn decode_tracks(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor { buf: payload, pos: 0, frame: "TRACKS" };
    let malformed = |reason| WireError::Malformed { frame: "TRACKS", reason };
    let frame_count = c.u32()? as usize;
    // Every declared frame costs at least its fixed part; reject counts
    // the payload cannot possibly hold before any allocation.
    if c.remaining() / TRACKS_FRAME_FIXED_BYTES < frame_count {
        return Err(malformed("payload too short for frame count"));
    }
    let mut frames = Vec::with_capacity(frame_count);
    for _ in 0..frame_count {
        let index = usize::try_from(c.u64()?).map_err(|_| malformed("frame index overflow"))?;
        let t_start = c.u64()?;
        let duration = c.u64()?;
        let num_proposals = c.u32()? as usize;
        let num_events = c.u32()? as usize;
        let track_count = c.u32()? as usize;
        if c.remaining() / TRACK_BYTES < track_count {
            return Err(malformed("payload too short for track count"));
        }
        let mut tracks = Vec::with_capacity(track_count);
        for _ in 0..track_count {
            let track_id = c.u64()?;
            let fields = [c.f32()?, c.f32()?, c.f32()?, c.f32()?, c.f32()?, c.f32()?];
            let [x, y, w, h, vx, vy] = fields;
            if fields.iter().any(|v| !v.is_finite()) || w < 0.0 || h < 0.0 {
                return Err(malformed("non-finite or negative box fields"));
            }
            let occluded = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(malformed("reserved track flag bits set")),
            };
            tracks.push(TrackBox {
                track_id,
                bbox: BoundingBox::new(x, y, w, h),
                velocity: (vx, vy),
                occluded,
            });
        }
        frames.push(FrameResult { index, t_start, duration, tracks, num_proposals, num_events });
    }
    c.finish()?;
    Ok(Frame::Tracks(frames))
}

fn decode_finished(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor { buf: payload, pos: 0, frame: "FINISHED" };
    let events = c.u64()?;
    let frames = c.u64()?;
    let queue_high_water = c.u32()?;
    c.finish()?;
    Ok(Frame::Finished(Finished { events, frames, queue_high_water }))
}

/// Reusable frame reader: owns one payload buffer that every frame of
/// a connection is read into, so the hot EVENTS path costs **zero
/// copies and zero per-frame allocations** — the CRC is checked and the
/// chunk decoded straight out of this buffer via the borrowed
/// [`FrameRef::Events`] view.
///
/// [`read_frame`] is the owned-`Frame` convenience wrapper over this
/// type; servers keep one `FrameReader` per connection instead.
#[derive(Debug, Default)]
pub struct FrameReader {
    payload: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer; it grows to the largest frame
    /// seen (capped by [`MAX_FRAME_BYTES`]) and is then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one frame from `source` into the internal buffer.
    /// `Ok(None)` is a clean end of stream (EOF exactly on a frame
    /// boundary); EOF anywhere inside a frame is
    /// [`WireError::Truncated`]. An EVENTS frame is returned as a
    /// borrowed [`EventsRef`]; every other kind is decoded to an owned
    /// [`Frame`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error, or a decode error for a malformed frame.
    /// No input — truncated, corrupt or hostile — panics or
    /// over-allocates: payload lengths are capped by
    /// [`MAX_FRAME_BYTES`] before any allocation.
    pub fn read_from<R: Read>(
        &mut self,
        source: &mut R,
    ) -> Result<Option<FrameRef<'_>>, WireError> {
        let mut envelope = [0u8; ENVELOPE_BYTES];
        // Distinguish clean EOF (no bytes at all) from a torn envelope.
        loop {
            match source.read(&mut envelope[..1]) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        source.read_exact(&mut envelope[1..])?;
        let kind = envelope[0];
        let len = u32::from_le_bytes(envelope[1..5].try_into().expect("len 4"));
        if len as usize > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge { kind, len });
        }
        self.payload.resize(len as usize, 0);
        source.read_exact(&mut self.payload)?;
        let payload = &self.payload[..];
        match kind {
            KIND_EVENTS => return decode_events_ref(payload).map(|e| Some(FrameRef::Events(e))),
            KIND_HELLO => decode_hello(payload),
            KIND_FLUSH => {
                if payload.is_empty() {
                    Ok(Frame::Flush)
                } else {
                    Err(WireError::Malformed { frame: "FLUSH", reason: "non-empty payload" })
                }
            }
            KIND_FINISH => decode_finish(payload),
            KIND_TRACKS => decode_tracks(payload),
            KIND_FINISHED => decode_finished(payload),
            KIND_ERROR => Ok(Frame::Error(String::from_utf8_lossy(payload).into_owned())),
            other => Err(WireError::UnknownKind(other)),
        }
        .map(|frame| Some(FrameRef::Control(frame)))
    }
}

/// Reads one frame from `source` into an owned [`Frame`]. `Ok(None)` is
/// a clean end of stream (EOF exactly on a frame boundary); EOF
/// anywhere inside a frame is [`WireError::Truncated`].
///
/// This is the convenience wrapper over [`FrameReader`] (one internal
/// buffer per call, EVENTS bodies copied out); connection loops that
/// care about throughput hold a [`FrameReader`] and consume
/// [`FrameRef`]s instead.
///
/// # Errors
///
/// Returns an I/O error, or a decode error for a malformed frame. No
/// input — truncated, corrupt or hostile — panics or over-allocates:
/// payload lengths are capped by [`MAX_FRAME_BYTES`] before any
/// allocation.
pub fn read_frame<R: Read>(source: &mut R) -> Result<Option<Frame>, WireError> {
    Ok(FrameReader::new().read_from(source)?.map(FrameRef::into_owned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::Polarity;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(3, 4, 100, Polarity::On),
            Event::new(5, 4, 100, Polarity::Off),
            Event::new(0, 0, 250, Polarity::On),
        ]
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).unwrap();
        let mut cursor = io::Cursor::new(bytes);
        let back = read_frame(&mut cursor).unwrap().expect("one frame");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after the frame");
        back
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let geometry = SensorGeometry::new(64, 48);
        let hello = Frame::Hello(Hello { geometry, span_us: 2_000_000, name: "LT4-cam03".into() });
        let events = Frame::Events(EventsChunk::encode(&sample_events()));
        let finish = Frame::Finish { span_us: 123_456 };
        let tracks = Frame::Tracks(vec![FrameResult {
            index: 7,
            t_start: 462_000,
            duration: 66_000,
            tracks: vec![TrackBox {
                track_id: 42,
                bbox: BoundingBox::new(1.5, 2.25, 10.0, 8.0),
                velocity: (-0.5, 3.75),
                occluded: true,
            }],
            num_proposals: 3,
            num_events: 288,
        }]);
        let finished = Frame::Finished(Finished { events: 1_000, frames: 30, queue_high_water: 5 });
        let error = Frame::Error("boom".into());
        for frame in [hello, events, finish, Frame::Flush, tracks, finished, error] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn tracks_replies_split_exactly_at_the_frame_cap() {
        let empty = |index| FrameResult {
            index,
            t_start: 0,
            duration: 66_000,
            tracks: Vec::new(),
            num_proposals: 0,
            num_events: 0,
        };
        assert!(matches!(tracks_frames(Vec::new()).as_slice(), [Frame::Tracks(f)] if f.is_empty()));
        let fit = (MAX_FRAME_BYTES - 4) / TRACKS_FRAME_FIXED_BYTES;
        for (results, sizes) in [(fit, vec![fit]), (fit + 1, vec![fit, 1])] {
            let frames = tracks_frames((0..results).map(empty).collect());
            let mut next = 0;
            for (frame, &size) in frames.iter().zip(&sizes) {
                let Frame::Tracks(batch) = frame else { panic!("not TRACKS") };
                assert_eq!(batch.len(), size);
                assert!(batch.iter().enumerate().all(|(k, r)| r.index == next + k), "in order");
                next += batch.len();
                let mut bytes = Vec::new();
                write_frame(&mut bytes, frame).expect("a split frame fits the cap");
            }
            assert_eq!(frames.len(), sizes.len());
        }
    }

    #[test]
    fn events_chunk_decodes_back_to_the_source_events() {
        let events = sample_events();
        let chunk = EventsChunk::encode(&events);
        assert_eq!(chunk.count, 3);
        assert_eq!((chunk.t_first, chunk.t_last), (100, 250));
        let mut decoded = Vec::new();
        chunk.decode_into(&mut decoded, SensorGeometry::new(64, 48)).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn events_decode_rejects_out_of_bounds_geometry() {
        let chunk = EventsChunk::encode(&sample_events());
        let mut decoded = Vec::new();
        let err = chunk.decode_into(&mut decoded, SensorGeometry::new(4, 4)).unwrap_err();
        assert!(matches!(err, WireError::Store(StoreError::OutOfBounds { .. })), "{err}");
    }

    #[test]
    fn frame_reader_returns_borrowed_events_and_owned_controls() {
        let events = sample_events();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Events(EventsChunk::encode(&events))).unwrap();
        write_frame(&mut bytes, &Frame::Flush).unwrap();
        write_frame(&mut bytes, &Frame::Events(EventsChunk::encode(&events[..2]))).unwrap();
        let mut cursor = io::Cursor::new(bytes);
        let mut reader = FrameReader::new();

        let Some(FrameRef::Events(chunk)) = reader.read_from(&mut cursor).unwrap() else {
            panic!("expected EVENTS")
        };
        assert_eq!((chunk.count, chunk.t_first, chunk.t_last), (3, 100, 250));
        let mut decoded = Vec::new();
        chunk.decode_into(&mut decoded, SensorGeometry::new(64, 48)).unwrap();
        assert_eq!(decoded, events);
        assert_eq!(chunk.to_owned(), EventsChunk::encode(&events));

        assert!(matches!(
            reader.read_from(&mut cursor).unwrap(),
            Some(FrameRef::Control(Frame::Flush))
        ));
        // The buffer is reused for the second, smaller EVENTS frame.
        let Some(FrameRef::Events(chunk)) = reader.read_from(&mut cursor).unwrap() else {
            panic!("expected EVENTS")
        };
        assert_eq!(chunk.count, 2);
        assert!(reader.read_from(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_reader_rejects_what_read_frame_rejects() {
        // Corrupt EVENTS body: same CRC error through both entry points.
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Events(EventsChunk::encode(&sample_events()))).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        let err = FrameReader::new().read_from(&mut io::Cursor::new(bytes.clone())).unwrap_err();
        assert!(matches!(err, WireError::ChunkCrcMismatch), "{err}");
        // Truncations anywhere are Truncated, never a panic.
        for cut in 1..bytes.len() {
            let err = FrameReader::new()
                .read_from(&mut io::Cursor::new(bytes[..cut].to_vec()))
                .unwrap_err();
            assert!(matches!(err, WireError::Truncated | WireError::ChunkCrcMismatch), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_events_body_fails_crc() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Events(EventsChunk::encode(&sample_events()))).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // flip a bit in the packed body
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, WireError::ChunkCrcMismatch), "{err}");
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Finish { span_us: 99 }).unwrap();
        for cut in 1..bytes.len() {
            let err = read_frame(&mut io::Cursor::new(bytes[..cut].to_vec())).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = vec![KIND_EVENTS];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { kind: KIND_EVENTS, .. }), "{err}");
    }

    #[test]
    fn unknown_kind_and_bad_hello_are_rejected() {
        let mut bytes = vec![0x7f];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes)).unwrap_err(),
            WireError::UnknownKind(0x7f)
        ));

        let hello = Frame::Hello(Hello {
            geometry: SensorGeometry::new(8, 8),
            span_us: 0,
            name: String::new(),
        });
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &hello).unwrap();
        bytes[ENVELOPE_BYTES] = b'X'; // corrupt the magic
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes)).unwrap_err(),
            WireError::BadMagic(_)
        ));

        let mut bytes = Vec::new();
        write_frame(&mut bytes, &hello).unwrap();
        for version in [1, 9] {
            // Version 1 framed delta-varint EVENTS bodies.
            bytes[ENVELOPE_BYTES + 4] = version;
            assert!(matches!(
                read_frame(&mut io::Cursor::new(bytes.clone())).unwrap_err(),
                WireError::UnsupportedVersion(v) if v == u16::from(version)
            ));
        }
    }

    #[test]
    fn tracks_decode_rejects_absurd_counts_and_bad_floats() {
        // frame_count far beyond the payload: rejected pre-allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = vec![KIND_TRACKS];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes)).unwrap_err(),
            WireError::Malformed { frame: "TRACKS", .. }
        ));

        // A NaN box field must not reach BoundingBox::new (which panics).
        let good = Frame::Tracks(vec![FrameResult {
            index: 0,
            t_start: 0,
            duration: 66_000,
            tracks: vec![TrackBox {
                track_id: 1,
                bbox: BoundingBox::new(0.0, 0.0, 1.0, 1.0),
                velocity: (0.0, 0.0),
                occluded: false,
            }],
            num_proposals: 0,
            num_events: 0,
        }]);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &good).unwrap();
        // bbox.x sits right after envelope + frame_count + fixed frame
        // part + track_id.
        let x_off = ENVELOPE_BYTES + 4 + TRACKS_FRAME_FIXED_BYTES + 8;
        bytes[x_off..x_off + 4].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes)).unwrap_err(),
            WireError::Malformed { frame: "TRACKS", reason } if reason.contains("finite")
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::UnknownKind(0x55).to_string().contains("0x55"));
        assert!(WireError::OutOfOrder { prev_t_last: 9, t_first: 3 }.to_string().contains("t=3"));
        assert!(WireError::Remote("nope".into()).to_string().contains("nope"));
    }
}
