//! Versioned on-disk session snapshots — the **`EBSS`** format.
//!
//! An `EBSS` file ("EB session snapshot") freezes one camera session's
//! [`SessionState`] so processing can resume — in this process, another
//! process, or after a crash — bit-identically to the uninterrupted
//! run. It follows the `EBST` house conventions (ARCHITECTURE.md §8):
//! little-endian integers throughout, a magic/version header, CRC-32
//! framed sections and a closing magic, and a decoder written against
//! hostile bytes: every malformed input surfaces as a
//! [`SnapshotError`], never a panic, and nothing is allocated on the
//! say-so of an unverified length field.
//!
//! ```text
//! header    magic        [u8; 4] = b"EBSS"
//!           version      u16     = 2
//!           width        u16       sensor columns
//!           height       u16       sensor rows
//!           backend_len  u16
//!           name_len     u16
//!           checkpoint_t u64       resume instant T (events t < T are in)
//!           backend      [u8; backend_len]   UTF-8 registry name
//!           name         [u8; name_len]      UTF-8 stream name
//! section*  tag          [u8; 4]   b"PIPE", b"OPEN", b"TRKR", in order
//!           len          u32       payload bytes
//!           crc32        u32       CRC-32 (IEEE) of payload
//!           payload      [u8; len]
//! trailer   magic        [u8; 4] = b"EBSE"
//! ```
//!
//! The three sections carry the pipeline cursors/ops (`PIPE`), the open
//! window (`OPEN`) and the back-end's opaque
//! [`Tracker::save_state`](ebbiot_core::Tracker::save_state) blob
//! (`TRKR`), each encoded with the checkpoint codec of
//! `ebbiot_core::state`. `OPEN` holds the window's `u64` event count, a
//! `bool`, and when it is set (front-end back-ends) the latched EBBI's
//! `u32` word count and raw row words: the sensor memory, fixed by the
//! geometry, so a snapshot does not grow with scene activity.
//! `checkpoint_t` is the caller-declared cut
//! instant: a crash recovery seeks the archived `EBST` tail to it with
//! [`ChunkReader::seek_to_time`](crate::ChunkReader::seek_to_time) and
//! replays forward.

use std::io::Write;
use std::path::Path;

use ebbiot_core::{SessionState, StateError, StateReader, StateWriter, FRONTEND_OPS_COUNTERS};
use ebbiot_events::SensorGeometry;
use ebbiot_frame::BinaryImage;

use crate::format::crc32;

/// EBSS header magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"EBSS";
/// EBSS trailer magic.
pub const SNAPSHOT_END_MAGIC: [u8; 4] = *b"EBSE";
/// Current EBSS format version.
pub const SNAPSHOT_VERSION: u16 = 2;

/// The open-window section's tag.
const OPEN_TAG: [u8; 4] = *b"OPEN";

/// Section tags, in their mandatory file order.
const SECTION_TAGS: [[u8; 4]; 3] = [*b"PIPE", OPEN_TAG, *b"TRKR"];

/// Everything that can go wrong reading or writing an EBSS snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Input ended before the structure it was declaring.
    Truncated,
    /// Header magic did not match [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported format version.
    UnsupportedVersion(u16),
    /// The header declares a sensor with no columns or no rows.
    ZeroGeometry,
    /// The backend or stream name was not valid UTF-8.
    BadName,
    /// The stream or backend name exceeds the `u16` length field.
    NameTooLong(usize),
    /// A section tag was wrong or its payload structurally impossible.
    BadSection {
        /// The tag the decoder expected at this position.
        tag: [u8; 4],
        /// What was inconsistent.
        reason: &'static str,
    },
    /// A section payload does not match its stored CRC-32.
    SectionCrcMismatch {
        /// The section's tag.
        tag: [u8; 4],
    },
    /// The trailer magic is missing or wrong.
    BadTrailer,
    /// Bytes remained after the trailer magic.
    TrailingBytes,
    /// A section payload failed the checkpoint codec.
    State(StateError),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::Truncated => write!(f, "input shorter than the EBSS structure"),
            SnapshotError::BadMagic(m) => write!(f, "bad EBSS magic bytes {m:?}"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported EBSS version {v}"),
            SnapshotError::ZeroGeometry => write!(f, "EBSS header declares a zero-sized sensor"),
            SnapshotError::BadName => write!(f, "snapshot name is not valid UTF-8"),
            SnapshotError::NameTooLong(n) => write!(f, "snapshot name of {n} bytes exceeds u16"),
            SnapshotError::BadSection { tag, reason } => {
                write!(f, "bad EBSS section {}: {reason}", tag_str(*tag))
            }
            SnapshotError::SectionCrcMismatch { tag } => {
                write!(f, "EBSS section {} payload fails its CRC32", tag_str(*tag))
            }
            SnapshotError::BadTrailer => write!(f, "missing or corrupt EBSS trailer"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after the EBSS trailer"),
            SnapshotError::State(e) => write!(f, "corrupt EBSS state: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<StateError> for SnapshotError {
    fn from(e: StateError) -> Self {
        SnapshotError::State(e)
    }
}

fn tag_str(tag: [u8; 4]) -> String {
    tag.iter().map(|&b| if b.is_ascii_graphic() { b as char } else { '?' }).collect()
}

/// The identifying header of an EBSS snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Sensor geometry of the snapshotted session.
    pub geometry: SensorGeometry,
    /// Stream name (the camera, e.g. `cam03`).
    pub name: String,
    /// Registry name of the back-end whose state is inside.
    pub backend: String,
    /// The cut instant `T`: the snapshot covers exactly the events with
    /// `t < T`, so recovery resumes the source at `T`.
    pub checkpoint_t: u64,
}

/// Serializes one session snapshot into `out`, returning the encoded
/// size in bytes.
///
/// `checkpoint_t` is the caller's declaration of the cut instant — the
/// writer cannot derive it from the state (mid-recording the open window
/// straddles the cut), so recovery code reads it back from the header
/// instead of guessing. The writer refuses, before writing any byte, an
/// open window the reader would reject.
///
/// # Errors
///
/// [`SnapshotError::NameTooLong`] when a name exceeds the `u16` length
/// field, [`SnapshotError::BadSection`] (tag `OPEN`) when the latch does
/// not have `geometry` or holds pixels of a window with no events, or
/// [`SnapshotError::Io`] from the sink.
pub fn write_snapshot<W: Write>(
    out: &mut W,
    name: &str,
    geometry: SensorGeometry,
    checkpoint_t: u64,
    state: &SessionState,
) -> Result<u64, SnapshotError> {
    if let Some(latch) = &state.window_latch {
        if latch.geometry() != geometry {
            return Err(bad_open("latch geometry differs from the header geometry"));
        }
        check_latch_events(state.window_events, latch)?;
    }
    let backend = state.backend.as_bytes();
    let name = name.as_bytes();
    let backend_len =
        u16::try_from(backend.len()).map_err(|_| SnapshotError::NameTooLong(backend.len()))?;
    let name_len = u16::try_from(name.len()).map_err(|_| SnapshotError::NameTooLong(name.len()))?;

    let mut header = Vec::new();
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header.extend_from_slice(&geometry.width().to_le_bytes());
    header.extend_from_slice(&geometry.height().to_le_bytes());
    header.extend_from_slice(&backend_len.to_le_bytes());
    header.extend_from_slice(&name_len.to_le_bytes());
    header.extend_from_slice(&checkpoint_t.to_le_bytes());
    header.extend_from_slice(backend);
    header.extend_from_slice(name);
    out.write_all(&header)?;
    let mut written = header.len() as u64;

    let (pipe, open) = (encode_pipe(state), encode_open(state));
    for (tag, payload) in SECTION_TAGS.iter().zip([&pipe, &open, &state.tracker]) {
        let mut frame = [0u8; 12];
        frame[..4].copy_from_slice(tag);
        frame[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        frame[8..].copy_from_slice(&crc32(payload).to_le_bytes());
        out.write_all(&frame)?;
        out.write_all(payload)?;
        written += (frame.len() + payload.len()) as u64;
    }

    out.write_all(&SNAPSHOT_END_MAGIC)?;
    Ok(written + SNAPSHOT_END_MAGIC.len() as u64)
}

fn encode_pipe(state: &SessionState) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u64(state.frames_processed);
    w.put_u64(state.active_tracker_sum);
    w.put_bool(state.last_pushed_t.is_some());
    w.put_u64(state.last_pushed_t.unwrap_or(0));
    w.put_bool(state.frontend_ops.is_some());
    if let Some(ops) = &state.frontend_ops {
        for counter in ops {
            w.put_ops(counter);
        }
    }
    w.finish()
}

fn encode_open(state: &SessionState) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u64(state.window_events);
    w.put_bool(state.window_latch.is_some());
    let Some(latch) = &state.window_latch else { return w.finish() };
    w.put_u32(latch.words().len() as u32);
    let mut bytes = w.finish();
    bytes.reserve_exact(latch.words().len() * 8);
    for word in latch.words() {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// Decodes an EBSS snapshot from a complete byte image.
///
/// The decoder is safe against arbitrary input: magic, version and
/// every section CRC are verified, every declared length is checked
/// against the remaining input before any slicing or allocation, and a
/// failure returns with nothing half-built.
///
/// # Errors
///
/// Any [`SnapshotError`] variant except `Io`.
pub fn read_snapshot(bytes: &[u8]) -> Result<(SnapshotHeader, SessionState), SnapshotError> {
    let mut cursor = Cursor { buf: bytes, pos: 0 };

    let magic: [u8; 4] = cursor.take(4)?.try_into().expect("len 4");
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = cursor.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let width = cursor.u16()?;
    let height = cursor.u16()?;
    let backend_len = cursor.u16()? as usize;
    let name_len = cursor.u16()? as usize;
    let checkpoint_t = cursor.u64()?;
    let backend = core::str::from_utf8(cursor.take(backend_len)?)
        .map_err(|_| SnapshotError::BadName)?
        .to_string();
    let name = core::str::from_utf8(cursor.take(name_len)?)
        .map_err(|_| SnapshotError::BadName)?
        .to_string();
    if width == 0 || height == 0 {
        return Err(SnapshotError::ZeroGeometry);
    }
    let geometry = SensorGeometry::new(width, height);

    let mut payloads: [&[u8]; 3] = [&[]; 3];
    for (tag, slot) in SECTION_TAGS.iter().zip(&mut payloads) {
        let found: [u8; 4] = cursor.take(4)?.try_into().expect("len 4");
        if found != *tag {
            return Err(SnapshotError::BadSection { tag: *tag, reason: "unexpected section tag" });
        }
        let len = cursor.u32()? as usize;
        let expected_crc = cursor.u32()?;
        let payload = cursor.take(len)?;
        if crc32(payload) != expected_crc {
            return Err(SnapshotError::SectionCrcMismatch { tag: *tag });
        }
        *slot = payload;
    }

    let trailer = cursor.take(4).map_err(|_| SnapshotError::BadTrailer)?;
    if trailer != SNAPSHOT_END_MAGIC {
        return Err(SnapshotError::BadTrailer);
    }
    if cursor.pos != bytes.len() {
        return Err(SnapshotError::TrailingBytes);
    }

    let state = decode_sections(backend, geometry, payloads)?;
    Ok((SnapshotHeader { geometry, name, backend: state.backend.clone(), checkpoint_t }, state))
}

fn decode_sections(
    backend: String,
    geometry: SensorGeometry,
    [pipe, open, trkr]: [&[u8]; 3],
) -> Result<SessionState, SnapshotError> {
    let mut r = StateReader::new(pipe);
    let frames_processed = r.get_u64()?;
    let active_tracker_sum = r.get_u64()?;
    let has_last = r.get_bool()?;
    let last_raw = r.get_u64()?;
    let last_pushed_t = has_last.then_some(last_raw);
    let frontend_ops = if r.get_bool()? {
        let mut ops = [Default::default(); FRONTEND_OPS_COUNTERS];
        for counter in &mut ops {
            *counter = r.get_ops()?;
        }
        Some(ops)
    } else {
        None
    };
    r.finish()?;

    let (window_events, window_latch) = decode_open(geometry, open)?;

    Ok(SessionState {
        backend,
        frames_processed,
        active_tracker_sum,
        window_events,
        window_latch,
        last_pushed_t,
        frontend_ops,
        tracker: trkr.to_vec(),
    })
}

fn decode_open(
    geometry: SensorGeometry,
    open: &[u8],
) -> Result<(u64, Option<BinaryImage>), SnapshotError> {
    let mut r = StateReader::new(open);
    let window_events = r.get_u64()?;
    if !r.get_bool()? {
        r.finish()?;
        return Ok((window_events, None));
    }
    let count = r.get_u32()? as usize;
    if count != (geometry.width() as usize).div_ceil(64) * geometry.height() as usize {
        return Err(bad_open("latch word count does not fit the header geometry"));
    }
    // Check the length before reading (and so allocating) any word.
    let word_bytes = &open[open.len() - r.remaining()..];
    if word_bytes.len() != count * 8 {
        return Err(bad_open("latch word count disagrees with the section length"));
    }
    let words = word_bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("len 8")))
        .collect();
    let latch = BinaryImage::from_words(geometry, words)
        .ok_or_else(|| bad_open("latched bit set past the sensor width"))?;
    check_latch_events(window_events, &latch)?;
    Ok((window_events, Some(latch)))
}

fn bad_open(reason: &'static str) -> SnapshotError {
    SnapshotError::BadSection { tag: OPEN_TAG, reason }
}

/// A window with no events cannot have latched a pixel.
fn check_latch_events(window_events: u64, latch: &BinaryImage) -> Result<(), SnapshotError> {
    if window_events == 0 && latch.count_ones() > 0 {
        return Err(bad_open("latched pixels in a window with no events"));
    }
    Ok(())
}

/// Reads and decodes an EBSS snapshot file.
///
/// # Errors
///
/// [`SnapshotError::Io`] on read failure, otherwise as
/// [`read_snapshot`].
pub fn read_snapshot_file(path: &Path) -> Result<(SnapshotHeader, SessionState), SnapshotError> {
    let bytes = std::fs::read(path)?;
    read_snapshot(&bytes)
}

/// Minimal bounds-checked cursor for the framing layer (the section
/// payloads use [`StateReader`], which has its own error space).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::OpsCounter;

    fn sample_state() -> SessionState {
        let mut latch = BinaryImage::new(SensorGeometry::new(64, 48));
        latch.set(10, 20, true);
        latch.set(63, 47, true);
        SessionState {
            backend: "ebbiot".into(),
            frames_processed: 12,
            active_tracker_sum: 30,
            window_events: 3,
            window_latch: Some(latch),
            last_pushed_t: Some(800_200),
            frontend_ops: Some([
                OpsCounter { comparisons: 1, additions: 2, multiplications: 3, mem_writes: 4 },
                OpsCounter::new(),
                OpsCounter { comparisons: 9, ..OpsCounter::new() },
                OpsCounter::new(),
            ]),
            tracker: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let state = sample_state();
        let mut bytes = Vec::new();
        let written =
            write_snapshot(&mut bytes, "cam07", SensorGeometry::new(64, 48), 792_000, &state)
                .unwrap();
        assert_eq!(written, bytes.len() as u64);
        let (header, decoded) = read_snapshot(&bytes).unwrap();
        assert_eq!(header.name, "cam07");
        assert_eq!(header.backend, "ebbiot");
        assert_eq!(header.geometry, SensorGeometry::new(64, 48));
        assert_eq!(header.checkpoint_t, 792_000);
        assert_eq!(decoded, state);
    }

    #[test]
    fn none_fields_survive_the_round_trip() {
        let state = SessionState {
            backend: "nn-ebms".into(),
            frames_processed: 0,
            active_tracker_sum: 0,
            window_events: 0,
            window_latch: None,
            last_pushed_t: None,
            frontend_ops: None,
            tracker: Vec::new(),
        };
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, "cam00", SensorGeometry::new(8, 8), 0, &state).unwrap();
        let (_, decoded) = read_snapshot(&bytes).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn wrong_magic_version_and_trailer_are_rejected() {
        let state = sample_state();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, "cam01", SensorGeometry::new(64, 48), 5, &state).unwrap();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_snapshot(&bad), Err(SnapshotError::BadMagic(_))));

        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(matches!(read_snapshot(&bad), Err(SnapshotError::UnsupportedVersion(_))));

        let n = bytes.len();
        let mut bad = bytes.clone();
        bad[n - 1] = b'!';
        assert!(matches!(read_snapshot(&bad), Err(SnapshotError::BadTrailer)));

        let mut bad = bytes;
        bad.push(0);
        assert!(matches!(read_snapshot(&bad), Err(SnapshotError::TrailingBytes)));
    }

    #[test]
    fn section_corruption_fails_the_crc() {
        let state = sample_state();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, "cam01", SensorGeometry::new(64, 48), 5, &state).unwrap();
        // Flip a byte in the middle (inside some section payload).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            read_snapshot(&bytes),
            Err(SnapshotError::SectionCrcMismatch { .. } | SnapshotError::BadSection { .. })
        ));
    }

    #[test]
    fn error_display_names_the_section() {
        let e = SnapshotError::SectionCrcMismatch { tag: *b"OPEN" };
        assert!(e.to_string().contains("OPEN"), "{e}");
        assert!(SnapshotError::State(StateError::Truncated).to_string().contains("truncated"));
    }
}
