//! Session checkpoint state: the in-memory form of a saved camera
//! session, plus the little-endian byte codec trackers serialize
//! themselves with.
//!
//! A [`SessionState`] is everything a [`Pipeline`](crate::Pipeline)
//! needs to resume exactly where it stopped: the frame-boundary
//! cursors, the open window's event count and latched EBBI, the push
//! watermark, the front-end ops counters and the tracker's own state as
//! an opaque byte blob produced by
//! [`Tracker::save_state`](crate::Tracker::save_state). The contract —
//! proven by `tests/checkpoint_parity.rs` — is that checkpoint +
//! restore is **bit-identical** in every emitted
//! [`FrameResult`](crate::FrameResult) to the uninterrupted run.
//!
//! The on-disk framing (magic, version, CRC sections) lives in
//! `ebbiot_store::snapshot` (the `EBSS` format, ARCHITECTURE.md §8);
//! this module only defines the state itself and the
//! [`StateWriter`]/[`StateReader`] primitives both layers share.
//! Floats always cross the codec as IEEE-754 bit patterns
//! ([`f32::to_bits`]), never as text, so restored state is bit-exact.

use ebbiot_events::{OpsCounter, Timestamp};
use ebbiot_frame::BinaryImage;

/// Everything that can go wrong restoring serialized session state.
///
/// Decoders are written against hostile bytes: every error must surface
/// as a `StateError` (never a panic) and a failed load must leave the
/// target tracker untouched (parse fully, then commit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Input ended before the decoder was done.
    Truncated,
    /// Bytes remained after the decoder consumed a complete state.
    TrailingBytes,
    /// The state was saved by a different back-end than the one asked
    /// to load it.
    BackendMismatch {
        /// Back-end asked to load the state.
        expected: String,
        /// Back-end recorded in the state.
        found: String,
    },
    /// The state names a back-end missing from the registry.
    UnknownBackend(String),
    /// A decoded field is structurally impossible.
    Invalid(&'static str),
}

impl core::fmt::Display for StateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StateError::Truncated => write!(f, "state bytes truncated"),
            StateError::TrailingBytes => write!(f, "trailing bytes after state"),
            StateError::BackendMismatch { expected, found } => {
                write!(f, "state saved by back-end {found:?}, not {expected:?}")
            }
            StateError::UnknownBackend(name) => write!(f, "unknown back-end {name:?}"),
            StateError::Invalid(reason) => write!(f, "invalid state: {reason}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Little-endian byte sink for state serialization.
///
/// The writer never fails; pair it with [`StateReader`], whose getters
/// mirror these putters one-to-one.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an [`OpsCounter`] as four `u64` tallies.
    pub fn put_ops(&mut self, ops: &OpsCounter) {
        self.put_u64(ops.comparisons);
        self.put_u64(ops.additions);
        self.put_u64(ops.multiplications);
        self.put_u64(ops.mem_writes);
    }

    /// Appends a length-prefixed byte blob (`u32` length + raw bytes).
    ///
    /// # Panics
    ///
    /// Panics when `bytes` exceeds `u32::MAX` — state blobs are a few
    /// kilobytes, so a longer blob is a caller bug, not an input.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("state blob fits u32"));
        self.buf.extend_from_slice(bytes);
    }

    /// The serialized bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over state bytes.
///
/// Every getter returns [`StateError::Truncated`] past the end instead
/// of panicking, and [`StateReader::finish`] rejects trailing bytes —
/// together they make "decoded exactly what was written" a checkable
/// property over arbitrary input.
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self.pos.checked_add(n).ok_or(StateError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(StateError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] past the end of input.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] or [`StateError::Invalid`].
    pub fn get_bool(&mut self) -> Result<bool, StateError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Invalid("boolean byte is neither 0 nor 1")),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] past the end of input.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] past the end of input.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f32` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] past the end of input.
    pub fn get_f32(&mut self) -> Result<f32, StateError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] past the end of input.
    pub fn get_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an [`OpsCounter`].
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] past the end of input.
    pub fn get_ops(&mut self) -> Result<OpsCounter, StateError> {
        Ok(OpsCounter {
            comparisons: self.get_u64()?,
            additions: self.get_u64()?,
            multiplications: self.get_u64()?,
            mem_writes: self.get_u64()?,
        })
    }

    /// Reads a length-prefixed byte blob written by
    /// [`StateWriter::put_bytes`]. The declared length is bounds-checked
    /// against the remaining input *before* any slicing, so a lying
    /// prefix fails cleanly.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] when the input ends before the declared
    /// length.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`StateError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::TrailingBytes)
        }
    }
}

/// The four front-end ops counters a checkpoint preserves, in fixed
/// order: EBBI accumulator, median filter, RPN, ROE (raw, *before* the
/// ROE tally is absorbed into the RPN's for reporting).
pub const FRONTEND_OPS_COUNTERS: usize = 4;

/// A complete checkpoint of one [`Pipeline`](crate::Pipeline) session,
/// taken between two `push` calls.
///
/// Between frames the front end holds only the open window's EBBI latch,
/// so beyond the tracker the state is that latch, the cursor and the ops
/// tallies, whose size does not depend on how busy the window is. The
/// `tracker` blob
/// is back-end-specific; `backend` records which back-end wrote it so a
/// restore into the wrong tracker is rejected, not garbled.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Registry name of the back-end that saved `tracker`.
    pub backend: String,
    /// Frames emitted so far, which is also the open window's index.
    pub frames_processed: u64,
    /// Running sum of per-frame active tracker counts.
    pub active_tracker_sum: u64,
    /// Events the open (not yet read out) window has consumed.
    pub window_events: u64,
    /// The open window's latched EBBI; `None` for event-domain back-ends,
    /// whose tracker state holds what the window did to them.
    pub window_latch: Option<BinaryImage>,
    /// Timestamp of the last pushed event, `None` before any push.
    pub last_pushed_t: Option<Timestamp>,
    /// Raw front-end ops tallies `[ebbi, median, rpn, roe]`; `None` for
    /// event-domain back-ends that run without a front end.
    pub frontend_ops: Option<[OpsCounter; FRONTEND_OPS_COUNTERS]>,
    /// Opaque tracker state from
    /// [`Tracker::save_state`](crate::Tracker::save_state).
    pub tracker: Vec<u8>,
}

/// A complete checkpoint of a
/// [`TwoTimescalePipeline`](crate::TwoTimescalePipeline): both
/// sub-pipeline states (the fast one holds the open window and the push
/// watermark) plus the slow-path phase (EBBI ring, stride position, held
/// slow tracks).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoTimescaleState {
    /// Fast sub-pipeline state.
    pub fast: SessionState,
    /// Slow sub-pipeline state.
    pub slow: SessionState,
    /// The last fast frames' raw EBBIs, oldest first.
    pub recent_ebbis: Vec<BinaryImage>,
    /// Fast frames since the slow pipeline last stepped.
    pub frames_since_slow: u64,
    /// Slow tracks held for dedup against upcoming fast frames.
    pub held_slow_tracks: Vec<crate::TrackBox>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_all_primitives() {
        let mut w = StateWriter::new();
        w.put_bool(true);
        w.put_u32(u32::MAX - 3);
        w.put_u64(u64::MAX - 5);
        w.put_f32(-0.0);
        w.put_f64(f64::NAN);
        w.put_ops(&OpsCounter { comparisons: 1, additions: 2, multiplications: 3, mem_writes: 4 });
        let bytes = w.finish();

        let mut r = StateReader::new(&bytes);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), u32::MAX - 3);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits(), "bit-exact negative zero");
        assert!(r.get_f64().unwrap().is_nan(), "NaN bit pattern survives");
        assert_eq!(
            r.get_ops().unwrap(),
            OpsCounter { comparisons: 1, additions: 2, multiplications: 3, mem_writes: 4 }
        );
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_trailing_and_bad_bytes() {
        let mut r = StateReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u64().unwrap_err(), StateError::Truncated);

        let mut r = StateReader::new(&[9, 9]);
        r.get_u8().unwrap();
        assert_eq!(r.clone().finish().unwrap_err(), StateError::TrailingBytes);

        let mut r = StateReader::new(&[2]);
        assert!(matches!(r.get_bool().unwrap_err(), StateError::Invalid(_)));
    }

    #[test]
    fn error_display_is_informative() {
        let e = StateError::BackendMismatch { expected: "ebbiot".into(), found: "ebbi-kf".into() };
        assert!(e.to_string().contains("ebbi-kf"));
        assert!(StateError::UnknownBackend("nope".into()).to_string().contains("nope"));
    }
}
