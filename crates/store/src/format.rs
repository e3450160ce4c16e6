//! The `EBST` wire format: constants, zigzag coding, CRC32 and the
//! bit-packed chunk payload codec.
//!
//! See the [crate docs](crate) for the full layout specification. This
//! module owns everything byte-level; the [`writer`](crate::writer) and
//! [`reader`](crate::reader) modules only frame and stream it.
//!
//! The chunk codec is one encoder, [`encode_chunk_payload`], and one
//! decoder, [`decode_chunk_payload`], behind the writer, the reader and
//! the `EBWP` EVENTS frames alike. [`crc32`] (slice-by-16) keeps the
//! one-byte [`crc32_reference`] it is tested and benchmarked against.

use ebbiot_events::{Event, Polarity, SensorGeometry, Timestamp};

/// Magic bytes opening an `EBST` file.
pub const MAGIC: [u8; 4] = *b"EBST";
/// Magic bytes closing the footer (read backwards from EOF).
pub const END_MAGIC: [u8; 4] = *b"EBSX";
/// Current format version. Version 1 chunks were delta-varint coded;
/// its files are rejected as [`StoreError::UnsupportedVersion`].
pub const VERSION: u16 = 2;
/// Size of the fixed header prefix (magic, version, width, height,
/// name length, span), excluding the variable-length stream name.
pub const HEADER_FIXED_BYTES: usize = 20;
/// Size of one chunk frame (count, t\_first, t\_last, payload length,
/// CRC32), excluding the payload itself.
pub const CHUNK_FRAME_BYTES: usize = 28;
/// Size of one chunk-index entry (offset, count, t\_first, t\_last).
pub const INDEX_ENTRY_BYTES: usize = 28;
/// Size of the trailing footer (total events, index offset, chunk
/// count, index CRC32, end magic).
pub const FOOTER_BYTES: usize = 28;
/// Most events one chunk may hold. Readers and the `EBWP` decoder
/// check a chunk's count against it before allocating anything, so one
/// chunk never costs more than 16 MiB of decoded events; the writer and
/// `EVENTS` encoder never frame a larger one.
pub const MAX_CHUNK_EVENTS: usize = 1 << 20;
/// Bytes of field widths opening every chunk payload.
pub const WIDTH_BYTES: usize = 3;
/// The widest field widths a payload may declare, `[wt, wx, wy]`: `Δt`
/// is a `u64`, and for `u16` coordinates `zigzag(Δx) < 2^17` and
/// `zigzag(Δy) << 1 | p < 2^18`.
pub const MAX_WIDTHS: [u8; 3] = [64, 17, 18];
/// The most bits one packed event can take (the sum of [`MAX_WIDTHS`]).
pub const MAX_EVENT_BITS: usize = 64 + 17 + 18;

/// Everything that can go wrong reading or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Input ended before a complete header.
    TruncatedHeader,
    /// Header magic did not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported format version.
    UnsupportedVersion(u16),
    /// The stream name was not valid UTF-8.
    BadName,
    /// The stream name exceeds the `u16` length field.
    NameTooLong(usize),
    /// The trailing footer is missing, truncated or mis-magicked.
    BadFooter,
    /// The chunk index does not match its stored CRC32.
    IndexCrcMismatch,
    /// A chunk payload does not match its stored CRC32.
    ChunkCrcMismatch {
        /// Zero-based chunk number.
        chunk: usize,
    },
    /// A chunk's frame or payload is internally inconsistent.
    CorruptChunk {
        /// Zero-based chunk number.
        chunk: usize,
        /// What was inconsistent.
        reason: &'static str,
    },
    /// A decoded event lies outside the header's sensor geometry.
    OutOfBounds {
        /// Zero-based chunk number.
        chunk: usize,
        /// Decoded column, possibly negative after a corrupt delta.
        x: i64,
        /// Decoded row, possibly negative after a corrupt delta.
        y: i64,
    },
    /// A fleet manifest is missing, malformed, or a stream name cannot
    /// be represented in it.
    BadManifest {
        /// What was wrong.
        reason: &'static str,
    },
    /// Events handed to the writer were not time-ordered.
    NotTimeOrdered,
    /// An event handed to the writer lies outside the store's geometry.
    EventOutOfBounds {
        /// Offending column.
        x: u16,
        /// Offending row.
        y: u16,
    },
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::TruncatedHeader => write!(f, "input shorter than an EBST header"),
            StoreError::BadMagic(m) => write!(f, "bad EBST magic bytes {m:?}"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported EBST version {v}"),
            StoreError::BadName => write!(f, "stream name is not valid UTF-8"),
            StoreError::NameTooLong(n) => write!(f, "stream name of {n} bytes exceeds u16"),
            StoreError::BadFooter => write!(f, "missing or corrupt EBST footer"),
            StoreError::IndexCrcMismatch => write!(f, "chunk index fails its CRC32"),
            StoreError::ChunkCrcMismatch { chunk } => {
                write!(f, "chunk {chunk} payload fails its CRC32")
            }
            StoreError::CorruptChunk { chunk, reason } => {
                write!(f, "chunk {chunk} is corrupt: {reason}")
            }
            StoreError::OutOfBounds { chunk, x, y } => {
                write!(f, "chunk {chunk} decodes event at ({x}, {y}) outside the sensor array")
            }
            StoreError::BadManifest { reason } => write!(f, "bad fleet manifest: {reason}"),
            StoreError::NotTimeOrdered => write!(f, "events written out of timestamp order"),
            StoreError::EventOutOfBounds { x, y } => {
                write!(f, "event at ({x}, {y}) outside the store's sensor array")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One chunk's entry in the trailing index: where it starts and what
/// time span it covers, enough to seek without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk frame from the start of the file.
    pub offset: u64,
    /// Number of events in the chunk (always > 0).
    pub count: u32,
    /// Timestamp of the chunk's first event.
    pub t_first: Timestamp,
    /// Timestamp of the chunk's last event.
    pub t_last: Timestamp,
}

/// The decoded stream header of an `EBST` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHeader {
    /// Sensor geometry the events were recorded on.
    pub geometry: SensorGeometry,
    /// Nominal recording span in microseconds (what replay hands to
    /// `finish`); 0 when unknown.
    pub span_us: u64,
    /// Stream name (e.g. `"LT4-cam03"`); may be empty.
    pub name: String,
}

// --- zigzag -----------------------------------------------------------

/// Maps a signed delta onto an unsigned value that is small when the
/// delta's magnitude is (0, -1, 1, -2, … → 0, 1, 2, 3, …).
#[must_use]
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- CRC32 -------------------------------------------------------------

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic one-byte
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which is what lets sixteen input bytes be folded per
/// round instead of one.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut k = 1;
        while k < 16 {
            crc = tables[0][(crc & 0xff) as usize] ^ (crc >> 8);
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
///
/// Folds sixteen bytes per table round (slice-by-16, Kounavis & Berry):
/// the running CRC is XORed into the round's first four bytes, and byte
/// `k` of the round is looked up in the table of `15 − k` trailing zero
/// bytes. It runs over every chunk payload and index on both the store
/// and wire paths, so it is hot. Bit-identical to [`crc32_reference`],
/// which the property tests enforce at every length and alignment.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut rounds = bytes.chunks_exact(16);
    for round in &mut rounds {
        let mut block: [u8; 16] = round.try_into().expect("len 16");
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in rounds.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Byte-at-a-time CRC-32 — the obviously-correct reference the
/// slice-by-16 [`crc32`] is property-tested against. Not used on any
/// hot path.
#[must_use]
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// --- chunk payload codec ----------------------------------------------

/// Payload bytes of `count` packed events of `event_bits` bits each: the
/// width bytes, then the bit stream rounded up to whole bytes.
#[must_use]
pub const fn payload_len(count: usize, event_bits: usize) -> usize {
    WIDTH_BYTES + (count * event_bits).div_ceil(8)
}

/// Events whose fields fit this many bits are read with one `u64` load:
/// an event starts at most 7 bits into its first byte.
const ONE_LOAD_BITS: usize = 57;

/// Each event's three packed fields against its predecessor: `Δt`,
/// `zigzag(Δx)` and `zigzag(Δy) << 1 | polarity`. `events` must be
/// non-empty and time-ordered.
fn deltas(events: &[Event]) -> impl Iterator<Item = [u64; 3]> + '_ {
    let mut prev = (events[0].t, 0i64, 0i64);
    events.iter().map(move |e| {
        let (x, y) = (i64::from(e.x), i64::from(e.y));
        let fields = [
            e.t - prev.0,
            zigzag(x - prev.1),
            zigzag(y - prev.2) << 1 | u64::from(e.polarity.bit()),
        ];
        prev = (e.t, x, y);
        fields
    })
}

/// The mask of a field `width` bits wide (`width ≤ 64`).
const fn field_mask(width: u8) -> u64 {
    ((1u128 << width) - 1) as u64
}

/// Encodes one chunk's events into `out` (cleared first).
///
/// Each event becomes three fields against a running predecessor: the
/// timestamp delta (from `t_first` for the first event), the zigzagged
/// column delta, and the zigzagged row delta with the polarity bit in
/// bit 0. Chunks are therefore self-contained: decoding needs nothing
/// but the frame's `t_first`. A first pass ORs each field over the chunk
/// and picks the fewest bits that hold it, `[wt, wx, wy]`, with `wy ≥ 1`
/// so the polarity bit is always stored. The payload is those three
/// width bytes, then every event's `wt + wx + wy` bits (`Δt` lowest)
/// appended to a little-endian bit stream, zero-padded to a whole byte.
///
/// # Panics
///
/// Panics when `events` is empty, longer than [`MAX_CHUNK_EVENTS`] or
/// not time-ordered — the writer validates all three before framing a
/// chunk.
pub fn encode_chunk_payload(out: &mut Vec<u8>, events: &[Event]) {
    assert!(!events.is_empty(), "chunks are never empty");
    assert!(
        events.len() <= MAX_CHUNK_EVENTS,
        "a chunk of {} events exceeds MAX_CHUNK_EVENTS",
        events.len()
    );
    // `fold` with `&`, not `all`: without an early exit the check
    // vectorises.
    assert!(
        events.windows(2).fold(true, |ordered, pair| ordered & (pair[0].t <= pair[1].t)),
        "chunk events must be time-ordered"
    );
    let used = deltas(events).fold([0u64; 3], |or, f| [or[0] | f[0], or[1] | f[1], or[2] | f[2]]);
    let bits_of = |v: u64| (64 - v.leading_zeros()) as u8;
    let widths = [bits_of(used[0]), bits_of(used[1]), bits_of(used[2]).max(1)];
    let [wt, wx, _] = widths.map(u32::from);
    let event_bits: usize = widths.iter().map(|&w| usize::from(w)).sum();
    let len = payload_len(events.len(), event_bits);
    out.clear();
    // 16 bytes of slack for the last event's whole-accumulator store.
    out.resize(len + 16, 0);
    out[..WIDTH_BYTES].copy_from_slice(&widths);
    let shifts = [wt, wt + wx];
    if event_bits < ONE_LOAD_BITS {
        pack::<false>(out, events, shifts, event_bits);
    } else {
        pack::<true>(out, events, shifts, event_bits);
    }
    out.truncate(len);
}

/// Appends every event's fields, at `shifts` within `event_bits`, to the
/// bit stream that starts after the width bytes of `out`, which has 16
/// bytes of slack past the stream's end. An accumulator holds the bits
/// of the byte not yet complete (fewer than 8), each event is ORed in
/// above them and the accumulator is stored whole; the cursor then moves
/// past the bytes now complete. Events of fewer than [`ONE_LOAD_BITS`]
/// bits go through a `u64` and an 8-byte store, `WIDE` ones through a
/// `u128` and a 16-byte store.
#[inline(always)]
fn pack<const WIDE: bool>(out: &mut [u8], events: &[Event], shifts: [u32; 2], event_bits: usize) {
    let (mut pos, mut pending) = (WIDTH_BYTES, 0usize);
    let [s1, s2] = shifts;
    if WIDE {
        let mut acc = 0u128;
        for [dt, dx, dyp] in deltas(events) {
            acc |= (u128::from(dt) | u128::from(dx) << s1 | u128::from(dyp) << s2) << pending;
            out[pos..pos + 16].copy_from_slice(&acc.to_le_bytes());
            pending += event_bits;
            (pos, acc, pending) = (pos + pending / 8, acc >> (pending & !7), pending % 8);
        }
    } else {
        let mut acc = 0u64;
        for [dt, dx, dyp] in deltas(events) {
            acc |= (dt | dx << s1 | dyp << s2) << pending;
            out[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
            pending += event_bits;
            (pos, acc, pending) = (pos + pending / 8, acc >> (pending & !7), pending % 8);
        }
    }
}

/// A chunk's validated bit stream: whole events of `event_bits` bits
/// each, `stream_bits` in all, every field at its shift under its mask.
struct BitStream<'a> {
    data: &'a [u8],
    stream_bits: usize,
    event_bits: usize,
    shifts: [u32; 2],
    masks: [u64; 3],
}

impl BitStream<'_> {
    /// The three fields of the event at `bit`. Events of at most
    /// [`ONE_LOAD_BITS`] take one unaligned `u64` load, a shift and three
    /// masks; `WIDE` events (a `Δt` of about 2^40 µs or more) one 16-byte
    /// load, which holds their at most 99 bits at any offset. The last
    /// events of a chunk may lie within one load of its end; they read a
    /// zero-padded copy of the tail.
    #[inline(always)]
    fn fields<const WIDE: bool>(&self, bit: usize) -> [u64; 3] {
        let (byte, shift) = (bit / 8, bit % 8);
        let ([s1, s2], [m0, m1, m2]) = (self.shifts, self.masks);
        if WIDE {
            let word = match self.data.get(byte..byte + 16) {
                Some(bytes) => u128::from_le_bytes(bytes.try_into().expect("len 16")),
                None => padded_tail(&self.data[byte..]),
            } >> shift;
            [word as u64 & m0, (word >> s1) as u64 & m1, (word >> s2) as u64 & m2]
        } else {
            let word = match self.data.get(byte..byte + 8) {
                Some(bytes) => u64::from_le_bytes(bytes.try_into().expect("len 8")),
                None => padded_tail(&self.data[byte..]) as u64,
            } >> shift;
            [word & m0, word >> s1 & m1, word >> s2 & m2]
        }
    }

    /// Unpacks every event into `out` from `t_first` on, checking each
    /// timestamp add and pixel bound, and returns the last timestamp.
    /// The fields' widths bound each coordinate step below 2^17, so the
    /// running coordinates cannot overflow, and one unsigned compare per
    /// axis rejects both sides of the array.
    fn unpack_into<const WIDE: bool>(
        &self,
        out: &mut Vec<Event>,
        chunk: usize,
        geometry: SensorGeometry,
        t_first: Timestamp,
    ) -> Result<Timestamp, StoreError> {
        let (width, height) = (u64::from(geometry.width()), u64::from(geometry.height()));
        let mut t = t_first;
        let (mut x, mut y) = (0i64, 0i64);
        for bit in (0..self.stream_bits).step_by(self.event_bits) {
            let [dt, dx, dyp] = self.fields::<WIDE>(bit);
            t = t
                .checked_add(dt)
                .ok_or(StoreError::CorruptChunk { chunk, reason: "timestamp overflow" })?;
            x += unzigzag(dx);
            y += unzigzag(dyp >> 1);
            if x as u64 >= width || y as u64 >= height {
                return Err(StoreError::OutOfBounds { chunk, x, y });
            }
            out.push(Event::new(x as u16, y as u16, t, Polarity::from_bit((dyp & 1) as u8)));
        }
        Ok(t)
    }
}

/// The at most 15 last bytes of a stream, zero-extended to 16.
#[cold]
fn padded_tail(tail: &[u8]) -> u128 {
    let mut bytes = [0u8; 16];
    bytes[..tail.len()].copy_from_slice(tail);
    u128::from_le_bytes(bytes)
}

/// Decodes a chunk payload into `out` (cleared first), validating it
/// against `geometry` and the frame's `count`, `t_first` and `t_last`.
///
/// The hot decoder behind [`ChunkReader`](crate::ChunkReader) and the
/// `EBWP` EVENTS path. Before anything is allocated it rejects a `count`
/// over [`MAX_CHUNK_EVENTS`], a payload too short for its width bytes,
/// a width over [`MAX_WIDTHS`] or a zero `wy`, a payload whose length is
/// not exactly [`payload_len`] of `count` events, non-zero padding bits
/// and a first event with `Δt ≠ 0`. Then it unpacks every event: one
/// `u64` load, a shift and three masks per event when the three fields
/// take at most 57 bits, one 16-byte load otherwise, with no table and
/// no data-dependent length. Per event it checks the timestamp add for
/// overflow and the pixel bounds; the last event must end at `t_last`.
/// Decodes straight into the reused `out` buffer with one upfront
/// `reserve`.
///
/// # Errors
///
/// Returns [`StoreError::CorruptChunk`] or [`StoreError::OutOfBounds`]
/// (tagged with `chunk`) on the first inconsistency.
pub fn decode_chunk_payload(
    out: &mut Vec<Event>,
    payload: &[u8],
    chunk: usize,
    geometry: SensorGeometry,
    count: u32,
    t_first: Timestamp,
    t_last: Timestamp,
) -> Result<(), StoreError> {
    let corrupt = |reason| StoreError::CorruptChunk { chunk, reason };
    out.clear();
    let count = count as usize;
    if count > MAX_CHUNK_EVENTS {
        return Err(corrupt("event count exceeds MAX_CHUNK_EVENTS"));
    }
    let Some((&widths, data)) = payload.split_first_chunk::<WIDTH_BYTES>() else {
        return Err(corrupt("payload shorter than its field widths"));
    };
    if widths.iter().zip(MAX_WIDTHS).any(|(&w, max)| w > max) || widths[2] == 0 {
        return Err(corrupt("field width out of range"));
    }
    let event_bits: usize = widths.iter().map(|&w| usize::from(w)).sum();
    if payload.len() != payload_len(count, event_bits) {
        return Err(corrupt("payload length does not match event count and widths"));
    }
    let stream_bits = count * event_bits;
    if !stream_bits.is_multiple_of(8) && data[stream_bits / 8] >> (stream_bits % 8) != 0 {
        return Err(corrupt("non-zero padding bits"));
    }
    let [wt, wx, wy] = widths;
    let stream = BitStream {
        data,
        stream_bits,
        event_bits,
        shifts: [u32::from(wt), u32::from(wt) + u32::from(wx)],
        masks: [field_mask(wt), field_mask(wx), field_mask(wy)],
    };
    if count > 0 && stream.fields::<true>(0)[0] != 0 {
        return Err(corrupt("first event does not start at t_first"));
    }
    out.reserve(count);
    let t = if event_bits <= ONE_LOAD_BITS {
        stream.unpack_into::<false>(out, chunk, geometry, t_first)?
    } else {
        stream.unpack_into::<true>(out, chunk, geometry, t_first)?
    };
    if t != t_last {
        return Err(corrupt("last event does not end at t_last"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::codec::EVENT_RECORD_BYTES;

    #[test]
    fn zigzag_is_involutive_and_small_for_small_magnitudes() {
        for v in [0i64, 1, -1, 2, -2, 239, -239, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slice_by_16_matches_reference_across_lengths() {
        // Every length 0..64 exercises all remainder sizes around the
        // 16-byte folding boundary, up to four full rounds.
        let bytes: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(97) ^ (i >> 3)) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), crc32_reference(&bytes[..len]), "len {len}");
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            Event::on(10, 20, 1_000),
            Event::off(11, 20, 1_000),
            Event::on(0, 0, 1_005),
            Event::off(239, 179, 66_000),
        ]
    }

    fn decode(
        payload: &[u8],
        geometry: SensorGeometry,
        events: &[Event],
    ) -> Result<(), StoreError> {
        let (count, t_first, t_last) =
            (events.len() as u32, events[0].t, events[events.len() - 1].t);
        decode_chunk_payload(&mut Vec::new(), payload, 3, geometry, count, t_first, t_last)
    }

    #[test]
    fn chunk_payload_round_trips() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        // Δt up to 64,995 takes 16 bits, zigzag(Δx) up to 478 takes 9 and
        // zigzag(Δy) << 1 | p up to 716 takes 10.
        assert_eq!(payload[..WIDTH_BYTES], [16, 9, 10]);
        assert_eq!(payload.len(), payload_len(events.len(), 35));
        let mut decoded = Vec::new();
        decode_chunk_payload(
            &mut decoded,
            &payload,
            0,
            SensorGeometry::davis240(),
            events.len() as u32,
            events[0].t,
            events.last().unwrap().t,
        )
        .unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn the_widest_events_stay_under_the_flat_codecs_bytes_per_event() {
        // A 2^63 µs gap and full-array steps on a u16::MAX-square sensor
        // take every field to its widest: 99 bits per event.
        let far = 1u64 << 63;
        let corners = [(0, 0, 0), (u16::MAX - 1, u16::MAX - 1, far), (0, 0, far)];
        let events: Vec<Event> = corners.iter().map(|&(x, y, t)| Event::on(x, y, t)).collect();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        assert_eq!(payload[..WIDTH_BYTES], MAX_WIDTHS);
        assert_eq!(payload.len(), payload_len(3, MAX_EVENT_BITS));
        let geometry = SensorGeometry::new(u16::MAX, u16::MAX);
        decode(&payload, geometry, &events).unwrap();
        // From three events on, even that beats EAER's 14 B/event.
        for count in (3..=MAX_CHUNK_EVENTS).step_by(997).chain([MAX_CHUNK_EVENTS]) {
            let per_event = payload_len(count, MAX_EVENT_BITS) as f64 / count as f64;
            assert!(per_event < EVENT_RECORD_BYTES as f64, "{count} events: {per_event} B/event");
        }
    }

    #[test]
    fn decode_rejects_out_of_bounds_after_corruption() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        // A smaller array than the events were encoded for.
        let err = decode(&payload, SensorGeometry::new(8, 8), &events).unwrap_err();
        assert!(matches!(err, StoreError::OutOfBounds { chunk: 3, x: 10, y: 20 }), "{err}");
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_payloads() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        let geometry = SensorGeometry::davis240();
        let err = decode(&payload[..payload.len() - 1], geometry, &events).unwrap_err();
        assert!(
            matches!(err, StoreError::CorruptChunk { reason, .. }
                if reason.contains("length")),
            "{err}"
        );
        let mut trailing = payload.clone();
        trailing.push(0);
        let err = decode(&trailing, geometry, &events).unwrap_err();
        assert!(
            matches!(err, StoreError::CorruptChunk { reason, .. }
                if reason.contains("length")),
            "{err}"
        );
    }

    #[test]
    fn decode_rejects_absurd_event_counts_before_allocating() {
        // A corrupt frame can claim u32::MAX events; that must be an
        // error, not a ~68 GB reserve.
        let mut decoded = Vec::new();
        let geometry = SensorGeometry::davis240();
        for count in [u32::MAX, MAX_CHUNK_EVENTS as u32 + 1] {
            let err = decode_chunk_payload(&mut decoded, &[0, 0, 1], 0, geometry, count, 0, 0)
                .unwrap_err();
            assert!(
                matches!(err, StoreError::CorruptChunk { reason, .. }
                    if reason.contains("MAX_CHUNK_EVENTS")),
                "{err}"
            );
        }
        assert_eq!(decoded.capacity(), 0, "nothing was reserved");
    }

    #[test]
    fn decode_rejects_span_mismatch() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        let mut decoded = Vec::new();
        let err = decode_chunk_payload(
            &mut decoded,
            &payload,
            0,
            SensorGeometry::davis240(),
            events.len() as u32,
            events[0].t,
            events.last().unwrap().t + 7,
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::CorruptChunk { reason, .. }
                if reason.contains("t_last")));
    }

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::OutOfBounds { chunk: 2, x: -3, y: 400 };
        assert!(e.to_string().contains("chunk 2"));
        assert!(StoreError::BadFooter.to_string().contains("footer"));
    }
}
