//! The `EBST` wire format: constants, varint/zigzag coding, CRC32 and
//! the chunk payload codec.
//!
//! See the [crate docs](crate) for the full layout specification. This
//! module owns everything byte-level; the [`writer`](crate::writer) and
//! [`reader`](crate::reader) modules only frame and stream it.
//!
//! The codec has a fast and a reference implementation in each
//! direction, and nothing but tests and benches calls a reference:
//! [`encode_chunk_payload`] (a word-store lane for every event whose
//! `Δt` is below 2^21 µs) against [`encode_chunk_payload_reference`],
//! [`decode_chunk_payload_fast`] (a table-driven lane, keyed on a
//! word's eight continuation bits, for every event after the first whose
//! three varints fit 3 bytes each and 8 together, with its overflow
//! checks hoisted out) against [`decode_chunk_payload`], and [`crc32`]
//! (slice-by-16) against [`crc32_reference`].
//! The hot paths — the writer, the reader, the `EBWP` EVENTS frames —
//! use only the fast ones.

use ebbiot_events::{Event, Polarity, SensorGeometry, Timestamp};

/// Magic bytes opening an `EBST` file.
pub const MAGIC: [u8; 4] = *b"EBST";
/// Magic bytes closing the footer (read backwards from EOF).
pub const END_MAGIC: [u8; 4] = *b"EBSX";
/// Current format version.
pub const VERSION: u16 = 1;
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
/// Upper bound on encoded bytes per event (worst-case varints for the
/// timestamp delta plus both coordinate deltas); used to reject
/// nonsensical payload lengths before allocating.
pub const MAX_EVENT_BYTES: usize = 10 + 3 + 3;

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

// --- varint / zigzag ---------------------------------------------------

/// Appends `v` as a little-endian base-128 varint (LEB128, ≤ 10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint from `buf` at `*pos`, advancing `*pos`.
///
/// Returns `None` on a truncated or over-long (> 10 byte) encoding.
#[must_use]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Continuation-bit mask over eight little-endian varint bytes.
const VARINT_CONT: u64 = 0x8080_8080_8080_8080;

/// Branch-light varint read via one unaligned little-endian `u64` load
/// and trailing-zero dispatch on the continuation bits. The caller must
/// guarantee **at least 8 readable bytes** at `*pos`; varints longer
/// than 8 bytes (values ≥ 2^56) fall back to [`read_varint`], which
/// also owns the overflow/over-length rejection.
///
/// Bit-for-bit equivalent to [`read_varint`] whenever both apply: same
/// `Some`/`None` outcome, same value, same `*pos` advance — the decode
/// parity suite depends on that.
#[inline]
fn read_varint_word(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    let word = u64::from_le_bytes(buf[p..p + 8].try_into().expect("len 8"));
    let stops = !word & VARINT_CONT;
    if stops == 0 {
        // 9- or 10-byte encoding (or corruption): rare, let the byte
        // loop handle it together with its overflow checks.
        return read_varint(buf, pos);
    }
    // First byte with a clear continuation bit ends the varint.
    let len = (stops.trailing_zeros() >> 3) + 1; // 1..=8
    let keep = word & (u64::MAX >> (64 - 8 * len));
    // Strip the continuation bits: byte i contributes its low 7 bits at
    // bit position 7*i, i.e. (keep >> 8i & 0x7f) << 7i == keep >> i
    // masked to the 7-bit lane. Constant 8 ops, no per-byte branch.
    let value = (keep & 0x7f)
        | ((keep >> 1) & (0x7f << 7))
        | ((keep >> 2) & (0x7f << 14))
        | ((keep >> 3) & (0x7f << 21))
        | ((keep >> 4) & (0x7f << 28))
        | ((keep >> 5) & (0x7f << 35))
        | ((keep >> 6) & (0x7f << 42))
        | ((keep >> 7) & (0x7f << 49));
    *pos = p + len as usize;
    Some(value)
}

/// Packs the low 7 bits of each of up to three little-endian varint
/// bytes: byte `i` contributes bits `8i..8i + 7` at position `7i`, and
/// the continuation bits fall out of the three lane masks.
#[inline]
const fn compact3(bytes: u64) -> u64 {
    (bytes & 0x7f) | ((bytes >> 1) & (0x7f << 7)) | ((bytes >> 2) & (0x7f << 14))
}

/// The eight continuation bits of a little-endian payload word, bit `i`
/// from byte `i`: one mask isolates them at bits `8i`, and one multiply
/// gathers them into the top byte. The multiplier's set bits `7j + 7`
/// move byte `i`'s bit to `56 + i` for `j = 7 − i`; no other pair of
/// terms reaches the top byte or lands on a bit another term sets, so
/// nothing carries into it.
#[inline]
const fn continuation_bits(word: u64) -> usize {
    ((word >> 7 & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize
}

/// How the decode lane takes one payload word apart, looked up by the
/// word's [`continuation_bits`].
#[derive(Clone, Copy)]
struct LaneStep {
    /// The byte masks of the three varints, each from its first byte.
    masks: [u32; 3],
    /// Bit offsets of the second and third varints in the word.
    shifts: [u8; 2],
    /// Bytes the three varints take; 0 when the word does not hold
    /// three varints of at most 3 bytes each.
    advance: u8,
}

/// The 256 [`LaneStep`]s, one per continuation-bit pattern. The first
/// three clear bits end the three varints; a pattern takes the lane when
/// all three end inside the word and none is longer than 3 bytes.
const fn lane_steps() -> [LaneStep; 256] {
    const fn bytes(n: u32) -> u32 {
        (1 << (8 * n)) - 1
    }
    let mut steps = [LaneStep { masks: [0; 3], shifts: [0; 2], advance: 0 }; 256];
    let mut bits = 0;
    while bits < 256 {
        // One past the last byte of each varint that ends in the word.
        let mut ends = [0u32; 3];
        let (mut found, mut byte) = (0, 0);
        while byte < 8 && found < 3 {
            if bits >> byte & 1 == 0 {
                ends[found] = byte + 1;
                found += 1;
            }
            byte += 1;
        }
        let [e0, e1, e2] = ends;
        if found == 3 && e0 <= 3 && e1 - e0 <= 3 && e2 - e1 <= 3 {
            steps[bits as usize] = LaneStep {
                masks: [bytes(e0), bytes(e1 - e0), bytes(e2 - e1)],
                shifts: [8 * e0 as u8, 8 * e1 as u8],
                advance: e2 as u8,
            };
        }
        bits += 1;
    }
    steps
}

static LANE_STEPS: [LaneStep; 256] = lane_steps();

/// The lane of [`decode_chunk_payload_fast`]: decodes an event's three
/// varints from the eight little-endian payload bytes in `word` when all
/// three end inside it and none is longer than 3 bytes. Returns the
/// three values and the bytes they take, or `None` (read them one at a
/// time instead).
///
/// The word's continuation bits pick a [`LaneStep`] from a 256-entry
/// table, which gives each varint's byte mask and offset, so the decode
/// has no per-byte branch and no bit scan. A 3-byte varint holds at most
/// 21 bits, so no value can overflow and the result equals three
/// [`read_varint`] calls: same values, same advance.
#[inline]
fn varint_triple(word: u64) -> Option<([u64; 3], usize)> {
    let step = LANE_STEPS[continuation_bits(word)];
    if step.advance == 0 {
        return None;
    }
    let lane = |shift: u8, mask: u32| compact3(word >> shift & u64::from(mask));
    let [m0, m1, m2] = step.masks;
    let [s1, s2] = step.shifts;
    Some(([lane(0, m0), lane(s1, m1), lane(s2, m2)], usize::from(step.advance)))
}

/// Reads an event's three varints one at a time with `read`, starting at
/// `pos`, and returns them with the position after them; `None` when a
/// read fails. Taking `pos` by value keeps the decode loop's own cursor
/// out of memory.
#[inline]
fn read_triple(
    payload: &[u8],
    mut pos: usize,
    read: fn(&[u8], &mut usize) -> Option<u64>,
) -> Option<([u64; 3], usize)> {
    let dt = read(payload, &mut pos)?;
    let dx = read(payload, &mut pos)?;
    let dyp = read(payload, &mut pos)?;
    Some(([dt, dx, dyp], pos))
}

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
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

/// Time deltas below this take the encoder's word-store lane: their
/// varint is at most 3 bytes long, like every coordinate varint.
const LANE_DT_LIMIT: u64 = 1 << 21;

/// Bytes the encoder gathers in its stack block before appending them
/// to the output in one copy.
const ENCODE_BLOCK_BYTES: usize = 1024;

/// The LEB128 encoding of `v < 2^21` as a little-endian word, and its
/// length in bytes: the three 7-bit groups spread to bytes 0..3
/// branch-free, with the continuation bits set by two compares.
#[inline]
fn varint3(v: u64) -> (u64, usize) {
    debug_assert!(v < LANE_DT_LIMIT, "{v} needs more than 3 varint bytes");
    let (two, three) = (u64::from(v >= 1 << 7), u64::from(v >= 1 << 14));
    let groups = (v & 0x7f) | (v << 1 & 0x7f00) | (v << 2 & 0x7f_0000);
    (groups | two << 7 | three << 15, 1 + (two + three) as usize)
}

/// Encodes one chunk's events into `out` (cleared first).
///
/// Within a chunk the stream is delta-coded against a running
/// predecessor: the timestamp delta (from `t_first` for the first
/// event) as a plain varint, the column delta zigzagged, and the row
/// delta zigzagged with the polarity bit packed into bit 0. Chunks are
/// therefore self-contained — decoding needs nothing but the frame's
/// `t_first`.
///
/// The hot encoder behind [`RecordingWriter`](crate::RecordingWriter)
/// and the `EBWP` EVENTS frames. For `u16` coordinates, `zigzag(Δx)` is
/// below 2^17 and `zigzag(Δy) << 1 | p` below 2^18, so both always fit
/// 3 varint bytes. When `Δt` is below 2^21 µs too, the event takes the
/// word-store lane: each value is spread to its varint bytes branch-free
/// (`varint3`) and the event is stored with two unaligned 8-byte writes
/// into a stack block, which is appended to `out` about once per KiB.
/// A longer gap takes [`write_varint`]. The bytes are exactly those of
/// [`encode_chunk_payload_reference`], which `tests/decode_parity.rs`
/// checks.
///
/// # Panics
///
/// Panics when `events` is empty or not time-ordered — the writer
/// validates both before framing a chunk.
pub fn encode_chunk_payload(out: &mut Vec<u8>, events: &[Event]) {
    out.clear();
    let mut prev_t = events.first().expect("chunks are never empty").t;
    let (mut prev_x, mut prev_y) = (0i64, 0i64);
    // Room for one lane event's second 8-byte write past the watermark.
    let mut block = [0u8; ENCODE_BLOCK_BYTES + 16];
    let mut len = 0;
    for e in events {
        assert!(e.t >= prev_t, "chunk events must be time-ordered");
        let dt = e.t - prev_t;
        let dx = zigzag(i64::from(e.x) - prev_x);
        let dyp = zigzag(i64::from(e.y) - prev_y) << 1 | u64::from(e.polarity.bit());
        if dt < LANE_DT_LIMIT {
            let (t_bytes, t_len) = varint3(dt);
            let (x_bytes, x_len) = varint3(dx);
            let (y_bytes, y_len) = varint3(dyp);
            // At most 6 bytes of `dt` and `dx`, then `dyp` right after
            // them, over the first write's zero tail.
            block[len..len + 8].copy_from_slice(&(t_bytes | x_bytes << (8 * t_len)).to_le_bytes());
            let at = len + t_len + x_len;
            block[at..at + 8].copy_from_slice(&y_bytes.to_le_bytes());
            len = at + y_len;
            if len >= ENCODE_BLOCK_BYTES {
                out.extend_from_slice(&block[..len]);
                len = 0;
            }
        } else {
            encode_long_gap(out, &block[..len], [dt, dx, dyp]);
            len = 0;
        }
        prev_t = e.t;
        prev_x = i64::from(e.x);
        prev_y = i64::from(e.y);
    }
    out.extend_from_slice(&block[..len]);
}

/// The rare event of [`encode_chunk_payload`] whose `dt` needs more than
/// 3 varint bytes: appends the block gathered so far, then the event's
/// three varints. Kept out of line so the lane's loop keeps its state in
/// registers.
#[cold]
#[inline(never)]
fn encode_long_gap(out: &mut Vec<u8>, gathered: &[u8], values: [u64; 3]) {
    out.extend_from_slice(gathered);
    for v in values {
        write_varint(out, v);
    }
}

/// One [`write_varint`] call per value — the obviously-correct reference
/// the word-store [`encode_chunk_payload`] is tested and benchmarked
/// against, byte for byte. Not used on any hot path.
///
/// # Panics
///
/// Exactly those of [`encode_chunk_payload`].
pub fn encode_chunk_payload_reference(out: &mut Vec<u8>, events: &[Event]) {
    out.clear();
    let mut prev_t = events.first().expect("chunks are never empty").t;
    let (mut prev_x, mut prev_y) = (0i64, 0i64);
    for e in events {
        assert!(e.t >= prev_t, "chunk events must be time-ordered");
        write_varint(out, e.t - prev_t);
        write_varint(out, zigzag(i64::from(e.x) - prev_x));
        write_varint(out, zigzag(i64::from(e.y) - prev_y) << 1 | u64::from(e.polarity.bit()));
        prev_t = e.t;
        prev_x = i64::from(e.x);
        prev_y = i64::from(e.y);
    }
}

/// Decodes a chunk payload into `out` (cleared first), validating
/// bounds against `geometry` and consistency with the frame's `count`,
/// `t_first` and `t_last`.
///
/// This is the **scalar reference decoder** — one byte-loop varint at a
/// time, kept deliberately simple. Hot paths (the store reader and the
/// `EBWP` EVENTS path) use [`decode_chunk_payload_fast`], which is
/// property-tested bit-exact against this function, accepted payloads
/// and rejected ones alike.
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
    // Each event costs at least 3 payload bytes (three one-byte
    // varints), so an attacker-controlled `count` far beyond the
    // payload is corruption — reject it *before* reserving memory for
    // it.
    if (payload.len() as u64) < u64::from(count) * 3 {
        return Err(corrupt("payload too short for event count"));
    }
    out.clear();
    out.reserve(count as usize);
    let mut pos = 0usize;
    let mut t = t_first;
    let (mut x, mut y) = (0i64, 0i64);
    for i in 0..count {
        let dt = read_varint(payload, &mut pos).ok_or_else(|| corrupt("truncated varint"))?;
        let dx = read_varint(payload, &mut pos).ok_or_else(|| corrupt("truncated varint"))?;
        let dyp = read_varint(payload, &mut pos).ok_or_else(|| corrupt("truncated varint"))?;
        t = t.checked_add(dt).ok_or_else(|| corrupt("timestamp overflow"))?;
        if i == 0 && dt != 0 {
            return Err(corrupt("first event does not start at t_first"));
        }
        x = x.checked_add(unzigzag(dx)).ok_or_else(|| corrupt("column delta overflow"))?;
        y = y.checked_add(unzigzag(dyp >> 1)).ok_or_else(|| corrupt("row delta overflow"))?;
        let polarity = Polarity::from_bit((dyp & 1) as u8);
        let on_array = (0..i64::from(geometry.width())).contains(&x)
            && (0..i64::from(geometry.height())).contains(&y);
        if !on_array {
            return Err(StoreError::OutOfBounds { chunk, x, y });
        }
        out.push(Event::new(x as u16, y as u16, t, polarity));
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes after last event"));
    }
    if t != t_last {
        return Err(corrupt("last event does not end at t_last"));
    }
    Ok(())
}

/// The decode lane takes an event only while the running timestamp is
/// at most this, so adding its `Δt` (below 2^21 µs) cannot overflow.
const LANE_T_MAX: Timestamp = u64::MAX - (1 << 21);

/// Batched, branch-light variant of [`decode_chunk_payload`]: the hot
/// decoder behind [`ChunkReader`](crate::ChunkReader) and the `EBWP`
/// EVENTS path.
///
/// After each event decoded on the checked path, a tight lane loop takes
/// the events that follow while at least [`MAX_EVENT_BYTES`] × 2 bytes
/// remain. Each starts with one unaligned `u64` load; the word's eight
/// continuation bits index a 256-entry table that gives the three
/// varints' byte masks and offsets and the advance (`varint_triple`).
/// Inside the lane every varint is at most 3 bytes, so `|Δx|` and `|Δy|`
/// are below 2^20 and no coordinate sum can overflow; one compare
/// against `LANE_T_MAX` rules out timestamp overflow, and bounds are one
/// unsigned compare per axis. A word the table rejects, or a timestamp
/// too close to `u64::MAX`, ends the lane.
///
/// The checked path takes event 0 (which must have `Δt == 0`), those
/// words and the payload tail: varints one at a time, by unaligned loads
/// and trailing-zero dispatch (`read_varint_word`) while the watermark
/// holds and by the byte loop after it, with every overflow checked.
/// Decodes straight into the reused `out` buffer with one upfront
/// `reserve`.
///
/// Bit-for-bit equivalent to the scalar reference: identical events for
/// every valid payload and the identical error (variant, reason and
/// position of first rejection) for every corrupt one —
/// `tests/decode_parity.rs` proves both properties over random and
/// hostile inputs and every continuation-bit pattern.
///
/// # Errors
///
/// Exactly those of [`decode_chunk_payload`].
pub fn decode_chunk_payload_fast(
    out: &mut Vec<Event>,
    payload: &[u8],
    chunk: usize,
    geometry: SensorGeometry,
    count: u32,
    t_first: Timestamp,
    t_last: Timestamp,
) -> Result<(), StoreError> {
    let corrupt = |reason| StoreError::CorruptChunk { chunk, reason };
    if (payload.len() as u64) < u64::from(count) * 3 {
        return Err(corrupt("payload too short for event count"));
    }
    out.clear();
    out.reserve(count as usize);
    // Three varints cost at most 10 + 3 + 3 bytes (MAX_EVENT_BYTES), but
    // each word read wants ≥ 8 readable bytes after a ≤ 10-byte
    // predecessor, so 2 × MAX_EVENT_BYTES is a safe (and still tight)
    // floor for a whole event.
    let words_fit = |pos: usize| payload.len() - pos >= 2 * MAX_EVENT_BYTES;
    let (width, height) = (u64::from(geometry.width()), u64::from(geometry.height()));
    let mut pos = 0usize;
    let mut t = t_first;
    let (mut x, mut y) = (0i64, 0i64);
    let mut i = 0u32;
    while i < count {
        let read = if words_fit(pos) { read_varint_word } else { read_varint };
        let Some(([dt, dx, dyp], next)) = read_triple(payload, pos, read) else {
            return Err(corrupt("truncated varint"));
        };
        pos = next;
        t = t.checked_add(dt).ok_or_else(|| corrupt("timestamp overflow"))?;
        if i == 0 && dt != 0 {
            return Err(corrupt("first event does not start at t_first"));
        }
        x = x.checked_add(unzigzag(dx)).ok_or_else(|| corrupt("column delta overflow"))?;
        y = y.checked_add(unzigzag(dyp >> 1)).ok_or_else(|| corrupt("row delta overflow"))?;
        if !((0..width as i64).contains(&x) && (0..height as i64).contains(&y)) {
            return Err(StoreError::OutOfBounds { chunk, x, y });
        }
        out.push(Event::new(x as u16, y as u16, t, Polarity::from_bit((dyp & 1) as u8)));
        i += 1;
        // The lane. `x` and `y` are on the array here and each step moves
        // them by less than 2^20, so plain adds are exact.
        while i < count && words_fit(pos) && t <= LANE_T_MAX {
            let word = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("len 8"));
            let Some(([dt, dx, dyp], len)) = varint_triple(word) else { break };
            pos += len;
            t += dt;
            x += unzigzag(dx);
            y += unzigzag(dyp >> 1);
            if x as u64 >= width || y as u64 >= height {
                return Err(StoreError::OutOfBounds { chunk, x, y });
            }
            out.push(Event::new(x as u16, y as u16, t, Polarity::from_bit((dyp & 1) as u8)));
            i += 1;
        }
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes after last event"));
    }
    if t != t_last {
        return Err(corrupt("last event does not end at t_last"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None, "continuation with no next byte");
        let mut pos = 0;
        assert_eq!(read_varint(&[0xff; 11], &mut pos), None, "over-long encoding");
        let mut pos = 0;
        // 10th byte with a value that would push past 64 bits.
        let mut buf = vec![0xff; 9];
        buf.push(0x02);
        assert_eq!(read_varint(&buf, &mut pos), None, "u64 overflow");
    }

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

    #[test]
    fn varint_word_read_matches_byte_loop() {
        // Boundary values at every varint length, padded so the word
        // loader always has 8 readable bytes.
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 28) - 1,
            1 << 35,
            (1 << 56) - 1,
            (1 << 56),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            buf.resize(buf.len() + 10, 0x55);
            let (mut fast_pos, mut slow_pos) = (0usize, 0usize);
            assert_eq!(read_varint_word(&buf, &mut fast_pos), Some(v));
            assert_eq!(read_varint(&buf, &mut slow_pos), Some(v));
            assert_eq!(fast_pos, slow_pos, "value {v}");
        }
        // Non-canonical (padded) encodings decode identically too.
        let buf = [0x80, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0];
        let (mut fast_pos, mut slow_pos) = (0usize, 0usize);
        assert_eq!(read_varint_word(&buf, &mut fast_pos), Some(0));
        assert_eq!(read_varint(&buf, &mut slow_pos), Some(0));
        assert_eq!(fast_pos, slow_pos);
    }

    #[test]
    fn varint_triple_matches_three_byte_loop_reads() {
        // Every length mix of 1..=4-byte varints (4 bytes never fits the
        // lane), padded with continuation bytes so a triple that spills
        // past the word is seen as one.
        let widths = [0u64, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21];
        for &a in &widths {
            for &b in &widths {
                for &c in &widths {
                    let mut buf = Vec::new();
                    for v in [a, b, c] {
                        write_varint(&mut buf, v);
                    }
                    let fits = buf.len() <= 8 && [a, b, c].iter().all(|&v| v < 1 << 21);
                    buf.resize(16, 0xff);
                    let word = u64::from_le_bytes(buf[..8].try_into().unwrap());
                    let mut pos = 0;
                    let slow = [(); 3].map(|()| read_varint(&buf, &mut pos).unwrap());
                    match varint_triple(word) {
                        Some((values, len)) => {
                            assert!(fits, "{a} {b} {c}");
                            assert_eq!((values, len), (slow, pos), "{a} {b} {c}");
                        }
                        None => assert!(!fits, "{a} {b} {c} should take the lane"),
                    }
                }
            }
        }
        // Non-canonical 3-byte zeros decode like the byte loop too.
        let word = u64::from_le_bytes([0x80, 0x80, 0x00, 0x81, 0x00, 0x05, 0xff, 0xff]);
        assert_eq!(varint_triple(word), Some(([0, 1, 5], 6)));
    }

    #[test]
    fn varint3_matches_write_varint_below_2_pow_21() {
        // Both sides of every length step, and a stride through the rest.
        let edges = [0u64, 1, 127, 128, 129, (1 << 14) - 1, 1 << 14, (1 << 21) - 2, (1 << 21) - 1];
        for v in edges.into_iter().chain((0..1 << 21).step_by(997)) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (bytes, len) = varint3(v);
            assert_eq!(len, buf.len(), "value {v}");
            assert_eq!(&bytes.to_le_bytes()[..len], &buf[..], "value {v}");
            assert_eq!(bytes >> (8 * len), 0, "value {v} spills past its length");
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

    #[test]
    fn chunk_payload_round_trips() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
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
        // Dense traffic-like deltas stay far below the flat 14 B/event.
        assert!(payload.len() < events.len() * 8, "{} bytes", payload.len());
    }

    #[test]
    fn decode_rejects_out_of_bounds_after_corruption() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        let mut decoded = Vec::new();
        let err = decode_chunk_payload(
            &mut decoded,
            &payload,
            3,
            SensorGeometry::new(8, 8), // smaller array than encoded for
            events.len() as u32,
            events[0].t,
            events.last().unwrap().t,
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::OutOfBounds { chunk: 3, .. }), "{err}");
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_payloads() {
        let events = sample();
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        let geometry = SensorGeometry::davis240();
        let (n, t0, t1) = (events.len() as u32, events[0].t, events.last().unwrap().t);
        let mut decoded = Vec::new();

        let err = decode_chunk_payload(
            &mut decoded,
            &payload[..payload.len() - 1],
            0,
            geometry,
            n,
            t0,
            t1,
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::CorruptChunk { .. }), "{err}");

        let mut trailing = payload.clone();
        trailing.push(0);
        let err =
            decode_chunk_payload(&mut decoded, &trailing, 0, geometry, n, t0, t1).unwrap_err();
        assert!(matches!(err, StoreError::CorruptChunk { reason, .. }
                if reason.contains("trailing")));
    }

    #[test]
    fn decode_rejects_absurd_event_counts_before_allocating() {
        // A corrupt frame can claim u32::MAX events with a tiny
        // payload; that must be an error, not a ~68 GB reserve.
        let mut decoded = Vec::new();
        let err = decode_chunk_payload(
            &mut decoded,
            &[0, 0, 0],
            0,
            SensorGeometry::davis240(),
            u32::MAX,
            0,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::CorruptChunk { reason, .. }
                if reason.contains("too short")));
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
