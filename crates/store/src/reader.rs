//! [`ChunkReader`]: streams an `EBST` file back one chunk at a time,
//! from a streamed file handle or a memory-resident image via
//! [`ChunkSource`].

use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::Path;

use ebbiot_events::{codec::Recording, Event, Micros, SensorGeometry, Timestamp};

use crate::format::{
    crc32, decode_chunk_payload, ChunkMeta, StoreError, StoreHeader, CHUNK_FRAME_BYTES, END_MAGIC,
    FOOTER_BYTES, HEADER_FIXED_BYTES, INDEX_ENTRY_BYTES, MAGIC, MAX_CHUNK_EVENTS, MAX_EVENT_BITS,
    VERSION,
};

/// Random-access byte supply for a [`ChunkReader`].
///
/// The one interesting method is [`ChunkSource::payload`]: a resident
/// source ([`Cursor`] over anything `AsRef<[u8]>`) returns a slice
/// **borrowed straight from the underlying bytes** — CRC and decode
/// then run in place with zero copies — while a streamed source
/// ([`BufReader`]) copies into the caller's reusable scratch buffer.
/// Both uphold the same contract: exactly `len` bytes at `offset`, or
/// the caller's error when the source is too short.
pub trait ChunkSource {
    /// Total length of the source in bytes.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying source.
    fn source_len(&mut self) -> Result<u64, StoreError>;

    /// Reads exactly `buf.len()` bytes at `offset` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns `on_eof` when the source ends before `buf` is full, or
    /// an I/O error.
    fn read_at(
        &mut self,
        offset: u64,
        buf: &mut [u8],
        on_eof: StoreError,
    ) -> Result<(), StoreError>;

    /// Provides `len` bytes at `offset`: borrowed in place when the
    /// source is resident, else copied into `scratch` and returned from
    /// there.
    ///
    /// # Errors
    ///
    /// Returns `on_eof` when the source ends before `len` bytes, or an
    /// I/O error.
    fn payload<'a>(
        &'a mut self,
        scratch: &'a mut Vec<u8>,
        offset: u64,
        len: usize,
        on_eof: StoreError,
    ) -> Result<&'a [u8], StoreError>;
}

/// Streamed source: seeks and copies. `seek_relative` keeps the read
/// buffer whenever the target is already buffered (the common
/// sequential-chunk case).
impl<R: Read + Seek> ChunkSource for BufReader<R> {
    fn source_len(&mut self) -> Result<u64, StoreError> {
        Ok(self.seek(SeekFrom::End(0))?)
    }

    fn read_at(
        &mut self,
        offset: u64,
        buf: &mut [u8],
        on_eof: StoreError,
    ) -> Result<(), StoreError> {
        let cur = self.stream_position()?;
        match (i64::try_from(offset), i64::try_from(cur)) {
            (Ok(to), Ok(from)) => self.seek_relative(to - from)?,
            _ => {
                self.seek(SeekFrom::Start(offset))?;
            }
        }
        read_exact_or(self, buf, on_eof)
    }

    fn payload<'a>(
        &'a mut self,
        scratch: &'a mut Vec<u8>,
        offset: u64,
        len: usize,
        on_eof: StoreError,
    ) -> Result<&'a [u8], StoreError> {
        scratch.resize(len, 0);
        self.read_at(offset, scratch, on_eof)?;
        Ok(scratch)
    }
}

/// Resident source: [`ChunkSource::payload`] borrows from the
/// underlying bytes, so chunk payloads are CRC-checked and decoded with
/// zero copies. Covers `Cursor<Vec<u8>>`, `Cursor<&[u8]>`, …
impl<T: AsRef<[u8]>> ChunkSource for Cursor<T> {
    fn source_len(&mut self) -> Result<u64, StoreError> {
        Ok(self.get_ref().as_ref().len() as u64)
    }

    fn read_at(
        &mut self,
        offset: u64,
        buf: &mut [u8],
        on_eof: StoreError,
    ) -> Result<(), StoreError> {
        let bytes = self.get_ref().as_ref();
        match usize::try_from(offset) {
            Ok(start) if start <= bytes.len() && bytes.len() - start >= buf.len() => {
                buf.copy_from_slice(&bytes[start..start + buf.len()]);
                Ok(())
            }
            _ => Err(on_eof),
        }
    }

    fn payload<'a>(
        &'a mut self,
        _scratch: &'a mut Vec<u8>,
        offset: u64,
        len: usize,
        on_eof: StoreError,
    ) -> Result<&'a [u8], StoreError> {
        let bytes = self.get_ref().as_ref();
        match usize::try_from(offset) {
            Ok(start) if start <= bytes.len() && bytes.len() - start >= len => {
                Ok(&bytes[start..start + len])
            }
            _ => Err(on_eof),
        }
    }
}

/// Streams chunks of a stored recording without ever holding more than
/// one decoded chunk in memory.
///
/// Construction reads the header, footer and seek index (28 bytes per
/// chunk); event payloads are only read and decoded as
/// [`ChunkReader::next_chunk`] is called. [`ChunkReader::seek_to_time`]
/// repositions the cursor using the index alone.
///
/// The source is any [`ChunkSource`]. [`ChunkReader::open`] gives the
/// streamed flavour (payloads are copied into an internal scratch
/// buffer before decode); [`ChunkReader::open_mapped`] and
/// [`ChunkReader::new`] over a [`Cursor`] give the resident flavour,
/// where payload bytes are borrowed in place and decode is the only
/// pass over them.
#[derive(Debug)]
pub struct ChunkReader<R> {
    source: R,
    header: StoreHeader,
    index: Vec<ChunkMeta>,
    total_events: u64,
    /// Index position of the next chunk to decode.
    next: usize,
    /// Decode target, reused across chunks.
    buffer: Vec<Event>,
    /// Raw payload scratch for streamed sources, reused across chunks.
    raw: Vec<u8>,
    /// After a [`ChunkReader::seek_to_time`], events of the first
    /// decoded chunk strictly before this instant are trimmed.
    resume_from: Option<Timestamp>,
}

impl ChunkReader<BufReader<File>> {
    /// Opens an `EBST` file for streamed chunked reading.
    ///
    /// # Errors
    ///
    /// Returns an I/O or format error (bad magic/version/footer, index
    /// CRC mismatch).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl ChunkReader<Cursor<Vec<u8>>> {
    /// Opens an `EBST` file memory-resident: the whole file is read
    /// once up front (the crate's `forbid(unsafe_code)` stand-in for
    /// `mmap`) and every chunk payload is thereafter borrowed in place
    /// — no per-chunk read or copy, decode is the only pass over the
    /// bytes. This is the fast replay path; prefer it whenever the
    /// recording fits in memory.
    ///
    /// # Errors
    ///
    /// Returns an I/O or format error (bad magic/version/footer, index
    /// CRC mismatch).
    pub fn open_mapped(path: &Path) -> Result<Self, StoreError> {
        Self::new(Cursor::new(std::fs::read(path)?))
    }
}

impl<R: ChunkSource> ChunkReader<R> {
    /// Wraps a [`ChunkSource`], reading header, footer and index.
    ///
    /// # Errors
    ///
    /// Returns an I/O or format error (bad magic/version/footer, index
    /// CRC mismatch).
    pub fn new(mut source: R) -> Result<Self, StoreError> {
        // Header.
        let mut fixed = [0u8; HEADER_FIXED_BYTES];
        source.read_at(0, &mut fixed, StoreError::TruncatedHeader)?;
        let magic: [u8; 4] = fixed[0..4].try_into().expect("len 4");
        if magic != MAGIC {
            return Err(StoreError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(fixed[4..6].try_into().expect("len 2"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let width = u16::from_le_bytes(fixed[6..8].try_into().expect("len 2"));
        let height = u16::from_le_bytes(fixed[8..10].try_into().expect("len 2"));
        if width == 0 || height == 0 {
            return Err(StoreError::TruncatedHeader);
        }
        let name_len = u16::from_le_bytes(fixed[10..12].try_into().expect("len 2"));
        let span_us = u64::from_le_bytes(fixed[12..20].try_into().expect("len 8"));
        let mut name_bytes = vec![0u8; usize::from(name_len)];
        source.read_at(HEADER_FIXED_BYTES as u64, &mut name_bytes, StoreError::TruncatedHeader)?;
        let name = String::from_utf8(name_bytes).map_err(|_| StoreError::BadName)?;
        let first_chunk_offset = (HEADER_FIXED_BYTES + usize::from(name_len)) as u64;

        // Footer.
        let file_len = source.source_len()?;
        if file_len < first_chunk_offset + FOOTER_BYTES as u64 {
            return Err(StoreError::BadFooter);
        }
        let mut footer = [0u8; FOOTER_BYTES];
        source.read_at(file_len - FOOTER_BYTES as u64, &mut footer, StoreError::BadFooter)?;
        if footer[24..28] != END_MAGIC {
            return Err(StoreError::BadFooter);
        }
        let total_events = u64::from_le_bytes(footer[0..8].try_into().expect("len 8"));
        let index_offset = u64::from_le_bytes(footer[8..16].try_into().expect("len 8"));
        let chunk_count = u32::from_le_bytes(footer[16..20].try_into().expect("len 4")) as usize;
        let index_crc = u32::from_le_bytes(footer[20..24].try_into().expect("len 4"));

        // Index. Checked arithmetic throughout: every field here is
        // attacker-controlled and must fail as BadFooter, not overflow.
        let index_bytes_len = chunk_count
            .checked_mul(INDEX_ENTRY_BYTES)
            .filter(|&len| (len as u64) < file_len)
            .ok_or(StoreError::BadFooter)?;
        let footer_offset = file_len - FOOTER_BYTES as u64;
        if index_offset < first_chunk_offset
            || index_offset.checked_add(index_bytes_len as u64) != Some(footer_offset)
        {
            return Err(StoreError::BadFooter);
        }
        let mut index_bytes = vec![0u8; index_bytes_len];
        source.read_at(index_offset, &mut index_bytes, StoreError::BadFooter)?;
        if crc32(&index_bytes) != index_crc {
            return Err(StoreError::IndexCrcMismatch);
        }
        let mut index = Vec::with_capacity(chunk_count);
        let mut indexed_events = 0u64;
        for (chunk, entry) in index_bytes.chunks_exact(INDEX_ENTRY_BYTES).enumerate() {
            let meta = ChunkMeta {
                offset: u64::from_le_bytes(entry[0..8].try_into().expect("len 8")),
                count: u32::from_le_bytes(entry[8..12].try_into().expect("len 4")),
                t_first: u64::from_le_bytes(entry[12..20].try_into().expect("len 8")),
                t_last: u64::from_le_bytes(entry[20..28].try_into().expect("len 8")),
            };
            let in_file = meta.offset >= first_chunk_offset && meta.offset < index_offset;
            let ordered = index.last().is_none_or(|prev: &ChunkMeta| {
                prev.offset < meta.offset && prev.t_last <= meta.t_first
            });
            if meta.count == 0 || meta.t_last < meta.t_first || !in_file || !ordered {
                return Err(StoreError::CorruptChunk { chunk, reason: "inconsistent index entry" });
            }
            indexed_events += u64::from(meta.count);
            index.push(meta);
        }
        if indexed_events != total_events {
            return Err(StoreError::BadFooter);
        }

        Ok(Self {
            source,
            header: StoreHeader { geometry: SensorGeometry::new(width, height), span_us, name },
            index,
            total_events,
            next: 0,
            buffer: Vec::new(),
            raw: Vec::new(),
            resume_from: None,
        })
    }

    /// The stored sensor geometry.
    #[must_use]
    pub fn geometry(&self) -> SensorGeometry {
        self.header.geometry
    }

    /// The nominal recording span from the header (0 when unknown).
    #[must_use]
    pub const fn span_us(&self) -> Micros {
        self.header.span_us
    }

    /// The stored stream name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.header.name
    }

    /// Total events in the recording (from the footer).
    #[must_use]
    pub const fn num_events(&self) -> u64 {
        self.total_events
    }

    /// Total chunks in the recording.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.index.len()
    }

    /// Index metadata of the next chunk [`ChunkReader::next_chunk`]
    /// would decode, or `None` at end of stream. Peeking costs no I/O —
    /// replay schedulers use it to pick the stream with the earliest
    /// pending chunk.
    #[must_use]
    pub fn peek_meta(&self) -> Option<&ChunkMeta> {
        self.index.get(self.next)
    }

    /// Decodes the next chunk into the reader's internal buffer and
    /// returns it, or `None` at end of stream. Only this one chunk is
    /// ever resident.
    ///
    /// # Errors
    ///
    /// Returns an I/O error or a corruption error (CRC mismatch, frame
    /// inconsistent with the index, out-of-bounds or disordered
    /// events).
    pub fn next_chunk(&mut self) -> Result<Option<&[Event]>, StoreError> {
        let mut buffer = std::mem::take(&mut self.buffer);
        let got = self.next_chunk_into(&mut buffer);
        self.buffer = buffer;
        match got? {
            true => Ok(Some(&self.buffer)),
            false => Ok(None),
        }
    }

    /// Like [`ChunkReader::next_chunk`], but decodes into the caller's
    /// buffer (cleared first) instead of the reader's internal one,
    /// returning whether a chunk was decoded. This is the
    /// move-don't-copy path: replay decodes straight into the `Vec`
    /// that is then handed to the engine by value, so no event is ever
    /// memcpy'd after decode. At end of stream `out` is left untouched.
    ///
    /// # Errors
    ///
    /// Returns an I/O error or a corruption error (CRC mismatch, frame
    /// inconsistent with the index, out-of-bounds or disordered
    /// events).
    pub fn next_chunk_into(&mut self, out: &mut Vec<Event>) -> Result<bool, StoreError> {
        let Some(meta) = self.index.get(self.next).copied() else {
            return Ok(false);
        };
        let chunk = self.next;
        let corrupt = |reason| StoreError::CorruptChunk { chunk, reason };
        let mut frame = [0u8; CHUNK_FRAME_BYTES];
        self.source.read_at(meta.offset, &mut frame, corrupt("truncated chunk frame"))?;
        let count = u32::from_le_bytes(frame[0..4].try_into().expect("len 4"));
        let t_first = u64::from_le_bytes(frame[4..12].try_into().expect("len 8"));
        let t_last = u64::from_le_bytes(frame[12..20].try_into().expect("len 8"));
        let payload_len = u32::from_le_bytes(frame[20..24].try_into().expect("len 4")) as usize;
        let payload_crc = u32::from_le_bytes(frame[24..28].try_into().expect("len 4"));
        if count != meta.count || t_first != meta.t_first || t_last != meta.t_last {
            return Err(corrupt("chunk frame disagrees with index"));
        }
        // Both bounds hold before the payload is read into scratch or
        // decoded: a chunk costs at most MAX_CHUNK_EVENTS events and the
        // payload its widest events would take.
        if count as usize > MAX_CHUNK_EVENTS {
            return Err(corrupt("event count exceeds MAX_CHUNK_EVENTS"));
        }
        if payload_len > crate::format::payload_len(count as usize, MAX_EVENT_BITS) {
            return Err(corrupt("payload length exceeds event bound"));
        }
        // Resident sources lend the payload in place; streamed ones
        // copy it into `raw`. Either way CRC and decode make one pass
        // each over the same bytes, straight into `out`.
        let payload = self.source.payload(
            &mut self.raw,
            meta.offset + CHUNK_FRAME_BYTES as u64,
            payload_len,
            corrupt("truncated chunk payload"),
        )?;
        if crc32(payload) != payload_crc {
            return Err(StoreError::ChunkCrcMismatch { chunk });
        }
        decode_chunk_payload(out, payload, chunk, self.header.geometry, count, t_first, t_last)?;
        if let Some(resume) = self.resume_from.take() {
            let skip = out.partition_point(|e| e.t < resume);
            out.drain(..skip);
        }
        self.next += 1;
        Ok(true)
    }

    /// Repositions the cursor so that the next decoded events are
    /// exactly those with `t >= instant` — reading from here yields the
    /// same suffix a fresh full read (filtered to `t >= instant`)
    /// would. Costs only an index lookup; no payload is touched.
    pub fn seek_to_time(&mut self, instant: Timestamp) {
        self.next = self.index.partition_point(|meta| meta.t_last < instant);
        self.resume_from = Some(instant);
    }

    /// Rewinds to the first chunk.
    pub fn rewind(&mut self) {
        self.next = 0;
        self.resume_from = None;
    }

    /// Reads the remaining chunks into one in-memory [`Recording`] —
    /// the lossless interop path back to the flat `EAER` codec's type.
    /// Unlike chunked reading this *is* memory-resident; it exists for
    /// interop and tests, not for production replay.
    ///
    /// # Errors
    ///
    /// Returns any error [`ChunkReader::next_chunk`] can.
    pub fn read_recording(&mut self) -> Result<Recording, StoreError> {
        // Grow as chunks actually decode — the footer's event count is
        // untrusted input and must not drive a pre-allocation.
        let mut events = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            events.extend_from_slice(chunk);
        }
        Ok(Recording { geometry: self.header.geometry, events })
    }
}

/// `read_exact` with a format-specific error for truncation.
fn read_exact_or<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    on_eof: StoreError,
) -> Result<(), StoreError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            on_eof
        } else {
            StoreError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{RecordingWriter, StoreOptions};

    fn events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let x = (i * 7 % 240) as u16;
                let y = (i * 13 % 180) as u16;
                let t = (i as u64) * 97;
                if i % 3 == 0 {
                    Event::off(x, y, t)
                } else {
                    Event::on(x, y, t)
                }
            })
            .collect()
    }

    fn store(events: &[Event], chunk_events: usize, span: u64) -> Vec<u8> {
        let mut w = RecordingWriter::new(
            Vec::new(),
            SensorGeometry::davis240(),
            "unit",
            span,
            StoreOptions { chunk_events },
        )
        .unwrap();
        w.push_events(events).unwrap();
        w.finish().unwrap().0
    }

    #[test]
    fn round_trips_across_chunk_sizes() {
        let original = events(1_000);
        for chunk_events in [1usize, 7, 100, 10_000] {
            let bytes = store(&original, chunk_events, 123);
            let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(reader.geometry(), SensorGeometry::davis240());
            assert_eq!(reader.span_us(), 123);
            assert_eq!(reader.name(), "unit");
            assert_eq!(reader.num_events(), 1_000);
            assert_eq!(reader.num_chunks(), 1_000usize.div_ceil(chunk_events));
            let rec = reader.read_recording().unwrap();
            assert_eq!(rec.events, original, "chunk size {chunk_events}");
        }
    }

    #[test]
    fn streamed_and_resident_sources_agree() {
        let original = events(700);
        let bytes = store(&original, 53, 9);
        // Streamed: BufReader over an in-memory Cursor as the raw
        // Read+Seek, exactly the file path minus the filesystem.
        let mut streamed = ChunkReader::new(BufReader::new(Cursor::new(bytes.clone()))).unwrap();
        // Resident: Cursor directly, payloads borrowed in place.
        let mut resident = ChunkReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(
            streamed.read_recording().unwrap().events,
            resident.read_recording().unwrap().events
        );
    }

    #[test]
    fn open_mapped_matches_open() {
        let original = events(300);
        let bytes = store(&original, 41, 0);
        let path = std::env::temp_dir()
            .join(format!("ebbiot_store_test_mapped_{}.ebst", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let streamed = ChunkReader::open(&path).unwrap().read_recording().unwrap();
        let mapped = ChunkReader::open_mapped(&path).unwrap().read_recording().unwrap();
        assert_eq!(streamed, mapped);
        assert_eq!(mapped.events, original);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn next_chunk_into_moves_decoded_chunks() {
        let original = events(500);
        let bytes = store(&original, 64, 0);
        let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
        let mut all = Vec::new();
        let mut chunk = Vec::new();
        while reader.next_chunk_into(&mut chunk).unwrap() {
            assert!(!chunk.is_empty() && chunk.len() <= 64);
            all.extend_from_slice(&chunk);
        }
        assert_eq!(all, original);
        // At end of stream the caller's buffer is left untouched.
        assert!(!chunk.is_empty());
        assert!(!reader.next_chunk_into(&mut chunk).unwrap());
    }

    #[test]
    fn chunked_reading_holds_one_chunk_at_a_time() {
        let original = events(500);
        let bytes = store(&original, 64, 0);
        let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
        let mut total = 0;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            assert!(!chunk.is_empty() && chunk.len() <= 64);
            total += chunk.len();
        }
        assert_eq!(total, 500);
        assert!(reader.next_chunk().unwrap().is_none(), "stays at end");
    }

    #[test]
    fn seek_to_time_matches_filtered_fresh_read() {
        let original = events(800);
        let bytes = store(&original, 50, 0);
        let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
        for instant in [0u64, 1, 96, 97, 40_000, 77_600, 100_000] {
            reader.seek_to_time(instant);
            let resumed = reader.read_recording().unwrap().events;
            let expected: Vec<Event> =
                original.iter().copied().filter(|e| e.t >= instant).collect();
            assert_eq!(resumed, expected, "seek to t={instant}");
        }
    }

    #[test]
    fn rewind_restarts_from_the_top() {
        let original = events(100);
        let bytes = store(&original, 16, 0);
        let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
        reader.seek_to_time(5_000);
        let _ = reader.read_recording().unwrap();
        reader.rewind();
        assert_eq!(reader.read_recording().unwrap().events, original);
    }

    #[test]
    fn empty_store_reads_back_empty() {
        let bytes = store(&[], 16, 42);
        let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.num_events(), 0);
        assert_eq!(reader.span_us(), 42);
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn rejects_bad_magic_version_and_footer() {
        let good = store(&events(10), 4, 0);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(ChunkReader::new(Cursor::new(bad)).unwrap_err(), StoreError::BadMagic(_)));

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            ChunkReader::new(Cursor::new(bad)).unwrap_err(),
            StoreError::UnsupportedVersion(9)
        ));

        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] = b'?';
        assert!(matches!(ChunkReader::new(Cursor::new(bad)).unwrap_err(), StoreError::BadFooter));

        let bad = good[..good.len() - 3].to_vec();
        assert!(matches!(ChunkReader::new(Cursor::new(bad)).unwrap_err(), StoreError::BadFooter));

        assert!(matches!(
            ChunkReader::new(Cursor::new(b"EB".to_vec())).unwrap_err(),
            StoreError::TruncatedHeader
        ));
    }

    #[test]
    fn streamed_source_rejects_the_same_corruption() {
        let good = store(&events(10), 4, 0);
        let via = |bytes: Vec<u8>| ChunkReader::new(BufReader::new(Cursor::new(bytes)));

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(via(bad).unwrap_err(), StoreError::BadMagic(_)));
        let bad = good[..good.len() - 3].to_vec();
        assert!(matches!(via(bad).unwrap_err(), StoreError::BadFooter));
        assert!(matches!(via(b"EB".to_vec()).unwrap_err(), StoreError::TruncatedHeader));
    }

    #[test]
    fn corrupt_payload_fails_its_crc() {
        let original = events(100);
        let bytes = store(&original, 100, 0);
        // Flip one byte in the middle of the single chunk's payload.
        let mut bad = bytes.clone();
        let payload_mid = HEADER_FIXED_BYTES + 4 + CHUNK_FRAME_BYTES + 20;
        bad[payload_mid] ^= 0xFF;
        let mut reader = ChunkReader::new(Cursor::new(bad)).unwrap();
        assert!(matches!(
            reader.next_chunk().unwrap_err(),
            StoreError::ChunkCrcMismatch { chunk: 0 }
        ));
    }

    #[test]
    fn corrupt_index_fails_its_crc() {
        let bytes = store(&events(100), 10, 0);
        let mut bad = bytes.clone();
        let n = bad.len();
        // Index sits right before the 28-byte footer.
        bad[n - FOOTER_BYTES - 5] ^= 0x01;
        assert!(matches!(
            ChunkReader::new(Cursor::new(bad)).unwrap_err(),
            StoreError::IndexCrcMismatch
        ));
    }
}
