//! [`RecordingWriter`]: streams events into a chunked `EBST` file.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use ebbiot_events::{Event, Micros, SensorGeometry, Timestamp};

use crate::format::{
    crc32, encode_chunk_payload, ChunkMeta, StoreError, END_MAGIC, MAGIC, MAX_CHUNK_EVENTS, VERSION,
};

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Events per chunk — the seek granularity and the most a reader
    /// ever holds in memory per stream. Clamped to
    /// `1..=`[`MAX_CHUNK_EVENTS`].
    pub chunk_events: usize,
}

impl StoreOptions {
    /// Overrides the chunk size, builder style.
    #[must_use]
    pub const fn with_chunk_events(mut self, chunk_events: usize) -> Self {
        self.chunk_events = chunk_events;
        self
    }
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { chunk_events: 16_384 }
    }
}

/// What a finished writer produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Total events written.
    pub events: u64,
    /// Chunks written.
    pub chunks: usize,
    /// Total file size in bytes (header + chunks + index + footer).
    pub bytes: u64,
}

impl StoreSummary {
    /// Mean encoded bytes per event (whole file over event count).
    #[must_use]
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            self.bytes as f64
        } else {
            self.bytes as f64 / self.events as f64
        }
    }
}

/// Streams time-ordered events into an `EBST` sink, framing them into
/// bit-packed chunks and appending the seek index on
/// [`RecordingWriter::finish`].
///
/// The writer is append-only (`W: Write` suffices — no seeking): the
/// footer carries the index offset, so readers find the index from the
/// end of the file.
///
/// ```
/// use ebbiot_events::{Event, SensorGeometry};
/// use ebbiot_store::{RecordingWriter, StoreOptions};
///
/// let geometry = SensorGeometry::davis240();
/// let options = StoreOptions::default().with_chunk_events(100);
/// let mut writer = RecordingWriter::new(Vec::new(), geometry, "cam00", 66_000, options)?;
/// writer.push_events(&[Event::on(10, 20, 0), Event::off(11, 20, 900)])?;
/// let (bytes, summary) = writer.finish()?;
/// assert_eq!(summary.events, 2);
/// assert_eq!(&bytes[..4], b"EBST");
/// # Ok::<(), ebbiot_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct RecordingWriter<W: Write> {
    sink: W,
    geometry: SensorGeometry,
    options: StoreOptions,
    /// Bytes written so far == offset of the next chunk.
    offset: u64,
    pending: Vec<Event>,
    payload: Vec<u8>,
    index: Vec<ChunkMeta>,
    last_t: Option<Timestamp>,
    total_events: u64,
}

impl RecordingWriter<BufWriter<File>> {
    /// Creates (truncating) an `EBST` file at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be created or the name
    /// does not fit the header.
    pub fn create(
        path: &Path,
        geometry: SensorGeometry,
        name: &str,
        span_us: Micros,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let file = BufWriter::new(File::create(path)?);
        Self::new(file, geometry, name, span_us, options)
    }
}

impl<W: Write> RecordingWriter<W> {
    /// Wraps `sink`, immediately writing the stream header.
    ///
    /// `span_us` is the nominal recording span replay hands to
    /// `finish` (0 when unknown).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NameTooLong`] for names over 65 535 bytes,
    /// or an I/O error from writing the header.
    pub fn new(
        mut sink: W,
        geometry: SensorGeometry,
        name: &str,
        span_us: Micros,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let name_len =
            u16::try_from(name.len()).map_err(|_| StoreError::NameTooLong(name.len()))?;
        sink.write_all(&MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&geometry.width().to_le_bytes())?;
        sink.write_all(&geometry.height().to_le_bytes())?;
        sink.write_all(&name_len.to_le_bytes())?;
        sink.write_all(&span_us.to_le_bytes())?;
        sink.write_all(name.as_bytes())?;
        Ok(Self {
            sink,
            geometry,
            options: StoreOptions { chunk_events: options.chunk_events.clamp(1, MAX_CHUNK_EVENTS) },
            offset: (crate::format::HEADER_FIXED_BYTES + name.len()) as u64,
            pending: Vec::new(),
            payload: Vec::new(),
            index: Vec::new(),
            last_t: None,
            total_events: 0,
        })
    }

    /// The geometry events are validated against.
    #[must_use]
    pub const fn geometry(&self) -> SensorGeometry {
        self.geometry
    }

    /// Appends a time-ordered slice of events, flushing full chunks to
    /// the sink as they fill. At most one chunk of events is ever
    /// buffered.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotTimeOrdered`] when `events` breaks
    /// timestamp order (within the slice or against earlier pushes),
    /// [`StoreError::EventOutOfBounds`] for pixels off the array, or an
    /// I/O error from the sink.
    pub fn push_events(&mut self, events: &[Event]) -> Result<(), StoreError> {
        for e in events {
            if self.last_t.is_some_and(|t| e.t < t) {
                return Err(StoreError::NotTimeOrdered);
            }
            if !self.geometry.contains_event(e) {
                return Err(StoreError::EventOutOfBounds { x: e.x, y: e.y });
            }
            self.last_t = Some(e.t);
            self.pending.push(*e);
            if self.pending.len() >= self.options.chunk_events {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    /// Writes the buffered chunk (if any) as a frame + payload.
    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        encode_chunk_payload(&mut self.payload, &self.pending);
        let meta = ChunkMeta {
            offset: self.offset,
            count: self.pending.len() as u32,
            t_first: self.pending[0].t,
            t_last: self.pending[self.pending.len() - 1].t,
        };
        self.sink.write_all(&meta.count.to_le_bytes())?;
        self.sink.write_all(&meta.t_first.to_le_bytes())?;
        self.sink.write_all(&meta.t_last.to_le_bytes())?;
        self.sink.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.sink.write_all(&self.payload)?;
        self.offset += (crate::format::CHUNK_FRAME_BYTES + self.payload.len()) as u64;
        self.total_events += u64::from(meta.count);
        self.index.push(meta);
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the seek index and the
    /// footer, flushes the sink and returns it with a summary.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the sink.
    pub fn finish(self) -> Result<(W, StoreSummary), StoreError> {
        let mut this = self;
        let summary = this.write_tail()?;
        Ok((this.sink, summary))
    }

    fn write_tail(&mut self) -> Result<StoreSummary, StoreError> {
        self.flush_chunk()?;
        let index_offset = self.offset;
        let mut index_bytes =
            Vec::with_capacity(self.index.len() * crate::format::INDEX_ENTRY_BYTES);
        for meta in &self.index {
            index_bytes.extend_from_slice(&meta.offset.to_le_bytes());
            index_bytes.extend_from_slice(&meta.count.to_le_bytes());
            index_bytes.extend_from_slice(&meta.t_first.to_le_bytes());
            index_bytes.extend_from_slice(&meta.t_last.to_le_bytes());
        }
        self.sink.write_all(&index_bytes)?;
        self.sink.write_all(&self.total_events.to_le_bytes())?;
        self.sink.write_all(&index_offset.to_le_bytes())?;
        self.sink.write_all(&(self.index.len() as u32).to_le_bytes())?;
        self.sink.write_all(&crc32(&index_bytes).to_le_bytes())?;
        self.sink.write_all(&END_MAGIC)?;
        self.sink.flush()?;
        let bytes = index_offset + index_bytes.len() as u64 + crate::format::FOOTER_BYTES as u64;
        let summary = StoreSummary { events: self.total_events, chunks: self.index.len(), bytes };
        Ok(summary)
    }
}

impl<W: Write + Seek> RecordingWriter<W> {
    /// Like [`RecordingWriter::finish`], but first patches the header's
    /// `span_us` field to `span_us` — for sources that only learn the
    /// authoritative span at the end of the stream (a network session's
    /// FINISH frame), while the append-only header was written with a
    /// provisional hint. Requires a seekable sink; plain `finish` never
    /// seeks.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the sink.
    pub fn finish_with_span(self, span_us: Micros) -> Result<(W, StoreSummary), StoreError> {
        let mut this = self;
        let summary = this.write_tail()?;
        // span_us sits at fixed offset 12 (after magic, version, width,
        // height, name_len — see the crate-level header spec).
        this.sink.seek(SeekFrom::Start(12))?;
        this.sink.write_all(&span_us.to_le_bytes())?;
        this.sink.seek(SeekFrom::End(0))?;
        this.sink.flush()?;
        Ok((this.sink, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_frames_chunks_and_counts_bytes() {
        let geom = SensorGeometry::davis240();
        let mut w = RecordingWriter::new(
            Vec::new(),
            geom,
            "cam",
            500_000,
            StoreOptions { chunk_events: 2 },
        )
        .unwrap();
        let events = vec![
            Event::on(1, 1, 0),
            Event::off(2, 1, 10),
            Event::on(3, 1, 20),
            Event::on(4, 1, 30),
        ];
        w.push_events(&events).unwrap();
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.events, 4);
        assert_eq!(summary.chunks, 2);
        assert_eq!(summary.bytes, bytes.len() as u64, "offset accounting matches the sink");
        assert_eq!(&bytes[..4], b"EBST");
        assert_eq!(&bytes[bytes.len() - 4..], b"EBSX");
    }

    #[test]
    fn writer_rejects_disorder_and_out_of_bounds() {
        let geom = SensorGeometry::new(8, 8);
        let mut w = RecordingWriter::new(Vec::new(), geom, "", 0, StoreOptions::default()).unwrap();
        w.push_events(&[Event::on(1, 1, 100)]).unwrap();
        assert!(matches!(w.push_events(&[Event::on(1, 1, 50)]), Err(StoreError::NotTimeOrdered)));
        assert!(matches!(
            w.push_events(&[Event::on(8, 0, 200)]),
            Err(StoreError::EventOutOfBounds { x: 8, y: 0 })
        ));
    }

    #[test]
    fn empty_recording_is_header_plus_footer() {
        let w = RecordingWriter::new(
            Vec::new(),
            SensorGeometry::new(4, 4),
            "e",
            0,
            StoreOptions::default(),
        )
        .unwrap();
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.chunks, 0);
        assert_eq!(
            bytes.len(),
            crate::format::HEADER_FIXED_BYTES + 1 + crate::format::FOOTER_BYTES
        );
    }

    #[test]
    fn chunks_never_exceed_max_chunk_events() {
        let geom = SensorGeometry::new(4, 4);
        let options = StoreOptions::default().with_chunk_events(usize::MAX);
        let mut w = RecordingWriter::new(Vec::new(), geom, "big", 0, options).unwrap();
        let events = vec![Event::on(1, 1, 7); MAX_CHUNK_EVENTS + 1];
        w.push_events(&events).unwrap();
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.chunks, 2, "one full chunk and one of a single event");
        let first = crate::format::HEADER_FIXED_BYTES + "big".len();
        let count = u32::from_le_bytes(bytes[first..first + 4].try_into().unwrap());
        assert_eq!(count as usize, MAX_CHUNK_EVENTS);
    }

    #[test]
    fn long_names_are_rejected() {
        let name = "x".repeat(70_000);
        let err = RecordingWriter::new(
            Vec::new(),
            SensorGeometry::new(4, 4),
            &name,
            0,
            StoreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::NameTooLong(70_000)));
    }
}
