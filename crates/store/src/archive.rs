//! [`FleetArchiver`]: a thread-safe archival tee that grows a fleet
//! directory one stream at a time.
//!
//! [`FleetStore::write`](crate::FleetStore::write) spools a whole fleet
//! in one shot; the archiver is its *streaming* counterpart for sources
//! whose cameras arrive and leave independently — the `ebbiot_server`
//! ingestion sessions tee every accepted event chunk through one of
//! these. Each [`ArchiveStream`] writes a standalone `EBST` file; when
//! it finishes, its entry is appended and the manifest rewritten, so at
//! any instant the directory is a valid
//! [`FleetStore`](crate::FleetStore) of the sessions completed so far.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ebbiot_events::{Event, Micros, SensorGeometry};

use crate::fleet::{write_manifest, FleetEntry};
use crate::writer::{RecordingWriter, StoreOptions};
use crate::StoreError;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct ArchiverShared {
    dir: PathBuf,
    options: StoreOptions,
    state: Mutex<ArchiverState>,
}

#[derive(Debug, Default)]
struct ArchiverState {
    /// Next camera file number (`cam<k>.ebst`); grows monotonically so
    /// concurrent sessions never collide on a file name.
    next: usize,
    /// Entries of *completed* streams, in completion order.
    entries: Vec<FleetEntry>,
}

/// Grows a fleet directory one concurrently written stream at a time.
///
/// Clone-cheap (`Arc` inside) and `Send + Sync`: every ingestion
/// session holds a handle and opens its own [`ArchiveStream`].
#[derive(Debug, Clone)]
pub struct FleetArchiver {
    shared: Arc<ArchiverShared>,
}

impl FleetArchiver {
    /// Creates (or reuses) `dir` and writes an empty manifest, so the
    /// directory opens as a zero-camera [`FleetStore`](crate::FleetStore)
    /// even before the first stream completes.
    ///
    /// # Errors
    ///
    /// Returns an I/O error creating the directory or manifest.
    pub fn create(dir: &Path, options: StoreOptions) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        write_manifest(dir, &[])?;
        Ok(Self {
            shared: Arc::new(ArchiverShared {
                dir: dir.to_path_buf(),
                options,
                state: Mutex::new(ArchiverState::default()),
            }),
        })
    }

    /// The archive directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Opens a new per-stream `EBST` writer (`cam<k>.ebst`, `k`
    /// allocated atomically). The stream only appears in the manifest
    /// once [`ArchiveStream::finish`] is called.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadManifest`] for names containing line
    /// breaks (they could never be reopened), or the writer's creation
    /// error.
    pub fn begin(
        &self,
        name: &str,
        geometry: SensorGeometry,
        span_us: Micros,
    ) -> Result<ArchiveStream, StoreError> {
        if name.contains(['\n', '\r']) {
            return Err(StoreError::BadManifest { reason: "stream name contains a line break" });
        }
        let file = {
            let mut state = lock(&self.shared.state);
            let k = state.next;
            state.next += 1;
            format!("cam{k:02}.ebst")
        };
        let writer = RecordingWriter::create(
            &self.shared.dir.join(&file),
            geometry,
            name,
            span_us,
            self.shared.options,
        )?;
        Ok(ArchiveStream {
            writer: Some(writer),
            shared: Arc::clone(&self.shared),
            file,
            name: name.to_string(),
            geometry,
        })
    }

    /// Entries of the streams completed so far, in completion order —
    /// what the manifest currently lists.
    #[must_use]
    pub fn entries(&self) -> Vec<FleetEntry> {
        lock(&self.shared.state).entries.clone()
    }

    /// Number of completed streams.
    #[must_use]
    pub fn cameras(&self) -> usize {
        lock(&self.shared.state).entries.len()
    }
}

/// One stream's append-only archive file, open for writing.
///
/// Dropping the stream without [`ArchiveStream::finish`] leaves the
/// partial `cam<k>.ebst` behind but never lists it in the manifest, so
/// an aborted session cannot corrupt the fleet.
#[derive(Debug)]
pub struct ArchiveStream {
    writer: Option<RecordingWriter<BufWriter<File>>>,
    shared: Arc<ArchiverShared>,
    file: String,
    name: String,
    geometry: SensorGeometry,
}

impl ArchiveStream {
    /// The file name this stream writes inside the archive directory.
    #[must_use]
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Appends a time-ordered slice of events (see
    /// [`RecordingWriter::push_events`]).
    ///
    /// # Errors
    ///
    /// Returns the writer's validation or I/O error.
    pub fn push_events(&mut self, events: &[Event]) -> Result<(), StoreError> {
        self.writer.as_mut().expect("archive stream used after finish").push_events(events)
    }

    /// Seals the stream's `EBST` file with the **authoritative** span
    /// (patching the header, which was written with `begin`'s
    /// provisional hint — network sessions only learn the true span
    /// from their FINISH frame), appends its entry and rewrites the
    /// manifest. Returns the new entry. Pass the `begin` hint back when
    /// no better span exists.
    ///
    /// # Errors
    ///
    /// Returns the writer's or the manifest's I/O error.
    pub fn finish(mut self, span_us: Micros) -> Result<FleetEntry, StoreError> {
        let writer = self.writer.take().expect("archive stream used after finish");
        let (_, summary) = writer.finish_with_span(span_us)?;
        let entry = FleetEntry {
            file: self.file.clone(),
            name: self.name.clone(),
            geometry: self.geometry,
            span_us,
            events: summary.events,
            bytes: summary.bytes,
        };
        let mut state = lock(&self.shared.state);
        state.entries.push(entry.clone());
        write_manifest(&self.shared.dir, &state.entries)?;
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetStore;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ebbiot_archive_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn events(n: usize) -> Vec<Event> {
        (0..n).map(|i| Event::on((i % 64) as u16, (i % 48) as u16, i as u64 * 11)).collect()
    }

    #[test]
    fn archive_grows_one_stream_at_a_time_and_opens_as_a_fleet() {
        let dir = temp_dir("grow");
        let geometry = SensorGeometry::new(64, 48);
        let archiver = FleetArchiver::create(&dir, StoreOptions { chunk_events: 32 }).unwrap();
        assert_eq!(FleetStore::open(&dir).unwrap().cameras(), 0, "empty manifest is valid");

        let recorded = events(100);
        let mut a = archiver.begin("north", geometry, 1_100).unwrap();
        let mut b = archiver.begin("south", geometry, 1_100).unwrap();
        assert_ne!(a.file(), b.file(), "concurrent streams get distinct files");
        a.push_events(&recorded).unwrap();
        b.push_events(&recorded[..40]).unwrap();
        let entry = a.finish(2_200).unwrap();
        assert_eq!(entry.events, 100);

        // After the first finish the manifest lists exactly one camera;
        // the still-open stream is invisible.
        let partial = FleetStore::open(&dir).unwrap();
        assert_eq!(partial.cameras(), 1);
        assert_eq!(partial.entries()[0].name, "north");
        assert_eq!(partial.entries()[0].span_us, 2_200, "manifest carries the FINISH span");
        assert_eq!(
            partial.reader(0).unwrap().span_us(),
            2_200,
            "header span was patched from the 1_100 hint to the authoritative span"
        );

        b.push_events(&recorded[40..]).unwrap();
        b.finish(1_100).unwrap();
        let full = FleetStore::open(&dir).unwrap();
        assert_eq!(full.cameras(), 2);
        assert_eq!(full.total_events(), 200);
        for k in 0..2 {
            let events = full.reader(k).unwrap().read_recording().unwrap();
            assert_eq!(events, recorded, "camera {k} round-trips");
        }
        assert_eq!(archiver.cameras(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_streams_never_reach_the_manifest() {
        let dir = temp_dir("abort");
        let geometry = SensorGeometry::new(16, 16);
        let archiver = FleetArchiver::create(&dir, StoreOptions::default()).unwrap();
        let mut dropped = archiver.begin("gone", geometry, 0).unwrap();
        dropped.push_events(&[Event::on(1, 1, 5)]).unwrap();
        drop(dropped);
        let mut kept = archiver.begin("kept", geometry, 0).unwrap();
        kept.push_events(&[Event::on(2, 2, 9)]).unwrap();
        kept.finish(10).unwrap();

        let store = FleetStore::open(&dir).unwrap();
        assert_eq!(store.cameras(), 1);
        assert_eq!(store.entries()[0].name, "kept");
        assert_eq!(store.entries()[0].file, "cam01.ebst", "aborted stream kept its slot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn archiver_rejects_line_break_names_and_bad_events() {
        let dir = temp_dir("reject");
        let geometry = SensorGeometry::new(8, 8);
        let archiver = FleetArchiver::create(&dir, StoreOptions::default()).unwrap();
        assert!(matches!(archiver.begin("a\nb", geometry, 0), Err(StoreError::BadManifest { .. })));
        let mut s = archiver.begin("ok", geometry, 0).unwrap();
        assert!(matches!(
            s.push_events(&[Event::on(9, 0, 0)]),
            Err(StoreError::EventOutOfBounds { x: 9, y: 0 })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
