//! [`FleetStore`]: one `EBST` file per camera plus a manifest, so a
//! simulated (or captured) fleet is written once and replayed many
//! times.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::path::{Path, PathBuf};

use ebbiot_events::{Event, Micros, SensorGeometry};

use crate::reader::ChunkReader;
use crate::writer::{RecordingWriter, StoreOptions};
use crate::StoreError;

/// Name of the manifest file inside a fleet directory.
pub const MANIFEST_FILE: &str = "manifest.txt";
/// First line of a valid manifest.
pub const MANIFEST_HEADER: &str = "EBST-FLEET 1";

/// One camera's input to [`FleetStore::write`].
#[derive(Debug, Clone, Copy)]
pub struct StoredCamera<'a> {
    /// Stream name recorded in the per-camera header and manifest.
    pub name: &'a str,
    /// Sensor geometry.
    pub geometry: SensorGeometry,
    /// Nominal recording span (what replay hands to `finish`).
    pub span_us: Micros,
    /// Time-ordered events.
    pub events: &'a [Event],
}

/// One camera's entry in a fleet manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEntry {
    /// File name inside the fleet directory (e.g. `cam03.ebst`).
    pub file: String,
    /// Stream name.
    pub name: String,
    /// Sensor geometry.
    pub geometry: SensorGeometry,
    /// Nominal recording span in microseconds.
    pub span_us: Micros,
    /// Events in the camera's file.
    pub events: u64,
    /// Size of the camera's file in bytes.
    pub bytes: u64,
}

/// (Re)writes a fleet manifest for `entries` into `dir`. The manifest
/// is small and rewritten whole, so callers growing a fleet one camera
/// at a time (the [`FleetArchiver`](crate::FleetArchiver) tee) always
/// leave a complete, openable manifest behind.
pub(crate) fn write_manifest(dir: &Path, entries: &[FleetEntry]) -> Result<(), StoreError> {
    let mut out = File::create(dir.join(MANIFEST_FILE))?;
    writeln!(out, "{MANIFEST_HEADER}")?;
    for e in entries {
        writeln!(
            out,
            "camera {} {} {} {} {} {} {}",
            e.file,
            e.geometry.width(),
            e.geometry.height(),
            e.span_us,
            e.events,
            e.bytes,
            e.name
        )?;
    }
    out.flush()?;
    Ok(())
}

/// A spooled fleet on disk: a directory of per-camera `EBST` files
/// described by a [`MANIFEST_FILE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStore {
    dir: PathBuf,
    entries: Vec<FleetEntry>,
}

impl FleetStore {
    /// Spools `cameras` into `dir` (created if absent): camera `k`
    /// becomes `cam<k>.ebst`, then the manifest is written last so a
    /// readable manifest implies complete camera files.
    ///
    /// # Errors
    ///
    /// Returns the first I/O or validation error (disordered or
    /// out-of-bounds events).
    pub fn write(
        dir: &Path,
        cameras: &[StoredCamera<'_>],
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        let mut entries = Vec::with_capacity(cameras.len());
        for (k, camera) in cameras.iter().enumerate() {
            // The manifest is line-oriented with the name as the raw
            // line remainder: line breaks can never round-trip, so
            // refuse them up front instead of writing a store that can
            // never be reopened.
            if camera.name.contains(['\n', '\r']) {
                return Err(StoreError::BadManifest {
                    reason: "stream name contains a line break",
                });
            }
            let file = format!("cam{k:02}.ebst");
            let mut writer = RecordingWriter::create(
                &dir.join(&file),
                camera.geometry,
                camera.name,
                camera.span_us,
                options,
            )?;
            writer.push_events(camera.events)?;
            let (_, summary) = writer.finish()?;
            entries.push(FleetEntry {
                file,
                name: camera.name.to_string(),
                geometry: camera.geometry,
                span_us: camera.span_us,
                events: summary.events,
                bytes: summary.bytes,
            });
        }
        let store = Self { dir: dir.to_path_buf(), entries };
        store.write_manifest()?;
        Ok(store)
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        write_manifest(&self.dir, &self.entries)
    }

    /// Opens a spooled fleet by reading its manifest.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadFooter`]-style corruption errors for a
    /// missing or malformed manifest, or an I/O error.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let malformed = |reason| StoreError::BadManifest { reason };
        let manifest = BufReader::new(File::open(dir.join(MANIFEST_FILE))?);
        let mut lines = manifest.lines();
        let header = lines.next().transpose()?.ok_or(malformed("empty manifest"))?;
        if header.trim() != MANIFEST_HEADER {
            return Err(malformed("manifest header mismatch"));
        }
        let mut entries = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            // Fields are single-space separated; the 8th is the name,
            // taken as the raw line remainder so internal spaces
            // survive the round-trip.
            let mut fields = line.splitn(8, ' ');
            if fields.next() != Some("camera") {
                return Err(malformed("manifest line does not start with `camera`"));
            }
            let mut next = || fields.next().ok_or(malformed("short manifest line"));
            let file = next()?.to_string();
            let width: u16 = next()?.parse().map_err(|_| malformed("bad manifest width"))?;
            let height: u16 = next()?.parse().map_err(|_| malformed("bad manifest height"))?;
            let span_us: u64 = next()?.parse().map_err(|_| malformed("bad manifest span"))?;
            let events: u64 = next()?.parse().map_err(|_| malformed("bad manifest event count"))?;
            let bytes: u64 = next()?.parse().map_err(|_| malformed("bad manifest byte count"))?;
            if width == 0 || height == 0 {
                return Err(malformed("zero manifest geometry"));
            }
            // Absent for empty names (trailing space is not written).
            let name = fields.next().unwrap_or("").to_string();
            entries.push(FleetEntry {
                file,
                name,
                geometry: SensorGeometry::new(width, height),
                span_us,
                events,
                bytes,
            });
        }
        Ok(Self { dir: dir.to_path_buf(), entries })
    }

    /// The fleet directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Per-camera manifest entries, in camera order.
    #[must_use]
    pub fn entries(&self) -> &[FleetEntry] {
        &self.entries
    }

    /// Number of cameras.
    #[must_use]
    pub fn cameras(&self) -> usize {
        self.entries.len()
    }

    /// Total events across cameras (from the manifest).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.entries.iter().map(|e| e.events).sum()
    }

    /// Total `EBST` bytes across cameras (from the manifest).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Opens one camera's chunked reader.
    ///
    /// # Errors
    ///
    /// Returns an I/O or format error opening the camera file.
    ///
    /// # Panics
    ///
    /// Panics when `camera` is out of range.
    pub fn reader(&self, camera: usize) -> Result<ChunkReader<BufReader<File>>, StoreError> {
        let entry = &self.entries[camera];
        ChunkReader::open(&self.dir.join(&entry.file))
    }

    /// Opens every camera's chunked reader, in camera order — the input
    /// shape [`crate::Replayer::replay_engine`] wants.
    ///
    /// # Errors
    ///
    /// Returns the first open error.
    pub fn readers(&self) -> Result<Vec<ChunkReader<BufReader<File>>>, StoreError> {
        (0..self.entries.len()).map(|k| self.reader(k)).collect()
    }

    /// Opens one camera memory-resident via
    /// [`ChunkReader::open_mapped`]: payloads are borrowed in place
    /// instead of copied per chunk — the fast replay path.
    ///
    /// # Errors
    ///
    /// Returns an I/O or format error opening the camera file.
    ///
    /// # Panics
    ///
    /// Panics when `camera` is out of range.
    pub fn mapped_reader(&self, camera: usize) -> Result<ChunkReader<Cursor<Vec<u8>>>, StoreError> {
        let entry = &self.entries[camera];
        ChunkReader::open_mapped(&self.dir.join(&entry.file))
    }

    /// Opens every camera memory-resident, in camera order — the input
    /// shape [`crate::Replayer::replay_engine`] wants when the
    /// fleet fits in memory.
    ///
    /// # Errors
    ///
    /// Returns the first open error.
    pub fn mapped_readers(&self) -> Result<Vec<ChunkReader<Cursor<Vec<u8>>>>, StoreError> {
        (0..self.entries.len()).map(|k| self.mapped_reader(k)).collect()
    }

    /// The fleet's session-snapshot area (`<dir>/snapshots`), holding
    /// `EBSS` files named `cam{k:02}-f{frame:08}.ebss`.
    #[must_use]
    pub fn snapshot_dir(&self) -> PathBuf {
        self.dir.join("snapshots")
    }

    /// Writes one camera's session checkpoint into the snapshot area
    /// and returns the file's path. The file name encodes the camera
    /// and the checkpoint's frame count, so later checkpoints of the
    /// same camera sort after earlier ones and
    /// [`Self::latest_snapshot`] finds the newest without parsing.
    ///
    /// # Errors
    ///
    /// Returns an I/O or encoding error.
    ///
    /// # Panics
    ///
    /// Panics when `camera` is out of range.
    pub fn write_camera_snapshot(
        &self,
        camera: usize,
        checkpoint_t: Micros,
        state: &ebbiot_core::SessionState,
    ) -> Result<PathBuf, crate::SnapshotError> {
        let entry = &self.entries[camera];
        let dir = self.snapshot_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("cam{camera:02}-f{:08}.ebss", state.frames_processed));
        let mut out = Vec::new();
        crate::snapshot::write_snapshot(
            &mut out,
            &entry.name,
            entry.geometry,
            checkpoint_t,
            state,
        )?;
        fs::write(&path, out)?;
        Ok(path)
    }

    /// Loads one camera's most recent snapshot (highest frame count in
    /// the file name), or `None` when the camera has never been
    /// checkpointed.
    ///
    /// # Errors
    ///
    /// Returns an I/O error scanning the area or any
    /// [`crate::SnapshotError`] decoding the newest file.
    pub fn latest_snapshot(
        &self,
        camera: usize,
    ) -> Result<Option<(crate::SnapshotHeader, ebbiot_core::SessionState)>, crate::SnapshotError>
    {
        let dir = self.snapshot_dir();
        if !dir.is_dir() {
            return Ok(None);
        }
        let prefix = format!("cam{camera:02}-");
        let mut newest: Option<String> = None;
        for entry in fs::read_dir(&dir)? {
            let file_name = entry?.file_name();
            let Some(name) = file_name.to_str() else { continue };
            if name.starts_with(&prefix)
                && name.ends_with(".ebss")
                && newest.as_deref().is_none_or(|best| name > best)
            {
                newest = Some(name.to_string());
            }
        }
        match newest {
            Some(name) => crate::snapshot::read_snapshot_file(&dir.join(name)).map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ebbiot_store_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn camera_events(seed: u64, n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let i = i as u64;
                Event::on(
                    ((seed * 31 + i * 7) % 240) as u16,
                    ((seed * 17 + i * 13) % 180) as u16,
                    i * 53,
                )
            })
            .collect()
    }

    #[test]
    fn fleet_round_trips_through_manifest_and_files() {
        let dir = temp_dir("roundtrip");
        let streams: Vec<Vec<Event>> = (0..3).map(|k| camera_events(k, 400)).collect();
        let geometry = SensorGeometry::davis240();
        let names: Vec<String> = (0..3).map(|k| format!("LT4-cam{k:02}")).collect();
        let cameras: Vec<StoredCamera<'_>> = streams
            .iter()
            .enumerate()
            .map(|(k, events)| StoredCamera {
                name: &names[k],
                geometry,
                span_us: 1_000_000,
                events,
            })
            .collect();
        let written = FleetStore::write(&dir, &cameras, StoreOptions { chunk_events: 64 }).unwrap();
        assert_eq!(written.cameras(), 3);
        assert_eq!(written.total_events(), 1_200);

        let opened = FleetStore::open(&dir).unwrap();
        assert_eq!(opened, written, "manifest round-trips every field");
        for (k, events) in streams.iter().enumerate() {
            let mut reader = opened.reader(k).unwrap();
            assert_eq!(reader.name(), format!("LT4-cam{k:02}"));
            assert_eq!(reader.span_us(), 1_000_000);
            assert_eq!(&reader.read_recording().unwrap(), events);
        }
        assert_eq!(opened.readers().unwrap().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_with_spaces_round_trip_and_line_breaks_are_rejected() {
        let dir = temp_dir("names");
        let events = camera_events(1, 50);
        let geometry = SensorGeometry::davis240();
        let camera = |name| StoredCamera { name, geometry, span_us: 10, events: &events };

        let written = FleetStore::write(
            &dir,
            &[camera("north  gate  cam"), camera("")],
            StoreOptions::default(),
        )
        .unwrap();
        let opened = FleetStore::open(&dir).unwrap();
        assert_eq!(opened, written, "multi-space and empty names survive the manifest");
        assert_eq!(opened.entries()[0].name, "north  gate  cam");
        assert_eq!(opened.entries()[1].name, "");

        let err =
            FleetStore::write(&dir, &[camera("two\nlines")], StoreOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::BadManifest { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_missing_or_malformed_manifests() {
        let dir = temp_dir("malformed");
        assert!(matches!(FleetStore::open(&dir), Err(StoreError::Io(_))), "missing dir");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "NOT A MANIFEST\n").unwrap();
        assert!(FleetStore::open(&dir).is_err(), "bad header");
        fs::write(dir.join(MANIFEST_FILE), format!("{MANIFEST_HEADER}\ncamera cam00.ebst 240\n"))
            .unwrap();
        assert!(FleetStore::open(&dir).is_err(), "short line");
        fs::remove_dir_all(&dir).unwrap();
    }
}
