//! Spool-to-disk helpers: write simulated recordings into the `EBST`
//! store so heavy traffic can be generated once and replayed many
//! times without re-simulation.

use std::path::Path;

use ebbiot_store::{
    FleetStore, RecordingWriter, StoreError, StoreOptions, StoreSummary, StoredCamera,
};

use crate::{FleetConfig, SimulatedRecording};

/// Writes one recording to an `EBST` file at `path`.
///
/// The store header carries the recording's name, geometry and
/// duration, so a later replay finishes with the same span as
/// in-memory processing.
///
/// # Errors
///
/// Returns any [`StoreError`] from the writer (I/O, or the recording
/// violating order/bounds invariants — impossible for simulator
/// output).
pub fn spool_recording(
    path: &Path,
    recording: &SimulatedRecording,
    options: StoreOptions,
) -> Result<StoreSummary, StoreError> {
    let mut writer = RecordingWriter::create(
        path,
        recording.geometry,
        &recording.name,
        recording.duration_us,
        options,
    )?;
    writer.push_events(&recording.events)?;
    let (_, summary) = writer.finish()?;
    Ok(summary)
}

/// Spools a whole fleet into `dir` as a [`FleetStore`] (one `EBST`
/// file per camera plus a manifest).
///
/// # Errors
///
/// Returns the first [`StoreError`] encountered.
pub fn spool_fleet(
    dir: &Path,
    fleet: &[SimulatedRecording],
    options: StoreOptions,
) -> Result<FleetStore, StoreError> {
    let cameras: Vec<StoredCamera<'_>> = fleet
        .iter()
        .map(|rec| StoredCamera {
            name: &rec.name,
            geometry: rec.geometry,
            span_us: rec.duration_us,
            events: &rec.events,
        })
        .collect();
    FleetStore::write(dir, &cameras, options)
}

impl FleetConfig {
    /// Generates the fleet and spools it into `dir` in one step — the
    /// write-once half of the write-once/replay-many workflow.
    ///
    /// # Errors
    ///
    /// Returns the first [`StoreError`] encountered while writing.
    pub fn spool_to(&self, dir: &Path, options: StoreOptions) -> Result<FleetStore, StoreError> {
        spool_fleet(dir, &self.generate(), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetPreset;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ebbiot_spool_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spooled_fleet_reads_back_identically() {
        let dir = temp_dir("fleet");
        let config = FleetConfig::new(DatasetPreset::Lt4, 2).with_seconds(0.3);
        let fleet = config.generate();
        let store = config.spool_to(&dir, StoreOptions { chunk_events: 1_000 }).unwrap();

        assert_eq!(store.cameras(), 2);
        assert_eq!(store.total_events(), fleet.iter().map(|r| r.events.len() as u64).sum());
        for (k, rec) in fleet.iter().enumerate() {
            let mut reader = store.reader(k).unwrap();
            assert_eq!(reader.name(), rec.name);
            assert_eq!(reader.geometry(), rec.geometry);
            assert_eq!(reader.span_us(), rec.duration_us);
            assert_eq!(reader.read_recording().unwrap(), rec.events);
        }
        // Reopening from the manifest sees the same fleet.
        assert_eq!(FleetStore::open(&dir).unwrap(), store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_recording_spool_reports_compression() {
        let dir = temp_dir("single");
        std::fs::create_dir_all(&dir).unwrap();
        let rec = DatasetPreset::Lt4.config().with_duration_s(0.3).generate(3);
        let path = dir.join("rec.ebst");
        let summary = spool_recording(&path, &rec, StoreOptions::default()).unwrap();
        assert_eq!(summary.events, rec.events.len() as u64);
        assert!(
            summary.bytes_per_event() < 14.0,
            "EBST should beat 14 B/event, got {:.2}",
            summary.bytes_per_event()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
