//! Recording serialization across crates: simulator output survives the
//! `EBST` store bit-for-bit, and the pipeline result is identical on the
//! decoded copy.

use std::io::Cursor;

use ebbiot::prelude::*;

/// Writes `rec` to `EBST` bytes and reads every event back.
fn ebst_copy(rec: &SimulatedRecording) -> Vec<Event> {
    let mut writer = RecordingWriter::new(
        Vec::new(),
        rec.geometry,
        "copy",
        rec.duration_us,
        StoreOptions::default(),
    )
    .expect("writer");
    writer.push_events(&rec.events).expect("time-ordered, in bounds");
    let (bytes, _) = writer.finish().expect("finish");
    let mut reader = ChunkReader::new(Cursor::new(bytes)).expect("opens");
    assert_eq!(reader.geometry(), rec.geometry);
    reader.read_recording().expect("decodes")
}

#[test]
fn simulated_recording_round_trips_through_ebst() {
    let rec = DatasetPreset::Lt4.config().with_duration_s(3.0).generate(13);
    assert_eq!(ebst_copy(&rec), rec.events);
}

#[test]
fn pipeline_output_identical_on_decoded_copy() {
    let rec = DatasetPreset::Lt4.config().with_duration_s(3.0).generate(14);
    let decoded = ebst_copy(&rec);

    let run = |events: &[Event]| {
        let mut p = EbbiotPipeline::new(EbbiotConfig::paper_default(rec.geometry));
        p.process_recording(events, rec.duration_us)
    };
    assert_eq!(run(&rec.events), run(&decoded));
}
