//! On-disk recording store and paced replay for event-camera fleets.
//!
//! The paper's IoVT argument is that event cameras slash bandwidth and
//! storage versus frame cameras. This crate makes disk a first-class
//! event source for the workspace: recordings are spooled once into the
//! chunked **`EBST`** format and replayed any number of times through
//! the streaming [`Pipeline`](ebbiot_core::Pipeline) or the
//! multi-camera [`Engine`](ebbiot_engine::Engine) — without the
//! recording ever being memory-resident, at maximum speed or paced
//! against the wall clock. Like `ebbiot_engine`, it uses nothing but
//! `std`.
//!
//! * [`RecordingWriter`] — append-only chunked writer (`W: Write`);
//! * [`ChunkReader`] — one-chunk-at-a-time reader with
//!   [`ChunkReader::seek_to_time`] over the chunk index, generic over a
//!   [`ChunkSource`] (streamed `BufReader` or resident `Cursor`);
//! * [`Replayer`] — drives an `Engine` from one reader per stream, in
//!   [`ReplayMode::MaxSpeed`] or [`ReplayMode::Paced`];
//! * [`FleetStore`] — one file per camera plus a manifest, the spool
//!   layout `ebbiot_sim`'s fleet generator writes;
//! * [`FleetArchiver`] — the streaming counterpart of
//!   [`FleetStore::write`] for concurrently arriving streams, used as
//!   `ebbiot_server`'s archival tee;
//! * [`snapshot`](mod@snapshot) — the versioned **`EBSS`** session
//!   snapshot format (checkpoint/restore of a live pipeline, see
//!   ARCHITECTURE.md §8), written into a fleet's `snapshots/` area by
//!   [`FleetStore::write_camera_snapshot`]. A snapshot plus the
//!   archived `EBST` tail from its `checkpoint_t` recovers a severed
//!   session bit-identically.
//!
//! The byte-level `EBST` specification also lives in
//! `ARCHITECTURE.md` at the workspace root, next to the `EBWP` wire
//! protocol that reuses its chunk payload codec.
//!
//! # The `EBST` format (version 2)
//!
//! All integers are little-endian. The file is header, then chunks,
//! then a seek index, then a fixed-size footer (so readers find the
//! index from EOF and writers never seek):
//!
//! ```text
//! header   magic     [u8; 4] = b"EBST"
//!          version   u16     = 2
//!          width     u16       sensor columns
//!          height    u16       sensor rows
//!          name_len  u16
//!          span_us   u64       nominal recording span (0 = unknown)
//!          name      [u8; name_len]   UTF-8 stream name
//! chunk*   count     u32       events in chunk (1..=MAX_CHUNK_EVENTS)
//!          t_first   u64       timestamp of first event
//!          t_last    u64       timestamp of last event
//!          len       u32       payload bytes
//!          crc32     u32       CRC-32 (IEEE) of payload
//!          payload   [u8; len]
//! index    per chunk: offset u64, count u32, t_first u64, t_last u64
//! footer   events    u64       total event count
//!          index_off u64       file offset of the index
//!          chunks    u32       index entry count
//!          crc32     u32       CRC-32 of the index bytes
//!          magic     [u8; 4] = b"EBSX"
//! ```
//!
//! A chunk payload is **bit-packed deltas**: three fields per event
//! against a running predecessor (reset per chunk, so every chunk
//! decodes standalone — that is what makes seeking chunk-granular):
//!
//! * `Δt = t - prev_t` — timestamps are non-decreasing, so the delta is
//!   unsigned; `prev_t` starts at the chunk's `t_first`, so the first
//!   event's `Δt` is 0;
//! * `zigzag(x - prev_x)` — column delta, `prev_x` starts 0;
//! * `zigzag(y - prev_y) << 1 | polarity` — row delta with the polarity
//!   bit packed into bit 0, `prev_y` starts 0.
//!
//! zigzag folds signed deltas to unsigned (0, -1, 1, -2 → 0, 1, 2, 3).
//! The payload opens with three width bytes `wt ≤ 64`, `wx ≤ 17` and
//! `1 ≤ wy ≤ 18` (the polarity bit is always stored), the fewest bits
//! that hold each field over the chunk (frame-of-reference packing,
//! as in Lemire & Boytsov, 2015). Then come `count` events of
//! `wt + wx + wy` bits each, `Δt` in the lowest bits, as one
//! little-endian bit stream zero-padded to a whole byte, so
//! `len = 3 + ceil(count · (wt + wx + wy) / 8)` exactly. Simulated
//! traffic lands near 3.5–3.8 bytes/event, and even the widest events
//! (99 bits) beat a flat 14-byte event record from three events a
//! chunk on. Decoding validates CRC, the count against
//! [`format::MAX_CHUNK_EVENTS`] (before anything is allocated), the
//! widths, the exact length, zero padding, the first `Δt`, timestamp
//! overflow, bounds and span, so corruption is detected rather than
//! tracked. Version 1 files (delta-varint chunks) are rejected as
//! [`StoreError::UnsupportedVersion`].
//!
//! # The codec
//!
//! Encoding is what a sensor node pays to frame its events, and
//! decoding is the store's hot loop. [`format`](mod@format) has one
//! implementation of each, behind the writer, the reader and the
//! `EBWP` EVENTS frames alike:
//!
//! * [`format::encode_chunk_payload`] — one pass ORs each field over the
//!   chunk to pick the widths, a second packs every event through a
//!   `u128` accumulator stored whole into the output;
//! * [`format::decode_chunk_payload`] — on x86-64 CPUs with
//!   AVX-512F/BW/VBMI, eight events of at most 57 bits per step;
//!   elsewhere, and as its oracle, [`format::decode_chunk_payload_scalar`]:
//!   every event whose three fields fit 57 bits takes one unaligned
//!   `u64` load, a shift and three masks, with no table and no
//!   data-dependent length; wider events (a `Δt` of about 2^40 µs or
//!   more) take one 16-byte load. Per event both check the timestamp add
//!   and one unsigned compare per axis, with the same errors.
//!
//! The root `tests/decode_parity.rs` pins both to a bit-at-a-time model
//! of the format by property test: the same bytes out of both encoders
//! for every chunk, the same events out of every valid payload, and the
//! same error out of every corrupt one (truncation and bit flips at
//! every byte, lying frame metadata, random bit streams under every
//! width triple), plus one crafted payload per rejection rule. CRC-32
//! folds by carry-less multiply on CPUs with PCLMULQDQ and is
//! slice-by-16 elsewhere, with a one-byte [`format::crc32_reference`]
//! under the same contract.
//!
//! Where the payload bytes live is a [`ChunkSource`] property:
//! streamed sources (`BufReader`) copy each payload into a reused
//! scratch buffer, resident sources (`Cursor`, from
//! [`ChunkReader::open_mapped`] / [`FleetStore::mapped_readers`])
//! lend the payload **in place** with no copy. Decoding goes straight
//! into a caller-supplied `Vec<Event>`
//! ([`ChunkReader::next_chunk_into`]) that replay then *moves* into
//! the engine, so events are materialised exactly once on the disk →
//! tracker path, and replayed output stays bit-for-bit identical.
//!
//! # Example
//!
//! ```
//! use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
//! use ebbiot_engine::{Engine, EngineConfig};
//! use ebbiot_events::{Event, SensorGeometry};
//! use ebbiot_store::{ChunkReader, RecordingWriter, Replayer, ReplayMode, StoreOptions};
//! use std::io::Cursor;
//!
//! // Spool a (tiny) recording to EBST bytes — normally a file.
//! let geometry = SensorGeometry::davis240();
//! let events: Vec<Event> =
//!     (0..600).map(|i| Event::on(60 + (i % 24) as u16, 80 + (i / 50) as u16, i * 100)).collect();
//! let mut writer =
//!     RecordingWriter::new(Vec::new(), geometry, "demo", 66_000, StoreOptions::default())?;
//! writer.push_events(&events)?;
//! let (bytes, summary) = writer.finish()?;
//! assert!(summary.bytes_per_event() < 14.0, "beats the flat codec");
//!
//! // Replay it through a one-stream engine, chunk by chunk.
//! let mut readers = vec![ChunkReader::new(Cursor::new(bytes))?];
//! let pipeline = EbbiotPipeline::new(EbbiotConfig::paper_default(geometry));
//! let engine = Engine::new(EngineConfig::with_workers(1), vec![pipeline]);
//! let run = Replayer::new(ReplayMode::MaxSpeed).replay_engine(&mut readers, engine)?;
//! assert_eq!(run.events(), 600);
//! # Ok::<(), ebbiot_store::StoreError>(())
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod archive;
pub mod fleet;
pub mod format;
pub mod reader;
pub mod replay;
pub mod snapshot;
pub mod writer;

pub use archive::{ArchiveStream, FleetArchiver};
pub use fleet::{FleetEntry, FleetStore, StoredCamera, MANIFEST_FILE};
pub use format::{ChunkMeta, StoreError, StoreHeader};
pub use reader::{ChunkReader, ChunkSource};
pub use replay::{EngineReplay, ReplayMode, ReplayStats, Replayer};
pub use snapshot::{
    read_snapshot, read_snapshot_file, write_snapshot, SnapshotError, SnapshotHeader,
};
pub use writer::{RecordingWriter, StoreOptions, StoreSummary};

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::{Event, Polarity, SensorGeometry};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::io::Cursor;

    /// The flat event file EBST replaced (an 18-byte header, then 14
    /// bytes per event) is the size bound EBST must stay under.
    const FLAT_HEADER_BYTES: usize = 18;
    const FLAT_EVENT_BYTES: usize = 14;

    /// Random time-ordered in-bounds DAVIS240 stream.
    fn random_events(seed: u64, n: usize) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let geometry = SensorGeometry::davis240();
        let mut t = 0u64;
        (0..n)
            .map(|_| {
                t += rng.random_range(0u64..500);
                let polarity =
                    if rng.random_range(0..2) == 0 { Polarity::On } else { Polarity::Off };
                Event::new(
                    rng.random_range(0..geometry.width()),
                    rng.random_range(0..geometry.height()),
                    t,
                    polarity,
                )
            })
            .collect()
    }

    fn encode(events: &[Event]) -> Vec<u8> {
        let mut writer = RecordingWriter::new(
            Vec::new(),
            SensorGeometry::davis240(),
            "random",
            0,
            StoreOptions::default(),
        )
        .unwrap();
        writer.push_events(events).unwrap();
        writer.finish().unwrap().0
    }

    fn read_back(bytes: Vec<u8>) -> Vec<Event> {
        ChunkReader::new(Cursor::new(bytes)).unwrap().read_recording().unwrap()
    }

    #[test]
    fn random_streams_round_trip_losslessly() {
        for seed in 0..5u64 {
            let events = random_events(seed, 3_000);
            assert_eq!(read_back(encode(&events)), events, "seed {seed}");
        }
        assert!(read_back(encode(&[])).is_empty());
    }

    #[test]
    fn ebst_is_smaller_than_flat_eaer_on_random_streams() {
        let events = random_events(7, 20_000);
        let ebst = encode(&events).len();
        let flat = FLAT_HEADER_BYTES + FLAT_EVENT_BYTES * events.len();
        assert!(ebst < flat, "EBST {ebst} bytes vs flat {flat} bytes");
    }
}
