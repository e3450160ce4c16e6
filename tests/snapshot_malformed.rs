//! Property tests hardening the `EBSS` snapshot decoder against
//! malformed and hostile input: truncation at every cut point, single
//! bit and byte flips anywhere in the file, lying section lengths,
//! wrong magic/version/trailer bytes, latches that do not fit the
//! header (which the writer also refuses), and entirely arbitrary byte
//! soup. Every case must surface as
//! a [`SnapshotError`] (or decode to something observably different) —
//! never a panic, and never the original state reconstructed from
//! damaged bytes.

use ebbiot::core::SessionState;
use ebbiot::events::{Event, OpsCounter, SensorGeometry};
use ebbiot::frame::BinaryImage;
use ebbiot::prelude::{EbbiotConfig, EbbiotPipeline};
use ebbiot::store::format::crc32;
use ebbiot::store::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use ebbiot::store::{read_snapshot, write_snapshot, SnapshotError};
use proptest::prelude::*;

/// The sensor every snapshot here is written for.
fn geometry() -> SensorGeometry {
    SensorGeometry::new(240, 180)
}

/// A synthetic but structurally realistic session state. The tracker
/// blob is opaque to the EBSS layer, so arbitrary bytes stand in for a
/// real back-end serialization. Front-end back-ends carry a latch whose
/// pixels are set only when the open window has events.
fn arb_state() -> impl Strategy<Value = SessionState> {
    let pixel = (0u16..240, 0u16..180);
    (
        (0usize..3).prop_map(|i| ["ebbiot", "ebbi-kf", "nn-ebms"][i]),
        0u64..10_000,
        0u64..10_000,
        (0u64..10_000, proptest::collection::vec(pixel, 0..60)),
        proptest::option::of(0u64..1_000_000),
        (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..200)),
    )
        .prop_map(
            |(backend, frames, sum, (window_events, pixels), last, (with_ops, tracker))| {
                let mut latch = BinaryImage::new(geometry());
                if window_events > 0 {
                    for (x, y) in pixels {
                        latch.set(x, y, true);
                    }
                }
                SessionState {
                    backend: backend.to_string(),
                    frames_processed: frames,
                    active_tracker_sum: sum,
                    window_events,
                    window_latch: with_ops.then_some(latch),
                    last_pushed_t: last,
                    frontend_ops: with_ops.then_some(
                        [OpsCounter {
                            comparisons: 7,
                            additions: 3,
                            multiplications: 1,
                            mem_writes: 9,
                        }; 4],
                    ),
                    tracker,
                }
            },
        )
}

fn encode(state: &SessionState) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, "cam05", geometry(), 123_456, state).expect("valid state encodes");
    bytes
}

/// An `ebbiot` state whose open window latched `pixels` from
/// `window_events` events, on a latch of `latch_geometry`.
fn latched_state(
    latch_geometry: SensorGeometry,
    window_events: u64,
    pixels: &[(u16, u16)],
) -> SessionState {
    let mut latch = BinaryImage::new(latch_geometry);
    for &(x, y) in pixels {
        latch.set(x, y, true);
    }
    SessionState {
        backend: "ebbiot".into(),
        frames_processed: 3,
        active_tracker_sum: 0,
        window_events,
        window_latch: Some(latch),
        last_pushed_t: Some(200_000),
        frontend_ops: Some([OpsCounter::default(); 4]),
        tracker: Vec::new(),
    }
}

/// The reason of an `OPEN` section rejection, or a panic naming what
/// was returned instead.
fn open_rejection<T: std::fmt::Debug>(result: Result<T, SnapshotError>) -> &'static str {
    match result {
        Err(SnapshotError::BadSection { tag, reason }) if &tag == b"OPEN" => reason,
        other => panic!("expected an OPEN rejection, got {other:?}"),
    }
}

/// A valid `ebbiot` snapshot, one event and one pixel into its window,
/// whose `OPEN` payload (event count `u64`, latch flag, word count
/// `u32`, words) `edit` then damages. The section CRC is recomputed, so
/// the file fails only on what `edit` did.
fn patched_open(edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut bytes = encode(&latched_state(geometry(), 1, &[(10, 10)]));
    let u32_at = |bytes: &[u8], at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
    };
    let pipe_at = HEADER_FIXED + "ebbiot".len() + "cam05".len();
    let open_at = pipe_at + 12 + u32_at(&bytes, pipe_at + 4);
    assert_eq!(&bytes[open_at..open_at + 4], b"OPEN");
    let payload = open_at + 12..open_at + 12 + u32_at(&bytes, open_at + 4);
    edit(&mut bytes[payload.clone()]);
    let crc = crc32(&bytes[payload]);
    bytes[open_at + 8..open_at + 12].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Fixed header prefix up to the variable-length names: magic(4) +
/// version(2) + width(2) + height(2) + backend_len(2) + name_len(2) +
/// checkpoint_t(8).
const HEADER_FIXED: usize = 22;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Round trip sanity: what the writer emits, the reader restores
    // exactly (header and state), for arbitrary session shapes.
    #[test]
    fn round_trip_is_exact(state in arb_state()) {
        let bytes = encode(&state);
        let (header, decoded) = read_snapshot(&bytes).expect("own output decodes");
        prop_assert_eq!(&header.backend, &state.backend);
        prop_assert_eq!(header.checkpoint_t, 123_456);
        prop_assert_eq!(decoded, state);
    }

    // Truncation at EVERY cut point is rejected, never a panic and
    // never a partial state.
    #[test]
    fn truncation_at_every_cut_point_errors(state in arb_state()) {
        let bytes = encode(&state);
        for cut in 0..bytes.len() {
            prop_assert!(
                read_snapshot(&bytes[..cut]).is_err(),
                "truncation to {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }

    // A single flipped bit anywhere either errors or decodes to
    // something observably different — corrupt bytes never silently
    // reproduce the original session.
    #[test]
    fn single_bit_flips_never_reproduce_the_original(
        state in arb_state(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let bytes = encode(&state);
        let original = read_snapshot(&bytes).expect("own output decodes");
        let mut bad = bytes.clone();
        let at = pos % bad.len();
        bad[at] ^= 1 << bit;
        match read_snapshot(&bad) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(
                decoded, original,
                "flipped bit {bit} at byte {at} decoded back to the original"
            ),
        }
    }

    // Whole-byte overwrites inside the CRC-framed body (anything past
    // the header) must fail the section CRC or framing.
    #[test]
    fn byte_flips_in_the_body_are_rejected(
        state in arb_state(),
        offset in any::<usize>(),
        xor in (0u8..255).prop_map(|b| b + 1),
    ) {
        let bytes = encode(&state);
        let body_start = HEADER_FIXED + state.backend.len() + "cam05".len();
        let at = body_start + offset % (bytes.len() - body_start);
        let mut bad = bytes.clone();
        bad[at] ^= xor;
        prop_assert!(
            read_snapshot(&bad).is_err(),
            "body byte {at} xor {xor:#04x} must not decode"
        );
    }

    // Arbitrary byte soup never panics the decoder (and, without the
    // magic, never decodes).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let result = read_snapshot(&bytes);
        if bytes.len() < 4 || bytes[..4] != SNAPSHOT_MAGIC {
            prop_assert!(result.is_err());
        }
    }

    // Lying section length fields: growing or shrinking the declared
    // PIPE length desynchronizes the framing and must be rejected.
    #[test]
    fn lying_section_lengths_are_rejected(
        state in arb_state(),
        delta in (0usize..4).prop_map(|i| [1u32, u32::MAX, 8, 0x7FFF_FFFF][i]),
    ) {
        let bytes = encode(&state);
        let len_at = HEADER_FIXED + state.backend.len() + "cam05".len() + 4;
        let mut bad = bytes.clone();
        let declared = u32::from_le_bytes(bad[len_at..len_at + 4].try_into().unwrap());
        bad[len_at..len_at + 4].copy_from_slice(&declared.wrapping_add(delta).to_le_bytes());
        prop_assert!(read_snapshot(&bad).is_err(), "lying PIPE length +{delta} must not decode");
    }
}

#[test]
fn wrong_magic_is_rejected_with_the_found_bytes() {
    let state = SessionState {
        backend: "ebbiot".into(),
        frames_processed: 1,
        active_tracker_sum: 0,
        window_events: 0,
        window_latch: None,
        last_pushed_t: Some(5),
        frontend_ops: None,
        tracker: vec![9; 16],
    };
    let mut bytes = encode(&state);
    bytes[..4].copy_from_slice(b"EBST"); // right family, wrong format
    match read_snapshot(&bytes) {
        Err(SnapshotError::BadMagic(found)) => assert_eq!(&found, b"EBST"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_rejected() {
    let state = SessionState {
        backend: "ebbiot".into(),
        frames_processed: 0,
        active_tracker_sum: 0,
        window_events: 0,
        window_latch: None,
        last_pushed_t: None,
        frontend_ops: None,
        tracker: Vec::new(),
    };
    let mut bytes = encode(&state);
    bytes[4..6].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        read_snapshot(&bytes),
        Err(SnapshotError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 1
    ));
}

#[test]
fn a_version_1_header_is_rejected() {
    let mut bytes = encode(&latched_state(geometry(), 1, &[(10, 10)]));
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert!(matches!(read_snapshot(&bytes), Err(SnapshotError::UnsupportedVersion(1))));
}

#[test]
fn a_latch_word_count_that_does_not_fit_the_header_is_rejected() {
    // 179 rows of 4 words under a header declaring 180.
    let bytes = patched_open(|open| open[9..13].copy_from_slice(&(179u32 * 4).to_le_bytes()));
    let reason = open_rejection(read_snapshot(&bytes));
    assert!(reason.contains("word count"), "{reason}");
}

#[test]
fn a_latched_bit_past_the_width_is_rejected() {
    // The top bit of row 0's fourth word is pixel 255 of a 240-wide row.
    let bytes = patched_open(|open| open[13 + 3 * 8 + 7] |= 0x80);
    let reason = open_rejection(read_snapshot(&bytes));
    assert!(reason.contains("past the sensor width"), "{reason}");
}

#[test]
fn latched_pixels_in_a_window_with_no_events_are_rejected() {
    let bytes = patched_open(|open| open[..8].fill(0));
    let reason = open_rejection(read_snapshot(&bytes));
    assert!(reason.contains("no events"), "{reason}");
}

#[test]
fn the_writer_refuses_a_latch_the_reader_would_reject() {
    let mismatched = latched_state(SensorGeometry::new(240, 179), 1, &[(10, 10)]);
    let eventless = latched_state(geometry(), 0, &[(10, 10)]);
    for (state, expected) in [(mismatched, "geometry"), (eventless, "no events")] {
        let mut bytes = Vec::new();
        let reason = open_rejection(write_snapshot(&mut bytes, "cam05", geometry(), 0, &state));
        assert!(reason.contains(expected), "{reason}");
        assert!(bytes.is_empty(), "nothing is written before the check");
    }
}

#[test]
fn a_zero_sized_sensor_in_the_header_is_rejected() {
    let mut bytes = encode(&latched_state(geometry(), 1, &[(10, 10)]));
    bytes[6..8].copy_from_slice(&0u16.to_le_bytes()); // width
    assert!(matches!(read_snapshot(&bytes), Err(SnapshotError::ZeroGeometry)));
}

#[test]
fn an_ebbiot_snapshot_mid_window_does_not_grow_with_activity() {
    let config = EbbiotConfig::paper_default(geometry());
    let mut pipeline = EbbiotPipeline::new(config);
    let events: Vec<Event> =
        (0..8_000u64).map(|i| Event::on((i % 240) as u16, (i / 240 % 180) as u16, i)).collect();
    assert!(pipeline.push(&events[..1]).is_empty(), "the window stays open");
    let quiet = encode(&pipeline.checkpoint());
    assert!(pipeline.push(&events[1..]).is_empty(), "the window stays open");
    let busy_state = pipeline.checkpoint();
    assert_eq!(busy_state.window_events, 8_000);
    let busy = encode(&busy_state);
    assert_eq!(busy.len(), quiet.len(), "1 event vs 8,000 events in the open window");
    assert_eq!(read_snapshot(&busy).expect("own output decodes").1, busy_state);
}

#[test]
fn non_utf8_names_are_rejected() {
    let state = SessionState {
        backend: "ebbiot".into(),
        frames_processed: 0,
        active_tracker_sum: 0,
        window_events: 0,
        window_latch: None,
        last_pushed_t: None,
        frontend_ops: None,
        tracker: Vec::new(),
    };
    let mut bytes = encode(&state);
    bytes[HEADER_FIXED] = 0xFF; // first byte of the backend name
    assert!(matches!(read_snapshot(&bytes), Err(SnapshotError::BadName)));
}
