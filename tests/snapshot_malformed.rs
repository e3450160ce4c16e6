//! Property tests hardening the `EBSS` snapshot decoder against
//! malformed and hostile input: truncation at every cut point, single
//! bit and byte flips anywhere in the file, lying section lengths,
//! wrong magic/version/trailer bytes, and entirely arbitrary byte
//! soup. Every case must surface as a [`SnapshotError`] (or decode to
//! something observably different) — never a panic, and never the
//! original state reconstructed from damaged bytes.

use ebbiot::core::SessionState;
use ebbiot::events::{Event, OpsCounter, Polarity, SensorGeometry};
use ebbiot::store::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use ebbiot::store::{read_snapshot, write_snapshot, SnapshotError};
use proptest::prelude::*;

/// A synthetic but structurally realistic session state. The tracker
/// blob is opaque to the EBSS layer, so arbitrary bytes stand in for a
/// real back-end serialization.
fn arb_state() -> impl Strategy<Value = SessionState> {
    let event = (0u64..1_000_000, 0u16..240, 0u16..180, any::<bool>());
    (
        (0usize..3).prop_map(|i| ["ebbiot", "ebbi-kf", "nn-ebms"][i]),
        0u64..10_000,
        0u64..10_000,
        proptest::collection::vec(event, 0..40),
        proptest::option::of(0u64..1_000_000),
        (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..200)),
    )
        .prop_map(|(backend, frames, sum, events, last, (with_ops, tracker))| {
            let mut pending: Vec<Event> = events
                .into_iter()
                .map(|(t, x, y, on)| {
                    Event::new(x, y, t, if on { Polarity::On } else { Polarity::Off })
                })
                .collect();
            pending.sort_by_key(|e| e.t);
            SessionState {
                backend: backend.to_string(),
                frames_processed: frames,
                next_index: frames,
                active_tracker_sum: sum,
                pending,
                last_pushed_t: last,
                frontend_ops: with_ops.then_some(
                    [OpsCounter { comparisons: 7, additions: 3, multiplications: 1, mem_writes: 9 };
                        4],
                ),
                tracker,
            }
        })
}

fn encode(state: &SessionState) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, "cam05", SensorGeometry::new(240, 180), 123_456, state)
        .expect("valid state encodes");
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
        next_index: 1,
        active_tracker_sum: 0,
        pending: Vec::new(),
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
        next_index: 0,
        active_tracker_sum: 0,
        pending: Vec::new(),
        last_pushed_t: None,
        frontend_ops: None,
        tracker: Vec::new(),
    };
    let mut bytes = encode(&state);
    bytes[4..6].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert!(matches!(read_snapshot(&bytes), Err(SnapshotError::UnsupportedVersion(v)) if v == 2));
}

#[test]
fn non_utf8_names_are_rejected() {
    let state = SessionState {
        backend: "ebbiot".into(),
        frames_processed: 0,
        next_index: 0,
        active_tracker_sum: 0,
        pending: Vec::new(),
        last_pushed_t: None,
        frontend_ops: None,
        tracker: Vec::new(),
    };
    let mut bytes = encode(&state);
    bytes[HEADER_FIXED] = 0xFF; // first byte of the backend name
    assert!(matches!(read_snapshot(&bytes), Err(SnapshotError::BadName)));
}
