//! Property tests pinning the batched word-parallel chunk decoder
//! ([`decode_chunk_payload_fast`]) to the scalar reference
//! ([`decode_chunk_payload`]): identical events out on every valid
//! payload, and identical errors on every corrupt one — hostile tails,
//! 1-byte and 10-byte varints, chunk-boundary truncation, bit flips and
//! lying frame metadata — and at the edges of the fast decoder's lanes:
//! every one of the 256 continuation-bit patterns the lane's table is
//! keyed on, a triple ending exactly at the lane word's eighth byte, a
//! 4-byte varint in each position, value bits in the last byte of such
//! long varints, a 10-byte `dt`, events starting with exactly 32 or 31
//! payload bytes left, either side of the watermark where the fast loop
//! hands over to the byte loop, timestamps within 2^21 of `u64::MAX`
//! (where the lane hands back to the checked path), a first event with
//! `Δt ≠ 0`, and coordinates stepping onto and one past each edge of the
//! array. The slice-by-16 CRC gets the same treatment against its
//! one-byte-at-a-time reference, at every length and alignment.
//!
//! The word-store encoder ([`encode_chunk_payload`]) is pinned the same
//! way to its one-`write_varint`-per-value reference
//! ([`encode_chunk_payload_reference`]): identical bytes, which the fast
//! decoder turns back into the events, for `dt` on both sides of the
//! lane's 2^21 limit and up to 10-byte varints, coordinates at the array
//! corners of 240×180, 346×260 and a `u16::MAX`-wide sensor, 1-event
//! chunks and chunks longer than the encoder's block. A `RecordingWriter`
//! writes the same file however its input is split.

use ebbiot::events::{Event, Polarity, SensorGeometry};
use ebbiot::store::format::{
    crc32, crc32_reference, decode_chunk_payload, decode_chunk_payload_fast, encode_chunk_payload,
    encode_chunk_payload_reference, read_varint, write_varint, zigzag, CHUNK_FRAME_BYTES,
    HEADER_FIXED_BYTES,
};
use ebbiot::store::{RecordingWriter, StoreError, StoreOptions};
use proptest::prelude::*;

const W: u16 = 240;
const H: u16 = 180;

/// A time-ordered in-bounds chunk whose varint widths span the whole
/// range: `dt_shift` scales the time deltas from always-1-byte varints
/// (`dt < 128`) up to forced 10-byte varints (`dt >= 1 << 63`).
fn arb_chunk(max_len: usize) -> impl Strategy<Value = Vec<Event>> {
    let step = (0u64..128, 0u32..64, 0..W, 0..H, any::<bool>());
    (proptest::collection::vec(step, 1..max_len), 0u32..8).prop_map(|(steps, width_mix)| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, dt_shift, x, y, on)| {
                // Mix varint widths within one chunk: shift some deltas
                // into the 2..10-byte LEB128 range, saturating so the
                // running timestamp never overflows.
                let shift = (dt_shift * width_mix) % 64;
                t = t.saturating_add(dt << shift);
                Event::new(x, y, t, if on { Polarity::On } else { Polarity::Off })
            })
            .collect()
    })
}

/// The sensors the encoder cases run on: the paper's DAVIS240, a
/// DAVIS346 and the widest array a `u16` column allows, where a column
/// step's zigzag reaches its 2^17 bound.
const GEOMETRIES: [(u16, u16); 3] = [(240, 180), (346, 260), (u16::MAX, 6)];

/// A time-ordered chunk on one of [`GEOMETRIES`] that stresses the
/// encoder: about half the coordinates sit on the array's first or last
/// column or row (the largest steps a chunk can hold), and `dt` is
/// small, just either side of the word-store lane's 2^21 limit, or wide
/// enough for any varint length up to 10 bytes.
fn arb_edge_chunk(max_len: usize) -> impl Strategy<Value = (SensorGeometry, Vec<Event>)> {
    let coord = || (0u8..4, any::<u16>());
    let step = (0u8..4, any::<u64>(), coord(), coord(), any::<bool>());
    (0..GEOMETRIES.len(), proptest::collection::vec(step, 1..max_len)).prop_map(|(g, steps)| {
        let (w, h) = GEOMETRIES[g];
        let pick = |(edge, v): (u8, u16), n: u16| match edge {
            0 => 0,
            1 => n - 1,
            _ => v % n,
        };
        let mut t = 0u64;
        let events = steps
            .into_iter()
            .map(|(kind, bits, x, y, on)| {
                let dt = match kind {
                    0 => bits % 128,
                    1 => (1 << 21) - 2 + bits % 4,
                    2 => bits % (1 << 21),
                    _ => bits >> (bits % 64),
                };
                t = t.saturating_add(dt);
                Event::new(pick(x, w), pick(y, h), t, Polarity::from_bit(u8::from(on)))
            })
            .collect();
        (SensorGeometry::new(w, h), events)
    })
}

/// The word-store encoder writes exactly the reference's bytes for
/// `events`, and the fast decoder turns them back into `events` on
/// `geometry`.
fn assert_encodes_like_reference(events: &[Event], geometry: SensorGeometry) {
    let (mut fast, mut reference) = (Vec::new(), vec![0xAA; 7]);
    encode_chunk_payload(&mut fast, events);
    encode_chunk_payload_reference(&mut reference, events);
    assert_eq!(fast, reference, "encoders diverge");
    let count = u32::try_from(events.len()).unwrap();
    let (t_first, t_last) = (events[0].t, events[events.len() - 1].t);
    let mut decoded = vec![Event::on(0, 0, 0)];
    decode_chunk_payload_fast(&mut decoded, &fast, 0, geometry, count, t_first, t_last).unwrap();
    assert_eq!(decoded, events, "round trip");
}

/// Encodes a chunk and returns `(payload, count, t_first, t_last)` —
/// the frame fields a well-formed `EBST` chunk or `EBWP` EVENTS frame
/// would carry for it.
fn encode(events: &[Event]) -> (Vec<u8>, u32, u64, u64) {
    let mut payload = Vec::new();
    encode_chunk_payload(&mut payload, events);
    let count = u32::try_from(events.len()).unwrap();
    (payload, count, events[0].t, events[events.len() - 1].t)
}

/// Both decoders on the same input; errors compared by debug rendering
/// (variant and payload), results by value.
fn both(
    payload: &[u8],
    geometry: SensorGeometry,
    count: u32,
    t_first: u64,
    t_last: u64,
) -> (Result<Vec<Event>, StoreError>, Result<Vec<Event>, StoreError>) {
    let mut scalar = Vec::new();
    let mut fast = Vec::new();
    let a = decode_chunk_payload(&mut scalar, payload, 3, geometry, count, t_first, t_last)
        .map(|()| scalar);
    let b = decode_chunk_payload_fast(&mut fast, payload, 3, geometry, count, t_first, t_last)
        .map(|()| fast);
    (a, b)
}

fn assert_parity(payload: &[u8], geometry: SensorGeometry, count: u32, t_first: u64, t_last: u64) {
    let (scalar, fast) = both(payload, geometry, count, t_first, t_last);
    match (scalar, fast) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "decoded events diverge"),
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "errors diverge"),
        (a, b) => panic!("acceptance diverges: scalar {a:?} vs fast {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Valid payloads: both decoders accept and produce the original
    // events, across the full 1..=10-byte varint width range.
    #[test]
    fn fast_decoder_matches_scalar_on_valid_chunks(events in arb_chunk(200)) {
        let geometry = SensorGeometry::new(W, H);
        let (payload, count, t_first, t_last) = encode(&events);
        let (scalar, fast) = both(&payload, geometry, count, t_first, t_last);
        prop_assert_eq!(scalar.unwrap(), events.clone());
        prop_assert_eq!(fast.unwrap(), events);
    }

    // Truncation at *every* byte boundary of a valid payload — the
    // hostile-tail sweep. Both decoders must agree byte for byte,
    // including truncations that land mid-varint or mid-event.
    #[test]
    fn truncated_payloads_are_rejected_identically(events in arb_chunk(40)) {
        let geometry = SensorGeometry::new(W, H);
        let (payload, count, t_first, t_last) = encode(&events);
        for cut in 0..payload.len() {
            assert_parity(&payload[..cut], geometry, count, t_first, t_last);
        }
    }

    // Single-byte corruption anywhere in the payload: whatever the
    // scalar decoder makes of it (accept, reject, reject later), the
    // fast decoder must make of it too.
    #[test]
    fn bit_flips_are_handled_identically(
        events in arb_chunk(100),
        at in any::<u64>(),
        xor in 0u8..255,
    ) {
        let geometry = SensorGeometry::new(W, H);
        let (mut payload, count, t_first, t_last) = encode(&events);
        let at = usize::try_from(at).unwrap_or(usize::MAX) % payload.len();
        payload[at] ^= xor + 1;
        assert_parity(&payload, geometry, count, t_first, t_last);
    }

    // Lying frame metadata (count / t_first / t_last off by some
    // delta) against a well-formed payload.
    #[test]
    fn wrong_frame_metadata_is_rejected_identically(
        events in arb_chunk(60),
        dcount in -2i64..3,
        dfirst in -2i64..3,
        dlast in -2i64..3,
    ) {
        let geometry = SensorGeometry::new(W, H);
        let (payload, count, t_first, t_last) = encode(&events);
        let count = u32::try_from(i64::from(count).saturating_add(dcount).max(0)).unwrap();
        let t_first = t_first.saturating_add_signed(dfirst);
        let t_last = t_last.saturating_add_signed(dlast);
        assert_parity(&payload, geometry, count, t_first, t_last);
    }

    // A smaller sensor than the events were generated for: bounds
    // violations must surface identically, at the same event.
    #[test]
    fn out_of_geometry_events_are_rejected_identically(
        events in arb_chunk(60),
        w in 1..W,
        h in 1..H,
    ) {
        let (payload, count, t_first, t_last) = encode(&events);
        assert_parity(&payload, SensorGeometry::new(w, h), count, t_first, t_last);
    }

    // Arbitrary garbage bytes with arbitrary frame metadata: the fast
    // path must never accept (or panic on) anything the scalar
    // reference rejects, and vice versa.
    #[test]
    fn arbitrary_bytes_are_handled_identically(
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        count in 0u32..200,
        t_first in 0u64..1 << 48,
        span in 0u64..1 << 20,
    ) {
        let geometry = SensorGeometry::new(W, H);
        assert_parity(&payload, geometry, count, t_first, t_first.saturating_add(span));
    }

    // The word-store encoder == the reference, byte for byte, over the
    // decode suite's full varint-width range and over array-edge chunks
    // whose `dt` crosses the lane limit.
    #[test]
    fn fast_encoder_matches_reference_on_valid_chunks(
        events in arb_chunk(200),
        (geometry, edge_events) in arb_edge_chunk(300),
    ) {
        assert_encodes_like_reference(&events, SensorGeometry::new(W, H));
        assert_encodes_like_reference(&edge_events, geometry);
    }

    // A `RecordingWriter` writes the same file whether its input comes
    // in one slice or in random pieces, and every chunk in it is the
    // reference encoding of its events under the reference CRC.
    #[test]
    fn recording_writer_output_does_not_depend_on_how_input_is_split(
        (geometry, events) in arb_edge_chunk(1_500),
        chunk_events in 1usize..700,
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let options = StoreOptions { chunk_events };
        let write = |pieces: &[&[Event]]| {
            let mut writer =
                RecordingWriter::new(Vec::new(), geometry, "split", 9, options).unwrap();
            for piece in pieces {
                writer.push_events(piece).unwrap();
            }
            writer.finish().unwrap().0
        };
        let whole = write(&[&events]);
        let mut at: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % (events.len() + 1)).collect();
        at.sort_unstable();
        let mut pieces = Vec::new();
        let mut from = 0;
        for to in at.into_iter().chain([events.len()]) {
            pieces.push(&events[from..to]);
            from = to;
        }
        prop_assert_eq!(&write(&pieces), &whole);

        let mut offset = HEADER_FIXED_BYTES + "split".len();
        let mut reference = Vec::new();
        for chunk in events.chunks(chunk_events) {
            encode_chunk_payload_reference(&mut reference, chunk);
            let frame = &whole[offset..offset + CHUNK_FRAME_BYTES];
            prop_assert_eq!(&frame[20..24], &(reference.len() as u32).to_le_bytes());
            prop_assert_eq!(&frame[24..28], &crc32_reference(&reference).to_le_bytes());
            let payload = offset + CHUNK_FRAME_BYTES;
            prop_assert_eq!(&whole[payload..payload + reference.len()], &reference[..]);
            offset = payload + reference.len();
        }
    }

    // Slice-by-16 CRC == one-byte-at-a-time reference on arbitrary
    // bytes (lengths cross the 16-byte fold boundary both ways).
    #[test]
    fn crc32_matches_reference(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
    }
}

/// Deterministic corner cases the generators only hit probabilistically.
#[test]
fn varint_width_extremes_decode_identically() {
    let geometry = SensorGeometry::new(W, H);
    // Forced 10-byte time-delta varint: dt >= 1 << 63.
    let ten = vec![Event::on(0, 0, 1), Event::off(W - 1, H - 1, 1 + (1u64 << 63))];
    // All 1-byte varints: dt < 128, |dx|, |dy| < 64.
    let one = vec![Event::on(10, 10, 0), Event::off(11, 9, 127)];
    for events in [ten, one] {
        let (payload, count, t_first, t_last) = encode(&events);
        let (scalar, fast) = both(&payload, geometry, count, t_first, t_last);
        assert_eq!(scalar.unwrap(), events.clone());
        assert_eq!(fast.unwrap(), events);
        // And every truncation of it.
        for cut in 0..payload.len() {
            assert_parity(&payload[..cut], geometry, count, t_first, t_last);
        }
    }
}

/// A chunk of `n` events whose varints are all one byte long (`dt` of
/// 3 µs, moves of a few pixels near the origin), so each event takes
/// exactly 3 payload bytes.
fn one_byte_chunk(n: usize) -> Vec<Event> {
    (0..n)
        .map(|k| {
            let small = u16::try_from(k % 5).unwrap();
            let polarity = Polarity::from_bit(u8::from(k % 2 == 1));
            Event::new(10 + small, 20 - small % 3, 1_000 + 3 * k as u64, polarity)
        })
        .collect()
}

/// Re-encodes a [`one_byte_chunk`] payload with event `k`'s three varints
/// `widths(k)` bytes long: the value byte with its continuation bit set,
/// then zero groups, which every LEB128 reader decodes to the same
/// value.
fn widen(payload: &[u8], widths: impl Fn(usize) -> [usize; 3]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, event) in payload.chunks_exact(3).enumerate() {
        for (&byte, width) in event.iter().zip(widths(k)) {
            assert_eq!(byte & 0x80, 0, "one-byte varint");
            if width == 1 {
                out.push(byte);
            } else {
                out.push(byte | 0x80);
                out.extend(std::iter::repeat_n(0x80, width - 2));
                out.push(0x00);
            }
        }
    }
    out
}

/// Both decoders accept `payload` as the encoding of `events`, and agree
/// on every truncation of it.
fn assert_decodes_to(payload: &[u8], events: &[Event]) {
    let geometry = SensorGeometry::new(W, H);
    let count = u32::try_from(events.len()).unwrap();
    let (t_first, t_last) = (events[0].t, events[events.len() - 1].t);
    let (scalar, fast) = both(payload, geometry, count, t_first, t_last);
    assert_eq!(scalar.unwrap(), events);
    assert_eq!(fast.unwrap(), events);
    for cut in 0..payload.len() {
        assert_parity(&payload[..cut], geometry, count, t_first, t_last);
    }
}

#[test]
fn triples_ending_exactly_at_the_eighth_byte_decode_identically() {
    let events = one_byte_chunk(40);
    let (payload, ..) = encode(&events);
    assert_eq!(payload.len(), 3 * events.len());
    // 3 + 3 + 2 bytes: the third varint's stop bit is the top bit of the
    // one-load word. The others spill one byte past it.
    for widths in [[3, 3, 2], [2, 3, 3], [3, 2, 3], [3, 3, 3]] {
        let wide = widen(&payload, |_| widths);
        let len: usize = widths.iter().sum();
        assert!(wide.chunks_exact(len).all(|event| event[len - 1] & 0x80 == 0));
        assert_decodes_to(&wide, &events);
    }
}

#[test]
fn a_four_byte_varint_in_each_position_decodes_identically() {
    let events = one_byte_chunk(40);
    let (payload, ..) = encode(&events);
    for four in 0..3 {
        let mut widths = [1; 3];
        widths[four] = 4;
        // On one event mid-chunk, then on every event.
        assert_decodes_to(&widen(&payload, |k| if k == 20 { widths } else { [1; 3] }), &events);
        assert_decodes_to(&widen(&payload, |_| widths), &events);
    }
}

#[test]
fn value_bits_in_the_last_byte_of_a_long_varint_decode_identically() {
    // Padding groups are zero, so a decoder that dropped a varint's last
    // byte would still pass the tests above. Here the last byte of each
    // widened varint of event 20 carries a value bit. A 4-byte varint,
    // and a 3 + 3 + 3 triple that spills past the one-load word, must
    // leave the lane; a 3 + 3 + 2 triple stays in it and must decode
    // every byte. Whatever the values make of the chunk, both decoders
    // agree.
    let geometry = SensorGeometry::new(W, H);
    let (payload, count, t_first, t_last) = encode(&one_byte_chunk(40));
    for widths in [[4, 1, 1], [1, 4, 1], [1, 1, 4], [3, 3, 3], [2, 3, 3], [3, 3, 2]] {
        let mut wide = widen(&payload, |k| if k == 20 { widths } else { [1; 3] });
        let mut end = 3 * 20;
        for width in widths {
            end += width;
            if width > 1 {
                wide[end - 1] = 0x01;
            }
        }
        for cut in 0..=wide.len() {
            assert_parity(&wide[..cut], geometry, count, t_first, t_last);
        }
    }
}

#[test]
fn a_ten_byte_dt_between_lane_events_decodes_identically() {
    // The 10-byte varint sits with 60 bytes still to come, so the fast
    // loop, not the byte-loop tail, meets it.
    let mut events = one_byte_chunk(20);
    let far = events[19].t + (1 << 63);
    events.extend(one_byte_chunk(20).into_iter().map(|e| Event { t: far + e.t, ..e }));
    let (payload, ..) = encode(&events);
    assert!(payload[60..69].iter().all(|&b| b & 0x80 != 0) && payload[69] & 0x80 == 0);
    assert_decodes_to(&payload, &events);
}

#[test]
fn events_starting_with_exactly_32_or_31_bytes_left_decode_identically() {
    // Thirty 3-byte events take 90 bytes, so event 20 starts with 30
    // left. Widening the last event's `dt` by 2 (or 1) bytes puts event
    // 20 exactly on the fast loop's 32-byte watermark (or one below it).
    let events = one_byte_chunk(30);
    let (payload, ..) = encode(&events);
    let last = events.len() - 1;
    for (dt_width, left) in [(3, 32), (2, 31)] {
        let wide = widen(&payload, |k| if k == last { [dt_width, 1, 1] } else { [1; 3] });
        assert_eq!(wide.len() - 3 * 20, left);
        assert_decodes_to(&wide, &events);
    }
}

/// `dt` on both sides of every varint length step: 2^21 − 1 is the
/// lane's last 3-byte value and 2^21 its first 4-byte one; the rest run
/// up to a 10-byte varint. Each gap sits between lane events, in one
/// chunk and alone.
#[test]
fn the_encoder_matches_reference_across_the_lane_dt_limit() {
    let geometry = SensorGeometry::new(W, H);
    let mut dts = vec![0u64, 1, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21];
    dts.extend((4..=9).map(|bytes| 1u64 << (7 * bytes)));
    let mut t = 0u64;
    let mut events = Vec::new();
    for (k, &dt) in dts.iter().enumerate() {
        t += dt;
        let x = u16::try_from(k * 13 % usize::from(W)).unwrap();
        let polarity = Polarity::from_bit(u8::from(k % 2 == 1));
        events.push(Event::new(x, H - 1 - x % H, t, polarity));
        events.push(Event::on(x, 5, t + 3));
        t += 3;
    }
    assert_encodes_like_reference(&events, geometry);
    for &dt in &dts {
        assert_encodes_like_reference(&[Event::on(1, 2, 0), Event::off(3, 4, dt)], geometry);
    }
    // The gap's varint is as wide as the reference makes it: 2^21 - 1 in
    // 3 bytes, 2^21 in 4 and 2^63 in 10.
    let width = |dt| {
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &[Event::on(0, 0, 0), Event::on(0, 0, dt)]);
        payload.len() - 3 - 2
    };
    assert_eq!([width((1 << 21) - 1), width(1 << 21), width(1 << 63)], [3, 4, 10]);
}

/// Steps between the corners of each sensor in [`GEOMETRIES`] and of
/// a square `u16::MAX` array: the largest column and row deltas an
/// event can carry, all still inside the lane's 3-byte coordinate
/// varints.
#[test]
fn the_encoder_matches_reference_at_the_array_corners() {
    for (w, h) in GEOMETRIES.into_iter().chain([(u16::MAX, u16::MAX)]) {
        let geometry = SensorGeometry::new(w, h);
        let corners = [(0, 0), (w - 1, h - 1), (0, h - 1), (w - 1, 0), (0, 0), (w - 1, h - 1)];
        let events: Vec<Event> = (0..60u64)
            .map(|k| {
                let (x, y) = corners[k as usize % corners.len()];
                Event::new(x, y, 10 * k, Polarity::from_bit(u8::from(k % 3 == 0)))
            })
            .collect();
        assert_encodes_like_reference(&events, geometry);
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        assert!(payload.len() <= 7 * events.len(), "{w}x{h}: {} bytes", payload.len());
    }
}

/// One-event chunks, and chunks many times longer than the encoder's
/// 1 KiB block, with long gaps landing just before, on and after the
/// points where the block is appended to the output.
#[test]
fn the_encoder_matches_reference_on_one_event_and_multi_block_chunks() {
    for (w, h) in GEOMETRIES {
        let geometry = SensorGeometry::new(w, h);
        for (x, y, t) in [(0, 0, 0), (w - 1, h - 1, 1 << 40), (w / 2, 0, u64::MAX)] {
            assert_encodes_like_reference(&[Event::off(x, y, t)], geometry);
        }
    }
    let geometry = SensorGeometry::new(W, H);
    let dense = one_byte_chunk(5_000);
    assert_encodes_like_reference(&dense, geometry);
    // 3-byte events fill the block after 342 of them; put a 4-byte gap
    // on each event around that point, and every 700 events after.
    for gap_at in [340, 341, 342, 343, 344, 700, 1_400] {
        let mut events = dense.clone();
        let mut shift = 0;
        for (k, e) in events.iter_mut().enumerate() {
            if k == gap_at || (k > gap_at && (k - gap_at) % 700 == 0) {
                shift += 1 << 21;
            }
            e.t += shift;
        }
        assert_encodes_like_reference(&events, geometry);
    }
}

/// The slice-by-16 CRC equals the reference for every length 0..=80 at
/// every start offset 0..16 of one buffer: every remainder after the
/// 16-byte rounds, up to five rounds, at every alignment. Payloads are
/// checked where they lie — the reader lends them in place, and `EBWP`
/// checks a body 24 bytes into its frame.
#[test]
fn crc32_matches_reference_at_every_length_and_offset() {
    let bytes: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
    for offset in 0..16 {
        for len in 0..=80 {
            let slice = &bytes[offset..offset + len];
            assert_eq!(crc32(slice), crc32_reference(slice), "offset {offset}, len {len}");
        }
    }
}

/// `(count, t_last)` for a payload of whole varint triples starting at
/// `t_first`, read with the reference varint reader; `t_last` saturates
/// where the timestamps would overflow.
fn frame_fields(payload: &[u8], t_first: u64) -> (u32, u64) {
    let (mut pos, mut count, mut t) = (0, 0u32, t_first);
    while pos < payload.len() {
        t = t.saturating_add(read_varint(payload, &mut pos).expect("whole varints"));
        for _ in 0..2 {
            read_varint(payload, &mut pos).expect("whole varints");
        }
        count += 1;
    }
    (count, t)
}

/// Appends one event's three canonical varints: the time step, the
/// column step and the row step with `polarity` in bit 0.
fn push_event(payload: &mut Vec<u8>, dt: u64, dx: i64, dy: i64, polarity: bool) {
    write_varint(payload, dt);
    write_varint(payload, zigzag(dx));
    write_varint(payload, zigzag(dy) << 1 | u64::from(polarity));
}

/// Every continuation-bit pattern of the lane's one-load word, with
/// value bytes 0x00 (non-canonical zeros: every pattern decodes to
/// valid events) and 0x7f (large steps: most patterns step off the
/// array). Event 0 sits in the middle of the array and the word starts
/// event 1 with more than 32 bytes left, where the lane takes over;
/// zero bytes after it close any varint left open and fill the chunk
/// with more lane events.
#[test]
fn every_continuation_bit_pattern_decodes_identically() {
    let geometry = SensorGeometry::new(W, H);
    for value in [0x00u8, 0x7f] {
        for bits in 0..=255u8 {
            let mut payload = Vec::new();
            push_event(&mut payload, 0, 120, 90, true);
            payload.extend((0..8).map(|i| value | (bits >> i & 1) << 7));
            payload.extend([0; 36]);
            // Whole triples only: pad with zero varints.
            let mut varints = 0;
            let mut pos = 0;
            while pos < payload.len() {
                read_varint(&payload, &mut pos).expect("the zeros close every varint");
                varints += 1;
            }
            payload.extend(std::iter::repeat_n(0, (3 - varints % 3) % 3));
            let t_first = 1_000;
            let (count, t_last) = frame_fields(&payload, t_first);
            assert_parity(&payload, geometry, count, t_first, t_last);
            if value == 0 {
                let (scalar, fast) = both(&payload, geometry, count, t_first, t_last);
                let events = scalar.expect("zero steps stay on the array");
                assert_eq!(events.len(), count as usize);
                assert_eq!(fast.expect("zero steps stay on the array"), events, "bits {bits:08b}");
            }
        }
    }
}

/// The lane runs only while the timestamp is at most `u64::MAX − 2^21`.
/// Chunks starting just below, at and above that guard, with `Δt` of 1,
/// 127 and 2^21 − 1 (the largest lane step), decode identically; the
/// ones whose timestamps pass `u64::MAX` fail with the same "timestamp
/// overflow" on both sides.
#[test]
fn timestamps_near_u64_max_leave_the_lane_and_overflow_identically() {
    let geometry = SensorGeometry::new(W, H);
    let guard = u64::MAX - (1 << 21);
    for t_first in [guard - (1 << 21), guard - 1, guard, guard + 1, u64::MAX - 1_000, u64::MAX] {
        for dt in [1u64, 127, (1 << 21) - 1] {
            let mut payload = Vec::new();
            push_event(&mut payload, 0, 5, 5, false);
            for k in 0..40 {
                push_event(&mut payload, dt, if k % 2 == 0 { 1 } else { -1 }, 0, k % 3 == 0);
            }
            let (count, t_last) = frame_fields(&payload, t_first);
            let (scalar, fast) = both(&payload, geometry, count, t_first, t_last);
            let overflows = t_first.checked_add(40 * dt).is_none();
            match (scalar, fast) {
                (Ok(a), Ok(b)) => {
                    assert!(!overflows, "t_first {t_first}, dt {dt} must overflow");
                    assert_eq!(a, b, "t_first {t_first}, dt {dt}");
                    assert_eq!(a.last().map(|e| e.t), Some(t_last));
                }
                (Err(a), Err(b)) => {
                    assert!(overflows, "t_first {t_first}, dt {dt}: {a}");
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "t_first {t_first}, dt {dt}");
                    assert!(a.to_string().contains("timestamp overflow"), "{a}");
                }
                (a, b) => panic!("acceptance diverges: scalar {a:?} vs fast {b:?}"),
            }
        }
    }
}

/// A first event with `Δt ≠ 0` is rejected on the checked path before
/// the lane starts, with one- to three-byte steps and enough bytes after
/// it for the word loads.
#[test]
fn a_first_event_with_nonzero_dt_is_rejected_identically() {
    let geometry = SensorGeometry::new(W, H);
    for dt in [1u64, 127, 128, (1 << 21) - 1, 1 << 40] {
        let mut payload = Vec::new();
        push_event(&mut payload, dt, 7, 7, true);
        for _ in 0..20 {
            push_event(&mut payload, 1, 1, 1, false);
        }
        let (count, t_last) = frame_fields(&payload, 50);
        let (scalar, fast) = both(&payload, geometry, count, 50, t_last);
        let (a, b) = (scalar.unwrap_err(), fast.unwrap_err());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "dt {dt}");
        assert!(a.to_string().contains("does not start at t_first"), "{a}");
    }
}

/// Lane steps onto column 0, row 0, the last column and the last row are
/// accepted, and one step past any of the four edges is the same
/// `OutOfBounds { x, y }` on both sides, on each sensor in
/// [`GEOMETRIES`]: the lane's unsigned compare must see `-1` as off
/// the array.
#[test]
fn coordinates_stepping_onto_and_past_the_edges_decode_identically() {
    for (w, h) in GEOMETRIES {
        let geometry = SensorGeometry::new(w, h);
        let (w, h) = (i64::from(w), i64::from(h));
        let (x0, y0) = (w / 2, h / 2);
        // Onto each edge and back to the middle.
        let edges = [(0, y0), (w - 1, y0), (x0, 0), (x0, h - 1), (0, 0), (w - 1, h - 1)];
        let past = [(-1, y0), (w, y0), (x0, -1), (x0, h), (-1, h), (w, -1)];
        for (k, (px, py)) in past.into_iter().enumerate() {
            // Onto the edge next to `(px, py)`, then (or not) one past
            // it and back, so a decoder that let the step through ends on
            // the array, then enough lane events for the word loads.
            let (nx, ny) = (px.clamp(0, w - 1), py.clamp(0, h - 1));
            let build = |one_past: bool| {
                let mut payload = Vec::new();
                push_event(&mut payload, 0, x0, y0, false);
                let (mut x, mut y) = (x0, y0);
                for (ex, ey) in edges.into_iter().chain([(x0, y0), (nx, ny)]) {
                    push_event(&mut payload, 3, ex - x, ey - y, true);
                    (x, y) = (ex, ey);
                }
                if one_past {
                    push_event(&mut payload, 1, px - nx, py - ny, true);
                    push_event(&mut payload, 1, nx - px, ny - py, true);
                }
                for _ in 0..12 {
                    push_event(&mut payload, 1, 0, 0, false);
                }
                payload
            };
            let payload = build(true);
            let (count, t_last) = frame_fields(&payload, 0);
            let (scalar, fast) = both(&payload, geometry, count, 0, t_last);
            let (a, b) = (scalar.unwrap_err(), fast.unwrap_err());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{w}x{h}, case {k}");
            assert!(
                matches!(a, StoreError::OutOfBounds { chunk: 3, x, y } if (x, y) == (px, py)),
                "{w}x{h}, case {k}: {a:?}"
            );
            let on_array = build(false);
            let (count, t_last) = frame_fields(&on_array, 0);
            let (scalar, fast) = both(&on_array, geometry, count, 0, t_last);
            let events = scalar.expect("every step lands on the array");
            assert_eq!(fast.expect("every step lands on the array"), events);
            assert!(events.iter().any(|e| (i64::from(e.x), i64::from(e.y)) == (nx, ny)));
        }
    }
}
