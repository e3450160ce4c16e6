//! Property tests pinning the bit-packed chunk codec
//! ([`encode_chunk_payload`] / [`decode_chunk_payload`]) to a
//! bit-at-a-time model of the `EBST` v2 payload written in this file:
//! the same bytes out of both encoders for every chunk, the same events
//! out of every valid payload, and the same error out of every corrupt
//! one (truncation and bit flips at every byte, lying frame metadata,
//! random bit streams under every width triple). Around the decoder's
//! one-load path: events whose bits end exactly at the loaded word's
//! last bit, events within a load of the payload's end, fields at their
//! widest and with only their top bit set, `Δt` of 2^40 µs and more
//! (the two-word path), timestamps near `u64::MAX`, a first event with
//! `Δt ≠ 0`, and coordinates stepping onto and one past each edge of the
//! array. One crafted payload per rejection rule asserts its exact
//! error; version-1 files and HELLOs are rejected, and
//! [`MAX_CHUNK_EVENTS`] is enforced before anything is allocated on the
//! reader and the wire path alike. The slice-by-16 CRC is pinned to its
//! one-byte-at-a-time reference at every length and alignment, and a
//! `RecordingWriter` writes the same file however its input is split.

use std::io::Cursor;

use ebbiot::events::{Event, Polarity, SensorGeometry};
use ebbiot::server::{
    read_frame, write_frame, EventsChunk, Frame, FrameReader, FrameRef, Hello, WireError,
};
use ebbiot::store::format::{
    crc32, crc32_reference, decode_chunk_payload, encode_chunk_payload, payload_len, zigzag,
    CHUNK_FRAME_BYTES, END_MAGIC, HEADER_FIXED_BYTES, MAGIC, MAX_CHUNK_EVENTS, MAX_WIDTHS, VERSION,
    WIDTH_BYTES,
};
use ebbiot::store::{ChunkReader, RecordingWriter, StoreError, StoreOptions};
use proptest::prelude::*;

const W: u16 = 240;
const H: u16 = 180;

// --- the bit-at-a-time model -----------------------------------------

/// Each event's three fields against its predecessor: `Δt`,
/// `zigzag(Δx)` and `zigzag(Δy) << 1 | polarity`.
fn model_fields(events: &[Event]) -> Vec<[u64; 3]> {
    let (mut t, mut x, mut y) = (events[0].t, 0i64, 0i64);
    events
        .iter()
        .map(|e| {
            let (ex, ey) = (i64::from(e.x), i64::from(e.y));
            let fields =
                [e.t - t, zigzag(ex - x), zigzag(ey - y) << 1 | u64::from(e.polarity.bit())];
            (t, x, y) = (e.t, ex, ey);
            fields
        })
        .collect()
}

/// Appends `width` bits of `value`, lowest first, to a bit vector.
fn push_bits(bits: &mut Vec<bool>, value: u64, width: u8) {
    bits.extend((0..width).map(|k| value >> k & 1 == 1));
}

/// Packs a bit vector into bytes, least significant bit first, with the
/// last byte zero-padded.
fn pack(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|byte| byte.iter().enumerate().fold(0u8, |b, (k, &bit)| b | u8::from(bit) << k))
        .collect()
}

/// The payload of `fields` at `widths`: the width bytes, then every
/// field one bit at a time.
fn model_payload(fields: &[[u64; 3]], widths: [u8; 3]) -> Vec<u8> {
    let mut bits = Vec::new();
    for event in fields {
        for (&value, width) in event.iter().zip(widths) {
            push_bits(&mut bits, value, width);
        }
    }
    let mut payload = widths.to_vec();
    payload.extend(pack(&bits));
    payload
}

/// The `EBST` v2 encoder, spelled out: the fewest bits that hold each
/// field over the chunk (`wy ≥ 1`), then [`model_payload`].
fn model_encode(events: &[Event]) -> Vec<u8> {
    let fields = model_fields(events);
    let width = |k: usize| fields.iter().map(|f| 64 - f[k].leading_zeros()).max().unwrap() as u8;
    model_payload(&fields, [width(0), width(1), width(2).max(1)])
}

/// The `EBST` v2 decoder, spelled out: every rule in the order the
/// format states them, every field read one bit at a time.
fn model_decode(
    payload: &[u8],
    geometry: SensorGeometry,
    count: u32,
    t_first: u64,
    t_last: u64,
) -> Result<Vec<Event>, StoreError> {
    let corrupt = |reason| StoreError::CorruptChunk { chunk: 3, reason };
    let count = count as usize;
    if count > MAX_CHUNK_EVENTS {
        return Err(corrupt("event count exceeds MAX_CHUNK_EVENTS"));
    }
    if payload.len() < WIDTH_BYTES {
        return Err(corrupt("payload shorter than its field widths"));
    }
    let widths = [payload[0], payload[1], payload[2]];
    if (0..3).any(|k| widths[k] > MAX_WIDTHS[k]) || widths[2] == 0 {
        return Err(corrupt("field width out of range"));
    }
    let event_bits: usize = widths.iter().map(|&w| usize::from(w)).sum();
    let data = &payload[WIDTH_BYTES..];
    if data.len() != (count * event_bits).div_ceil(8) {
        return Err(corrupt("payload length does not match event count and widths"));
    }
    let bit = |k: usize| data[k / 8] >> (k % 8) & 1 == 1;
    if (count * event_bits..8 * data.len()).any(bit) {
        return Err(corrupt("non-zero padding bits"));
    }
    let mut pos = 0;
    let mut read = |width: u8| {
        let value = (0..width).fold(0u64, |v, k| v | u64::from(bit(pos + usize::from(k))) << k);
        pos += usize::from(width);
        value
    };
    let (mut t, mut x, mut y) = (t_first, 0i64, 0i64);
    let mut events = Vec::new();
    for i in 0..count {
        let [dt, dx, dyp] = widths.map(&mut read);
        if i == 0 && dt != 0 {
            return Err(corrupt("first event does not start at t_first"));
        }
        t = t.checked_add(dt).ok_or_else(|| corrupt("timestamp overflow"))?;
        x += (dx >> 1) as i64 ^ -((dx & 1) as i64);
        y += (dyp >> 2) as i64 ^ -((dyp >> 1 & 1) as i64);
        if !((0..i64::from(geometry.width())).contains(&x)
            && (0..i64::from(geometry.height())).contains(&y))
        {
            return Err(StoreError::OutOfBounds { chunk: 3, x, y });
        }
        events.push(Event::new(x as u16, y as u16, t, Polarity::from_bit((dyp & 1) as u8)));
    }
    if t != t_last {
        return Err(corrupt("last event does not end at t_last"));
    }
    Ok(events)
}

// --- harness -----------------------------------------------------------

/// A time-ordered in-bounds chunk whose `Δt` widths span the whole
/// range: `dt_shift` scales the time deltas from a few bits up to 64,
/// so chunks with a `Δt` of 2^40 µs and more take the two-word path.
fn arb_chunk(max_len: usize) -> impl Strategy<Value = Vec<Event>> {
    let step = (0u64..128, 0u32..64, 0..W, 0..H, any::<bool>());
    (proptest::collection::vec(step, 1..max_len), 0u32..8).prop_map(|(steps, width_mix)| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, dt_shift, x, y, on)| {
                // Mix wide time deltas into some chunks, saturating so
                // the running timestamp never overflows.
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
/// column or row (the largest steps a chunk can hold), and `Δt` is
/// small, just either side of a power of two between 2^30 and 2^45
/// (where the event leaves the one-load path on these arrays), or of
/// any width up to 64 bits.
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
                    1 => (1 << (30 + bits % 16)) - 1 + (bits >> 8) % 2,
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

/// The encoder writes exactly the model's bytes for `events`, and the
/// decoder turns them back into `events` on `geometry`.
fn assert_encodes_like_model(events: &[Event], geometry: SensorGeometry) {
    let mut payload = vec![0xAA; 7];
    encode_chunk_payload(&mut payload, events);
    assert_eq!(payload, model_encode(events), "encoder diverges from the model");
    let (count, t_first, t_last) = frame_fields(events);
    let mut decoded = vec![Event::on(0, 0, 0)];
    decode_chunk_payload(&mut decoded, &payload, 0, geometry, count, t_first, t_last).unwrap();
    assert_eq!(decoded, events, "round trip");
}

/// The `(count, t_first, t_last)` a well-formed `EBST` chunk frame or
/// `EBWP` EVENTS frame would carry for `events`.
fn frame_fields(events: &[Event]) -> (u32, u64, u64) {
    (u32::try_from(events.len()).unwrap(), events[0].t, events[events.len() - 1].t)
}

/// Encodes a chunk and returns `(payload, count, t_first, t_last)`.
fn encode(events: &[Event]) -> (Vec<u8>, u32, u64, u64) {
    let mut payload = Vec::new();
    encode_chunk_payload(&mut payload, events);
    let (count, t_first, t_last) = frame_fields(events);
    (payload, count, t_first, t_last)
}

/// The decoder and the model on the same input.
fn both(
    payload: &[u8],
    geometry: SensorGeometry,
    count: u32,
    t_first: u64,
    t_last: u64,
) -> (Result<Vec<Event>, StoreError>, Result<Vec<Event>, StoreError>) {
    let mut decoded = vec![Event::on(1, 1, 1)];
    let codec = decode_chunk_payload(&mut decoded, payload, 3, geometry, count, t_first, t_last)
        .map(|()| decoded);
    (codec, model_decode(payload, geometry, count, t_first, t_last))
}

/// The decoder and the model agree on `payload`: the same events, or
/// the same error (compared by debug rendering: variant and fields).
fn assert_parity(payload: &[u8], geometry: SensorGeometry, count: u32, t_first: u64, t_last: u64) {
    match both(payload, geometry, count, t_first, t_last) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "decoded events diverge"),
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "errors diverge"),
        (a, b) => panic!("acceptance diverges: codec {a:?} vs model {b:?}"),
    }
}

/// Both sides accept `payload` as the encoding of `events`, and agree on
/// every truncation of it.
fn assert_decodes_to(payload: &[u8], events: &[Event]) {
    let geometry = SensorGeometry::new(W, H);
    let (count, t_first, t_last) = frame_fields(events);
    let (codec, model) = both(payload, geometry, count, t_first, t_last);
    assert_eq!(codec.unwrap(), events);
    assert_eq!(model.unwrap(), events);
    for cut in 0..payload.len() {
        assert_parity(&payload[..cut], geometry, count, t_first, t_last);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Valid payloads: the decoder and the model accept them and give
    // back the original events, `Δt` of 2^40 µs and more included.
    #[test]
    fn fast_decoder_matches_scalar_on_valid_chunks(events in arb_chunk(200)) {
        let geometry = SensorGeometry::new(W, H);
        let (payload, count, t_first, t_last) = encode(&events);
        let (codec, model) = both(&payload, geometry, count, t_first, t_last);
        prop_assert_eq!(codec.unwrap(), events.clone());
        prop_assert_eq!(model.unwrap(), events);
    }

    // Truncation at *every* byte of a valid payload: the same error on
    // both sides, never a panic.
    #[test]
    fn truncated_payloads_are_rejected_identically(events in arb_chunk(40)) {
        let geometry = SensorGeometry::new(W, H);
        let (payload, count, t_first, t_last) = encode(&events);
        for cut in 0..payload.len() {
            assert_parity(&payload[..cut], geometry, count, t_first, t_last);
        }
    }

    // The same byte corruption at *every* byte of a valid payload:
    // whatever the model makes of it (accept, reject, reject later),
    // the decoder makes of it too, and neither panics.
    #[test]
    fn bit_flips_are_handled_identically(events in arb_chunk(100), xor in 1u16..256) {
        let geometry = SensorGeometry::new(W, H);
        let (payload, count, t_first, t_last) = encode(&events);
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= xor as u8;
            assert_parity(&flipped, geometry, count, t_first, t_last);
        }
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
    // violations surface identically, at the same event.
    #[test]
    fn out_of_geometry_events_are_rejected_identically(
        events in arb_chunk(60),
        w in 1..W,
        h in 1..H,
    ) {
        let (payload, count, t_first, t_last) = encode(&events);
        assert_parity(&payload, SensorGeometry::new(w, h), count, t_first, t_last);
    }

    // Arbitrary garbage bytes with arbitrary frame metadata.
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

    // Random bit streams of exactly the declared length, under random
    // in-range widths, with the first `Δt` and the padding zeroed or
    // not: they reach the per-event rules, where most step off the
    // array or overflow, identically on both sides.
    #[test]
    fn random_bit_streams_are_handled_identically(
        widths in (0u8..65, 0u8..18, 1u8..19),
        count in 1usize..60,
        seed in proptest::collection::vec(any::<u8>(), 1..64),
        zero_first_dt in any::<bool>(),
        zero_padding in any::<bool>(),
        t_last in any::<u64>(),
    ) {
        let widths = [widths.0, widths.1, widths.2];
        let event_bits: usize = widths.iter().map(|&w| usize::from(w)).sum();
        let len = payload_len(count, event_bits);
        let mut payload: Vec<u8> =
            widths.into_iter().chain(seed.iter().copied().cycle()).take(len).collect();
        let mut bits: Vec<bool> =
            payload[WIDTH_BYTES..].iter().flat_map(|&b| (0..8).map(move |k| b >> k & 1 == 1)).collect();
        if zero_first_dt {
            bits[..usize::from(widths[0])].fill(false);
        }
        if zero_padding {
            bits[count * event_bits..].fill(false);
        }
        payload.truncate(WIDTH_BYTES);
        payload.extend(pack(&bits));
        for geometry in [SensorGeometry::new(W, H), SensorGeometry::new(u16::MAX, u16::MAX)] {
            assert_parity(&payload, geometry, count as u32, 0, t_last);
        }
    }

    // The encoder == the model, byte for byte, over the decode suite's
    // full `Δt` range and over array-edge chunks whose `Δt` crosses the
    // one-load limit.
    #[test]
    fn fast_encoder_matches_reference_on_valid_chunks(
        events in arb_chunk(200),
        (geometry, edge_events) in arb_edge_chunk(300),
    ) {
        assert_encodes_like_model(&events, SensorGeometry::new(W, H));
        assert_encodes_like_model(&edge_events, geometry);
    }

    // A `RecordingWriter` writes the same file whether its input comes
    // in one slice or in random pieces, and every chunk in it is the
    // model's encoding of its events under the reference CRC.
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
        for chunk in events.chunks(chunk_events) {
            let model = model_encode(chunk);
            let frame = &whole[offset..offset + CHUNK_FRAME_BYTES];
            prop_assert_eq!(&frame[20..24], &(model.len() as u32).to_le_bytes());
            prop_assert_eq!(&frame[24..28], &crc32_reference(&model).to_le_bytes());
            let payload = offset + CHUNK_FRAME_BYTES;
            prop_assert_eq!(&whole[payload..payload + model.len()], &model[..]);
            offset = payload + model.len();
        }
    }

    // Slice-by-16 CRC == one-byte-at-a-time reference on arbitrary
    // bytes (lengths cross the 16-byte fold boundary both ways).
    #[test]
    fn crc32_matches_reference(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
    }
}

/// A chunk of `n` events with small steps near the middle of the array.
fn small_step_chunk(n: usize, t0: u64) -> Vec<Event> {
    (0..n)
        .map(|k| {
            let small = u16::try_from(k % 5).unwrap();
            let polarity = Polarity::from_bit(u8::from(k % 2 == 1));
            Event::new(100 + small, 90 - small % 3, t0 + 3 * k as u64, polarity)
        })
        .collect()
}

/// The fields of `events`, with every event's fields rewritten at
/// `widths` by [`model_payload`]: a payload the encoder would only write
/// for wider data, which every decoder must read the same.
fn widened(events: &[Event], widths: [u8; 3]) -> Vec<u8> {
    model_payload(&model_fields(events), widths)
}

/// Every width the format allows for `Δt` and the widest for the
/// coordinates, the narrowest ones the encoder picks, and a `Δt` gap of
/// 2^63 µs (all 64 bits): each decodes on both sides, truncations too.
#[test]
fn field_width_extremes_decode_identically() {
    // A gap of 2^63 µs forces wt = 64: every event is 64 + 9 + 10 bits.
    let wide = vec![Event::on(0, 0, 1), Event::off(W - 1, H - 1, 1 + (1u64 << 63))];
    // One pixel, one polarity: wt = wx = 0 and wy = 1 (the polarity
    // bit), one bit per event.
    let narrow = vec![Event::off(0, 0, 7); 30];
    for events in [wide, narrow] {
        let (payload, ..) = encode(&events);
        assert_decodes_to(&payload, &events);
    }
    let narrow = encode(&[Event::off(0, 0, 7); 30]).0;
    assert_eq!((narrow[..WIDTH_BYTES].to_vec(), narrow.len()), (vec![0, 0, 1], 3 + 4));
    let events = small_step_chunk(40, 1_000);
    for wt in 2..=64 {
        for widths in [[wt, 17, 18], [wt, 8, 9]] {
            assert_decodes_to(&widened(&events, widths), &events);
        }
    }
}

/// Two runs of `n` small-step events `gap` µs apart: the gap is the only
/// wide `Δt` of the chunk.
fn gapped_chunk(n: usize, gap: u64) -> Vec<Event> {
    let mut events = small_step_chunk(n, 0);
    let far = events[n - 1].t + gap;
    events.extend(small_step_chunk(n, far));
    events
}

/// A gap on both sides of every length step of the `EBST` v1 varint
/// (2^(7k) − 1 and 2^(7k) µs, from one byte up to the ten bytes of
/// 2^63), and column and row moves of ±63 and ±64 (the widest and
/// narrowest one- and two-byte `zigzag` varints). In v2 each gap sets
/// the chunk's `wt` to its bit width; every chunk encodes to the model's
/// bytes and decodes identically, truncations too.
#[test]
fn varint_width_extremes_decode_identically() {
    let geometry = SensorGeometry::new(W, H);
    let mut gaps = vec![0u64];
    gaps.extend((1..=9).flat_map(|k| [(1u64 << (7 * k)) - 1, 1 << (7 * k)]));
    for gap in gaps {
        let events = gapped_chunk(10, gap);
        assert_encodes_like_model(&events, geometry);
        let wt = (64 - gap.leading_zeros()).max(2);
        assert_eq!(u32::from(encode(&events).0[0]), wt, "gap {gap}");
        assert_decodes_to(&encode(&events).0, &events);
    }
    for step in [63u16, 64] {
        let events = vec![
            Event::on(100, 90, 0),
            Event::off(100 + step, 90 + step, 1),
            Event::on(100, 90, 2),
            Event::off(100 - step, 90 - step, 3),
        ];
        assert_encodes_like_model(&events, geometry);
        assert_decodes_to(&encode(&events).0, &events);
    }
}

/// A gap of 2^63 µs (a ten-byte varint in `EBST` v1) between two runs of
/// events the one-load path would decode alone: the gap widens `wt` to
/// 64, which moves the whole chunk onto the two-word path, and both
/// sides decode it identically, truncations too.
#[test]
fn a_ten_byte_dt_between_lane_events_decodes_identically() {
    let runs = small_step_chunk(40, 0);
    let narrow: [u8; 3] = encode(&runs).0[..WIDTH_BYTES].try_into().unwrap();
    assert!(narrow.iter().map(|&w| u32::from(w)).sum::<u32>() <= 57, "{narrow:?}");
    let events = gapped_chunk(20, 1 << 63);
    let (payload, ..) = encode(&events);
    assert_eq!(payload[..WIDTH_BYTES], [64, narrow[1], narrow[2]]);
    assert_decodes_to(&payload, &events);
}

/// Each field of an event mid-chunk at its widest (`wt = 64`, `wx = 17`,
/// `wy = 18`), the others as narrow as the data allows.
#[test]
fn a_full_width_field_in_each_position_decodes_identically() {
    let events = small_step_chunk(40, 1_000);
    let narrow: [u8; 3] = encode(&events).0[..WIDTH_BYTES].try_into().unwrap();
    for k in 0..3 {
        let mut widths = narrow;
        widths[k] = MAX_WIDTHS[k];
        assert_decodes_to(&widened(&events, widths), &events);
    }
}

/// Only the top bit of one field set, at every width: a decoder whose
/// mask or shift dropped a field's last bit would pass the tests above.
/// The values make most chunks step off the array or overflow; whatever
/// they make of it, both sides agree.
#[test]
fn value_bits_in_the_top_bit_of_each_field_decode_identically() {
    let geometry = SensorGeometry::new(u16::MAX, u16::MAX);
    let events = small_step_chunk(12, 1_000);
    let mut fields = model_fields(&events);
    for k in 0..3 {
        for width in 1..=MAX_WIDTHS[k] {
            let mut widths = [64, 17, 18];
            widths[k] = width;
            let saved = fields[6][k];
            fields[6][k] = 1 << (width - 1);
            let payload = model_payload(&fields, widths);
            fields[6][k] = saved;
            let t_last = events[11].t;
            for cut in [payload.len(), payload.len() - 1] {
                assert_parity(&payload[..cut], geometry, 12, 1_000, t_last);
            }
        }
    }
}

/// Events whose bits end exactly at the last bit of the one-load path's
/// word: at 57 bits per event, event `i` starts `57·i mod 8` bits into
/// its first byte, and every eighth event starts 7 bits in and ends on
/// bit 63 of its load. At 58 bits the chunk takes the two-word path.
#[test]
fn triples_ending_exactly_at_the_eighth_byte_decode_identically() {
    let events = small_step_chunk(40, 1_000);
    for widths in [[38, 9, 10], [39, 9, 10], [22, 17, 18], [23, 17, 18]] {
        let payload = widened(&events, widths);
        let bits: usize = widths.iter().map(|&w| usize::from(w)).sum();
        if bits == 57 {
            assert!((0..40).any(|i| (i * bits) % 8 + bits == 64));
        }
        assert_decodes_to(&payload, &events);
    }
}

/// The last events of a chunk lie within one load (8 bytes, or 16 on the
/// two-word path) of the payload's end and read a zero-padded copy of
/// the tail. Chunks of every length 1..=24 at narrow, one-load-limit and
/// two-word widths put the first such event at every offset.
#[test]
fn events_starting_within_a_load_of_the_end_decode_identically() {
    let all = small_step_chunk(24, 1_000);
    for n in 1..=all.len() {
        let events = &all[..n];
        for widths in [[2, 8, 9], [38, 9, 10], [64, 17, 18]] {
            assert_decodes_to(&widened(events, widths), events);
        }
        assert_decodes_to(&encode(events).0, events);
    }
}

/// Every width triple the format allows (`wt` 0..=64, `wx` 0..=17, `wy`
/// 1..=18): a chunk of zero steps, every field stored at those widths,
/// decodes on both sides to the same events, and its first truncation
/// is the same error.
#[test]
fn every_width_triple_decodes_identically() {
    let geometry = SensorGeometry::new(W, H);
    let events = vec![Event::on(0, 0, 5); 9];
    let fields = model_fields(&events);
    for wt in 0..=64 {
        for wx in 0..=17 {
            for wy in 1..=18 {
                let payload = model_payload(&fields, [wt, wx, wy]);
                let (codec, model) = both(&payload, geometry, 9, 5, 5);
                assert_eq!(codec.unwrap(), events, "widths {wt}/{wx}/{wy}");
                assert_eq!(model.unwrap(), events);
                assert_parity(&payload[..payload.len() - 1], geometry, 9, 5, 5);
            }
        }
    }
}

/// `Δt` on both sides of the one-load lane's limit. Sixteen events
/// alternate between the corners of a 240×180 array, so every chunk's
/// coordinates take 9 + 10 bits, and one gap sets `wt`: from 34 to 42
/// bits, the events take 53 to 61, across the 57 where both the
/// decoder's one `u64` load and the encoder's `u64` accumulator end.
/// An odd width visits every bit offset within a byte. Then `Δt` pairs
/// from 0 to 2^63 µs alone, each with `wt` exactly its bit width.
#[test]
fn the_encoder_matches_reference_across_the_lane_dt_limit() {
    let geometry = SensorGeometry::new(W, H);
    for wt in 34..=42 {
        let gap = (1u64 << wt) - 2;
        let events: Vec<Event> = (0..16u64)
            .map(|k| {
                let (x, y) = if k % 2 == 0 { (0, 0) } else { (W - 1, H - 1) };
                let t = k + if k >= 8 { gap } else { 0 };
                Event::new(x, y, t, Polarity::from_bit(u8::from(k % 3 == 0)))
            })
            .collect();
        assert_encodes_like_model(&events, geometry);
        assert_eq!(encode(&events).0[..WIDTH_BYTES], [wt, 9, 10]);
    }
    let mut dts = vec![0u64, 1, 127, 128];
    dts.extend([36, 37, 38, 39, 40, 41].iter().flat_map(|&b| [(1u64 << b) - 1, 1 << b]));
    dts.push(1 << 63);
    for &dt in &dts {
        let pair = [Event::on(1, 2, 0), Event::off(3, 4, dt)];
        assert_encodes_like_model(&pair, geometry);
        assert_eq!(u32::from(encode(&pair).0[0]), 64 - dt.leading_zeros(), "dt {dt}");
    }
}

/// Steps between the corners of each sensor in [`GEOMETRIES`] and of a
/// square `u16::MAX` array: the largest column and row steps an event
/// can carry, at most 17 + 18 bits.
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
        assert_encodes_like_model(&events, geometry);
        let mut payload = Vec::new();
        encode_chunk_payload(&mut payload, &events);
        assert!(payload.len() <= 3 + 6 * events.len(), "{w}x{h}: {} bytes", payload.len());
    }
}

/// One-event chunks, and chunks thousands of times longer than the
/// encoder's 16-byte accumulator block, at narrow and two-word widths.
#[test]
fn the_encoder_matches_reference_on_one_event_and_multi_block_chunks() {
    for (w, h) in GEOMETRIES {
        let geometry = SensorGeometry::new(w, h);
        for (x, y, t) in [(0, 0, 0), (w - 1, h - 1, 1 << 40), (w / 2, 0, u64::MAX)] {
            assert_encodes_like_model(&[Event::off(x, y, t)], geometry);
        }
    }
    let geometry = SensorGeometry::new(W, H);
    let dense = small_step_chunk(5_000, 0);
    assert_encodes_like_model(&dense, geometry);
    for gap_at in [1, 2_500, 4_999] {
        let mut events = dense.clone();
        events[gap_at..].iter_mut().for_each(|e| e.t += 1 << 50);
        assert_encodes_like_model(&events, geometry);
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

/// Chunks starting near `u64::MAX` with `Δt` of 1, 127 and 2^21 − 1:
/// the ones whose timestamps pass `u64::MAX` fail with "timestamp
/// overflow" on both sides, the rest decode identically.
#[test]
fn timestamps_near_u64_max_overflow_identically() {
    let geometry = SensorGeometry::new(W, H);
    for t_first in [u64::MAX - (1 << 22), u64::MAX - 1_000, u64::MAX - 40, u64::MAX] {
        for dt in [1u64, 127, (1 << 21) - 1] {
            let fields: Vec<[u64; 3]> = [[0, zigzag(5), zigzag(5) << 1]]
                .into_iter()
                .chain((0..40).map(|k| [dt, zigzag(if k % 2 == 0 { 1 } else { -1 }), 1]))
                .collect();
            let payload = model_payload(&fields, [21, 4, 5]);
            let t_last = t_first.saturating_add(40 * dt);
            let (codec, model) = both(&payload, geometry, 41, t_first, t_last);
            let overflows = t_first.checked_add(40 * dt).is_none();
            match (codec, model) {
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
                (a, b) => panic!("acceptance diverges: codec {a:?} vs model {b:?}"),
            }
        }
    }
}

/// A first event with `Δt ≠ 0`, on the one-load and the two-word path.
#[test]
fn a_first_event_with_nonzero_dt_is_rejected_identically() {
    let geometry = SensorGeometry::new(W, H);
    for dt in [1u64, 127, 128, (1 << 21) - 1, 1 << 40] {
        let fields: Vec<[u64; 3]> =
            [[dt, zigzag(7), zigzag(7) << 1 | 1]].into_iter().chain([[1, 2, 2]; 20]).collect();
        let wt = (64 - dt.leading_zeros()) as u8;
        let payload = model_payload(&fields, [wt, 17, 18]);
        let (codec, model) = both(&payload, geometry, 21, 50, 50 + dt + 20);
        let (a, b) = (codec.unwrap_err(), model.unwrap_err());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "dt {dt}");
        assert!(a.to_string().contains("does not start at t_first"), "{a}");
    }
}

/// Steps onto column 0, row 0, the last column and the last row are
/// accepted, and one step past any of the four edges is the same
/// `OutOfBounds { x, y }` on both sides, on each sensor in
/// [`GEOMETRIES`]: the decoder's unsigned compare must see `-1` as off
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
            // the array, then a few more events.
            let (nx, ny) = (px.clamp(0, w - 1), py.clamp(0, h - 1));
            let step = |dt: u64, dx: i64, dy: i64| [dt, zigzag(dx), zigzag(dy) << 1 | 1];
            let build = |one_past: bool| {
                let mut fields = vec![[0, zigzag(x0), zigzag(y0) << 1]];
                let (mut x, mut y) = (x0, y0);
                for (ex, ey) in edges.into_iter().chain([(x0, y0), (nx, ny)]) {
                    fields.push(step(3, ex - x, ey - y));
                    (x, y) = (ex, ey);
                }
                if one_past {
                    fields.push(step(1, px - nx, py - ny));
                    fields.push(step(1, nx - px, ny - py));
                }
                fields.extend([[1, 0, 0]; 12]);
                let t_last = fields.iter().map(|f| f[0]).sum::<u64>();
                (model_payload(&fields, [2, 17, 18]), fields.len() as u32, t_last)
            };
            let (payload, count, t_last) = build(true);
            let (codec, model) = both(&payload, geometry, count, 0, t_last);
            let (a, b) = (codec.unwrap_err(), model.unwrap_err());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{w}x{h}, case {k}");
            assert!(
                matches!(a, StoreError::OutOfBounds { chunk: 3, x, y } if (x, y) == (px, py)),
                "{w}x{h}, case {k}: {a:?}"
            );
            let (on_array, count, t_last) = build(false);
            let (codec, model) = both(&on_array, geometry, count, 0, t_last);
            let events = codec.expect("every step lands on the array");
            assert_eq!(model.expect("every step lands on the array"), events);
            assert!(events.iter().any(|e| (i64::from(e.x), i64::from(e.y)) == (nx, ny)));
        }
    }
}

/// One crafted payload per rejection rule, in the order the decoder
/// applies them, each with its exact error.
#[test]
fn each_rejection_rule_has_its_exact_error() {
    let geometry = SensorGeometry::new(W, H);
    let corrupt = |reason| StoreError::CorruptChunk { chunk: 3, reason };
    let events = small_step_chunk(5, 1_000);
    let (good, count, t_first, t_last) = encode(&events);
    let mut flipped_padding = good.clone();
    *flipped_padding.last_mut().unwrap() |= 0x80;
    // (what, payload, count, t_first, t_last, the error)
    type Case = (&'static str, Vec<u8>, u32, u64, u64, StoreError);
    let cases: Vec<Case> = vec![
        (
            "count over the cap",
            good.clone(),
            MAX_CHUNK_EVENTS as u32 + 1,
            t_first,
            t_last,
            corrupt("event count exceeds MAX_CHUNK_EVENTS"),
        ),
        ("no width bytes", vec![0, 0], 0, 0, 0, corrupt("payload shorter than its field widths")),
        ("wt over 64", vec![65, 0, 1, 0], 1, 0, 0, corrupt("field width out of range")),
        ("wx over 17", vec![0, 18, 1, 0, 0, 0], 1, 0, 0, corrupt("field width out of range")),
        ("wy over 18", vec![0, 0, 19, 0, 0, 0], 1, 0, 0, corrupt("field width out of range")),
        ("wy of zero", vec![0, 0, 0], 1, 0, 0, corrupt("field width out of range")),
        (
            "one byte short",
            good[..good.len() - 1].to_vec(),
            count,
            t_first,
            t_last,
            corrupt("payload length does not match event count and widths"),
        ),
        (
            "one byte over",
            [good.as_slice(), &[0]].concat(),
            count,
            t_first,
            t_last,
            corrupt("payload length does not match event count and widths"),
        ),
        (
            "a padding bit set",
            flipped_padding,
            count,
            t_first,
            t_last,
            corrupt("non-zero padding bits"),
        ),
        (
            "first Δt of 1",
            model_payload(&[[1, 0, 0]], [1, 0, 1]),
            1,
            0,
            1,
            corrupt("first event does not start at t_first"),
        ),
        (
            "timestamp past u64::MAX",
            model_payload(&[[0, 0, 0], [2, 0, 0]], [2, 0, 1]),
            2,
            u64::MAX - 1,
            u64::MAX,
            corrupt("timestamp overflow"),
        ),
        (
            "column -1",
            model_payload(&[[0, zigzag(-1), 0]], [0, 1, 1]),
            1,
            0,
            0,
            StoreError::OutOfBounds { chunk: 3, x: -1, y: 0 },
        ),
        (
            "row H",
            model_payload(&[[0, 0, zigzag(i64::from(H)) << 1]], [0, 0, 10]),
            1,
            0,
            0,
            StoreError::OutOfBounds { chunk: 3, x: 0, y: i64::from(H) },
        ),
        (
            "t_last off by one",
            good,
            count,
            t_first,
            t_last + 1,
            corrupt("last event does not end at t_last"),
        ),
    ];
    for (name, payload, count, t_first, t_last, expected) in cases {
        let mut out = Vec::new();
        let err = decode_chunk_payload(&mut out, &payload, 3, geometry, count, t_first, t_last)
            .unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{expected:?}"), "{name}");
        assert_parity(&payload, geometry, count, t_first, t_last);
    }
}

/// `EBST` bytes for one chunk of `count` events, 0 µs long, with
/// `payload` as its body; the frame, index and footer are consistent.
fn one_chunk_file(count: u32, payload: &[u8]) -> Vec<u8> {
    let mut file = MAGIC.to_vec();
    file.extend_from_slice(&VERSION.to_le_bytes());
    for field in [1u16, 1, 0] {
        file.extend_from_slice(&field.to_le_bytes());
    }
    file.extend_from_slice(&0u64.to_le_bytes());
    let offset = file.len() as u64;
    file.extend_from_slice(&count.to_le_bytes());
    file.extend_from_slice(&[0; 16]);
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(payload);
    let index_offset = file.len() as u64;
    let mut index = offset.to_le_bytes().to_vec();
    index.extend_from_slice(&count.to_le_bytes());
    index.extend_from_slice(&[0; 16]);
    file.extend_from_slice(&index);
    file.extend_from_slice(&u64::from(count).to_le_bytes());
    file.extend_from_slice(&index_offset.to_le_bytes());
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&crc32(&index).to_le_bytes());
    file.extend_from_slice(&END_MAGIC);
    file
}

/// The smallest valid payload of `count` events: one bit each (the
/// polarity), all at pixel (0, 0) and time 0.
fn one_bit_payload(count: usize) -> Vec<u8> {
    let mut payload = vec![0, 0, 1];
    payload.resize(payload_len(count, 1), 0);
    payload
}

/// A chunk of exactly [`MAX_CHUNK_EVENTS`] events reads back on the
/// reader path; one more is rejected before the decode buffer, or the
/// streamed source's payload scratch, is touched.
#[test]
fn max_chunk_events_is_hit_before_any_allocation_on_the_reader_path() {
    let mut out = Vec::new();
    let full = one_chunk_file(MAX_CHUNK_EVENTS as u32, &one_bit_payload(MAX_CHUNK_EVENTS));
    let mut reader = ChunkReader::new(Cursor::new(full)).unwrap();
    assert!(reader.next_chunk_into(&mut out).unwrap());
    assert_eq!(out.len(), MAX_CHUNK_EVENTS);

    let over = MAX_CHUNK_EVENTS + 1;
    let bytes = one_chunk_file(over as u32, &one_bit_payload(over));
    let mut out = Vec::new();
    let mut resident = ChunkReader::new(Cursor::new(bytes.clone())).unwrap();
    let mut streamed = ChunkReader::new(std::io::BufReader::new(Cursor::new(bytes))).unwrap();
    for err in [resident.next_chunk_into(&mut out), streamed.next_chunk_into(&mut out)] {
        assert!(matches!(err, Err(StoreError::CorruptChunk { chunk: 0, reason })
                if reason == "event count exceeds MAX_CHUNK_EVENTS"));
    }
    assert_eq!(out.capacity(), 0, "nothing was reserved");

    // A frame whose payload length runs far past the file: the count,
    // then the length the count allows, are refused before the payload
    // is read (a read would fail as "truncated chunk payload"). The
    // frame's `len` field sits 20 bytes into the chunk, which starts
    // right after the 20-byte header.
    for (count, reason) in [
        (MAX_CHUNK_EVENTS as u32 + 1, "event count exceeds MAX_CHUNK_EVENTS"),
        (MAX_CHUNK_EVENTS as u32, "payload length exceeds event bound"),
    ] {
        let mut bytes = one_chunk_file(count, &[]);
        bytes[HEADER_FIXED_BYTES + 20..HEADER_FIXED_BYTES + 24]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = ChunkReader::new(Cursor::new(bytes)).unwrap();
        let err = reader.next_chunk_into(&mut out).unwrap_err();
        assert!(matches!(err, StoreError::CorruptChunk { chunk: 0, reason: r } if r == reason));
    }
    assert_eq!(out.capacity(), 0, "nothing was reserved");
}

/// The same cap on the wire: an EVENTS frame of exactly
/// [`MAX_CHUNK_EVENTS`] events decodes, one of a single event more is
/// rejected before the decode buffer grows, whether the frame arrives
/// through a `FrameReader` or as an owned chunk.
#[test]
fn max_chunk_events_is_hit_before_any_allocation_on_the_wire_path() {
    let frame_of = |count: usize| {
        let chunk = EventsChunk {
            count: count as u32,
            t_first: 0,
            t_last: 0,
            body: one_bit_payload(count),
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Events(chunk.clone())).unwrap();
        (chunk, bytes)
    };
    let geometry = SensorGeometry::new(1, 1);
    let (chunk, _) = frame_of(MAX_CHUNK_EVENTS);
    let mut out = Vec::new();
    chunk.decode_into(&mut out, geometry).unwrap();
    assert_eq!(out.len(), MAX_CHUNK_EVENTS);

    let (chunk, bytes) = frame_of(MAX_CHUNK_EVENTS + 1);
    let mut out = Vec::new();
    let mut reader = FrameReader::new();
    let Some(FrameRef::Events(view)) = reader.read_from(&mut Cursor::new(bytes)).unwrap() else {
        panic!("expected EVENTS")
    };
    for err in [view.decode_into(&mut out, geometry), chunk.decode_into(&mut out, geometry)] {
        assert!(matches!(err, Err(WireError::Store(StoreError::CorruptChunk { reason, .. }))
                if reason == "event count exceeds MAX_CHUNK_EVENTS"));
    }
    assert_eq!(out.capacity(), 0, "nothing was reserved");
}

/// A version-1 `EBST` file (delta-varint chunks) is refused at its
/// header, as `UnsupportedVersion(1)`, by both reader flavours.
#[test]
fn a_v1_ebst_file_is_rejected_as_unsupported() {
    let geometry = SensorGeometry::new(W, H);
    let mut writer =
        RecordingWriter::new(Vec::new(), geometry, "v1", 0, StoreOptions::default()).unwrap();
    writer.push_events(&small_step_chunk(50, 0)).unwrap();
    let mut bytes = writer.finish().unwrap().0;
    assert_eq!(VERSION, 2);
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    let resident = ChunkReader::new(Cursor::new(bytes.clone())).unwrap_err();
    let streamed = ChunkReader::new(std::io::BufReader::new(Cursor::new(bytes))).unwrap_err();
    for err in [resident, streamed] {
        assert!(matches!(err, StoreError::UnsupportedVersion(1)), "{err}");
    }
}

/// A version-1 HELLO (its EVENTS bodies were delta-varint coded) is
/// refused as `UnsupportedVersion(1)` before any EVENTS frame is read.
#[test]
fn a_v1_hello_is_rejected_as_unsupported() {
    let hello = Hello { geometry: SensorGeometry::new(W, H), span_us: 0, name: "v1".into() };
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Frame::Hello(hello)).unwrap();
    assert_eq!(ebbiot::server::VERSION, 2);
    // The version follows the 5-byte envelope and the 4-byte magic.
    bytes[9..11].copy_from_slice(&1u16.to_le_bytes());
    let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
    assert!(matches!(err, WireError::UnsupportedVersion(1)), "{err}");
}
