//! Hostile-input property tests for the `EBWP` protocol and session:
//! truncated frames, corrupted bytes, bad CRCs, out-of-geometry events
//! and ordering violations must all surface as `WireError`s — never a
//! panic, never a hung engine, and never a leaked engine stream. Every
//! response a session gives goes through `write_frame`, so a reply too
//! large for one frame panics here as it would on a session thread.
//!
//! These mirror the `ebbiot_events` codec proptests: the wire is just
//! another untrusted byte source.

use std::io::Cursor;
use std::sync::Arc;

use ebbiot::core::{EbbiotConfig, EbbiotPipeline};
use ebbiot::engine::{Engine, EngineConfig};
use ebbiot::events::{Event, Polarity, SensorGeometry};
use ebbiot::server::{
    read_frame, write_frame, EventsChunk, Frame, Hello, PipelineFactory, Session, WireError,
};
use proptest::prelude::*;

const W: u16 = 240;
const H: u16 = 180;

fn arb_event() -> impl Strategy<Value = Event> {
    (0u64..600_000, 0..W, 0..H, any::<bool>()).prop_map(|(t, x, y, on)| {
        Event::new(x, y, t, if on { Polarity::On } else { Polarity::Off })
    })
}

fn arb_ordered_events(max_len: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(arb_event(), 1..max_len).prop_map(|mut v| {
        ebbiot::events::stream::sort_by_time(&mut v);
        v
    })
}

fn encode_frames(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        write_frame(&mut bytes, frame).unwrap();
    }
    bytes
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(
        EngineConfig { workers: 1, queue_capacity: 4, ..EngineConfig::default() },
        Vec::new(),
    ))
}

fn factory() -> Arc<PipelineFactory> {
    Arc::new(|hello: &Hello| {
        Ok(EbbiotPipeline::new(EbbiotConfig::paper_default(hello.geometry)).boxed())
    })
}

/// Feeds raw bytes through the real decode → session → reply path,
/// exactly like the TCP loop does, returning the encoded replies or the
/// first error.
fn drive_session(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    let engine = engine();
    let mut session = Session::new(Arc::clone(&engine), factory(), None);
    let mut cursor = Cursor::new(bytes.to_vec());
    let mut replies = Vec::new();
    loop {
        match read_frame(&mut cursor)? {
            Some(frame) => {
                for response in session.on_frame(frame)? {
                    write_frame(&mut replies, &response)?;
                }
                if session.is_finished() {
                    return Ok(replies);
                }
            }
            None => return Err(WireError::Truncated),
        }
    }
}

fn hello_frame(name: &str) -> Frame {
    Frame::Hello(Hello { geometry: SensorGeometry::new(W, H), span_us: 500_000, name: name.into() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // A well-formed session always completes, whatever the traffic.
    #[test]
    fn well_formed_sessions_always_finish(events in arb_ordered_events(400)) {
        let span = events.last().unwrap().t + 1;
        let mut frames = vec![hello_frame("ok")];
        for chunk in events.chunks(97) {
            frames.push(Frame::Events(EventsChunk::encode(chunk)));
        }
        frames.push(Frame::Finish { span_us: span });
        prop_assert!(drive_session(&encode_frames(&frames)).is_ok());
    }

    // Truncating a valid session's bytes at *any* point errors cleanly
    // (no panic, no hang) — the reader thread would report it and the
    // session is aborted.
    #[test]
    fn truncation_at_any_cut_point_errors_cleanly(
        events in arb_ordered_events(60),
        cut_frac in 0.0f64..1.0,
    ) {
        let span = events.last().unwrap().t + 1;
        let bytes = encode_frames(&[
            hello_frame("cut"),
            Frame::Events(EventsChunk::encode(&events)),
            Frame::Finish { span_us: span },
        ]);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(drive_session(&bytes[..cut]).is_err());
    }

    // Flipping any single byte of a valid session either still
    // completes (the flip hit a don't-care bit such as an ERROR
    // message byte) or errors cleanly — it never panics the engine.
    #[test]
    fn single_byte_corruption_never_panics(
        events in arb_ordered_events(60),
        victim_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let span = events.last().unwrap().t + 1;
        let mut bytes = encode_frames(&[
            hello_frame("flip"),
            Frame::Events(EventsChunk::encode(&events)),
            Frame::Finish { span_us: span },
        ]);
        let victim = ((bytes.len() - 1) as f64 * victim_frac) as usize;
        bytes[victim] ^= flip;
        // Either outcome is fine; what matters is that we got *an*
        // outcome (drive_session returned instead of panicking/hanging).
        let _ = drive_session(&bytes);
    }

    // Arbitrary garbage never panics the frame reader or the session.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = drive_session(&bytes);
    }

    // Events outside the HELLO geometry are rejected before reaching
    // the engine, wherever in the array they fall.
    #[test]
    fn out_of_geometry_events_are_rejected(
        events in arb_ordered_events(50),
        oob_x in W..W + 100,
        oob_y in 0..H,
    ) {
        // Patch one event out of bounds *after* encoding would break the
        // CRC, so build the chunk from events that are themselves OOB:
        // encode against a larger array, declare the paper's array.
        let mut patched = events;
        let n = patched.len();
        patched[n / 2] = Event::on(oob_x, oob_y, patched[n / 2].t);
        let bytes = encode_frames(&[
            hello_frame("oob"),
            Frame::Events(EventsChunk::encode(&patched)),
            Frame::Finish { span_us: 1 },
        ]);
        let err = drive_session(&bytes).unwrap_err();
        prop_assert!(
            matches!(err, WireError::Store(_)),
            "expected out-of-bounds store error, got {err}"
        );
    }

    // Chunks that rewind time across EVENTS frames are rejected with
    // OutOfOrder — the engine never sees them (an unvalidated push
    // would panic a shared worker).
    #[test]
    fn cross_chunk_time_rewind_is_rejected(events in arb_ordered_events(80), rewind in 1u64..1_000_000) {
        let late: Vec<Event> =
            events.iter().map(|e| Event::new(e.x, e.y, e.t + rewind, e.polarity)).collect();
        let bytes = encode_frames(&[
            hello_frame("rewind"),
            Frame::Events(EventsChunk::encode(&late)),
            Frame::Events(EventsChunk::encode(&events)), // starts before late ended
            Frame::Finish { span_us: 1 },
        ]);
        let err = drive_session(&bytes).unwrap_err();
        prop_assert!(matches!(err, WireError::OutOfOrder { .. }), "got {err}");
    }

    // HELLO/chunk ordering violations: EVENTS or FINISH first, HELLO
    // twice, a server-side frame from the client — all protocol errors.
    // (EVENTS *after* FINISH never reaches the session over TCP — the
    // server stops reading at FINISH — and is covered by the session
    // unit tests.)
    #[test]
    fn state_machine_violations_are_protocol_errors(events in arb_ordered_events(30), which in 0usize..4) {
        let events_frame = Frame::Events(EventsChunk::encode(&events));
        let frames = match which {
            0 => vec![events_frame],
            1 => vec![Frame::Finish { span_us: 7 }],
            2 => vec![hello_frame("a"), hello_frame("b")],
            _ => vec![hello_frame("c"), Frame::Tracks(Vec::new())],
        };
        let err = drive_session(&encode_frames(&frames)).unwrap_err();
        prop_assert!(matches!(err, WireError::Protocol { .. }), "case {which}: got {err}");
    }

    // A corrupted EVENTS body (CRC intact over corrupt bytes is
    // statistically impossible for a flip, so flip body bytes only)
    // is caught by the CRC before any decode.
    #[test]
    fn events_body_corruption_is_caught_by_crc(
        events in arb_ordered_events(50),
        flip in 1u8..255,
        pos_frac in 0.0f64..1.0,
    ) {
        let chunk = EventsChunk::encode(&events);
        let body_len = chunk.body.len();
        let mut corrupt = chunk.clone();
        corrupt.body[((body_len - 1) as f64 * pos_frac) as usize] ^= flip;
        let bytes = encode_frames(&[hello_frame("crc"), Frame::Events(corrupt)]);
        // write_frame recomputes the CRC over the corrupt body, so the
        // frame parses; corruption surfaces in decode. Flip the stored
        // CRC path instead: corrupt the raw bytes after encoding.
        let mut raw = encode_frames(&[hello_frame("crc2"), Frame::Events(chunk)]);
        let n = raw.len();
        raw[n - 1] ^= flip; // last body byte, after the CRC was written
        let err = drive_session(&raw).unwrap_err();
        prop_assert!(matches!(err, WireError::ChunkCrcMismatch), "got {err}");
        // The re-CRC'd corrupt body decodes or errors, but never panics.
        let _ = drive_session(&bytes);
    }
}

/// Sessions that die mid-stream (disconnect, protocol error) never leak
/// engine streams — exercised over many failure shapes.
#[test]
fn failed_sessions_never_leak_engine_streams() {
    let engine = engine();
    for k in 0..20u64 {
        let mut session = Session::new(Arc::clone(&engine), factory(), None);
        let _ = session.on_frame(hello_frame(&format!("s{k}")));
        if k % 2 == 0 {
            let events = vec![Event::on(10, 10, 100 + k)];
            let _ = session.on_frame(Frame::Events(EventsChunk::encode(&events)));
        }
        if k % 3 == 0 {
            // Protocol violation kills the session.
            let _ = session.on_frame(hello_frame("again"));
        }
        drop(session); // disconnect
    }
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.streams.len(), 20);
    assert!(snapshot.streams.iter().all(|s| s.detached), "all sessions detached: {snapshot:?}");
}

/// Two events 17,600 s apart in one 44-byte EVENTS frame close 266,667
/// empty 66 ms windows: 9.6 MB of TRACKS, more than one frame may carry.
/// The session answers in as many TRACKS frames as the cap needs, and
/// the client reads every result back, in order.
#[test]
fn a_reply_larger_than_one_frame_is_split_across_tracks_frames() {
    let geometry = SensorGeometry::new(16, 16);
    let t_last = 17_600_000_000;
    let events = [Event::on(1, 1, 0), Event::off(14, 14, t_last)];
    let events_frame = encode_frames(&[Frame::Events(EventsChunk::encode(&events))]);
    // Envelope 5, fixed fields 24, width bytes 3, and two events of
    // 35 + 5 + 6 bits.
    assert_eq!(events_frame.len(), 44);
    let mut bytes =
        encode_frames(&[Frame::Hello(Hello { geometry, span_us: 0, name: "gap".into() })]);
    bytes.extend(events_frame);
    bytes.extend(encode_frames(&[Frame::Finish { span_us: t_last + 1 }]));
    let replies = drive_session(&bytes).expect("the session finishes");

    let mut cursor = Cursor::new(replies);
    let (mut tracks_frames, mut results, mut finished) = (0, Vec::new(), None);
    while let Some(frame) = read_frame(&mut cursor).expect("every reply frame reads back") {
        match frame {
            Frame::Tracks(frames) => {
                tracks_frames += 1;
                results.extend(frames);
            }
            Frame::Finished(done) => finished = Some(done),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let done = finished.expect("FINISHED ends the session");
    assert_eq!(done.frames, results.len() as u64);
    assert_eq!(results.len(), 266_667);
    assert!(tracks_frames >= 2, "{tracks_frames} TRACKS frames");
    assert!(results.iter().enumerate().all(|(k, r)| r.index == k), "results in order");
}
