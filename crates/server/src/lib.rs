//! TCP ingestion server for event-camera fleets: the `EBWP` wire
//! protocol, the per-connection [`Session`] state machine and the
//! [`IngestServer`] accept loop.
//!
//! The paper targets fleets of stationary neuromorphic sensors feeding
//! low-complexity trackers. PRs 1–3 built the streaming pipeline, the
//! multi-camera engine and the on-disk store — but every event still
//! originated in-process. This crate is the serving layer: sensors (or
//! replayed recordings) connect over TCP, stream event chunks, and
//! receive their tracker output back on the same connection. Like the
//! engine and the store it uses nothing but `std`.
//!
//! * [`protocol`] — the framed `EBWP` codec, shared by both directions;
//! * [`session`] — the socket-free server-side state machine
//!   (HELLO → EVENTS… → FINISH), one engine stream per session;
//! * [`server`] — the TCP accept loop, one reader thread per
//!   connection, back-pressure via bounded engine queues + TCP flow
//!   control, optional archival tee into an
//!   [`ebbiot_store::FleetArchiver`];
//! * [`stats`] — the STATS surface: an optional second listener
//!   ([`StatsServer`], enabled via `ServerConfig::stats_addr`) serving
//!   the server's whole metrics registry — engine contention,
//!   per-stage pipeline timings, session counters — as the text
//!   exposition of `ARCHITECTURE.md` §7.
//!
//! Server output is **bit-for-bit identical** to processing the same
//! events in-process with `Engine::run_fleet` — enforced by
//! `tests/server_parity.rs` at the workspace root for every registered
//! back-end. The same suite scrapes a live STATS listener during
//! ingestion.
//!
//! # The `EBWP` wire protocol (version 1)
//!
//! All integers are little-endian. A connection is a sequence of
//! *frames*, each a 5-byte envelope followed by a payload:
//!
//! ```text
//! envelope  kind u8 | len u32 | payload [u8; len]      (len ≤ 8 MiB)
//! ```
//!
//! Client → server frames:
//!
//! ```text
//! HELLO  (0x01)  magic [u8;4] = "EBWP" | version u16 = 1
//!                | width u16 | height u16 | name_len u16
//!                | span_us u64 | name [u8; name_len]
//!                (same 20-byte layout as an EBST file header)
//! EVENTS (0x02)  count u32 | t_first u64 | t_last u64 | crc32 u32
//!                | body: EBST delta-varint chunk payload
//! FLUSH  (0x03)  (empty) — request the tracker frames available so far
//! FINISH (0x04)  span_us u64 — end of stream, authoritative span
//! ```
//!
//! Server → client frames:
//!
//! ```text
//! TRACKS   (0x81)  frame_count u32, then per frame:
//!                  index u64 | t_start u64 | duration u64
//!                  | num_proposals u32 | num_events u32 | track_count u32,
//!                  then per track:
//!                  track_id u64 | x u32 | y u32 | w u32 | h u32
//!                  | vx u32 | vy u32 | flags u8
//!                  (x..vy are f32 bit patterns; flags bit 0 = occluded,
//!                  the rest reserved and must be zero)
//! FINISHED (0x82)  events u64 | frames u64 | queue_high_water u32
//! ERROR    (0x83)  UTF-8 message; sender closes after it
//! ```
//!
//! A session is `HELLO (EVENTS | FLUSH)* FINISH`; the server may send
//! TRACKS frames after any client frame and always ends a successful
//! session with FINISHED. EVENTS bodies reuse the `EBST` chunk codec
//! byte-for-byte ([`ebbiot_store::format::encode_chunk_payload`]):
//! `varint(Δt)`, `varint(zigzag(Δx))`,
//! `varint(zigzag(Δy) << 1 | polarity)` against a per-chunk predecessor
//! — so a stored chunk and a wire chunk are the same bytes, protected
//! by the same CRC-32 and validated by the same decoder. Chunks must be
//! mutually time-ordered (`t_first ≥` previous `t_last`); violations,
//! CRC mismatches, out-of-geometry events and state-machine violations
//! all close the connection with an ERROR frame — the serving engine is
//! never panicked by network input.
//!
//! The EVENTS receive path is zero-copy: [`FrameReader`] keeps one
//! payload buffer per connection, reads each frame into it, and hands
//! the session an [`EventsRef`] **borrowing** those bytes — the CRC
//! check and the varint decode
//! ([`ebbiot_store::format::decode_chunk_payload_fast`]) run directly
//! out of the connection buffer into the `Vec<Event>` that is then
//! moved into the engine. No per-frame allocation, no intermediate
//! copy of wire bytes or events.
//!
//! The field-by-field specification (with byte offsets and varint /
//! zigzag rules) also lives in `ARCHITECTURE.md` at the workspace root,
//! next to the `EBST` on-disk format it shares its chunk codec with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod session;
pub mod stats;

pub use protocol::{
    read_frame, write_frame, EventsChunk, EventsRef, Finished, Frame, FrameReader, FrameRef, Hello,
    WireError, MAX_FRAME_BYTES, VERSION,
};
pub use server::{IngestServer, ServerConfig, ServerReport, SessionReport};
pub use session::{PipelineFactory, Session, SessionSummary};
pub use stats::{scrape_stats, ServerTelemetry, StatsServer};
