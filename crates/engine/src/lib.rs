//! Multi-camera concurrent tracking engine with deterministic fan-out.
//!
//! The paper targets *fleets* of stationary neuromorphic sensors, each
//! feeding a low-complexity tracker. This crate runs N independent
//! camera streams concurrently over the streaming
//! [`Pipeline::push`](ebbiot_core::Pipeline::push) /
//! [`finish`](ebbiot_core::Pipeline::finish) API from `ebbiot_core`,
//! using nothing but `std` (threads, `Mutex`/`Condvar` — the
//! workspace is offline/vendored):
//!
//! * a [`StreamId`]-keyed **router** that appends incoming event chunks
//!   to per-stream bounded FIFO queues, with blocking ([`Engine::push`])
//!   or rejecting ([`Engine::try_push`]) back-pressure once a stream has
//!   [`EngineConfig::queue_capacity`] chunks in flight — counted under
//!   the same per-stream lock that queues the job;
//! * a **work-stealing scheduler** (global injector + per-worker
//!   deques) over *stream* granularity: a ready stream is a schedulable
//!   unit exactly one worker owns at a time, drains a *batch* of queued
//!   chunks per acquisition, and migrates to whichever worker is free;
//! * a **worker pool** that acquires ready streams and drives each
//!   stream's own [`Pipeline`](ebbiot_core::Pipeline);
//! * an **output collector** that keeps every stream's `FrameResult`s in
//!   emission order, indexed by stream;
//! * per-stream and aggregate **stats** (events/s, frames/s, active
//!   trackers, queue depth high-water) through [`Engine::snapshot`], and
//!   worker time, steals, batch sizes and queue wait in the engine's
//!   telemetry registry ([`telemetry`]), read nowhere else;
//! * [`Engine::run_fleet`], the batteries-included entry point the
//!   `exp_fleet` experiment binary drives.
//!
//! The engine is source-agnostic: `run_fleet` feeds it from in-memory
//! recordings, `ebbiot_store`'s `Replayer` drives the same
//! [`Engine::push`]/[`Engine::finish_stream`] API from chunked on-disk
//! `EBST` readers, and `ebbiot_server` sessions [`Engine::attach`] /
//! [`Engine::detach`] streams on the *running* engine as TCP
//! connections come and go — `tests/store_replay_parity.rs` and
//! `tests/server_parity.rs` prove all paths produce bit-for-bit
//! identical output. A stream can also hand its *state* across:
//! [`Engine::detach_with_state`] returns a [`SessionHandoff`]
//! (checkpoint + totals + frames) and
//! [`Engine::attach_with_state`] resumes it on a running engine,
//! bit-identically — the `EBSS` snapshot story of ARCHITECTURE.md §8,
//! pinned by `tests/checkpoint_parity.rs`. `ARCHITECTURE.md` at the
//! workspace root diagrams the fan-out.
//!
//! # Determinism guarantee
//!
//! Engine output is **bit-for-bit identical to running each stream's
//! pipeline sequentially**, for any worker count, any chunk granularity
//! and any steal schedule. Three properties combine to give this:
//!
//! 1. **Exclusive ownership** — a ready stream is acquired by exactly
//!    one worker at a time; ownership may *migrate* between
//!    acquisitions, but only one thread ever advances a given pipeline,
//!    so there is no intra-stream racing to be ordered.
//! 2. **Per-stream FIFO queues** — each stream's jobs sit in one FIFO
//!    queue drained in submission order by whichever worker owns the
//!    stream, and the chunked streaming `Pipeline` is itself proven
//!    chunking-invariant (`push`/`finish` ≡ `process_recording`, see
//!    the core crate's parity tests).
//! 3. **Per-stream collection** — results are appended to the stream's
//!    own ordered buffer and returned indexed by [`StreamId`], so
//!    cross-stream completion order (the only thing scheduling can
//!    affect) never shows up in the output.
//!
//! Which worker drains which batch, and how often streams change hands,
//! is therefore invisible — `tests/engine_determinism.rs` at the
//! workspace root checks exactly this: a 16-camera fleet on 1, 2 and 8
//! workers against sequential `process_recording`, for every registered
//! back-end, plus a proptest that perturbs the schedule with
//! [`EngineConfig::schedule_jitter`] (random yields, micro-sleeps and
//! forced steals) and random attach/detach interleavings.
//!
//! # Example
//!
//! ```
//! use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
//! use ebbiot_engine::{Engine, EngineConfig, StreamId};
//! use ebbiot_events::{Event, SensorGeometry};
//!
//! let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
//! let pipelines = (0..4).map(|_| EbbiotPipeline::new(config.clone())).collect();
//! let engine = Engine::new(EngineConfig::with_workers(2), pipelines);
//!
//! // Each camera feed pushes independently; back-pressure per stream.
//! let events: Vec<Event> =
//!     (0..200).map(|i| Event::on(60 + (i % 20) as u16, 80 + (i / 20) as u16, i)).collect();
//! engine.push(StreamId(0), events);
//! for cam in 0..4 {
//!     engine.finish_stream(StreamId(cam), 200_000);
//! }
//! let out = engine.join();
//! assert_eq!(out.streams.len(), 4);
//! assert!(out.streams[0][0].num_events > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fleet;
pub mod telemetry;

pub use engine::{
    Engine, EngineConfig, EngineOutput, RejectedChunk, SessionHandoff, Snapshot, StreamId,
    StreamSnapshot, StreamTotals,
};
pub use fleet::{FleetOptions, FleetStream};
pub use telemetry::{EngineTelemetry, StreamTelemetry, WorkerTelemetry};
