//! Scheduler smoke tests for degenerate configurations:
//! oversubscribed worker pools (`workers > streams`, `workers =
//! 2×cores`) must drain cleanly — no deadlock, no leaked streams, no
//! lost or reordered frames — because the scheduler's shutdown drain
//! and exclusive stream ownership hold at any worker:stream ratio. The
//! CI "Scheduler" step runs this file alongside the jitter proptests in
//! `engine_determinism.rs`.

use ebbiot_core::{EbbiotConfig, EbbiotPipeline, FrameResult, OverlapTracker};
use ebbiot_engine::{Engine, EngineConfig, StreamId};
use ebbiot_events::{Event, SensorGeometry};

const FRAMES: u64 = 6;
const SPAN: u64 = (FRAMES + 1) * 66_000;

fn pipelines(n: usize) -> Vec<EbbiotPipeline> {
    let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    (0..n).map(|_| EbbiotPipeline::new(config.clone())).collect()
}

/// Dense moving block surviving the median filter.
fn frame_chunk(f: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for dy in 0..12u16 {
        for dx in 0..24u16 {
            events.push(Event::on(40 + 3 * f as u16 + dx, 80 + dy, f * 66_000 + u64::from(dy)));
        }
    }
    events
}

fn expected() -> Vec<FrameResult> {
    let mut reference = pipelines(1).pop().unwrap();
    let mut out = Vec::new();
    for f in 0..FRAMES {
        out.extend(reference.push(&frame_chunk(f)));
    }
    out.extend(reference.finish(SPAN));
    out
}

/// Drives `streams` sessions through `engine` and asserts every one is
/// complete, ordered and identical to the sequential reference.
fn drive_and_check(engine: Engine<OverlapTracker>, streams: usize) {
    let expected = expected();
    for f in 0..FRAMES {
        for s in 0..streams {
            engine.push(StreamId(s), frame_chunk(f));
        }
    }
    for s in 0..streams {
        engine.finish_stream(StreamId(s), SPAN);
    }
    let out = engine.join();
    assert_eq!(out.streams.len(), streams, "no leaked or missing stream slots");
    for (s, frames) in out.streams.iter().enumerate() {
        assert_eq!(frames, &expected, "stream {s} complete and in order");
    }
    assert!(out.snapshot.streams.iter().all(|s| s.finished), "every stream drained its finish");
}

#[test]
fn more_workers_than_streams_drains_without_deadlock() {
    // Construction-time pipelines clamp the pool, so oversubscribe via
    // attach: an engine built empty keeps all 8 workers, then only 2
    // streams ever exist — 6 workers never acquire anything and must
    // still park and exit cleanly at shutdown.
    let engine: Engine<OverlapTracker> = Engine::new(
        EngineConfig { workers: 8, queue_capacity: 4, ..EngineConfig::default() },
        Vec::new(),
    );
    assert_eq!(engine.num_workers(), 8);
    for pipeline in pipelines(2) {
        engine.attach(pipeline);
    }
    drive_and_check(engine, 2);
}

#[test]
fn twice_the_cores_drains_without_deadlock() {
    // More workers than the machine has cores: claims on the one
    // ready queue contend on genuinely preempted threads.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = 2 * cores;
    let engine: Engine<OverlapTracker> = Engine::new(
        EngineConfig { workers, queue_capacity: 2, ..EngineConfig::default() },
        Vec::new(),
    );
    assert_eq!(engine.num_workers(), workers);
    let streams = workers + 1; // more streams than workers, too
    for pipeline in pipelines(streams) {
        engine.attach(pipeline);
    }
    drive_and_check(engine, streams);
}

#[test]
fn oversubscribed_and_jittered_still_drains() {
    // The worst of both: oversubscription plus schedule jitter (forced
    // helps, yields, micro-sleeps), with capacity-1 queues so every
    // batch holds one job. Liveness and bit-exactness both hold.
    let engine: Engine<OverlapTracker> = Engine::new(
        EngineConfig { workers: 6, queue_capacity: 1, schedule_jitter: Some(0xC0FFEE) },
        Vec::new(),
    );
    for pipeline in pipelines(3) {
        engine.attach(pipeline);
    }
    drive_and_check(engine, 3);
}

#[test]
fn detach_mid_run_does_not_leak_ready_streams() {
    // A stream detached with queued peers still in flight must leave
    // the ready set consistent: the remaining streams finish normally
    // and join() drains everything.
    let engine: Engine<OverlapTracker> = Engine::new(
        EngineConfig { workers: 4, queue_capacity: 4, ..EngineConfig::default() },
        Vec::new(),
    );
    for pipeline in pipelines(3) {
        engine.attach(pipeline);
    }
    let expected = expected();
    for f in 0..FRAMES {
        for s in 0..3 {
            engine.push(StreamId(s), frame_chunk(f));
        }
    }
    engine.finish_stream(StreamId(1), SPAN);
    engine.wait_finished(StreamId(1));
    let detached = engine.detach(StreamId(1));
    assert_eq!(detached, expected, "detached stream handed over all frames");

    engine.finish_stream(StreamId(0), SPAN);
    engine.finish_stream(StreamId(2), SPAN);
    let out = engine.join();
    assert_eq!(out.streams[0], expected);
    assert_eq!(out.streams[2], expected);
    assert!(out.streams[1].is_empty(), "detached stream already drained");
    assert!(out.snapshot.streams[1].detached);
}
