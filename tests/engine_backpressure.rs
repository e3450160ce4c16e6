//! Back-pressure integration: a stream whose bounded queue fills up
//! holds its producer in `push`, never drops or reorders a chunk, and
//! the engine's `Snapshot` reports the queue-depth
//! high-water mark. Admission counts every chunk in flight — queued or
//! in process — and a worker failure fails blocked producers instead of
//! stranding them. A producer held at capacity runs ready batches
//! itself, charged to worker lane 0 with the accounting still exact,
//! and a batch that panics on the producer fails it and resurfaces
//! from `join`. The engine wakes only threads that sleep, and no
//! sleeper misses its wake: a jittered capacity-1 engine with blocked
//! producers, `wait_finished` and `detach_with_state` waiters finishes
//! under a watchdog, bit-identical to sequential.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ebbiot_core::{
    EbbiotConfig, EbbiotPipeline, FrameInput, FrameResult, OverlapTracker, Pipeline, StateError,
    TrackBox, Tracker,
};
use ebbiot_engine::{Engine, EngineConfig, StreamId, WorkerTelemetry};
use ebbiot_events::{Event, OpsCounter, SensorGeometry};

fn config() -> EbbiotConfig {
    EbbiotConfig::paper_default(SensorGeometry::davis240())
}

fn pipelines(n: usize) -> Vec<EbbiotPipeline> {
    (0..n).map(|_| EbbiotPipeline::new(config())).collect()
}

/// A dense moving block in frame `f` — enough per-chunk work that a
/// capacity-1 queue actually backs up.
fn frame_chunk(f: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for dy in 0..14u16 {
        for dx in 0..28u16 {
            events.push(Event::on(30 + (f as u16) * 2 + dx, 70 + dy, f * 66_000 + u64::from(dy)));
        }
    }
    events
}

const FRAMES: u64 = 40;

fn expected() -> Vec<FrameResult> {
    let mut reference = pipelines(1).pop().unwrap();
    let mut out = Vec::new();
    for f in 0..FRAMES {
        out.extend(reference.push(&frame_chunk(f)));
    }
    out.extend(reference.finish(FRAMES * 66_000));
    out
}

#[test]
fn blocking_push_under_full_queue_drops_and_reorders_nothing() {
    let expected = expected();
    // Two streams sharing ONE worker with capacity-1 queues: while the
    // worker chews on one stream the other's producer must block.
    let engine = Engine::new(
        EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() },
        pipelines(2),
    );
    std::thread::scope(|scope| {
        for s in 0..2 {
            let engine = &engine;
            scope.spawn(move || {
                for f in 0..FRAMES {
                    engine.push(StreamId(s), frame_chunk(f));
                }
                engine.finish_stream(StreamId(s), FRAMES * 66_000);
            });
        }
    });
    let snapshot = engine.snapshot();
    let out = engine.join();
    for s in 0..2 {
        assert_eq!(out.streams[s], expected, "stream {s} complete and in order");
        assert_eq!(snapshot.streams[s].chunks_in, FRAMES, "every chunk admitted");
        assert_eq!(
            out.snapshot.streams[s].queue_high_water, 1,
            "snapshot reports the capacity-1 high-water mark"
        );
    }
}

#[test]
fn snapshot_high_water_stays_within_configured_capacity() {
    let engine = Engine::new(
        EngineConfig { workers: 2, queue_capacity: 3, ..EngineConfig::default() },
        pipelines(4),
    );
    for f in 0..FRAMES {
        for s in 0..4 {
            engine.push(StreamId(s), frame_chunk(f));
        }
    }
    for s in 0..4 {
        engine.finish_stream(StreamId(s), FRAMES * 66_000);
    }
    let out = engine.join();
    for stream in &out.snapshot.streams {
        assert!(stream.queue_high_water >= 1);
        assert!(stream.queue_high_water <= 3, "bound respected: {}", stream.queue_high_water);
    }
    assert!(out.snapshot.max_queue_high_water() <= 3);
}

#[test]
#[should_panic(expected = "queue capacity must be at least 1")]
fn zero_queue_capacity_is_rejected_at_construction() {
    // No stream is attached, so nothing but the constructor can refuse
    // the configuration.
    let _ = Engine::<OverlapTracker>::new(
        EngineConfig { queue_capacity: 0, ..EngineConfig::with_workers(1) },
        Vec::new(),
    );
}

#[test]
fn producer_blocked_on_a_full_stream_panics_when_a_worker_fails() {
    let engine = Engine::new(
        EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() },
        pipelines(1),
    );
    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            engine.push(StreamId(0), vec![Event::on(10, 10, 70_000)]);
            // Out of order: the worker panics on this chunk and never
            // frees its slot…
            engine.push(StreamId(0), vec![Event::on(10, 10, 0)]);
            // …so this push waits on the full stream until the failure
            // wakes it.
            engine.push(StreamId(0), vec![Event::on(10, 10, 140_000)]);
        });
        assert!(producer.join().is_err(), "blocked producer panics instead of hanging");
    });
}

/// A back-end whose first `step` parks on a barrier twice: once to tell
/// the test that a chunk is in process, once to wait for its release.
struct ParkingTracker(Option<Arc<Barrier>>);

impl Tracker for ParkingTracker {
    fn name(&self) -> &'static str {
        "parking"
    }

    fn step(&mut self, _frame: &FrameInput<'_>) -> Vec<TrackBox> {
        if let Some(barrier) = self.0.take() {
            barrier.wait();
            barrier.wait();
        }
        Vec::new()
    }

    fn active_count(&self) -> usize {
        0
    }

    fn ops(&self) -> OpsCounter {
        OpsCounter::default()
    }

    fn reset(&mut self) {}

    fn reset_ops(&mut self) {}

    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), StateError> {
        Ok(())
    }
}

#[test]
fn admission_counts_the_chunk_a_worker_is_processing() {
    let barrier = Arc::new(Barrier::new(2));
    let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
    let pipeline = Pipeline::with_tracker(config, ParkingTracker(Some(Arc::clone(&barrier))));
    let engine = Engine::new(
        EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() },
        vec![pipeline],
    );
    // The second event closes frame 0, whose tracker step parks.
    engine.push(StreamId(0), vec![Event::on(10, 10, 0), Event::on(10, 10, 70_000)]);
    barrier.wait();
    // The job queue is empty now, but the chunk is still in flight: a
    // second push is held (no stream is ready for it to run) until the
    // parked step is released.
    assert_eq!(engine.snapshot().streams[0].queue_depth, 1);
    std::thread::scope(|scope| {
        let (pushed, admitted) = mpsc::channel();
        let engine = &engine;
        scope.spawn(move || {
            engine.push(StreamId(0), vec![Event::on(10, 10, 140_000)]);
            pushed.send(()).expect("the test listens");
        });
        assert_eq!(
            admitted.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout),
            "a chunk in process holds the only slot"
        );
        barrier.wait();
        admitted.recv().expect("the push is admitted once the chunk completes");
        engine.finish_stream(StreamId(0), 3 * 66_000);
    });
    let out = engine.join();
    assert_eq!(out.snapshot.streams[0].chunks_in, 2);
    assert_eq!(out.snapshot.streams[0].queue_depth, 0);
}

/// A one-worker, capacity-1 engine whose stream 1 parks its worker in
/// the first `step` on `barrier`, and whose stream 0 (same back-end,
/// never parking) is left to whoever else runs batches: the producer.
fn engine_with_a_parked_worker(barrier: &Arc<Barrier>) -> Engine<ParkingTracker> {
    let engine = Engine::new(
        EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() },
        vec![
            Pipeline::with_tracker(config(), ParkingTracker(None)),
            Pipeline::with_tracker(config(), ParkingTracker(Some(Arc::clone(barrier)))),
        ],
    );
    // The second event closes frame 0, whose tracker step parks.
    engine.push(StreamId(1), vec![Event::on(10, 10, 0), Event::on(10, 10, 70_000)]);
    barrier.wait();
    engine
}

#[test]
fn helped_batches_keep_lane_accounting_exact() {
    // An engine that does not help would leave this producer asleep
    // beside its parked worker: the watchdog fails that.
    let (out, lane) = within_deadline(Duration::from_secs(60), || {
        let barrier = Arc::new(Barrier::new(2));
        let engine = engine_with_a_parked_worker(&barrier);
        // With the only worker parked, every push after the first finds
        // stream 0 full and runs its queued chunk on this thread.
        for f in 0..FRAMES {
            engine.push(StreamId(0), frame_chunk(f));
        }
        barrier.wait();
        engine.finish_stream(StreamId(0), FRAMES * 66_000);
        engine.finish_stream(StreamId(1), 3 * 66_000);
        let lane = WorkerTelemetry::register(engine.registry(), 0);
        (engine.join(), lane)
    });

    let mut reference = Pipeline::with_tracker(config(), ParkingTracker(None));
    let mut expected = Vec::new();
    for f in 0..FRAMES {
        expected.extend(reference.push(&frame_chunk(f)));
    }
    expected.extend(reference.finish(FRAMES * 66_000));
    assert_eq!(out.streams[0], expected, "helped batches are bit-identical");

    assert_eq!(
        lane.busy.get() + lane.acquire.get() + lane.idle.get(),
        lane.wall.get(),
        "busy + acquire + idle == wall on the lane helpers are charged to"
    );
    let chunks_in: u64 = out.snapshot.streams.iter().map(|s| s.chunks_in).sum();
    assert_eq!(lane.chunks.get(), chunks_in, "the one lane counts every chunk, helped or not");
    assert!(lane.helped.get() > 0, "the producer ran batches");
    assert!(lane.helped.get() <= lane.wall.get(), "helped spells are part of the lane's wall");
}

/// The text of a panic payload.
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload.downcast_ref::<&str>().expect("a text panic").to_string(),
    }
}

#[test]
fn a_producer_that_runs_a_panicking_batch_fails_and_join_reraises_it() {
    let (producer, joined) = within_deadline(Duration::from_secs(60), || {
        let barrier = Arc::new(Barrier::new(2));
        let engine = engine_with_a_parked_worker(&barrier);
        engine.push(StreamId(0), vec![Event::on(10, 10, 70_000)]);
        let producer = panic::catch_unwind(AssertUnwindSafe(|| {
            // Stream 0 is full: this push runs the chunk above, then is
            // admitted with an out-of-order chunk…
            engine.push(StreamId(0), vec![Event::on(10, 10, 0)]);
            // …which this push runs, and the batch panics.
            engine.push(StreamId(0), vec![Event::on(10, 10, 140_000)]);
        }));
        let producer = panic_text(producer.expect_err("the helping producer fails"));
        assert!(WorkerTelemetry::register(engine.registry(), 0).helped.get() > 0);
        assert_eq!(
            engine.snapshot().streams[0].queue_depth,
            1,
            "the chunk that panicked never completed"
        );
        barrier.wait();
        let joined = panic::catch_unwind(AssertUnwindSafe(move || engine.join()));
        (producer, panic_text(joined.expect_err("join re-raises the batch's panic")))
    });
    assert!(
        producer.contains("stream queue will never drain"),
        "the producer fails on the failed stream, not with the batch's panic: {producer:?}"
    );
    assert!(joined.contains("time-ordered"), "join re-raised {joined:?}");
}

/// Runs `scenario` on its own thread and returns its result, failing the
/// test if it has not finished within `deadline`: a thread that sleeps
/// through its wake fails the test instead of hanging it.
fn within_deadline<R: Send + 'static>(
    deadline: Duration,
    scenario: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || done.send(scenario()).expect("watchdog listens"));
    match finished.recv_timeout(deadline) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => panic!("a thread still waits after {deadline:?}"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the scenario sent its result"),
        },
    }
}

#[test]
fn no_wakeup_is_lost_under_jitter_with_every_kind_of_waiter() {
    // Streams 0..3 push every chunk then finish and `wait_finished`;
    // stream 3 hands its session off with `detach_with_state` halfway
    // and resumes it on a new stream. Every producer blocks on a full
    // capacity-1 queue most of the time, and the jittered workers
    // sleep and yield at random, so the waits and wakes of the
    // stream condvars and the scheduler interleave in many ways.
    const STREAMS: usize = 4;
    const HANDOFF_AT: u64 = FRAMES / 2;
    let expected = expected();
    for workers in 1..=3 {
        for seed in 0..2u64 {
            let outputs = within_deadline(Duration::from_secs(120), move || {
                let engine = Engine::new(
                    EngineConfig {
                        workers,
                        queue_capacity: 1,
                        schedule_jitter: Some(seed * 31 + workers as u64),
                    },
                    pipelines(STREAMS),
                );
                let outputs: Vec<Vec<FrameResult>> = std::thread::scope(|scope| {
                    let engine = &engine;
                    let producers: Vec<_> = (0..STREAMS)
                        .map(|s| {
                            scope.spawn(move || {
                                let mut stream = StreamId(s);
                                let mut frames = Vec::new();
                                for f in 0..FRAMES {
                                    if s == STREAMS - 1 && f == HANDOFF_AT {
                                        let handoff = engine.detach_with_state(stream);
                                        frames.extend(handoff.frames);
                                        let restored = Pipeline::restore(
                                            config(),
                                            OverlapTracker::new(config().geometry, config().ot),
                                            &handoff.state,
                                        )
                                        .expect("the hand-off restores");
                                        stream = engine.attach_with_state(restored, handoff.totals);
                                    }
                                    engine.push(stream, frame_chunk(f));
                                }
                                engine.finish_stream(stream, FRAMES * 66_000);
                                engine.wait_finished(stream);
                                frames.extend(engine.take_results(stream));
                                frames
                            })
                        })
                        .collect();
                    producers.into_iter().map(|p| p.join().expect("producer finishes")).collect()
                });
                let _ = engine.join();
                outputs
            });
            for (s, frames) in outputs.iter().enumerate() {
                assert_eq!(frames, &expected, "workers {workers}, seed {seed}, stream {s}");
            }
        }
    }
}
