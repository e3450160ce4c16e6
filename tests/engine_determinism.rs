//! Engine determinism: a 16-camera fleet driven through the concurrent
//! engine must produce output **bit-for-bit identical** to running each
//! camera's pipeline sequentially via `process_recording` — for every
//! registered back-end and regardless of worker count, batch size or
//! steal schedule.
//!
//! This is the contract `ebbiot_engine`'s docs promise: exclusive
//! stream ownership + per-stream FIFO queues + per-stream collection
//! make the work-stealing schedule invisible in the output. The
//! proptests below drive the point home adversarially: random
//! scheduler jitter (forced steals, yields, micro-sleeps via
//! `EngineConfig::schedule_jitter`) and random attach/detach
//! interleavings on a running engine must not move a single bit.

use std::sync::OnceLock;

use ebbiot::engine::FleetOptions;
use ebbiot::prelude::*;
use proptest::prelude::*;

const CAMERAS: usize = 16;
const SECONDS: f64 = 0.4;

fn fleet() -> Vec<SimulatedRecording> {
    FleetConfig::new(DatasetPreset::Lt4, CAMERAS).with_seconds(SECONDS).generate()
}

/// Sequential reference: one fresh pipeline per camera, batch API.
fn sequential(spec: &BackendSpec, fleet: &[SimulatedRecording]) -> Vec<Vec<FrameResult>> {
    let config = EbbiotConfig::paper_default(fleet[0].geometry).with_frame_us(fleet[0].frame_us);
    fleet
        .iter()
        .map(|rec| spec.build(config.clone()).process_recording(&rec.events, rec.duration_us))
        .collect()
}

#[test]
fn sixteen_camera_fleet_is_bit_identical_across_worker_counts() {
    let fleet = fleet();
    assert_eq!(fleet.len(), CAMERAS);
    let config = EbbiotConfig::paper_default(fleet[0].geometry).with_frame_us(fleet[0].frame_us);

    for spec in BACKENDS {
        let expected = sequential(spec, &fleet);
        assert!(expected.iter().all(|frames| !frames.is_empty()), "{}", spec.name);

        for workers in [1usize, 2, 8] {
            let pipelines = spec.build_fleet(&config, CAMERAS);
            let streams: Vec<FleetStream<'_>> = fleet
                .iter()
                .map(|r| FleetStream { events: &r.events, span_us: r.duration_us })
                .collect();
            // Odd chunk size so chunk boundaries and frame boundaries
            // disagree; tiny queue so back-pressure engages.
            let run = Engine::run_fleet(
                pipelines,
                &streams,
                &FleetOptions { workers, queue_capacity: 2, chunk_events: 777 },
            );
            assert_eq!(
                run.streams, expected,
                "backend {} with {workers} workers diverged from sequential",
                spec.name
            );
            assert_eq!(
                run.snapshot.events_in(),
                fleet.iter().map(|r| r.events.len() as u64).sum::<u64>(),
                "no events dropped"
            );
        }
    }
}

#[test]
fn chunk_granularity_does_not_change_fleet_output() {
    let fleet = fleet();
    let config = EbbiotConfig::paper_default(fleet[0].geometry).with_frame_us(fleet[0].frame_us);
    let spec = registry::find_backend("ebbiot").unwrap();
    let expected = sequential(spec, &fleet);

    for chunk_events in [1usize << 30, 191, 1] {
        let pipelines = spec.build_fleet(&config, CAMERAS);
        let streams: Vec<FleetStream<'_>> = fleet
            .iter()
            .map(|r| FleetStream { events: &r.events, span_us: r.duration_us })
            .collect();
        let run = Engine::run_fleet(
            pipelines,
            &streams,
            &FleetOptions { workers: 4, queue_capacity: 8, chunk_events },
        );
        assert_eq!(run.streams, expected, "chunk size {chunk_events}");
    }
}

// -- Scheduler-adversarial proptests ---------------------------------
//
// A smaller fleet than the headline test (the proptests run many cases
// and jitter deliberately wastes time in yields and micro-sleeps), with
// the sequential references computed once per back-end.

const P_CAMERAS: usize = 6;
const P_SECONDS: f64 = 0.25;

fn small_fleet() -> &'static Vec<SimulatedRecording> {
    static FLEET: OnceLock<Vec<SimulatedRecording>> = OnceLock::new();
    FLEET.get_or_init(|| {
        FleetConfig::new(DatasetPreset::Lt4, P_CAMERAS).with_seconds(P_SECONDS).generate()
    })
}

/// Per-backend sequential reference over [`small_fleet`], computed once.
fn small_reference(backend: usize) -> &'static Vec<Vec<FrameResult>> {
    static REFS: OnceLock<Vec<Vec<Vec<FrameResult>>>> = OnceLock::new();
    &REFS.get_or_init(|| BACKENDS.iter().map(|spec| sequential(spec, small_fleet())).collect())
        [backend]
}

fn small_config() -> EbbiotConfig {
    let fleet = small_fleet();
    EbbiotConfig::paper_default(fleet[0].geometry).with_frame_us(fleet[0].frame_us)
}

/// Tiny deterministic RNG for driving the interleaving choices (the
/// engine's own jitter uses `EngineConfig::schedule_jitter`).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Random scheduler perturbation: forced steals, yields and
    // micro-sleeps reorder which worker drains which batch, and tiny
    // batch limits force many acquisitions per stream — output must be
    // bit-identical to sequential for every back-end regardless.
    #[test]
    fn jittered_work_stealing_schedule_is_bit_identical(
        seed in any::<u64>(),
        workers in 2usize..6,
        batch_chunks in 1usize..5,
        chunk_events in 200usize..2000,
    ) {
        let fleet = small_fleet();
        let config = small_config();
        for (backend, spec) in BACKENDS.iter().enumerate() {
            let expected = small_reference(backend);
            let engine = Engine::new(
                EngineConfig {
                    workers,
                    queue_capacity: 2,
                    batch_chunks,
                    schedule_jitter: Some(seed),
                },
                spec.build_fleet(&config, P_CAMERAS),
            );
            // Round-robin pushes so streams genuinely interleave.
            let mut offsets = [0usize; P_CAMERAS];
            loop {
                let mut progressed = false;
                for (i, rec) in fleet.iter().enumerate() {
                    if offsets[i] < rec.events.len() {
                        let end = (offsets[i] + chunk_events).min(rec.events.len());
                        engine.push(StreamId(i), rec.events[offsets[i]..end].to_vec());
                        offsets[i] = end;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            for (i, rec) in fleet.iter().enumerate() {
                engine.finish_stream(StreamId(i), rec.duration_us);
            }
            let out = engine.join();
            prop_assert_eq!(
                &out.streams, expected,
                "backend {} diverged under jitter seed {}", spec.name, seed
            );
        }
    }

    // Random attach/detach interleavings on a *running*, jittered
    // engine: sessions come and go mid-run (as `ebbiot_server` drives
    // them), each session's collected frames must equal its sequential
    // reference, and no stream may leak (every slot ends detached).
    #[test]
    fn random_attach_detach_interleavings_are_bit_identical(
        seed in any::<u64>(),
        workers in 2usize..6,
    ) {
        let fleet = small_fleet();
        let config = small_config();
        let chunk_events = 777usize;
        for (backend, spec) in BACKENDS.iter().enumerate() {
            let expected = small_reference(backend);
            let engine: Engine = Engine::new(
                EngineConfig {
                    workers,
                    queue_capacity: 4,
                    batch_chunks: 2,
                    schedule_jitter: Some(seed),
                },
                Vec::new(),
            );
            let mut rng = Lcg(seed ^ backend as u64);
            // One session per camera; attach/push/finish/detach steps
            // are interleaved at random across live sessions.
            let mut next_session = 0usize;
            let mut live: Vec<(usize, StreamId, usize)> = Vec::new(); // (cam, id, offset)
            let mut collected: Vec<Vec<FrameResult>> = vec![Vec::new(); P_CAMERAS];
            let mut done = 0usize;
            while done < P_CAMERAS {
                let can_attach = next_session < P_CAMERAS;
                let attach_now =
                    can_attach && (live.is_empty() || rng.next().is_multiple_of(3));
                if attach_now {
                    let id = engine.attach(spec.build(config.clone()));
                    live.push((next_session, id, 0));
                    next_session += 1;
                    continue;
                }
                let pick = rng.next() as usize % live.len();
                let (cam, id, offset) = live[pick];
                let events = &fleet[cam].events;
                if offset < events.len() {
                    let end = (offset + chunk_events).min(events.len());
                    engine.push(id, events[offset..end].to_vec());
                    live[pick].2 = end;
                    // Sometimes drain incrementally mid-stream.
                    if rng.next().is_multiple_of(4) {
                        collected[cam].extend(engine.take_results(id));
                    }
                } else {
                    engine.finish_stream(id, fleet[cam].duration_us);
                    engine.wait_finished(id);
                    collected[cam].extend(engine.detach(id));
                    live.swap_remove(pick);
                    done += 1;
                }
            }
            for (cam, frames) in collected.iter().enumerate() {
                prop_assert_eq!(
                    frames, &expected[cam],
                    "backend {} session {} diverged (seed {})", spec.name, cam, seed
                );
            }
            let snap = engine.snapshot();
            prop_assert_eq!(snap.streams.len(), P_CAMERAS, "one slot per session");
            prop_assert!(
                snap.streams.iter().all(|s| s.detached),
                "no leaked streams after all sessions detached"
            );
            let out = engine.join();
            prop_assert!(
                out.streams.iter().all(Vec::is_empty),
                "all frames were drained through detach/take_results"
            );
        }
    }
}
