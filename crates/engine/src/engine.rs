//! The multi-stream engine: router, batched work-stealing scheduler and
//! output collector.
//!
//! Scheduling granularity is the *stream*, not the chunk: a stream with
//! queued work is a schedulable unit that exactly one worker owns at a
//! time. A worker acquiring a stream drains a **batch** of queued jobs
//! in one go (amortizing the wake/hand-off cost that used to dominate
//! per-chunk dispatch) and a stream may migrate to whichever worker is
//! free next — a global injector plus per-worker deques with stealing
//! replaces the old `stream % workers` pinning that load-imbalanced
//! heterogeneous cameras. Determinism is structural and survives any
//! steal schedule: jobs sit in one FIFO queue per stream, ownership is
//! exclusive, and results land in the stream's own ordered buffer.
//!
//! Each stream keeps all of its state — job queue, admission count,
//! counters, results and the hand-off slot — under one mutex with one
//! condvar, so a chunk costs one stream lock on the producer side and
//! one on the worker side, and a snapshot reads each stream
//! consistently.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ebbiot_core::{BoxedTracker, FrameResult, Pipeline, SessionState, Tracker};
use ebbiot_events::{Event, Micros};
use ebbiot_telemetry::{Gauge, Registry};

use crate::telemetry::{EngineTelemetry, StreamTelemetry, WorkerTelemetry};

/// Recovers a mutex guard regardless of std poisoning; the engine's own
/// `failed` flag governs producer liveness.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar`, recovering the guard like [`lock`], counted in
/// `*sleepers`, which the caller's guard protects: the count rises
/// before the wait and falls after it, both under the lock. A notifier
/// that reads 0 under the same lock knows no thread is waiting — any
/// later waiter re-checks its condition before it sleeps — so it may
/// skip the wake syscall. `Condvar::wait` releases the lock atomically,
/// so no wakeup is lost between the two.
fn counted_wait<'a, T>(
    condvar: &Condvar,
    mut guard: MutexGuard<'a, T>,
    sleepers: fn(&mut T) -> &mut usize,
) -> MutexGuard<'a, T> {
    *sleepers(&mut guard) += 1;
    let mut guard = condvar.wait(guard).unwrap_or_else(PoisonError::into_inner);
    *sleepers(&mut guard) -= 1;
    guard
}

/// Identifies one camera stream; streams are numbered in the order they
/// were handed to [`Engine::new`] or attached with [`Engine::attach`].
/// Stream ids are never reused within one engine, even after
/// [`Engine::detach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub usize);

impl core::fmt::Display for StreamId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cam{:02}", self.0)
    }
}

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads draining stream queues. Streams are *not* pinned:
    /// any worker may acquire any ready stream (exactly one at a time),
    /// so heterogeneous cameras balance across the pool.
    pub workers: usize,
    /// Per-stream bound on chunks in flight (queued + processing); the
    /// router blocks or rejects producers beyond it.
    pub queue_capacity: usize,
    /// Maximum queued jobs a worker drains per stream acquisition
    /// (clamped to at least 1). Larger batches amortize scheduler
    /// hand-off cost; the queue capacity still bounds latency.
    pub batch_chunks: usize,
    /// Test-only scheduling perturbation: a seed that makes workers
    /// randomly yield, micro-sleep and skip their local deque (forcing
    /// steals and migrations). Output is bit-identical regardless —
    /// the determinism proptests drive this. `None` (the default)
    /// costs nothing.
    pub schedule_jitter: Option<u64>,
}

impl EngineConfig {
    /// `workers` threads with the default queue capacity and batching.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self { workers, queue_capacity: 32, batch_chunks: 16, schedule_jitter: None }
    }
}

/// A chunk the router refused because the stream's queue was full
/// (non-blocking [`Engine::try_push`] only). The events are handed back
/// untouched so the producer can retry — nothing is ever dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedChunk(pub Vec<Event>);

/// Point-in-time statistics for one stream: what its mutex holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// The stream.
    pub id: StreamId,
    /// Events accepted by the router so far.
    pub events_in: u64,
    /// Chunks accepted by the router so far.
    pub chunks_in: u64,
    /// Frames emitted by the stream's pipeline so far.
    pub frames_out: u64,
    /// Active (confirmed or provisional) trackers after the last chunk.
    pub active_trackers: usize,
    /// Chunks currently queued or in processing.
    pub queue_depth: usize,
    /// Highest queue depth observed since start.
    pub queue_high_water: usize,
    /// Whether the stream's `finish` has been processed.
    pub finished: bool,
    /// Whether the stream was detached (its pipeline dropped and its
    /// results drained by [`Engine::detach`]).
    pub detached: bool,
}

/// Point-in-time view of the engine, from [`Engine::snapshot`] or
/// [`EngineOutput::snapshot`]: the per-stream bookkeeping the stream
/// mutexes hold.
///
/// Everything the engine counts in its [`Registry`] is read there, not
/// copied here: worker busy/acquire/idle/wall time, chunks and steals
/// through [`WorkerTelemetry::register`] for each of the
/// [`Self::workers`] workers, batch sizes and chunk queue-wait through
/// [`EngineTelemetry::register`], and per-stream queue-wait and producer
/// blocking through [`StreamTelemetry::register`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Wall-clock time since the engine started (its workers spawned).
    pub elapsed: Duration,
    /// Worker threads spawned. The registry holds `worker="0"` to
    /// `worker="{workers - 1}"` series and no others; registering a
    /// handle for any other index would create an empty series.
    pub workers: usize,
    /// Per-stream statistics, indexed by [`StreamId`].
    pub streams: Vec<StreamSnapshot>,
}

impl Snapshot {
    /// Total events accepted across streams.
    #[must_use]
    pub fn events_in(&self) -> u64 {
        self.streams.iter().map(|s| s.events_in).sum()
    }

    /// Total frames emitted across streams.
    #[must_use]
    pub fn frames_out(&self) -> u64 {
        self.streams.iter().map(|s| s.frames_out).sum()
    }

    /// Total active trackers across streams.
    #[must_use]
    pub fn active_trackers(&self) -> usize {
        self.streams.iter().map(|s| s.active_trackers).sum()
    }

    /// Aggregate event throughput since start, events/second: 0 for a
    /// zero-duration run, not NaN or a near-infinite rate.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events_in() as f64 / secs
        } else {
            0.0
        }
    }

    /// Deepest queue high-water mark across streams.
    #[must_use]
    pub fn max_queue_high_water(&self) -> usize {
        self.streams.iter().map(|s| s.queue_high_water).max().unwrap_or(0)
    }
}

/// Everything the engine produced, from [`Engine::join`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutput {
    /// Per-stream frame sequences, indexed by [`StreamId`] — bit-for-bit
    /// identical to running each stream's pipeline sequentially,
    /// regardless of worker count. Frames already taken with
    /// [`Engine::take_results`] or [`Engine::detach`] are not repeated
    /// here.
    pub streams: Vec<Vec<FrameResult>>,
    /// Final statistics, taken after all workers drained.
    pub snapshot: Snapshot,
}

/// Scheduling state of one stream: where its ownership currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sched {
    /// No queued jobs; in no scheduler queue, owned by nobody.
    Idle,
    /// Has queued jobs; sits in the injector or one worker's deque.
    Queued,
    /// Exactly one worker holds the stream (and its pipeline).
    Running,
}

/// One unit of per-stream work, queued in submission order. The queue
/// itself is the FIFO that makes the schedule invisible: whichever
/// worker owns the stream drains jobs in exactly this order.
enum WorkItem {
    /// A chunk plus its enqueue instant, stamped by the router so the
    /// owning worker can measure enqueue→dequeue latency.
    Chunk(Vec<Event>, Instant),
    Finish(Micros),
    Detach,
    /// Checkpoint the stream's pipeline into `StreamWork::handoff` —
    /// the worker half of [`Engine::detach_with_state`].
    DetachWithState,
}

/// Everything one stream owns, guarded by its single mutex: the FIFO
/// job queue and ownership state, the admission count, the router and
/// collector counters, the ordered output buffer and (between
/// acquisitions) the pipeline. Exactly one worker may hold `Running` —
/// and thus the pipeline — at a time.
struct StreamWork<T: Tracker> {
    jobs: VecDeque<WorkItem>,
    sched: Sched,
    /// `Some` whenever no worker is running the stream; the owning
    /// worker takes it for the duration of a batch.
    pipeline: Option<Pipeline<T>>,
    /// Worker of the most recent acquisition, the injection affinity
    /// hint: new work prefers the deque of the last owner.
    last_owner: Option<usize>,
    /// Chunks admitted but not yet processed: queued in `jobs`, or
    /// drained into a worker's batch and still waiting their turn or
    /// in progress. Admission is bounded by `queue_capacity`.
    in_flight: usize,
    /// Highest `in_flight` observed.
    high_water: usize,
    events_in: u64,
    chunks_in: u64,
    frames_out: u64,
    active_trackers: usize,
    /// Frames emitted and not yet drained, in emission order.
    results: Vec<FrameResult>,
    /// The checkpoint a `DetachWithState` job parks for the caller.
    handoff: Option<SessionState>,
    /// Producer side: `finish_stream` was called; no more submissions.
    closed: bool,
    /// Worker side: the finish job has been processed.
    finished: bool,
    /// The pipeline was dropped and the slot retired.
    detached: bool,
    /// A worker thread failed; producers and waiters must not block
    /// forever.
    failed: bool,
    /// Threads waiting on the stream's `changed` condvar: blocked
    /// producers, `wait_finished` and `detach_with_state`.
    sleepers: usize,
}

impl<T: Tracker> StreamWork<T> {
    fn new(pipeline: Pipeline<T>, totals: StreamTotals) -> Self {
        Self {
            jobs: VecDeque::new(),
            sched: Sched::Idle,
            active_trackers: pipeline.active_trackers(),
            pipeline: Some(pipeline),
            last_owner: None,
            in_flight: 0,
            high_water: 0,
            events_in: totals.events_in,
            chunks_in: totals.chunks_in,
            frames_out: totals.frames_out,
            results: Vec::new(),
            handoff: None,
            closed: false,
            finished: false,
            detached: false,
            failed: false,
            sleepers: 0,
        }
    }

    fn totals(&self) -> StreamTotals {
        StreamTotals {
            events_in: self.events_in,
            chunks_in: self.chunks_in,
            frames_out: self.frames_out,
        }
    }

    /// Appends one job's frames to the ordered results and folds their
    /// counts into the stream's totals.
    fn publish(
        &mut self,
        telemetry: &EngineTelemetry,
        frames: Vec<FrameResult>,
        active_trackers: usize,
    ) {
        self.frames_out += frames.len() as u64;
        self.active_trackers = active_trackers;
        self.results.extend(frames);
        telemetry.collector_buffered.record(self.results.len() as u64);
    }
}

impl<T: Tracker> core::fmt::Debug for StreamWork<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamWork")
            .field("jobs", &self.jobs.len())
            .field("sched", &self.sched)
            .field("in_flight", &self.in_flight)
            .field("closed", &self.closed)
            .field("finished", &self.finished)
            .field("detached", &self.detached)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

/// Shared per-stream state: one mutex over all of the stream's
/// bookkeeping, and one condvar that producers (waiting for
/// admission), `wait_finished` and `detach_with_state` all wait on.
#[derive(Debug)]
struct StreamState<T: Tracker> {
    work: Mutex<StreamWork<T>>,
    /// Signalled whenever a worker completes a job or fails.
    changed: Condvar,
    /// Queue-wait and producer-block counters, labelled by camera.
    telemetry: StreamTelemetry,
}

impl<T: Tracker> StreamState<T> {
    /// Applies a worker-side change under the stream lock, then wakes
    /// every waiter to re-check its condition — when there is one. Most
    /// publishes find nobody asleep, and the wake is a syscall even then.
    fn update(&self, change: impl FnOnce(&mut StreamWork<T>)) {
        let mut work = lock(&self.work);
        change(&mut work);
        let sleeping = work.sleepers > 0;
        drop(work);
        if sleeping {
            self.changed.notify_all();
        }
    }

    /// Waits for the next [`Self::update`], counted so it wakes this
    /// thread.
    fn wait<'a>(&self, work: MutexGuard<'a, StreamWork<T>>) -> MutexGuard<'a, StreamWork<T>> {
        counted_wait(&self.changed, work, |work| &mut work.sleepers)
    }
}

/// Growable, append-only registry of stream slots. Slots are only ever
/// appended (never removed or reordered), so a [`StreamId`] stays valid
/// for the engine's whole lifetime.
#[derive(Debug)]
struct StreamTable<T: Tracker> {
    slots: RwLock<Vec<Arc<StreamState<T>>>>,
}

impl<T: Tracker> Default for StreamTable<T> {
    fn default() -> Self {
        Self { slots: RwLock::new(Vec::new()) }
    }
}

impl<T: Tracker> StreamTable<T> {
    fn get(&self, id: usize) -> Option<Arc<StreamState<T>>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner).get(id).cloned()
    }

    fn len(&self) -> usize {
        self.slots.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    fn all(&self) -> Vec<Arc<StreamState<T>>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// The ready set: stream ids with queued work, awaiting a worker. A
/// global injector receives streams with no affinity; per-worker deques
/// hold streams the worker last owned (re-queued there after a batch,
/// or injected there by producers for locality). Idle workers steal
/// from other deques, oldest first, so load balances without pinning.
///
/// Everything lives under one mutex: scheduling operations are a
/// handful of `usize` pushes/pops, and batching means workers take the
/// lock once per *batch*, not once per chunk — correctness (no lost
/// wakeups, no stream in two queues) is worth far more here than a
/// lock-free deque.
#[derive(Debug)]
struct SchedQueues {
    injector: VecDeque<usize>,
    locals: Vec<VecDeque<usize>>,
    /// Streams currently ready (in the injector or any deque).
    ready: usize,
    shutdown: bool,
    /// Workers waiting on `available` for a ready stream.
    sleepers: usize,
}

#[derive(Debug)]
struct Scheduler {
    state: Mutex<SchedQueues>,
    available: Condvar,
    /// Live ready-set size for the exposition.
    ready_gauge: Arc<Gauge>,
}

/// One successful stream acquisition from the scheduler.
struct Acquired {
    stream: usize,
    /// Taken from another worker's deque.
    stolen: bool,
}

impl Scheduler {
    fn new(workers: usize, ready_gauge: Arc<Gauge>) -> Self {
        Self {
            state: Mutex::new(SchedQueues {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| VecDeque::new()).collect(),
                ready: 0,
                shutdown: false,
                sleepers: 0,
            }),
            available: Condvar::new(),
            ready_gauge,
        }
    }

    /// Marks `stream` ready: into `prefer`'s deque when the last owner
    /// is known (locality), the global injector otherwise. Wakes one
    /// worker only if one is asleep; a busy worker finds the stream when
    /// it next scans the queues, which it does before it sleeps.
    fn inject(&self, stream: usize, prefer: Option<usize>) {
        let mut state = lock(&self.state);
        match prefer {
            Some(w) if w < state.locals.len() => state.locals[w].push_back(stream),
            _ => state.injector.push_back(stream),
        }
        state.ready += 1;
        self.ready_gauge.set(state.ready as i64);
        let sleeping = state.sleepers > 0;
        drop(state);
        if sleeping {
            self.available.notify_one();
        }
    }

    /// Blocks until a ready stream is available and claims it: own
    /// deque first (locality), then the injector, then a steal from
    /// another worker's deque. Every queue is popped oldest first, so
    /// the stream that became ready first, which is the one a producer
    /// filling streams in time order blocks on, waits least. `skip_local`
    /// (jitter only) demotes the own-deque check behind the steal scan,
    /// forcing migrations. Returns `None` once the engine shut down and
    /// every queue is empty.
    fn next(&self, worker: usize, skip_local: bool) -> Option<Acquired> {
        let mut state = lock(&self.state);
        loop {
            if !skip_local {
                if let Some(stream) = state.locals[worker].pop_front() {
                    return Some(self.claim(&mut state, stream, false));
                }
            }
            if let Some(stream) = state.injector.pop_front() {
                return Some(self.claim(&mut state, stream, false));
            }
            let workers = state.locals.len();
            for victim in (worker + 1..workers).chain(0..worker) {
                if let Some(stream) = state.locals[victim].pop_front() {
                    return Some(self.claim(&mut state, stream, true));
                }
            }
            // Jitter demoted the own deque; it must still drain.
            if let Some(stream) = state.locals[worker].pop_front() {
                return Some(self.claim(&mut state, stream, false));
            }
            if state.shutdown {
                return None;
            }
            state = counted_wait(&self.available, state, |state| &mut state.sleepers);
        }
    }

    fn claim(&self, state: &mut SchedQueues, stream: usize, stolen: bool) -> Acquired {
        state.ready -= 1;
        self.ready_gauge.set(state.ready as i64);
        Acquired { stream, stolen }
    }

    /// Lets workers exit once every queue is drained. Idempotent.
    fn shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.available.notify_all();
    }
}

/// Per-stream router/collector totals, carried across an
/// [`Engine::detach_with_state`] → [`Engine::attach_with_state`]
/// hand-off so a resumed session's statistics continue from where the
/// severed one stopped instead of restarting at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Events accepted by the router.
    pub events_in: u64,
    /// Chunks accepted by the router.
    pub chunks_in: u64,
    /// Frames emitted by the pipeline.
    pub frames_out: u64,
}

/// Everything [`Engine::detach_with_state`] hands back: the checkpoint,
/// the stream's running totals, and any frames not yet drained with
/// [`Engine::take_results`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionHandoff {
    /// The pipeline's checkpoint, ready for
    /// [`Engine::attach_with_state`] (same or another engine) or an
    /// `EBSS` snapshot on disk.
    pub state: ebbiot_core::SessionState,
    /// The stream's router/collector totals at hand-off.
    pub totals: StreamTotals,
    /// Frames emitted but not yet drained, in emission order.
    pub frames: Vec<FrameResult>,
}

/// Marks every stream `failed` when a worker thread unwinds, so
/// producers blocked on a full queue (and callers blocked in
/// [`Engine::wait_finished`] or [`Engine::detach_with_state`]) fail
/// fast instead of hanging forever.
struct PoisonOnPanic<T: Tracker>(Arc<StreamTable<T>>);

impl<T: Tracker> Drop for PoisonOnPanic<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for stream in self.0.all() {
                stream.update(|work| work.failed = true);
            }
        }
    }
}

/// SplitMix64 — the jitter source for schedule perturbation (test-only;
/// deterministic per seed so failures reproduce).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A multi-camera tracking engine: owns one [`Pipeline`] per stream and
/// drives them on a fixed pool of work-stealing worker threads.
///
/// Streams are either handed over at construction ([`Engine::new`]) or
/// attached to the *running* engine one at a time ([`Engine::attach`]) —
/// the latter is how `ebbiot_server` maps network sessions onto engine
/// streams — and both kinds obey the same determinism guarantee.
///
/// See the [crate docs](crate) for the determinism guarantee and an
/// example.
#[derive(Debug)]
pub struct Engine<T: Tracker + Send + 'static = BoxedTracker> {
    scheduler: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
    streams: Arc<StreamTable<T>>,
    config: EngineConfig,
    started: Instant,
    /// Engine-wide contention instruments (always on — per-chunk cost).
    telemetry: EngineTelemetry,
}

impl<T: Tracker + Send + 'static> Engine<T> {
    /// Spawns the worker pool, taking ownership of one pipeline per
    /// stream. Stream `i` gets [`StreamId`]`(i)`; any worker may drive
    /// any stream (ownership migrates, one worker at a time).
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero or `config.queue_capacity`
    /// is zero.
    #[must_use]
    pub fn new(config: EngineConfig, pipelines: Vec<Pipeline<T>>) -> Self {
        Self::with_registry(config, pipelines, Arc::new(Registry::new()))
    }

    /// Like [`Self::new`], but registers the engine's contention metrics
    /// in a caller-provided [`Registry`] — so one registry can aggregate
    /// engine, pipeline and server metrics for a single STATS exposition.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::new`].
    #[must_use]
    pub fn with_registry(
        config: EngineConfig,
        pipelines: Vec<Pipeline<T>>,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        assert!(config.queue_capacity > 0, "engine queue capacity must be at least 1");
        // More workers than initial streams can never all run at once
        // (a stream is owned by one worker at a time) unless sessions
        // attach later; clamp to the construction-time stream count as
        // the historical behaviour. Determinism never depended on the
        // worker count — and the scheduler drains fine oversubscribed.
        let workers =
            if pipelines.is_empty() { config.workers } else { config.workers.min(pipelines.len()) };
        let config = EngineConfig { workers, ..config };
        let streams: Arc<StreamTable<T>> = Arc::new(StreamTable::default());
        let telemetry = EngineTelemetry::register(registry);
        let scheduler =
            Arc::new(Scheduler::new(config.workers, Arc::clone(&telemetry.ready_streams)));

        let mut worker_handles = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let streams = Arc::clone(&streams);
            let scheduler = Arc::clone(&scheduler);
            let stats = WorkerTelemetry::register(telemetry.registry(), w);
            let shared = telemetry.clone();
            let batch = config.batch_chunks.max(1);
            let jitter = config.schedule_jitter;
            let handle = std::thread::Builder::new()
                .name(format!("ebbiot-worker-{w}"))
                .spawn(move || worker_loop(w, &scheduler, &streams, &shared, &stats, batch, jitter))
                .expect("spawn engine worker");
            worker_handles.push(handle);
        }

        let engine = Self {
            scheduler,
            workers: worker_handles,
            streams,
            config,
            started: Instant::now(),
            telemetry,
        };
        for pipeline in pipelines {
            let _ = engine.attach(pipeline);
        }
        engine
    }

    /// The engine's contention instruments (histograms readable live).
    #[must_use]
    pub const fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// The registry the engine's metrics live in.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        self.telemetry.registry()
    }

    /// Number of stream slots ever allocated (attached streams are
    /// counted even after [`Engine::detach`] — ids are not reused).
    #[must_use]
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Number of worker threads actually spawned (the configured count,
    /// clamped to the construction-time stream count when pipelines were
    /// handed to [`Engine::new`]).
    #[must_use]
    pub const fn num_workers(&self) -> usize {
        self.config.workers
    }

    /// Adds a stream to the *running* engine: allocates the next
    /// [`StreamId`], parks `pipeline` in the stream's slot and returns
    /// the id. Chunks may be pushed immediately — the pipeline is
    /// installed before `attach` returns, so the first worker to
    /// acquire the stream finds it in place (no hand-off race).
    ///
    /// This is how network sessions join: `ebbiot_server` attaches one
    /// stream per accepted connection and detaches it when the session
    /// ends.
    pub fn attach(&self, pipeline: Pipeline<T>) -> StreamId {
        self.attach_with_state(pipeline, StreamTotals::default())
    }

    /// Like [`Self::attach`], but resumes a checkpointed session: the
    /// pipeline (restored via `Pipeline::restore` or handed over live
    /// by [`Self::detach_with_state`]) picks up at its checkpoint, and
    /// the new stream's counters continue from `totals` instead of
    /// zero — so fleet statistics survive the hand-off. Installation
    /// before return makes this safe on a running engine, like
    /// `attach`.
    pub fn attach_with_state(&self, pipeline: Pipeline<T>, totals: StreamTotals) -> StreamId {
        // The slots write lock orders id allocation.
        let mut slots = self.streams.slots.write().unwrap_or_else(PoisonError::into_inner);
        let id = StreamId(slots.len());
        slots.push(Arc::new(StreamState {
            work: Mutex::new(StreamWork::new(pipeline, totals)),
            changed: Condvar::new(),
            telemetry: StreamTelemetry::register(self.telemetry.registry(), &id.to_string()),
        }));
        id
    }

    fn state(&self, stream: StreamId) -> Arc<StreamState<T>> {
        self.streams.get(stream.0).unwrap_or_else(|| {
            panic!("unknown stream {stream}: engine has {} streams", self.streams.len())
        })
    }

    /// Appends a job to the locked stream's FIFO queue and releases the
    /// lock, then marks the stream ready (waking a worker) when it was
    /// idle. A stream already queued or running will see the job when
    /// its owner re-checks the queue after the current batch.
    fn enqueue(&self, stream: StreamId, mut work: MutexGuard<'_, StreamWork<T>>, item: WorkItem) {
        work.jobs.push_back(item);
        if work.sched == Sched::Idle {
            work.sched = Sched::Queued;
            let prefer = work.last_owner;
            drop(work);
            self.scheduler.inject(stream.0, prefer);
        }
    }

    /// Admits one chunk under the stream lock: while the stream has
    /// `queue_capacity` chunks in flight, a `blocking` producer waits
    /// for a worker to complete one and a non-blocking one gets the
    /// chunk back.
    fn admit(
        &self,
        stream: StreamId,
        chunk: Vec<Event>,
        blocking: bool,
    ) -> Result<(), RejectedChunk> {
        let state = self.state(stream);
        let admission = Instant::now();
        let mut work = lock(&state.work);
        loop {
            assert!(!work.failed, "engine worker failed; stream queue will never drain");
            assert!(!work.closed, "push to {stream} after finish_stream");
            if work.in_flight < self.config.queue_capacity {
                break;
            }
            if !blocking {
                return Err(RejectedChunk(chunk));
            }
            work = state.wait(work);
        }
        if blocking {
            state.telemetry.producer_block.add_duration(admission.elapsed());
        }
        work.in_flight += 1;
        work.high_water = work.high_water.max(work.in_flight);
        work.chunks_in += 1;
        work.events_in += chunk.len() as u64;
        self.telemetry.queue_depth.record(work.in_flight as u64);
        self.enqueue(stream, work, WorkItem::Chunk(chunk, Instant::now()));
        Ok(())
    }

    /// Routes a time-ordered chunk of events to `stream`, blocking while
    /// the stream's queue is at capacity (back-pressure). Chunks pushed
    /// by one producer are processed in push order; nothing is ever
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream, after [`Self::finish_stream`], or
    /// when a worker has failed.
    pub fn push(&self, stream: StreamId, chunk: Vec<Event>) {
        let admitted = self.admit(stream, chunk, true);
        debug_assert!(admitted.is_ok(), "a blocking push is never rejected");
    }

    /// Like [`Self::push`] but never blocks: a full stream queue hands
    /// the chunk back as [`RejectedChunk`] for the producer to retry.
    ///
    /// # Errors
    ///
    /// Returns the chunk untouched when the stream is at capacity.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream, after [`Self::finish_stream`], or
    /// when a worker has failed.
    pub fn try_push(&self, stream: StreamId, chunk: Vec<Event>) -> Result<(), RejectedChunk> {
        self.admit(stream, chunk, false)
    }

    /// Ends `stream`: its pipeline emits the open window plus trailing
    /// empty frames covering at least `span_us` (the streaming
    /// counterpart of `process_recording`'s span). Must be the last
    /// submission for the stream.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream, on a second `finish_stream` for the
    /// same stream, or when a worker has failed.
    pub fn finish_stream(&self, stream: StreamId, span_us: Micros) {
        let state = self.state(stream);
        let mut work = lock(&state.work);
        assert!(!work.closed, "finish_stream called twice for {stream}");
        work.closed = true;
        self.enqueue(stream, work, WorkItem::Finish(span_us));
    }

    /// Blocks until the worker has processed `stream`'s finish job, so
    /// every frame the stream will ever emit is available to
    /// [`Self::take_results`]. Must be called after
    /// [`Self::finish_stream`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream, when `finish_stream` was never
    /// called for it (the wait could block forever), or when a worker
    /// has failed.
    pub fn wait_finished(&self, stream: StreamId) {
        let state = self.state(stream);
        let mut work = lock(&state.work);
        assert!(work.closed, "wait_finished on {stream} before finish_stream");
        while !work.finished {
            assert!(!work.failed, "engine worker failed while {stream} awaited finish");
            work = state.wait(work);
        }
    }

    /// Drains and returns the frames `stream` has emitted since the last
    /// take — the incremental counterpart of [`Self::join`]'s per-stream
    /// output, used by sessions streaming results back to a client while
    /// ingestion is still running. Frames are returned exactly once and
    /// always in emission order.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream.
    #[must_use]
    pub fn take_results(&self, stream: StreamId) -> Vec<FrameResult> {
        std::mem::take(&mut lock(&self.state(stream).work).results)
    }

    /// The highest queue depth `stream` has seen — the per-stream
    /// counterpart of [`Snapshot::max_queue_high_water`], without
    /// snapshotting every stream.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream.
    #[must_use]
    pub fn queue_high_water(&self, stream: StreamId) -> usize {
        lock(&self.state(stream).work).high_water
    }

    /// Retires a finished stream from the running engine: queues a job
    /// that drops its pipeline and returns any frames not yet drained
    /// by [`Self::take_results`]. The [`StreamId`] stays allocated (ids
    /// are never reused) but accepts no further pushes.
    ///
    /// A detached slot is retained as a small tombstone so ids stay
    /// stable and its final counters remain visible to
    /// [`Self::snapshot`]; an engine serving short-lived sessions
    /// therefore grows by one (drained) slot per session over its
    /// lifetime.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream, when the stream has not finished
    /// (call [`Self::finish_stream`] then [`Self::wait_finished`]
    /// first), on a second detach, or when a worker has failed.
    pub fn detach(&self, stream: StreamId) -> Vec<FrameResult> {
        let state = self.state(stream);
        let mut work = lock(&state.work);
        assert!(work.finished, "detach of {stream} before its finish was processed");
        assert!(!work.detached, "detach called twice for {stream}");
        work.detached = true;
        let remaining = std::mem::take(&mut work.results);
        self.enqueue(stream, work, WorkItem::Detach);
        remaining
    }

    /// Checkpoints and retires a **running** stream: blocks until the
    /// owning worker has drained every chunk already pushed, then
    /// freezes the pipeline into a
    /// [`SessionState`] and returns it with
    /// the stream's totals and undrained frames. No `finish_stream`
    /// happens — the open window rides along inside the state, so a
    /// later [`Self::attach_with_state`] (same engine, another engine,
    /// or another process via an `EBSS` snapshot) resumes bit-
    /// identically to a never-interrupted run.
    ///
    /// Race-freedom comes from the per-stream FIFO job queue: the
    /// hand-off job is enqueued behind every accepted chunk, so
    /// whichever worker owns the stream checkpoints only after all of
    /// them — and no chunk can arrive after it (the slot is closed to
    /// producers first). Which worker that is doesn't matter.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream, after [`Self::finish_stream`] (a
    /// finished stream has nothing live to hand over — use
    /// [`Self::detach`]), on a second detach, or when a worker has
    /// failed.
    pub fn detach_with_state(&self, stream: StreamId) -> SessionHandoff {
        let state = self.state(stream);
        let mut work = lock(&state.work);
        assert!(!work.closed, "detach_with_state of {stream} after finish_stream");
        assert!(!work.detached, "detach called twice for {stream}");
        work.closed = true;
        work.detached = true;
        self.enqueue(stream, work, WorkItem::DetachWithState);
        let mut work = lock(&state.work);
        loop {
            if let Some(session) = work.handoff.take() {
                let frames = std::mem::take(&mut work.results);
                return SessionHandoff { state: session, totals: work.totals(), frames };
            }
            assert!(!work.failed, "engine worker failed during the state hand-off");
            work = state.wait(work);
        }
    }

    /// Current per-stream statistics; see [`Snapshot`] for where the
    /// worker and scheduler numbers live.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            elapsed: self.started.elapsed(),
            workers: self.config.workers,
            streams: self
                .streams
                .all()
                .iter()
                .enumerate()
                .map(|(i, state)| {
                    let work = lock(&state.work);
                    StreamSnapshot {
                        id: StreamId(i),
                        events_in: work.events_in,
                        chunks_in: work.chunks_in,
                        frames_out: work.frames_out,
                        active_trackers: work.active_trackers,
                        queue_depth: work.in_flight,
                        queue_high_water: work.high_water,
                        finished: work.finished,
                        detached: work.detached,
                    }
                })
                .collect(),
        }
    }

    /// Shuts the engine down: signals the scheduler, waits for the
    /// workers to drain every queued job, and returns every stream's
    /// re-sequenced frame output plus a final [`Snapshot`]. Streams
    /// already drained through [`Self::take_results`] /
    /// [`Self::detach`] contribute only their untaken frames (usually
    /// none).
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic (e.g. out-of-order events pushed to a
    /// stream) on the caller.
    #[must_use]
    pub fn join(mut self) -> EngineOutput {
        self.scheduler.shutdown();
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let streams =
            self.streams.all().iter().map(|s| std::mem::take(&mut lock(&s.work).results)).collect();
        EngineOutput { streams, snapshot: self.snapshot() }
    }
}

impl<T: Tracker + Send + 'static> Drop for Engine<T> {
    /// An engine dropped without [`Engine::join`] (e.g. a replay error
    /// path) must not strand its workers in the scheduler wait: signal
    /// shutdown so they drain whatever is queued and exit detached.
    fn drop(&mut self) {
        self.scheduler.shutdown();
    }
}

fn worker_loop<T: Tracker>(
    worker: usize,
    scheduler: &Scheduler,
    streams: &Arc<StreamTable<T>>,
    telemetry: &EngineTelemetry,
    stats: &WorkerTelemetry,
    batch_chunks: usize,
    jitter: Option<u64>,
) {
    let _poison_guard = PoisonOnPanic(Arc::clone(streams));
    let mut rng =
        jitter.map(|seed| SplitMix(seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1));
    // Worker-local scratch, reused across every batch drain: the job
    // buffer never reallocates once grown to the batch limit.
    let mut batch: Vec<WorkItem> = Vec::with_capacity(batch_chunks);
    // Telescoping time accounting: every nanosecond between `started`
    // and exit is attributed to exactly one of idle (waiting for a
    // ready stream), acquire (claiming ownership + draining the batch)
    // or busy (processing jobs), so busy + acquire + idle == wall
    // *exactly*.
    let started = Instant::now();
    let mut mark = started;
    loop {
        // Jitter (tests only): perturb the schedule so the determinism
        // proptests explore many steal/migration interleavings.
        let mut skip_local = false;
        if let Some(rng) = rng.as_mut() {
            let roll = rng.next();
            skip_local = roll % 3 == 0;
            if roll % 4 == 0 {
                std::thread::yield_now();
            } else if roll % 5 == 0 {
                std::thread::sleep(Duration::from_micros(roll % 200));
            }
        }
        let Some(acquired) = scheduler.next(worker, skip_local) else {
            let now = Instant::now();
            stats.idle.add_duration(now - mark);
            stats.wall.add_duration(now - started);
            break;
        };
        let picked = Instant::now();
        stats.idle.add_duration(picked - mark);
        if acquired.stolen {
            stats.steals.inc();
        }
        let state = streams.get(acquired.stream).expect("scheduled stream exists");

        // Acquire: take exclusive ownership, drain one batch of jobs
        // and lift the pipeline out (it travels with the batch).
        let mut pipeline = {
            let mut work = lock(&state.work);
            debug_assert_eq!(work.sched, Sched::Queued, "acquired stream must be queued");
            work.sched = Sched::Running;
            work.last_owner = Some(worker);
            let take = work.jobs.len().min(batch_chunks);
            batch.extend(work.jobs.drain(..take));
            work.pipeline.take()
        };
        telemetry.batch_size.record(batch.len() as u64);
        let dequeued = Instant::now();
        stats.acquire.add_duration(dequeued - picked);

        // Each job's outcome is published under one stream lock, which
        // also wakes producers and waiters. A chunk leaves `in_flight`
        // only once its frames are visible, and frames land before
        // `finished` flips, so `wait_finished` → `take_results` sees
        // every frame the stream will ever emit.
        for job in batch.drain(..) {
            match job {
                WorkItem::Chunk(chunk, enqueued) => {
                    let wait = dequeued.saturating_duration_since(enqueued);
                    telemetry.queue_wait.record_duration(wait);
                    state.telemetry.queue_wait.add_duration(wait);
                    stats.chunks.inc();
                    let p = pipeline.as_mut().expect("owned stream has a pipeline");
                    let frames = p.push(&chunk);
                    let active = p.active_trackers();
                    state.update(|work| {
                        work.publish(telemetry, frames, active);
                        work.in_flight -= 1;
                    });
                }
                WorkItem::Finish(span_us) => {
                    let p = pipeline.as_mut().expect("owned stream has a pipeline");
                    let frames = p.finish(span_us);
                    let active = p.active_trackers();
                    state.update(|work| {
                        work.publish(telemetry, frames, active);
                        work.finished = true;
                    });
                }
                WorkItem::Detach => {
                    pipeline = None;
                }
                WorkItem::DetachWithState => {
                    let session =
                        pipeline.take().expect("owned stream has a pipeline").checkpoint();
                    state.update(|work| work.handoff = Some(session));
                }
            }
        }

        // Release: park the pipeline and, if more jobs arrived while
        // this batch ran, mark the stream ready again (own deque, for
        // locality — idle peers can still steal it).
        let requeue = {
            let mut work = lock(&state.work);
            work.pipeline = pipeline.take();
            if work.jobs.is_empty() {
                work.sched = Sched::Idle;
                false
            } else {
                work.sched = Sched::Queued;
                true
            }
        };
        if requeue {
            scheduler.inject(acquired.stream, Some(worker));
        }
        let done = Instant::now();
        stats.busy.add_duration(done - dequeued);
        mark = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_core::{EbbiotConfig, EbbiotPipeline};
    use ebbiot_events::SensorGeometry;

    fn pipelines(n: usize) -> Vec<EbbiotPipeline> {
        let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
        (0..n).map(|_| EbbiotPipeline::new(config.clone())).collect()
    }

    /// Dense block of events surviving the median filter.
    fn block_events(x0: u16, t0: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for dy in 0..12u16 {
            for dx in 0..24u16 {
                events.push(Event::on(x0 + dx, 80 + dy, t0 + u64::from(dy)));
            }
        }
        events
    }

    #[test]
    fn a_worker_claims_its_own_deque_oldest_first() {
        let scheduler = Scheduler::new(1, Arc::new(Gauge::new()));
        for stream in 0..3 {
            scheduler.inject(stream, Some(0));
        }
        let order: Vec<usize> =
            (0..3).map(|_| scheduler.next(0, false).expect("a stream is ready").stream).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn engine_with_no_streams_joins_empty() {
        let engine = Engine::new(EngineConfig::with_workers(2), pipelines(0));
        let telemetry = engine.telemetry().clone();
        let out = engine.join();
        assert!(out.streams.is_empty());
        assert_eq!(out.snapshot.events_in(), 0);
        assert_eq!(telemetry.batch_size.count(), 0);
    }

    #[test]
    fn per_stream_outputs_match_sequential_for_any_worker_count() {
        let chunks: Vec<Vec<Event>> =
            (0..5u64).map(|k| block_events(40 + 4 * k as u16, k * 66_000)).collect();
        let span = 8 * 66_000;

        let mut reference = pipelines(1).pop().unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            expected.extend(reference.push(chunk));
        }
        expected.extend(reference.finish(span));

        for workers in [1, 2, 3, 8] {
            let engine = Engine::new(EngineConfig::with_workers(workers), pipelines(3));
            for chunk in &chunks {
                for s in 0..3 {
                    engine.push(StreamId(s), chunk.clone());
                }
            }
            for s in 0..3 {
                engine.finish_stream(StreamId(s), span);
            }
            let out = engine.join();
            assert_eq!(out.streams.len(), 3);
            for (s, frames) in out.streams.iter().enumerate() {
                assert_eq!(frames, &expected, "stream {s} with {workers} workers");
            }
            assert_eq!(out.snapshot.frames_out(), 3 * expected.len() as u64);
            assert!(out.snapshot.streams.iter().all(|s| s.finished));
        }
    }

    #[test]
    fn batching_amortizes_acquisitions_below_chunk_count() {
        // One worker, one stream, tiny batch limit: acquisitions are
        // counted per batch, not per chunk, and respect the limit.
        let config = EngineConfig {
            workers: 1,
            batch_chunks: 2,
            queue_capacity: 32,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config, pipelines(1));
        let telemetry = engine.telemetry().clone();
        for k in 0..6u64 {
            engine.push(StreamId(0), block_events(40 + 3 * k as u16, k * 66_000));
        }
        engine.finish_stream(StreamId(0), 7 * 66_000);
        let _ = engine.join();
        let batches = telemetry.batch_size.count();
        assert!(batches >= 1, "at least one acquisition");
        assert!(batches <= 7, "never more acquisitions than jobs (6 chunks + finish): {batches}");
        assert!(telemetry.batch_size.mean() >= 1.0);
        assert!(telemetry.batch_size.max_bound() >= 1);
        let steals = WorkerTelemetry::register(telemetry.registry(), 0).steals.get();
        assert_eq!(steals, 0, "one worker cannot steal from itself");
    }

    #[test]
    fn snapshot_counts_router_accepts() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(2));
        engine.push(StreamId(0), block_events(40, 0));
        engine.push(StreamId(0), block_events(44, 66_000));
        engine.push(StreamId(1), block_events(40, 0));
        let snap = engine.snapshot();
        assert_eq!(snap.streams[0].chunks_in, 2);
        assert_eq!(snap.streams[1].chunks_in, 1);
        assert_eq!(snap.events_in(), 3 * 288);
        let out = engine.join();
        assert!(out.snapshot.streams[0].queue_high_water >= 1);
        assert_eq!(out.snapshot.events_in(), 3 * 288);
        assert!(out.snapshot.elapsed >= snap.elapsed);
    }

    #[test]
    #[should_panic(expected = "unknown stream")]
    fn pushing_to_unknown_stream_panics() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.push(StreamId(7), Vec::new());
    }

    #[test]
    #[should_panic(expected = "after finish_stream")]
    fn pushing_after_finish_panics() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.finish_stream(StreamId(0), 66_000);
        // The producer-side closed flag fires immediately — no need to
        // wait for the worker to process the finish job.
        engine.push(StreamId(0), Vec::new());
    }

    #[test]
    #[should_panic(expected = "called twice")]
    fn double_finish_panics() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.finish_stream(StreamId(0), 66_000);
        engine.finish_stream(StreamId(0), 66_000);
    }

    #[test]
    fn workers_are_clamped_to_stream_count() {
        let engine = Engine::new(EngineConfig::with_workers(64), pipelines(2));
        assert_eq!(engine.num_workers(), 2);
        // An engine built without initial pipelines keeps its configured
        // worker count for streams attached later.
        let engine = Engine::new(EngineConfig::with_workers(3), pipelines(0));
        assert_eq!(engine.num_workers(), 3);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn worker_panic_resurfaces_on_join() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.push(StreamId(0), vec![Event::on(10, 10, 70_000)]);
        engine.push(StreamId(0), vec![Event::on(10, 10, 0)]); // out of order
        let _ = engine.join();
    }

    #[test]
    fn zero_duration_snapshot_rates_are_zero_not_nan() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.push(StreamId(0), block_events(40, 0));
        let mut snap = engine.snapshot();
        snap.elapsed = Duration::ZERO;
        assert!(snap.events_in() > 0, "events were accepted");
        assert_eq!(snap.events_per_sec(), 0.0, "zero-duration rate is 0, not inf/NaN");
        engine.finish_stream(StreamId(0), 66_000);
        let _ = engine.join();
    }

    #[test]
    fn worker_time_accounting_is_exact_after_join() {
        let engine = Engine::new(EngineConfig::with_workers(2), pipelines(2));
        let telemetry = engine.telemetry().clone();
        for k in 0..4u64 {
            engine.push(StreamId(0), block_events(40 + 3 * k as u16, k * 66_000));
            engine.push(StreamId(1), block_events(60 + 3 * k as u16, k * 66_000));
        }
        engine.finish_stream(StreamId(0), 5 * 66_000);
        engine.finish_stream(StreamId(1), 5 * 66_000);
        let out = engine.join();
        assert_eq!(out.snapshot.workers, 2);
        let mut drained = 0;
        for w in 0..out.snapshot.workers {
            let t = WorkerTelemetry::register(telemetry.registry(), w);
            let wall = t.wall.get();
            assert!(wall > 0, "wall stamped at worker exit");
            assert_eq!(
                t.busy.get() + t.acquire.get() + t.idle.get(),
                wall,
                "telescoping accounting: busy + acquire + idle == wall for worker {w}"
            );
            drained += t.chunks.get();
        }
        // Chunk bookkeeping lines up across views: per-worker chunk
        // counts equal router accepts (which worker drained which chunk
        // is the scheduler's business — only the total is invariant).
        let accepted: u64 = out.snapshot.streams.iter().map(|s| s.chunks_in).sum();
        assert_eq!(drained, accepted);
        // Every drained chunk was part of exactly one batch.
        assert!(telemetry.batch_size.count() >= 2, "each stream needs at least one acquisition");
    }

    #[test]
    fn stream_queue_wait_counters_accumulate() {
        let registry = Arc::new(Registry::new());
        let engine = Engine::with_registry(
            EngineConfig::with_workers(1),
            pipelines(1),
            Arc::clone(&registry),
        );
        let telemetry = engine.telemetry().clone();
        for k in 0..3u64 {
            engine.push(StreamId(0), block_events(40 + 3 * k as u16, k * 66_000));
        }
        engine.finish_stream(StreamId(0), 4 * 66_000);
        let _ = engine.join();
        let stream = StreamTelemetry::register(&registry, "cam00");
        assert!(stream.queue_wait.get() > 0, "every chunk waits at least a little");
        assert_eq!(telemetry.queue_wait.count(), 3, "one sample per chunk");
        assert_eq!(telemetry.queue_depth.count(), 3, "one depth sample per push");
        let text = registry.render();
        assert!(
            text.contains("ebbiot_engine_stream_queue_wait_nanoseconds_total{stream=\"cam00\"}")
        );
        assert!(text.contains("ebbiot_engine_worker_chunks_total{worker=\"0\"} 3"));
        assert!(text.contains("ebbiot_engine_worker_steals_total{worker=\"0\"} 0"));
        assert!(text.contains("ebbiot_engine_batch_chunks"));
    }

    #[test]
    fn stream_id_displays_as_camera() {
        assert_eq!(StreamId(3).to_string(), "cam03");
        assert_eq!(StreamId(12).to_string(), "cam12");
    }

    #[test]
    fn attached_sessions_match_construction_time_streams() {
        // One stream from construction, one attached while running —
        // identical inputs must give identical outputs.
        let chunks: Vec<Vec<Event>> =
            (0..4u64).map(|k| block_events(50 + 3 * k as u16, k * 66_000)).collect();
        let span = 5 * 66_000;

        let engine = Engine::new(EngineConfig::with_workers(2), pipelines(1));
        for chunk in &chunks {
            engine.push(StreamId(0), chunk.clone());
        }
        let attached = engine.attach(pipelines(1).pop().unwrap());
        assert_eq!(attached, StreamId(1));
        for chunk in &chunks {
            engine.push(attached, chunk.clone());
        }
        engine.finish_stream(StreamId(0), span);
        engine.finish_stream(attached, span);
        let out = engine.join();
        assert_eq!(out.streams[0], out.streams[1]);
        assert!(!out.streams[0].is_empty());
    }

    #[test]
    fn take_results_drains_incrementally_and_join_returns_the_rest() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        // Two windows: pushing the second window's events completes the
        // first frame.
        engine.push(StreamId(0), block_events(40, 0));
        engine.push(StreamId(0), block_events(44, 66_000));
        engine.finish_stream(StreamId(0), 2 * 66_000);
        engine.wait_finished(StreamId(0));

        let mut reference = pipelines(1).pop().unwrap();
        let mut expected = Vec::new();
        expected.extend(reference.push(&block_events(40, 0)));
        expected.extend(reference.push(&block_events(44, 66_000)));
        expected.extend(reference.finish(2 * 66_000));

        let first = engine.take_results(StreamId(0));
        assert_eq!(first, expected, "everything is available after wait_finished");
        assert!(engine.take_results(StreamId(0)).is_empty(), "frames are taken exactly once");
        let out = engine.join();
        assert!(out.streams[0].is_empty(), "join does not repeat taken frames");
        assert_eq!(out.snapshot.frames_out(), expected.len() as u64);
    }

    #[test]
    fn detach_retires_a_stream_and_ids_are_not_reused() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(2));
        engine.push(StreamId(0), block_events(40, 0));
        engine.finish_stream(StreamId(0), 66_000);
        engine.wait_finished(StreamId(0));
        let frames = engine.detach(StreamId(0));
        assert!(!frames.is_empty());

        // The slot survives as a tombstone; a new attach gets a new id.
        let fresh = engine.attach(pipelines(1).pop().unwrap());
        assert_eq!(fresh, StreamId(2));
        assert_eq!(engine.num_streams(), 3);
        let snap = engine.snapshot();
        assert!(snap.streams[0].detached);
        assert!(!snap.streams[1].detached);

        engine.finish_stream(StreamId(1), 0);
        engine.finish_stream(fresh, 0);
        let out = engine.join();
        assert_eq!(out.streams.len(), 3);
        assert!(out.streams[0].is_empty(), "detached stream was already drained");
    }

    #[test]
    #[should_panic(expected = "before its finish was processed")]
    fn detach_before_finish_panics() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.detach(StreamId(0));
    }

    #[test]
    fn detach_with_state_resumes_bit_identically_and_keeps_totals() {
        let chunks: Vec<Vec<Event>> =
            (0..6u64).map(|k| block_events(40 + 3 * k as u16, k * 66_000)).collect();
        let span = 8 * 66_000;

        let mut reference = pipelines(1).pop().unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            expected.extend(reference.push(chunk));
        }
        expected.extend(reference.finish(span));

        // Stream 0 is severed mid-stream; stream 1 runs uninterrupted on
        // the same engine, proving the hand-off does not disturb peers.
        let engine = Engine::new(EngineConfig::with_workers(2), pipelines(2));
        for chunk in &chunks[..3] {
            engine.push(StreamId(0), chunk.clone());
        }
        for chunk in &chunks {
            engine.push(StreamId(1), chunk.clone());
        }
        let handoff = engine.detach_with_state(StreamId(0));
        assert_eq!(handoff.totals.chunks_in, 3);
        assert_eq!(handoff.state.backend, "ebbiot");

        // Rebuild the pipeline from the checkpoint (as a cross-process
        // recovery would) and resume it as a new stream.
        let config = EbbiotConfig::paper_default(SensorGeometry::davis240());
        let tracker = ebbiot_core::OverlapTracker::new(config.geometry, config.ot);
        let restored = Pipeline::restore(config, tracker, &handoff.state).unwrap();
        let resumed = engine.attach_with_state(restored, handoff.totals);
        for chunk in &chunks[3..] {
            engine.push(resumed, chunk.clone());
        }
        engine.finish_stream(resumed, span);
        engine.finish_stream(StreamId(1), span);
        let out = engine.join();

        let mut combined = handoff.frames.clone();
        combined.extend(out.streams[resumed.0].iter().cloned());
        assert_eq!(combined, expected, "severed + resumed equals uninterrupted");
        assert_eq!(out.streams[1], expected, "peer stream is undisturbed");
        let resumed_snap = &out.snapshot.streams[resumed.0];
        assert_eq!(resumed_snap.chunks_in, 6, "totals carried across the hand-off");
        assert_eq!(resumed_snap.events_in, chunks.iter().map(|c| c.len() as u64).sum::<u64>());
        assert_eq!(resumed_snap.frames_out, expected.len() as u64);
        assert!(out.snapshot.streams[0].detached);
    }

    #[test]
    #[should_panic(expected = "after finish_stream")]
    fn detach_with_state_after_finish_panics() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.finish_stream(StreamId(0), 66_000);
        let _ = engine.detach_with_state(StreamId(0));
    }

    #[test]
    #[should_panic(expected = "before finish_stream")]
    fn wait_finished_without_finish_panics() {
        let engine = Engine::new(EngineConfig::with_workers(1), pipelines(1));
        engine.wait_finished(StreamId(0));
    }

    #[test]
    fn jittered_schedule_is_still_bit_identical() {
        // The jitter knob perturbs worker acquisition order (yields,
        // micro-sleeps, forced steals) — output must not move.
        let chunks: Vec<Vec<Event>> =
            (0..6u64).map(|k| block_events(40 + 4 * k as u16, k * 66_000)).collect();
        let span = 8 * 66_000;
        let mut reference = pipelines(1).pop().unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            expected.extend(reference.push(chunk));
        }
        expected.extend(reference.finish(span));

        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let config = EngineConfig {
                workers: 3,
                queue_capacity: 2,
                batch_chunks: 2,
                schedule_jitter: Some(seed),
            };
            let engine = Engine::new(config, pipelines(3));
            for chunk in &chunks {
                for s in 0..3 {
                    engine.push(StreamId(s), chunk.clone());
                }
            }
            for s in 0..3 {
                engine.finish_stream(StreamId(s), span);
            }
            let out = engine.join();
            for (s, frames) in out.streams.iter().enumerate() {
                assert_eq!(frames, &expected, "seed {seed} stream {s}");
            }
        }
    }

    #[test]
    fn dropping_an_unjoined_engine_does_not_hang_workers() {
        // The replay error path drops the engine without join(); the
        // Drop impl must signal shutdown so workers exit. If they did
        // not, this test would leak threads (and under a worker-panic
        // regime, hang a later join) — success here is simply that the
        // drop returns and the process stays healthy.
        let engine = Engine::new(EngineConfig::with_workers(2), pipelines(2));
        engine.push(StreamId(0), block_events(40, 0));
        drop(engine);
    }
}
