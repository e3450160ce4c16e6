//! Two heap contracts of the frame path.
//!
//! * The front end reuses its buffers: once warmed up, latching a frame's
//!   events (`FrontEnd::accumulate_all`) and closing it
//!   (`FrontEnd::close_window`: readout → median → RPN → ROE) makes no
//!   frame-sized heap allocation. Every scratch frame, the RPN's
//!   downsampled image and both projection histograms are reused; only
//!   small proposal lists may still be allocated.
//! * An open window costs the same heap however busy it is: every
//!   back-end consumes events as they arrive and keeps none, so a
//!   pipeline's live heap grows by the same number of bytes for a
//!   500-event window as for an 8,254-event one (the busiest window of
//!   the ENG fleet the benchmark replays).
//!
//! A counting global allocator records, per thread, every allocation of
//! at least [`LARGE_BYTES`] and the live heap in bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ebbiot::core::{FrontEnd, StageTelemetry};
use ebbiot::events::stream::FrameWindows;
use ebbiot::prelude::*;
use ebbiot::telemetry::Registry;

/// Allocations at or above this size count as frame-sized: a DAVIS240
/// EBBI is 5.8 KB and the RPN's 40x60 count image 9.6 KB.
const LARGE_BYTES: usize = 1024;

/// Frames processed before counting starts, so lazily sized buffers can
/// reach their steady-state size.
const WARM_UP_FRAMES: usize = 4;

thread_local! {
    static LARGE_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's large allocations and
/// live bytes.
struct CountingAllocator;

fn note(size: usize) {
    if size >= LARGE_BYTES {
        LARGE_ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
    grow(size as i64);
}

fn grow(bytes: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards unchanged to `System`, so it meets
// `GlobalAlloc`'s contract exactly as `System` does. The bookkeeping is
// two thread-local `Cell`s with const initializers and no destructors,
// so it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; our caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; our caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        grow(-(layout.size() as i64));
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, and our caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: as for `realloc`: `ptr` was allocated by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn large_allocations() -> usize {
    LARGE_ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Latches one window's events slice by slice, as `push` hands them
/// over, then closes it; returns the number of proposals.
fn run_frame(frontend: &mut FrontEnd, events: &[Event]) -> usize {
    for slice in events.chunks(256) {
        frontend.accumulate_all(slice);
    }
    frontend.close_window().len()
}

/// Runs every frame of `rec` through `frontend`, returning how many
/// large allocations the post-warm-up frames made and how many of those
/// frames carried events.
fn steady_state_large_allocations(
    frontend: &mut FrontEnd,
    rec: &SimulatedRecording,
) -> (usize, usize) {
    let windows: Vec<_> = FrameWindows::with_span(&rec.events, rec.frame_us, rec.duration_us)
        .map(|w| w.events)
        .collect();
    for events in &windows[..WARM_UP_FRAMES] {
        let _ = run_frame(frontend, events);
    }
    let steady = &windows[WARM_UP_FRAMES..];
    let before = large_allocations();
    let mut proposals = 0;
    for events in steady {
        proposals += run_frame(frontend, events);
    }
    let after = large_allocations();
    assert!(proposals > 0, "the recording must exercise the RPN");
    (after - before, steady.iter().filter(|events| !events.is_empty()).count())
}

#[test]
fn steady_state_front_end_makes_no_frame_sized_allocations() {
    let rec = DatasetPreset::Lt4.config().with_duration_s(4.0).generate(11);
    let config = EbbiotConfig::paper_default(rec.geometry);
    for telemetry in [None, Some(StageTelemetry::register(&Registry::new()))] {
        let timed = telemetry.is_some();
        let mut frontend = FrontEnd::new(&config);
        frontend.set_telemetry(telemetry);
        let (large, busy_frames) = steady_state_large_allocations(&mut frontend, &rec);
        assert!(busy_frames >= 20, "too few frames with events: {busy_frames}");
        assert_eq!(
            large, 0,
            "{large} allocations of >= {LARGE_BYTES} B over {busy_frames} frames with events \
             (stage telemetry: {timed})"
        );
    }
}

/// `n` events spread over the first 60 ms of window 0 on an 8×8 block:
/// the same scene at any density, so only the event count changes. The
/// block fits inside one EBMS catchment, so NN-EBMS holds one cluster
/// with the same position history at either density, and its bounded
/// tracker state does not mask the window's own cost.
fn open_window(n: u64) -> Vec<Event> {
    (0..n)
        .map(|i| Event::on(60 + (i % 8) as u16, 90 + (i / 8 % 8) as u16, i * 60_000 / n))
        .collect()
}

/// Live-heap growth of a fresh `backend` pipeline over one `push` that
/// leaves its window open.
fn open_window_heap_growth(backend: &BackendSpec, events: &[Event]) -> i64 {
    let mut pipeline = backend.build(EbbiotConfig::paper_default(SensorGeometry::davis240()));
    let before = live_bytes();
    let emitted = pipeline.push(events);
    let growth = live_bytes() - before;
    assert!(emitted.is_empty(), "the window stays open");
    growth
}

#[test]
fn an_open_window_costs_the_same_heap_at_any_density() {
    let (quiet, busy) = (open_window(500), open_window(8_254));
    for spec in BACKENDS {
        let quiet_growth = open_window_heap_growth(spec, &quiet);
        let busy_growth = open_window_heap_growth(spec, &busy);
        assert_eq!(
            busy_growth, quiet_growth,
            "{}: an 8,254-event window grew the heap by {busy_growth} B, a 500-event one by \
             {quiet_growth} B",
            spec.name
        );
    }
}
