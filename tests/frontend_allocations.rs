//! The front end's buffer-reuse contract: once warmed up, running a frame
//! through `FrontEnd::process` (EBBI → median → RPN → ROE) makes no
//! frame-sized heap allocation. Every scratch frame, the RPN's
//! downsampled image and both projection histograms are reused; only
//! small proposal lists may still be allocated.
//!
//! A counting global allocator records, per thread, every allocation of
//! at least [`LARGE_BYTES`]; the test runs a simulated LT4 recording's
//! frames through the front end, with and without stage telemetry.

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
}

/// The system allocator, counting this thread's large allocations.
struct CountingAllocator;

fn note(size: usize) {
    if size >= LARGE_BYTES {
        LARGE_ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards unchanged to `System`, so it meets
// `GlobalAlloc`'s contract exactly as `System` does. The bookkeeping is a
// thread-local `Cell` with a const initializer and no destructor, so it
// never allocates or re-enters the allocator.
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
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, and our caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`: `ptr` was allocated by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn large_allocations() -> usize {
    LARGE_ALLOCATIONS.with(Cell::get)
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
        let _ = frontend.process(events);
    }
    let steady = &windows[WARM_UP_FRAMES..];
    let before = large_allocations();
    let mut proposals = 0;
    for events in steady {
        proposals += frontend.process(events).len();
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
