//! Chunk-to-frame windowing shared by the streaming pipelines.
//!
//! [`Pipeline::push`](crate::Pipeline::push) and
//! [`TwoTimescalePipeline::push`](crate::TwoTimescalePipeline::push) both
//! cut a time-ordered event stream, arriving in arbitrary chunks, into
//! `tF` frame windows. This module is that cut, written once and done
//! per slice rather than per event: one order check over the chunk and
//! one `partition_point` split per window the chunk touches. Each slice
//! goes straight to the stream, which consumes it as it arrives (the
//! EBBI back-ends latch it, NN-EBMS filters and tracks it), so nothing
//! holds a window's events; closing a window only reads out what the
//! stream kept. Both pipelines' `process_recording` go through it too,
//! so it is the only windower in the crate.

use ebbiot_events::{Event, Micros, Timestamp};

/// A stream that [`push`] and [`finish`] can window.
pub(crate) trait WindowedStream {
    /// What processing one window produces.
    type Frame;

    /// The window length `tF` in microseconds.
    fn frame_us(&self) -> Micros;

    /// Frames emitted so far, which is also the index of the open window.
    fn frames_emitted(&self) -> usize;

    /// How many events the open window has consumed.
    fn window_events(&self) -> u64;

    /// The timestamp of the last pushed event (the cross-chunk ordering
    /// watermark).
    fn watermark(&mut self) -> &mut Option<Timestamp>;

    /// Consumes the next slice of the open window's events.
    fn accumulate(&mut self, events: &[Event]);

    /// Closes the open window, emitting what it accumulated as the next
    /// frame.
    fn close_window(&mut self) -> Self::Frame;
}

/// Streams a chunk into `stream`, returning the frames it completes.
///
/// # Panics
///
/// Panics when the chunk is not time-ordered, starts before the last
/// pushed event, or starts in an already-emitted window. All checks run
/// before any state changes.
pub(crate) fn push<S: WindowedStream>(stream: &mut S, chunk: &[Event]) -> Vec<S::Frame> {
    let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
        return Vec::new();
    };
    let frame_us = stream.frame_us();
    let window_of = |e: &Event| e.t / frame_us;
    assert!(
        stream.watermark().is_none_or(|t| t <= first.t),
        "pushed events must be time-ordered across chunks"
    );
    // `fold` with `&`, not `all`: without an early exit the check
    // vectorises.
    assert!(
        chunk.windows(2).fold(true, |ordered, pair| ordered & (pair[0].t <= pair[1].t)),
        "pushed events must be time-ordered within a chunk"
    );
    // The chunk is sorted, so only its first event can fall in a window
    // that is already emitted.
    let first_window = window_of(first);
    assert!(
        first_window as usize >= stream.frames_emitted(),
        "event at t={} belongs to already-emitted frame {first_window}",
        first.t
    );
    *stream.watermark() = Some(last.t);

    let mut out = Vec::new();
    let mut rest = chunk;
    while let Some(head) = rest.first() {
        let window = window_of(head);
        while stream.frames_emitted() < window as usize {
            out.push(stream.close_window());
        }
        let n = rest.partition_point(|e| window_of(e) == window);
        stream.accumulate(&rest[..n]);
        rest = &rest[n..];
    }
    out
}

/// Ends the stream: emits the open window plus trailing empty windows
/// until at least `span_us` is covered, and clears the ordering watermark.
pub(crate) fn finish<S: WindowedStream>(stream: &mut S, span_us: Micros) -> Vec<S::Frame> {
    let open = usize::from(stream.window_events() > 0);
    let from_span = span_us.div_ceil(stream.frame_us()) as usize;
    let target = (stream.frames_emitted() + open).max(from_span);
    let mut out = Vec::new();
    while stream.frames_emitted() < target {
        out.push(stream.close_window());
    }
    *stream.watermark() = None;
    out
}
