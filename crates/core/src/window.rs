//! Chunk-to-frame windowing shared by the streaming pipelines.
//!
//! [`Pipeline::push`](crate::Pipeline::push) and
//! [`TwoTimescalePipeline::push`](crate::TwoTimescalePipeline::push) both
//! cut a time-ordered event stream, arriving in arbitrary chunks, into
//! `tF` frame windows. This module is that cut, written once and done
//! per slice rather than per event: one order check over the chunk, one
//! `partition_point` split per window the chunk touches, and one
//! `extend_from_slice` of each window's events into the open-window
//! buffer. Both pipelines' `process_recording` go through it too, so it
//! is the only windower in the crate.

use ebbiot_events::{Event, Micros, Timestamp};

/// A stream that [`push`] and [`finish`] can window.
pub(crate) trait WindowedStream {
    /// What processing one window produces.
    type Frame;

    /// The window length `tF` in microseconds.
    fn frame_us(&self) -> Micros;

    /// Frames emitted so far, which is also the index of the open window.
    fn frames_emitted(&self) -> usize;

    /// The open window's buffered events and the timestamp of the last
    /// pushed event (the cross-chunk ordering watermark).
    fn push_state(&mut self) -> (&mut Vec<Event>, &mut Option<Timestamp>);

    /// Processes one window's events as the next frame.
    fn process_window(&mut self, events: &[Event]) -> Self::Frame;
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
        stream.push_state().1.is_none_or(|t| t <= first.t),
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
    *stream.push_state().1 = Some(last.t);

    let mut out = Vec::new();
    let mut rest = chunk;
    while let Some(head) = rest.first() {
        let window = window_of(head);
        while stream.frames_emitted() < window as usize {
            out.push(flush(stream));
        }
        let n = rest.partition_point(|e| window_of(e) == window);
        stream.push_state().0.extend_from_slice(&rest[..n]);
        rest = &rest[n..];
    }
    out
}

/// Ends the stream: emits the open window plus trailing empty windows
/// until at least `span_us` is covered, and clears the ordering watermark.
pub(crate) fn finish<S: WindowedStream>(stream: &mut S, span_us: Micros) -> Vec<S::Frame> {
    let open = usize::from(!stream.push_state().0.is_empty());
    let from_span = span_us.div_ceil(stream.frame_us()) as usize;
    let target = (stream.frames_emitted() + open).max(from_span);
    let mut out = Vec::new();
    while stream.frames_emitted() < target {
        out.push(flush(stream));
    }
    *stream.push_state().1 = None;
    out
}

/// Emits the open window as a frame, reusing the buffer's allocation.
fn flush<S: WindowedStream>(stream: &mut S) -> S::Frame {
    let buffer = core::mem::take(stream.push_state().0);
    let frame = stream.process_window(&buffer);
    let pending = stream.push_state().0;
    *pending = buffer;
    pending.clear();
    frame
}
