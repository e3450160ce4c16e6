//! Event-stream utilities: ordering and windowing.
//!
//! The central abstraction is [`FrameWindows`], which slices a time-ordered
//! event slice into consecutive `tF`-long windows. This models the paper's
//! interrupt-driven readout (Fig. 2): the processor wakes every `tF`
//! microseconds and collects everything the sensor latched since the last
//! interrupt.

use crate::{Event, Micros, Timestamp};

/// Returns `true` when the slice is sorted by non-decreasing timestamp.
#[must_use]
pub fn is_time_ordered(events: &[Event]) -> bool {
    events.windows(2).all(|w| w[0].t <= w[1].t)
}

/// Sorts events into `Event`'s derived total order: timestamp first,
/// ties broken by the remaining fields (`x`, `y`, polarity) in
/// declaration order.
///
/// Because the order is total over *every* field, events that compare
/// equal are bit-identical, so the unstable sort is already fully
/// deterministic for any input permutation — no stability needed.
pub fn sort_by_time(events: &mut [Event]) {
    events.sort_unstable();
}

/// Merges two time-ordered streams into one time-ordered stream.
///
/// Used by the simulator to combine object-edge events with background
/// noise events.
#[must_use]
pub fn merge_ordered(a: &[Event], b: &[Event]) -> Vec<Event> {
    debug_assert!(is_time_ordered(a) && is_time_ordered(b));
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One readout window: the events with `t` in `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameWindow<'a> {
    /// Index of this window (0-based frame number).
    pub index: usize,
    /// Window start timestamp (inclusive), microseconds.
    pub start: Timestamp,
    /// Window duration `tF`, microseconds.
    pub duration: Micros,
    /// The events inside the window, still time-ordered.
    pub events: &'a [Event],
}

impl FrameWindow<'_> {
    /// Window end timestamp (exclusive).
    #[must_use]
    pub const fn end(&self) -> Timestamp {
        self.start + self.duration
    }

    /// Midpoint timestamp, the instant at which ground truth is sampled.
    #[must_use]
    pub const fn midpoint(&self) -> Timestamp {
        self.start + self.duration / 2
    }
}

/// Iterator slicing a time-ordered event slice into consecutive fixed
/// duration windows starting at `t = 0`.
///
/// Every window in the recorded span is yielded, including empty ones —
/// the tracker must still run prediction on frames with no events. The
/// iteration ends with the window containing the last event (or immediately
/// for an empty stream).
#[derive(Debug, Clone)]
pub struct FrameWindows<'a> {
    events: &'a [Event],
    duration: Micros,
    cursor: usize,
    next_index: usize,
    num_windows: usize,
}

impl<'a> FrameWindows<'a> {
    /// Creates the window iterator.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero or `events` is not time-ordered.
    #[must_use]
    pub fn new(events: &'a [Event], duration: Micros) -> Self {
        assert!(duration > 0, "frame duration must be non-zero");
        assert!(is_time_ordered(events), "events must be time-ordered");
        let num_windows = match events.last() {
            None => 0,
            Some(last) => (last.t / duration) as usize + 1,
        };
        Self { events, duration, cursor: 0, next_index: 0, num_windows }
    }

    /// Creates the iterator covering at least `span_us` of time, so that
    /// trailing empty windows (after the last event) are also yielded.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero or `events` is not time-ordered.
    #[must_use]
    pub fn with_span(events: &'a [Event], duration: Micros, span_us: Micros) -> Self {
        let mut it = Self::new(events, duration);
        let span_windows = span_us.div_ceil(duration) as usize;
        it.num_windows = it.num_windows.max(span_windows);
        it
    }

    /// Total number of windows this iterator will yield.
    #[must_use]
    pub const fn num_windows(&self) -> usize {
        self.num_windows
    }
}

impl<'a> Iterator for FrameWindows<'a> {
    type Item = FrameWindow<'a>;

    fn next(&mut self) -> Option<FrameWindow<'a>> {
        if self.next_index >= self.num_windows {
            return None;
        }
        let index = self.next_index;
        let start = index as Timestamp * self.duration;
        let end = start + self.duration;
        let begin = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].t < end {
            self.cursor += 1;
        }
        self.next_index += 1;
        Some(FrameWindow {
            index,
            start,
            duration: self.duration,
            events: &self.events[begin..self.cursor],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.num_windows - self.next_index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for FrameWindows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polarity;

    fn ev(t: Timestamp) -> Event {
        Event::new(0, 0, t, Polarity::On)
    }

    #[test]
    fn ordered_detection() {
        assert!(is_time_ordered(&[]));
        assert!(is_time_ordered(&[ev(1)]));
        assert!(is_time_ordered(&[ev(1), ev(1), ev(2)]));
        assert!(!is_time_ordered(&[ev(2), ev(1)]));
    }

    #[test]
    fn sort_orders_by_time() {
        let mut events = vec![ev(5), ev(1), ev(3)];
        sort_by_time(&mut events);
        assert!(is_time_ordered(&events));
        assert_eq!(events[0].t, 1);
        assert_eq!(events[2].t, 5);
    }

    #[test]
    fn merge_preserves_order_and_length() {
        let a = vec![ev(1), ev(4), ev(9)];
        let b = vec![ev(2), ev(3), ev(10)];
        let merged = merge_ordered(&a, &b);
        assert_eq!(merged.len(), 6);
        assert!(is_time_ordered(&merged));
    }

    #[test]
    fn merge_with_empty_side() {
        let a = vec![ev(1), ev(2)];
        assert_eq!(merge_ordered(&a, &[]), a);
        assert_eq!(merge_ordered(&[], &a), a);
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        let windows: Vec<_> = FrameWindows::new(&[], 1_000).collect();
        assert!(windows.is_empty());
    }

    #[test]
    fn events_fall_into_correct_windows() {
        let events = vec![ev(0), ev(999), ev(1_000), ev(2_500)];
        let windows: Vec<_> = FrameWindows::new(&events, 1_000).collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].events.len(), 2);
        assert_eq!(windows[1].events.len(), 1);
        assert_eq!(windows[2].events.len(), 1);
        assert_eq!(windows[0].start, 0);
        assert_eq!(windows[2].start, 2_000);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        // t = 1_000 belongs to window 1, not window 0.
        let events = vec![ev(1_000)];
        let windows: Vec<_> = FrameWindows::new(&events, 1_000).collect();
        assert_eq!(windows.len(), 2);
        assert!(windows[0].events.is_empty());
        assert_eq!(windows[1].events.len(), 1);
    }

    #[test]
    fn intermediate_empty_windows_are_yielded() {
        let events = vec![ev(0), ev(5_000)];
        let windows: Vec<_> = FrameWindows::new(&events, 1_000).collect();
        assert_eq!(windows.len(), 6);
        assert!(windows[1..5].iter().all(|w| w.events.is_empty()));
    }

    #[test]
    fn with_span_extends_past_last_event() {
        let events = vec![ev(100)];
        let windows: Vec<_> = FrameWindows::with_span(&events, 1_000, 4_500).collect();
        assert_eq!(windows.len(), 5);
        assert!(windows[4].events.is_empty());
    }

    #[test]
    fn with_span_never_truncates_events() {
        let events = vec![ev(100), ev(9_999)];
        let windows: Vec<_> = FrameWindows::with_span(&events, 1_000, 1_000).collect();
        assert_eq!(windows.len(), 10);
        let total: usize = windows.iter().map(|w| w.events.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn exact_size_hint_is_correct() {
        let events = vec![ev(0), ev(2_500)];
        let it = FrameWindows::new(&events, 1_000);
        assert_eq!(it.len(), 3);
        assert_eq!(it.num_windows(), 3);
    }

    #[test]
    fn window_midpoint_and_end() {
        let events = vec![ev(0)];
        let w = FrameWindows::new(&events, 66_000).next().unwrap();
        assert_eq!(w.end(), 66_000);
        assert_eq!(w.midpoint(), 33_000);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_input_panics() {
        let events = vec![ev(5), ev(1)];
        let _ = FrameWindows::new(&events, 1_000);
    }
}
