//! Property-based tests for event primitives and windowing.

use ebbiot_events::{
    stream::{self, FrameWindows},
    Event, Polarity,
};
use proptest::prelude::*;

const W: u16 = 240;
const H: u16 = 180;

fn arb_event() -> impl Strategy<Value = Event> {
    (0u64..10_000_000, 0..W, 0..H, any::<bool>()).prop_map(|(t, x, y, on)| {
        Event::new(x, y, t, if on { Polarity::On } else { Polarity::Off })
    })
}

fn arb_ordered_events(max_len: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(arb_event(), 0..max_len).prop_map(|mut v| {
        stream::sort_by_time(&mut v);
        v
    })
}

proptest! {
    #[test]
    fn sorting_makes_any_stream_ordered(mut events in proptest::collection::vec(arb_event(), 0..200)) {
        stream::sort_by_time(&mut events);
        prop_assert!(stream::is_time_ordered(&events));
    }

    #[test]
    fn merge_ordered_output_is_ordered_and_complete(
        a in arb_ordered_events(100),
        b in arb_ordered_events(100),
    ) {
        let merged = stream::merge_ordered(&a, &b);
        prop_assert_eq!(merged.len(), a.len() + b.len());
        prop_assert!(stream::is_time_ordered(&merged));
        // Multiset equality: sorting the concatenation gives the same list.
        let mut expected = [a, b].concat();
        stream::sort_by_time(&mut expected);
        let mut merged_sorted = merged;
        stream::sort_by_time(&mut merged_sorted);
        prop_assert_eq!(merged_sorted, expected);
    }

    #[test]
    fn frame_windows_partition_the_stream(
        events in arb_ordered_events(300),
        duration in 1_000u64..200_000,
    ) {
        let windows: Vec<_> = FrameWindows::new(&events, duration).collect();
        let total: usize = windows.iter().map(|w| w.events.len()).sum();
        prop_assert_eq!(total, events.len(), "every event lands in exactly one window");
        for w in &windows {
            for e in w.events {
                prop_assert!(e.t >= w.start && e.t < w.end());
            }
        }
        // Windows tile the time axis contiguously from zero.
        for (i, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.index, i);
            prop_assert_eq!(w.start, i as u64 * duration);
        }
    }
}
