//! Property-based tests for the nearest-neighbour event filter.

use ebbiot_events::{stream, Event, Polarity, SensorGeometry};
use ebbiot_filters::NnFilter;
use proptest::prelude::*;

const W: u16 = 64;
const H: u16 = 48;

fn geometry() -> SensorGeometry {
    SensorGeometry::new(W, H)
}

fn arb_stream() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0u64..2_000_000, 0..W, 0..H, any::<bool>()), 0..300).prop_map(
        |specs| {
            let mut events: Vec<Event> = specs
                .into_iter()
                .map(|(t, x, y, on)| {
                    Event::new(x, y, t, if on { Polarity::On } else { Polarity::Off })
                })
                .collect();
            stream::sort_by_time(&mut events);
            events
        },
    )
}

/// The events `filter` keeps, in input order.
fn keep_all(filter: &mut NnFilter, events: &[Event]) -> Vec<Event> {
    events.iter().copied().filter(|e| filter.keep(e)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filters_only_remove_events(events in arb_stream()) {
        let mut nn = NnFilter::paper_default(geometry());
        let kept = keep_all(&mut nn, &events);
        prop_assert!(kept.len() <= events.len());
        // Output is a subsequence: ordered and all members of the input.
        prop_assert!(stream::is_time_ordered(&kept));
        let mut iter = events.iter();
        for k in &kept {
            prop_assert!(iter.any(|e| e == k), "kept event not in input order");
        }
    }

    #[test]
    fn nn_filter_is_deterministic_and_reset_restores_state(events in arb_stream()) {
        let mut filter = NnFilter::paper_default(geometry());
        let first = keep_all(&mut filter, &events);
        filter.reset();
        let second = keep_all(&mut filter, &events);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn dense_bursts_pass_sparse_noise_fails(
        cx in 4..W - 4,
        cy in 4..H - 4,
        t0 in 0u64..1_000_000,
    ) {
        // A 3x3 burst within 1 ms: everything after the first event passes.
        let mut filter = NnFilter::paper_default(geometry());
        let mut passed = 0;
        let mut total = 0;
        for (k, (dx, dy)) in [(0i32, 0i32), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]
            .iter()
            .enumerate()
        {
            let e = Event::on(
                (i32::from(cx) + dx) as u16,
                (i32::from(cy) + dy) as u16,
                t0 + k as u64 * 100,
            );
            total += 1;
            if filter.keep(&e) {
                passed += 1;
            }
        }
        prop_assert_eq!(passed, total - 1, "all but the first burst event pass");
        // A lone event far away much later is rejected.
        let lone = Event::on(2, 2, t0 + 60_000_000);
        prop_assert!(!filter.keep(&lone));
    }

    #[test]
    fn nn_ops_scale_linearly_with_events(events in arb_stream()) {
        let mut filter = NnFilter::paper_default(geometry());
        let in_bounds = events.len() as u64;
        let _ = keep_all(&mut filter, &events);
        // Eq. 2: exactly (2*(p^2-1) + Bt) ops per in-bounds event.
        prop_assert_eq!(filter.ops().total(), in_bounds * 32);
    }
}
