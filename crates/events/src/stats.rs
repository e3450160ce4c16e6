//! Stream summary statistics (the quantities reported in Table I).

use std::collections::HashSet;

use crate::{Event, Micros, Polarity};

/// Summary statistics of an event recording.
///
/// These are the quantities Table I of the paper reports per recording
/// (duration, event count) plus derived rates used to sanity-check the
/// simulator against the paper's datasets (ENG: 107.5 M events over
/// 2998.4 s ≈ 35.9 k ev/s; LT4: 12.5 M over 999.5 s ≈ 12.5 k ev/s).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Total number of events.
    pub num_events: u64,
    /// Number of ON events.
    pub num_on: u64,
    /// Number of OFF events.
    pub num_off: u64,
    /// First event timestamp (microseconds); 0 for empty streams.
    pub first_t: u64,
    /// Last event timestamp (microseconds); 0 for empty streams.
    pub last_t: u64,
    /// Number of distinct pixels that fired at least once.
    pub distinct_pixels: usize,
}

impl StreamStats {
    /// Computes statistics over a time-ordered event slice.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut num_on = 0u64;
        let mut pixels: HashSet<(u16, u16)> = HashSet::new();
        for e in events {
            if e.polarity == Polarity::On {
                num_on += 1;
            }
            pixels.insert(e.pixel());
        }
        Self {
            num_events: events.len() as u64,
            num_on,
            num_off: events.len() as u64 - num_on,
            first_t: events.first().map_or(0, |e| e.t),
            last_t: events.last().map_or(0, |e| e.t),
            distinct_pixels: pixels.len(),
        }
    }

    /// Recording span in microseconds (`last_t - first_t`).
    #[must_use]
    pub const fn span_us(&self) -> Micros {
        self.last_t.saturating_sub(self.first_t)
    }

    /// Recording span in seconds.
    #[must_use]
    pub fn span_s(&self) -> f64 {
        self.span_us() as f64 / 1e6
    }

    /// Mean event rate in events/second (0.0 for degenerate spans).
    #[must_use]
    pub fn mean_rate_hz(&self) -> f64 {
        let span = self.span_s();
        if span <= 0.0 {
            0.0
        } else {
            self.num_events as f64 / span
        }
    }
}

impl core::fmt::Display for StreamStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} events ({} ON / {} OFF) over {:.1} s, {:.1} ev/s, {} distinct pixels",
            self.num_events,
            self.num_on,
            self.num_off,
            self.span_s(),
            self.mean_rate_hz(),
            self.distinct_pixels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_stats_are_all_zero() {
        let s = StreamStats::from_events(&[]);
        assert_eq!(s.num_events, 0);
        assert_eq!(s.span_us(), 0);
        assert_eq!(s.mean_rate_hz(), 0.0);
        assert_eq!(s.distinct_pixels, 0);
    }

    #[test]
    fn counts_and_polarity_split() {
        let events = vec![Event::on(0, 0, 0), Event::on(1, 0, 10), Event::off(0, 0, 20)];
        let s = StreamStats::from_events(&events);
        assert_eq!(s.num_events, 3);
        assert_eq!(s.num_on, 2);
        assert_eq!(s.num_off, 1);
    }

    #[test]
    fn distinct_pixels_ignores_polarity_and_time() {
        let events = vec![
            Event::on(0, 0, 0),
            Event::off(0, 0, 10),
            Event::on(0, 0, 20),
            Event::on(5, 5, 30),
        ];
        let s = StreamStats::from_events(&events);
        assert_eq!(s.distinct_pixels, 2);
    }

    #[test]
    fn rates_use_recording_span() {
        // 1000 events over exactly 1 second.
        let events: Vec<_> = (0..=1000u64).map(|i| Event::on(0, 0, i * 1_000)).collect();
        let s = StreamStats::from_events(&events);
        assert_eq!(s.span_us(), 1_000_000);
        assert!((s.mean_rate_hz() - 1001.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_humane() {
        let s = StreamStats::from_events(&[Event::on(0, 0, 0), Event::off(1, 1, 1_000_000)]);
        let text = s.to_string();
        assert!(text.contains("2 events"));
        assert!(text.contains("1 ON"));
    }
}
