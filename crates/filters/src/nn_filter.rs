//! The nearest-neighbour event filter (Padala, Basu & Orchard 2018).
//!
//! For every incoming event the filter looks at the last-fire timestamps of
//! the `p x p` spatial neighbourhood (excluding the event's own pixel); the
//! event is *signal* if any neighbour fired within the support window, and
//! *noise* otherwise. Either way the event's own timestamp is written to
//! the map — noise events still provide support to later neighbours, which
//! is what makes isolated shot noise (no correlated neighbours) drop out
//! while object edges (many near-simultaneous neighbours) pass.
//!
//! Cost accounting follows Eq. 2: per event, `p^2 - 1` comparisons plus
//! `p^2 - 1` counter increments plus a `Bt`-bit memory write.

use ebbiot_events::{Event, OpsCounter, SensorGeometry, Timestamp};

/// Sentinel for "pixel never fired".
const NEVER: Timestamp = Timestamp::MAX;

/// Nearest-neighbour temporal-support filter.
#[derive(Debug, Clone)]
pub struct NnFilter {
    geometry: SensorGeometry,
    /// Last-fire timestamp per pixel (`Bt` bits each in hardware; `u64`
    /// here, with the modelled width kept in `timestamp_bits`).
    last_fire: Vec<Timestamp>,
    patch: u16,
    support_window_us: u64,
    timestamp_bits: u32,
    ops: OpsCounter,
}

impl NnFilter {
    /// Default support window: 5 ms, a typical choice for traffic speeds.
    pub const DEFAULT_SUPPORT_US: u64 = 5_000;
    /// The paper's `Bt` = 16 bits per stored timestamp.
    pub const DEFAULT_TIMESTAMP_BITS: u32 = 16;

    /// Creates a filter with patch size `patch` (odd; the paper uses 3)
    /// and the given temporal support window in microseconds.
    ///
    /// # Panics
    ///
    /// Panics when `patch` is even or zero.
    #[must_use]
    pub fn new(geometry: SensorGeometry, patch: u16, support_window_us: u64) -> Self {
        assert!(patch % 2 == 1, "patch size must be odd");
        Self {
            geometry,
            last_fire: vec![NEVER; geometry.num_pixels()],
            patch,
            support_window_us,
            timestamp_bits: Self::DEFAULT_TIMESTAMP_BITS,
            ops: OpsCounter::new(),
        }
    }

    /// The paper's configuration: `p = 3`, `Bt = 16`, 5 ms support.
    #[must_use]
    pub fn paper_default(geometry: SensorGeometry) -> Self {
        Self::new(geometry, 3, Self::DEFAULT_SUPPORT_US)
    }

    /// Patch size `p`.
    #[must_use]
    pub const fn patch(&self) -> u16 {
        self.patch
    }

    /// Support window in microseconds.
    #[must_use]
    pub const fn support_window_us(&self) -> u64 {
        self.support_window_us
    }

    /// Modelled timestamp width `Bt` in bits.
    #[must_use]
    pub const fn timestamp_bits(&self) -> u32 {
        self.timestamp_bits
    }

    /// Memory footprint in bits per Eq. 2: `Bt * A * B`.
    #[must_use]
    pub fn memory_bits(&self) -> u64 {
        u64::from(self.timestamp_bits) * self.geometry.num_pixels() as u64
    }

    /// The per-pixel last-fire map, row-major; entries equal to
    /// [`Timestamp::MAX`] mean "never fired". Exposed (with
    /// [`Self::set_last_fire`]) so the session-checkpoint layer can
    /// serialize the filter without the byte codec leaking in here.
    #[must_use]
    pub fn last_fire(&self) -> &[Timestamp] {
        &self.last_fire
    }

    /// Overwrites one last-fire entry — the checkpoint-restore path,
    /// used after [`Self::reset`] has cleared the map.
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the pixel array; restore code must
    /// bounds-check untrusted indices first.
    pub fn set_last_fire(&mut self, index: usize, t: Timestamp) {
        self.last_fire[index] = t;
    }

    /// Overwrites the op counter with a previously saved tally — the
    /// session-checkpoint restore path.
    pub fn restore_ops(&mut self, ops: OpsCounter) {
        self.ops = ops;
    }

    /// Processes one event, in time order, returning `true` to keep it
    /// as signal and `false` to drop it as noise.
    pub fn keep(&mut self, event: &Event) -> bool {
        if !self.geometry.contains_event(event) {
            return false;
        }
        let half = i32::from(self.patch / 2);
        let mut supported = false;
        for dy in -half..=half {
            for dx in -half..=half {
                if dx == 0 && dy == 0 {
                    continue; // own pixel gives no support
                }
                // Eq. 2 charges one comparison + one increment per
                // neighbour regardless of the outcome.
                self.ops.compare(1);
                self.ops.add(1);
                let nx = i32::from(event.x) + dx;
                let ny = i32::from(event.y) + dy;
                if nx < 0 || ny < 0 {
                    continue;
                }
                let (nx, ny) = (nx as u16, ny as u16);
                if !self.geometry.contains(nx, ny) {
                    continue;
                }
                let last = self.last_fire[self.geometry.index_of(nx, ny)];
                if last != NEVER && event.t.saturating_sub(last) <= self.support_window_us {
                    supported = true;
                }
            }
        }
        // Bt-bit timestamp write for the event's own pixel.
        self.last_fire[self.geometry.index_of(event.x, event.y)] = event.t;
        self.ops.write(u64::from(self.timestamp_bits));
        supported
    }

    /// Clears the last-fire map for reuse across recordings.
    pub fn reset(&mut self) {
        self.last_fire.fill(NEVER);
    }

    /// Runtime op counter for this filter.
    #[must_use]
    pub fn ops(&self) -> &OpsCounter {
        &self.ops
    }

    /// Resets the op counter.
    pub fn reset_ops(&mut self) {
        self.ops.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::Polarity;

    fn filt() -> NnFilter {
        NnFilter::new(SensorGeometry::new(32, 32), 3, 5_000)
    }

    #[test]
    fn first_event_is_noise() {
        let mut f = filt();
        assert!(!f.keep(&Event::on(10, 10, 0)), "no prior support anywhere");
    }

    #[test]
    fn neighbour_within_window_gives_support() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        assert!(f.keep(&Event::on(11, 10, 1_000)), "neighbour fired 1 ms ago");
    }

    #[test]
    fn same_pixel_does_not_support_itself() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        assert!(!f.keep(&Event::on(10, 10, 1_000)), "own pixel excluded");
    }

    #[test]
    fn support_expires_after_window() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        assert!(!f.keep(&Event::on(11, 10, 6_000)), "5 ms window elapsed");
        // Exactly at the window boundary: still supported (<=).
        let _ = f.keep(&Event::on(20, 20, 10_000));
        assert!(f.keep(&Event::on(21, 20, 15_000)));
    }

    #[test]
    fn diagonal_neighbours_support_within_p3() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        assert!(f.keep(&Event::on(11, 11, 100)));
    }

    #[test]
    fn distance_two_is_outside_p3_patch() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        assert!(!f.keep(&Event::on(12, 10, 100)));
    }

    #[test]
    fn larger_patch_extends_reach() {
        let mut f = NnFilter::new(SensorGeometry::new(32, 32), 5, 5_000);
        let _ = f.keep(&Event::on(10, 10, 0));
        assert!(f.keep(&Event::on(12, 10, 100)), "distance 2 inside 5x5");
    }

    #[test]
    fn noise_events_still_leave_support() {
        let mut f = filt();
        assert!(!f.keep(&Event::on(10, 10, 0)), "noise");
        assert!(f.keep(&Event::on(11, 10, 100)), "but it supports the next one");
    }

    #[test]
    fn border_events_are_handled() {
        let mut f = filt();
        let _ = f.keep(&Event::on(0, 0, 0));
        assert!(f.keep(&Event::on(1, 0, 100)));
        assert!(!f.keep(&Event::on(31, 31, 100)));
    }

    #[test]
    fn out_of_bounds_events_are_dropped() {
        let mut f = filt();
        assert!(!f.keep(&Event::on(100, 100, 0)));
    }

    #[test]
    fn polarity_is_irrelevant_to_support() {
        let mut f = filt();
        let _ = f.keep(&Event::new(10, 10, 0, Polarity::Off));
        assert!(f.keep(&Event::new(11, 10, 50, Polarity::On)));
    }

    #[test]
    fn reset_clears_support_map() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        f.reset();
        assert!(!f.keep(&Event::on(11, 10, 100)));
    }

    #[test]
    fn ops_match_eq2_per_event() {
        let mut f = filt();
        let _ = f.keep(&Event::on(10, 10, 0));
        // p^2 - 1 = 8 comparisons, 8 additions, Bt = 16 write units.
        assert_eq!(f.ops().comparisons, 8);
        assert_eq!(f.ops().additions, 8);
        assert_eq!(f.ops().mem_writes, 16);
        assert_eq!(f.ops().total(), 2 * 8 + 16, "the paper's 2(p^2-1)+Bt per event");
    }

    #[test]
    fn memory_bits_match_eq2() {
        let f = NnFilter::paper_default(SensorGeometry::davis240());
        assert_eq!(f.memory_bits(), 16 * 240 * 180);
        // = 86.4 kB, the paper's "8X" comparison base against 10.8 kB EBBI.
        assert_eq!(f.memory_bits() / 8, 86_400);
    }

    #[test]
    fn dense_edge_passes_isolated_noise_fails() {
        let mut f = filt();
        // Simulate a vertical edge sweeping: 5 pixels fire within 200 us.
        let edge: Vec<_> = (0..5).map(|i| Event::on(15, 10 + i, u64::from(i) * 50)).collect();
        let kept: Vec<_> = edge.iter().map(|e| f.keep(e)).collect();
        assert!(!kept[0], "first edge event has no support yet");
        assert!(kept[1..].iter().all(|&k| k), "subsequent edge events pass");
        // An isolated event far away, long after: noise.
        assert!(!f.keep(&Event::on(25, 25, 1_000_000)));
    }
}
