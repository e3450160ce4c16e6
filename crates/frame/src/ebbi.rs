//! Event-based binary image (EBBI) accumulation.
//!
//! The paper's key idea (Section II-A): instead of processing every event,
//! the processor sleeps and wakes every `tF`; the NVS pixels stay latched
//! until read out, so the sensor itself stores a binary image of all events
//! since the last interrupt ("we reuse the sensor as a memory"). Reading it
//! out yields the EBBI — one bit per pixel, polarity ignored.
//!
//! [`EbbiAccumulator`] models exactly that: [`EbbiAccumulator::accumulate`]
//! latches events (idempotently per pixel, like the sensor), and
//! [`EbbiAccumulator::readout`] hands the frame to the processor and resets
//! the latches, counting memory writes the way Eq. 1 does.
//!
//! # Hot path
//!
//! The streaming front-end latches a whole frame window at once with
//! [`EbbiAccumulator::accumulate_all`]: one OR per in-bounds event, with
//! the new-pixel count summed branch-free from the latch's "was zero"
//! bit (whether a pixel is new is as unpredictable as the events, so a
//! branch on it mispredicts often), and the counters and the Eq. 1 write
//! charge updated once per window. [`EbbiAccumulator::readout_into`]
//! then swaps the latched image into the caller's frame and clears the
//! one it got back, so a readout writes the image once instead of
//! copying it and then clearing it. The one-event-at-a-time
//! [`EbbiAccumulator::accumulate`] keeps the branching form; the
//! kernel-parity proptests check `accumulate_all` against it.

use ebbiot_events::{Event, OpsCounter, SensorGeometry};

use crate::BinaryImage;

/// Accumulates events into an EBBI with sensor-latch semantics.
#[derive(Debug, Clone)]
pub struct EbbiAccumulator {
    image: BinaryImage,
    events_seen: u64,
    pixels_latched: u64,
    ops: OpsCounter,
}

impl EbbiAccumulator {
    /// Creates an accumulator for the given sensor geometry.
    #[must_use]
    pub fn new(geometry: SensorGeometry) -> Self {
        Self {
            image: BinaryImage::new(geometry),
            events_seen: 0,
            pixels_latched: 0,
            ops: OpsCounter::new(),
        }
    }

    /// The sensor geometry.
    #[must_use]
    pub fn geometry(&self) -> SensorGeometry {
        self.image.geometry()
    }

    /// Latches one event. Events outside the array are ignored (a real
    /// readout cannot produce them, but simulated streams might after
    /// coordinate transforms).
    pub fn accumulate(&mut self, event: &Event) {
        self.events_seen += 1;
        if !self.geometry().contains_event(event) {
            return;
        }
        // One memory write per *new* pixel: the sensor latch is free, the
        // write happens when building the processor-side frame copy. Eq. 1
        // counts one write per EBBI pixel set.
        if self.image.latch(event.x, event.y) {
            self.pixels_latched += 1;
            self.ops.write(1);
        }
    }

    /// Latches a whole window of events, with the same image, counters
    /// and op charge as calling [`Self::accumulate`] on each in turn: one
    /// OR per in-bounds event, new pixels counted branch-free, counters
    /// and the Eq. 1 write charge updated once per window.
    pub fn accumulate_all(&mut self, events: &[Event]) {
        let geometry = self.geometry();
        let mut latched = 0u64;
        for e in events {
            if geometry.contains_event(e) {
                latched += u64::from(self.image.latch(e.x, e.y));
            }
        }
        self.events_seen += events.len() as u64;
        self.pixels_latched += latched;
        self.ops.write(latched);
    }

    /// Latches every set pixel of `image`, charging one Eq. 1 write per
    /// pixel it sets. The event counter does not move.
    ///
    /// # Panics
    ///
    /// Panics when `image` has a different geometry.
    pub fn latch_image(&mut self, image: &BinaryImage) {
        assert_eq!(image.geometry(), self.geometry(), "geometry mismatch in latch_image");
        let mut latched = 0;
        for y in 0..image.height() {
            for (word, &set) in self.image.row_words_mut(y).iter_mut().zip(image.row_words(y)) {
                latched += u64::from((set & !*word).count_ones());
                *word |= set;
            }
        }
        self.pixels_latched += latched;
        self.ops.write(latched);
    }

    /// Replaces the latch with `image`, as latched by `events_seen`
    /// events, and charges nothing: restoring a checkpointed window
    /// restores its op tallies separately.
    ///
    /// # Panics
    ///
    /// Panics when `image` has a different geometry.
    pub fn restore_latch(&mut self, image: &BinaryImage, events_seen: u64) {
        assert_eq!(image.geometry(), self.geometry(), "geometry mismatch in restore_latch");
        self.image.copy_from(image);
        self.events_seen = events_seen;
        self.pixels_latched = image.count_ones() as u64;
    }

    /// Number of events fed in since the last readout (the paper's `n`,
    /// with `n = beta * alpha * A * B`).
    #[must_use]
    pub const fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Number of distinct latched pixels since the last readout
    /// (`alpha * A * B`).
    #[must_use]
    pub const fn pixels_latched(&self) -> u64 {
        self.pixels_latched
    }

    /// The `beta` of Eq. 2: average fires per active pixel in the current
    /// window (`>= 1`; 0.0 when nothing latched).
    #[must_use]
    pub fn beta(&self) -> f64 {
        if self.pixels_latched == 0 {
            0.0
        } else {
            self.events_seen as f64 / self.pixels_latched as f64
        }
    }

    /// Reads out the EBBI and resets the latches, mirroring the
    /// interrupt-driven readout of Fig. 2. Returns the frame.
    #[must_use]
    pub fn readout(&mut self) -> BinaryImage {
        let geometry = self.geometry();
        let frame = core::mem::replace(&mut self.image, BinaryImage::new(geometry));
        self.events_seen = 0;
        self.pixels_latched = 0;
        frame
    }

    /// Reads out the EBBI into a caller-owned frame and resets the
    /// latches — the allocation-free variant of [`Self::readout`] used by
    /// the streaming front-end (`out` is a reused scratch buffer). The
    /// latched image is swapped into `out` and the buffer that comes
    /// back is cleared: one word fill, no copy and no per-pixel work.
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different geometry.
    pub fn readout_into(&mut self, out: &mut BinaryImage) {
        assert_eq!(out.geometry(), self.geometry(), "geometry mismatch in readout_into");
        core::mem::swap(&mut self.image, out);
        self.image.clear();
        self.events_seen = 0;
        self.pixels_latched = 0;
    }

    /// Peek at the partially accumulated frame without resetting.
    #[must_use]
    pub fn current(&self) -> &BinaryImage {
        &self.image
    }

    /// Runtime op counter (memory writes for frame creation, per Eq. 1).
    #[must_use]
    pub const fn ops(&self) -> &OpsCounter {
        &self.ops
    }

    /// Overwrites the op counter with a previously saved tally — the
    /// session-checkpoint restore path.
    pub fn restore_ops(&mut self, ops: OpsCounter) {
        self.ops = ops;
    }

    /// Resets the op counter (typically once per frame, after reporting).
    pub fn reset_ops(&mut self) {
        self.ops.reset();
    }
}

/// One-shot convenience: builds an EBBI from a window of events.
#[must_use]
pub fn ebbi_from_events(geometry: SensorGeometry, events: &[Event]) -> BinaryImage {
    let mut acc = EbbiAccumulator::new(geometry);
    acc.accumulate_all(events);
    acc.readout()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::Polarity;

    fn geom() -> SensorGeometry {
        SensorGeometry::new(16, 16)
    }

    #[test]
    fn single_event_sets_single_pixel() {
        let img = ebbi_from_events(geom(), &[Event::on(3, 4, 0)]);
        assert!(img.get(3, 4));
        assert_eq!(img.count_ones(), 1);
    }

    #[test]
    fn polarity_is_ignored() {
        let img = ebbi_from_events(geom(), &[Event::on(1, 1, 0), Event::off(2, 2, 5)]);
        assert!(img.get(1, 1));
        assert!(img.get(2, 2));
    }

    #[test]
    fn repeated_events_latch_once() {
        let mut acc = EbbiAccumulator::new(geom());
        for t in 0..10 {
            acc.accumulate(&Event::new(
                5,
                5,
                t,
                if t % 2 == 0 { Polarity::On } else { Polarity::Off },
            ));
        }
        assert_eq!(acc.events_seen(), 10);
        assert_eq!(acc.pixels_latched(), 1);
        assert!((acc.beta() - 10.0).abs() < 1e-12);
        let img = acc.readout();
        assert_eq!(img.count_ones(), 1);
    }

    #[test]
    fn out_of_bounds_events_are_ignored() {
        let mut acc = EbbiAccumulator::new(geom());
        acc.accumulate(&Event::on(100, 100, 0));
        assert_eq!(acc.pixels_latched(), 0);
        assert_eq!(acc.readout().count_ones(), 0);
    }

    #[test]
    fn readout_resets_latches_and_counters() {
        let mut acc = EbbiAccumulator::new(geom());
        acc.accumulate(&Event::on(1, 1, 0));
        let first = acc.readout();
        assert_eq!(first.count_ones(), 1);
        assert_eq!(acc.events_seen(), 0);
        assert_eq!(acc.pixels_latched(), 0);
        assert_eq!(acc.beta(), 0.0);
        let second = acc.readout();
        assert_eq!(second.count_ones(), 0, "latches cleared by readout");
    }

    #[test]
    fn mem_writes_count_new_pixels_only() {
        let mut acc = EbbiAccumulator::new(geom());
        acc.accumulate(&Event::on(1, 1, 0));
        acc.accumulate(&Event::on(1, 1, 1));
        acc.accumulate(&Event::on(2, 2, 2));
        assert_eq!(acc.ops().mem_writes, 2);
    }

    #[test]
    fn current_peeks_without_reset() {
        let mut acc = EbbiAccumulator::new(geom());
        acc.accumulate(&Event::on(7, 7, 0));
        assert!(acc.current().get(7, 7));
        assert_eq!(acc.events_seen(), 1, "peek does not reset");
    }

    #[test]
    fn latching_images_charges_the_union_once() {
        let first: Vec<_> = (0..6).map(|i| Event::on(i, 2, u64::from(i))).collect();
        let second: Vec<_> = (3..9).map(|i| Event::off(i, 2, u64::from(i))).collect();
        let mut by_events = EbbiAccumulator::new(geom());
        by_events.accumulate_all(&first);
        by_events.accumulate_all(&second);
        let mut by_images = EbbiAccumulator::new(geom());
        by_images.latch_image(&ebbi_from_events(geom(), &first));
        by_images.latch_image(&ebbi_from_events(geom(), &second));
        assert_eq!(by_images.ops(), by_events.ops());
        assert_eq!(by_images.ops().mem_writes, 9);
        assert_eq!(by_images.readout(), by_events.readout());
    }

    #[test]
    fn a_restored_latch_matches_the_original_without_a_charge() {
        let events: Vec<_> = (0..12).map(|i| Event::on(i % 5, i / 5, u64::from(i))).collect();
        let mut original = EbbiAccumulator::new(geom());
        original.accumulate_all(&events);
        let mut restored = EbbiAccumulator::new(geom());
        restored.restore_latch(original.current(), original.events_seen());
        assert_eq!(restored.ops().total(), 0);
        assert_eq!(restored.events_seen(), 12);
        assert_eq!(restored.pixels_latched(), original.pixels_latched());
        assert_eq!(restored.readout(), original.readout());
    }

    #[test]
    fn accumulate_all_equals_loop() {
        let events: Vec<_> = (0..20).map(|i| Event::on(i % 8, i / 8, u64::from(i))).collect();
        let mut a = EbbiAccumulator::new(geom());
        a.accumulate_all(&events);
        let mut b = EbbiAccumulator::new(geom());
        for e in &events {
            b.accumulate(e);
        }
        assert_eq!(a.readout(), b.readout());
    }
}
