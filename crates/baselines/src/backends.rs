//! Event-domain back-end: NN-filter + EBMS as one [`Tracker`].
//!
//! The fully event-based baseline of Figs. 4 and 5 does not consume
//! region proposals — it filters raw events through the
//! nearest-neighbour filter and feeds the survivors to the per-event
//! mean-shift tracker, sampling cluster state at frame boundaries.
//! [`NnEbmsTracker`] packages that as a [`Tracker`] back-end (events as
//! they arrive through [`Tracker::on_events`], cluster maintenance and
//! readout at the frame close through [`Tracker::step`]), so the
//! generic pipeline (which skips the frame front-end for
//! [`TrackerInput::Events`] back-ends) and the registry treat it exactly
//! like the proposal-driven trackers.

use ebbiot_core::{
    FrameInput, StateError, StateReader, StateWriter, TrackBox, Tracker, TrackerInput,
};
use ebbiot_events::{Event, OpsCounter, SensorGeometry, Timestamp};
use ebbiot_filters::NnFilter;

use crate::ebms::{EbmsConfig, EbmsTracker};

/// NN-filter + EBMS, packaged as an event-domain tracker back-end.
#[derive(Debug, Clone)]
pub struct NnEbmsTracker {
    filter: NnFilter,
    tracker: EbmsTracker,
    frames_processed: usize,
    events_seen: u64,
    events_kept: u64,
}

impl NnEbmsTracker {
    /// Builds the back-end with the paper's NN-filter configuration.
    #[must_use]
    pub fn new(geometry: SensorGeometry, ebms: EbmsConfig) -> Self {
        Self {
            filter: NnFilter::paper_default(geometry),
            tracker: EbmsTracker::new(geometry, ebms),
            frames_processed: 0,
            events_seen: 0,
            events_kept: 0,
        }
    }

    /// The EBMS tracker (introspection).
    #[must_use]
    pub const fn ebms(&self) -> &EbmsTracker {
        &self.tracker
    }

    /// The NN-filter (introspection).
    #[must_use]
    pub const fn nn_filter(&self) -> &NnFilter {
        &self.filter
    }

    /// Fraction of events the NN-filter kept (diagnostic; the paper's
    /// `N_F ≈ 650` per frame is the kept count).
    #[must_use]
    pub fn keep_fraction(&self) -> f64 {
        if self.events_seen == 0 {
            0.0
        } else {
            self.events_kept as f64 / self.events_seen as f64
        }
    }

    /// Mean kept (filtered) events per frame — the paper's `N_F`.
    #[must_use]
    pub fn filtered_events_per_frame(&self) -> f64 {
        if self.frames_processed == 0 {
            0.0
        } else {
            self.events_kept as f64 / self.frames_processed as f64
        }
    }
}

impl Tracker for NnEbmsTracker {
    fn name(&self) -> &'static str {
        "nn-ebms"
    }

    fn input(&self) -> TrackerInput {
        TrackerInput::Events
    }

    fn on_events(&mut self, events: &[Event]) {
        for event in events {
            self.events_seen += 1;
            if self.filter.keep(event) {
                self.events_kept += 1;
                self.tracker.process_event(event);
            }
        }
    }

    fn step(&mut self, frame: &FrameInput<'_>) -> Vec<TrackBox> {
        self.tracker.maintain(frame.t_end());
        self.frames_processed += 1;
        self.tracker
            .visible()
            .into_iter()
            .map(|o| TrackBox {
                track_id: o.id,
                bbox: o.bbox,
                // EBMS velocities are px/s; normalize to px/frame like
                // the other trackers.
                velocity: (
                    o.velocity.0 * frame.duration as f32 / 1e6,
                    o.velocity.1 * frame.duration as f32 / 1e6,
                ),
                occluded: false,
            })
            .collect()
    }

    fn active_count(&self) -> usize {
        self.tracker.active_count()
    }

    fn ops(&self) -> OpsCounter {
        let mut total = *self.filter.ops();
        total.absorb(self.tracker.ops());
        total
    }

    fn reset(&mut self) {
        self.filter.reset();
        self.tracker.reset();
        self.frames_processed = 0;
        self.events_seen = 0;
        self.events_kept = 0;
    }

    fn reset_ops(&mut self) {
        self.filter.reset_ops();
        self.tracker.reset_ops();
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(self.frames_processed as u64);
        w.put_u64(self.events_seen);
        w.put_u64(self.events_kept);
        // NN-filter: ops plus the last-fire map, sparse-encoded (the map
        // is almost entirely the "never fired" sentinel between bursts).
        w.put_ops(self.filter.ops());
        let last_fire = self.filter.last_fire();
        w.put_u32(last_fire.len() as u32);
        let fired = last_fire.iter().filter(|&&t| t != Timestamp::MAX).count();
        w.put_u32(fired as u32);
        for (index, &t) in last_fire.iter().enumerate() {
            if t != Timestamp::MAX {
                w.put_u32(index as u32);
                w.put_u64(t);
            }
        }
        // EBMS cluster pool, as an embedded blob.
        w.put_bytes(&self.tracker.save_state());
        w.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        let frames_processed = usize::try_from(r.get_u64()?)
            .map_err(|_| StateError::Invalid("frame count exceeds the address space"))?;
        let events_seen = r.get_u64()?;
        let events_kept = r.get_u64()?;
        let filter_ops = r.get_ops()?;
        let total_pixels = r.get_u32()? as usize;
        if total_pixels != self.filter.last_fire().len() {
            return Err(StateError::Invalid("last-fire map sized for a different geometry"));
        }
        let fired = r.get_u32()? as usize;
        if fired > total_pixels {
            return Err(StateError::Invalid("more fired pixels than the array holds"));
        }
        let mut entries = Vec::new();
        for _ in 0..fired {
            let index = r.get_u32()? as usize;
            let t = r.get_u64()?;
            if index >= total_pixels {
                return Err(StateError::Invalid("last-fire index outside the pixel array"));
            }
            if t == Timestamp::MAX {
                return Err(StateError::Invalid("last-fire entry uses the never-fired sentinel"));
            }
            entries.push((index, t));
        }
        let ebms_blob = r.get_bytes()?;
        // Parse the embedded blob into a scratch tracker before touching
        // anything, so a bad EBMS section leaves the whole back-end as
        // it was.
        let mut ebms = self.tracker.clone();
        ebms.load_state(ebms_blob)?;
        r.finish()?;
        self.frames_processed = frames_processed;
        self.events_seen = events_seen;
        self.events_kept = events_kept;
        self.filter.reset();
        for (index, t) in entries {
            self.filter.set_last_fire(index, t);
        }
        self.filter.restore_ops(filter_ops);
        self.tracker = ebms;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> NnEbmsTracker {
        NnEbmsTracker::new(SensorGeometry::davis240(), EbmsConfig::paper_default())
    }

    /// Feeds one window's events, then closes frame `index`.
    fn frame(b: &mut NnEbmsTracker, events: &[Event], index: usize) -> Vec<TrackBox> {
        b.on_events(events);
        b.step(&FrameInput { t_start: index as u64 * 66_000, duration: 66_000, proposals: &[] })
    }

    #[test]
    fn declares_event_input() {
        assert_eq!(backend().input(), TrackerInput::Events);
        assert_eq!(backend().name(), "nn-ebms");
    }

    #[test]
    fn isolated_noise_is_filtered_out() {
        let mut b = backend();
        let events: Vec<Event> = (0..50)
            .map(|k| Event::on((k * 4) % 240, (k * 7) % 180, u64::from(k) * 1_000))
            .collect();
        let tracks = frame(&mut b, &events, 0);
        assert!(tracks.is_empty());
        assert!(b.keep_fraction() < 0.2, "kept {}", b.keep_fraction());
    }

    #[test]
    fn reset_clears_statistics() {
        let mut b = backend();
        // A dense block: neighbouring pixels fire within the support
        // window, so the NN filter keeps most of it.
        let mut events = Vec::new();
        for dy in 0..10u16 {
            for dx in 0..10u16 {
                events.push(Event::on(50 + dx, 50 + dy, u64::from(dy * 10 + dx) * 20));
            }
        }
        let _ = frame(&mut b, &events, 0);
        assert!(b.keep_fraction() > 0.0);
        b.reset();
        assert_eq!(b.keep_fraction(), 0.0);
        assert_eq!(b.filtered_events_per_frame(), 0.0);
    }
}
