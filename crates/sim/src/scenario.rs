//! Scripted scenario builders.
//!
//! The integration tests, ablation harnesses and examples repeatedly need
//! the same hand-crafted situations: a single crossing vehicle, two
//! vehicles meeting mid-frame, a convoy, a fragmenting bus, a flickering
//! distractor. This module provides them as one-liners so scenario
//! definitions live in a single audited place.

use ebbiot_events::{SensorGeometry, Timestamp};
use ebbiot_frame::PixelBox;

use crate::{Flicker, LinearTrajectory, ObjectClass, Scene, SceneObject};

/// Fluent scene builder for scripted scenarios.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scene: Scene,
    next_id: u32,
}

impl ScenarioBuilder {
    /// Starts an empty scenario on the given sensor.
    #[must_use]
    pub fn new(geometry: SensorGeometry) -> Self {
        Self { scene: Scene::new(geometry), next_id: 1 }
    }

    /// Starts an empty scenario on the DAVIS240.
    #[must_use]
    pub fn davis240() -> Self {
        Self::new(SensorGeometry::davis240())
    }

    /// Adds a vehicle of `class` entering from the left at `t0`, travelling
    /// right at `speed_px_s` with its vertical centre on `y_center`.
    #[must_use]
    pub fn entering_left(
        mut self,
        class: ObjectClass,
        y_center: f32,
        speed_px_s: f32,
        t0: Timestamp,
        z_order: u8,
    ) -> Self {
        let (w, h) = class.nominal_size();
        self.scene.objects.push(SceneObject {
            id: self.next_id,
            class,
            width: w,
            height: h,
            trajectory: LinearTrajectory::horizontal(-w, y_center - h / 2.0, speed_px_s, t0),
            z_order,
            stall: None,
        });
        self.next_id += 1;
        self
    }

    /// Adds a vehicle entering from the right, travelling left.
    #[must_use]
    pub fn entering_right(
        mut self,
        class: ObjectClass,
        y_center: f32,
        speed_px_s: f32,
        t0: Timestamp,
        z_order: u8,
    ) -> Self {
        let (w, h) = class.nominal_size();
        let width = f32::from(self.scene.geometry.width());
        self.scene.objects.push(SceneObject {
            id: self.next_id,
            class,
            width: w,
            height: h,
            trajectory: LinearTrajectory::horizontal(width, y_center - h / 2.0, -speed_px_s, t0),
            z_order,
            stall: None,
        });
        self.next_id += 1;
        self
    }

    /// Adds a stationary flicker distractor (wind-blown foliage).
    #[must_use]
    pub fn flicker(mut self, region: PixelBox, rate_hz_per_pixel: f64) -> Self {
        self.scene.flickers.push(Flicker { region, rate_hz_per_pixel });
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> Scene {
        self.scene
    }

    // ------------------------------------------------------------------
    // Canonical scenarios.
    // ------------------------------------------------------------------

    /// One car crossing left-to-right at 60 px/s (~4 px/frame).
    #[must_use]
    pub fn single_car() -> Scene {
        Self::davis240().entering_left(ObjectClass::Car, 90.0, 60.0, 0, 1).build()
    }

    /// Two cars on different lanes crossing mid-frame in opposite
    /// directions; the nearer (z = 2) briefly occludes the farther.
    #[must_use]
    pub fn crossing_cars() -> Scene {
        Self::davis240()
            .entering_left(ObjectClass::Car, 85.0, 60.0, 0, 1)
            .entering_right(ObjectClass::Car, 95.0, 60.0, 0, 2)
            .build()
    }

    /// A bus (long, flat-sided — the Fig. 3 fragmentation case) crossing
    /// slowly.
    #[must_use]
    pub fn fragmenting_bus() -> Scene {
        Self::davis240().entering_left(ObjectClass::Bus, 80.0, 35.0, 0, 1).build()
    }

    /// A convoy: three vehicles on one lane with ~1.5 s headway.
    #[must_use]
    pub fn convoy() -> Scene {
        Self::davis240()
            .entering_left(ObjectClass::Car, 90.0, 60.0, 0, 1)
            .entering_left(ObjectClass::Van, 90.0, 60.0, 1_500_000, 1)
            .entering_left(ObjectClass::Truck, 90.0, 55.0, 3_000_000, 1)
            .build()
    }

    /// Foliage flicker in the top-left corner plus one crossing car — the
    /// ROE scenario.
    #[must_use]
    pub fn flicker_and_car() -> Scene {
        Self::davis240()
            .entering_left(ObjectClass::Car, 120.0, 60.0, 0, 1)
            .flicker(PixelBox::new(8, 8, 48, 40), 12.0)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let scene = ScenarioBuilder::davis240()
            .entering_left(ObjectClass::Car, 90.0, 60.0, 0, 1)
            .entering_right(ObjectClass::Bus, 60.0, 40.0, 0, 2)
            .build();
        assert_eq!(scene.objects[0].id, 1);
        assert_eq!(scene.objects[1].id, 2);
    }

    #[test]
    fn entering_left_starts_fully_off_screen_moving_right() {
        let scene = ScenarioBuilder::single_car();
        let car = &scene.objects[0];
        let b = car.bbox_at(0).unwrap();
        assert!(b.x_max() <= 0.0);
        assert!(car.trajectory.vx > 0.0);
    }

    #[test]
    fn entering_right_starts_off_screen_moving_left() {
        let scene =
            ScenarioBuilder::davis240().entering_right(ObjectClass::Van, 90.0, 50.0, 0, 1).build();
        let v = &scene.objects[0];
        let b = v.bbox_at(0).unwrap();
        assert!(b.x >= 240.0);
        assert!(v.trajectory.vx < 0.0);
    }

    #[test]
    fn y_center_is_respected() {
        let scene =
            ScenarioBuilder::davis240().entering_left(ObjectClass::Car, 100.0, 60.0, 0, 1).build();
        let b = scene.objects[0].bbox_at(0).unwrap();
        let (_, cy) = b.center();
        assert!((cy - 100.0).abs() < 1e-4);
    }

    #[test]
    fn crossing_cars_actually_cross() {
        let scene = ScenarioBuilder::crossing_cars();
        // Both fully visible at 2 s; x-ranges overlap near the middle
        // somewhere between 2 and 3 s.
        let mut overlapped = false;
        for t in (0..4_000_000).step_by(66_000) {
            let a = scene.objects[0].bbox_at(t);
            let b = scene.objects[1].bbox_at(t);
            if let (Some(a), Some(b)) = (a, b) {
                if a.intersection(&b).is_some() {
                    overlapped = true;
                }
            }
        }
        assert!(overlapped, "the cars' boxes overlap during the crossing");
    }

    #[test]
    fn convoy_preserves_headway() {
        let scene = ScenarioBuilder::convoy();
        assert_eq!(scene.objects.len(), 3);
        for w in scene.objects.windows(2) {
            assert!(w[1].trajectory.t0_us - w[0].trajectory.t0_us >= 1_500_000);
        }
    }

    #[test]
    fn flicker_scenario_has_both_parts() {
        let scene = ScenarioBuilder::flicker_and_car();
        assert_eq!(scene.objects.len(), 1);
        assert_eq!(scene.flickers.len(), 1);
        assert!(scene.flickers[0].rate_hz_per_pixel > 0.0);
    }
}
