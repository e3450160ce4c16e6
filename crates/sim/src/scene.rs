//! Scene model: objects on lanes, z-order occlusion, flicker distractors.

use ebbiot_events::{Micros, SensorGeometry, Timestamp};
use ebbiot_frame::{BoundingBox, PixelBox};

use crate::{LinearTrajectory, ObjectClass};

/// A temporary mid-trajectory stop: the object freezes at `at_us` for
/// `for_us` microseconds, then resumes along the same line (the motion
/// is time-warped, not re-targeted). Because an event camera only fires
/// on relative motion, a stalled object emits no edge events — the
/// tracker must survive the silence and re-acquire the same identity
/// when motion resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// When the object stops, in absolute scene time.
    pub at_us: Timestamp,
    /// How long it stays stopped.
    pub for_us: Micros,
}

/// One moving object in the scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Stable identifier, used by ground truth.
    pub id: u32,
    /// Object class.
    pub class: ObjectClass,
    /// Apparent width in pixels.
    pub width: f32,
    /// Apparent height in pixels.
    pub height: f32,
    /// Motion model.
    pub trajectory: LinearTrajectory,
    /// Depth order: larger values are nearer the camera and occlude
    /// smaller ones (a side view of multi-lane traffic).
    pub z_order: u8,
    /// Optional mid-trajectory stop (see [`Stall`]).
    pub stall: Option<Stall>,
}

impl SceneObject {
    /// Scene time remapped through the optional [`Stall`]: identity
    /// before the stall, frozen at its start during it, shifted by its
    /// length afterwards. Monotone non-decreasing, so span scans stay
    /// valid.
    #[must_use]
    fn warped_time(&self, t_us: Timestamp) -> Timestamp {
        match self.stall {
            None => t_us,
            Some(s) if t_us < s.at_us => t_us,
            Some(s) if t_us < s.at_us.saturating_add(s.for_us) => s.at_us,
            Some(s) => t_us - s.for_us,
        }
    }

    /// Stall-aware position at `t_us`, or `None` before activation.
    #[must_use]
    pub fn position_at(&self, t_us: Timestamp) -> Option<(f32, f32)> {
        self.trajectory.position(self.warped_time(t_us))
    }

    /// Bounding box at `t_us`, or `None` before activation.
    #[must_use]
    pub fn bbox_at(&self, t_us: Timestamp) -> Option<BoundingBox> {
        let (x, y) = self.position_at(t_us)?;
        Some(BoundingBox::new(x, y, self.width, self.height))
    }
}

/// A stationary flickering region — the simulator's stand-in for the
/// paper's "distractors such as trees which create spurious events",
/// which the tracker handles with a region of exclusion (ROE).
#[derive(Debug, Clone, PartialEq)]
pub struct Flicker {
    /// The flickering pixels.
    pub region: PixelBox,
    /// Event rate per pixel of the region, in Hz.
    pub rate_hz_per_pixel: f64,
}

/// A complete scene: geometry, moving objects, distractors.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Sensor geometry the scene is rendered onto.
    pub geometry: SensorGeometry,
    /// Moving objects.
    pub objects: Vec<SceneObject>,
    /// Stationary flicker distractors.
    pub flickers: Vec<Flicker>,
}

impl Scene {
    /// Creates an empty scene.
    #[must_use]
    pub fn new(geometry: SensorGeometry) -> Self {
        Self { geometry, objects: Vec::new(), flickers: Vec::new() }
    }

    /// Whether the point `(x, y)` is covered at `t_us` by any object with
    /// z-order strictly greater than `z` — i.e. whether an event from an
    /// object at depth `z` would be occluded there.
    #[must_use]
    pub fn occluded_at(&self, x: f32, y: f32, z: u8, t_us: Timestamp) -> bool {
        self.objects
            .iter()
            .any(|o| o.z_order > z && o.bbox_at(t_us).is_some_and(|b| b.contains_point(x, y)))
    }

    /// Approximate visible fraction of `obj` at `t_us`: 1 minus the
    /// largest overlap fraction from any nearer object (exact for the
    /// common single-occluder case; conservative otherwise).
    #[must_use]
    pub fn visible_fraction(&self, obj: &SceneObject, t_us: Timestamp) -> f32 {
        let Some(bbox) = obj.bbox_at(t_us) else { return 0.0 };
        let mut max_cover = 0.0f32;
        for other in &self.objects {
            if other.id == obj.id || other.z_order <= obj.z_order {
                continue;
            }
            if let Some(ob) = other.bbox_at(t_us) {
                max_cover = max_cover.max(bbox.overlap_fraction(&ob));
            }
        }
        (1.0 - max_cover).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car(id: u32, y: f32, vx: f32, t0: Timestamp, z: u8) -> SceneObject {
        let (w, h) = ObjectClass::Car.nominal_size();
        SceneObject {
            id,
            class: ObjectClass::Car,
            width: w,
            height: h,
            trajectory: LinearTrajectory::horizontal(-w, y, vx, t0),
            z_order: z,
            stall: None,
        }
    }

    fn geom() -> SensorGeometry {
        SensorGeometry::davis240()
    }

    #[test]
    fn bbox_tracks_trajectory() {
        let c = car(1, 80.0, 60.0, 0, 1);
        let b = c.bbox_at(1_000_000).unwrap();
        assert!((b.x - 20.0).abs() < 1e-3);
        assert_eq!(b.y, 80.0);
        assert_eq!(b.w, 40.0);
    }

    #[test]
    fn occlusion_requires_strictly_nearer_object() {
        let mut scene = Scene::new(geom());
        let near = car(1, 80.0, 60.0, 0, 2);
        scene.objects.push(near.clone());
        let t = 1_000_000;
        let b = near.bbox_at(t).unwrap();
        let (cx, cy) = b.center();
        assert!(scene.occluded_at(cx, cy, 1, t), "z=1 occluded by z=2");
        assert!(!scene.occluded_at(cx, cy, 2, t), "same depth never occludes");
        assert!(!scene.occluded_at(cx, cy, 3, t));
    }

    #[test]
    fn visible_fraction_drops_under_occlusion() {
        let mut scene = Scene::new(geom());
        // Two same-speed cars at the same y but different depth, offset so
        // the near one half-covers the far one.
        let far = car(1, 80.0, 60.0, 0, 1);
        let mut near = car(2, 80.0, 60.0, 0, 2);
        near.trajectory.start_x = far.trajectory.start_x + 20.0; // half overlap
        scene.objects.push(far.clone());
        scene.objects.push(near);
        let v = scene.visible_fraction(&far, 1_000_000);
        assert!((v - 0.5).abs() < 0.05, "roughly half visible, got {v}");
        // The near car itself is fully visible.
        let near_ref = scene.objects[1].clone();
        assert!((scene.visible_fraction(&near_ref, 1_000_000) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stall_freezes_then_resumes_shifted() {
        let mut c = car(1, 80.0, 60.0, 0, 1);
        c.stall = Some(Stall { at_us: 1_000_000, for_us: 500_000 });
        let before = c.bbox_at(900_000).unwrap();
        let plain = car(1, 80.0, 60.0, 0, 1);
        assert_eq!(before, plain.bbox_at(900_000).unwrap(), "identical before the stall");
        // Frozen throughout the stall window.
        let frozen = c.bbox_at(1_000_000).unwrap();
        assert_eq!(c.bbox_at(1_250_000).unwrap(), frozen);
        assert_eq!(c.bbox_at(1_499_999).unwrap(), frozen);
        // Resumes exactly where it stopped, shifted by the stall length.
        assert_eq!(c.bbox_at(1_500_000).unwrap(), frozen);
        assert_eq!(c.bbox_at(2_000_000).unwrap(), plain.bbox_at(1_500_000).unwrap());
    }

    #[test]
    fn no_stall_is_the_identity_warp() {
        let c = car(1, 80.0, 60.0, 0, 1);
        for t in [0, 123_456, 4_000_000] {
            assert_eq!(c.warped_time(t), t);
        }
    }
}
