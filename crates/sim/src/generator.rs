//! Random traffic generation: Poisson arrivals on lanes.

use ebbiot_events::{SensorGeometry, Timestamp};
use rand::Rng;

use crate::{LinearTrajectory, ObjectClass, Scene, SceneObject};

/// One traffic lane in the side-view scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneConfig {
    /// Vertical centre of objects travelling on this lane (pixel row).
    pub y_center: f32,
    /// Travel direction: `+1` = left-to-right, `-1` = right-to-left.
    pub direction: i8,
    /// Depth order of the lane: larger = nearer camera = occludes.
    pub z_order: u8,
}

/// Traffic mix and optics for a recording site.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Lanes of the observed road.
    pub lanes: Vec<LaneConfig>,
    /// Mean arrival rate per class, in arrivals/second over all lanes.
    pub arrivals_hz: Vec<(ObjectClass, f64)>,
    /// Apparent-size multiplier from the lens (1.0 at 12 mm, ~0.5 at 6 mm).
    pub lens_scale: f32,
    /// Uniform +- jitter applied to nominal object sizes.
    pub size_jitter: f32,
    /// Multiplier on class speed ranges (slower site traffic < 1.0).
    pub speed_scale: f32,
    /// Minimum headway between consecutive spawns on the same lane, in
    /// microseconds (prevents physically impossible overlapping spawns).
    pub min_headway_us: u64,
}

/// Generates scenes by sampling Poisson arrival processes per class.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    geometry: SensorGeometry,
}

impl TrafficGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics when the config has no lanes or no classes.
    #[must_use]
    pub fn new(geometry: SensorGeometry, config: TrafficConfig) -> Self {
        assert!(!config.lanes.is_empty(), "need at least one lane");
        assert!(!config.arrivals_hz.is_empty(), "need at least one class");
        Self { config, geometry }
    }

    /// The traffic configuration.
    #[must_use]
    pub const fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Samples a scene covering `[0, duration_us)`.
    ///
    /// Arrivals whose crossing would extend past the horizon are still
    /// included (they are simply cut off by the recording end, as in a
    /// real capture).
    #[must_use]
    pub fn generate(&self, duration_us: Timestamp, rng: &mut impl Rng) -> Scene {
        let mut scene = Scene::new(self.geometry);

        // Phase 1: sample every class's Poisson arrival process.
        let mut arrivals: Vec<(Timestamp, ObjectClass, usize)> = Vec::new();
        for &(class, rate_hz) in &self.config.arrivals_hz {
            if rate_hz <= 0.0 {
                continue;
            }
            let mut t = 0f64;
            loop {
                // Exponential inter-arrival time.
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                t += -u.ln() / rate_hz * 1e6;
                if t >= duration_us as f64 {
                    break;
                }
                let lane_idx = rng.random_range(0..self.config.lanes.len());
                arrivals.push((t as Timestamp, class, lane_idx));
            }
        }

        // Phase 2: apply the per-lane headway constraint in global time
        // order (a later arrival too close behind any earlier spawn on the
        // same lane is dropped, like a driver who never joined the road).
        arrivals.sort_by_key(|&(t0, class, lane)| (t0, class, lane));
        let mut last_spawn: Vec<Option<u64>> = vec![None; self.config.lanes.len()];
        let mut next_id = 1u32;
        for (t0, class, lane_idx) in arrivals {
            if let Some(last) = last_spawn[lane_idx] {
                if t0.saturating_sub(last) < self.config.min_headway_us {
                    continue;
                }
            }
            last_spawn[lane_idx] = Some(t0);
            scene.objects.push(self.spawn(class, lane_idx, t0, next_id, rng));
            next_id += 1;
        }
        scene
    }

    fn spawn(
        &self,
        class: ObjectClass,
        lane_idx: usize,
        t0: Timestamp,
        id: u32,
        rng: &mut impl Rng,
    ) -> SceneObject {
        let lane = self.config.lanes[lane_idx];
        let (nw, nh) = class.nominal_size();
        let j = self.config.size_jitter;
        // random_range needs a non-degenerate range when j = 0.
        let wf = if j <= 0.0 { 1.0 } else { 1.0 + rng.random_range(-j..j) };
        let hf = if j <= 0.0 { 1.0 } else { 1.0 + rng.random_range(-j..j) };
        let width = (nw * wf * self.config.lens_scale).max(2.0);
        let height = (nh * hf * self.config.lens_scale).max(2.0);
        let (lo, hi) = class.speed_range_px_s();
        let speed = rng.random_range(lo..hi) * self.config.speed_scale * self.config.lens_scale;
        let (start_x, vx) = if lane.direction >= 0 {
            (-width, speed)
        } else {
            (f32::from(self.geometry.width()), -speed)
        };
        SceneObject {
            id,
            class,
            width,
            height,
            trajectory: LinearTrajectory::horizontal(start_x, lane.y_center - height / 2.0, vx, t0),
            z_order: lane.z_order,
            stall: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// A simple two-lane bidirectional road with a moderate mix.
    fn two_lane() -> TrafficConfig {
        TrafficConfig {
            lanes: vec![
                LaneConfig { y_center: 70.0, direction: 1, z_order: 1 },
                LaneConfig { y_center: 110.0, direction: -1, z_order: 2 },
            ],
            arrivals_hz: vec![
                (ObjectClass::Car, 0.20),
                (ObjectClass::Van, 0.05),
                (ObjectClass::Truck, 0.03),
                (ObjectClass::Bus, 0.02),
                (ObjectClass::Bike, 0.06),
                (ObjectClass::Human, 0.03),
            ],
            lens_scale: 1.0,
            size_jitter: 0.12,
            speed_scale: 1.0,
            min_headway_us: 1_200_000,
        }
    }

    fn generator() -> TrafficGenerator {
        TrafficGenerator::new(SensorGeometry::davis240(), two_lane())
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn arrival_counts_scale_with_duration_and_rate() {
        let g = generator();
        // Total rate 0.39 Hz; over 600 s expect ~234 arrivals (minus a few
        // headway rejections).
        let scene = g.generate(600_000_000, &mut rng(1));
        let n = scene.objects.len();
        assert!(n > 150 && n < 300, "got {n}");
    }

    #[test]
    fn all_spawns_start_off_screen_and_cross() {
        let g = generator();
        let scene = g.generate(120_000_000, &mut rng(2));
        assert!(!scene.objects.is_empty());
        for o in &scene.objects {
            let b = o.bbox_at(o.trajectory.t0_us).unwrap();
            assert!(b.x_max() <= 0.0 || b.x >= 240.0, "object {} starts off screen, got {b}", o.id);
            // And it points into the frame.
            if b.x_max() <= 0.0 {
                assert!(o.trajectory.vx > 0.0);
            } else {
                assert!(o.trajectory.vx < 0.0);
            }
        }
    }

    #[test]
    fn lanes_assign_direction_and_depth() {
        let g = generator();
        let scene = g.generate(300_000_000, &mut rng(3));
        for o in &scene.objects {
            if o.trajectory.vx > 0.0 {
                assert_eq!(o.z_order, 1, "left-to-right is the far lane");
            } else {
                assert_eq!(o.z_order, 2);
            }
        }
    }

    #[test]
    fn ids_are_unique_and_objects_time_sorted() {
        let g = generator();
        let scene = g.generate(300_000_000, &mut rng(4));
        let mut ids: Vec<u32> = scene.objects.iter().map(|o| o.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "ids unique");
        for w in scene.objects.windows(2) {
            assert!(w[0].trajectory.t0_us <= w[1].trajectory.t0_us);
        }
    }

    #[test]
    fn headway_constraint_spaces_same_lane_spawns() {
        let g = generator();
        let scene = g.generate(600_000_000, &mut rng(5));
        // Group by z (lane proxy) and check spawn spacing.
        for z in [1u8, 2] {
            let mut times: Vec<u64> = scene
                .objects
                .iter()
                .filter(|o| o.z_order == z)
                .map(|o| o.trajectory.t0_us)
                .collect();
            times.sort_unstable();
            for w in times.windows(2) {
                assert!(w[1] - w[0] >= 1_200_000, "headway violated: {} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn lens_scale_shrinks_objects_and_speeds() {
        let mut cfg = two_lane();
        cfg.lens_scale = 0.5;
        let g = TrafficGenerator::new(SensorGeometry::davis240(), cfg);
        let scene = g.generate(300_000_000, &mut rng(6));
        let cars: Vec<_> = scene.objects.iter().filter(|o| o.class == ObjectClass::Car).collect();
        assert!(!cars.is_empty());
        for c in cars {
            assert!(c.width < 26.0, "half-scale car width, got {}", c.width);
            assert!(c.trajectory.speed() < 50.0);
        }
    }

    #[test]
    fn deterministic_generation() {
        let g = generator();
        let a = g.generate(60_000_000, &mut rng(7));
        let b = g.generate(60_000_000, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rate_class_never_spawns() {
        let mut cfg = two_lane();
        cfg.arrivals_hz = vec![(ObjectClass::Car, 0.0), (ObjectClass::Bus, 0.1)];
        let g = TrafficGenerator::new(SensorGeometry::davis240(), cfg);
        let scene = g.generate(300_000_000, &mut rng(8));
        assert!(scene.objects.iter().all(|o| o.class == ObjectClass::Bus));
        assert!(!scene.objects.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_lanes_panic() {
        let mut cfg = two_lane();
        cfg.lanes.clear();
        let _ = TrafficGenerator::new(SensorGeometry::davis240(), cfg);
    }
}
