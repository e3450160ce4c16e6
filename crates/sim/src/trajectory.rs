//! Object motion models.

use ebbiot_events::Timestamp;

/// Constant-velocity trajectory in pixel coordinates.
///
/// Objects at a surveilled junction move essentially linearly through the
/// field of view; the paper's trackers all assume near-constant velocity
/// over a frame, and the evaluation scenes are side views of straight
/// road, so a linear model (with per-object speed diversity) is faithful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearTrajectory {
    /// Minimum-corner x position at `t0_us`.
    pub start_x: f32,
    /// Minimum-corner y position at `t0_us`.
    pub start_y: f32,
    /// Velocity in px/s along x (signed: negative means right-to-left).
    pub vx: f32,
    /// Velocity in px/s along y (usually 0 for road traffic).
    pub vy: f32,
    /// Activation time: the object does not exist before this.
    pub t0_us: Timestamp,
}

impl LinearTrajectory {
    /// Creates a horizontal trajectory (vy = 0).
    #[must_use]
    pub const fn horizontal(start_x: f32, y: f32, vx: f32, t0_us: Timestamp) -> Self {
        Self { start_x, start_y: y, vx, vy: 0.0, t0_us }
    }

    /// Minimum-corner position at time `t_us`; `None` before activation.
    #[must_use]
    pub fn position(&self, t_us: Timestamp) -> Option<(f32, f32)> {
        if t_us < self.t0_us {
            return None;
        }
        let dt_s = (t_us - self.t0_us) as f32 / 1e6;
        Some((self.start_x + self.vx * dt_s, self.start_y + self.vy * dt_s))
    }

    /// Displacement over `[t_us, t_us + dt_us]` in pixels (0 before
    /// activation).
    #[must_use]
    pub fn displacement(&self, dt_us: u64) -> (f32, f32) {
        let dt_s = dt_us as f32 / 1e6;
        (self.vx * dt_s, self.vy * dt_s)
    }

    /// Speed magnitude in px/s.
    #[must_use]
    pub fn speed(&self) -> f32 {
        (self.vx * self.vx + self.vy * self.vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_before_activation_is_none() {
        let t = LinearTrajectory::horizontal(0.0, 50.0, 30.0, 1_000_000);
        assert_eq!(t.position(999_999), None);
        assert!(t.position(1_000_000).is_some());
    }

    #[test]
    fn position_integrates_velocity() {
        let t = LinearTrajectory::horizontal(-40.0, 80.0, 60.0, 0);
        let (x, y) = t.position(500_000).unwrap();
        assert!((x - (-10.0)).abs() < 1e-3);
        assert!((y - 80.0).abs() < 1e-6);
    }

    #[test]
    fn negative_velocity_moves_left() {
        let t = LinearTrajectory::horizontal(240.0, 80.0, -75.0, 0);
        let (x, _) = t.position(1_000_000).unwrap();
        assert!((x - 165.0).abs() < 1e-3);
    }

    #[test]
    fn displacement_scales_with_dt() {
        let t = LinearTrajectory::horizontal(0.0, 0.0, 45.0, 0);
        let (dx, dy) = t.displacement(66_000);
        assert!((dx - 2.97).abs() < 1e-3, "3 px/frame at 45 px/s");
        assert_eq!(dy, 0.0);
    }

    #[test]
    fn speed_combines_axes() {
        let t = LinearTrajectory { start_x: 0.0, start_y: 0.0, vx: 3.0, vy: 4.0, t0_us: 0 };
        assert!((t.speed() - 5.0).abs() < 1e-6);
    }
}
