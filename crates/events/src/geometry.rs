//! Sensor pixel-array geometry.

use crate::Event;

/// The `A x B` pixel array of a neuromorphic vision sensor.
///
/// The paper's DAVIS has `A = 240` columns and `B = 180` rows; every block
/// of the pipeline (EBBI, RPN, trackers) is parameterized on this geometry
/// so the library also works for other sensors (e.g. 128x128 DVS,
/// 346x260 DAVIS346).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SensorGeometry {
    width: u16,
    height: u16,
}

impl SensorGeometry {
    /// Creates a geometry with the given number of columns (`width`, the
    /// paper's `A`) and rows (`height`, the paper's `B`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "sensor dimensions must be non-zero");
        Self { width, height }
    }

    /// The DAVIS240 used in the paper: 240 x 180.
    #[must_use]
    pub fn davis240() -> Self {
        Self::new(240, 180)
    }

    /// The DAVIS346: 346 x 260.
    #[must_use]
    pub fn davis346() -> Self {
        Self::new(346, 260)
    }

    /// The original 128 x 128 DVS.
    #[must_use]
    pub fn dvs128() -> Self {
        Self::new(128, 128)
    }

    /// Number of columns (`A`).
    #[must_use]
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Number of rows (`B`).
    #[must_use]
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Total pixel count `A * B`.
    #[must_use]
    pub const fn num_pixels(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Whether `(x, y)` lies on the array.
    #[must_use]
    pub const fn contains(&self, x: u16, y: u16) -> bool {
        x < self.width && y < self.height
    }

    /// Whether the event's pixel lies on the array.
    #[must_use]
    pub const fn contains_event(&self, e: &Event) -> bool {
        self.contains(e.x, e.y)
    }

    /// Row-major linear index of `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the pixel is out of bounds.
    #[must_use]
    pub fn index_of(&self, x: u16, y: u16) -> usize {
        debug_assert!(self.contains(x, y), "pixel ({x}, {y}) out of bounds");
        y as usize * self.width as usize + x as usize
    }

    /// Iterator over all `(x, y)` pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let w = self.width;
        (0..self.height).flat_map(move |y| (0..w).map(move |x| (x, y)))
    }
}

impl Default for SensorGeometry {
    fn default() -> Self {
        Self::davis240()
    }
}

impl core::fmt::Display for SensorGeometry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn davis240_dimensions_match_paper() {
        let g = SensorGeometry::davis240();
        assert_eq!(g.width(), 240);
        assert_eq!(g.height(), 180);
        assert_eq!(g.num_pixels(), 43_200);
    }

    #[test]
    fn contains_is_exclusive_of_dimensions() {
        let g = SensorGeometry::new(10, 5);
        assert!(g.contains(9, 4));
        assert!(!g.contains(10, 0));
        assert!(!g.contains(0, 5));
    }

    #[test]
    fn index_is_row_major() {
        let g = SensorGeometry::new(10, 5);
        assert_eq!(g.index_of(0, 0), 0);
        assert_eq!(g.index_of(9, 0), 9);
        assert_eq!(g.index_of(0, 1), 10);
        assert_eq!(g.index_of(3, 2), 23);
    }

    #[test]
    fn pixels_iterator_covers_every_pixel_once() {
        let g = SensorGeometry::new(4, 3);
        let all: Vec<_> = g.pixels().collect();
        assert_eq!(all.len(), 12);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "no duplicates");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = SensorGeometry::new(0, 10);
    }

    #[test]
    fn display_formats_as_width_x_height() {
        assert_eq!(SensorGeometry::davis240().to_string(), "240x180");
    }

    #[test]
    fn contains_event_delegates_to_contains() {
        let g = SensorGeometry::new(10, 10);
        assert!(g.contains_event(&Event::on(9, 9, 0)));
        assert!(!g.contains_event(&Event::on(10, 9, 0)));
    }
}
