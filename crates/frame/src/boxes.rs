//! Axis-aligned bounding boxes and the IoU/overlap geometry used by the
//! region proposer, the trackers and the evaluator.
//!
//! The paper describes tracker state as "bottom left corner co-ordinates
//! (x, y), width (w) and height (h)". We store the *minimum* corner, which
//! is the same thing under the image-coordinate convention used throughout
//! (y grows downward is irrelevant — only min/max arithmetic is used).

/// An axis-aligned box: minimum corner plus extent, in pixel units.
///
/// Extents may be fractional because trackers integrate sub-pixel
/// velocities (the paper's objects move at "sub-pixel to 5-6 pixels/frame").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum x (left edge).
    pub x: f32,
    /// Minimum y (top edge in image coordinates).
    pub y: f32,
    /// Width; always `>= 0`.
    pub w: f32,
    /// Height; always `>= 0`.
    pub h: f32,
}

impl BoundingBox {
    /// Creates a box from the minimum corner and extents.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative or any field is non-finite.
    #[must_use]
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        assert!(
            x.is_finite() && y.is_finite() && w.is_finite() && h.is_finite(),
            "box fields must be finite"
        );
        assert!(w >= 0.0 && h >= 0.0, "box extents must be non-negative");
        Self { x, y, w, h }
    }

    /// Creates a box from inclusive minimum and exclusive maximum corners.
    ///
    /// Inverted corners (`max < min` on an axis) clamp to a zero extent
    /// at the minimum corner rather than producing a negative width or
    /// height, so downstream `area`/`iou`/`overlap_fraction` algebra can
    /// never go negative. Callers that consider inverted corners a bug
    /// should check before calling; callers computing intersections or
    /// clips get a well-defined empty box.
    ///
    /// # Panics
    ///
    /// Panics if any corner is non-finite.
    #[must_use]
    pub fn from_corners(x_min: f32, y_min: f32, x_max: f32, y_max: f32) -> Self {
        Self::new(x_min, y_min, (x_max - x_min).max(0.0), (y_max - y_min).max(0.0))
    }

    /// Maximum x (right edge).
    #[must_use]
    pub fn x_max(&self) -> f32 {
        self.x + self.w
    }

    /// Maximum y (bottom edge).
    #[must_use]
    pub fn y_max(&self) -> f32 {
        self.y + self.h
    }

    /// Area `w * h`.
    #[must_use]
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Center point.
    #[must_use]
    pub fn center(&self) -> (f32, f32) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Returns `true` when the box has zero area.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.w == 0.0 || self.h == 0.0
    }

    /// Whether the point lies inside (min inclusive, max exclusive).
    #[must_use]
    pub fn contains_point(&self, px: f32, py: f32) -> bool {
        px >= self.x && px < self.x_max() && py >= self.y && py < self.y_max()
    }

    /// Intersection box, or `None` when disjoint (touching edges count as
    /// disjoint: zero-area intersections are not returned).
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let x_min = self.x.max(other.x);
        let y_min = self.y.max(other.y);
        let x_max = self.x_max().min(other.x_max());
        let y_max = self.y_max().min(other.y_max());
        if x_min < x_max && y_min < y_max {
            Some(Self::from_corners(x_min, y_min, x_max, y_max))
        } else {
            None
        }
    }

    /// Area of the intersection (0.0 when disjoint).
    #[must_use]
    pub fn intersection_area(&self, other: &Self) -> f32 {
        self.intersection(other).map_or(0.0, |b| b.area())
    }

    /// Area of the union (inclusion–exclusion).
    #[must_use]
    pub fn union_area(&self, other: &Self) -> f32 {
        self.area() + other.area() - self.intersection_area(other)
    }

    /// Intersection over union — Eq. 9 of the paper. Zero when the union
    /// is degenerate.
    #[must_use]
    pub fn iou(&self, other: &Self) -> f32 {
        let union = self.union_area(other);
        if union <= 0.0 {
            0.0
        } else {
            self.intersection_area(other) / union
        }
    }

    /// The smallest box covering both (used when merging fragmented
    /// proposals into one tracker box).
    #[must_use]
    pub fn enclosing(&self, other: &Self) -> Self {
        Self::from_corners(
            self.x.min(other.x),
            self.y.min(other.y),
            self.x_max().max(other.x_max()),
            self.y_max().max(other.y_max()),
        )
    }

    /// Overlap fraction relative to *this* box's area:
    /// `area(self ∩ other) / area(self)`. This is the paper's OT matching
    /// criterion ("overlapping area ... larger than a certain fraction of
    /// area of T_pred or P_j"). Returns 0.0 for an empty self.
    #[must_use]
    pub fn overlap_fraction(&self, other: &Self) -> f32 {
        let a = self.area();
        if a <= 0.0 {
            0.0
        } else {
            self.intersection_area(other) / a
        }
    }

    /// Box translated by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: f32, dy: f32) -> Self {
        Self { x: self.x + dx, y: self.y + dy, ..*self }
    }

    /// Clips the box to `[0, width) x [0, height)`. Returns an empty box at
    /// the nearest corner when fully outside. The explicit `max` guards
    /// (plus the clamping in [`Self::from_corners`]) keep the result's
    /// extents non-negative even when floating-point rounding inverts the
    /// clamped corners.
    #[must_use]
    pub fn clipped_to(&self, width: f32, height: f32) -> Self {
        let x_min = self.x.clamp(0.0, width);
        let y_min = self.y.clamp(0.0, height);
        let x_max = self.x_max().clamp(0.0, width);
        let y_max = self.y_max().clamp(0.0, height);
        Self::from_corners(x_min, y_min, x_max.max(x_min), y_max.max(y_min))
    }
}

impl core::fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:.1},{:.1} {:.1}x{:.1}]", self.x, self.y, self.w, self.h)
    }
}

/// An integer pixel-grid box (inclusive min corner, exclusive max), used by
/// CCA labelling and region proposals before conversion to float boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PixelBox {
    /// Minimum x (inclusive).
    pub x_min: u16,
    /// Minimum y (inclusive).
    pub y_min: u16,
    /// Maximum x (exclusive).
    pub x_max: u16,
    /// Maximum y (exclusive).
    pub y_max: u16,
}

impl PixelBox {
    /// Creates a pixel box.
    ///
    /// # Panics
    ///
    /// Panics when `max < min` on either axis.
    #[must_use]
    pub fn new(x_min: u16, y_min: u16, x_max: u16, y_max: u16) -> Self {
        assert!(x_max >= x_min && y_max >= y_min, "pixel box corners inverted");
        Self { x_min, y_min, x_max, y_max }
    }

    /// A 1x1 box at a single pixel.
    #[must_use]
    pub fn single(x: u16, y: u16) -> Self {
        Self::new(x, y, x + 1, y + 1)
    }

    /// Width in pixels.
    #[must_use]
    pub const fn width(&self) -> u16 {
        self.x_max - self.x_min
    }

    /// Height in pixels.
    #[must_use]
    pub const fn height(&self) -> u16 {
        self.y_max - self.y_min
    }

    /// Area in pixels.
    #[must_use]
    pub const fn area(&self) -> u32 {
        self.width() as u32 * self.height() as u32
    }

    /// Grows the box to include the pixel `(x, y)`.
    pub fn include(&mut self, x: u16, y: u16) {
        self.x_min = self.x_min.min(x);
        self.y_min = self.y_min.min(y);
        self.x_max = self.x_max.max(x + 1);
        self.y_max = self.y_max.max(y + 1);
    }

    /// Converts to a float [`BoundingBox`].
    #[must_use]
    pub fn to_bounding_box(&self) -> BoundingBox {
        BoundingBox::new(
            f32::from(self.x_min),
            f32::from(self.y_min),
            f32::from(self.width()),
            f32::from(self.height()),
        )
    }

    /// Whether the pixel lies inside.
    #[must_use]
    pub const fn contains(&self, x: u16, y: u16) -> bool {
        x >= self.x_min && x < self.x_max && y >= self.y_min && y < self.y_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f32, y: f32, w: f32, h: f32) -> BoundingBox {
        BoundingBox::new(x, y, w, h)
    }

    #[test]
    fn area_center_and_edges() {
        let b = bb(2.0, 3.0, 4.0, 6.0);
        assert_eq!(b.area(), 24.0);
        assert_eq!(b.center(), (4.0, 6.0));
        assert_eq!(b.x_max(), 6.0);
        assert_eq!(b.y_max(), 9.0);
        assert!(!b.is_empty());
        assert!(bb(0.0, 0.0, 0.0, 5.0).is_empty());
    }

    #[test]
    fn identical_boxes_have_iou_one() {
        let b = bb(1.0, 1.0, 5.0, 5.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        let a = bb(0.0, 0.0, 2.0, 2.0);
        let b = bb(10.0, 10.0, 2.0, 2.0);
        assert_eq!(a.iou(&b), 0.0);
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn touching_boxes_are_disjoint() {
        let a = bb(0.0, 0.0, 2.0, 2.0);
        let b = bb(2.0, 0.0, 2.0, 2.0);
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn half_overlap_iou() {
        let a = bb(0.0, 0.0, 2.0, 2.0);
        let b = bb(1.0, 0.0, 2.0, 2.0);
        // intersection 2, union 6.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = bb(0.0, 0.0, 3.0, 4.0);
        let b = bb(1.0, 1.0, 4.0, 2.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-7);
    }

    #[test]
    fn contained_box_overlap_fraction_is_one() {
        let outer = bb(0.0, 0.0, 10.0, 10.0);
        let inner = bb(2.0, 2.0, 3.0, 3.0);
        assert!((inner.overlap_fraction(&outer) - 1.0).abs() < 1e-6);
        assert!((outer.overlap_fraction(&inner) - 0.09).abs() < 1e-6);
    }

    #[test]
    fn enclosing_covers_both() {
        let a = bb(0.0, 0.0, 2.0, 2.0);
        let b = bb(5.0, 7.0, 1.0, 1.0);
        let e = a.enclosing(&b);
        assert_eq!(e.x, 0.0);
        assert_eq!(e.y, 0.0);
        assert_eq!(e.x_max(), 6.0);
        assert_eq!(e.y_max(), 8.0);
    }

    #[test]
    fn translation_moves_without_resizing() {
        let b = bb(1.0, 2.0, 3.0, 4.0).translated(2.0, -1.0);
        assert_eq!(b, bb(3.0, 1.0, 3.0, 4.0));
    }

    #[test]
    fn clipping_limits_to_frame() {
        let b = bb(-5.0, 170.0, 20.0, 30.0).clipped_to(240.0, 180.0);
        assert_eq!(b, bb(0.0, 170.0, 15.0, 10.0));
        let outside = bb(300.0, 300.0, 10.0, 10.0).clipped_to(240.0, 180.0);
        assert!(outside.is_empty());
    }

    #[test]
    fn contains_point_is_half_open() {
        let b = bb(0.0, 0.0, 2.0, 2.0);
        assert!(b.contains_point(0.0, 0.0));
        assert!(b.contains_point(1.9, 1.9));
        assert!(!b.contains_point(2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_extent_panics() {
        let _ = bb(0.0, 0.0, -1.0, 1.0);
    }

    #[test]
    fn inverted_corners_clamp_to_empty() {
        let b = BoundingBox::from_corners(5.0, 7.0, 2.0, 3.0);
        assert_eq!((b.x, b.y, b.w, b.h), (5.0, 7.0, 0.0, 0.0));
        assert!(b.is_empty());
        assert_eq!(b.area(), 0.0);
        // Degenerate boxes participate safely in the overlap algebra.
        let other = bb(0.0, 0.0, 10.0, 10.0);
        assert_eq!(b.iou(&other), 0.0);
        assert_eq!(other.iou(&b), 0.0);
        assert_eq!(b.overlap_fraction(&other), 0.0);
        assert!(b.intersection(&other).is_none());
    }

    #[test]
    fn pixel_box_include_grows_bounds() {
        let mut p = PixelBox::single(5, 5);
        p.include(3, 8);
        p.include(7, 2);
        assert_eq!(p, PixelBox::new(3, 2, 8, 9));
        assert_eq!(p.width(), 5);
        assert_eq!(p.height(), 7);
        assert_eq!(p.area(), 35);
    }

    #[test]
    fn pixel_box_to_bounding_box() {
        let p = PixelBox::new(2, 3, 6, 5);
        let b = p.to_bounding_box();
        assert_eq!(b, bb(2.0, 3.0, 4.0, 2.0));
    }

    #[test]
    fn pixel_box_contains() {
        let p = PixelBox::new(1, 1, 3, 3);
        assert!(p.contains(1, 1));
        assert!(p.contains(2, 2));
        assert!(!p.contains(3, 1));
    }
}
