//! Property-based tests for frame-domain invariants.

use ebbiot_events::{Event, OpsCounter, SensorGeometry};
use ebbiot_frame::{
    cca::{connected_components, Connectivity},
    ebbi::ebbi_from_events,
    histogram::{Axis, Histogram},
    BinaryImage, BoundingBox, CountImage, MedianFilter, PixelBox,
};
use proptest::prelude::*;

const W: u16 = 48;
const H: u16 = 36;

fn arb_pixels() -> impl Strategy<Value = Vec<(u16, u16)>> {
    proptest::collection::vec((0..W, 0..H), 0..200)
}

fn image_of(pixels: &[(u16, u16)]) -> BinaryImage {
    let mut img = BinaryImage::new(SensorGeometry::new(W, H));
    for &(x, y) in pixels {
        img.set(x, y, true);
    }
    img
}

fn arb_box() -> impl Strategy<Value = BoundingBox> {
    (0.0f32..200.0, 0.0f32..150.0, 0.1f32..80.0, 0.1f32..60.0)
        .prop_map(|(x, y, w, h)| BoundingBox::new(x, y, w, h))
}

/// Boxes built from corners in *arbitrary order* — roughly one in four
/// draws is degenerate (inverted corners clamp to zero extent) and axis
/// collapses (`x0 == x1`) occur, exercising the empty-box algebra.
fn arb_any_box() -> impl Strategy<Value = BoundingBox> {
    (-50.0f32..250.0, -40.0f32..190.0, -50.0f32..250.0, -40.0f32..190.0, 0u8..4).prop_map(
        |(x0, y0, x1, y1, collapse)| {
            let x1 = if collapse == 1 { x0 } else { x1 };
            let y1 = if collapse == 2 { y0 } else { y1 };
            BoundingBox::from_corners(x0, y0, x1, y1)
        },
    )
}

/// Pixel boxes whose corners may lie well outside the `W x H` sensor, so
/// the clipped code paths of `any_in_box` are exercised
/// (including boxes entirely off the array and degenerate boxes).
fn arb_pixel_box() -> impl Strategy<Value = PixelBox> {
    (0..W + 20, 0..H + 20, 0..W + 20, 0..H + 20)
        .prop_map(|(x0, y0, x1, y1)| PixelBox::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

proptest! {
    #[test]
    fn ebbi_pixel_count_never_exceeds_event_count(
        events in proptest::collection::vec((0..W, 0..H, 0u64..1_000_000), 0..300)
    ) {
        let mut evs: Vec<Event> = events.iter().map(|&(x, y, t)| Event::on(x, y, t)).collect();
        evs.sort_unstable();
        let img = ebbi_from_events(SensorGeometry::new(W, H), &evs);
        prop_assert!(img.count_ones() <= evs.len());
        // Every event pixel is set, and nothing else.
        for e in &evs {
            prop_assert!(img.get(e.x, e.y));
        }
        let distinct: std::collections::HashSet<_> = evs.iter().map(|e| (e.x, e.y)).collect();
        prop_assert_eq!(img.count_ones(), distinct.len());
    }

    #[test]
    fn median_filter_output_is_subset_of_dilation_and_never_adds_isolated(pixels in arb_pixels()) {
        let img = image_of(&pixels);
        let mut f = MedianFilter::paper_default();
        let out = f.apply(&img);
        // Median can both remove (salt) and add (fill pepper holes), but an
        // output pixel requires >= 5 set pixels in its 3x3 input patch, so
        // it is always within a dilation of the input.
        for (x, y) in out.set_pixels() {
            let (x, y) = (i32::from(x), i32::from(y));
            let support = (-1..=1)
                .flat_map(|dy| (-1..=1).map(move |dx| (x + dx, y + dy)))
                .filter(|&(nx, ny)| img.get_padded(nx, ny))
                .count();
            prop_assert!(support >= 5, "({x}, {y}) has {support} set pixels in its patch");
        }
    }

    #[test]
    fn median_filter_is_monotone(pixels in arb_pixels(), extra in arb_pixels()) {
        // a ⊆ b ⇒ median(a) ⊆ median(b): binary median is a monotone
        // threshold function.
        let a = image_of(&pixels);
        let all: Vec<_> = pixels.iter().chain(extra.iter()).copied().collect();
        let b = image_of(&all);
        let fa = MedianFilter::paper_default().apply(&a);
        let fb = MedianFilter::paper_default().apply(&b);
        for (x, y) in fa.set_pixels() {
            prop_assert!(fb.get(x, y));
        }
    }

    #[test]
    fn downsample_conserves_mass_for_any_factors(
        pixels in arb_pixels(),
        s1 in 1u16..12,
        s2 in 1u16..12,
    ) {
        // Partial edge cells (the extended Eq. 3) mean no pixel is ever
        // dropped, whether or not the factors divide the geometry.
        let img = image_of(&pixels);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, s1, s2, &mut ops);
        prop_assert_eq!(ds.width(), W.div_ceil(s1));
        prop_assert_eq!(ds.height(), H.div_ceil(s2));
        prop_assert_eq!(ds.total(), img.count_ones() as u64);
    }

    #[test]
    fn histogram_totals_equal_downsample_total(pixels in arb_pixels()) {
        let img = image_of(&pixels);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        let hx = Histogram::project(&ds, Axis::X, &mut ops);
        let hy = Histogram::project(&ds, Axis::Y, &mut ops);
        prop_assert_eq!(hx.total(), ds.total());
        prop_assert_eq!(hy.total(), ds.total());
    }

    #[test]
    fn runs_are_disjoint_ordered_and_cover_all_hot_bins(
        bins in proptest::collection::vec(0u32..5, 0..60),
        threshold in 1u32..4,
    ) {
        let h = Histogram::from_bins(bins.clone());
        let mut ops = OpsCounter::new();
        let runs = h.runs_at_least(threshold, &mut ops);
        // Ordered and disjoint with gaps.
        for w in runs.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        // Membership matches the threshold exactly.
        for (i, &v) in bins.iter().enumerate() {
            let in_run = runs.iter().any(|r| i >= r.start && i < r.end);
            prop_assert_eq!(in_run, v >= threshold, "bin {} value {}", i, v);
        }
    }

    #[test]
    fn box_counting_matches_naive_per_pixel_loop(
        pixels in arb_pixels(),
        b in arb_pixel_box(),
    ) {
        let img = image_of(&pixels);
        // Reference: scan every sensor pixel and test box membership —
        // no clipping logic to share bugs with the implementation.
        let mut naive = 0usize;
        for y in 0..H {
            for x in 0..W {
                if x >= b.x_min && x < b.x_max && y >= b.y_min && y < b.y_max && img.get(x, y) {
                    naive += 1;
                }
            }
        }
        prop_assert_eq!(img.any_in_box(&b), naive > 0);
    }

    #[test]
    fn boxes_clipped_at_the_sensor_edge_count_only_inside_pixels(pixels in arb_pixels()) {
        let img = image_of(&pixels);
        // A box hanging over every edge clips to the full sensor.
        let over = PixelBox::new(0, 0, W + 20, H + 20);
        prop_assert_eq!(img.any_in_box(&over), img.count_ones() > 0);
        // A box entirely off the array is empty.
        let outside = PixelBox::new(W, H, W + 20, H + 20);
        prop_assert!(!img.any_in_box(&outside));
    }

    #[test]
    fn cca_components_partition_set_pixels(pixels in arb_pixels()) {
        let img = image_of(&pixels);
        let mut ops = OpsCounter::new();
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let comps = connected_components(&img, conn, &mut ops);
            let total: u32 = comps.iter().map(|c| c.pixel_count).sum();
            prop_assert_eq!(total as usize, img.count_ones());
            // Every component's bbox contains at least pixel_count pixels of
            // the image, counted pixel by pixel.
            for c in &comps {
                let b = c.bbox;
                let mut inside = 0usize;
                for y in b.y_min..b.y_max {
                    for x in b.x_min..b.x_max {
                        inside += usize::from(img.get(x, y));
                    }
                }
                prop_assert!(inside >= c.pixel_count as usize);
            }
        }
    }

    #[test]
    fn eight_connectivity_never_more_components_than_four(pixels in arb_pixels()) {
        let img = image_of(&pixels);
        let mut ops = OpsCounter::new();
        let four = connected_components(&img, Connectivity::Four, &mut ops).len();
        let eight = connected_components(&img, Connectivity::Eight, &mut ops).len();
        prop_assert!(eight <= four);
    }

    #[test]
    fn iou_is_bounded_symmetric_and_one_iff_equal(a in arb_box(), b in arb_box()) {
        let iou = a.iou(&b);
        // Tolerances account for f32 cancellation when tiny boxes sit at
        // large coordinates (x_max - x loses up to ~1e-3 relative).
        prop_assert!((0.0..=1.0 + 1e-3).contains(&iou));
        prop_assert!((iou - b.iou(&a)).abs() < 1e-3);
        prop_assert!((a.iou(&a) - 1.0).abs() < 5e-3);
    }

    #[test]
    fn iou_stays_in_unit_interval_even_for_degenerate_boxes(
        a in arb_any_box(),
        b in arb_any_box(),
    ) {
        // Inverted corners clamp to empty boxes; the overlap algebra must
        // stay total: iou in [0, 1], symmetric, never NaN.
        let iou = a.iou(&b);
        prop_assert!(iou.is_finite());
        prop_assert!((0.0..=1.0 + 1e-3).contains(&iou), "iou {} for {} vs {}", iou, a, b);
        prop_assert!((iou - b.iou(&a)).abs() < 1e-3);
        let of = a.overlap_fraction(&b);
        prop_assert!(of.is_finite() && (0.0..=1.0 + 1e-3).contains(&of));
        prop_assert!(a.area() >= 0.0 && b.area() >= 0.0);
    }

    #[test]
    fn intersection_is_contained_in_both_boxes(a in arb_any_box(), b in arb_any_box()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(i.x + 1e-4 >= a.x.max(b.x));
            prop_assert!(i.y + 1e-4 >= a.y.max(b.y));
            prop_assert!(i.x_max() <= a.x_max().min(b.x_max()) + 1e-4);
            prop_assert!(i.y_max() <= a.y_max().min(b.y_max()) + 1e-4);
            prop_assert!(i.area() <= a.area().min(b.area()) + 1e-2);
        } else {
            prop_assert_eq!(a.intersection_area(&b), 0.0);
        }
    }

    #[test]
    fn clipping_degenerate_boxes_never_goes_negative(a in arb_any_box()) {
        let c = a.clipped_to(240.0, 180.0);
        prop_assert!(c.w >= 0.0 && c.h >= 0.0);
        prop_assert!(c.x >= 0.0 && c.y >= 0.0);
        prop_assert!(c.x_max() <= 240.0 + 1e-4 && c.y_max() <= 180.0 + 1e-4);
        prop_assert!(c.area() >= 0.0);
    }

    #[test]
    fn intersection_area_bounded_by_each_area(a in arb_box(), b in arb_box()) {
        let inter = a.intersection_area(&b);
        prop_assert!(inter <= a.area() + 1e-3);
        prop_assert!(inter <= b.area() + 1e-3);
        prop_assert!(a.union_area(&b) + 1e-3 >= a.area().max(b.area()));
    }

    #[test]
    fn enclosing_contains_both(a in arb_box(), b in arb_box()) {
        let e = a.enclosing(&b);
        prop_assert!(e.x <= a.x && e.x <= b.x);
        prop_assert!(e.y <= a.y && e.y <= b.y);
        prop_assert!(e.x_max() + 1e-4 >= a.x_max() && e.x_max() + 1e-4 >= b.x_max());
        prop_assert!(e.y_max() + 1e-4 >= a.y_max() && e.y_max() + 1e-4 >= b.y_max());
    }

    #[test]
    fn clipping_is_contained_and_idempotent(a in arb_box()) {
        let c = a.clipped_to(240.0, 180.0);
        prop_assert!(c.x >= 0.0 && c.y >= 0.0);
        prop_assert!(c.x_max() <= 240.0 + 1e-4 && c.y_max() <= 180.0 + 1e-4);
        let cc = c.clipped_to(240.0, 180.0);
        prop_assert!((cc.x - c.x).abs() < 1e-6 && (cc.w - c.w).abs() < 1e-6);
    }

    #[test]
    fn pixel_box_include_is_commutative_in_result(
        pts in proptest::collection::vec((0..W, 0..H), 1..20)
    ) {
        let mut fwd = PixelBox::single(pts[0].0, pts[0].1);
        for &(x, y) in &pts[1..] {
            fwd.include(x, y);
        }
        let mut rev = PixelBox::single(pts[pts.len() - 1].0, pts[pts.len() - 1].1);
        for &(x, y) in pts[..pts.len() - 1].iter().rev() {
            rev.include(x, y);
        }
        prop_assert_eq!(fwd, rev);
        for &(x, y) in &pts {
            prop_assert!(fwd.contains(x, y));
        }
    }
}
