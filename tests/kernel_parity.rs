//! Kernel parity: every word-parallel frame kernel must be bit-exact
//! (and op-count-exact) against its scalar reference transcription in
//! [`ebbiot::frame::reference`], over geometries chosen to stress the
//! row-aligned layout — widths that are not word multiples (17, 346, 1),
//! single-pixel frames, all-zeros/all-ones frames, and boxes straddling
//! word boundaries — and over tall sensor-sized frames where only a few
//! row bands are set, which is what the kernels' sparsity shortcuts see on
//! a stationary camera. Every mutating operation must also preserve the
//! tail-bit invariant (`BinaryImage::tail_bits_zero`).

use ebbiot::events::{OpsCounter, SensorGeometry};
use ebbiot::frame::{reference, Axis, BinaryImage, CountImage, Histogram, MedianFilter, PixelBox};
use proptest::prelude::*;

/// Geometries that stress the layout: non-word-multiple widths, exact
/// word widths, the paper sensors, and degenerate 1-pixel frames.
const GEOMS: [(u16, u16); 7] = [(17, 5), (64, 4), (65, 3), (1, 1), (1, 9), (130, 7), (346, 13)];

/// Full sensor geometries for the banded frames: the paper's DAVIS240,
/// whose 180 rows divide by `s2 = 3`, and the DAVIS346, whose 260 rows
/// leave a partial last band.
const BANDED_GEOMS: [(u16, u16); 2] = [(240, 180), (346, 260)];

/// A generated frame: geometry index, pixel seeds (mapped into bounds by
/// modulo), and a fill mode (0 = sparse, 1 = all ones, 2 = all zeros).
fn arb_frame() -> impl Strategy<Value = (BinaryImage, SensorGeometry)> {
    (0..GEOMS.len(), proptest::collection::vec((0u16..1024, 0u16..1024), 0..250), 0u8..6).prop_map(
        |(gi, seeds, mode)| {
            let (w, h) = GEOMS[gi];
            let geom = SensorGeometry::new(w, h);
            let mut img = BinaryImage::new(geom);
            match mode {
                1 => img.fill_box(&PixelBox::new(0, 0, w, h)),
                2 => {}
                _ => {
                    for (sx, sy) in seeds {
                        img.set(sx % w, sy % h, true);
                    }
                }
            }
            (img, geom)
        },
    )
}

/// A sensor-sized frame where only a few row bands are set: 1 to 4
/// bands, each 1 to 8 rows tall, anchored at the top row, flush with
/// the very last row (so it lands in the last, possibly partial,
/// downsampling band), or at a random row. Each row of a band sets every
/// `step`-th pixel of a shared column span, with `step` drawn per row
/// from 1 (solid), 2 or 3 (isolated pixels, no horizontal pair), so
/// neighbouring rows mix solid runs with speckle. Every other row is
/// empty.
fn arb_banded_frame() -> impl Strategy<Value = (BinaryImage, SensorGeometry)> {
    let band = (0u8..3, 0u16..1024, 1u16..9, (0u16..1024, 1u16..90), 0u16..u16::MAX);
    (0..BANDED_GEOMS.len(), proptest::collection::vec(band, 1..5)).prop_map(|(gi, bands)| {
        let (w, h) = BANDED_GEOMS[gi];
        let geom = SensorGeometry::new(w, h);
        let mut img = BinaryImage::new(geom);
        for (anchor, ys, rows, (xs, cols), steps) in bands {
            let y0 = match anchor {
                0 => 0,
                1 => h - rows,
                _ => ys % h,
            };
            let x0 = xs % w;
            for (r, y) in (y0..(y0 + rows).min(h)).enumerate() {
                let step = [1, 3, 3, 2][usize::from(steps >> (2 * (r % 8)) & 3)];
                for x in (x0..(x0 + cols).min(w)).step_by(step) {
                    img.set(x, y, true);
                }
            }
        }
        (img, geom)
    })
}

/// Checks the median at `patch` against the reference, op counts and
/// the tail invariant included.
fn check_median(img: &BinaryImage, geom: SensorGeometry, patch: u16) {
    let mut ref_ops = OpsCounter::new();
    let expected = reference::median(img, patch, &mut ref_ops);
    let mut filter = MedianFilter::new(patch);
    let mut out = BinaryImage::new(geom);
    filter.apply_into(img, &mut out);
    assert_eq!(out, expected, "median p={patch} on {geom}");
    assert_eq!(*filter.ops(), ref_ops, "median op accounting p={patch} on {geom}");
    assert!(out.tail_bits_zero(), "tail invariant after median");
}

/// Checks the downsample and both projections of its result against
/// the references, op counts included.
fn check_downsample_and_projections(img: &BinaryImage, geom: SensorGeometry, s1: u16, s2: u16) {
    let s1 = s1.min(geom.width());
    let s2 = s2.min(geom.height());
    let mut ref_ops = OpsCounter::new();
    let expected = reference::downsample(img, s1, s2, &mut ref_ops);
    let mut ops = OpsCounter::new();
    let got = CountImage::downsample(img, s1, s2, &mut ops);
    assert_eq!(got, expected, "downsample {s1}x{s2} on {geom}");
    assert_eq!(ops, ref_ops, "downsample op accounting {s1}x{s2} on {geom}");
    // Partial edge cells mean mass is conserved unconditionally.
    assert_eq!(got.total(), img.count_ones() as u64);
    for axis in [Axis::X, Axis::Y] {
        let (mut ops, mut ref_ops) = (OpsCounter::new(), OpsCounter::new());
        let hist = Histogram::project(&got, axis, &mut ops);
        assert_eq!(hist, reference::project(&expected, axis, &mut ref_ops), "{axis:?} bins");
        assert_eq!(ops, ref_ops, "{axis:?} projection op accounting on {geom}");
        assert_eq!(hist.total(), got.total(), "{axis:?} projection conserves mass");
    }
}

fn arb_pixel_box() -> impl Strategy<Value = PixelBox> {
    (0u16..400, 0u16..40, 0u16..400, 0u16..40)
        .prop_map(|(x0, y0, x1, y1)| PixelBox::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

proptest! {
    #[test]
    fn median_matches_reference_for_all_patch_sizes((img, geom) in arb_frame(), p_idx in 0usize..3) {
        check_median(&img, geom, [1u16, 3, 5][p_idx]);
    }

    #[test]
    fn median_matches_reference_on_banded_frames(
        (img, geom) in arb_banded_frame(),
        p_idx in 0usize..3,
    ) {
        check_median(&img, geom, [1u16, 3, 5][p_idx]);
    }

    #[test]
    fn downsample_matches_reference((img, geom) in arb_frame(), s1 in 1u16..9, s2 in 1u16..9) {
        check_downsample_and_projections(&img, geom, s1, s2);
    }

    #[test]
    fn downsample_matches_reference_on_banded_frames(
        (img, geom) in arb_banded_frame(),
        s1 in 1u16..9,
        s2 in 1u16..9,
    ) {
        check_downsample_and_projections(&img, geom, s1, s2);
    }

    #[test]
    fn wide_block_downsample_matches_reference_on_banded_frames(
        (img, geom) in arb_banded_frame(),
        s1 in 65u16..200,
        s2 in 1u16..9,
    ) {
        check_downsample_and_projections(&img, geom, s1, s2);
    }

    #[test]
    fn box_queries_match_reference((img, _geom) in arb_frame(), b in arb_pixel_box()) {
        prop_assert_eq!(img.count_in_box(&b), reference::count_in_box(&img, &b));
        prop_assert_eq!(img.any_in_box(&b), reference::any_in_box(&img, &b));
    }

    #[test]
    fn fill_box_matches_reference_and_keeps_tail_invariant(
        (img, geom) in arb_frame(),
        b in arb_pixel_box(),
    ) {
        let mut fast = img.clone();
        fast.fill_box(&b);
        let mut scalar = img;
        reference::fill_box(&mut scalar, &b);
        prop_assert_eq!(&fast, &scalar, "fill_box {:?} on {}", b, geom);
        prop_assert!(fast.tail_bits_zero(), "tail invariant after fill_box");
    }

    #[test]
    fn every_mutating_op_preserves_the_tail_invariant(
        (mut img, geom) in arb_frame(),
        pokes in proptest::collection::vec((0u16..1024, 0u16..1024, 0u8..3), 0..40),
        b in arb_pixel_box(),
    ) {
        prop_assert!(img.tail_bits_zero(), "fresh/filled frame");
        for (sx, sy, op) in pokes {
            let (x, y) = (sx % geom.width(), sy % geom.height());
            match op {
                0 => img.set(x, y, true),
                1 => img.set(x, y, false),
                _ => {
                    let _ = img.latch(x, y);
                }
            }
            prop_assert!(img.tail_bits_zero(), "after point op {} at ({}, {})", op, x, y);
        }
        img.fill_box(&b);
        prop_assert!(img.tail_bits_zero(), "after fill_box");
        let mut copy = BinaryImage::new(geom);
        copy.copy_from(&img);
        prop_assert!(copy.tail_bits_zero(), "after copy_from");
        // count_ones must agree with a per-pixel scan (popcount honesty).
        let mut scalar = 0usize;
        for y in 0..geom.height() {
            for x in 0..geom.width() {
                if img.get(x, y) {
                    scalar += 1;
                }
            }
        }
        prop_assert_eq!(img.count_ones(), scalar);
        img.clear();
        prop_assert!(img.tail_bits_zero(), "after clear");
        prop_assert_eq!(img.count_ones(), 0);
    }
}
