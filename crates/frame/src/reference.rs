//! Scalar per-pixel reference implementations of the hot frame kernels.
//!
//! The production kernels ([`crate::MedianFilter`], [`CountImage::downsample`],
//! [`Histogram::project`], [`BinaryImage::count_in_box`] and friends) run
//! word-parallel or slice-wise over the row-aligned layout and skip empty
//! rows or words. This module keeps the straightforward one-pixel-at-a-time
//! transcriptions those kernels replaced, so the
//! kernel-parity proptests can prove the optimized paths bit-exact (and
//! op-count-exact) against code with no layout tricks to share bugs
//! with, and so the `exp_hotpath` harness can measure the speedup.
//!
//! Everything here is *semantics documentation*, not a fast path: each
//! function states in loops exactly what its word-parallel counterpart
//! computes, including the zero-padding convention at borders and the
//! partial-edge-cell coverage of the extended Eq. 3.

use ebbiot_events::OpsCounter;

use crate::{Axis, BinaryImage, CountImage, Histogram, PixelBox};

/// Scalar `p x p` binary median with zero padding — the reference for
/// [`crate::MedianFilter::apply_into`]. Charges the same Eq. 1 op counts: one
/// addition per active patch pixel, one comparison per pixel, one write
/// per set output pixel.
///
/// # Panics
///
/// Panics when `patch` is zero or even, or when `out` has a different
/// geometry.
pub fn median_into(input: &BinaryImage, patch: u16, out: &mut BinaryImage, ops: &mut OpsCounter) {
    assert!(patch >= 1, "median patch size must be at least 1");
    assert!(patch % 2 == 1, "median patch size must be odd");
    assert_eq!(input.geometry(), out.geometry(), "geometry mismatch in median_into");
    out.clear();
    let half = i32::from(patch / 2);
    let majority = u32::from(patch) * u32::from(patch) / 2;
    for y in 0..input.height() {
        for x in 0..input.width() {
            let mut count = 0u32;
            for dy in -half..=half {
                for dx in -half..=half {
                    if input.get_padded(i32::from(x) + dx, i32::from(y) + dy) {
                        count += 1;
                    }
                }
            }
            ops.add(u64::from(count));
            ops.compare(1);
            if count > majority {
                out.set(x, y, true);
                ops.write(1);
            }
        }
    }
}

/// Allocating convenience wrapper around [`median_into`].
#[must_use]
pub fn median(input: &BinaryImage, patch: u16, ops: &mut OpsCounter) -> BinaryImage {
    let mut out = BinaryImage::new(input.geometry());
    median_into(input, patch, &mut out, ops);
    out
}

/// Scalar block-sum downsampling with partial edge cells — the reference
/// for [`CountImage::downsample`]. Charges one addition per input pixel
/// and one write per cell, like the production kernel.
///
/// # Panics
///
/// Panics when either factor is zero or exceeds the image dimension.
#[must_use]
pub fn downsample(input: &BinaryImage, s1: u16, s2: u16, ops: &mut OpsCounter) -> CountImage {
    assert!(s1 > 0 && s2 > 0, "scale factors must be non-zero");
    assert!(s1 <= input.width() && s2 <= input.height(), "scale factors larger than the image");
    let width = input.width().div_ceil(s1);
    let height = input.height().div_ceil(s2);
    let mut data = vec![0u32; width as usize * height as usize];
    for j in 0..height {
        let y0 = j * s2;
        let y1 = (u32::from(y0) + u32::from(s2)).min(u32::from(input.height())) as u16;
        for i in 0..width {
            let x0 = i * s1;
            let x1 = (u32::from(x0) + u32::from(s1)).min(u32::from(input.width())) as u16;
            let mut sum = 0u32;
            for y in y0..y1 {
                for x in x0..x1 {
                    if input.get(x, y) {
                        sum += 1;
                    }
                }
            }
            ops.add(u64::from(x1 - x0) * u64::from(y1 - y0));
            ops.write(1);
            data[j as usize * width as usize + i as usize] = sum;
        }
    }
    CountImage::from_raw(width, height, data, s1, s2)
}

/// Scalar cell-by-cell axis projection — the reference for
/// [`Histogram::project`]. Charges one addition per cell visited and one
/// write per bin, like the production kernel.
#[must_use]
pub fn project(image: &CountImage, axis: Axis, ops: &mut OpsCounter) -> Histogram {
    let (outer, inner) = match axis {
        Axis::X => (image.width(), image.height()),
        Axis::Y => (image.height(), image.width()),
    };
    let mut bins = vec![0u32; outer as usize];
    for o in 0..outer {
        let mut sum = 0u32;
        for i in 0..inner {
            sum += match axis {
                Axis::X => image.get(o, i),
                Axis::Y => image.get(i, o),
            };
            ops.add(1);
        }
        bins[o as usize] = sum;
        ops.write(1);
    }
    Histogram::from_bins(bins)
}

/// Scalar box count — the reference for [`BinaryImage::count_in_box`]
/// (exclusive max corner, clipped to the array).
#[must_use]
pub fn count_in_box(image: &BinaryImage, b: &PixelBox) -> usize {
    let x_end = b.x_max.min(image.width());
    let y_end = b.y_max.min(image.height());
    let mut count = 0;
    for y in b.y_min..y_end {
        for x in b.x_min..x_end {
            if image.get(x, y) {
                count += 1;
            }
        }
    }
    count
}

/// Scalar box-emptiness test — the reference for
/// [`BinaryImage::any_in_box`].
#[must_use]
pub fn any_in_box(image: &BinaryImage, b: &PixelBox) -> bool {
    let x_end = b.x_max.min(image.width());
    let y_end = b.y_max.min(image.height());
    for y in b.y_min..y_end {
        for x in b.x_min..x_end {
            if image.get(x, y) {
                return true;
            }
        }
    }
    false
}

/// Scalar rectangle fill — the reference for [`BinaryImage::fill_box`].
pub fn fill_box(image: &mut BinaryImage, b: &PixelBox) {
    let x_end = b.x_max.min(image.width());
    let y_end = b.y_max.min(image.height());
    for y in b.y_min..y_end {
        for x in b.x_min..x_end {
            image.set(x, y, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MedianFilter;
    use ebbiot_events::SensorGeometry;

    fn speckled(w: u16, h: u16) -> BinaryImage {
        let mut img = BinaryImage::new(SensorGeometry::new(w, h));
        // Deterministic speckle covering word boundaries and both edges.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if state >> 61 == 0 {
                    img.set(x, y, true);
                }
            }
        }
        img.fill_box(&PixelBox::new(w / 3, h / 3, w / 2 + 1, h / 2 + 1));
        img
    }

    #[test]
    fn median_reference_matches_word_parallel_including_ops() {
        for (w, h) in [(17, 5), (64, 9), (130, 11), (1, 1), (70, 3)] {
            let img = speckled(w, h);
            for p in [1u16, 3, 5] {
                let mut ref_ops = OpsCounter::new();
                let reference = median(&img, p, &mut ref_ops);
                let mut f = MedianFilter::new(p);
                let fast = f.apply(&img);
                assert_eq!(fast, reference, "median p={p} on {w}x{h}");
                assert_eq!(*f.ops(), ref_ops, "median ops p={p} on {w}x{h}");
            }
        }
    }

    #[test]
    fn downsample_reference_matches_word_parallel_including_ops() {
        for (w, h, s1, s2) in [(17, 5, 3, 2), (240, 18, 6, 3), (130, 11, 7, 4), (13, 7, 6, 3)] {
            let img = speckled(w, h);
            let mut ref_ops = OpsCounter::new();
            let reference = downsample(&img, s1, s2, &mut ref_ops);
            let mut ops = OpsCounter::new();
            let fast = CountImage::downsample(&img, s1, s2, &mut ops);
            assert_eq!(fast, reference, "downsample {s1}x{s2} on {w}x{h}");
            assert_eq!(ops, ref_ops, "downsample ops {s1}x{s2} on {w}x{h}");
        }
    }

    #[test]
    fn box_ops_match_word_parallel() {
        let img = speckled(130, 20);
        for b in [
            PixelBox::new(0, 0, 130, 20),
            PixelBox::new(60, 3, 70, 9),
            PixelBox::new(63, 0, 65, 20),
            PixelBox::new(100, 10, 200, 40),
            PixelBox::new(5, 5, 5, 9),
        ] {
            assert_eq!(img.count_in_box(&b), count_in_box(&img, &b), "{b:?}");
            assert_eq!(img.any_in_box(&b), any_in_box(&img, &b), "{b:?}");
            let mut a = BinaryImage::new(img.geometry());
            let mut c = BinaryImage::new(img.geometry());
            a.fill_box(&b);
            fill_box(&mut c, &b);
            assert_eq!(a, c, "{b:?}");
        }
    }
}
