//! Block-sum downsampling (Eq. 3 of the paper, extended to cover edges).
//!
//! The RPN does not operate on the full-resolution EBBI: it first produces
//! a scaled image `I_{s1,s2}(i, j) = sum of the (s1 x s2) block` of binary
//! pixels. Eq. 3 as written stops at `floor(A / s1) x floor(B / s2)`
//! cells, which on non-divisible geometries silently drops a right/bottom
//! strip of up to `s - 1` pixels — on a DAVIS346 (346 x 260, `s1 = 6`)
//! the RPN would be blind to a 4-pixel-wide strip and objects entering
//! from the right edge would be proposed late or never. We therefore
//! produce `ceil(A / s1) x ceil(B / s2)` cells, with trailing *partial*
//! cells summing only the pixels that exist. For the paper's 240 x 180
//! with `s1 = 6`, `s2 = 3` the division is exact and the result is
//! bit-identical to Eq. 3.
//!
//! The kernel visits set pixels only: it walks the set bits of each row
//! word of the row-aligned [`BinaryImage`] and adds 1 to the cell holding
//! each, so an all-zero word costs one test and the work follows the
//! scene's activity, not the frame size. Op accounting keeps the paper's
//! logical Eq. 5 charge — one addition per input pixel and one write per
//! cell — regardless of the physical instruction count.

use ebbiot_events::OpsCounter;

use crate::BinaryImage;

/// A small dense image of per-block event counts.
///
/// The default value is an empty `0 x 0` image, the starting state of a
/// buffer handed to [`CountImage::downsample_into`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountImage {
    width: u16,
    height: u16,
    /// Per-cell block sums, row-major.
    data: Vec<u32>,
    /// X scale factor `s1` the image was built with.
    pub s1: u16,
    /// Y scale factor `s2` the image was built with.
    pub s2: u16,
}

impl CountImage {
    /// Downsamples a binary image by factors `s1` (x) and `s2` (y).
    ///
    /// Each output cell holds the number of set pixels in its block;
    /// trailing cells that hang over the right/bottom edge sum only the
    /// pixels that exist (partial blocks). The `ops` counter is charged
    /// one addition per *input* pixel (the `A * B` term dominating
    /// `C_RPN` in Eq. 5) and one write per cell.
    ///
    /// # Panics
    ///
    /// Panics when either factor is zero or exceeds the image dimension.
    #[must_use]
    pub fn downsample(input: &BinaryImage, s1: u16, s2: u16, ops: &mut OpsCounter) -> Self {
        let mut out = Self::default();
        Self::downsample_into(input, s1, s2, &mut out, ops);
        out
    }

    /// Downsamples into a caller-owned count image — the allocation-free
    /// variant of [`Self::downsample`] used by the region proposer, which
    /// reuses one buffer across frames. `out` is reshaped to the result's
    /// dimensions and overwritten; its previous contents do not matter.
    ///
    /// Only set pixels are visited (a stationary sensor's frames are
    /// mostly empty), so the physical cost follows the number of set
    /// pixels, while the op charge stays the logical Eq. 5 count of one
    /// addition per input pixel.
    ///
    /// # Panics
    ///
    /// Panics when either factor is zero or exceeds the image dimension.
    pub fn downsample_into(
        input: &BinaryImage,
        s1: u16,
        s2: u16,
        out: &mut Self,
        ops: &mut OpsCounter,
    ) {
        assert!(s1 > 0 && s2 > 0, "scale factors must be non-zero");
        assert!(s1 <= input.width() && s2 <= input.height(), "scale factors larger than the image");
        let width = input.width().div_ceil(s1);
        let height = input.height().div_ceil(s2);
        *out = Self { width, height, data: core::mem::take(&mut out.data), s1, s2 };
        let data = &mut out.data;
        data.clear();
        data.resize(width as usize * height as usize, 0);
        let s1 = u32::from(s1);
        for y in 0..input.height() {
            let base = (y / s2) as usize * width as usize;
            let cells = &mut data[base..base + width as usize];
            for (w, &word) in input.row_words(y).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let x = w as u32 * 64 + bits.trailing_zeros();
                    cells[(x / s1) as usize] += 1;
                    bits &= bits - 1;
                }
            }
        }
        // Logical Eq. 5 accounting: every input pixel belongs to exactly
        // one block, so the block sums cost one addition per input pixel;
        // one memory write per cell.
        ops.add(input.geometry().num_pixels() as u64);
        ops.write(u64::from(width) * u64::from(height));
    }

    /// Cell values of row `j`, `width()` cells long.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of bounds.
    #[must_use]
    pub(crate) fn row(&self, j: u16) -> &[u32] {
        assert!(j < self.height, "cell row {j} out of bounds");
        let start = j as usize * self.width as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Builds a count image from raw parts — the in-crate constructor
    /// used by the scalar reference kernel and tests.
    pub(crate) fn from_raw(width: u16, height: u16, data: Vec<u32>, s1: u16, s2: u16) -> Self {
        assert_eq!(data.len(), width as usize * height as usize, "cell data shape mismatch");
        Self { width, height, data, s1, s2 }
    }

    /// Downsampled width `ceil(A / s1)` (the last cell may be partial).
    #[must_use]
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Downsampled height `ceil(B / s2)` (the last cell may be partial).
    #[must_use]
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Reads cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, i: u16, j: u16) -> u32 {
        assert!(i < self.width && j < self.height, "cell ({i}, {j}) out of bounds");
        self.data[j as usize * self.width as usize + i as usize]
    }

    /// Sum of all cells (equals the number of set pixels in the source
    /// image — partial edge cells mean no pixel is ever dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.data.iter().map(|&v| u64::from(v)).sum()
    }

    /// Whether any cell in the half-open cell rectangle is non-zero.
    /// Used by the RPN validity check for intersection regions.
    #[must_use]
    pub fn any_nonzero_in(&self, i_min: u16, i_max: u16, j_min: u16, j_max: u16) -> bool {
        let i_end = i_max.min(self.width);
        let j_end = j_max.min(self.height);
        for j in j_min..j_end {
            for i in i_min..i_end {
                if self.get(i, j) > 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Memory footprint in bits using the paper's Eq. 5 accounting:
    /// `ceil(log2(s1 * s2))` bits per cell (enough to store a block sum).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        let n = u32::from(self.s1) * u32::from(self.s2);
        // ceil(log2(n)) for n >= 2 is the bit length of n - 1; clamp to >= 1.
        let bits_per_cell = if n <= 1 { 1 } else { (32 - (n - 1).leading_zeros()) as usize };
        self.width as usize * self.height as usize * bits_per_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PixelBox;
    use ebbiot_events::SensorGeometry;

    fn image(w: u16, h: u16) -> BinaryImage {
        BinaryImage::new(SensorGeometry::new(w, h))
    }

    #[test]
    fn dimensions_follow_ceil_division() {
        let img = image(240, 180);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.width(), 40);
        assert_eq!(ds.height(), 60);
        // DAVIS346: 346 / 6 and 260 / 3 do not divide; the remainder gets
        // partial edge cells instead of a blind strip.
        let img = image(346, 260);
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.width(), 58);
        assert_eq!(ds.height(), 87);
    }

    #[test]
    fn trailing_partial_blocks_are_covered() {
        let mut img = image(10, 10);
        // One pixel in the 1-wide rightmost partial column and one in the
        // 2-tall bottom partial row: formerly invisible to the RPN.
        img.set(9, 0, true);
        img.set(0, 9, true);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 3, 4, &mut ops);
        assert_eq!(ds.width(), 4, "ceil(10 / 3)");
        assert_eq!(ds.height(), 3, "ceil(10 / 4)");
        assert_eq!(ds.get(3, 0), 1, "right-edge partial cell sees the pixel");
        assert_eq!(ds.get(0, 2), 1, "bottom-edge partial cell sees the pixel");
        assert_eq!(ds.total(), 2, "no pixel is dropped");
    }

    #[test]
    fn block_sums_count_set_pixels() {
        let mut img = image(12, 6);
        img.fill_box(&PixelBox::new(0, 0, 6, 3)); // fills cell (0,0) fully
        img.set(6, 0, true); // one pixel of cell (1, 0)
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.get(0, 0), 18);
        assert_eq!(ds.get(1, 0), 1);
        assert_eq!(ds.get(0, 1), 0);
        assert_eq!(ds.total(), 19);
    }

    #[test]
    fn total_matches_count_ones_always() {
        let mut img = image(24, 12);
        img.set(0, 0, true);
        img.set(23, 11, true);
        img.set(13, 7, true);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.total(), 3);
        // Non-divisible geometry conserves mass too (the Eq. 3 fix).
        let mut img = image(13, 7);
        img.fill_box(&PixelBox::new(0, 0, 13, 7));
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ds.total(), 13 * 7);
    }

    #[test]
    fn ops_charged_per_input_pixel() {
        let img = image(24, 12);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert_eq!(ops.additions, 24 * 12, "A*B additions");
        assert_eq!(ops.mem_writes, u64::from(ds.width()) * u64::from(ds.height()));
    }

    #[test]
    fn any_nonzero_in_detects_and_clips() {
        let mut img = image(12, 6);
        img.set(7, 1, true); // cell (1, 0)
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        assert!(ds.any_nonzero_in(1, 2, 0, 1));
        assert!(!ds.any_nonzero_in(0, 1, 0, 2));
        assert!(ds.any_nonzero_in(0, 100, 0, 100), "clips to image");
    }

    #[test]
    fn payload_bits_matches_eq5_for_paper_parameters() {
        let img = image(240, 180);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 6, 3, &mut ops);
        // ceil(log2(18)) = 5 bits per cell, 40*60 cells = 12_000 bits.
        assert_eq!(ds.payload_bits(), 40 * 60 * 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_factor_panics() {
        let img = image(8, 8);
        let mut ops = OpsCounter::new();
        let _ = CountImage::downsample(&img, 0, 1, &mut ops);
    }

    #[test]
    fn unit_factors_copy_the_image() {
        let mut img = image(5, 4);
        img.set(2, 2, true);
        let mut ops = OpsCounter::new();
        let ds = CountImage::downsample(&img, 1, 1, &mut ops);
        assert_eq!(ds.width(), 5);
        assert_eq!(ds.height(), 4);
        assert_eq!(ds.get(2, 2), 1);
        assert_eq!(ds.get(0, 0), 0);
        assert_eq!(ds.total(), 1);
    }
}
