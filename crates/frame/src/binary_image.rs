//! Bit-packed binary images with a row-aligned word layout.
//!
//! The EBBI is a one-bit-per-pixel frame ("one possible event per pixel,
//! ignoring polarity"). Pixels are packed 64 per `u64` word with **each
//! row starting on a word boundary**: a row occupies
//! `ceil(width / 64)` words and the bits of the last word at or past
//! `width` (the *tail bits*) are an always-zero invariant. The alignment
//! costs at most 63 bits of padding per row but lets every hot kernel
//! (median, downsampling, box counting, CCA scans) process 64 pixels per
//! instruction without any cross-row carry logic — the word-parallel
//! frame processing the paper's Eqs. 1 and 5 price out as "cheap".
//!
//! The paper's *accounting* is unchanged by the physical layout:
//! [`BinaryImage::payload_bits`] still reports `A x B` bits (5.4 kB per
//! DAVIS240 frame, 10.8 kB for the original + filtered pair of Eq. 1);
//! padding words are an implementation detail, not payload. See
//! ARCHITECTURE.md ("Frame memory layout") for the full invariant list.

use ebbiot_events::SensorGeometry;

use crate::PixelBox;

/// A binary image bit-packed into `u64` words, row-major, with each row
/// aligned to a word boundary (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryImage {
    geometry: SensorGeometry,
    /// Words per row: `ceil(width / 64)`.
    words_per_row: usize,
    /// `height * words_per_row` words; tail bits are always zero.
    words: Vec<u64>,
}

impl BinaryImage {
    /// Creates an all-zero image for the given geometry.
    #[must_use]
    pub fn new(geometry: SensorGeometry) -> Self {
        let words_per_row = (geometry.width() as usize).div_ceil(64);
        let words = vec![0; words_per_row * geometry.height() as usize];
        Self { geometry, words_per_row, words }
    }

    /// The image geometry.
    #[must_use]
    pub const fn geometry(&self) -> SensorGeometry {
        self.geometry
    }

    /// Image width in pixels.
    #[must_use]
    pub const fn width(&self) -> u16 {
        self.geometry.width()
    }

    /// Image height in pixels.
    #[must_use]
    pub const fn height(&self) -> u16 {
        self.geometry.height()
    }

    /// Number of `u64` words backing each row: `ceil(width / 64)`.
    #[must_use]
    pub const fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The words of row `y`. Bit `x % 64` of word `x / 64` is pixel
    /// `(x, y)`; bits at or past `width` in the last word are zero.
    ///
    /// # Panics
    ///
    /// Panics when `y` is out of bounds.
    #[must_use]
    pub fn row_words(&self, y: u16) -> &[u64] {
        let start = y as usize * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Mutable access to the words of row `y` for in-crate kernels.
    /// Writers must uphold the tail-bit invariant.
    pub(crate) fn row_words_mut(&mut self, y: u16) -> &mut [u64] {
        let start = y as usize * self.words_per_row;
        &mut self.words[start..start + self.words_per_row]
    }

    /// Mask of the valid bits in the *last* word of every row: ones below
    /// `width % 64`, or all ones when the width is a word multiple.
    pub(crate) const fn tail_mask(&self) -> u64 {
        Self::below_mask(self.geometry.width())
    }

    /// Whether the row-tail invariant holds: every bit at or past `width`
    /// in the last word of each row is zero. Word-parallel kernels rely
    /// on this (popcounts would otherwise over-count); every mutating
    /// operation preserves it, and the kernel-parity proptests assert it.
    #[must_use]
    pub fn tail_bits_zero(&self) -> bool {
        let spill = !self.tail_mask();
        (0..self.height()).all(|y| self.row_words(y)[self.words_per_row - 1] & spill == 0)
    }

    #[inline]
    fn bit_position(&self, x: u16, y: u16) -> (usize, u32) {
        // A real (not debug) assert: with the row-aligned layout an
        // out-of-bounds x could land on a tail bit of a valid word and
        // silently break the tail-bit invariant every word-parallel
        // kernel relies on. These accessors are off the hot paths (the
        // kernels read whole row slices), so the check is cheap.
        assert!(self.geometry.contains(x, y), "pixel ({x}, {y}) out of bounds");
        (y as usize * self.words_per_row + (x as usize >> 6), u32::from(x) & 63)
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    #[inline]
    pub fn get(&self, x: u16, y: u16) -> bool {
        let (word, bit) = self.bit_position(x, y);
        (self.words[word] >> bit) & 1 == 1
    }

    /// Reads pixel `(x, y)`, returning `false` outside the array (the
    /// zero-padding convention used by the median filter at borders).
    #[must_use]
    #[inline]
    pub fn get_padded(&self, x: i32, y: i32) -> bool {
        if x < 0 || y < 0 {
            return false;
        }
        let (x, y) = (x as u16, y as u16);
        if !self.geometry.contains(x, y) {
            return false;
        }
        self.get(x, y)
    }

    /// Sets pixel `(x, y)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u16, y: u16, value: bool) {
        let (word, bit) = self.bit_position(x, y);
        let mask = 1u64 << bit;
        if value {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
    }

    /// Sets pixel `(x, y)` to one, returning whether it was previously zero
    /// (i.e. whether this write latched a new pixel — the sensor-as-memory
    /// semantics of the EBBI readout).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn latch(&mut self, x: u16, y: u16) -> bool {
        let (word, bit) = self.bit_position(x, y);
        let mask = 1u64 << bit;
        let word = &mut self.words[word];
        let was_zero = *word & mask == 0;
        *word |= mask;
        was_zero
    }

    /// Every word of the image, row after row.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds an image from its [`Self::words`]; `None` when the count
    /// does not fit `geometry` or a tail bit is set.
    #[must_use]
    pub fn from_words(geometry: SensorGeometry, words: Vec<u64>) -> Option<Self> {
        let words_per_row = (geometry.width() as usize).div_ceil(64);
        let image = Self { geometry, words_per_row, words };
        (image.words.len() == words_per_row * geometry.height() as usize && image.tail_bits_zero())
            .then_some(image)
    }

    /// Clears all pixels.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Copies `source` into `self` without reallocating. With the
    /// row-aligned layout this is a straight word copy.
    ///
    /// # Panics
    ///
    /// Panics when the geometries differ.
    pub fn copy_from(&mut self, source: &BinaryImage) {
        assert_eq!(self.geometry, source.geometry, "geometry mismatch in copy_from");
        self.words.copy_from_slice(&source.words);
    }

    /// Number of set pixels (a popcount over the words; exact because tail
    /// bits are zero).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set pixels (the paper's `alpha` when measured over a
    /// whole frame).
    #[must_use]
    pub fn density(&self) -> f64 {
        self.count_ones() as f64 / self.geometry.num_pixels() as f64
    }

    /// Iterator over the x coordinates of all set pixels in row `y`, in
    /// ascending order (word-parallel scan: all-zero words are skipped
    /// with one test each).
    ///
    /// # Panics
    ///
    /// Panics when `y` is out of bounds.
    pub fn set_pixels_in_row(&self, y: u16) -> impl Iterator<Item = u16> + '_ {
        self.row_words(y).iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            core::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some((wi * 64) as u16 + bit as u16)
            })
        })
    }

    /// Iterator over the `(x, y)` coordinates of all set pixels in
    /// row-major order.
    pub fn set_pixels(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        (0..self.height()).flat_map(move |y| self.set_pixels_in_row(y).map(move |x| (x, y)))
    }

    /// Set-pixel count of row `y` restricted to columns `[x0, x1)`, via
    /// masked word popcounts. `x1` must not exceed the width.
    pub(crate) fn count_in_row_span(&self, y: u16, x0: u16, x1: u16) -> u32 {
        debug_assert!(x1 <= self.width());
        if x0 >= x1 {
            return 0;
        }
        let row = self.row_words(y);
        let w0 = x0 as usize >> 6;
        let w1 = (x1 as usize - 1) >> 6;
        let first = !0u64 << (u32::from(x0) & 63);
        let last = Self::below_mask(x1);
        if w0 == w1 {
            (row[w0] & first & last).count_ones()
        } else {
            let mut n = (row[w0] & first).count_ones() + (row[w1] & last).count_ones();
            for &w in &row[w0 + 1..w1] {
                n += w.count_ones();
            }
            n
        }
    }

    /// Mask of the bits strictly below column `x` within `x`'s word
    /// (all ones when `x` is a word multiple, i.e. "the whole word below").
    const fn below_mask(x: u16) -> u64 {
        let rem = x % 64;
        if rem == 0 {
            !0
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Whether any set pixel lies inside the pixel box (masked word tests
    /// with early exit).
    #[must_use]
    pub fn any_in_box(&self, b: &PixelBox) -> bool {
        let x_end = b.x_max.min(self.width());
        let y_end = b.y_max.min(self.height());
        if b.x_min >= x_end || b.y_min >= y_end {
            return false;
        }
        for y in b.y_min..y_end {
            if self.count_in_row_span(y, b.x_min, x_end) > 0 {
                return true;
            }
        }
        false
    }

    /// Paints a filled rectangle of ones (used by tests and the simulator)
    /// by OR-ing span masks row by row.
    pub fn fill_box(&mut self, b: &PixelBox) {
        let x_end = b.x_max.min(self.width());
        let y_end = b.y_max.min(self.height());
        if b.x_min >= x_end || b.y_min >= y_end {
            return;
        }
        let w0 = b.x_min as usize >> 6;
        let w1 = (x_end as usize - 1) >> 6;
        let first = !0u64 << (u32::from(b.x_min) & 63);
        let last = Self::below_mask(x_end);
        for y in b.y_min..y_end {
            let row = self.row_words_mut(y);
            if w0 == w1 {
                row[w0] |= first & last;
            } else {
                row[w0] |= first;
                row[w1] |= last;
                for w in &mut row[w0 + 1..w1] {
                    *w = !0;
                }
            }
        }
    }

    /// Memory footprint of the pixel payload in bits (`A * B`, matching the
    /// paper's accounting of one bit per pixel; row-alignment padding is an
    /// implementation detail and is not counted).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        self.geometry.num_pixels()
    }

    /// Renders the image as ASCII art (`#` = 1, `.` = 0), downscaled by
    /// `step` on both axes by OR-ing blocks. Used by the Fig. 3 example.
    #[must_use]
    pub fn to_ascii(&self, step: u16) -> String {
        assert!(step > 0);
        let mut out = String::new();
        let mut y = 0;
        while y < self.height() {
            let mut x = 0;
            while x < self.width() {
                let b = PixelBox::new(
                    x,
                    y,
                    (x + step).min(self.width()),
                    (y + step).min(self.height()),
                );
                out.push(if self.any_in_box(&b) { '#' } else { '.' });
                x += step;
            }
            out.push('\n');
            y += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BinaryImage {
        BinaryImage::new(SensorGeometry::new(10, 8))
    }

    #[test]
    fn new_image_is_all_zero() {
        let img = small();
        assert_eq!(img.count_ones(), 0);
        assert_eq!(img.density(), 0.0);
        assert!(!img.get(0, 0));
    }

    #[test]
    fn from_words_round_trips_and_rejects_bad_words() {
        let geometry = SensorGeometry::new(70, 3);
        let mut img = BinaryImage::new(geometry);
        img.set(69, 2, true);
        img.set(0, 1, true);
        let words = img.words().to_vec();
        assert_eq!(BinaryImage::from_words(geometry, words.clone()), Some(img));
        assert_eq!(BinaryImage::from_words(geometry, words[1..].to_vec()), None, "word count");
        let mut tail = words;
        tail[1] |= 1 << 6; // pixel 70 of row 0: past the width
        assert_eq!(BinaryImage::from_words(geometry, tail), None, "tail bit");
    }

    #[test]
    fn rows_are_word_aligned() {
        let img = BinaryImage::new(SensorGeometry::new(130, 3));
        assert_eq!(img.words_per_row(), 3, "130 columns need 3 words");
        assert_eq!(img.row_words(0).len(), 3);
        let narrow = BinaryImage::new(SensorGeometry::new(64, 2));
        assert_eq!(narrow.words_per_row(), 1);
    }

    #[test]
    fn row_words_expose_the_packed_bits() {
        let mut img = BinaryImage::new(SensorGeometry::new(70, 2));
        img.set(0, 1, true);
        img.set(65, 1, true);
        assert_eq!(img.row_words(0), &[0, 0]);
        assert_eq!(img.row_words(1), &[1, 1 << 1]);
    }

    #[test]
    fn set_get_round_trip_for_every_pixel() {
        let mut img = small();
        for (x, y) in img.geometry().pixels().collect::<Vec<_>>() {
            img.set(x, y, true);
            assert!(img.get(x, y));
            img.set(x, y, false);
            assert!(!img.get(x, y));
        }
    }

    #[test]
    fn latch_reports_first_write_only() {
        let mut img = small();
        assert!(img.latch(3, 4), "first latch sets the pixel");
        assert!(!img.latch(3, 4), "second latch is a no-op");
        assert!(img.get(3, 4));
        assert_eq!(img.count_ones(), 1);
    }

    #[test]
    fn get_padded_returns_false_outside() {
        let mut img = small();
        img.set(0, 0, true);
        assert!(img.get_padded(0, 0));
        assert!(!img.get_padded(-1, 0));
        assert!(!img.get_padded(0, -1));
        assert!(!img.get_padded(10, 0));
        assert!(!img.get_padded(0, 8));
    }

    #[test]
    fn count_ones_tracks_sets() {
        let mut img = small();
        img.set(1, 1, true);
        img.set(2, 2, true);
        img.set(2, 2, true); // idempotent
        assert_eq!(img.count_ones(), 2);
        assert!((img.density() - 2.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut img = small();
        img.fill_box(&PixelBox::new(0, 0, 10, 8));
        assert_eq!(img.count_ones(), 80);
        img.clear();
        assert_eq!(img.count_ones(), 0);
    }

    #[test]
    fn set_pixels_iterates_exactly_the_set_ones() {
        let mut img = small();
        let pts = [(0u16, 0u16), (9, 0), (0, 7), (9, 7), (5, 3)];
        for &(x, y) in &pts {
            img.set(x, y, true);
        }
        let mut found: Vec<_> = img.set_pixels().collect();
        found.sort_unstable();
        let mut expected = pts.to_vec();
        expected.sort_unstable();
        assert_eq!(found, expected);
    }

    #[test]
    fn set_pixels_in_row_scans_across_word_boundaries() {
        let mut img = BinaryImage::new(SensorGeometry::new(150, 2));
        for &x in &[0u16, 63, 64, 127, 128, 149] {
            img.set(x, 1, true);
        }
        let xs: Vec<u16> = img.set_pixels_in_row(1).collect();
        assert_eq!(xs, vec![0, 63, 64, 127, 128, 149]);
        assert_eq!(img.set_pixels_in_row(0).count(), 0);
    }

    #[test]
    fn box_counting_and_any() {
        let mut img = small();
        img.fill_box(&PixelBox::new(2, 2, 5, 5));
        assert!(img.any_in_box(&PixelBox::new(4, 4, 10, 8)));
        assert!(!img.any_in_box(&PixelBox::new(6, 6, 10, 8)));
    }

    #[test]
    fn box_ops_handle_word_straddling_spans() {
        let mut img = BinaryImage::new(SensorGeometry::new(200, 4));
        img.fill_box(&PixelBox::new(60, 1, 140, 3));
        assert_eq!(img.count_ones(), 80 * 2);
        assert!(img.any_in_box(&PixelBox::new(128, 2, 200, 4)));
        assert!(!img.any_in_box(&PixelBox::new(140, 1, 200, 3)));
        assert!(img.tail_bits_zero());
    }

    #[test]
    fn boxes_clip_to_image_bounds() {
        let mut img = small();
        img.set(9, 7, true);
        // Box extending past the array must not panic and must find the pixel.
        assert!(img.any_in_box(&PixelBox::new(8, 6, 50, 50)));
    }

    #[test]
    fn degenerate_boxes_are_empty() {
        let mut img = small();
        img.fill_box(&PixelBox::new(0, 0, 10, 8));
        assert!(!img.any_in_box(&PixelBox::new(3, 2, 3, 2)));
        // Degenerate fill is a no-op.
        let mut img2 = small();
        img2.fill_box(&PixelBox::new(4, 4, 4, 8));
        assert_eq!(img2.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_set_panics_in_all_build_modes() {
        // An OOB x could otherwise land on a tail bit of a valid word and
        // silently corrupt the invariant; the assert is unconditional.
        let mut img = BinaryImage::new(SensorGeometry::new(100, 4));
        img.set(110, 1, true);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics_in_all_build_modes() {
        let img = BinaryImage::new(SensorGeometry::new(100, 4));
        let _ = img.get(0, 4);
    }

    #[test]
    fn payload_bits_matches_pixel_count() {
        assert_eq!(small().payload_bits(), 80);
        assert_eq!(BinaryImage::new(SensorGeometry::davis240()).payload_bits(), 43_200);
    }

    #[test]
    fn tail_invariant_holds_after_mutations() {
        let mut img = BinaryImage::new(SensorGeometry::new(67, 3));
        assert!(img.tail_bits_zero());
        img.fill_box(&PixelBox::new(0, 0, 67, 3));
        assert!(img.tail_bits_zero());
        assert_eq!(img.count_ones(), 67 * 3);
        img.set(66, 2, false);
        img.latch(66, 1);
        assert!(img.tail_bits_zero());
        let mut copy = BinaryImage::new(SensorGeometry::new(67, 3));
        copy.copy_from(&img);
        assert!(copy.tail_bits_zero());
        img.clear();
        assert!(img.tail_bits_zero());
    }

    #[test]
    fn ascii_rendering_shape() {
        let mut img = small();
        img.set(0, 0, true);
        let art = img.to_ascii(1);
        let lines: Vec<_> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[0].len(), 10);
        assert!(lines[0].starts_with('#'));
        assert!(lines[1].starts_with('.'));
    }

    #[test]
    fn ascii_downscale_ors_blocks() {
        let mut img = small();
        img.set(1, 1, true);
        let art = img.to_ascii(2);
        let lines: Vec<_> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), 5);
        assert!(lines[0].starts_with('#'), "block (0,0)-(1,1) contains the pixel");
    }

    #[test]
    fn geometry_not_multiple_of_64_works() {
        // 13 columns leave 51 tail bits per row word; exercise the
        // tail-masking logic.
        let mut img = BinaryImage::new(SensorGeometry::new(13, 5));
        for (x, y) in img.geometry().pixels().collect::<Vec<_>>() {
            img.set(x, y, true);
        }
        assert_eq!(img.count_ones(), 65);
        assert_eq!(img.set_pixels().count(), 65);
        assert!(img.tail_bits_zero());
    }
}
