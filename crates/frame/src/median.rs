//! Binary median filtering — the EBBI noise-removal step.
//!
//! "For a binary frame, noise removal may be easily done by a median filter
//! (with patch size p x p) since spurious events result in salt and pepper
//! noise" (Section II-A). For a binary image the median of a `p x p` patch
//! is 1 exactly when more than `floor(p^2 / 2)` patch pixels are 1, so the
//! filter is a popcount followed by one comparison per pixel — the cost
//! model of Eq. 1.
//!
//! # Word-parallel implementation
//!
//! The paper's default `p = 3` runs 64 pixels at a time over the
//! row-aligned [`BinaryImage`] layout: for each row word the three
//! horizontal neighbour bits are summed with a carry-save adder
//! (`ones`/`twos` bit-planes), the three vertical 2-bit partial sums are
//! summed the same way into four bit-planes (`1/2/4/8`), and the
//! majority test `count > 4` becomes one boolean expression over those
//! planes.
//!
//! A pre-pass reads each input row once and yields its *pair flag*:
//! whether some pixel of the row has a horizontal count
//! (itself plus its left and right neighbours) of 2 or more, which holds
//! exactly when the row has two set pixels at distance 1 or 2, across
//! word boundaries too. A patch count is the sum of three horizontal
//! counts, so an output row whose three input rows are all unflagged
//! has patch counts of at most 3 and cannot reach the majority of 5:
//! only rows within 1 of a flagged row are computed, and only rows
//! within 2 of one get horizontal planes. The image's set-pixel count,
//! the popcounts of its first and last rows and its border-column bits
//! give the Eq. 1 additions in closed form (ARCHITECTURE.md §1.1 derives
//! it). A caller that already knows the set-pixel count (the EBBI latch
//! counts the pixels it sets) passes it to
//! [`MedianFilter::apply_counted_into`], and no per-word popcount runs.
//!
//! Both paths record the increasing list of output rows they wrote a set
//! pixel to ([`MedianFilter::written_rows`]): exactly the non-empty rows
//! of the output. The 3x3 path visits only the computed rows, so the list
//! costs one OR per output word. The region proposer projects only those
//! rows; any superset would give it the same histograms.
//!
//! # The AVX2 instance
//!
//! A row of at most 256 px (DAVIS240, DVS128) is at most four words,
//! one 256-bit register. On an x86-64 CPU with AVX2 and POPCNT the 3x3
//! filter runs such frames on the `avx2` submodule: the same pre-pass,
//! planes and majority, one row per instruction, with the cross-word
//! carries taken from a lane permute. The CPU alone selects it at run
//! time ([`MedianFilter::instance`] names the choice); every other host
//! and every wider sensor (DAVIS346) runs the word kernel above. Both
//! write the same image and `written_rows` and charge Eq. 1 identically,
//! and the word kernel, reachable directly through
//! [`MedianFilter::apply_word_counted_into`], is the AVX2 instance's
//! oracle in the unit tests below. The crate denies `unsafe_code` and
//! allows it on that submodule alone, for the call into its
//! `#[target_feature]` kernel after detection and for the loads and
//! stores of one row's words.
//!
//! Other odd patch sizes fall back to a sliding column-count scan
//! (per-column vertical sums updated incrementally, horizontal window
//! slid across each row). Both paths are bit-exact against
//! [`crate::reference::median_into`],
//! including the zero-padding at borders, and both charge the *logical*
//! per-pixel op counts of Eq. 1 — the physical layout never changes the
//! paper's accounting.

use ebbiot_events::{OpsCounter, SensorGeometry};

use crate::BinaryImage;

#[cfg(target_arch = "x86_64")]
mod avx2;

// Whether the AVX2 instance runs rows of `words_per_row` words here:
// never off x86-64.
#[cfg(target_arch = "x86_64")]
use avx2::usable as avx2_usable;
#[cfg(not(target_arch = "x86_64"))]
fn avx2_usable(_words_per_row: usize) -> bool {
    false
}

/// Binary median filter with odd patch size `p` (the paper uses `p = 3`).
#[derive(Debug, Clone)]
pub struct MedianFilter {
    patch: u16,
    ops: OpsCounter,
    scratch: Scratch,
}

/// Reused per-filter scratch buffers, lazily sized to the input geometry
/// so the streaming front-end's "no per-frame frame-sized allocations"
/// contract holds through the word-parallel kernel.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Horizontal (ones, twos) bit planes of the 3x3 kernel: input row
    /// `y` at words `(y + 1) * wpr..(y + 2) * wpr`, between an all-zero
    /// padding row above the image and one below it. Only the rows the
    /// current frame's output reads are rebuilt; the rest are stale.
    ones: Vec<u64>,
    twos: Vec<u64>,
    /// The input rows the 3x3 pre-pass flagged, in increasing order.
    paired_rows: Vec<u16>,
    /// The output rows the last frame wrote a set pixel to, in
    /// increasing order (see [`MedianFilter::written_rows`]).
    written_rows: Vec<u16>,
    /// Per-column vertical window counts of the generic fallback.
    col: Vec<u32>,
}

/// Writes the horizontal 3-neighbour sums of one input row as 2-bit
/// planes (`ones`, `twos`).
fn horizontal_planes(row: &[u64], ones: &mut [u64], twos: &mut [u64]) {
    let wpr = row.len();
    for i in 0..wpr {
        let c = row[i];
        let l = (c << 1) | if i > 0 { row[i - 1] >> 63 } else { 0 };
        let r = (c >> 1) | if i + 1 < wpr { row[i + 1] << 63 } else { 0 };
        ones[i] = l ^ c ^ r;
        twos[i] = (l & c) | (r & (l ^ c));
    }
}

/// The 3x3 pre-pass: one sweep over the input rows that lists the
/// flagged rows in `paired_rows` and returns the Eq. 1 addition charge,
/// given `set_pixels`, the number of set pixels of `input`.
///
/// Row `y` is flagged when some pixel has a horizontal count of 2 or
/// more, i.e. when two set pixels lie at distance 1 or 2: each word is
/// ANDed with itself shifted left by 1 and by 2, with the bits shifted
/// in from the word before, so pairs straddling a word boundary count.
fn pair_prepass3(input: &BinaryImage, set_pixels: u64, paired_rows: &mut Vec<u16>) -> u64 {
    let height = input.height();
    let last_bit = u32::from(input.width() - 1) & 63;
    paired_rows.clear();
    let mut edge_charge = 0u64;
    for y in 0..height {
        let row = input.row_words(y);
        let (mut before, mut pair) = (0u64, 0u64);
        for &c in row {
            pair |= c & (((c << 1) | (before >> 63)) | ((c << 2) | (before >> 62)));
            before = c;
        }
        if pair != 0 {
            paired_rows.push(y);
        }
        let edges = (row[0] & 1) + ((before >> last_bit) & 1);
        let ny = 3 - u64::from(y == 0) - u64::from(y == height - 1);
        edge_charge += ny * edges;
    }
    addition_charge(input, set_pixels, edge_charge)
}

/// The closed-form Eq. 1 addition charge of the 3x3 median, given the
/// image's `set_pixels` and `edge_charge = Σ ny(y) * edges(y)`, where
/// `edges(y)` counts the set pixels among row `y`'s two border columns.
///
/// Summing the patch counts of every output pixel counts each set input
/// pixel `(x, y)` once per patch that covers it: `nx(x) * ny(y)`
/// patches, where `nx` is 3 inside and 2 on the left/right border
/// column (1 for a one-pixel-wide image), and `ny` likewise for rows.
/// Row by row that is `ny(y) * (3 * pop(row y) - edges(y))`, which
/// holds for `w = 1` too (the single pixel is both border columns).
/// Summed over the rows, with `P` set pixels in all, it is
/// `3 * (3P - pop(row 0) - pop(row h - 1)) - edge_charge`, which holds
/// for `h = 1` too (`ny = 1`, and the one row is both border rows), so
/// only the two border rows are counted.
fn addition_charge(input: &BinaryImage, set_pixels: u64, edge_charge: u64) -> u64 {
    let pop = |y| input.row_words(y).iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    3 * (3 * set_pixels - pop(0) - pop(input.height() - 1)) - edge_charge
}

impl MedianFilter {
    /// Creates a filter with the given odd patch size.
    ///
    /// # Panics
    ///
    /// Panics when `patch` is zero ("must be at least 1") or even
    /// ("must be odd").
    #[must_use]
    pub fn new(patch: u16) -> Self {
        assert!(patch >= 1, "median patch size must be at least 1");
        assert!(patch % 2 == 1, "median patch size must be odd");
        Self { patch, ops: OpsCounter::new(), scratch: Scratch::default() }
    }

    /// The paper's default `p = 3` filter.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(3)
    }

    /// Patch size `p`.
    #[must_use]
    pub const fn patch(&self) -> u16 {
        self.patch
    }

    /// Majority threshold `floor(p^2 / 2)`: output is 1 when the patch
    /// count exceeds it.
    #[must_use]
    pub const fn majority(&self) -> u32 {
        (self.patch as u32 * self.patch as u32) / 2
    }

    /// Applies the filter, returning the filtered image. Borders use
    /// zero padding (outside pixels count as 0).
    ///
    /// Op accounting follows Eq. 1: for each output pixel, one increment
    /// per active patch pixel ("incrementing a counter every time a 1 is
    /// encountered") plus one comparison against the majority threshold,
    /// plus one memory write per set output pixel. The word-parallel
    /// kernel executes far fewer machine instructions but charges exactly
    /// these logical counts; for `p = 3` it sums the additions per input
    /// pixel rather than per patch, which gives the same total.
    #[must_use]
    pub fn apply(&mut self, input: &BinaryImage) -> BinaryImage {
        let mut out = BinaryImage::new(input.geometry());
        self.apply_into(input, &mut out);
        out
    }

    /// Applies the filter into a caller-owned output frame — the
    /// allocation-free variant of [`Self::apply`] used by the streaming
    /// front-end (`out` is a reused scratch buffer, cleared first).
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different geometry.
    pub fn apply_into(&mut self, input: &BinaryImage, out: &mut BinaryImage) {
        self.apply_counted_into(input, input.count_ones() as u64, out);
    }

    /// [`Self::apply_into`] for a caller that already knows `set_pixels`,
    /// the number of set pixels of `input`: the streaming front-end takes
    /// it from the EBBI latch, which counts every pixel it sets. The 3x3
    /// kernel's Eq. 1 addition charge then needs no per-word popcount.
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different geometry.
    pub fn apply_counted_into(
        &mut self,
        input: &BinaryImage,
        set_pixels: u64,
        out: &mut BinaryImage,
    ) {
        self.begin(input, set_pixels, out);
        if self.patch != 3 {
            self.apply_sliding(input, out);
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let Scratch { paired_rows, written_rows, .. } = &mut self.scratch;
            if let Some((additions, writes)) =
                avx2::median3(input, set_pixels, out, paired_rows, written_rows)
            {
                self.ops.add(additions);
                self.ops.write(writes);
                return;
            }
        }
        self.apply3_words(input, set_pixels, out);
    }

    /// [`Self::apply_counted_into`] on the portable word kernel, whatever
    /// the CPU supports: the instance that hosts without AVX2 and rows
    /// wider than 256 px run, and the oracle of the AVX2 instance. It
    /// writes the same image, rows and op counts; benchmarks time it
    /// beside the dispatched kernel.
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different geometry.
    pub fn apply_word_counted_into(
        &mut self,
        input: &BinaryImage,
        set_pixels: u64,
        out: &mut BinaryImage,
    ) {
        self.begin(input, set_pixels, out);
        if self.patch == 3 {
            self.apply3_words(input, set_pixels, out);
        } else {
            self.apply_sliding(input, out);
        }
    }

    /// The kernel instance [`Self::apply_counted_into`] runs on this host
    /// for frames of `geometry`: `"avx2"` for the 3x3 filter on rows of
    /// at most 256 px when the CPU has AVX2 and POPCNT, `"word"` for the
    /// 3x3 filter otherwise, and `"sliding"` for other patch sizes.
    #[must_use]
    pub fn instance(&self, geometry: SensorGeometry) -> &'static str {
        let words_per_row = usize::from(geometry.width()).div_ceil(64);
        match self.patch {
            3 if avx2_usable(words_per_row) => "avx2",
            3 => "word",
            _ => "sliding",
        }
    }

    /// The common start of every `apply`: checks the geometry, clears
    /// `out` and the row list, and charges one comparison per pixel.
    fn begin(&mut self, input: &BinaryImage, set_pixels: u64, out: &mut BinaryImage) {
        assert_eq!(input.geometry(), out.geometry(), "geometry mismatch in apply_into");
        debug_assert_eq!(set_pixels, input.count_ones() as u64, "wrong set-pixel count");
        out.clear();
        self.scratch.written_rows.clear();
        self.ops.compare(input.geometry().num_pixels() as u64);
    }

    /// Bit-sliced carry-save 3x3 kernel: 64 patch counts per word triple.
    ///
    /// [`pair_prepass3`] lists the rows with a horizontal count of 2 or
    /// more and charges the Eq. 1 additions. Only the output rows within
    /// 1 of a listed row are computed (every other output row stays
    /// zero), in increasing order, and each builds the planes of its
    /// three input rows unless an earlier output row of this frame has:
    /// so exactly the rows within 2 of a listed row get planes.
    fn apply3_words(&mut self, input: &BinaryImage, set_pixels: u64, out: &mut BinaryImage) {
        let wpr = input.words_per_row();
        let height = usize::from(input.height());
        let tail = input.tail_mask();

        let scr = &mut self.scratch;
        self.ops.add(pair_prepass3(input, set_pixels, &mut scr.paired_rows));
        let len = (height + 2) * wpr;
        for plane in [&mut scr.ones, &mut scr.twos] {
            plane.resize(len, 0);
            plane[..wpr].fill(0);
            plane[len - wpr..].fill(0);
        }

        let mut writes = 0u64;
        // Output rows below `next_out` are done; input rows below
        // `next_plane` have planes or are never read.
        let (mut next_out, mut next_plane) = (0usize, 0usize);
        for &paired in &scr.paired_rows {
            let paired = usize::from(paired);
            for y in paired.saturating_sub(1).max(next_out)..(paired + 2).min(height) {
                for r in y.saturating_sub(1).max(next_plane)..(y + 2).min(height) {
                    let planes = (r + 1) * wpr..(r + 2) * wpr;
                    horizontal_planes(
                        input.row_words(r as u16),
                        &mut scr.ones[planes.clone()],
                        &mut scr.twos[planes],
                    );
                }
                next_plane = y + 2;
                // Input rows y - 1, y, y + 1 sit at plane rows y, y + 1, y + 2.
                let (ones, twos) = (&scr.ones[y * wpr..], &scr.twos[y * wpr..]);
                let out_row = out.row_words_mut(y as u16);
                let mut row_bits = 0u64;
                for (i, slot) in out_row.iter_mut().enumerate() {
                    // Vertical sum of three 2-bit horizontal counts into
                    // bit-planes of weight 1/2/4/8 (patch count 0..=9).
                    let (oa, ta) = (ones[i], twos[i]);
                    let (om, tm) = (ones[wpr + i], twos[wpr + i]);
                    let (ob, tb) = (ones[2 * wpr + i], twos[2 * wpr + i]);
                    let bit0 = oa ^ om ^ ob;
                    let c0 = (oa & om) | (ob & (oa ^ om));
                    let s1 = ta ^ tm ^ tb;
                    let c1 = (ta & tm) | (tb & (ta ^ tm));
                    let bit1 = s1 ^ c0;
                    let c2 = s1 & c0;
                    let bit2 = c1 ^ c2;
                    let bit3 = c1 & c2;
                    let mask = if i == wpr - 1 { tail } else { !0 };
                    // count > 4 <=> 8-plane set, or 4-plane set with a 1 or 2.
                    let out_word = (bit3 | (bit2 & (bit1 | bit0))) & mask;
                    writes += u64::from(out_word.count_ones());
                    row_bits |= out_word;
                    *slot = out_word;
                }
                if row_bits != 0 {
                    scr.written_rows.push(y as u16);
                }
                next_out = y + 1;
            }
        }
        self.ops.write(writes);
    }

    /// Generic odd-`p` fallback: per-column counts of the vertical window
    /// are maintained incrementally row to row, and a horizontal window
    /// of those counts is slid across each row.
    fn apply_sliding(&mut self, input: &BinaryImage, out: &mut BinaryImage) {
        let width = input.width();
        let height = input.height();
        let half = self.patch / 2;
        let majority = self.majority();
        let Scratch { col, written_rows, .. } = &mut self.scratch;
        col.clear();
        col.resize(width as usize, 0);
        // Prime the column counts for the window centred on row 0.
        for y in 0..=half.min(height - 1) {
            for x in input.set_pixels_in_row(y) {
                col[x as usize] += 1;
            }
        }
        for y in 0..height {
            // Horizontal window [x - half, x + half] clipped, slid along.
            let mut acc: u32 = col[..((half as usize) + 1).min(width as usize)].iter().sum();
            let mut wrote = false;
            for x in 0..width {
                self.ops.add(u64::from(acc));
                if acc > majority {
                    out.set(x, y, true);
                    self.ops.write(1);
                    wrote = true;
                }
                let leaving = i32::from(x) - i32::from(half);
                if leaving >= 0 {
                    acc -= col[leaving as usize];
                }
                let entering = u32::from(x) + u32::from(half) + 1;
                if entering < u32::from(width) {
                    acc += col[entering as usize];
                }
            }
            if wrote {
                written_rows.push(y);
            }
            // Slide the vertical window: drop row y - half, add y + half + 1.
            if y >= half {
                for x in input.set_pixels_in_row(y - half) {
                    col[x as usize] -= 1;
                }
            }
            let incoming = u32::from(y) + u32::from(half) + 1;
            if incoming < u32::from(height) {
                for x in input.set_pixels_in_row(incoming as u16) {
                    col[x as usize] += 1;
                }
            }
        }
    }

    /// The output rows the most recent [`Self::apply_into`] wrote a set
    /// pixel to, in increasing order: exactly the non-empty rows of its
    /// output. The region proposer projects only these rows.
    #[must_use]
    pub fn written_rows(&self) -> &[u16] {
        &self.scratch.written_rows
    }

    /// Runtime op counter.
    #[must_use]
    pub const fn ops(&self) -> &OpsCounter {
        &self.ops
    }

    /// Overwrites the op counter with a previously saved tally — the
    /// session-checkpoint restore path.
    pub fn restore_ops(&mut self, ops: OpsCounter) {
        self.ops = ops;
    }

    /// Resets the op counter.
    pub fn reset_ops(&mut self) {
        self.ops.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PixelBox;
    use ebbiot_events::SensorGeometry;
    use proptest::prelude::*;

    fn image(w: u16, h: u16) -> BinaryImage {
        BinaryImage::new(SensorGeometry::new(w, h))
    }

    #[test]
    fn majority_threshold_for_p3_is_four() {
        assert_eq!(MedianFilter::paper_default().majority(), 4);
        assert_eq!(MedianFilter::new(5).majority(), 12);
    }

    #[test]
    fn isolated_pixel_is_removed() {
        let mut img = image(16, 16);
        img.set(8, 8, true);
        let out = MedianFilter::paper_default().apply(&img);
        assert_eq!(out.count_ones(), 0, "salt noise removed");
    }

    #[test]
    fn solid_block_interior_survives() {
        let mut img = image(16, 16);
        img.fill_box(&PixelBox::new(4, 4, 12, 12));
        let out = MedianFilter::paper_default().apply(&img);
        // Interior (9 neighbours all set, count 9 > 4) survives; corners of
        // the block have count 4, which is NOT > 4, so they are eroded.
        assert!(out.get(8, 8));
        assert!(out.get(5, 5));
        assert!(!out.get(4, 4), "block corner has exactly 4 neighbours set");
        // Edge midpoints have count 6 > 4 and survive.
        assert!(out.get(8, 4));
    }

    #[test]
    fn small_cluster_of_two_is_removed() {
        let mut img = image(16, 16);
        img.set(5, 5, true);
        img.set(6, 5, true);
        let out = MedianFilter::paper_default().apply(&img);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn pepper_hole_in_solid_region_is_filled() {
        let mut img = image(16, 16);
        img.fill_box(&PixelBox::new(2, 2, 14, 14));
        img.set(8, 8, false); // pepper noise
        let out = MedianFilter::paper_default().apply(&img);
        assert!(out.get(8, 8), "hole filled by majority");
    }

    #[test]
    fn empty_image_stays_empty() {
        let img = image(8, 8);
        let out = MedianFilter::paper_default().apply(&img);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn full_image_interior_stays_full() {
        let mut img = image(8, 8);
        img.fill_box(&PixelBox::new(0, 0, 8, 8));
        let out = MedianFilter::paper_default().apply(&img);
        // Only the 4 extreme corners have patch count 4 (not > 4) under
        // zero padding; everything else survives.
        assert_eq!(out.count_ones(), 64 - 4);
        assert!(!out.get(0, 0));
        assert!(out.get(1, 0));
    }

    #[test]
    fn word_boundary_neighbours_are_seen() {
        // A solid 3-wide vertical bar straddling the bit-63/64 boundary:
        // its centre column survives only if horizontal carries propagate
        // across words.
        let mut img = image(130, 8);
        img.fill_box(&PixelBox::new(63, 2, 66, 7));
        let out = MedianFilter::paper_default().apply(&img);
        assert!(out.get(64, 4), "centre of the bar survives");
        assert!(out.get(63, 4) && out.get(65, 4), "bar edges have count 6");
        assert!(!out.get(62, 4) && !out.get(66, 4), "outside the bar");
        assert!(out.tail_bits_zero());
    }

    #[test]
    fn ops_counting_matches_eq1_structure() {
        let mut img = image(10, 10);
        img.set(5, 5, true); // one active pixel contributes 9 patch hits
        let mut f = MedianFilter::paper_default();
        let _ = f.apply(&img);
        // One comparison per pixel.
        assert_eq!(f.ops().comparisons, 100);
        // The single set pixel is seen by the 9 patches covering it.
        assert_eq!(f.ops().additions, 9);
        // No output pixels set -> no writes.
        assert_eq!(f.ops().mem_writes, 0);
    }

    #[test]
    fn reset_ops_clears_counter() {
        let mut f = MedianFilter::paper_default();
        let _ = f.apply(&image(4, 4));
        assert!(f.ops().total() > 0);
        f.reset_ops();
        assert_eq!(f.ops().total(), 0);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_patch_size_panics() {
        let _ = MedianFilter::new(4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_patch_size_panics_with_its_own_message() {
        let _ = MedianFilter::new(0);
    }

    #[test]
    fn p1_filter_is_identity() {
        let mut img = image(8, 8);
        img.set(2, 3, true);
        img.set(7, 7, true);
        let out = MedianFilter::new(1).apply(&img);
        assert_eq!(out, img);
    }

    /// Runs the word kernel, and the dispatched kernel (the AVX2 instance
    /// where the host has it), on `img`, asserting both give the scalar
    /// reference's image and op counts, list exactly the non-empty output
    /// rows, and agree with each other bit for bit.
    fn assert_instances_agree(img: &BinaryImage) {
        let mut ref_ops = OpsCounter::new();
        let expected = crate::reference::median(img, 3, &mut ref_ops);
        let expected_rows: Vec<u16> = (0..expected.height())
            .filter(|&y| expected.row_words(y).iter().any(|&w| w != 0))
            .collect();
        let set_pixels = img.count_ones() as u64;
        let (mut word, mut dispatched) = (MedianFilter::new(3), MedianFilter::new(3));
        let mut word_out = image(img.width(), img.height());
        let mut out = word_out.clone();
        word.apply_word_counted_into(img, set_pixels, &mut word_out);
        dispatched.apply_counted_into(img, set_pixels, &mut out);
        let geometry = img.geometry();
        assert_eq!(word_out, expected, "word kernel vs reference at {geometry}");
        assert_eq!(*word.ops(), ref_ops, "word kernel op counts at {geometry}");
        assert_eq!(word.written_rows(), expected_rows, "word kernel rows at {geometry}");
        assert!(word_out.tail_bits_zero());
        let instance = dispatched.instance(geometry);
        assert_eq!(out, word_out, "{instance} vs word kernel at {geometry}");
        assert_eq!(dispatched.ops(), word.ops(), "{instance} op counts at {geometry}");
        assert_eq!(dispatched.written_rows(), word.written_rows(), "{instance} rows at {geometry}");
    }

    /// A `w x h` frame: `pixels` (taken modulo the geometry), plus pairs
    /// straddling every word boundary the width has: at distance 1 on
    /// row `pair_row`, and at distance 2 on the next two rows (wrapping),
    /// one ending on the boundary's first bit and one across it.
    fn frame(w: u16, h: u16, pixels: &[(u16, u16)], pair_row: u16) -> BinaryImage {
        let mut img = image(w, h);
        for &(x, y) in pixels {
            img.set(x % w, y % h, true);
        }
        for b in (64..w).step_by(64) {
            for (dy, pair) in [(0, [b - 1, b]), (1, [b - 2, b]), (2, [b - 1, b + 1])] {
                for x in pair.into_iter().filter(|&x| x < w) {
                    img.set(x, (pair_row + dy) % h, true);
                }
            }
        }
        img
    }

    #[test]
    fn instances_agree_on_empty_and_full_frames_of_every_width() {
        for w in 1..=256 {
            for h in [1, 2, 3, 5] {
                let mut img = image(w, h);
                assert_instances_agree(&img);
                img.fill_box(&PixelBox::new(0, 0, w, h));
                assert_instances_agree(&img);
            }
        }
    }

    #[test]
    fn instances_agree_on_pairs_across_every_word_boundary() {
        for w in [63, 64, 65, 66, 127, 128, 129, 130, 191, 192, 193, 194, 240, 255, 256] {
            for pair_row in 0..4 {
                assert_instances_agree(&frame(w, 4, &[], pair_row));
                assert_instances_agree(&frame(w, 9, &[(w / 2, 4)], pair_row));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn instances_agree_on_random_frames_of_widths_1_to_256(
            w in 1u16..257,
            h in 1u16..14,
            pixels in proptest::collection::vec((0u16..1024, 0u16..1024), 0..160),
            pair_row in 0u16..16,
        ) {
            assert_instances_agree(&frame(w, h, &pixels, pair_row));
        }

        #[test]
        fn instances_agree_on_taller_denser_frames_at_64_65_128_240_256(
            wi in 0usize..5,
            h in 1u16..40,
            pixels in proptest::collection::vec((0u16..1024, 0u16..1024), 0..400),
            pair_row in 0u16..40,
        ) {
            let w = [64, 65, 128, 240, 256][wi];
            assert_instances_agree(&frame(w, h, &pixels, pair_row));
        }
    }

    #[test]
    fn p5_filter_requires_13_of_25() {
        let mut img = image(20, 20);
        img.fill_box(&PixelBox::new(5, 5, 15, 15));
        let out = MedianFilter::new(5).apply(&img);
        // Deep interior survives (25 of 25), the block corner has only
        // 9 of 25 and erodes.
        assert!(out.get(10, 10));
        assert!(!out.get(5, 5));
    }
}
