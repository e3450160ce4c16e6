//! X/Y histograms of the downsampled EBBI and 1-D run extraction (Eq. 4).
//!
//! The RPN projects the downsampled count image onto both axes:
//! `H_X(i) = sum_j I(i, j)` and `H_Y(j) = sum_i I(i, j)`, then finds
//! contiguous runs of entries at or above a threshold (the paper sets the
//! threshold "to 1"). Regions fragmented in the full-resolution image merge
//! in the coarse histograms — the paper's answer to big vehicles whose flat
//! sides generate few events.
//!
//! Both sums reduce to pixel counts: `H_X(i)` counts the set pixels of
//! column block `i` and `H_Y(j)` those of row block `j`. So the hot path
//! ([`Histogram::project_rows`]) builds them straight from the binary
//! image's set bits, and reads only the rows the caller lists: the rows
//! the median filter wrote. [`Histogram::project`] projects an explicit
//! [`CountImage`] for Fig. 3 and the parity oracle.

use ebbiot_events::OpsCounter;

use crate::{BinaryImage, CountImage};

/// A 1-D projection histogram over one axis of a [`CountImage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<u32>,
}

/// Which axis a histogram projects onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `H_X`: one bin per downsampled column.
    X,
    /// `H_Y`: one bin per downsampled row.
    Y,
}

impl Histogram {
    /// Builds the projection histogram of `image` along `axis`.
    ///
    /// The sums run over whole cell rows: `H_Y` bins are row sums and
    /// `H_X` accumulates each row element-wise. Charges one addition per
    /// cell visited and one write per bin, matching the
    /// `2 * A * B / (s1 * s2)` term of Eq. 5 when both axes are built.
    #[must_use]
    pub fn project(image: &CountImage, axis: Axis, ops: &mut OpsCounter) -> Self {
        let (width, height) = (image.width(), image.height());
        let bins = match axis {
            Axis::X => {
                let mut bins = vec![0; usize::from(width)];
                for j in 0..height {
                    for (bin, &v) in bins.iter_mut().zip(image.row(j)) {
                        *bin += v;
                    }
                }
                bins
            }
            Axis::Y => (0..height).map(|j| image.row(j).iter().sum::<u32>()).collect(),
        };
        ops.add(u64::from(width) * u64::from(height));
        ops.write(bins.len() as u64);
        Self { bins }
    }

    /// Builds `H_X` and `H_Y` of the `(s1, s2)` block sums of `image`
    /// straight from its set bits, without the count image: a set pixel
    /// `(x, y)` adds 1 to `hx[x / s1]` and every row adds its popcount to
    /// `hy[y / s2]`. Both outputs are resized to `ceil(A / s1)` and
    /// `ceil(B / s2)` bins and overwritten, so the bins equal
    /// [`CountImage::downsample`] followed by [`Self::project`] on both
    /// axes, partial edge cells included.
    ///
    /// Only the listed `rows` are read. Any increasing list that holds
    /// every non-empty row of `image` gives the same bins, since an empty
    /// row adds nothing: the median filter's
    /// [`written_rows`](crate::MedianFilter::written_rows), or
    /// `0..height` when the caller has no list.
    ///
    /// The op charge is the logical Eq. 5 count of the downsample and the
    /// two projections, in closed form: `A * B + 2 * W * H` additions and
    /// `W * H + W + H` writes for a `W x H` cell grid.
    ///
    /// # Panics
    ///
    /// Panics when either factor is zero or exceeds the image dimension,
    /// or when a listed row is out of bounds.
    pub fn project_rows(
        image: &BinaryImage,
        rows: impl IntoIterator<Item = u16>,
        (s1, s2): (u16, u16),
        hx: &mut Self,
        hy: &mut Self,
        ops: &mut OpsCounter,
    ) {
        assert!(s1 > 0 && s2 > 0, "scale factors must be non-zero");
        assert!(s1 <= image.width() && s2 <= image.height(), "scale factors larger than the image");
        let width = image.width().div_ceil(s1);
        let height = image.height().div_ceil(s2);
        hx.bins.clear();
        hx.bins.resize(usize::from(width), 0);
        hy.bins.clear();
        hy.bins.resize(usize::from(height), 0);
        // `x * recip >> 32 == x / s1` for every column x < 2^16, with no
        // divide per pixel: `recip` exceeds 2^32 / s1 by less than 1, so
        // `x * recip` exceeds `x * 2^32 / s1` by less than x. And
        // x < 2^16 <= 2^32 / s1, the least gap to the next multiple of
        // 2^32.
        let recip = (1u64 << 32).div_ceil(u64::from(s1));
        let mut next = 0u16;
        for y in rows {
            debug_assert!(y >= next, "rows must be increasing and distinct");
            next = y + 1;
            let mut row_total = 0u32;
            for (w, &word) in image.row_words(y).iter().enumerate() {
                row_total += word.count_ones();
                let mut bits = word;
                while bits != 0 {
                    let x = w as u64 * 64 + u64::from(bits.trailing_zeros());
                    hx.bins[((x * recip) >> 32) as usize] += 1;
                    bits &= bits - 1;
                }
            }
            hy.bins[usize::from(y / s2)] += row_total;
        }
        let cells = u64::from(width) * u64::from(height);
        ops.add(image.geometry().num_pixels() as u64 + 2 * cells);
        ops.write(cells + u64::from(width) + u64::from(height));
    }

    /// Builds a histogram directly from bin values (for tests and tools).
    #[must_use]
    pub fn from_bins(bins: Vec<u32>) -> Self {
        Self { bins }
    }

    /// Number of bins.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the histogram has no bins.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Bin values.
    #[must_use]
    pub fn bins(&self) -> &[u32] {
        &self.bins
    }

    /// Sum of all bins.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|&v| u64::from(v)).sum()
    }

    /// Finds maximal runs of consecutive bins with value `>= threshold`.
    ///
    /// Returns half-open index ranges `[start, end)`. Charges one
    /// comparison per bin.
    #[must_use]
    pub fn runs_at_least(&self, threshold: u32, ops: &mut OpsCounter) -> Vec<Run> {
        let mut runs = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &v) in self.bins.iter().enumerate() {
            ops.compare(1);
            if v >= threshold {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                runs.push(Run { start: s, end: i });
            }
        }
        if let Some(s) = start {
            runs.push(Run { start: s, end: self.bins.len() });
        }
        runs
    }

    /// ASCII sparkline (`0-9`, `+` for >= 10) for debugging and Fig. 3.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        self.bins
            .iter()
            .map(|&v| {
                if v == 0 {
                    '.'
                } else if v < 10 {
                    char::from_digit(v, 10).expect("v < 10")
                } else {
                    '+'
                }
            })
            .collect()
    }
}

/// A maximal run of above-threshold bins: half-open `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// First bin index in the run (inclusive).
    pub start: usize,
    /// One past the last bin index (exclusive).
    pub end: usize,
}

impl Run {
    /// Number of bins covered.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.end - self.start
    }

    /// Runs are never empty by construction, but the method is provided
    /// for API completeness.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether two runs share any bin.
    #[must_use]
    pub const fn overlaps(&self, other: &Run) -> bool {
        self.start < other.end && other.start < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbiot_events::SensorGeometry;

    fn count_image(w: u16, h: u16, set: &[(u16, u16)]) -> CountImage {
        let mut img = BinaryImage::new(SensorGeometry::new(w, h));
        for &(x, y) in set {
            img.set(x, y, true);
        }
        let mut ops = OpsCounter::new();
        CountImage::downsample(&img, 1, 1, &mut ops)
    }

    #[test]
    fn projections_sum_rows_and_columns() {
        let ci = count_image(4, 3, &[(0, 0), (0, 1), (2, 2), (3, 2)]);
        let mut ops = OpsCounter::new();
        let hx = Histogram::project(&ci, Axis::X, &mut ops);
        let hy = Histogram::project(&ci, Axis::Y, &mut ops);
        assert_eq!(hx.bins(), &[2, 0, 1, 1]);
        assert_eq!(hy.bins(), &[1, 1, 2]);
        assert_eq!(hx.total(), 4);
        assert_eq!(hy.total(), 4);
    }

    #[test]
    fn projection_totals_always_agree() {
        let ci = count_image(8, 8, &[(1, 1), (2, 5), (7, 0), (7, 7)]);
        let mut ops = OpsCounter::new();
        let hx = Histogram::project(&ci, Axis::X, &mut ops);
        let hy = Histogram::project(&ci, Axis::Y, &mut ops);
        assert_eq!(hx.total(), hy.total());
    }

    #[test]
    fn ops_accounting_covers_cells_and_bins() {
        let ci = count_image(6, 4, &[]);
        let mut ops = OpsCounter::new();
        let _ = Histogram::project(&ci, Axis::X, &mut ops);
        assert_eq!(ops.additions, 24, "one add per cell");
        assert_eq!(ops.mem_writes, 6, "one write per bin");
    }

    #[test]
    fn row_projection_matches_the_count_image_path() {
        let mut img = BinaryImage::new(SensorGeometry::new(13, 7));
        for &(x, y) in &[(0, 0), (12, 6), (5, 3), (6, 3), (11, 0)] {
            img.set(x, y, true);
        }
        let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
        let mut ops = OpsCounter::new();
        Histogram::project_rows(&img, [0, 3, 6], (6, 3), &mut hx, &mut hy, &mut ops);
        let mut count_ops = OpsCounter::new();
        let scaled = CountImage::downsample(&img, 6, 3, &mut count_ops);
        assert_eq!(hx, Histogram::project(&scaled, Axis::X, &mut count_ops));
        assert_eq!(hy, Histogram::project(&scaled, Axis::Y, &mut count_ops));
        assert_eq!(ops, count_ops, "Eq. 5 charge of the downsample and both projections");
        // A superset with empty rows reads the same bins.
        Histogram::project_rows(&img, 0..7, (6, 3), &mut hx, &mut hy, &mut ops);
        assert_eq!((hx.bins(), hy.bins()), (&[2, 2, 1][..], &[2, 2, 1][..]));
    }

    #[test]
    fn row_projection_bins_every_column_of_the_widest_row() {
        // One full row of the widest geometry: every column x < 2^16
        // lands in bin x / s1, so each bin holds s1 (the last one the
        // remainder).
        let width = u16::MAX;
        let mut img = BinaryImage::new(SensorGeometry::new(width, 1));
        img.fill_box(&crate::PixelBox::new(0, 0, width, 1));
        let (mut hx, mut hy) = (Histogram::default(), Histogram::default());
        let mut ops = OpsCounter::new();
        for s1 in [1, 2, 3, 5, 6, 7, 64, 255, 1000, 4097, 32_768, width] {
            Histogram::project_rows(&img, [0], (s1, 1), &mut hx, &mut hy, &mut ops);
            let (full, rest) = (u32::from(width / s1), u32::from(width % s1));
            assert!(hx.bins()[..full as usize].iter().all(|&b| b == u32::from(s1)), "s1 {s1}");
            assert_eq!(hx.bins()[full as usize..], [rest][..usize::from(rest > 0)], "s1 {s1}");
            assert_eq!(hy.bins(), &[u32::from(width)]);
        }
    }

    #[test]
    fn runs_on_empty_histogram() {
        let h = Histogram::from_bins(vec![]);
        let mut ops = OpsCounter::new();
        assert!(h.runs_at_least(1, &mut ops).is_empty());
    }

    #[test]
    fn single_run_in_middle() {
        let h = Histogram::from_bins(vec![0, 0, 3, 5, 2, 0, 0]);
        let mut ops = OpsCounter::new();
        let runs = h.runs_at_least(1, &mut ops);
        assert_eq!(runs, vec![Run { start: 2, end: 5 }]);
        assert_eq!(runs[0].len(), 3);
    }

    #[test]
    fn run_touching_each_border() {
        let h = Histogram::from_bins(vec![2, 1, 0, 0, 7]);
        let mut ops = OpsCounter::new();
        let runs = h.runs_at_least(1, &mut ops);
        assert_eq!(runs, vec![Run { start: 0, end: 2 }, Run { start: 4, end: 5 }]);
    }

    #[test]
    fn threshold_splits_weak_bridges() {
        let h = Histogram::from_bins(vec![5, 1, 5]);
        let mut ops = OpsCounter::new();
        assert_eq!(h.runs_at_least(1, &mut ops).len(), 1, "bridge at threshold 1");
        assert_eq!(h.runs_at_least(2, &mut ops).len(), 2, "bridge broken at 2");
    }

    #[test]
    fn all_above_threshold_is_one_run() {
        let h = Histogram::from_bins(vec![1, 2, 3]);
        let mut ops = OpsCounter::new();
        assert_eq!(h.runs_at_least(1, &mut ops), vec![Run { start: 0, end: 3 }]);
    }

    #[test]
    fn run_comparisons_equal_bin_count() {
        let h = Histogram::from_bins(vec![1; 17]);
        let mut ops = OpsCounter::new();
        let _ = h.runs_at_least(1, &mut ops);
        assert_eq!(ops.comparisons, 17);
    }

    #[test]
    fn run_overlap_predicate() {
        let a = Run { start: 0, end: 3 };
        let b = Run { start: 2, end: 5 };
        let c = Run { start: 3, end: 4 };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "half-open ranges: touching is not overlap");
    }

    #[test]
    fn fragmented_object_merges_in_coarse_histogram() {
        // Two x-clusters 2 px apart at full resolution: separate runs.
        let fine = count_image(12, 3, &[(2, 1), (3, 1), (6, 1), (7, 1)]);
        let mut ops = OpsCounter::new();
        let hx_fine = Histogram::project(&fine, Axis::X, &mut ops);
        assert_eq!(hx_fine.runs_at_least(1, &mut ops).len(), 2);

        // Downsampled by 4 in x, the gap disappears: one merged run —
        // exactly the Fig. 3 motivation.
        let mut img = BinaryImage::new(SensorGeometry::new(12, 3));
        for &(x, y) in &[(2u16, 1u16), (3, 1), (6, 1), (7, 1)] {
            img.set(x, y, true);
        }
        let coarse = CountImage::downsample(&img, 4, 3, &mut ops);
        let hx_coarse = Histogram::project(&coarse, Axis::X, &mut ops);
        assert_eq!(hx_coarse.runs_at_least(1, &mut ops).len(), 1);
    }

    #[test]
    fn ascii_sparkline() {
        let h = Histogram::from_bins(vec![0, 3, 12]);
        assert_eq!(h.to_ascii(), ".3+");
    }
}
