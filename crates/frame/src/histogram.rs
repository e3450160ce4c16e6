//! X/Y histograms of the downsampled EBBI and 1-D run extraction (Eq. 4).
//!
//! The RPN projects the downsampled count image onto both axes:
//! `H_X(i) = sum_j I(i, j)` and `H_Y(j) = sum_i I(i, j)`, then finds
//! contiguous runs of entries at or above a threshold (the paper sets the
//! threshold "to 1"). Regions fragmented in the full-resolution image merge
//! in the coarse histograms — the paper's answer to big vehicles whose flat
//! sides generate few events.

use ebbiot_events::OpsCounter;

use crate::CountImage;

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
    /// Charges one addition per cell visited and one write per bin,
    /// matching the `2 * A * B / (s1 * s2)` term of Eq. 5 when both axes
    /// are built.
    #[must_use]
    pub fn project(image: &CountImage, axis: Axis, ops: &mut OpsCounter) -> Self {
        let mut out = Self::default();
        Self::project_into(image, axis, &mut out, ops);
        out
    }

    /// Projects into a caller-owned histogram — the allocation-free
    /// variant of [`Self::project`] used by the region proposer. `out`
    /// is resized to the bin count and overwritten.
    ///
    /// The sums run over whole cell rows: `H_Y` bins are row sums and
    /// `H_X` accumulates each row element-wise, so both loops are
    /// straight slice arithmetic. The op charge is the same one addition
    /// per cell and one write per bin as a cell-by-cell scan.
    pub fn project_into(image: &CountImage, axis: Axis, out: &mut Self, ops: &mut OpsCounter) {
        let (width, height) = (image.width(), image.height());
        let bins = &mut out.bins;
        bins.clear();
        match axis {
            Axis::X => {
                bins.resize(width as usize, 0);
                for j in 0..height {
                    for (bin, &v) in bins.iter_mut().zip(image.row(j)) {
                        *bin += v;
                    }
                }
            }
            Axis::Y => bins.extend((0..height).map(|j| image.row(j).iter().sum::<u32>())),
        }
        ops.add(u64::from(width) * u64::from(height));
        ops.write(bins.len() as u64);
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
    use crate::BinaryImage;
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
