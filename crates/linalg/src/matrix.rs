//! Stack-allocated row-major matrix with compile-time dimensions.

use core::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{LinalgError, Result, Vector};

/// A dense `R x C` matrix of `f64` stored row-major on the stack.
///
/// The type is `Copy`, so all arithmetic returns new values; for the small
/// dimensions used by the Kalman tracker (at most 8x8 in the paper's
/// configuration) this is both faster and simpler than heap allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix<const R: usize, const C: usize> {
    data: [[f64; C]; R],
}

impl<const R: usize, const C: usize> Default for Matrix<R, C> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const R: usize, const C: usize> Matrix<R, C> {
    /// The all-zero matrix.
    #[must_use]
    pub const fn zeros() -> Self {
        Self { data: [[0.0; C]; R] }
    }

    /// A matrix with every entry equal to `value`.
    #[must_use]
    pub const fn filled(value: f64) -> Self {
        Self { data: [[value; C]; R] }
    }

    /// Builds a matrix from row-major array data.
    #[must_use]
    pub const fn from_rows(rows: [[f64; C]; R]) -> Self {
        Self { data: rows }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros();
        for r in 0..R {
            for c in 0..C {
                m.data[r][c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows (compile-time constant `R`).
    #[must_use]
    pub const fn rows(&self) -> usize {
        R
    }

    /// Number of columns (compile-time constant `C`).
    #[must_use]
    pub const fn cols(&self) -> usize {
        C
    }

    /// Transpose, returning a `C x R` matrix.
    #[must_use]
    pub fn transpose(&self) -> Matrix<C, R> {
        Matrix::<C, R>::from_fn(|r, c| self.data[c][r])
    }

    /// Entry-wise map.
    #[must_use]
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self::from_fn(|r, c| f(self.data[r][c]))
    }

    /// Frobenius norm: square root of the sum of squared entries.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().flat_map(|row| row.iter()).map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns `true` if all entries are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().flat_map(|row| row.iter()).all(|v| v.is_finite())
    }

    /// Entry-wise approximate equality within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for r in 0..R {
            for c in 0..C {
                if (self.data[r][c] - other.data[r][c]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extract column `c` as a vector.
    #[must_use]
    pub fn column(&self, c: usize) -> Vector<R> {
        Vector::from_fn(|r| self.data[r][c])
    }

    /// Extract row `r` as a vector.
    #[must_use]
    pub fn row(&self, r: usize) -> Vector<C> {
        Vector::from_fn(|c| self.data[r][c])
    }
}

impl<const N: usize> Matrix<N, N> {
    /// The `N x N` identity matrix.
    #[must_use]
    pub fn identity() -> Self {
        Self::from_fn(|r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A diagonal matrix with the given diagonal entries.
    #[must_use]
    pub fn from_diagonal(diag: [f64; N]) -> Self {
        Self::from_fn(|r, c| if r == c { diag[r] } else { 0.0 })
    }

    /// Sum of diagonal entries.
    #[must_use]
    pub fn trace(&self) -> f64 {
        (0..N).map(|i| self.data[i][i]).sum()
    }

    /// Symmetrizes in place: `A <- (A + A^T) / 2`.
    ///
    /// Used by the Kalman filter to keep covariance matrices symmetric in
    /// the presence of floating-point drift.
    pub fn symmetrize(&mut self) {
        for r in 0..N {
            for c in (r + 1)..N {
                let avg = 0.5 * (self.data[r][c] + self.data[c][r]);
                self.data[r][c] = avg;
                self.data[c][r] = avg;
            }
        }
    }
}

impl Matrix<2, 2> {
    /// Inverse by Gaussian elimination with partial pivoting: the rows
    /// are swapped when `|c| > |a|`, then each unit column is solved by
    /// forward and back substitution. The Kalman update inverts its 2x2
    /// innovation covariance with this.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when a pivot's magnitude is
    /// below `1e-12` (absolute; the tracker's matrices are well-scaled).
    pub fn inverse(&self) -> Result<Self> {
        const SINGULARITY_EPS: f64 = 1e-12;
        let swap = self.data[1][0].abs() > self.data[0][0].abs();
        let ([p, q], [r, s]) =
            if swap { (self.data[1], self.data[0]) } else { (self.data[0], self.data[1]) };
        if p.abs() < SINGULARITY_EPS {
            return Err(LinalgError::Singular);
        }
        let l = r / p;
        let u = s - l * q;
        if u.abs() < SINGULARITY_EPS {
            return Err(LinalgError::Singular);
        }
        let mut inv = Self::zeros();
        for c in 0..2 {
            let unit = |i: usize| if i == c { 1.0 } else { 0.0 };
            // The swapped rows take the unit column's entries with them.
            let (e0, e1) = if swap { (unit(1), unit(0)) } else { (unit(0), unit(1)) };
            let x1 = (e1 - l * e0) / u;
            let x0 = (e0 - q * x1) / p;
            inv.data[0][c] = x0;
            inv.data[1][c] = x1;
        }
        Ok(inv)
    }
}

impl<const R: usize, const C: usize> Index<(usize, usize)> for Matrix<R, C> {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r][c]
    }
}

impl<const R: usize, const C: usize> IndexMut<(usize, usize)> for Matrix<R, C> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r][c]
    }
}

impl<const R: usize, const C: usize> Add for Matrix<R, C> {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self::from_fn(|r, c| self.data[r][c] + rhs.data[r][c])
    }
}

impl<const R: usize, const C: usize> AddAssign for Matrix<R, C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const R: usize, const C: usize> Sub for Matrix<R, C> {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self::from_fn(|r, c| self.data[r][c] - rhs.data[r][c])
    }
}

impl<const R: usize, const C: usize> SubAssign for Matrix<R, C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const R: usize, const C: usize> Neg for Matrix<R, C> {
    type Output = Self;

    fn neg(self) -> Self {
        self.map(|v| -v)
    }
}

impl<const R: usize, const K: usize, const C: usize> Mul<Matrix<K, C>> for Matrix<R, K> {
    type Output = Matrix<R, C>;

    fn mul(self, rhs: Matrix<K, C>) -> Matrix<R, C> {
        Matrix::<R, C>::from_fn(|r, c| (0..K).map(|k| self.data[r][k] * rhs.data[k][c]).sum())
    }
}

impl<const R: usize, const C: usize> Mul<Vector<C>> for Matrix<R, C> {
    type Output = Vector<R>;

    fn mul(self, rhs: Vector<C>) -> Vector<R> {
        Vector::from_fn(|r| (0..C).map(|c| self.data[r][c] * rhs[c]).sum())
    }
}

impl<const R: usize, const C: usize> Mul<f64> for Matrix<R, C> {
    type Output = Self;

    fn mul(self, rhs: f64) -> Self {
        self.map(|v| v * rhs)
    }
}

impl<const R: usize, const C: usize> Mul<Matrix<R, C>> for f64 {
    type Output = Matrix<R, C>;

    fn mul(self, rhs: Matrix<R, C>) -> Matrix<R, C> {
        rhs * self
    }
}

impl<const R: usize, const C: usize> MulAssign<f64> for Matrix<R, C> {
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_all_zero_entries() {
        let m = Matrix::<3, 4>::zeros();
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn from_rows_round_trips_through_indexing() {
        let m = Matrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = Matrix::<3, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        let i = Matrix::<3, 3>::identity();
        assert!((a * i).approx_eq(&a, 1e-14));
        assert!((i * a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn transpose_swaps_dimensions_and_entries() {
        let m = Matrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t[(2, 0)], 3.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matrix_multiplication_matches_hand_computation() {
        let a = Matrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let b = Matrix::<3, 2>::from_rows([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]]);
        let ab = a * b;
        let expected = Matrix::<2, 2>::from_rows([[58.0, 64.0], [139.0, 154.0]]);
        assert!(ab.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matrix_vector_product() {
        let a = Matrix::<2, 2>::from_rows([[2.0, 0.0], [0.0, 3.0]]);
        let v = Vector::<2>::from_column([1.0, 1.0]);
        let av = a * v;
        assert_eq!(av[0], 2.0);
        assert_eq!(av[1], 3.0);
    }

    #[test]
    fn add_sub_neg_are_entrywise() {
        let a = Matrix::<2, 2>::from_rows([[1.0, 2.0], [3.0, 4.0]]);
        let b = Matrix::<2, 2>::from_rows([[5.0, 6.0], [7.0, 8.0]]);
        assert!((a + b).approx_eq(&Matrix::from_rows([[6.0, 8.0], [10.0, 12.0]]), 0.0));
        assert!((b - a).approx_eq(&Matrix::filled(4.0), 0.0));
        assert!((-a).approx_eq(&Matrix::from_rows([[-1.0, -2.0], [-3.0, -4.0]]), 0.0));
    }

    #[test]
    fn scalar_multiplication_commutes() {
        let a = Matrix::<2, 2>::from_rows([[1.0, 2.0], [3.0, 4.0]]);
        assert!((a * 2.0).approx_eq(&(2.0 * a), 0.0));
        assert_eq!((a * 2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn trace_sums_diagonal() {
        let a = Matrix::<3, 3>::from_diagonal([1.0, 2.0, 3.0]);
        assert_eq!(a.trace(), 6.0);
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let a = Matrix::<2, 2>::from_rows([[3.0, 0.0], [0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn symmetrize_produces_symmetric_matrix() {
        let mut a = Matrix::<3, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        a.symmetrize();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(a[(r, c)], a[(c, r)]);
            }
        }
        assert_eq!(a[(0, 1)], 3.0); // (2 + 4) / 2
    }

    /// Bit patterns of the 2x2 inverse, as the general LU with partial
    /// pivoting this inverse replaced computed them; the Kalman baseline's
    /// output depends on every bit.
    fn inverse_bits(m: Matrix<2, 2>) -> [[u64; 2]; 2] {
        let inv = m.inverse().unwrap();
        [
            [inv[(0, 0)].to_bits(), inv[(0, 1)].to_bits()],
            [inv[(1, 0)].to_bits(), inv[(1, 1)].to_bits()],
        ]
    }

    #[test]
    fn inverse_without_row_swap_keeps_its_bits() {
        let m = Matrix::<2, 2>::from_rows([[2.5, 0.1], [0.7, 1.3]]);
        assert_eq!(
            inverse_bits(m),
            [
                [0x3fda_29dc_9420_3386, 0xbfa0_19c2_d14e_e4a1],
                [0xbfcc_2d14_ee4a_1019, 0x3fe9_2840_670b_453b]
            ]
        );
    }

    #[test]
    fn inverse_with_row_swap_keeps_its_bits() {
        let m = Matrix::<2, 2>::from_rows([[0.3, 0.7], [0.9, 0.1]]);
        assert_eq!(
            inverse_bits(m),
            [
                [0xbfc5_5555_5555_5556, 0x3ff2_aaaa_aaaa_aaab],
                [0x3ff8_0000_0000_0000, 0xbfe0_0000_0000_0000]
            ]
        );
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Matrix::<2, 2>::from_rows([[1.0, 2.0], [2.0, 4.0]]);
        assert_eq!(m.inverse(), Err(LinalgError::Singular));
        assert_eq!(Matrix::<2, 2>::zeros().inverse(), Err(LinalgError::Singular));
    }

    #[test]
    fn row_and_column_extraction() {
        let m = Matrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let r = m.row(1);
        assert_eq!(r[0], 4.0);
        assert_eq!(r[2], 6.0);
        let c = m.column(2);
        assert_eq!(c[0], 3.0);
        assert_eq!(c[1], 6.0);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        let mut m = Matrix::<2, 2>::zeros();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
        m[(0, 0)] = f64::INFINITY;
        assert!(!m.is_finite());
    }
}
