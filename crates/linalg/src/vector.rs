//! Column vectors as a thin specialization of [`Matrix`].

use core::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::Matrix;

/// A column vector of length `N`.
///
/// Stored as its own type (rather than `Matrix<N, 1>`) so that indexing is
/// single-subscript and dot/norm operations read naturally at call sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vector<const N: usize> {
    data: [f64; N],
}

impl<const N: usize> Default for Vector<N> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const N: usize> Vector<N> {
    /// The zero vector.
    #[must_use]
    pub const fn zeros() -> Self {
        Self { data: [0.0; N] }
    }

    /// Builds a vector from an array of entries.
    #[must_use]
    pub const fn from_column(data: [f64; N]) -> Self {
        Self { data }
    }

    /// Builds a vector by evaluating `f(i)` for every entry.
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        let mut v = Self::zeros();
        for i in 0..N {
            v.data[i] = f(i);
        }
        v
    }

    /// Length of the vector (compile-time constant `N`).
    #[must_use]
    pub const fn len(&self) -> usize {
        N
    }

    /// Returns `true` when `N == 0`.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        N == 0
    }

    /// Borrow the entries as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dot product.
    #[must_use]
    pub fn dot(&self, other: &Self) -> f64 {
        (0..N).map(|i| self.data[i] * other.data[i]).sum()
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Entry-wise map.
    #[must_use]
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self::from_fn(|i| f(self.data[i]))
    }

    /// Outer product `self * other^T`, an `N x M` matrix.
    #[must_use]
    pub fn outer<const M: usize>(&self, other: &Vector<M>) -> Matrix<N, M> {
        Matrix::from_fn(|r, c| self.data[r] * other[c])
    }

    /// Entry-wise approximate equality within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (0..N).all(|i| (self.data[i] - other.data[i]).abs() <= tol)
    }

    /// Returns `true` if every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl<const N: usize> Index<usize> for Vector<N> {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl<const N: usize> IndexMut<usize> for Vector<N> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl<const N: usize> Add for Vector<N> {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self::from_fn(|i| self.data[i] + rhs.data[i])
    }
}

impl<const N: usize> AddAssign for Vector<N> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const N: usize> Sub for Vector<N> {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self::from_fn(|i| self.data[i] - rhs.data[i])
    }
}

impl<const N: usize> SubAssign for Vector<N> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const N: usize> Neg for Vector<N> {
    type Output = Self;

    fn neg(self) -> Self {
        self.map(|v| -v)
    }
}

impl<const N: usize> Mul<f64> for Vector<N> {
    type Output = Self;

    fn mul(self, rhs: f64) -> Self {
        self.map(|v| v * rhs)
    }
}

impl<const N: usize> Mul<Vector<N>> for f64 {
    type Output = Vector<N>;

    fn mul(self, rhs: Vector<N>) -> Vector<N> {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::<4>::zeros();
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dot_product_matches_hand_computation() {
        let a = Vector::<3>::from_column([1.0, 2.0, 3.0]);
        let b = Vector::<3>::from_column([4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn norm_of_pythagorean_vector() {
        let v = Vector::<2>::from_column([3.0, 4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn arithmetic_is_entrywise() {
        let a = Vector::<2>::from_column([1.0, 2.0]);
        let b = Vector::<2>::from_column([3.0, 5.0]);
        assert!((a + b).approx_eq(&Vector::from_column([4.0, 7.0]), 0.0));
        assert!((b - a).approx_eq(&Vector::from_column([2.0, 3.0]), 0.0));
        assert!((-a).approx_eq(&Vector::from_column([-1.0, -2.0]), 0.0));
        assert!((a * 3.0).approx_eq(&Vector::from_column([3.0, 6.0]), 0.0));
        assert!((3.0 * a).approx_eq(&(a * 3.0), 0.0));
    }

    #[test]
    fn outer_product_shape_and_values() {
        let a = Vector::<2>::from_column([1.0, 2.0]);
        let b = Vector::<3>::from_column([3.0, 4.0, 5.0]);
        let o = a.outer(&b);
        assert_eq!(o[(0, 0)], 3.0);
        assert_eq!(o[(1, 2)], 10.0);
    }

    #[test]
    fn assign_operators() {
        let mut v = Vector::<2>::from_column([1.0, 1.0]);
        v += Vector::from_column([2.0, 3.0]);
        assert!(v.approx_eq(&Vector::from_column([3.0, 4.0]), 0.0));
        v -= Vector::from_column([1.0, 1.0]);
        assert!(v.approx_eq(&Vector::from_column([2.0, 3.0]), 0.0));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = Vector::<2>::zeros();
        assert!(v.is_finite());
        v[1] = f64::NAN;
        assert!(!v.is_finite());
    }
}
