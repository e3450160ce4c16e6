//! Cholesky decomposition for symmetric positive-definite matrices.
//!
//! Kalman-filter covariance matrices are SPD by construction; an
//! attempted Cholesky factorization is the check ([`is_spd`]) that the
//! filter's updates keep them so.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L * L^T` with `L` lower triangular.
#[derive(Debug, Clone, Copy)]
pub struct Cholesky<const N: usize> {
    l: Matrix<N, N>,
}

impl<const N: usize> Cholesky<N> {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so slight floating-point
    /// asymmetry in the upper triangle is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a non-positive
    /// pivot is encountered.
    pub fn new(a: Matrix<N, N>) -> Result<Self> {
        let mut l = Matrix::<N, N>::zeros();
        for r in 0..N {
            for c in 0..=r {
                let mut sum = a[(r, c)];
                for k in 0..c {
                    sum -= l[(r, k)] * l[(c, k)];
                }
                if r == c {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(r, c)] = sum.sqrt();
                } else {
                    l[(r, c)] = sum / l[(c, c)];
                }
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor `L`.
    #[must_use]
    pub fn lower(&self) -> Matrix<N, N> {
        self.l
    }
}

/// Returns `true` when `a` is symmetric positive definite to working
/// precision (checked via an attempted Cholesky factorization of the lower
/// triangle plus an explicit symmetry test).
#[must_use]
pub fn is_spd<const N: usize>(a: &Matrix<N, N>, symmetry_tol: f64) -> bool {
    for r in 0..N {
        for c in 0..r {
            if (a[(r, c)] - a[(c, r)]).abs() > symmetry_tol {
                return false;
            }
        }
    }
    Cholesky::new(*a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix() -> Matrix<3, 3> {
        // B^T B + I is always SPD.
        let b = Matrix::<3, 3>::from_rows([[1.0, 2.0, 0.5], [0.0, 1.5, 1.0], [0.7, 0.1, 2.0]]);
        b.transpose() * b + Matrix::identity()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_matrix();
        let ch = Cholesky::new(a).unwrap();
        let l = ch.lower();
        assert!((l * l.transpose()).approx_eq(&a, 1e-10));
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::<2, 2>::from_rows([[1.0, 2.0], [2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(Cholesky::new(a).unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn rejects_zero_matrix() {
        let a = Matrix::<2, 2>::zeros();
        assert!(Cholesky::new(a).is_err());
    }

    #[test]
    fn is_spd_checks_both_symmetry_and_definiteness() {
        assert!(is_spd(&spd_matrix(), 1e-12));
        let asym = Matrix::<2, 2>::from_rows([[2.0, 0.5], [0.0, 2.0]]);
        assert!(!is_spd(&asym, 1e-12));
        let indef = Matrix::<2, 2>::from_rows([[1.0, 2.0], [2.0, 1.0]]);
        assert!(!is_spd(&indef, 1e-12));
    }
}
