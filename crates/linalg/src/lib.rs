//! Minimal const-generic dense linear algebra.
//!
//! This crate is the numerical substrate for the Kalman-filter baseline of
//! the EBBIOT paper. A Kalman filter for an embedded tracker only needs
//! small fixed-size matrices (the paper uses state/measurement vectors of
//! length `2 * NT` with `NT = 2` tracks), so instead of pulling in a large
//! external linear-algebra dependency we provide exactly what the filter
//! needs:
//!
//! * stack-allocated [`Matrix<R, C>`] with compile-time dimensions,
//! * arithmetic (`+`, `-`, `*`, scalar ops) via operator overloading,
//! * transpose, identity, trace, norms,
//! * the 2x2 inverse ([`Matrix::inverse`]) the Kalman update applies to
//!   its innovation covariance,
//! * Cholesky decomposition ([`cholesky::Cholesky`]), which checks that
//!   covariance matrices stay symmetric positive definite.
//!
//! All element storage is row-major `[[f64; C]; R]`; the types are `Copy`
//! for the small sizes used here, which keeps the Kalman update allocation
//! free — matching the paper's point that the KF tracker fits in ~1.1 kB.
//!
//! # Example
//!
//! ```
//! use ebbiot_linalg::{Matrix, Vector};
//!
//! let a = Matrix::<2, 2>::from_rows([[4.0, 1.0], [2.0, 3.0]]);
//! let b = Vector::<2>::from_column([1.0, 2.0]);
//! let x = a.inverse().unwrap() * b;
//! let residual = a * x - b;
//! assert!(residual.norm() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod matrix;
pub mod vector;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use vector::Vector;

/// Error type for operations that can fail on singular or non-SPD matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular to working precision; no unique solution.
    Singular,
    /// The matrix is not symmetric positive definite (Cholesky only).
    NotPositiveDefinite,
}

impl core::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = core::result::Result<T, LinalgError>;
