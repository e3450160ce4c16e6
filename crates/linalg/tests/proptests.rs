//! Property-based tests for the linear-algebra substrate.

use ebbiot_linalg::{cholesky, Cholesky, Matrix, Vector};
use proptest::prelude::*;

fn finite_entry() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

fn mat3() -> impl Strategy<Value = Matrix<3, 3>> {
    proptest::array::uniform3(proptest::array::uniform3(finite_entry())).prop_map(Matrix::from_rows)
}

fn mat2() -> impl Strategy<Value = Matrix<2, 2>> {
    proptest::array::uniform2(proptest::array::uniform2(finite_entry())).prop_map(Matrix::from_rows)
}

fn vec3() -> impl Strategy<Value = Vector<3>> {
    proptest::array::uniform3(finite_entry()).prop_map(Vector::from_column)
}

/// `B^T B + eps I` is symmetric positive definite for any B.
fn spd3() -> impl Strategy<Value = Matrix<3, 3>> {
    mat3().prop_map(|b| b.transpose() * b + Matrix::identity() * 0.5)
}

/// The 2x2 SPD matrices the Kalman update inverts, built the same way.
fn spd2() -> impl Strategy<Value = Matrix<2, 2>> {
    mat2().prop_map(|b| b.transpose() * b + Matrix::identity() * 0.5)
}

proptest! {
    #[test]
    fn transpose_is_involutive(a in mat3()) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn addition_commutes(a in mat3(), b in mat3()) {
        prop_assert!((a + b).approx_eq(&(b + a), 1e-9));
    }

    #[test]
    fn multiplication_distributes_over_addition(a in mat3(), b in mat3(), c in mat3()) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        // Scale tolerance by magnitude: entries up to 100, products up to 3*100*200.
        prop_assert!(lhs.approx_eq(&rhs, 1e-6));
    }

    #[test]
    fn transpose_reverses_products(a in mat3(), b in mat3()) {
        let lhs = (a * b).transpose();
        let rhs = b.transpose() * a.transpose();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn inverse_of_spd_is_two_sided(a in spd2()) {
        let inv = a.inverse().unwrap();
        prop_assert!((a * inv).approx_eq(&Matrix::identity(), 1e-5));
        prop_assert!((inv * a).approx_eq(&Matrix::identity(), 1e-5));
    }

    #[test]
    fn cholesky_reconstructs(a in spd3()) {
        let l = Cholesky::new(a).unwrap().lower();
        prop_assert!((l * l.transpose()).approx_eq(&a, 1e-6));
    }

    #[test]
    fn spd_matrices_pass_is_spd(a in spd3()) {
        prop_assert!(cholesky::is_spd(&a, 1e-9));
    }

    #[test]
    fn dot_product_cauchy_schwarz(x in vec3(), y in vec3()) {
        prop_assert!(x.dot(&y).abs() <= x.norm() * y.norm() + 1e-9);
    }

    #[test]
    fn outer_product_rank_one_action(x in vec3(), y in vec3(), z in vec3()) {
        // (x y^T) z == x * (y . z)
        let lhs = x.outer(&y) * z;
        let rhs = x * y.dot(&z);
        prop_assert!(lhs.approx_eq(&rhs, 1e-6 * (1.0 + rhs.norm())));
    }
}
