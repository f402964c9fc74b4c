//! Dense matrices and the serial multiplication baseline.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A dense `rows×cols` matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The `n×n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix::from_rows(n, vec![0.0; n * n])
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// A seeded random `n×n` matrix with entries uniform in `[-1, 1)`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_rows(n, (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect())
    }

    /// Builds an `n×n` matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != n²`.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        Matrix::with_shape(n, n, data)
    }

    /// Builds a `rows×cols` matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows·cols`.
    pub fn with_shape(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "need rows·cols entries");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Side length of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn n(&self) -> usize {
        assert_eq!(self.rows, self.cols, "not a square matrix");
        self.rows
    }

    /// Serial product baseline (ikj loop order).
    ///
    /// # Panics
    /// Panics unless `self` has as many columns as `other` has rows.
    pub fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::with_shape(self.rows, other.cols, vec![0.0; self.rows * other.cols]);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let r = self[(i, k)];
                if r == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += r * other[(k, j)];
                }
            }
        }
        out
    }

    /// Max absolute entry difference against a matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random(8, 1);
        let i = Matrix::identity(8);
        assert_eq!(a.multiply(&i), a);
        assert_eq!(i.multiply(&a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.multiply(&b);
        assert_eq!(c, Matrix::from_rows(2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn zeros_product_is_zero() {
        let a = Matrix::random(5, 2);
        let z = Matrix::zeros(5);
        assert_eq!(a.multiply(&z), z);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Matrix::random(6, 9), Matrix::random(6, 9));
        assert_ne!(Matrix::random(6, 9), Matrix::random(6, 10));
    }

    #[test]
    fn max_abs_diff_metric() {
        let a = Matrix::from_rows(2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_rows(2, vec![1.0, 0.5, 0.0, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
