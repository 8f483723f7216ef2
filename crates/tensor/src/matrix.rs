//! A minimal row-major `f32` matrix.
//!
//! Sized for the DNN part of embedding models (paper: a 512-512-256-1 MLP),
//! where the heavy lifting is batched matrix multiplication. Deliberately
//! dependency-free. Determinism comes first: every product is summed in a
//! fixed order, so engines that split a step across trainers stay
//! bit-identical to the serial oracle. Speed comes second but still
//! counts: DLRM's dense compute is most of a measured training step, so
//! the kernels keep their inner loops contiguous and vectorisable.

use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use frugal_tensor::Matrix;
///
/// let a = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
/// let b = Matrix::from_rows(3, 1, &[1., 0., 1.]);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), &[4., 10.]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix taking ownership of row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
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

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self @ rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let o_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ @ rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = rhs.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ rhsᵀ`.
    ///
    /// Every output element is bit-identical to the dot product
    /// `a_row.iter().zip(b_row).map(|(&a, &b)| a * b).sum::<f32>()`: it
    /// starts at `-0.0` (the neutral element `f32`'s `Sum` folds from) and
    /// adds the products in ascending `k`. The loop order differs from that
    /// dot product only so the adds vectorise: `rhs` is copied once into a
    /// transposed scratch and each `k` updates a whole output row. Unlike
    /// [`Matrix::matmul`] there is no `a == 0.0` skip, which would change
    /// the sign of zero results.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        let m = rhs.rows;
        let mut bt = vec![0.0f32; self.cols * m];
        for j in 0..m {
            for (k, &b) in rhs.row(j).iter().enumerate() {
                bt[k * m + j] = b;
            }
        }
        let mut out = Matrix::from_vec(self.rows, m, vec![-0.0; self.rows * m]);
        for i in 0..self.rows {
            let o_row = out.row_mut(i);
            // `max(1)`: chunks must be non-empty; with m = 0 there is no output.
            for (&a, bt_row) in self.row(i).iter().zip(bt.chunks_exact(m.max(1))) {
                for (o, &b) in o_row.iter_mut().zip(bt_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Adds `rhs` scaled by `alpha` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Applies a function element-wise, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        let b = Matrix::from_rows(2, 2, &[5., 6., 7., 8.]);
        assert_eq!(a.matmul(&b).as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Matrix::from_rows(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_rows(3, 2, &[1., 0., 0., 1., 1., 1.]);
        // aᵀ b computed by hand: aᵀ is 2x3.
        let expect = Matrix::from_rows(2, 3, &[1., 3., 5., 2., 4., 6.]).matmul(&b);
        assert_eq!(a.t_matmul(&b), expect);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_rows(2, 3, &[1., 1., 0., 0., 1., 1.]);
        let bt = Matrix::from_rows(3, 2, &[1., 0., 1., 1., 0., 1.]);
        assert_eq!(a.matmul_t(&b), a.matmul(&bt));
    }

    /// The dot product `matmul_t` promises to reproduce bit for bit.
    fn reference_matmul_t(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let mut out = Vec::with_capacity(a.rows() * b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out.push(a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum());
            }
        }
        out
    }

    /// Random values with a quarter of them replaced by `+0.0` / `-0.0`, so
    /// products and partial sums hit every signed-zero case.
    fn signed_zero_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.random_range(-1.0f32..1.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_matmul_t_bits(a: &Matrix, b: &Matrix) {
        let got: Vec<u32> = a
            .matmul_t(b)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = reference_matmul_t(a, b)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            got,
            want,
            "{}x{} · ({}x{})ᵀ differs from the dot-product sum",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
    }

    #[test]
    fn matmul_t_is_bit_identical_to_dot_product_sum() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        // The three DLRM backward shapes (512-512-256 hidden widths), then
        // small and degenerate ones: k = 1, k = 0 (empty sums), m = 1.
        for (n, k, m) in [
            (128, 512, 512),
            (128, 256, 512),
            (128, 512, 32),
            (7, 13, 5),
            (4, 1, 6),
            (3, 0, 4),
            (5, 9, 1),
        ] {
            let a = signed_zero_matrix(n, k, &mut rng);
            let b = signed_zero_matrix(m, k, &mut rng);
            assert_matmul_t_bits(&a, &b);
        }
    }

    #[test]
    fn matmul_t_keeps_signed_zeros() {
        // All-zero products: the sum's sign depends on the starting value
        // and on not skipping zero inputs.
        let a = Matrix::from_rows(2, 2, &[-0.0, 0.0, -0.0, -0.0]);
        let b = Matrix::from_rows(2, 2, &[1.0, 1.0, 1.0, -1.0]);
        assert_matmul_t_bits(&a, &b);
        assert_matmul_t_bits(&Matrix::zeros(2, 0), &Matrix::zeros(3, 0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_rows(1, 3, &[1., 2., 3.]);
        let b = Matrix::from_rows(1, 3, &[10., 10., 10.]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6., 7., 8.]);
    }

    #[test]
    fn map_inplace_applies() {
        let mut a = Matrix::from_rows(1, 3, &[-1., 0., 2.]);
        a.map_inplace(|v| v.max(0.0));
        assert_eq!(a.as_slice(), &[0., 0., 2.]);
    }

    #[test]
    fn row_accessors() {
        let mut a = Matrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.row(1), &[3., 4.]);
        a.row_mut(0)[1] = 9.;
        assert_eq!(a.as_slice(), &[1., 9., 3., 4.]);
        assert_eq!((a.rows(), a.cols()), (2, 2));
        assert_eq!(a.to_string(), "Matrix(2x2)");
    }

    #[test]
    fn from_vec_owns() {
        let m = Matrix::from_vec(1, 2, vec![7., 8.]);
        assert_eq!(m.as_slice(), &[7., 8.]);
    }
}
