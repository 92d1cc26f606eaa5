//! Dense (fully-connected) layers.

use crate::activation::Activation;
use cocktail_math::{Interval, Matrix};
use serde::{Deserialize, Serialize};

/// A dense layer `a = σ(W x + b)` with an `out × in` weight matrix.
///
/// # Examples
///
/// ```
/// use cocktail_math::Matrix;
/// use cocktail_nn::{Activation, Dense};
///
/// let layer = Dense::from_parts(
///     Matrix::from_rows(vec![vec![1.0, -1.0]]),
///     vec![0.5],
///     Activation::Identity,
/// );
/// assert_eq!(layer.forward(&[2.0, 1.0]).1, vec![1.5]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    biases: Vec<f64>,
    activation: Activation,
}

impl Dense {
    /// Builds a layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `biases.len() != weights.rows()`.
    pub fn from_parts(weights: Matrix, biases: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(
            biases.len(),
            weights.rows(),
            "bias length must equal output width"
        );
        Self {
            weights,
            biases,
            activation,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable weight matrix (used by optimizers).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// The bias vector.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Mutable bias vector (used by optimizers).
    pub fn biases_mut(&mut self) -> &mut [f64] {
        &mut self.biases
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.biases.len()
    }

    /// Forward pass: returns `(pre_activation, activation)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut z = self.weights.matvec(x);
        for (zi, bi) in z.iter_mut().zip(&self.biases) {
            *zi += bi;
        }
        let a = self.activation.apply_vec(&z);
        (z, a)
    }

    /// Batched forward pass over a matrix of row-vector inputs.
    ///
    /// `x` is `batch × input_dim`; returns `(Z, A)`, both
    /// `batch × output_dim`. Each output row is bit-identical to
    /// [`Dense::forward`] on the corresponding input row: the underlying
    /// `X Wᵀ` product accumulates in the same order as `matvec`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> (Matrix, Matrix) {
        let batch = x.rows();
        let mut z = Matrix::zeros(batch, self.output_dim());
        let mut a = Matrix::zeros(batch, self.output_dim());
        self.forward_batch_into(x, &mut z, &mut a);
        (z, a)
    }

    /// [`Dense::forward_batch`] writing into caller-owned scratch matrices.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()` or the scratch shapes are
    /// not `x.rows() × self.output_dim()`.
    pub fn forward_batch_into(&self, x: &Matrix, z: &mut Matrix, a: &mut Matrix) {
        self.forward_batch_into_with(x, z, a, &mut Vec::new());
    }

    /// [`Dense::forward_batch_into`] with a caller-owned transpose scratch
    /// buffer, so a warmed steady-state forward touches no allocator.
    ///
    /// # Panics
    ///
    /// As [`Dense::forward_batch_into`].
    pub fn forward_batch_into_with(
        &self,
        x: &Matrix,
        z: &mut Matrix,
        a: &mut Matrix,
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(x.cols(), self.input_dim(), "input dimension mismatch");
        x.matmul_transpose_b_into_with(&self.weights, z, scratch);
        let width = self.output_dim();
        for row in z.as_mut_slice().chunks_mut(width) {
            for (zi, bi) in row.iter_mut().zip(&self.biases) {
                *zi += bi;
            }
        }
        assert_eq!(a.shape(), z.shape(), "activation scratch shape mismatch");
        for (ai, &zi) in a.as_mut_slice().iter_mut().zip(z.as_slice()) {
            *ai = self.activation.apply(zi);
        }
    }

    /// Batched `δ = grad_output ⊙ σ'(z)`, the shared first step of the
    /// batched backward pass. `a` is the layer's stored output `σ(z)`:
    /// the derivative is reconstructed from it via
    /// [`Activation::derivative_from_output`], skipping the transcendental
    /// re-evaluation while staying bit-identical to `derivative(z)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn delta_batch(&self, z: &Matrix, a: &Matrix, grad_output: &Matrix) -> Matrix {
        assert_eq!(z.shape(), grad_output.shape(), "delta shape mismatch");
        assert_eq!(a.shape(), z.shape(), "activation shape mismatch");
        let mut delta = grad_output.clone();
        for ((d, &zi), &ai) in delta
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice())
            .zip(a.as_slice())
        {
            *d *= self.activation.derivative_from_output(zi, ai);
        }
        delta
    }

    /// Batched backward pass.
    ///
    /// `x`, `z`, `a` and `grad_output` hold one sample per row (`a` is the
    /// stored output `σ(z)`). Returns `(grad_weights, grad_biases,
    /// grad_input)` where the parameter gradients are **summed** over the
    /// batch (`grad_weights = δᵀ X`, `grad_biases` the column sums of `δ`)
    /// and `grad_input` is per-row.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn backward_batch(
        &self,
        x: &Matrix,
        z: &Matrix,
        a: &Matrix,
        grad_output: &Matrix,
    ) -> (Matrix, Vec<f64>, Matrix) {
        assert_eq!(x.cols(), self.input_dim(), "input dimension mismatch");
        assert_eq!(x.rows(), z.rows(), "batch size mismatch");
        let delta = self.delta_batch(z, a, grad_output);
        let grad_w = delta.matmul_transpose_a(x);
        let mut grad_b = vec![0.0; self.output_dim()];
        for row in delta.as_slice().chunks(self.output_dim()) {
            for (g, d) in grad_b.iter_mut().zip(row) {
                *g += d;
            }
        }
        let grad_x = delta.matmul(&self.weights);
        (grad_w, grad_b, grad_x)
    }

    /// Backward pass for one sample.
    ///
    /// Given the loss gradient w.r.t. this layer's *activation* output,
    /// the cached pre-activation `z` and the layer input `x`, returns
    /// `(grad_weights, grad_biases, grad_input)`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn backward(
        &self,
        x: &[f64],
        z: &[f64],
        grad_output: &[f64],
    ) -> (Matrix, Vec<f64>, Vec<f64>) {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        assert_eq!(
            z.len(),
            self.output_dim(),
            "pre-activation dimension mismatch"
        );
        assert_eq!(
            grad_output.len(),
            self.output_dim(),
            "gradient dimension mismatch"
        );
        // δ = grad_output ⊙ σ'(z)
        let delta: Vec<f64> = grad_output
            .iter()
            .zip(z)
            .map(|(&g, &zi)| g * self.activation.derivative(zi))
            .collect();
        let grad_w = Matrix::outer(&delta, x);
        let grad_x = self.weights.matvec_transposed(&delta);
        (grad_w, delta, grad_x)
    }

    /// Sound interval propagation through the layer.
    ///
    /// Uses the centre/radius form: for `z = W x + b` with `x ∈ [c − r, c + r]`,
    /// `z ∈ [W c + b − |W| r, W c + b + |W| r]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward_interval(&self, x: &[Interval]) -> Vec<Interval> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let centre: Vec<f64> = x.iter().map(Interval::mid).collect();
        let radius: Vec<f64> = x.iter().map(Interval::radius).collect();
        let zc = {
            let mut v = self.weights.matvec(&centre);
            for (vi, bi) in v.iter_mut().zip(&self.biases) {
                *vi += bi;
            }
            v
        };
        let abs_w = self.weights.map(f64::abs);
        let zr = abs_w.matvec(&radius);
        zc.iter()
            .zip(&zr)
            .map(|(&c, &r)| self.activation.apply_interval(Interval::new(c - r, c + r)))
            .collect()
    }

    /// This layer's contribution to the network Lipschitz bound:
    /// `factor(σ) · ‖W‖` where the norm is the spectral norm.
    pub fn lipschitz_bound(&self) -> f64 {
        self.activation.lipschitz_factor() * self.weights.spectral_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Dense {
        Dense::from_parts(
            Matrix::from_rows(vec![vec![1.0, 2.0], vec![-0.5, 0.25]]),
            vec![0.1, -0.2],
            Activation::Tanh,
        )
    }

    #[test]
    fn forward_matches_hand_computation() {
        let l = Dense::from_parts(
            Matrix::from_rows(vec![vec![2.0, 0.0]]),
            vec![1.0],
            Activation::Identity,
        );
        let (z, a) = l.forward(&[3.0, 5.0]);
        assert_eq!(z, vec![7.0]);
        assert_eq!(a, vec![7.0]);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let l = layer();
        let x = [0.3, -0.7];
        let upstream = [1.0, -2.0];
        let (gw, gb, gx) = {
            let (z, _) = l.forward(&x);
            l.backward(&x, &z, &upstream)
        };
        let h = 1e-6;
        let loss = |l: &Dense, x: &[f64]| -> f64 {
            let (_, a) = l.forward(x);
            a.iter().zip(&upstream).map(|(ai, ui)| ai * ui).sum()
        };
        // weight gradients
        for r in 0..2 {
            for c in 0..2 {
                let mut lp = l.clone();
                lp.weights_mut()[(r, c)] += h;
                let mut lm = l.clone();
                lm.weights_mut()[(r, c)] -= h;
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!(
                    (fd - gw[(r, c)]).abs() < 1e-5,
                    "w[{r}{c}]: {fd} vs {}",
                    gw[(r, c)]
                );
            }
        }
        // bias gradients
        #[allow(
            clippy::needless_range_loop,
            reason = "i indexes three parallel structures"
        )]
        for i in 0..2 {
            let mut lp = l.clone();
            lp.biases_mut()[i] += h;
            let mut lm = l.clone();
            lm.biases_mut()[i] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!((fd - gb[i]).abs() < 1e-5);
        }
        // input gradients
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            assert!((fd - gx[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_batch_rows_match_per_sample_bitwise() {
        let l = layer();
        let xs = vec![vec![0.3, -0.7], vec![1.2, 0.4], vec![-0.9, 0.0]];
        let x = Matrix::from_rows(xs.clone());
        let (z, a) = l.forward_batch(&x);
        for (r, xr) in xs.iter().enumerate() {
            let (zr, ar) = l.forward(xr);
            assert_eq!(z.row(r), zr.as_slice(), "z row {r}");
            assert_eq!(a.row(r), ar.as_slice(), "a row {r}");
        }
    }

    #[test]
    fn backward_batch_matches_per_sample_sums() {
        let l = layer();
        let xs = vec![vec![0.3, -0.7], vec![1.2, 0.4]];
        let gs = vec![vec![1.0, -2.0], vec![0.5, 0.25]];
        let x = Matrix::from_rows(xs.clone());
        let (z, a) = l.forward_batch(&x);
        let (gw, gb, gx) = l.backward_batch(&x, &z, &a, &Matrix::from_rows(gs.clone()));
        let mut gw_ref = Matrix::zeros(2, 2);
        let mut gb_ref = vec![0.0; 2];
        for (r, (xr, gr)) in xs.iter().zip(&gs).enumerate() {
            let (zr, _) = l.forward(xr);
            let (gwr, gbr, gxr) = l.backward(xr, &zr, gr);
            gw_ref.axpy(1.0, &gwr);
            for (acc, v) in gb_ref.iter_mut().zip(&gbr) {
                *acc += v;
            }
            for (batch, single) in gx.row(r).iter().zip(&gxr) {
                assert!((batch - single).abs() < 1e-14, "gx row {r}");
            }
        }
        for (batch, single) in gw.as_slice().iter().zip(gw_ref.as_slice()) {
            assert!((batch - single).abs() < 1e-14);
        }
        for (batch, single) in gb.iter().zip(&gb_ref) {
            assert!((batch - single).abs() < 1e-14);
        }
    }

    #[test]
    fn interval_forward_contains_point_forward() {
        let l = layer();
        let box_in = [Interval::new(-0.5, 0.5), Interval::new(0.0, 1.0)];
        let bounds = l.forward_interval(&box_in);
        for i in 0..=8 {
            for j in 0..=8 {
                let x = [-0.5 + i as f64 / 8.0, j as f64 / 8.0];
                let (_, a) = l.forward(&x);
                for (ai, bi) in a.iter().zip(&bounds) {
                    assert!(bi.inflate(1e-12).contains(*ai));
                }
            }
        }
    }

    #[test]
    fn lipschitz_bound_dominates_sampled_pairs() {
        let l = layer();
        let lb = l.lipschitz_bound();
        let pts = [[0.1, 0.2], [-0.3, 0.9], [0.7, -0.7], [0.0, 0.0]];
        for a in &pts {
            for b in &pts {
                let (_, ya) = l.forward(a);
                let (_, yb) = l.forward(b);
                let dy = cocktail_math::vector::norm_2(&cocktail_math::vector::sub(&ya, &yb));
                let dx = cocktail_math::vector::norm_2(&cocktail_math::vector::sub(a, b));
                assert!(dy <= lb * dx + 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mismatched_bias_panics() {
        Dense::from_parts(Matrix::identity(2), vec![0.0], Activation::Identity);
    }

    #[test]
    fn param_count() {
        assert_eq!(layer().param_count(), 6);
    }
}
