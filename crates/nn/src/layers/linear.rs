//! Fully-connected layer.

use crate::layers::{Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use rand::Rng;
use tensor::{init, Tensor};

/// A dense affine layer `y = x·Wᵀ + b` over `[batch, in] → [batch, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    weight: Param, // [out, in]
    bias: Param,   // [out]
    input: Option<Tensor<f32>>,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(rng: &mut impl Rng, in_features: usize, out_features: usize) -> Self {
        let weight = Param::new(init::kaiming_normal(rng, &[out_features, in_features]));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear {
            name: format!("linear{in_features}x{out_features}"),
            weight,
            bias,
            input: None,
        }
    }

    /// Rebuilds a linear layer from checkpointed parts (`weight` is flat
    /// `[out, in]`).
    pub(crate) fn from_parts(
        in_features: usize,
        out_features: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Self {
        Linear {
            name: format!("linear{in_features}x{out_features}"),
            weight: Param::new(Tensor::from_vec(weight, &[out_features, in_features])),
            bias: Param::new(Tensor::from_vec(bias, &[out_features])),
            input: None,
        }
    }

    /// `(in_features, out_features)`.
    pub fn features(&self) -> (usize, usize) {
        (self.weight.value.dims()[1], self.weight.value.dims()[0])
    }

    /// Immutable access to the weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor<f32> {
        &self.weight.value
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        assert_eq!(x.shape().ndim(), 2, "linear expects [batch, features]");
        let (out_f, in_f) = (self.weight.value.dims()[0], self.weight.value.dims()[1]);
        assert_eq!(x.dims()[1], in_f, "feature mismatch");
        self.input = train.then(|| x.clone());
        let mut y = x.matmul(&self.weight.value.transpose());
        let b = self.bias.value.as_slice();
        for row in 0..x.dims()[0] {
            for j in 0..out_f {
                y.as_mut_slice()[row * out_f + j] += b[j];
            }
        }
        y
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let x = self.input.as_ref().expect(NO_TRAINING_FORWARD);
        // dW = gradᵀ·x ; db = Σ_batch grad ; dx = grad·W
        let dw = grad.transpose().matmul(x);
        self.weight.grad += &dw;
        let (n, out_f) = (grad.dims()[0], grad.dims()[1]);
        for i in 0..n {
            for j in 0..out_f {
                self.bias.grad.as_mut_slice()[j] += grad.as_slice()[i * out_f + j];
            }
        }
        grad.matmul(&self.weight.value)
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.weight.step(update);
        self.bias.step(update);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        let (in_features, out_features) = self.features();
        Some(crate::layers::checkpoint::LayerSnapshot::Linear {
            in_features,
            out_features,
            weight: self.weight.value.as_slice().to_vec(),
            bias: self.bias.value.as_slice().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 3, 2);
        // Overwrite with known weights.
        l.weight.value = Tensor::from_vec(vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0], &[2, 3]);
        l.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0], &[1, 3]);
        let y = l.forward(&x, true);
        assert_eq!(y.as_slice(), &[1.0 - 3.0 + 0.5, 2.0 + 2.0 - 0.5]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 4, 3);
        let x = Tensor::from_vec(vec![0.5_f32, -1.0, 2.0, 0.1, 1.0, 0.0, -0.5, 0.3], &[2, 4]);
        // Loss = sum of outputs → upstream grad of ones.
        let _ = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(&[2, 3]));

        let eps = 1e-3;
        // Check dL/dW numerically for a few entries.
        for &(i, j) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let mut lp = l.clone();
            let idx = i * 4 + j;
            lp.weight.value.as_mut_slice()[idx] += eps;
            let y1 = lp.forward(&x, true).sum();
            let mut lm = l.clone();
            lm.weight.value.as_mut_slice()[idx] -= eps;
            let y0 = lm.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = l.weight.grad.as_slice()[idx];
            assert!((fd - got).abs() < 1e-2, "({i},{j}): fd={fd} got={got}");
        }
        // Check dL/dx numerically for one entry.
        let mut xp = x.clone();
        xp.as_mut_slice()[2] += eps;
        let mut l2 = l.clone();
        let y1 = l2.forward(&xp, true).sum();
        let mut xm = x.clone();
        xm.as_mut_slice()[2] -= eps;
        let y0 = l2.forward(&xm, true).sum();
        let fd = (y1 - y0) / (2.0 * eps);
        assert!((fd - gin.as_slice()[2]).abs() < 1e-2);
    }

    #[test]
    fn step_clears_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(&mut rng, 2, 2);
        let x = Tensor::ones(&[1, 2]);
        let _ = l.forward(&x, true);
        let _ = l.backward(&Tensor::ones(&[1, 2]));
        l.step(&SgdUpdate {
            lr: 0.01,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        assert!(l.weight.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(l.param_count(), 6);
    }
}
