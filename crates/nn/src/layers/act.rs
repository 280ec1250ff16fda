//! Stateless shape/activation layers: ReLU and Flatten.

use crate::layers::{Layer, NO_TRAINING_FORWARD};
use tensor::Tensor;

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        self.mask = train.then(|| x.as_slice().iter().map(|&v| v > 0.0).collect());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let mask = self.mask.as_ref().expect(NO_TRAINING_FORWARD);
        assert_eq!(mask.len(), grad.len(), "gradient shape changed");
        let mut out = grad.clone();
        for (g, &m) in out.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
        out
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        Some(crate::layers::checkpoint::LayerSnapshot::Relu)
    }
}

/// Flattens `[N, C, H, W]` (or any shape) to `[N, rest]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let dims = x.dims();
        assert!(dims.len() >= 2, "flatten needs a batch dimension");
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        self.input_dims = train.then(|| dims.to_vec());
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let dims = self.input_dims.as_ref().expect(NO_TRAINING_FORWARD);
        grad.reshape(dims)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        Some(crate::layers::checkpoint::LayerSnapshot::Flatten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0_f32, 2.0, 0.0, 3.0], &[1, 4]);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = r.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::<f32>::ones(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "backward before training forward")]
    fn relu_backward_requires_forward() {
        ReLU::new().backward(&Tensor::ones(&[1]));
    }
}
