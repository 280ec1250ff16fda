//! Trainable parameter storage with SGD-with-momentum state.

use crate::optim::SgdUpdate;
use tensor::Tensor;

/// A trainable tensor: value, accumulated gradient, and momentum buffer.
///
/// # Example
///
/// ```
/// use nn::layers::Param;
/// use nn::optim::SgdUpdate;
/// use tensor::Tensor;
///
/// let mut p = Param::new(Tensor::from_vec(vec![1.0_f32], &[1]));
/// p.grad.as_mut_slice()[0] = 2.0;
/// p.step(&SgdUpdate { lr: 0.5, momentum: 0.0, weight_decay: 0.0 });
/// assert_eq!(p.value.as_slice()[0], 0.0);
/// assert_eq!(p.grad.as_slice()[0], 0.0); // cleared by step
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor<f32>,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor<f32>,
    velocity: Tensor<f32>,
}

impl Param {
    /// Wraps an initial value with zeroed gradient and momentum.
    pub fn new(value: Tensor<f32>) -> Self {
        let grad = Tensor::zeros(value.dims());
        let velocity = Tensor::zeros(value.dims());
        Param {
            value,
            grad,
            velocity,
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` for zero-element parameters (a fully pruned BCM stack).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Applies SGD with momentum and decoupled-style L2 weight decay:
    /// `v ← μ·v + (g + wd·w)`, `w ← w − lr·v`, then clears the gradient.
    pub fn step(&mut self, update: &SgdUpdate) {
        let lr = update.lr;
        let mu = update.momentum;
        let wd = update.weight_decay;
        let w = self.value.as_mut_slice();
        let g = self.grad.as_mut_slice();
        let v = self.velocity.as_mut_slice();
        for i in 0..w.len() {
            let grad = g[i] + wd * w[i];
            v[i] = mu * v[i] + grad;
            w[i] -= lr * v[i];
            g[i] = 0.0;
        }
    }

    /// Keeps the rows of a `[rows, width]` parameter where `keep` is
    /// set — value, gradient and momentum alike, in order. A BCM stack
    /// drops an eliminated block's row this way.
    pub(crate) fn retain_rows(&mut self, keep: &[bool]) {
        let width = self.value.dims()[1];
        let rows = keep.iter().filter(|&&k| k).count();
        for t in [&mut self.value, &mut self.grad, &mut self.velocity] {
            let kept = (t.as_slice().chunks_exact(width).zip(keep))
                .filter(|&(_, &k)| k)
                .flat_map(|(row, _)| row)
                .copied()
                .collect();
            *t = Tensor::from_vec(kept, &[rows, width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn momentum_accumulates() {
        let mut p = Param::new(Tensor::from_vec(vec![0.0_f32], &[1]));
        let u = SgdUpdate {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
        };
        p.grad.as_mut_slice()[0] = 1.0;
        p.step(&u); // v=1, w=-1
        p.grad.as_mut_slice()[0] = 1.0;
        p.step(&u); // v=1.5, w=-2.5
        assert!((p.value.as_slice()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut p = Param::new(Tensor::from_vec(vec![10.0_f32], &[1]));
        let u = SgdUpdate {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.1,
        };
        p.step(&u); // grad = 0 + 0.1*10 = 1 → w = 10 - 0.1 = 9.9
        assert!((p.value.as_slice()[0] - 9.9).abs() < 1e-6);
    }

    #[test]
    fn retain_rows_keeps_live_rows_and_their_momentum() {
        let mut p = Param::new(Tensor::from_vec(
            vec![1.0_f32, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[3, 2],
        ));
        let u = SgdUpdate {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
        };
        p.grad.as_mut_slice().fill(1.0);
        p.step(&u); // v = 1 everywhere, w -= 1
        p.grad
            .as_mut_slice()
            .copy_from_slice(&[7.0, 7.0, 8.0, 8.0, 9.0, 9.0]);
        p.retain_rows(&[true, false, true]);
        assert_eq!(p.value.dims(), &[2, 2]);
        assert_eq!(p.value.as_slice(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(p.grad.as_slice(), &[7.0, 7.0, 9.0, 9.0]);
        p.grad.as_mut_slice().fill(0.0);
        p.step(&u); // v = 0.5: the kept momentum moves the kept rows
        assert_eq!(p.value.as_slice(), &[-0.5, 0.5, 3.5, 4.5]);
    }
}
