//! Block-circulant fully-connected layer.
//!
//! The paper's framework applies to FC layers exactly as to convolutions
//! (its FC notation is the `K = 1` case of Fig. 1b); prior BCM work
//! (CirCNN, C-LSTM, FTRANS) compressed FC/LSTM/transformer layers this
//! way. `BcmLinear` is a 1-tap [`GateStack`] — the same weight store as
//! [`crate::layers::BcmConv2d`] and the recurrent gates — plus a bias, and
//! exposes the same [`BcmLayer`] surface as the convolutions, so
//! Algorithm 1 prunes it transparently. Training multiplies the store's
//! dense expansion; inference runs the batched "FFT → eMAC → IFFT" path
//! against the store's prepared spectra.

use crate::layers::bcm::StackedLayer;
use crate::layers::checkpoint::{LayerSnapshot, StackSnapshot};
use crate::layers::gates::GateStack;
use crate::layers::{BcmLayer, Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use circulant::{BlockCirculant, ConvBlockCirculant};
use rand::Rng;
use tensor::Tensor;

/// A block-circulant affine layer `y = C(w)·x + b` over
/// `[batch, in] → [batch, out]`.
#[derive(Debug, Clone)]
pub struct BcmLinear {
    name: String,
    /// The `[out, in]` block-circulant weight.
    weights: GateStack,
    bias: Param,
    input: Option<Tensor<f32>>,
}

impl BcmLinear {
    /// Creates a Kaiming-scaled block-circulant linear layer.
    ///
    /// # Panics
    ///
    /// Panics if features are not divisible by `bs` or `bs` is not a power
    /// of two ≥ 2.
    pub fn new(rng: &mut impl Rng, in_features: usize, out_features: usize, bs: usize) -> Self {
        BcmLinear {
            name: format!("bcmlinear{in_features}x{out_features}bs{bs}"),
            weights: GateStack::new(rng, in_features, out_features, 1, bs),
            bias: Param::new(Tensor::zeros(&[out_features])),
            input: None,
        }
    }

    /// Rebuilds a BCM linear layer from its checkpoint record.
    pub(crate) fn from_parts(weights: StackSnapshot, bias: Vec<f32>) -> Self {
        let (in_features, out_features, bs) = (weights.c_in, weights.c_out, weights.bs);
        assert_eq!(bias.len(), out_features, "bias length");
        BcmLinear {
            name: format!("bcmlinear{in_features}x{out_features}bs{bs}"),
            weights: GateStack::from_snapshot(weights),
            bias: Param::new(Tensor::from_vec(bias, &[out_features])),
            input: None,
        }
    }

    /// `(in_features, out_features)`.
    pub fn features(&self) -> (usize, usize) {
        let layout = self.weights.layout();
        (layout.c_in, layout.c_out)
    }

    /// The folded grid (for analysis and hardware export).
    pub fn folded_grid(&self) -> BlockCirculant<f32> {
        self.weights.snapshot().folded_grid()
    }
}

impl Layer for BcmLinear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        assert_eq!(x.shape().ndim(), 2, "bcm linear expects [batch, features]");
        let (inf, outf) = self.features();
        assert_eq!(x.dims()[1], inf, "feature mismatch");
        self.input = train.then(|| x.clone());
        let n = x.dims()[0];
        let mut y = if train {
            x.matmul(&self.weights.dense().transpose())
        } else {
            Tensor::from_vec(self.weights.grid().matmat(x.as_slice(), n), &[n, outf])
        };
        let b = self.bias.value.as_slice();
        for row in 0..n {
            for j in 0..outf {
                y.as_mut_slice()[row * outf + j] += b[j];
            }
        }
        y
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let x = self.input.as_ref().expect(NO_TRAINING_FORWARD);
        self.weights.accumulate_grad(&grad.transpose().matmul(x));
        let (n, outf) = (grad.dims()[0], grad.dims()[1]);
        for i in 0..n {
            for j in 0..outf {
                self.bias.grad.as_mut_slice()[j] += grad.as_slice()[i * outf + j];
            }
        }
        grad.matmul(self.weights.dense())
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.weights.step(update);
        self.bias.step(update);
    }

    fn param_count(&self) -> usize {
        self.trained_param_count() + self.bias.len()
    }

    fn params(&self) -> Vec<&Param> {
        self.weights.params().iter().chain([&self.bias]).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let bias = [&mut self.bias];
        self.weights.params_mut().iter_mut().chain(bias).collect()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn bcm(&self) -> Option<&dyn BcmLayer> {
        Some(self)
    }

    fn bcm_mut(&mut self) -> Option<&mut dyn BcmLayer> {
        Some(self)
    }

    fn snapshot(&self) -> Option<LayerSnapshot> {
        Some(LayerSnapshot::BcmLinear {
            weights: self.weights.snapshot(),
            bias: self.bias.value.as_slice().to_vec(),
        })
    }
}

impl StackedLayer for BcmLinear {
    fn stacks(&self) -> Vec<&GateStack> {
        vec![&self.weights]
    }

    fn stacks_mut(&mut self) -> Vec<&mut GateStack> {
        vec![&mut self.weights]
    }

    fn fold(&self) -> ConvBlockCirculant<f32> {
        self.weights.snapshot().folded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    #[test]
    fn forward_matches_folded_grid_matvec() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = BcmLinear::new(&mut rng, 8, 12, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8], 0.0, 1.0);
        let y = l.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let grid = l.folded_grid();
        for row in 0..2 {
            let xin: Vec<f32> = x.as_slice()[row * 8..(row + 1) * 8].to_vec();
            let want = grid.matvec_naive(&xin);
            for j in 0..12 {
                // bias is zero-initialized
                assert!((y.at(&[row, j]) - want[j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = BcmLinear::new(&mut rng, 8, 8, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[3, 8], 0.0, 1.0);
        let _ = l.forward(&x, true);
        let _ = l.backward(&Tensor::ones(&[3, 8]));
        let eps = 1e-3;
        for idx in [0usize, 5, 11] {
            let mut p = l.clone();
            p.weights.params_mut()[0].value.as_mut_slice()[idx] += eps;
            let y1 = p.forward(&x, true).sum();
            let mut m = l.clone();
            m.weights.params_mut()[0].value.as_mut_slice()[idx] -= eps;
            let y0 = m.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = l.weights.params()[0].grad.as_slice()[idx];
            assert!((fd - got).abs() < 2e-2, "idx={idx}: fd={fd} got={got}");
        }
    }

    #[test]
    fn pruning_and_accounting() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = BcmLinear::new(&mut rng, 16, 8, 4);
        assert_eq!(l.block_count(), 2 * 4);
        assert_eq!(l.dense_param_count(), 16 * 8);
        l.eliminate(&[0, 3]);
        assert_eq!(l.live_blocks(), 6);
        assert_eq!(l.folded_param_count(), 24);
        assert_eq!(l.skip_index().iter().filter(|&&b| !b).count(), 2);
        assert_eq!(l.importances()[0], 0.0);
        // The pruned blocks stay zero through steps.
        l.step(&SgdUpdate {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-3,
        });
        assert_eq!(l.importances()[0], 0.0);
    }

    #[test]
    fn exposed_through_network_bcm_surface() {
        use crate::layers::Network;
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new("fc", vec![Box::new(BcmLinear::new(&mut rng, 16, 16, 8))]);
        assert_eq!(net.bcm_block_count(), 4);
        assert_eq!(net.bcm_importances().len(), 4);
    }

    #[test]
    fn network_counts_the_bias_once_on_both_sides() {
        use crate::layers::Network;
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Network::new("fc", vec![Box::new(BcmLinear::new(&mut rng, 16, 8, 4))]);
        net.bcm_eliminate(&[0, 3]);
        // 6 live blocks × BS 4 folded weights against 16·8 dense ones,
        // plus the 8 bias words on each side.
        assert_eq!(net.folded_param_count(), 6 * 4 + 8);
        assert_eq!(net.dense_equiv_param_count(), 16 * 8 + 8);
    }

    #[test]
    fn inference_path_matches_training_path() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut l = BcmLinear::new(&mut rng, 16, 8, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[4, 16], 0.0, 1.0);
        let dense = l.forward(&x, true);
        let spectral = l.forward(&x, false);
        for (a, b) in dense.as_slice().iter().zip(spectral.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Pruning invalidates the cached grid; the spectral path honors the
        // new skip index.
        l.eliminate(&[0, 5]);
        let dense = l.forward(&x, true);
        let spectral = l.forward(&x, false);
        for (a, b) in dense.as_slice().iter().zip(spectral.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn backward_reuses_forward_expansion() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = BcmLinear::new(&mut rng, 8, 8, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8], 0.0, 1.0);
        let _ = l.forward(&x, true);
        assert!(l.weights.caches_built().0, "forward caches the expansion");
        let _ = l.backward(&Tensor::ones(&[2, 8]));
        assert!(l.weights.caches_built().0, "backward keeps it for reuse");
        let _ = l.forward(&x, false);
        assert_eq!(l.weights.caches_built(), (true, true, false));
        l.step(&SgdUpdate {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        assert!(
            !l.weights.caches_built().0,
            "step invalidates the expansion"
        );
        assert!(!l.weights.caches_built().1);
        // The mutable parameter path (sync, gradchecks) invalidates too.
        let _ = l.forward(&x, true);
        let _ = l.forward(&x, false);
        let _ = l.params_mut();
        assert_eq!(l.weights.caches_built(), (false, false, false));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_features() {
        let mut rng = StdRng::seed_from_u64(4);
        BcmLinear::new(&mut rng, 10, 8, 4);
    }
}
