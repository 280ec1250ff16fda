//! Block-circulant convolution (plain BCM and hadaBCM) and the
//! [`BcmLayer`] surface every BCM layer shares.
//!
//! A [`BcmConv2d`] stores only its [`GateStack`]: `BS` values per block
//! (paper §II-A), trained either directly or, for hadaBCM (§III-A), as two
//! factors whose Hadamard product folds into the same plain BCM.
//!
//! An inference forward runs the paper's datapath: the live blocks'
//! folded vectors are transformed once into half-spectra, and the layer
//! runs "FFT → eMAC → IFFT" through `circulant::schedule`'s one conv
//! schedule (the `f32` instance of the schedule `hwsim`'s fixed-point
//! datapath runs), so pruned blocks cost nothing and no dense weight is
//! built. A training forward expands the folded vectors to a dense weight
//! and reuses the im2col core — mathematically the same product, and what
//! the backward pass needs. The backward pass projects the dense weight
//! gradient back onto the circulant subspace — the exact chain rule
//! through the weight-tying `W[i][j] = w[(i−j) mod BS]` — and, for
//! hadaBCM, splits it between the factors; both steps live in the stack.
//!
//! Each BCM layer lists its stacks in local block order
//! ([`StackedLayer`]); one blanket impl writes the whole [`BcmLayer`]
//! surface over that list, and only `folded` is per layer.

use crate::layers::checkpoint::{LayerSnapshot, StackSnapshot};
use crate::layers::conv::ConvCore;
use crate::layers::gates::GateStack;
use crate::layers::{Layer, Param};
use crate::optim::SgdUpdate;
use circulant::ConvBlockCirculant;
use rand::Rng;
use tensor::Tensor;

/// The block-circulant surface shared by every BCM layer, used by
/// Algorithm 1's pruner and the reports. Blocks are indexed in each
/// layer's local order: its stacks in turn, each tap-major, then
/// output-block, then input-block. The parameter counts are of weights
/// alone; a layer's biases count only through
/// [`crate::layers::Layer::param_count`].
pub trait BcmLayer {
    /// Block size `BS`.
    fn block_size(&self) -> usize;
    /// Total BCM count (`kh·kw·(c_out/BS)·(c_in/BS)` per stack).
    fn block_count(&self) -> usize;
    /// ℓ₂ norm of each block's folded defining vector, in block order.
    fn importances(&self) -> Vec<f64>;
    /// Eliminates blocks by local index (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if an index is not below [`BcmLayer::block_count`].
    fn eliminate(&mut self, local_indices: &[usize]);
    /// Number of live (unpruned) blocks.
    fn live_blocks(&self) -> usize;
    /// `true` per block when live — the skip-index bitmap.
    fn skip_index(&self) -> Vec<bool>;
    /// Folded inference weight parameters (`live · BS`).
    fn folded_param_count(&self) -> usize;
    /// Trainable weight parameters: `live · BS` per factor, so twice the
    /// folded count for hadaBCM.
    fn trained_param_count(&self) -> usize;
    /// Weight parameters of the dense equivalent.
    fn dense_param_count(&self) -> usize;
    /// The folded weights as a block-circulant conv structure.
    fn folded(&self) -> ConvBlockCirculant<f32>;
}

/// A layer whose weights are an ordered list of [`GateStack`]s.
pub(crate) trait StackedLayer {
    /// The stacks in local block order.
    fn stacks(&self) -> Vec<&GateStack>;
    /// Mutable variant of [`StackedLayer::stacks`], in the same order.
    fn stacks_mut(&mut self) -> Vec<&mut GateStack>;
    /// The folded weights as one structure ([`BcmLayer::folded`]): a
    /// multi-stack layer concatenates its stacks' grids.
    fn fold(&self) -> ConvBlockCirculant<f32>;
}

impl<T: StackedLayer> BcmLayer for T {
    fn block_size(&self) -> usize {
        self.stacks()[0].layout().bs
    }

    fn block_count(&self) -> usize {
        self.stacks().iter().map(|s| s.block_count()).sum()
    }

    fn importances(&self) -> Vec<f64> {
        self.stacks().iter().flat_map(|s| s.importances()).collect()
    }

    /// Routes each index to the stack that owns it: the stacks hold
    /// consecutive index ranges, in order.
    fn eliminate(&mut self, local_indices: &[usize]) {
        let total = self.block_count();
        assert!(
            local_indices.iter().all(|&i| i < total),
            "block index out of range"
        );
        let mut first = 0;
        for stack in self.stacks_mut() {
            let len = stack.block_count();
            let own: Vec<usize> = local_indices
                .iter()
                .filter_map(|&i| i.checked_sub(first).filter(|&j| j < len))
                .collect();
            stack.eliminate(&own);
            first += len;
        }
    }

    fn live_blocks(&self) -> usize {
        self.stacks().iter().map(|s| s.live_blocks()).sum()
    }

    fn skip_index(&self) -> Vec<bool> {
        self.stacks().iter().flat_map(|s| s.skip_index()).collect()
    }

    fn folded_param_count(&self) -> usize {
        self.stacks().iter().map(|s| s.folded_param_count()).sum()
    }

    fn trained_param_count(&self) -> usize {
        self.stacks().iter().map(|s| s.param_count()).sum()
    }

    fn dense_param_count(&self) -> usize {
        self.stacks().iter().map(|s| s.layout().dense_len()).sum()
    }

    fn folded(&self) -> ConvBlockCirculant<f32> {
        self.fold()
    }
}

/// BCM-compressed convolution over one block-circulant weight store:
/// plain BCM (one trainable defining vector per block, paper §II-A) or
/// hadaBCM (each block the Hadamard product of two trainable circulant
/// factors, §III-A, trained with the Eq. (1) gradient coupling and folded
/// into a plain BCM for inference).
#[derive(Debug, Clone)]
pub struct BcmConv2d {
    name: String,
    weights: GateStack,
    core: ConvCore,
}

impl BcmConv2d {
    /// Creates a Kaiming-scaled plain BCM convolution.
    ///
    /// The defining vectors are drawn with the std of the equivalent dense
    /// layer (`sqrt(2/fan_in)`), so folded activations match dense ones in
    /// scale.
    ///
    /// # Panics
    ///
    /// Panics if channels are not divisible by `bs` or `bs` is not a power
    /// of two ≥ 2.
    pub fn new(
        rng: &mut impl Rng,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bs: usize,
    ) -> Self {
        let weights = GateStack::new(rng, c_in, c_out, kernel, bs);
        Self::with_weights("bcmconv", weights, stride, pad)
    }

    /// Creates a hadaBCM convolution whose *folded* weights have the same
    /// Kaiming scale as the dense equivalent (each factor uses
    /// `sqrt(std_dense)`).
    ///
    /// # Panics
    ///
    /// As [`BcmConv2d::new`].
    pub fn new_hada(
        rng: &mut impl Rng,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bs: usize,
    ) -> Self {
        let weights = GateStack::new_hada(rng, c_in, c_out, kernel, bs);
        Self::with_weights("hadabcmconv", weights, stride, pad)
    }

    /// Rebuilds a BCM convolution from its checkpoint record.
    pub(crate) fn from_parts(stride: usize, pad: usize, weights: StackSnapshot) -> Self {
        Self::with_weights("bcmconv", GateStack::from_snapshot(weights), stride, pad)
    }

    /// Whether the dense expansion and the conv spectra are built.
    #[cfg(test)]
    pub(crate) fn caches_built(&self) -> (bool, bool) {
        let (dense, _, spectral) = self.weights.caches_built();
        (dense, spectral)
    }

    fn with_weights(kind: &str, weights: GateStack, stride: usize, pad: usize) -> Self {
        let l = *weights.layout();
        BcmConv2d {
            name: format!("{kind}{}x{}k{}bs{}", l.c_in, l.c_out, l.k, l.bs),
            core: ConvCore::new(l.c_in, l.c_out, l.k, l.k, stride, pad),
            weights,
        }
    }
}

impl Layer for BcmConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    /// A training forward multiplies the dense im2col expansion (the
    /// backward pass needs it); an inference forward runs the spectral
    /// datapath over the live blocks and never builds the expansion.
    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        if train {
            self.core.forward(x, self.weights.dense(), true)
        } else {
            self.core.forward_spectral(x, self.weights.spectral())
        }
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let (dw, dx) = self.core.backward(grad, self.weights.dense());
        self.weights.accumulate_grad(&dw);
        dx
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.weights.step(update);
    }

    fn param_count(&self) -> usize {
        self.trained_param_count()
    }

    fn params(&self) -> Vec<&Param> {
        self.weights.params().iter().collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weights.params_mut().iter_mut().collect()
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

    /// A hadaBCM conv records its folded vectors `a ⊙ b`, so it loads as a
    /// plain BCM with bit-identical inference (both expand the same f32
    /// products).
    fn snapshot(&self) -> Option<LayerSnapshot> {
        Some(LayerSnapshot::BcmConv2d {
            stride: self.core.stride,
            pad: self.core.pad,
            weights: self.weights.snapshot(),
        })
    }
}

impl StackedLayer for BcmConv2d {
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
    fn expansion_matches_circulant_dense() {
        // Expanding through BcmLayout must agree with the circulant crate's
        // dense expansion, tap by tap.
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = BcmConv2d::new(&mut rng, 4, 4, 3, 1, 1, 4);
        let folded = conv.folded();
        let w_mat = conv.weights.dense();
        let dense4 = folded.to_dense(); // [c_out, c_in, kh, kw]
        for o in 0..4 {
            for i in 0..4 {
                for p in 0..3 {
                    for q in 0..3 {
                        let col = (i * 3 + p) * 3 + q;
                        let a = w_mat.at(&[o, col]);
                        let b = dense4.at(&[o, i, p, q]);
                        assert!((a - b).abs() < 1e-6, "({o},{i},{p},{q})");
                    }
                }
            }
        }
    }

    #[test]
    fn bcm_forward_equals_dense_conv_with_expanded_weight() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bcm = BcmConv2d::new(&mut rng, 4, 8, 3, 1, 1, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 5, 5], 0.0, 1.0);
        let y = bcm.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 5, 5]);
        // Same input through a Conv2d with the expanded weight.
        let mut dense = crate::layers::Conv2d::new(&mut rng, 4, 8, 3, 1, 1);
        dense.weight.value = bcm.weights.dense().clone();
        let want = dense.forward(&x, true);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn bcm_weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bcm = BcmConv2d::new(&mut rng, 4, 4, 1, 1, 0, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 4, 3, 3], 0.0, 1.0);
        let _ = bcm.forward(&x, true);
        let _ = bcm.backward(&Tensor::ones(&[1, 4, 3, 3]));
        let eps = 1e-3;
        for idx in [0usize, 1, 3] {
            let mut p = bcm.clone();
            p.weights.params_mut()[0].value.as_mut_slice()[idx] += eps;
            let y1 = p.forward(&x, true).sum();
            let mut m = bcm.clone();
            m.weights.params_mut()[0].value.as_mut_slice()[idx] -= eps;
            let y0 = m.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = bcm.weights.params()[0].grad.as_slice()[idx];
            assert!((fd - got).abs() < 2e-2, "idx={idx}: fd={fd} got={got}");
        }
    }

    #[test]
    fn hadabcm_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hc = BcmConv2d::new_hada(&mut rng, 4, 4, 1, 1, 0, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 4, 3, 3], 0.0, 1.0);
        let _ = hc.forward(&x, true);
        let _ = hc.backward(&Tensor::ones(&[1, 4, 3, 3]));
        let eps = 1e-3;
        for idx in [0usize, 2, 3] {
            let mut p = hc.clone();
            p.weights.params_mut()[0].value.as_mut_slice()[idx] += eps;
            let y1 = p.forward(&x, true).sum();
            let mut m = hc.clone();
            m.weights.params_mut()[0].value.as_mut_slice()[idx] -= eps;
            let y0 = m.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = hc.weights.params()[0].grad.as_slice()[idx];
            assert!((fd - got).abs() < 2e-2, "A idx={idx}: fd={fd} got={got}");
        }
    }

    #[test]
    fn elimination_zeroes_output_contribution() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut bcm = BcmConv2d::new(&mut rng, 4, 4, 1, 1, 0, 4);
        // Single block layer (4/4 x 4/4 = 1 block per tap, one tap).
        assert_eq!(bcm.block_count(), 1);
        bcm.eliminate(&[0]);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 4, 2, 2], 0.0, 1.0);
        let y = bcm.forward(&x, true);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(bcm.live_blocks(), 0);
        assert_eq!(bcm.folded_param_count(), 0);
        assert_eq!(bcm.skip_index(), vec![false]);
    }

    #[test]
    fn pruned_blocks_stay_zero_through_training_steps() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut hc = BcmConv2d::new_hada(&mut rng, 8, 8, 1, 1, 0, 4);
        assert_eq!(hc.block_count(), 4);
        hc.eliminate(&[1, 2]);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8, 3, 3], 0.0, 1.0);
        for _ in 0..3 {
            let _ = hc.forward(&x, true);
            let _ = hc.backward(&Tensor::ones(&[2, 8, 3, 3]));
            hc.step(&SgdUpdate {
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 1e-4,
            });
        }
        let imp = hc.importances();
        assert_eq!(imp[1], 0.0);
        assert_eq!(imp[2], 0.0);
        assert!(imp[0] > 0.0 && imp[3] > 0.0);
        assert_eq!(hc.live_blocks(), 2);
    }

    #[test]
    fn importances_are_folded_norms() {
        let mut rng = StdRng::seed_from_u64(6);
        let hc = BcmConv2d::new_hada(&mut rng, 4, 4, 1, 1, 0, 4);
        let folded = hc.folded();
        let grid = folded.grid(0, 0);
        let want = grid.block(0, 0).vector_norm();
        let got = hc.importances()[0] as f32;
        assert!((want - got).abs() < 1e-5);
    }

    #[test]
    fn param_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        let bcm = BcmConv2d::new(&mut rng, 8, 16, 3, 1, 1, 8);
        // blocks = 9 taps × 2 out × 1 in = 18; params = 18 × 8.
        assert_eq!(bcm.block_count(), 18);
        assert_eq!(bcm.param_count(), 144);
        assert_eq!(bcm.dense_param_count(), 8 * 16 * 9);
        let hc = BcmConv2d::new_hada(&mut rng, 8, 16, 3, 1, 1, 8);
        assert_eq!(hc.param_count(), 2 * 144); // two factors in training
        assert_eq!(hc.folded_param_count(), 144); // folds to plain BCM
    }

    /// An eval forward builds the live-block spectra once and reuses them,
    /// never builds the dense expansion, and every mutable path drops the
    /// spectra.
    #[test]
    fn eval_forward_reuses_spectra_and_never_expands() {
        let mut rng = StdRng::seed_from_u64(9);
        let update = SgdUpdate {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
        };
        let mut hc = BcmConv2d::new_hada(&mut rng, 8, 8, 3, 1, 1, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8, 4, 4], 0.0, 1.0);
        let _ = hc.forward(&x, false);
        assert_eq!(
            hc.weights.caches_built(),
            (false, false, true),
            "an eval forward builds the spectra and no expansion"
        );
        let built = hc.weights.spectral() as *const _;
        let _ = hc.forward(&x, false);
        assert!(
            std::ptr::eq(hc.weights.spectral(), built),
            "a second eval forward reuses the spectra"
        );
        assert!(!hc.weights.caches_built().0, "still no expansion");
        // Every mutable path drops the spectra.
        hc.step(&update);
        assert!(!hc.weights.caches_built().2, "step drops the spectra");
        let _ = hc.forward(&x, false);
        hc.eliminate(&[3]);
        assert!(!hc.weights.caches_built().2, "eliminate drops the spectra");
        let _ = hc.forward(&x, false);
        let _ = hc.params_mut();
        assert!(!hc.weights.caches_built().2, "params_mut drops the spectra");
        assert!(!hc.weights.caches_built().0, "no path built an expansion");
    }

    /// The spectral inference forward tracks the dense im2col training
    /// forward on strided, padded and pruned layers.
    #[test]
    fn eval_forward_matches_dense_forward() {
        let mut rng = StdRng::seed_from_u64(10);
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 0), (1, 2, 1), (5, 1, 2)] {
            let mut bcm = BcmConv2d::new(&mut rng, 8, 16, k, stride, pad, 4);
            bcm.eliminate(&(0..bcm.block_count()).step_by(3).collect::<Vec<_>>());
            let x: Tensor<f32> = init::gaussian(&mut rng, &[3, 8, 6, 5], 0.0, 1.0);
            let want = bcm.forward(&x, true);
            let got = bcm.forward(&x, false);
            assert_eq!(got.dims(), want.dims());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-5, "k={k} s={stride} p={pad}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_channels() {
        let mut rng = StdRng::seed_from_u64(8);
        BcmConv2d::new(&mut rng, 3, 8, 3, 1, 1, 4);
    }
}
