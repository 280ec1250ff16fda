//! Block-circulant convolution layers: plain BCM and hadaBCM.
//!
//! Both store only defining vectors (`BS` values per block, paper §II-A);
//! the forward pass expands to a dense weight and reuses the im2col core,
//! which is mathematically identical to the "FFT → eMAC → IFFT" path (the
//! `circulant` crate's property tests pin that equivalence; the hardware
//! model in `hwsim` exercises the FFT path itself). The backward pass
//! projects the dense weight gradient back onto the circulant subspace —
//! the exact chain rule through the weight-tying `W[i][j] = w[(i−j) mod BS]`.
//! Both mappings live in [`BcmLayout`]; `BcmConv2d` keeps its vectors and
//! caches in the shared [`GateStack`] store.

use crate::layers::checkpoint::{LayerSnapshot, StackSnapshot};
use crate::layers::conv::ConvCore;
use crate::layers::gates::{BcmLayout, GateStack};
use crate::layers::{Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use circulant::ConvBlockCirculant;
use rand::Rng;
use tensor::{init, Tensor};

/// The block-circulant surface shared by [`BcmConv2d`] and
/// [`HadaBcmConv2d`], used by Algorithm 1's driver and the reports.
pub trait BcmLayer {
    /// Block size `BS`.
    fn block_size(&self) -> usize;
    /// Total BCM count (`kh·kw·(c_out/BS)·(c_in/BS)`).
    fn block_count(&self) -> usize;
    /// ℓ₂ norm of each block's folded defining vector, in block order.
    fn importances(&self) -> Vec<f64>;
    /// Eliminates blocks by local index (idempotent).
    fn eliminate(&mut self, local_indices: &[usize]);
    /// Number of live (unpruned) blocks.
    fn live_blocks(&self) -> usize;
    /// `true` per block when live — the skip-index bitmap.
    fn skip_index(&self) -> Vec<bool>;
    /// Folded inference parameters (`live · BS`).
    fn folded_param_count(&self) -> usize;
    /// Trainable parameters as counted by [`crate::layers::Layer::param_count`]
    /// (`live·BS` for plain BCM, `2·live·BS` for hadaBCM) — used to swap
    /// trainable for folded counts in whole-network accounting.
    fn train_param_surrogate(&self) -> usize;
    /// Parameters of the dense equivalent.
    fn dense_param_count(&self) -> usize;
    /// The folded weights as a block-circulant conv structure.
    fn folded(&self) -> ConvBlockCirculant<f32>;
}

/// Traditional BCM-compressed convolution: one trainable defining vector
/// per block (paper §II-A), held in the shared `GateStack` weight store.
#[derive(Debug, Clone)]
pub struct BcmConv2d {
    name: String,
    weights: GateStack,
    core: ConvCore,
}

impl BcmConv2d {
    /// Creates a Kaiming-scaled BCM convolution.
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
        BcmConv2d {
            name: format!("bcmconv{c_in}x{c_out}k{kernel}bs{bs}"),
            weights: GateStack::new(rng, c_in, c_out, kernel, bs),
            core: ConvCore::new(c_in, c_out, kernel, kernel, stride, pad),
        }
    }

    /// Rebuilds a BCM convolution from its checkpoint record.
    pub(crate) fn from_parts(stride: usize, pad: usize, weights: StackSnapshot) -> Self {
        let (c_in, c_out, kernel, bs) = (weights.c_in, weights.c_out, weights.k, weights.bs);
        BcmConv2d {
            name: format!("bcmconv{c_in}x{c_out}k{kernel}bs{bs}"),
            weights: GateStack::from_snapshot(weights),
            core: ConvCore::new(c_in, c_out, kernel, kernel, stride, pad),
        }
    }
}

impl Layer for BcmConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        self.core.forward(x, self.weights.dense(), train)
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
        self.weights.folded_param_count()
    }

    fn params(&self) -> Vec<&Param> {
        vec![self.weights.vecs()]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.weights.vecs_mut()]
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
        Some(LayerSnapshot::BcmConv2d {
            stride: self.core.stride,
            pad: self.core.pad,
            weights: self.weights.snapshot(),
        })
    }
}

impl BcmLayer for BcmConv2d {
    fn block_size(&self) -> usize {
        self.weights.block_size()
    }

    fn block_count(&self) -> usize {
        self.weights.block_count()
    }

    fn importances(&self) -> Vec<f64> {
        self.weights.importances()
    }

    fn eliminate(&mut self, local_indices: &[usize]) {
        self.weights.eliminate(local_indices);
    }

    fn live_blocks(&self) -> usize {
        self.weights.live_blocks()
    }

    fn skip_index(&self) -> Vec<bool> {
        self.weights.skip_index()
    }

    fn folded_param_count(&self) -> usize {
        self.weights.folded_param_count()
    }

    fn train_param_surrogate(&self) -> usize {
        self.weights.folded_param_count()
    }

    fn dense_param_count(&self) -> usize {
        self.weights.layout().dense_len()
    }

    fn folded(&self) -> ConvBlockCirculant<f32> {
        self.weights.folded()
    }
}

/// hadaBCM-compressed convolution: each block is the Hadamard product of
/// two trainable circulant factors (paper §III-A), trained with the Eq. (1)
/// gradient coupling and folded into a plain BCM for inference.
#[derive(Debug, Clone)]
pub struct HadaBcmConv2d {
    name: String,
    layout: BcmLayout,
    /// Factor A defining vectors, flat `[block_count, bs]`.
    a: Param,
    /// Factor B defining vectors, flat `[block_count, bs]`.
    b: Param,
    pruned: Vec<bool>,
    core: ConvCore,
    /// Expanded folded im2col weight from the latest training `forward`,
    /// reused by `backward` in the same step; dropped on any weight update.
    cached_w: Option<Tensor<f32>>,
}

impl HadaBcmConv2d {
    /// Creates a hadaBCM convolution whose *folded* weights have the same
    /// Kaiming scale as the dense equivalent (each factor uses
    /// `sqrt(std_dense)`).
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
        let layout = BcmLayout::new(c_in, c_out, kernel, bs);
        let std_dense = (2.0 / (c_in * kernel * kernel) as f64).sqrt();
        let factor_std = std_dense.sqrt();
        let shape = [layout.block_count(), bs];
        let a = Param::new(init::gaussian(rng, &shape, 0.0, factor_std));
        let b = Param::new(init::gaussian(rng, &shape, 0.0, factor_std));
        HadaBcmConv2d {
            name: format!("hadabcmconv{c_in}x{c_out}k{kernel}bs{bs}"),
            layout,
            a,
            b,
            pruned: vec![false; layout.block_count()],
            core: ConvCore::new(c_in, c_out, kernel, kernel, stride, pad),
            cached_w: None,
        }
    }

    fn folded_vecs(&self) -> Vec<f32> {
        self.a
            .value
            .as_slice()
            .iter()
            .zip(self.b.value.as_slice())
            .map(|(&x, &y)| x * y)
            .collect()
    }
}

impl Layer for HadaBcmConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        // Fold + expand once per step; `backward` reuses the same matrix.
        let w = self.layout.expand(&self.folded_vecs());
        let y = self.core.forward(x, &w, train);
        self.cached_w = train.then_some(w);
        y
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let w = self.cached_w.as_ref().expect(NO_TRAINING_FORWARD);
        let (dw_mat, dx) = self.core.backward(grad, w);
        // Project onto the folded defining vectors, then split by Eq. (1):
        // ∂L/∂A = ∂L/∂W ⊙ B, ∂L/∂B = ∂L/∂W ⊙ A. `project_grad` leaves
        // pruned blocks at zero, and `eliminate` zeroed their grads.
        let mut dfold = vec![0.0f32; self.a.value.len()];
        self.layout.project_grad(&dw_mat, &self.pruned, &mut dfold);
        let av = self.a.value.as_slice();
        let bv = self.b.value.as_slice();
        let ga = self.a.grad.as_mut_slice();
        let gb = self.b.grad.as_mut_slice();
        for (k, &d) in dfold.iter().enumerate() {
            ga[k] += d * bv[k];
            gb[k] += d * av[k];
        }
        dx
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.cached_w = None;
        self.a.step(update);
        self.b.step(update);
    }

    fn param_count(&self) -> usize {
        2 * self.live_blocks() * self.layout.bs
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.a, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.a, &mut self.b]
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

    /// hadaBCM deploys as a plain BCM: the checkpoint stores the folded
    /// vectors `a ⊙ b`, so the loaded layer is a [`BcmConv2d`] with
    /// bit-identical inference (both paths expand the same f32 products).
    fn snapshot(&self) -> Option<LayerSnapshot> {
        Some(LayerSnapshot::BcmConv2d {
            stride: self.core.stride,
            pad: self.core.pad,
            weights: StackSnapshot::new(&self.layout, self.folded_vecs(), &self.pruned),
        })
    }
}

impl BcmLayer for HadaBcmConv2d {
    fn block_size(&self) -> usize {
        self.layout.bs
    }

    fn block_count(&self) -> usize {
        self.layout.block_count()
    }

    fn importances(&self) -> Vec<f64> {
        self.layout.importances(&self.folded_vecs())
    }

    fn eliminate(&mut self, local_indices: &[usize]) {
        self.cached_w = None;
        let bs = self.layout.bs;
        for &blk in local_indices {
            assert!(blk < self.pruned.len(), "block index out of range");
            self.pruned[blk] = true;
            self.a.reset_region(blk * bs..(blk + 1) * bs);
            self.b.reset_region(blk * bs..(blk + 1) * bs);
        }
    }

    fn live_blocks(&self) -> usize {
        self.pruned.iter().filter(|&&p| !p).count()
    }

    fn skip_index(&self) -> Vec<bool> {
        self.pruned.iter().map(|&p| !p).collect()
    }

    fn folded_param_count(&self) -> usize {
        self.live_blocks() * self.layout.bs
    }

    fn train_param_surrogate(&self) -> usize {
        2 * self.live_blocks() * self.layout.bs
    }

    fn dense_param_count(&self) -> usize {
        self.layout.dense_len()
    }

    fn folded(&self) -> ConvBlockCirculant<f32> {
        self.layout.folded_from(&self.folded_vecs(), &self.pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            p.weights.vecs_mut().value.as_mut_slice()[idx] += eps;
            let y1 = p.forward(&x, true).sum();
            let mut m = bcm.clone();
            m.weights.vecs_mut().value.as_mut_slice()[idx] -= eps;
            let y0 = m.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = bcm.weights.vecs().grad.as_slice()[idx];
            assert!((fd - got).abs() < 2e-2, "idx={idx}: fd={fd} got={got}");
        }
    }

    #[test]
    fn hadabcm_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hc = HadaBcmConv2d::new(&mut rng, 4, 4, 1, 1, 0, 4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 4, 3, 3], 0.0, 1.0);
        let _ = hc.forward(&x, true);
        let _ = hc.backward(&Tensor::ones(&[1, 4, 3, 3]));
        let eps = 1e-3;
        for idx in [0usize, 2, 3] {
            let mut p = hc.clone();
            p.a.value.as_mut_slice()[idx] += eps;
            let y1 = p.forward(&x, true).sum();
            let mut m = hc.clone();
            m.a.value.as_mut_slice()[idx] -= eps;
            let y0 = m.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = hc.a.grad.as_slice()[idx];
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
        let mut hc = HadaBcmConv2d::new(&mut rng, 8, 8, 1, 1, 0, 4);
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
        let hc = HadaBcmConv2d::new(&mut rng, 4, 4, 1, 1, 0, 4);
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
        let hc = HadaBcmConv2d::new(&mut rng, 8, 16, 3, 1, 1, 8);
        assert_eq!(hc.param_count(), 2 * 144); // two factors in training
        assert_eq!(hc.folded_param_count(), 144); // folds to plain BCM
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_channels() {
        let mut rng = StdRng::seed_from_u64(8);
        BcmConv2d::new(&mut rng, 3, 8, 3, 1, 1, 4);
    }
}
