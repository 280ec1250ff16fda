//! The block-circulant weight store.
//!
//! Every BCM layer holds its weights in [`GateStack`]s: [`super::BcmConv2d`]
//! (one `[c_out, c_in]` grid per `k×k` tap, plain or hadaBCM),
//! [`super::BcmLinear`] (the paper's `K = 1` FC case), and the gate
//! matrices of `BcmLstm`, `BcmGru` and `BcmAttention` — the
//! parameterization C-LSTM (FPGA'18) and E-RNN (HPCA'19) use for LSTM/GRU
//! gates. [`BcmLayout`] is the one place that maps defining vectors to a
//! dense im2col weight, dense gradients back to vectors, and vectors to a
//! folded grid; only this module calls it on trained weights.
//!
//! **Factorization.** A stack trains either one defining vector per block
//! (plain BCM, paper §II-A) or hadaBCM's two factors `a`, `b` (§III-A),
//! whose Hadamard product `a ⊙ b` is the block's vector. Everything that
//! reads weights — the dense expansion, the spectral grid, the folded
//! weights, importances and the checkpoint record — reads the folded
//! vectors; everything that trains walks the factors, and the Eq. (1)
//! gradient split lives in [`GateStack::accumulate_grad`] alone.
//!
//! **Cache rule.** A stack owns two derived caches: the dense expansion
//! shared by forward and backward, and the folded grid with prepared
//! spectra for 1-tap inference. The factors are private, and every path
//! that can change them — [`GateStack::step`], [`GateStack::eliminate`] and
//! the single mutable accessor [`GateStack::params_mut`] that each layer's
//! `params_mut` (and so `Network::sync_params_from`) goes through — drops
//! both. A stale expansion is therefore unrepresentable.

use crate::layers::checkpoint::StackSnapshot;
use crate::layers::Param;
use crate::optim::SgdUpdate;
use circulant::{BlockCirculant, CirculantMatrix, ConvBlockCirculant};
use rand::Rng;
use std::borrow::Cow;
use tensor::{init, Tensor};

/// Dimensions of a block-circulant weight and its block indexing:
/// tap-major, then output-block, then input-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BcmLayout {
    pub(crate) c_in: usize,
    pub(crate) c_out: usize,
    /// Square kernel side; `1` for FC layers and gate matrices.
    pub(crate) k: usize,
    pub(crate) bs: usize,
    out_blocks: usize,
    in_blocks: usize,
}

impl BcmLayout {
    /// # Panics
    ///
    /// Panics if channels are not divisible by `bs` or `bs` is not a power
    /// of two ≥ 2.
    pub(crate) fn new(c_in: usize, c_out: usize, k: usize, bs: usize) -> Self {
        assert!(
            bs.is_power_of_two() && bs >= 2,
            "BS must be a power of two >= 2"
        );
        assert_eq!(c_in % bs, 0, "c_in {c_in} not divisible by BS {bs}");
        assert_eq!(c_out % bs, 0, "c_out {c_out} not divisible by BS {bs}");
        BcmLayout {
            c_in,
            c_out,
            k,
            bs,
            out_blocks: c_out / bs,
            in_blocks: c_in / bs,
        }
    }

    pub(crate) fn block_count(&self) -> usize {
        self.k * self.k * self.out_blocks * self.in_blocks
    }

    /// Parameters of the dense equivalent (`c_out·c_in·k·k`).
    pub(crate) fn dense_len(&self) -> usize {
        self.c_out * self.c_in * self.k * self.k
    }

    fn block_index(&self, p: usize, q: usize, bo: usize, bi: usize) -> usize {
        ((p * self.k + q) * self.out_blocks + bo) * self.in_blocks + bi
    }

    /// Expands per-block defining vectors (`[block_count, bs]` flat) into a
    /// `[c_out, c_in·k·k]` im2col weight matrix (`[c_out, c_in]` at `k = 1`).
    pub(crate) fn expand(&self, vecs: &[f32]) -> Tensor<f32> {
        let mut w = Tensor::zeros(&[self.c_out, self.c_in * self.k * self.k]);
        let ws = w.as_mut_slice();
        let row_len = self.c_in * self.k * self.k;
        for p in 0..self.k {
            for q in 0..self.k {
                for bo in 0..self.out_blocks {
                    for bi in 0..self.in_blocks {
                        let blk = self.block_index(p, q, bo, bi);
                        let v = &vecs[blk * self.bs..(blk + 1) * self.bs];
                        for oi in 0..self.bs {
                            let o = bo * self.bs + oi;
                            for ii in 0..self.bs {
                                let i = bi * self.bs + ii;
                                let col = (i * self.k + p) * self.k + q;
                                ws[o * row_len + col] = v[(oi + self.bs - ii) % self.bs];
                            }
                        }
                    }
                }
            }
        }
        w
    }

    /// Adjoint of [`BcmLayout::expand`]: accumulates a dense weight-matrix
    /// gradient onto the defining-vector gradient buffer,
    /// `dvec[(o−i) mod BS] += dW[o][i]` within each block. Pruned blocks
    /// are skipped, so eliminated weights stay frozen.
    pub(crate) fn project_grad(&self, dw_mat: &Tensor<f32>, pruned: &[bool], dvecs: &mut [f32]) {
        let row_len = self.c_in * self.k * self.k;
        assert_eq!(dw_mat.dims(), &[self.c_out, row_len], "gradient shape");
        let ds = dw_mat.as_slice();
        for p in 0..self.k {
            for q in 0..self.k {
                for bo in 0..self.out_blocks {
                    for bi in 0..self.in_blocks {
                        let blk = self.block_index(p, q, bo, bi);
                        if pruned[blk] {
                            continue;
                        }
                        let dv = &mut dvecs[blk * self.bs..(blk + 1) * self.bs];
                        for oi in 0..self.bs {
                            let o = bo * self.bs + oi;
                            for ii in 0..self.bs {
                                let i = bi * self.bs + ii;
                                let col = (i * self.k + p) * self.k + q;
                                dv[(oi + self.bs - ii) % self.bs] += ds[o * row_len + col];
                            }
                        }
                    }
                }
            }
        }
    }

    /// The folded grid of tap `(p, q)`: zero circulants at pruned blocks.
    pub(crate) fn tap_grid(
        &self,
        vecs: &[f32],
        pruned: &[bool],
        p: usize,
        q: usize,
    ) -> BlockCirculant<f32> {
        let blocks = (0..self.out_blocks * self.in_blocks)
            .map(|g| {
                let (bo, bi) = (g / self.in_blocks, g % self.in_blocks);
                let blk = self.block_index(p, q, bo, bi);
                if pruned[blk] {
                    CirculantMatrix::zeros(self.bs)
                } else {
                    CirculantMatrix::new(vecs[blk * self.bs..(blk + 1) * self.bs].to_vec())
                }
            })
            .collect();
        BlockCirculant::from_blocks(self.bs, self.out_blocks, self.in_blocks, blocks)
    }

    /// The folded weights: one grid per tap.
    pub(crate) fn folded_from(&self, vecs: &[f32], pruned: &[bool]) -> ConvBlockCirculant<f32> {
        let grids = (0..self.k * self.k)
            .map(|tap| self.tap_grid(vecs, pruned, tap / self.k, tap % self.k))
            .collect();
        ConvBlockCirculant::from_grids(self.k, self.k, grids)
    }

    /// ℓ₂ norm of each block's defining vector, in block order.
    pub(crate) fn importances(&self, vecs: &[f32]) -> Vec<f64> {
        vecs.chunks_exact(self.bs)
            .map(|v| {
                v.iter()
                    .map(|&x| f64::from(x) * f64::from(x))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect()
    }
}

/// A stack's trained parameters.
#[derive(Debug, Clone)]
enum Factors {
    /// Plain BCM: the defining vectors, flat `[block_count, bs]`.
    Plain(Param),
    /// hadaBCM: factors `[a, b]`, each flat `[block_count, bs]`.
    Hada([Param; 2]),
}

impl Factors {
    fn as_slice(&self) -> &[Param] {
        match self {
            Factors::Plain(vecs) => std::slice::from_ref(vecs),
            Factors::Hada(ab) => ab,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Param] {
        match self {
            Factors::Plain(vecs) => std::slice::from_mut(vecs),
            Factors::Hada(ab) => ab,
        }
    }

    /// The folded defining vectors: `vecs`, or `a ⊙ b` for hadaBCM.
    fn folded(&self) -> Cow<'_, [f32]> {
        match self {
            Factors::Plain(vecs) => Cow::Borrowed(vecs.value.as_slice()),
            Factors::Hada([a, b]) => Cow::Owned(
                a.value
                    .as_slice()
                    .iter()
                    .zip(b.value.as_slice())
                    .map(|(&x, &y)| x * y)
                    .collect(),
            ),
        }
    }
}

/// One block-circulant weight: its trained factors, a per-block pruning
/// mask, and lazily-built dense/spectral caches kept valid by
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct GateStack {
    layout: BcmLayout,
    factors: Factors,
    pruned: Vec<bool>,
    /// Dense im2col expansion shared by forward and backward.
    dense: Option<Tensor<f32>>,
    /// Folded 1-tap grid with prepared weight spectra for inference.
    spectra: Option<BlockCirculant<f32>>,
}

impl GateStack {
    /// Kaiming-scaled plain stack: defining vectors drawn with the std of
    /// the equivalent dense layer (`sqrt(2/fan_in)`), so folded
    /// activations match dense ones in scale.
    ///
    /// # Panics
    ///
    /// As [`BcmLayout::new`].
    pub(crate) fn new(rng: &mut impl Rng, c_in: usize, c_out: usize, k: usize, bs: usize) -> Self {
        let (layout, std) = Self::kaiming(c_in, c_out, k, bs);
        let vecs = init::gaussian(rng, &[layout.block_count(), bs], 0.0, std);
        let pruned = vec![false; layout.block_count()];
        Self::with_factors(layout, Factors::Plain(Param::new(vecs)), pruned)
    }

    /// hadaBCM stack whose *folded* vectors have the plain stack's Kaiming
    /// scale: each factor is drawn with `sqrt(std)`, `a` before `b`.
    ///
    /// # Panics
    ///
    /// As [`BcmLayout::new`].
    pub(crate) fn new_hada(
        rng: &mut impl Rng,
        c_in: usize,
        c_out: usize,
        k: usize,
        bs: usize,
    ) -> Self {
        let (layout, std) = Self::kaiming(c_in, c_out, k, bs);
        let shape = [layout.block_count(), bs];
        let a = Param::new(init::gaussian(rng, &shape, 0.0, std.sqrt()));
        let b = Param::new(init::gaussian(rng, &shape, 0.0, std.sqrt()));
        let pruned = vec![false; layout.block_count()];
        Self::with_factors(layout, Factors::Hada([a, b]), pruned)
    }

    fn kaiming(c_in: usize, c_out: usize, k: usize, bs: usize) -> (BcmLayout, f64) {
        let layout = BcmLayout::new(c_in, c_out, k, bs);
        (layout, (2.0 / (c_in * k * k) as f64).sqrt())
    }

    fn with_factors(layout: BcmLayout, factors: Factors, pruned: Vec<bool>) -> Self {
        GateStack {
            layout,
            factors,
            pruned,
            dense: None,
            spectra: None,
        }
    }

    /// Rebuilds a plain stack from its checkpoint record.
    ///
    /// # Panics
    ///
    /// As [`BcmLayout::new`], or if the skip index or vectors do not
    /// cover the layout's blocks.
    pub(crate) fn from_snapshot(snap: StackSnapshot) -> Self {
        let layout = snap.layout();
        assert_eq!(snap.live.len(), layout.block_count(), "skip index length");
        let pruned = snap.pruned();
        let vecs = Tensor::from_vec(snap.vecs, &[layout.block_count(), layout.bs]);
        Self::with_factors(layout, Factors::Plain(Param::new(vecs)), pruned)
    }

    /// The stack's checkpoint record: the folded vectors, so a hadaBCM
    /// stack deploys as the plain stack it folds into.
    pub(crate) fn snapshot(&self) -> StackSnapshot {
        StackSnapshot::new(
            &self.layout,
            self.factors.folded().into_owned(),
            &self.pruned,
        )
    }

    pub(crate) fn layout(&self) -> &BcmLayout {
        &self.layout
    }

    /// The trained factors: `[vecs]`, or `[a, b]` for hadaBCM.
    pub(crate) fn params(&self) -> &[Param] {
        self.factors.as_slice()
    }

    /// The only mutable path to the factors: drops both caches, since the
    /// caller may rewrite the values.
    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        self.drop_caches();
        self.factors.as_mut_slice()
    }

    fn drop_caches(&mut self) {
        self.dense = None;
        self.spectra = None;
    }

    /// The dense `[c_out, c_in·k·k]` expansion of the folded vectors,
    /// built on first use after any change to the factors.
    pub(crate) fn dense(&mut self) -> &Tensor<f32> {
        let (layout, factors) = (&self.layout, &self.factors);
        self.dense
            .get_or_insert_with(|| layout.expand(&factors.folded()))
    }

    /// The folded grid with prepared spectra — the batched
    /// "FFT → eMAC → IFFT" inference path of a 1-tap stack.
    pub(crate) fn grid(&mut self) -> &BlockCirculant<f32> {
        assert_eq!(self.layout.k, 1, "spectral path is for 1-tap stacks");
        let (layout, factors, pruned) = (&self.layout, &self.factors, &self.pruned);
        self.spectra.get_or_insert_with(|| {
            let grid = layout.tap_grid(&factors.folded(), pruned, 0, 0);
            grid.prepare_spectra();
            grid
        })
    }

    /// Accumulates a dense `[c_out, c_in·k·k]` weight gradient onto the
    /// factors' gradients (pruned blocks stay at zero). For hadaBCM the
    /// folded-vector gradient splits by Eq. (1):
    /// `∂L/∂A = ∂L/∂W ⊙ B`, `∂L/∂B = ∂L/∂W ⊙ A`.
    pub(crate) fn accumulate_grad(&mut self, dw: &Tensor<f32>) {
        match &mut self.factors {
            Factors::Plain(vecs) => {
                self.layout
                    .project_grad(dw, &self.pruned, vecs.grad.as_mut_slice());
            }
            Factors::Hada([a, b]) => {
                let mut dfold = vec![0.0f32; a.len()];
                self.layout.project_grad(dw, &self.pruned, &mut dfold);
                let (av, ga) = (a.value.as_slice(), a.grad.as_mut_slice());
                let (bv, gb) = (b.value.as_slice(), b.grad.as_mut_slice());
                for (k, &d) in dfold.iter().enumerate() {
                    ga[k] += d * bv[k];
                    gb[k] += d * av[k];
                }
            }
        }
    }

    /// Applies one SGD update to every factor, drops the caches, and
    /// re-zeroes pruned regions for exactness against momentum drift.
    pub(crate) fn step(&mut self, update: &SgdUpdate) {
        self.drop_caches();
        let bs = self.layout.bs;
        for factor in self.factors.as_mut_slice() {
            factor.step(update);
            for (blk, &p) in self.pruned.iter().enumerate() {
                if p {
                    factor.reset_region(blk * bs..(blk + 1) * bs);
                }
            }
        }
    }

    /// Eliminates blocks by index: marks them pruned and zeroes every
    /// factor's value, gradient and momentum there.
    pub(crate) fn eliminate(&mut self, indices: &[usize]) {
        self.drop_caches();
        let bs = self.layout.bs;
        for &blk in indices {
            assert!(blk < self.pruned.len(), "block index out of range");
            self.pruned[blk] = true;
            for factor in self.factors.as_mut_slice() {
                factor.reset_region(blk * bs..(blk + 1) * bs);
            }
        }
    }

    /// ℓ₂ norm of each block's folded vector, in block order.
    pub(crate) fn importances(&self) -> Vec<f64> {
        self.layout.importances(&self.factors.folded())
    }

    pub(crate) fn block_count(&self) -> usize {
        self.layout.block_count()
    }

    pub(crate) fn live_blocks(&self) -> usize {
        self.pruned.iter().filter(|&&p| !p).count()
    }

    pub(crate) fn skip_index(&self) -> Vec<bool> {
        self.pruned.iter().map(|&p| !p).collect()
    }

    /// Folded inference parameters (`live · BS`).
    pub(crate) fn folded_param_count(&self) -> usize {
        self.live_blocks() * self.layout.bs
    }

    /// Trainable parameters: `live · BS` per factor.
    pub(crate) fn param_count(&self) -> usize {
        self.params().len() * self.folded_param_count()
    }

    /// Whether the dense and spectral caches are currently built.
    #[cfg(test)]
    pub(crate) fn caches_built(&self) -> (bool, bool) {
        (self.dense.is_some(), self.spectra.is_some())
    }
}
