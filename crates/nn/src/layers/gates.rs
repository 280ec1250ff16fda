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
//! **Storage form.** A pruned stack is its skip index plus the vectors of
//! its live blocks in skip order — the form the checkpoint record and the
//! fixed-point weights use (paper §IV-B: O(BS) per *live* block). Each
//! factor's value, gradient and momentum are `[live, BS]`;
//! [`GateStack::eliminate`] drops the eliminated rows and keeps the live
//! rows' momentum, and [`BcmLayout`] walks live ordinals in block order.
//! A pruned block has no stored word, so nothing has to keep it at zero.
//!
//! **Cache rule.** A stack owns three derived caches: the dense expansion
//! a training forward and the backward pass share (zero at pruned
//! blocks), the folded grid with prepared spectra for 1-tap inference,
//! and, for conv inference, the live blocks' prepared half-spectra with
//! their eMAC entry lists ([`SpectralConv`], the `f32` instance of
//! `circulant::schedule`'s one conv schedule; pruned blocks have no
//! spectrum). A conv inference forward builds only the last, so a served
//! conv never holds a dense expansion. The factors are private, and every
//! path that can change them — [`GateStack::step`],
//! [`GateStack::eliminate`] and the single mutable accessor
//! [`GateStack::params_mut`] that each layer's `params_mut` (and so
//! `Network::sync_params_from`) goes through — drops all three. A stale
//! cache is therefore unrepresentable.

use crate::layers::checkpoint::StackSnapshot;
use crate::layers::Param;
use crate::optim::SgdUpdate;
use circulant::schedule::SpectralConv;
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

    /// Walks every live block's `BS × BS` entries in block order, calling
    /// `f(v, d)` with `v` the entry's word in a live-only `[live, bs]`
    /// vector buffer (`W[o][i] = w[(o−i) mod BS]`) and `d` its index in
    /// the `[c_out, c_in·k·k]` im2col matrix.
    fn for_each_entry(&self, pruned: &[bool], mut f: impl FnMut(usize, usize)) {
        let (bs, k, grid) = (self.bs, self.k, self.out_blocks * self.in_blocks);
        let row_len = self.c_in * k * k;
        let live = pruned.iter().enumerate().filter(|&(_, &p)| !p);
        for (row, (blk, _)) in live.enumerate() {
            let (p, q) = (blk / grid / k, blk / grid % k);
            let (bo, bi) = (blk % grid / self.in_blocks, blk % self.in_blocks);
            for oi in 0..bs {
                let o = bo * bs + oi;
                for ii in 0..bs {
                    let col = ((bi * bs + ii) * k + p) * k + q;
                    f(row * bs + (oi + bs - ii) % bs, o * row_len + col);
                }
            }
        }
    }

    /// Expands live-only defining vectors (`[live, bs]` flat, in skip
    /// order) into a `[c_out, c_in·k·k]` im2col weight matrix
    /// (`[c_out, c_in]` at `k = 1`), zero at pruned blocks.
    pub(crate) fn expand(&self, vecs: &[f32], pruned: &[bool]) -> Tensor<f32> {
        let mut w = Tensor::zeros(&[self.c_out, self.c_in * self.k * self.k]);
        let ws = w.as_mut_slice();
        self.for_each_entry(pruned, |v, d| ws[d] = vecs[v]);
        w
    }

    /// Adjoint of [`BcmLayout::expand`]: accumulates a dense weight-matrix
    /// gradient onto the live-only defining-vector gradient buffer,
    /// `dvec[(o−i) mod BS] += dW[o][i]` within each live block.
    pub(crate) fn project_grad(&self, dw_mat: &Tensor<f32>, pruned: &[bool], dvecs: &mut [f32]) {
        let row_len = self.c_in * self.k * self.k;
        assert_eq!(dw_mat.dims(), &[self.c_out, row_len], "gradient shape");
        let ds = dw_mat.as_slice();
        self.for_each_entry(pruned, |v, d| dvecs[v] += ds[d]);
    }

    /// Each block's defining vector in block order, `None` when pruned.
    fn blocks<'a>(
        &self,
        vecs: &'a [f32],
        pruned: &'a [bool],
    ) -> impl Iterator<Item = Option<&'a [f32]>> + 'a {
        let mut rows = vecs.chunks_exact(self.bs);
        pruned
            .iter()
            .map(move |&p| (!p).then(|| rows.next().expect("one vector per live block")))
    }

    /// The folded grids, one per tap: zero circulants at pruned blocks.
    fn grids<'a>(
        &self,
        vecs: &'a [f32],
        pruned: &'a [bool],
    ) -> impl Iterator<Item = BlockCirculant<f32>> + 'a {
        let (bs, rows, cols) = (self.bs, self.out_blocks, self.in_blocks);
        let mut blocks = self.blocks(vecs, pruned).map(move |v| {
            v.map_or_else(
                || CirculantMatrix::zeros(bs),
                |v| CirculantMatrix::new(v.to_vec()),
            )
        });
        (0..self.k * self.k).map(move |_| {
            let grid = blocks.by_ref().take(rows * cols).collect();
            BlockCirculant::from_blocks(bs, rows, cols, grid)
        })
    }

    /// The folded grid of a 1-tap stack.
    ///
    /// # Panics
    ///
    /// Panics if `k != 1`.
    pub(crate) fn grid(&self, vecs: &[f32], pruned: &[bool]) -> BlockCirculant<f32> {
        assert_eq!(self.k, 1, "a single grid is for 1-tap stacks");
        self.grids(vecs, pruned).next().expect("one tap")
    }

    /// The folded weights: one grid per tap.
    pub(crate) fn folded_from(&self, vecs: &[f32], pruned: &[bool]) -> ConvBlockCirculant<f32> {
        ConvBlockCirculant::from_grids(self.k, self.k, self.grids(vecs, pruned).collect())
    }

    /// ℓ₂ norm of each block's defining vector, in block order: exactly
    /// `0.0` at pruned blocks.
    pub(crate) fn importances(&self, vecs: &[f32], pruned: &[bool]) -> Vec<f64> {
        self.blocks(vecs, pruned)
            .map(|v| {
                v.map_or(0.0, |v| {
                    v.iter()
                        .map(|&x| f64::from(x) * f64::from(x))
                        .sum::<f64>()
                        .sqrt()
                })
            })
            .collect()
    }
}

/// The folded defining vectors of `factors`: `[vecs]` as is, or `a ⊙ b`
/// for hadaBCM's `[a, b]`; empty once every block is pruned.
fn folded(factors: &[Param]) -> Cow<'_, [f32]> {
    match factors {
        [] => Cow::Borrowed(&[]),
        [vecs] => Cow::Borrowed(vecs.value.as_slice()),
        [a, b] => Cow::Owned(
            a.value
                .as_slice()
                .iter()
                .zip(b.value.as_slice())
                .map(|(&x, &y)| x * y)
                .collect(),
        ),
        _ => unreachable!("a stack trains one or two factors"),
    }
}

/// One block-circulant weight: its trained factors, a per-block pruning
/// mask, and lazily-built dense and spectral caches kept valid by
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct GateStack {
    layout: BcmLayout,
    /// The trained factors — `[vecs]` for plain BCM, `[a, b]` for
    /// hadaBCM — each `[live, bs]`, live blocks in skip order. Empty once
    /// every block is pruned (tensors are never zero-sized).
    factors: Vec<Param>,
    pruned: Vec<bool>,
    /// Dense im2col expansion shared by forward and backward.
    dense: Option<Tensor<f32>>,
    /// Folded 1-tap grid with prepared weight spectra for inference.
    spectra: Option<BlockCirculant<f32>>,
    /// Live blocks' prepared half-spectra and entry lists: the conv
    /// inference path.
    spectral: Option<SpectralConv>,
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
        Self::with_factors(layout, vec![Param::new(vecs)], pruned)
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
        Self::with_factors(layout, vec![a, b], pruned)
    }

    fn kaiming(c_in: usize, c_out: usize, k: usize, bs: usize) -> (BcmLayout, f64) {
        let layout = BcmLayout::new(c_in, c_out, k, bs);
        (layout, (2.0 / (c_in * k * k) as f64).sqrt())
    }

    fn with_factors(layout: BcmLayout, factors: Vec<Param>, pruned: Vec<bool>) -> Self {
        GateStack {
            layout,
            factors,
            pruned,
            dense: None,
            spectra: None,
            spectral: None,
        }
    }

    /// Rebuilds a plain stack from its checkpoint record.
    ///
    /// # Panics
    ///
    /// As [`BcmLayout::new`], or if the skip index does not cover the
    /// layout's blocks or the vectors its live ones.
    pub(crate) fn from_snapshot(snap: StackSnapshot) -> Self {
        let layout = snap.layout();
        assert_eq!(snap.live.len(), layout.block_count(), "skip index length");
        let pruned = snap.pruned();
        let live = snap.live.iter().filter(|&&l| l).count();
        let factors = (live > 0)
            .then(|| Param::new(Tensor::from_vec(snap.vecs, &[live, layout.bs])))
            .into_iter()
            .collect();
        Self::with_factors(layout, factors, pruned)
    }

    /// The stack's checkpoint record: the folded vectors, so a hadaBCM
    /// stack deploys as the plain stack it folds into.
    pub(crate) fn snapshot(&self) -> StackSnapshot {
        StackSnapshot::new(
            &self.layout,
            folded(&self.factors).into_owned(),
            &self.pruned,
        )
    }

    pub(crate) fn layout(&self) -> &BcmLayout {
        &self.layout
    }

    /// The trained factors: `[vecs]`, or `[a, b]` for hadaBCM; none once
    /// every block is pruned.
    pub(crate) fn params(&self) -> &[Param] {
        &self.factors
    }

    /// The only mutable path to the factors: drops every cache, since the
    /// caller may rewrite the values.
    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        self.drop_caches();
        &mut self.factors
    }

    fn drop_caches(&mut self) {
        self.dense = None;
        self.spectra = None;
        self.spectral = None;
    }

    /// The dense `[c_out, c_in·k·k]` expansion of the folded vectors,
    /// built on first use after any change to the factors.
    pub(crate) fn dense(&mut self) -> &Tensor<f32> {
        let (layout, factors, pruned) = (&self.layout, &self.factors, &self.pruned);
        self.dense
            .get_or_insert_with(|| layout.expand(&folded(factors), pruned))
    }

    /// The folded grid with prepared spectra — the batched
    /// "FFT → eMAC → IFFT" inference path of a 1-tap stack.
    pub(crate) fn grid(&mut self) -> &BlockCirculant<f32> {
        let (layout, factors, pruned) = (&self.layout, &self.factors, &self.pruned);
        self.spectra.get_or_insert_with(|| {
            let grid = layout.grid(&folded(factors), pruned);
            grid.prepare_spectra();
            grid
        })
    }

    /// The live blocks' prepared half-spectra with their entry lists — the
    /// "FFT → eMAC → IFFT" inference path of a conv stack, built on first
    /// use after any change to the factors.
    pub(crate) fn spectral(&mut self) -> &SpectralConv {
        let (l, factors, pruned) = (&self.layout, &self.factors, &self.pruned);
        self.spectral.get_or_insert_with(|| {
            let skip: Vec<bool> = pruned.iter().map(|&p| !p).collect();
            SpectralConv::new(
                l.bs,
                l.k,
                l.out_blocks,
                l.in_blocks,
                &skip,
                &folded(factors),
            )
        })
    }

    /// Accumulates a dense `[c_out, c_in·k·k]` weight gradient onto the
    /// factors' (live-block) gradients. For hadaBCM the
    /// folded-vector gradient splits by Eq. (1):
    /// `∂L/∂A = ∂L/∂W ⊙ B`, `∂L/∂B = ∂L/∂W ⊙ A`.
    pub(crate) fn accumulate_grad(&mut self, dw: &Tensor<f32>) {
        match self.factors.as_mut_slice() {
            [] => {}
            [vecs] => {
                self.layout
                    .project_grad(dw, &self.pruned, vecs.grad.as_mut_slice());
            }
            [a, b] => {
                let mut dfold = vec![0.0f32; a.len()];
                self.layout.project_grad(dw, &self.pruned, &mut dfold);
                let (av, ga) = (a.value.as_slice(), a.grad.as_mut_slice());
                let (bv, gb) = (b.value.as_slice(), b.grad.as_mut_slice());
                for (k, &d) in dfold.iter().enumerate() {
                    ga[k] += d * bv[k];
                    gb[k] += d * av[k];
                }
            }
            _ => unreachable!("a stack trains one or two factors"),
        }
    }

    /// Applies one SGD update to every factor and drops every cache.
    pub(crate) fn step(&mut self, update: &SgdUpdate) {
        self.drop_caches();
        for factor in &mut self.factors {
            factor.step(update);
        }
    }

    /// Eliminates blocks by index (idempotent): marks them pruned and drops
    /// their rows from every factor's value, gradient and momentum; the
    /// live rows keep theirs.
    pub(crate) fn eliminate(&mut self, indices: &[usize]) {
        self.drop_caches();
        let mut cut = vec![false; self.pruned.len()];
        for &blk in indices {
            assert!(blk < cut.len(), "block index out of range");
            cut[blk] = true;
        }
        let keep: Vec<bool> = (self.pruned.iter().zip(&cut))
            .filter(|&(&p, _)| !p)
            .map(|(_, &c)| !c)
            .collect();
        if keep.contains(&true) {
            for factor in &mut self.factors {
                factor.retain_rows(&keep);
            }
        } else {
            self.factors.clear();
        }
        for (p, c) in self.pruned.iter_mut().zip(cut) {
            *p |= c;
        }
    }

    /// ℓ₂ norm of each block's folded vector, in block order (`0.0` at
    /// pruned blocks).
    pub(crate) fn importances(&self) -> Vec<f64> {
        self.layout
            .importances(&folded(&self.factors), &self.pruned)
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

    /// Trainable parameters: `live · BS` per factor, as stored.
    pub(crate) fn param_count(&self) -> usize {
        self.factors.iter().map(Param::len).sum()
    }

    /// Whether the dense expansion, the 1-tap grid and the conv spectra
    /// are currently built.
    #[cfg(test)]
    pub(crate) fn caches_built(&self) -> (bool, bool, bool) {
        (
            self.dense.is_some(),
            self.spectra.is_some(),
            self.spectral.is_some(),
        )
    }
}
