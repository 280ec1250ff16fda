//! BCM-projected single-head self-attention.
//!
//! The three projection matrices `W_q`, `W_k`, `W_v` (each `[D, D]`) are
//! block-circulant [`GateStack`]s, so the projections run through the same
//! FFT→eMAC→IFFT machinery as every other BCM layer and Algorithm 1 can
//! prune their blocks. The attention arithmetic itself (scores, softmax,
//! weighted sum) is dense — it has no weights to compress.
//!
//! Input/output is `[N, D, T, 1]` (features as channels, time along the H
//! axis) with a residual connection `y = attn(x) + x`, so the layer can
//! ride between recurrent cells without re-learning the identity.

use crate::layers::bcm::StackedLayer;
use crate::layers::checkpoint::{LayerSnapshot, StackSnapshot};
use crate::layers::gates::GateStack;
use crate::layers::{BcmLayer, Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use circulant::schedule::ConvShape;
use circulant::ConvBlockCirculant;
use rand::Rng;
use tensor::Tensor;

/// Per-sample forward state kept for backward.
#[derive(Debug, Clone)]
struct SampleCache {
    /// `[T, D]` gathered input.
    xn: Vec<f32>,
    /// `[T, D]` projections.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// `[T, T]` post-softmax attention weights.
    a: Vec<f32>,
}

/// BPTT cache of one training forward.
#[derive(Debug, Clone)]
struct AttnCache {
    t_len: usize,
    samples: Vec<SampleCache>,
}

/// Single-head self-attention with block-circulant `q`/`k`/`v`
/// projections and a residual connection, over `[N, D, T, 1]`.
#[derive(Debug, Clone)]
pub struct BcmAttention {
    name: String,
    dim: usize,
    q: GateStack,
    k: GateStack,
    v: GateStack,
    cache: Option<AttnCache>,
}

impl BcmAttention {
    /// Creates the layer for feature dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `bs` or `bs` is not a power of
    /// two ≥ 2.
    pub fn new(rng: &mut impl Rng, dim: usize, bs: usize) -> Self {
        BcmAttention {
            name: format!("bcmattn{dim}bs{bs}"),
            dim,
            q: GateStack::new(rng, dim, dim, 1, bs),
            k: GateStack::new(rng, dim, dim, 1, bs),
            v: GateStack::new(rng, dim, dim, 1, bs),
            cache: None,
        }
    }

    /// Rebuilds from its checkpoint record: three `[D, D]` stacks.
    pub(crate) fn from_parts(q: StackSnapshot, k: StackSnapshot, v: StackSnapshot) -> Self {
        let (dim, bs) = (q.c_in, q.bs);
        BcmAttention {
            name: format!("bcmattn{dim}bs{bs}"),
            dim,
            q: GateStack::from_snapshot(q),
            k: GateStack::from_snapshot(k),
            v: GateStack::from_snapshot(v),
            cache: None,
        }
    }

    /// The feature dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row-wise numerically-stable softmax over a `[t, t]` score matrix.
    fn softmax_rows(scores: &mut [f32], t: usize) {
        for r in 0..t {
            let row = &mut scores[r * t..(r + 1) * t];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for s in row.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            for s in row.iter_mut() {
                *s /= sum;
            }
        }
    }
}

impl Layer for BcmAttention {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        assert_eq!(x.shape().ndim(), 4, "bcm attention expects [N, D, T, 1]");
        let dims = x.dims();
        let (n, d, t_len) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.dim, "bcm attention feature mismatch");
        assert_eq!(
            dims[3], 1,
            "bcm attention expects a singleton trailing axis"
        );
        let xs = x.as_slice();
        let scale = 1.0 / (d as f32).sqrt();
        let mut y = vec![0.0f32; xs.len()];
        let mut samples = Vec::with_capacity(if train { n } else { 0 });
        // Training projects through the dense expansion (reused by
        // backward); inference batches all T timesteps through the cached
        // spectra.
        let dense = train.then(|| {
            (
                self.q.dense().transpose(),
                self.k.dense().transpose(),
                self.v.dense().transpose(),
            )
        });
        for s in 0..n {
            // Gather sample `s` as [T, D] row-major.
            let mut xn = vec![0.0f32; t_len * d];
            for j in 0..d {
                for t in 0..t_len {
                    xn[t * d + j] = xs[(s * d + j) * t_len + t];
                }
            }
            let (q, k, v) = match &dense {
                Some((qt, kt, vt)) => {
                    let xt = Tensor::from_vec(xn.clone(), &[t_len, d]);
                    (
                        xt.matmul(qt).as_slice().to_vec(),
                        xt.matmul(kt).as_slice().to_vec(),
                        xt.matmul(vt).as_slice().to_vec(),
                    )
                }
                None => (
                    self.q.spectral().forward(&xn, t_len, ConvShape::PIXEL),
                    self.k.spectral().forward(&xn, t_len, ConvShape::PIXEL),
                    self.v.spectral().forward(&xn, t_len, ConvShape::PIXEL),
                ),
            };
            // scores[r][c] = scale · q_r · k_c, then row softmax.
            let mut a = vec![0.0f32; t_len * t_len];
            for r in 0..t_len {
                for c in 0..t_len {
                    let mut dot = 0.0f32;
                    for j in 0..d {
                        dot += q[r * d + j] * k[c * d + j];
                    }
                    a[r * t_len + c] = dot * scale;
                }
            }
            Self::softmax_rows(&mut a, t_len);
            // out = a·v + xn (residual), scattered back to [D, T].
            for r in 0..t_len {
                for j in 0..d {
                    let mut acc = 0.0f32;
                    for c in 0..t_len {
                        acc += a[r * t_len + c] * v[c * d + j];
                    }
                    y[(s * d + j) * t_len + r] = acc + xn[r * d + j];
                }
            }
            if train {
                samples.push(SampleCache { xn, q, k, v, a });
            }
        }
        self.cache = train.then_some(AttnCache { t_len, samples });
        Tensor::from_vec(y, &[n, d, t_len, 1])
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let cache = self.cache.take().expect(NO_TRAINING_FORWARD);
        let (n, d, t_len) = (cache.samples.len(), self.dim, cache.t_len);
        assert_eq!(grad.dims(), &[n, d, t_len, 1], "upstream gradient shape");
        let gs = grad.as_slice();
        let scale = 1.0 / (d as f32).sqrt();
        let (qd, kd, vd) = (self.q.dense(), self.k.dense(), self.v.dense());
        let mut dqw = vec![0.0f32; d * d];
        let mut dkw = vec![0.0f32; d * d];
        let mut dvw = vec![0.0f32; d * d];
        let mut dx = vec![0.0f32; n * d * t_len];
        for (s, sc) in cache.samples.iter().enumerate() {
            // Gather upstream gradient as [T, D]; residual passes it to
            // dxn directly.
            let mut g = vec![0.0f32; t_len * d];
            for j in 0..d {
                for t in 0..t_len {
                    g[t * d + j] = gs[(s * d + j) * t_len + t];
                }
            }
            let gt = Tensor::from_vec(g.clone(), &[t_len, d]);
            let at = Tensor::from_vec(sc.a.clone(), &[t_len, t_len]);
            let vt = Tensor::from_vec(sc.v.clone(), &[t_len, d]);
            // dv = aᵀ·g; da = g·vᵀ.
            let dv = at.transpose().matmul(&gt);
            let da = gt.matmul(&vt.transpose());
            // Softmax backward per row: ds = a ⊙ (da − rowdot(da, a)).
            let mut ds = vec![0.0f32; t_len * t_len];
            for r in 0..t_len {
                let mut dot = 0.0f32;
                for c in 0..t_len {
                    dot += da.as_slice()[r * t_len + c] * sc.a[r * t_len + c];
                }
                for c in 0..t_len {
                    ds[r * t_len + c] =
                        sc.a[r * t_len + c] * (da.as_slice()[r * t_len + c] - dot) * scale;
                }
            }
            let dst = Tensor::from_vec(ds, &[t_len, t_len]);
            let qt = Tensor::from_vec(sc.q.clone(), &[t_len, d]);
            let kt = Tensor::from_vec(sc.k.clone(), &[t_len, d]);
            let dq = dst.matmul(&kt);
            let dk = dst.transpose().matmul(&qt);
            let xt = Tensor::from_vec(sc.xn.clone(), &[t_len, d]);
            for (acc, &x) in dqw.iter_mut().zip(dq.transpose().matmul(&xt).as_slice()) {
                *acc += x;
            }
            for (acc, &x) in dkw.iter_mut().zip(dk.transpose().matmul(&xt).as_slice()) {
                *acc += x;
            }
            for (acc, &x) in dvw.iter_mut().zip(dv.transpose().matmul(&xt).as_slice()) {
                *acc += x;
            }
            // dxn = dq·Wq + dk·Wk + dv·Wv + g (residual).
            let dxn_q = dq.matmul(qd);
            let dxn_k = dk.matmul(kd);
            let dxn_v = dv.matmul(vd);
            for t in 0..t_len {
                for j in 0..d {
                    dx[(s * d + j) * t_len + t] = dxn_q.as_slice()[t * d + j]
                        + dxn_k.as_slice()[t * d + j]
                        + dxn_v.as_slice()[t * d + j]
                        + g[t * d + j];
                }
            }
        }
        self.q.accumulate_grad(&Tensor::from_vec(dqw, &[d, d]));
        self.k.accumulate_grad(&Tensor::from_vec(dkw, &[d, d]));
        self.v.accumulate_grad(&Tensor::from_vec(dvw, &[d, d]));
        Tensor::from_vec(dx, &[n, d, t_len, 1])
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.cache = None;
        self.q.step(update);
        self.k.step(update);
        self.v.step(update);
    }

    fn param_count(&self) -> usize {
        self.trained_param_count()
    }

    fn params(&self) -> Vec<&Param> {
        self.stacks().into_iter().flat_map(|s| s.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let stacks = self.stacks_mut().into_iter();
        stacks.flat_map(|s| s.params_mut().iter_mut()).collect()
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
        Some(LayerSnapshot::BcmAttention {
            q: self.q.snapshot(),
            k: self.k.snapshot(),
            v: self.v.snapshot(),
        })
    }
}

impl StackedLayer for BcmAttention {
    /// `q` blocks, then `k`, then `v` — the stable local ordering the
    /// whole-network global pruning index builds on.
    fn stacks(&self) -> Vec<&GateStack> {
        vec![&self.q, &self.k, &self.v]
    }

    fn stacks_mut(&mut self) -> Vec<&mut GateStack> {
        vec![&mut self.q, &mut self.k, &mut self.v]
    }

    /// The folded weights as the vertically stacked `[3D, D]` projection
    /// matrix `[W_q; W_k; W_v]`.
    fn fold(&self) -> ConvBlockCirculant<f32> {
        let (qg, kg, vg) = (
            self.q.snapshot().folded_grid(),
            self.k.snapshot().folded_grid(),
            self.v.snapshot().folded_grid(),
        );
        let bs = self.block_size();
        let (rows, cols) = qg.grid_dims();
        let mut blocks = Vec::with_capacity(3 * rows * cols);
        for g in [&qg, &kg, &vg] {
            for bo in 0..rows {
                for bi in 0..cols {
                    blocks.push(g.block(bo, bi).clone());
                }
            }
        }
        ConvBlockCirculant::from_grids(
            1,
            1,
            vec![circulant::BlockCirculant::from_blocks(
                bs,
                3 * rows,
                cols,
                blocks,
            )],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_input_gradient;
    use crate::layers::BcmLayer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(0);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8, 5, 1], 0.0, 1.0);
        let attn = BcmAttention::new(&mut rng, 8, 4);
        let check = check_input_gradient(&attn, &x, 16);
        assert!(check.passes(2e-2), "attention: {check:?}");
    }

    #[test]
    fn parameter_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 4, 1], 0.0, 1.0);
        let attn = BcmAttention::new(&mut rng, 4, 2);
        let layer = attn.clone();
        let mut work = attn;
        let out = work.forward(&x, true);
        let _ = work.backward(&Tensor::ones(out.dims()));
        let eps = 1e-3f32;
        let loss = |l: &mut BcmAttention| -> f64 {
            l.forward(&x, true)
                .as_slice()
                .iter()
                .map(|&v| f64::from(v))
                .sum()
        };
        let n_params = work.params().len();
        for pi in 0..n_params {
            let len = work.params()[pi].len();
            for idx in (0..len).step_by((len / 8).max(1)) {
                let analytic = f64::from(work.params()[pi].grad.as_slice()[idx]);
                let mut lp = layer.clone();
                lp.params_mut()[pi].value.as_mut_slice()[idx] += eps;
                let y1 = loss(&mut lp);
                let mut lm = layer.clone();
                lm.params_mut()[pi].value.as_mut_slice()[idx] -= eps;
                let y0 = loss(&mut lm);
                let numeric = (y1 - y0) / (2.0 * f64::from(eps));
                let abs = (analytic - numeric).abs();
                let rel = abs / analytic.abs().max(numeric.abs()).max(1e-8);
                assert!(
                    abs < 2e-2 || rel < 0.01,
                    "param {pi} idx {idx}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn eval_forward_matches_train_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[3, 8, 6, 1], 0.0, 1.0);
        let mut attn = BcmAttention::new(&mut rng, 8, 4);
        let train = attn.forward(&x, true);
        let eval = attn.forward(&x, false);
        assert_eq!(train.dims(), eval.dims());
        for (a, b) in train.as_slice().iter().zip(eval.as_slice()) {
            assert!((a - b).abs() < 1e-4, "train {a} vs eval {b}");
        }
    }

    #[test]
    fn eliminate_routes_across_projection_stacks() {
        let mut rng = StdRng::seed_from_u64(3);
        // dim 8, bs 4 -> each of q/k/v has a 2x2 grid = 4 blocks, 12 total.
        let mut attn = BcmAttention::new(&mut rng, 8, 4);
        assert_eq!(attn.block_count(), 12);
        assert_eq!(attn.importances().len(), 12);
        // One block in each stack: q local 0, k local 1 (global 5),
        // v local 3 (global 11).
        attn.eliminate(&[0, 5, 11]);
        assert_eq!(attn.live_blocks(), 9);
        // The folded [3D, D] grid mirrors the zeros in stack order q, k, v.
        let folded = attn.folded();
        let (gh, gw) = folded.grid_dims();
        assert_eq!((gh, gw), (6, 2));
        let zeroed = [(0, 0), (2, 1), (5, 1)];
        for bi in 0..gh {
            for bj in 0..gw {
                let grid = folded.grid(0, 0);
                let blk = grid.block(bi, bj);
                let is_zero = blk.defining_vector().iter().all(|&v| v == 0.0);
                assert_eq!(
                    is_zero,
                    zeroed.contains(&(bi, bj)),
                    "block ({bi},{bj}) zero={is_zero}"
                );
            }
        }
    }

    #[test]
    fn residual_keeps_information_at_zeroed_weights() {
        // With every projection eliminated, attention degrades to an
        // identity map (residual + uniform-softmax over zero values).
        let mut rng = StdRng::seed_from_u64(4);
        let mut attn = BcmAttention::new(&mut rng, 4, 2);
        let all: Vec<usize> = (0..attn.block_count()).collect();
        attn.eliminate(&all);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 4, 3, 1], 0.0, 1.0);
        let y = attn.forward(&x, false);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-6, "residual identity: {a} vs {b}");
        }
    }
}
