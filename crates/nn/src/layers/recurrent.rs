//! Block-circulant recurrent layers (C-LSTM / E-RNN style).
//!
//! C-LSTM (Wang et al., FPGA'18) compresses LSTM gate matrices as
//! block-circulant FFT pipelines; E-RNN (Li et al., HPCA'19) extends the
//! same structure to GRUs. These layers reproduce that parameterization
//! on the workspace's BCM substrate:
//!
//! - [`BcmLstm`] stores **one** block-circulant `[4H, F+H]` gate matrix
//!   applied to the concatenated `[x_t; h_{t−1}]` input (the C-LSTM
//!   formulation `W·[x; h]`), so a single FFT→eMAC→IFFT matvec per
//!   timestep produces all four gate pre-activations.
//! - [`BcmGru`] keeps separate `[3H, F]` input and `[3H, H]` recurrent
//!   stacks (the PyTorch gate convention needs `r ⊙ (U_n·h + b_n)`
//!   before the tanh, which a concatenated matrix cannot express).
//!
//! Both layers run sequence-to-sequence over `[N, F, T, 1]` tensors
//! (features as channels, time as the H axis), train with full BPTT, and
//! expose the [`BcmLayer`] surface so Algorithm 1 prunes whole gate
//! blocks exactly as it prunes conv/FC blocks. The inference forward goes
//! through `BlockCirculant::matmat` and the shared cell math in
//! [`crate::seq`], which makes a batched eval forward bit-identical to
//! the step-at-a-time [`crate::seq::SeqRunner`] the serving tier uses.

use crate::layers::bcm::StackedLayer;
use crate::layers::checkpoint::{LayerSnapshot, StackSnapshot};
use crate::layers::gates::GateStack;
use crate::layers::{BcmLayer, Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use crate::seq::{add_bias, gru_cell, lstm_cell};
use circulant::ConvBlockCirculant;
use rand::Rng;
use tensor::Tensor;

/// Splits the flat per-sample state buffer into one sample's row.
#[inline]
fn row(buf: &[f32], s: usize, width: usize) -> &[f32] {
    &buf[s * width..(s + 1) * width]
}

#[inline]
fn row_mut(buf: &mut [f32], s: usize, width: usize) -> &mut [f32] {
    &mut buf[s * width..(s + 1) * width]
}

/// Checks and unpacks a `[N, F, T, 1]` sequence tensor's dimensions.
fn seq_dims(x: &Tensor<f32>, features: usize, what: &str) -> (usize, usize) {
    assert_eq!(x.shape().ndim(), 4, "{what} expects [N, F, T, 1]");
    let d = x.dims();
    assert_eq!(d[1], features, "{what} feature mismatch");
    assert_eq!(d[3], 1, "{what} expects a singleton trailing axis");
    (d[0], d[2])
}

/// Gathers timestep `t` of a `[N, F, T, 1]` tensor into `dst` as a
/// row-major `[N, F]` matrix (plus `extra` trailing slots per sample that
/// the caller fills).
fn gather_step(
    xs: &[f32],
    n: usize,
    f: usize,
    t_len: usize,
    t: usize,
    dst: &mut [f32],
    extra: usize,
) {
    let width = f + extra;
    for s in 0..n {
        for j in 0..f {
            dst[s * width + j] = xs[(s * f + j) * t_len + t];
        }
    }
}

/// Scatters a `[N, W]` matrix's rows into timestep `t` of a
/// `[N, W, T, 1]` output buffer.
fn scatter_step(ys: &mut [f32], src: &[f32], n: usize, w: usize, t_len: usize, t: usize) {
    for s in 0..n {
        for j in 0..w {
            ys[(s * w + j) * t_len + t] = src[s * w + j];
        }
    }
}

// ---------------------------------------------------------------------
// BcmLstm
// ---------------------------------------------------------------------

/// BPTT cache of one training forward.
#[derive(Debug, Clone)]
struct LstmCache {
    n: usize,
    t_len: usize,
    /// Per timestep: concatenated inputs `[N, F+H]` (the `[F..]` tail is
    /// `h_{t−1}`, so backward needs no separate hidden-state history).
    zs: Vec<Vec<f32>>,
    /// Per timestep: post-activation gate values `[N, 4H]` (i, f, g, o).
    gates: Vec<Vec<f32>>,
    /// Per timestep: cell states `[N, H]`.
    cs: Vec<Vec<f32>>,
}

/// A block-circulant LSTM layer over `[N, F, T, 1] → [N, H, T, 1]`.
///
/// The four gate matrices are fused into one `[4H, F+H]` block-circulant
/// matrix applied to `[x_t; h_{t−1}]` (gate order `i, f, g, o`), so the
/// recurrent hot path is one spectral matvec plus the pointwise cell
/// update per timestep.
#[derive(Debug, Clone)]
pub struct BcmLstm {
    name: String,
    in_features: usize,
    hidden: usize,
    /// `[4H, F+H]` fused gate matrix.
    gates: GateStack,
    /// `[4H]` gate bias.
    bias: Param,
    cache: Option<LstmCache>,
}

impl BcmLstm {
    /// Creates a block-circulant LSTM cell.
    ///
    /// # Panics
    ///
    /// Panics if `in_features`, `hidden`, or `4·hidden` is not divisible
    /// by `bs`, or `bs` is not a power of two ≥ 2.
    pub fn new(rng: &mut impl Rng, in_features: usize, hidden: usize, bs: usize) -> Self {
        // The fused stack only needs F+H and 4H divisible, but the fx
        // serving path tiles x and h into separate block runs, so require
        // each to be block-aligned on its own.
        assert_eq!(in_features % bs, 0, "in_features not divisible by BS");
        assert_eq!(hidden % bs, 0, "hidden not divisible by BS");
        let mut layer = BcmLstm {
            name: format!("bcmlstm{in_features}x{hidden}bs{bs}"),
            in_features,
            hidden,
            gates: GateStack::new(rng, in_features + hidden, 4 * hidden, 1, bs),
            bias: Param::new(Tensor::zeros(&[4 * hidden])),
            cache: None,
        };
        layer.init_forget_bias();
        layer
    }

    /// The standard LSTM trick: bias the forget gate open (+1) so early
    /// training does not flush the cell state every step.
    fn init_forget_bias(&mut self) {
        let hd = self.hidden;
        for b in &mut self.bias.value.as_mut_slice()[hd..2 * hd] {
            *b = 1.0;
        }
    }

    /// Rebuilds from its checkpoint record: the fused `[4H, F+H]` gate
    /// stack and the `[4H]` bias.
    pub(crate) fn from_parts(gates: StackSnapshot, bias: Vec<f32>) -> Self {
        let hidden = gates.c_out / 4;
        let (in_features, bs) = (gates.c_in - hidden, gates.bs);
        assert_eq!(bias.len(), 4 * hidden, "bias length");
        BcmLstm {
            name: format!("bcmlstm{in_features}x{hidden}bs{bs}"),
            in_features,
            hidden,
            gates: GateStack::from_snapshot(gates),
            bias: Param::new(Tensor::from_vec(bias, &[4 * hidden])),
            cache: None,
        }
    }

    /// `(in_features, hidden)`.
    pub fn features(&self) -> (usize, usize) {
        (self.in_features, self.hidden)
    }
}

impl Layer for BcmLstm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let (n, t_len) = seq_dims(x, self.in_features, "bcm lstm");
        let (f, hd) = (self.in_features, self.hidden);
        let (fh, g4) = (f + hd, 4 * hd);
        let xs = x.as_slice();
        let bias = self.bias.value.as_slice().to_vec();
        let mut h = vec![0.0f32; n * hd];
        let mut c = vec![0.0f32; n * hd];
        let mut y = vec![0.0f32; n * hd * t_len];
        let mut cache = train.then(|| LstmCache {
            n,
            t_len,
            zs: Vec::with_capacity(t_len),
            gates: Vec::with_capacity(t_len),
            cs: Vec::with_capacity(t_len),
        });
        // Training path: expand once, one dense matmul per step (backward
        // reuses the same expansion). Inference path: batched
        // FFT→eMAC→IFFT against the cached weight spectra.
        let wd_t = train.then(|| self.gates.dense().transpose());
        for t in 0..t_len {
            let mut z = vec![0.0f32; n * fh];
            gather_step(xs, n, f, t_len, t, &mut z, hd);
            for s in 0..n {
                z[s * fh + f..(s + 1) * fh].copy_from_slice(row(&h, s, hd));
            }
            let mut pre = match &wd_t {
                Some(wt) => Tensor::from_vec(z.clone(), &[n, fh])
                    .matmul(wt)
                    .as_slice()
                    .to_vec(),
                None => self.gates.grid().matmat(&z, n),
            };
            for s in 0..n {
                add_bias(row_mut(&mut pre, s, g4), &bias);
                lstm_cell(
                    row_mut(&mut pre, s, g4),
                    row_mut(&mut h, s, hd),
                    row_mut(&mut c, s, hd),
                );
            }
            scatter_step(&mut y, &h, n, hd, t_len, t);
            if let Some(cache) = &mut cache {
                cache.zs.push(z);
                cache.gates.push(pre);
                cache.cs.push(c.clone());
            }
        }
        self.cache = cache;
        Tensor::from_vec(y, &[n, hd, t_len, 1])
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let cache = self.cache.take().expect(NO_TRAINING_FORWARD);
        let (n, t_len) = (cache.n, cache.t_len);
        let (f, hd) = (self.in_features, self.hidden);
        let (fh, g4) = (f + hd, 4 * hd);
        assert_eq!(grad.dims(), &[n, hd, t_len, 1], "upstream gradient shape");
        let gs = grad.as_slice();
        let wd = self.gates.dense();
        let mut dwd = vec![0.0f32; g4 * fh];
        let mut db = vec![0.0f32; g4];
        let mut dx = vec![0.0f32; n * f * t_len];
        let mut dh_next = vec![0.0f32; n * hd];
        let mut dc_next = vec![0.0f32; n * hd];
        for t in (0..t_len).rev() {
            let gates = &cache.gates[t];
            let c_t = &cache.cs[t];
            let mut dpre = vec![0.0f32; n * g4];
            for s in 0..n {
                for j in 0..hd {
                    let dh = gs[(s * hd + j) * t_len + t] + dh_next[s * hd + j];
                    let i = gates[s * g4 + j];
                    let fg = gates[s * g4 + hd + j];
                    let g = gates[s * g4 + 2 * hd + j];
                    let o = gates[s * g4 + 3 * hd + j];
                    let tc = c_t[s * hd + j].tanh();
                    let c_prev = if t > 0 {
                        cache.cs[t - 1][s * hd + j]
                    } else {
                        0.0
                    };
                    let dc = dh * o * (1.0 - tc * tc) + dc_next[s * hd + j];
                    dpre[s * g4 + j] = dc * g * i * (1.0 - i);
                    dpre[s * g4 + hd + j] = dc * c_prev * fg * (1.0 - fg);
                    dpre[s * g4 + 2 * hd + j] = dc * i * (1.0 - g * g);
                    dpre[s * g4 + 3 * hd + j] = dh * tc * o * (1.0 - o);
                    dc_next[s * hd + j] = dc * fg;
                }
            }
            let dpre_t = Tensor::from_vec(dpre, &[n, g4]);
            let z_t = Tensor::from_vec(cache.zs[t].clone(), &[n, fh]);
            let dw_step = dpre_t.transpose().matmul(&z_t);
            for (acc, &v) in dwd.iter_mut().zip(dw_step.as_slice()) {
                *acc += v;
            }
            let dp = dpre_t.as_slice();
            for s in 0..n {
                for k in 0..g4 {
                    db[k] += dp[s * g4 + k];
                }
            }
            let dz = dpre_t.matmul(wd);
            let dzs = dz.as_slice();
            for s in 0..n {
                for j in 0..f {
                    dx[(s * f + j) * t_len + t] = dzs[s * fh + j];
                }
                dh_next[s * hd..(s + 1) * hd].copy_from_slice(&dzs[s * fh + f..(s + 1) * fh]);
            }
        }
        self.gates
            .accumulate_grad(&Tensor::from_vec(dwd, &[g4, fh]));
        for (acc, &v) in self.bias.grad.as_mut_slice().iter_mut().zip(&db) {
            *acc += v;
        }
        Tensor::from_vec(dx, &[n, f, t_len, 1])
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.cache = None;
        self.gates.step(update);
        self.bias.step(update);
    }

    fn param_count(&self) -> usize {
        self.trained_param_count() + self.bias.len()
    }

    fn params(&self) -> Vec<&Param> {
        self.gates.params().iter().chain([&self.bias]).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let bias = [&mut self.bias];
        self.gates.params_mut().iter_mut().chain(bias).collect()
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
        Some(LayerSnapshot::BcmLstm {
            gates: self.gates.snapshot(),
            bias: self.bias.value.as_slice().to_vec(),
        })
    }
}

impl StackedLayer for BcmLstm {
    fn stacks(&self) -> Vec<&GateStack> {
        vec![&self.gates]
    }

    fn stacks_mut(&mut self) -> Vec<&mut GateStack> {
        vec![&mut self.gates]
    }

    fn fold(&self) -> ConvBlockCirculant<f32> {
        self.gates.snapshot().folded()
    }
}

// ---------------------------------------------------------------------
// BcmGru
// ---------------------------------------------------------------------

/// BPTT cache of one training forward.
#[derive(Debug, Clone)]
struct GruCache {
    n: usize,
    t_len: usize,
    /// Per timestep: inputs `[N, F]`.
    xts: Vec<Vec<f32>>,
    /// Per timestep: hidden state *before* the update `[N, H]`.
    h_prevs: Vec<Vec<f32>>,
    /// Per timestep: post-activation `r, z, n` values `[N, 3H]`.
    rzn: Vec<Vec<f32>>,
    /// Per timestep: `U·h + b_u` pre-activations `[N, 3H]` (only the `n`
    /// third is consumed by backward, but the buffer is cached whole).
    pre_u: Vec<Vec<f32>>,
}

/// A block-circulant GRU layer over `[N, F, T, 1] → [N, H, T, 1]`
/// (PyTorch gate convention, gate order `r, z, n`).
#[derive(Debug, Clone)]
pub struct BcmGru {
    name: String,
    in_features: usize,
    hidden: usize,
    /// `[3H, F]` input-to-gates matrix.
    w: GateStack,
    /// `[3H, H]` recurrent matrix.
    u: GateStack,
    /// `[3H]` input-side bias.
    bias_w: Param,
    /// `[3H]` recurrent-side bias.
    bias_u: Param,
    cache: Option<GruCache>,
}

impl BcmGru {
    /// Creates a block-circulant GRU cell.
    ///
    /// # Panics
    ///
    /// Panics if `in_features`, `hidden`, or `3·hidden` is not divisible
    /// by `bs`, or `bs` is not a power of two ≥ 2.
    pub fn new(rng: &mut impl Rng, in_features: usize, hidden: usize, bs: usize) -> Self {
        BcmGru {
            name: format!("bcmgru{in_features}x{hidden}bs{bs}"),
            in_features,
            hidden,
            w: GateStack::new(rng, in_features, 3 * hidden, 1, bs),
            u: GateStack::new(rng, hidden, 3 * hidden, 1, bs),
            bias_w: Param::new(Tensor::zeros(&[3 * hidden])),
            bias_u: Param::new(Tensor::zeros(&[3 * hidden])),
            cache: None,
        }
    }

    /// Rebuilds from its checkpoint record: input stack `[3H, F]`,
    /// recurrent stack `[3H, H]` and their `[3H]` biases.
    pub(crate) fn from_parts(
        w: StackSnapshot,
        u: StackSnapshot,
        bias_w: Vec<f32>,
        bias_u: Vec<f32>,
    ) -> Self {
        let (in_features, hidden, bs) = (w.c_in, u.c_in, w.bs);
        assert_eq!(bias_w.len(), 3 * hidden, "input bias length");
        assert_eq!(bias_u.len(), 3 * hidden, "recurrent bias length");
        BcmGru {
            name: format!("bcmgru{in_features}x{hidden}bs{bs}"),
            in_features,
            hidden,
            w: GateStack::from_snapshot(w),
            u: GateStack::from_snapshot(u),
            bias_w: Param::new(Tensor::from_vec(bias_w, &[3 * hidden])),
            bias_u: Param::new(Tensor::from_vec(bias_u, &[3 * hidden])),
            cache: None,
        }
    }

    /// `(in_features, hidden)`.
    pub fn features(&self) -> (usize, usize) {
        (self.in_features, self.hidden)
    }
}

impl Layer for BcmGru {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let (n, t_len) = seq_dims(x, self.in_features, "bcm gru");
        let (f, hd) = (self.in_features, self.hidden);
        let g3 = 3 * hd;
        let xs = x.as_slice();
        let bw = self.bias_w.value.as_slice().to_vec();
        let bu = self.bias_u.value.as_slice().to_vec();
        let mut h = vec![0.0f32; n * hd];
        let mut y = vec![0.0f32; n * hd * t_len];
        let mut cache = train.then(|| GruCache {
            n,
            t_len,
            xts: Vec::with_capacity(t_len),
            h_prevs: Vec::with_capacity(t_len),
            rzn: Vec::with_capacity(t_len),
            pre_u: Vec::with_capacity(t_len),
        });
        let wd_t = train.then(|| self.w.dense().transpose());
        let ud_t = train.then(|| self.u.dense().transpose());
        for t in 0..t_len {
            let mut xt = vec![0.0f32; n * f];
            gather_step(xs, n, f, t_len, t, &mut xt, 0);
            let mut pre_w = match &wd_t {
                Some(wt) => Tensor::from_vec(xt.clone(), &[n, f])
                    .matmul(wt)
                    .as_slice()
                    .to_vec(),
                None => self.w.grid().matmat(&xt, n),
            };
            let mut pre_u = match &ud_t {
                Some(ut) => Tensor::from_vec(h.clone(), &[n, hd])
                    .matmul(ut)
                    .as_slice()
                    .to_vec(),
                None => self.u.grid().matmat(&h, n),
            };
            let h_prev = h.clone();
            for s in 0..n {
                add_bias(row_mut(&mut pre_w, s, g3), &bw);
                add_bias(row_mut(&mut pre_u, s, g3), &bu);
                gru_cell(
                    row_mut(&mut pre_w, s, g3),
                    row_mut(&mut pre_u, s, g3),
                    row_mut(&mut h, s, hd),
                );
            }
            scatter_step(&mut y, &h, n, hd, t_len, t);
            if let Some(cache) = &mut cache {
                cache.xts.push(xt);
                cache.h_prevs.push(h_prev);
                cache.rzn.push(pre_w);
                cache.pre_u.push(pre_u);
            }
        }
        self.cache = cache;
        Tensor::from_vec(y, &[n, hd, t_len, 1])
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let cache = self.cache.take().expect(NO_TRAINING_FORWARD);
        let (n, t_len) = (cache.n, cache.t_len);
        let (f, hd) = (self.in_features, self.hidden);
        let g3 = 3 * hd;
        assert_eq!(grad.dims(), &[n, hd, t_len, 1], "upstream gradient shape");
        let gs = grad.as_slice();
        let wd = self.w.dense();
        let ud = self.u.dense();
        let mut dwd = vec![0.0f32; g3 * f];
        let mut dud = vec![0.0f32; g3 * hd];
        let mut dbw = vec![0.0f32; g3];
        let mut dbu = vec![0.0f32; g3];
        let mut dx = vec![0.0f32; n * f * t_len];
        let mut dh_next = vec![0.0f32; n * hd];
        for t in (0..t_len).rev() {
            let rzn = &cache.rzn[t];
            let pre_u = &cache.pre_u[t];
            let h_prev = &cache.h_prevs[t];
            let mut dpre_w = vec![0.0f32; n * g3];
            let mut dpre_u = vec![0.0f32; n * g3];
            let mut dh_direct = vec![0.0f32; n * hd];
            for s in 0..n {
                for j in 0..hd {
                    let dh = gs[(s * hd + j) * t_len + t] + dh_next[s * hd + j];
                    let r = rzn[s * g3 + j];
                    let z = rzn[s * g3 + hd + j];
                    let nn = rzn[s * g3 + 2 * hd + j];
                    let un = pre_u[s * g3 + 2 * hd + j];
                    let hp = h_prev[s * hd + j];
                    let dz = dh * (hp - nn);
                    let dnn_hat = dh * (1.0 - z) * (1.0 - nn * nn);
                    let dr_hat = dnn_hat * un * r * (1.0 - r);
                    let dz_hat = dz * z * (1.0 - z);
                    dpre_w[s * g3 + j] = dr_hat;
                    dpre_w[s * g3 + hd + j] = dz_hat;
                    dpre_w[s * g3 + 2 * hd + j] = dnn_hat;
                    dpre_u[s * g3 + j] = dr_hat;
                    dpre_u[s * g3 + hd + j] = dz_hat;
                    dpre_u[s * g3 + 2 * hd + j] = dnn_hat * r;
                    dh_direct[s * hd + j] = dh * z;
                }
            }
            let dpw = Tensor::from_vec(dpre_w, &[n, g3]);
            let dpu = Tensor::from_vec(dpre_u, &[n, g3]);
            let xt = Tensor::from_vec(cache.xts[t].clone(), &[n, f]);
            let hp = Tensor::from_vec(h_prev.clone(), &[n, hd]);
            for (acc, &v) in dwd.iter_mut().zip(dpw.transpose().matmul(&xt).as_slice()) {
                *acc += v;
            }
            for (acc, &v) in dud.iter_mut().zip(dpu.transpose().matmul(&hp).as_slice()) {
                *acc += v;
            }
            for s in 0..n {
                for k in 0..g3 {
                    dbw[k] += dpw.as_slice()[s * g3 + k];
                    dbu[k] += dpu.as_slice()[s * g3 + k];
                }
            }
            let dxt = dpw.matmul(wd);
            for s in 0..n {
                for j in 0..f {
                    dx[(s * f + j) * t_len + t] = dxt.as_slice()[s * f + j];
                }
            }
            let dhu = dpu.matmul(ud);
            for (dst, (&a, &b)) in dh_next
                .iter_mut()
                .zip(dhu.as_slice().iter().zip(&dh_direct))
            {
                *dst = a + b;
            }
        }
        self.w.accumulate_grad(&Tensor::from_vec(dwd, &[g3, f]));
        self.u.accumulate_grad(&Tensor::from_vec(dud, &[g3, hd]));
        for (acc, &v) in self.bias_w.grad.as_mut_slice().iter_mut().zip(&dbw) {
            *acc += v;
        }
        for (acc, &v) in self.bias_u.grad.as_mut_slice().iter_mut().zip(&dbu) {
            *acc += v;
        }
        Tensor::from_vec(dx, &[n, f, t_len, 1])
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.cache = None;
        self.w.step(update);
        self.u.step(update);
        self.bias_w.step(update);
        self.bias_u.step(update);
    }

    fn param_count(&self) -> usize {
        self.trained_param_count() + self.bias_w.len() + self.bias_u.len()
    }

    fn params(&self) -> Vec<&Param> {
        let biases = [&self.bias_w, &self.bias_u];
        self.w
            .params()
            .iter()
            .chain(self.u.params())
            .chain(biases)
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let biases = [&mut self.bias_w, &mut self.bias_u];
        let (w, u) = (self.w.params_mut(), self.u.params_mut());
        w.iter_mut().chain(u).chain(biases).collect()
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
        Some(LayerSnapshot::BcmGru {
            w: self.w.snapshot(),
            u: self.u.snapshot(),
            bias_w: self.bias_w.value.as_slice().to_vec(),
            bias_u: self.bias_u.value.as_slice().to_vec(),
        })
    }
}

impl StackedLayer for BcmGru {
    /// `w` blocks first, then `u` blocks — the stable local ordering the
    /// whole-network global index builds on.
    fn stacks(&self) -> Vec<&GateStack> {
        vec![&self.w, &self.u]
    }

    fn stacks_mut(&mut self) -> Vec<&mut GateStack> {
        vec![&mut self.w, &mut self.u]
    }

    /// The folded weights as a single `[3H, F+H]` grid: per gate row, the
    /// input blocks (`W`) then the recurrent blocks (`U`) — the
    /// concatenated matrix `[W U]` applied to `[x; h]`.
    fn fold(&self) -> ConvBlockCirculant<f32> {
        let (wg, ug) = (
            self.w.snapshot().folded_grid(),
            self.u.snapshot().folded_grid(),
        );
        let bs = self.block_size();
        let (rows, w_cols) = wg.grid_dims();
        let (_, u_cols) = ug.grid_dims();
        let mut blocks = Vec::with_capacity(rows * (w_cols + u_cols));
        for bo in 0..rows {
            for bi in 0..w_cols {
                blocks.push(wg.block(bo, bi).clone());
            }
            for bi in 0..u_cols {
                blocks.push(ug.block(bo, bi).clone());
            }
        }
        ConvBlockCirculant::from_grids(
            1,
            1,
            vec![circulant::BlockCirculant::from_blocks(
                bs,
                rows,
                w_cols + u_cols,
                blocks,
            )],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_input_gradient;
    use crate::optim::SgdUpdate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn update() -> SgdUpdate {
        SgdUpdate {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }

    #[test]
    fn lstm_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(0);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8, 5, 1], 0.0, 1.0);
        let lstm = BcmLstm::new(&mut rng, 8, 8, 4);
        let check = check_input_gradient(&lstm, &x, 16);
        assert!(check.passes(2e-2), "lstm: {check:?}");
    }

    #[test]
    fn gru_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8, 5, 1], 0.0, 1.0);
        let gru = BcmGru::new(&mut rng, 8, 8, 4);
        let check = check_input_gradient(&gru, &x, 16);
        assert!(check.passes(2e-2), "gru: {check:?}");
    }

    /// Central-difference check of a layer's *parameter* gradients: probes
    /// entries of every `Param` against the loss `L = Σ out`.
    fn check_param_gradients<L: Layer + Clone>(layer: &L, x: &Tensor<f32>, probe: usize) {
        let mut work = layer.clone();
        let out = work.forward(x, true);
        let _ = work.backward(&Tensor::ones(out.dims()));
        let loss = |l: &mut L| -> f64 {
            l.forward(x, true)
                .as_slice()
                .iter()
                .map(|&v| f64::from(v))
                .sum()
        };
        let eps = 1e-3f32;
        let n_params = work.params().len();
        for pi in 0..n_params {
            let len = work.params()[pi].len();
            let step = (len / probe).max(1);
            for idx in (0..len).step_by(step) {
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
    fn lstm_parameter_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 4, 1], 0.0, 1.0);
        let lstm = BcmLstm::new(&mut rng, 4, 4, 2);
        check_param_gradients(&lstm, &x, 8);
    }

    #[test]
    fn gru_parameter_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 4, 1], 0.0, 1.0);
        let gru = BcmGru::new(&mut rng, 4, 4, 2);
        check_param_gradients(&gru, &x, 8);
    }

    #[test]
    fn eval_forward_matches_train_forward() {
        // Train mode multiplies the dense expansion; eval mode runs the
        // FFT→eMAC→IFFT spectral path. Same math, different rounding — the
        // recurrence compounds the difference, so the tolerance is looser
        // than a single layer's.
        let mut rng = StdRng::seed_from_u64(4);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[3, 8, 6, 1], 0.0, 1.0);
        let mut lstm = BcmLstm::new(&mut rng, 8, 8, 4);
        let a = lstm.forward(&x, true);
        let b = lstm.forward(&x, false);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
        let mut gru = BcmGru::new(&mut rng, 8, 8, 4);
        let a = gru.forward(&x, true);
        let b = gru.forward(&x, false);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
    }

    #[test]
    fn pruned_blocks_stay_zero_through_training_steps() {
        let mut rng = StdRng::seed_from_u64(5);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 3, 1], 0.0, 1.0);
        let mut lstm = BcmLstm::new(&mut rng, 4, 4, 2);
        let total = lstm.block_count();
        assert_eq!(total, (4 * 4 / 2) * ((4 + 4) / 2)); // 8×4 grid of 2×2 blocks
        lstm.eliminate(&[0, 5, 31]);
        assert_eq!(lstm.live_blocks(), total - 3);
        assert!(!lstm.skip_index()[0] && lstm.skip_index()[1]);
        for _ in 0..3 {
            let y = lstm.forward(&x, true);
            let _ = lstm.backward(&Tensor::ones(y.dims()));
            lstm.step(&update());
        }
        // The gate grid folds pruned blocks to exact zero circulants and
        // every live block to a trained, nonzero one.
        let folded = lstm.folded();
        let skip = lstm.skip_index();
        assert_eq!(folded.block_count(), skip.len());
        for (blk, (block, &live)) in folded.grid(0, 0).iter().zip(&skip).enumerate() {
            assert_eq!(block.is_zero(), !live, "block {blk}");
            if !live {
                assert!(block.defining_vector().iter().all(|v| v.to_bits() == 0));
            }
        }
        assert_eq!(lstm.folded_param_count(), (total - 3) * 2);
    }

    #[test]
    fn gru_eliminate_routes_between_stacks() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut gru = BcmGru::new(&mut rng, 4, 4, 2);
        let w_blocks = gru.w.block_count(); // (12/2)×(4/2) = 12
        assert_eq!(gru.block_count(), w_blocks + gru.u.block_count());
        // One index in each stack's range.
        gru.eliminate(&[1, w_blocks + 2]);
        assert_eq!(gru.w.live_blocks(), w_blocks - 1);
        assert_eq!(gru.u.live_blocks(), gru.u.block_count() - 1);
        let skip = gru.skip_index();
        assert!(!skip[1] && !skip[w_blocks + 2]);
        assert_eq!(skip.iter().filter(|&&l| !l).count(), 2);
        // Importances of pruned blocks are zero after elimination.
        let imp = gru.importances();
        assert_eq!(imp[1], 0.0);
        assert_eq!(imp[w_blocks + 2], 0.0);
    }

    #[test]
    fn folded_grids_reproduce_the_dense_expansion() {
        // LSTM: the folded 1×1 ConvBlockCirculant's grid must multiply
        // like the dense [4H, F+H] matrix.
        let mut rng = StdRng::seed_from_u64(7);
        let mut lstm = BcmLstm::new(&mut rng, 4, 4, 2);
        lstm.eliminate(&[3]);
        let dense = lstm.gates.dense().clone();
        let folded = BcmLayer::folded(&lstm);
        let (kh, kw) = folded.kernel_dims();
        assert_eq!((kh, kw), (1, 1));
        let z: Vec<f32> = (0..8).map(|i| 0.25 * i as f32 - 1.0).collect();
        let got = folded.grid(0, 0).matvec_naive(&z);
        let ds = dense.as_slice();
        for (o, &g) in got.iter().enumerate() {
            let want: f32 = (0..8).map(|i| ds[o * 8 + i] * z[i]).sum();
            assert!((g - want).abs() < 1e-5, "row {o}: {g} vs {want}");
        }
        // GRU: folded is [W U] over [x; h].
        let mut gru = BcmGru::new(&mut rng, 4, 4, 2);
        gru.eliminate(&[0, 13]);
        let wd = gru.w.dense().clone();
        let ud = gru.u.dense().clone();
        let folded = BcmLayer::folded(&gru);
        let got = folded.grid(0, 0).matvec_naive(&z);
        let (x_part, h_part) = z.split_at(4);
        for (o, &g) in got.iter().enumerate() {
            let want: f32 = (0..4)
                .map(|i| wd.as_slice()[o * 4 + i] * x_part[i])
                .sum::<f32>()
                + (0..4)
                    .map(|i| ud.as_slice()[o * 4 + i] * h_part[i])
                    .sum::<f32>();
            assert!((g - want).abs() < 1e-5, "row {o}: {g} vs {want}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn lstm_rejects_unaligned_hidden() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = BcmLstm::new(&mut rng, 4, 6, 4);
    }
}
