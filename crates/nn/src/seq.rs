//! Sequence-model runtime: shared recurrent cell math and a per-step
//! streaming stepper.
//!
//! The BCM-compressed recurrent layers ([`crate::layers::BcmLstm`],
//! [`crate::layers::BcmGru`]) and the serving tier's streaming sessions
//! must produce **bit-identical** hidden states for the same weights —
//! a full-sequence eval forward and a step-at-a-time [`SeqRunner`] replay
//! the exact same arithmetic. That property rests on two pillars:
//!
//! 1. `BlockCirculant::matmat` and `BlockCirculant::matvec_lanes` run the
//!    same lane kernel, whose per-lane arithmetic does not depend on how
//!    many lanes share a pass. So the batched layer forward (one lane
//!    group per worker) and the lane-gang stepper (at any width, one
//!    included) compute every sample through the same expression tree.
//! 2. Everything after the matvec — bias addition and the nonlinear cell
//!    update — goes through the free functions in this module
//!    ([`add_bias`], [`lstm_cell`], [`gru_cell`]), in the same order on
//!    both paths.
//!
//! [`SeqRunner`] is the float stepper the serving tier pins per session:
//! it is built once from a network (or checkpoint), holds the hidden
//! state server-side, and advances one timestep per `session_step`.

use crate::layers::checkpoint::LayerSnapshot;
use crate::layers::Network;
use circulant::BlockCirculant;

/// Logistic sigmoid — the gate nonlinearity of both cells.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Adds a bias vector to gate pre-activations, in index order (both the
/// batched layer forward and the stepper must add bias through this
/// function so the f32 rounding matches bit for bit).
#[inline]
pub fn add_bias(pre: &mut [f32], bias: &[f32]) {
    debug_assert_eq!(pre.len(), bias.len());
    for (p, &b) in pre.iter_mut().zip(bias) {
        *p += b;
    }
}

/// One LSTM cell update.
///
/// `pre` holds the `4H` gate pre-activations in `i, f, g, o` order
/// (already including bias); `h`/`c` are the `H`-element previous hidden
/// and cell states, updated in place. On return `pre` holds the
/// post-activation gate values (the training path caches them for
/// backprop).
pub fn lstm_cell(pre: &mut [f32], h: &mut [f32], c: &mut [f32]) {
    let hd = h.len();
    debug_assert_eq!(pre.len(), 4 * hd);
    debug_assert_eq!(c.len(), hd);
    for j in 0..hd {
        let i = sigmoid(pre[j]);
        let f = sigmoid(pre[hd + j]);
        let g = pre[2 * hd + j].tanh();
        let o = sigmoid(pre[3 * hd + j]);
        let cj = f * c[j] + i * g;
        let tc = cj.tanh();
        c[j] = cj;
        h[j] = o * tc;
        pre[j] = i;
        pre[hd + j] = f;
        pre[2 * hd + j] = g;
        pre[3 * hd + j] = o;
    }
}

/// One GRU cell update (PyTorch gate convention, `r, z, n` order).
///
/// `pre_w` holds `W·x + b_w` and `pre_u` holds `U·h + b_u`, both `3H`.
/// `h` is updated in place:
/// `r = σ(w_r + u_r)`, `z = σ(w_z + u_z)`, `n = tanh(w_n + r⊙u_n)`,
/// `h ← (1−z)⊙n + z⊙h`. On return `pre_w` holds the post-activation
/// `r, z, n` values; `pre_u`'s `n` third is left as the `u_n`
/// pre-activation (backprop needs it).
pub fn gru_cell(pre_w: &mut [f32], pre_u: &mut [f32], h: &mut [f32]) {
    let hd = h.len();
    debug_assert_eq!(pre_w.len(), 3 * hd);
    debug_assert_eq!(pre_u.len(), 3 * hd);
    for j in 0..hd {
        let r = sigmoid(pre_w[j] + pre_u[j]);
        let z = sigmoid(pre_w[hd + j] + pre_u[hd + j]);
        let n = (pre_w[2 * hd + j] + r * pre_u[2 * hd + j]).tanh();
        h[j] = (1.0 - z) * n + z * h[j];
        pre_w[j] = r;
        pre_w[hd + j] = z;
        pre_w[2 * hd + j] = n;
    }
}

/// Why a network cannot be driven as a streaming sequence model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// A layer in the stack has no per-step streaming semantics.
    Unsupported(String),
    /// The stack contains no recurrent cell at all.
    NoRecurrentLayer,
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqError::Unsupported(what) => {
                write!(f, "layer has no streaming semantics: {what}")
            }
            SeqError::NoRecurrentLayer => write!(f, "network has no recurrent layer"),
        }
    }
}

impl std::error::Error for SeqError {}

/// One recurrent cell of a [`SeqRunner`], with its server-side state.
#[derive(Debug, Clone)]
enum Cell {
    /// LSTM over the concatenated `[x; h]` input.
    Lstm {
        /// `[4H, F+H]` gate grid.
        grid: BlockCirculant<f32>,
        bias: Vec<f32>,
        in_features: usize,
        hidden: usize,
        h: Vec<f32>,
        c: Vec<f32>,
    },
    /// GRU with separate input/recurrent grids.
    Gru {
        /// `[3H, F]` input grid.
        w: BlockCirculant<f32>,
        /// `[3H, H]` recurrent grid.
        u: BlockCirculant<f32>,
        bias_w: Vec<f32>,
        bias_u: Vec<f32>,
        in_features: usize,
        hidden: usize,
        h: Vec<f32>,
    },
}

impl Cell {
    fn in_features(&self) -> usize {
        match self {
            Cell::Lstm { in_features, .. } | Cell::Gru { in_features, .. } => *in_features,
        }
    }

    fn hidden(&self) -> usize {
        match self {
            Cell::Lstm { hidden, .. } | Cell::Gru { hidden, .. } => *hidden,
        }
    }

    fn reset(&mut self) {
        match self {
            Cell::Lstm { h, c, .. } => {
                h.iter_mut().for_each(|v| *v = 0.0);
                c.iter_mut().for_each(|v| *v = 0.0);
            }
            Cell::Gru { h, .. } => h.iter_mut().for_each(|v| *v = 0.0),
        }
    }
}

/// The per-step classifier head (a dense `Linear` applied to the last
/// cell's hidden state each step).
#[derive(Debug, Clone)]
struct Head {
    /// Flat `[out, in]`.
    w: Vec<f32>,
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
}

impl Head {
    /// `y[o] = Σ_j w[o][j]·h[j] + b[o]`, ascending `j` — the same
    /// accumulation order as `Tensor::matmul`, so the per-step head output
    /// is bit-identical to the offline `Linear` forward.
    fn apply(&self, h: &[f32]) -> Vec<f32> {
        debug_assert_eq!(h.len(), self.in_features);
        let mut y = vec![0.0f32; self.out_features];
        for (o, out) in y.iter_mut().enumerate() {
            let row = &self.w[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = 0.0f32;
            for (&wv, &hv) in row.iter().zip(h) {
                acc += wv * hv;
            }
            *out = acc + self.bias[o];
        }
        y
    }
}

/// Read-only view of one [`SeqRunner`] cell's weights (no state), for
/// mirroring the runner on another datapath: the serving tier quantizes
/// its fixed-point stepper from these.
#[derive(Debug, Clone, Copy)]
pub enum CellWeights<'a> {
    /// LSTM over `[x; h]`.
    Lstm {
        /// Folded `[4H, F+H]` gate grid.
        grid: &'a BlockCirculant<f32>,
        /// Gate bias, `[4H]`.
        bias: &'a [f32],
        /// Input features F.
        in_features: usize,
    },
    /// GRU with separate input and recurrent grids.
    Gru {
        /// Folded `[3H, F]` input grid.
        w: &'a BlockCirculant<f32>,
        /// Folded `[3H, H]` recurrent grid.
        u: &'a BlockCirculant<f32>,
        /// Input-side bias, `[3H]`.
        bias_w: &'a [f32],
        /// Recurrent-side bias, `[3H]`.
        bias_u: &'a [f32],
    },
}

/// Read-only view of a [`SeqRunner`]'s dense per-step head.
#[derive(Debug, Clone, Copy)]
pub struct HeadWeights<'a> {
    /// Weight, flat `[out, in]`.
    pub weight: &'a [f32],
    /// Bias, `[out]`.
    pub bias: &'a [f32],
    /// Input features (the last cell's hidden size).
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

/// A step-at-a-time evaluator of a recurrent checkpoint: the streaming
/// form the serving tier pins per session.
///
/// Supported stacks: one or more [`crate::layers::BcmLstm`] /
/// [`crate::layers::BcmGru`] cells, optionally followed by
/// `GlobalAvgPool` and a final dense `Linear` head. Per step, the head is
/// applied directly to the last cell's hidden state — `GlobalAvgPool`
/// over a single timestep is the identity, so the per-step outputs of a
/// streamed session equal the per-step head outputs of the offline
/// full-sequence forward, bit for bit (the `BcmAttention` layer is
/// non-causal and therefore has no streaming form; stacks containing it
/// are rejected).
#[derive(Debug, Clone)]
pub struct SeqRunner {
    cells: Vec<Cell>,
    head: Option<Head>,
    steps: u64,
}

impl SeqRunner {
    /// Builds a runner from a network's layer snapshots.
    ///
    /// # Errors
    ///
    /// [`SeqError::Unsupported`] for layers without streaming semantics
    /// (including any layer that cannot snapshot), and
    /// [`SeqError::NoRecurrentLayer`] when the stack has no cell.
    pub fn from_network(net: &Network) -> Result<Self, SeqError> {
        let mut cells = Vec::new();
        let mut head = None;
        for layer in net.layers() {
            let snap = layer
                .snapshot()
                .ok_or_else(|| SeqError::Unsupported(layer.name().to_string()))?;
            if head.is_some() {
                return Err(SeqError::Unsupported(
                    "layers after the Linear head".to_string(),
                ));
            }
            match snap {
                LayerSnapshot::BcmLstm { gates, bias } => {
                    let hidden = gates.c_out / 4;
                    let grid = gates.folded_grid();
                    grid.prepare_spectra();
                    cells.push(Cell::Lstm {
                        grid,
                        bias,
                        in_features: gates.c_in - hidden,
                        hidden,
                        h: vec![0.0; hidden],
                        c: vec![0.0; hidden],
                    });
                }
                LayerSnapshot::BcmGru {
                    w,
                    u,
                    bias_w,
                    bias_u,
                } => {
                    let (in_features, hidden) = (w.c_in, u.c_in);
                    let (w, u) = (w.folded_grid(), u.folded_grid());
                    w.prepare_spectra();
                    u.prepare_spectra();
                    cells.push(Cell::Gru {
                        w,
                        u,
                        bias_w,
                        bias_u,
                        in_features,
                        hidden,
                        h: vec![0.0; hidden],
                    });
                }
                // Identity per step: pooling one timestep averages one value.
                LayerSnapshot::GlobalAvgPool => {}
                LayerSnapshot::Linear {
                    in_features,
                    out_features,
                    weight,
                    bias,
                } => {
                    if cells.is_empty() {
                        return Err(SeqError::NoRecurrentLayer);
                    }
                    head = Some(Head {
                        w: weight,
                        bias,
                        in_features,
                        out_features,
                    });
                }
                other => {
                    return Err(SeqError::Unsupported(format!("{other:?}")));
                }
            }
        }
        if cells.is_empty() {
            return Err(SeqError::NoRecurrentLayer);
        }
        // Shape-check the chain once so a malformed checkpoint fails at
        // session open, not mid-stream.
        for pair in cells.windows(2) {
            if pair[1].in_features() != pair[0].hidden() {
                return Err(SeqError::Unsupported(format!(
                    "cell chain mismatch: {} -> {}",
                    pair[0].hidden(),
                    pair[1].in_features()
                )));
            }
        }
        if let Some(h) = &head {
            let last = cells.last().expect("non-empty").hidden();
            if h.in_features != last {
                return Err(SeqError::Unsupported(format!(
                    "head expects {} features, last cell yields {last}",
                    h.in_features
                )));
            }
        }
        Ok(SeqRunner {
            cells,
            head,
            steps: 0,
        })
    }

    /// The cells' weights, input side first.
    pub fn cell_weights(&self) -> impl Iterator<Item = CellWeights<'_>> {
        self.cells.iter().map(|cell| match cell {
            Cell::Lstm {
                grid,
                bias,
                in_features,
                ..
            } => CellWeights::Lstm {
                grid,
                bias,
                in_features: *in_features,
            },
            Cell::Gru {
                w,
                u,
                bias_w,
                bias_u,
                ..
            } => CellWeights::Gru {
                w,
                u,
                bias_w,
                bias_u,
            },
        })
    }

    /// The head's weights, when the stack ends in a dense `Linear`.
    pub fn head_weights(&self) -> Option<HeadWeights<'_>> {
        self.head.as_ref().map(|h| HeadWeights {
            weight: &h.w,
            bias: &h.bias,
            in_features: h.in_features,
            out_features: h.out_features,
        })
    }

    /// Per-step input width.
    pub fn input_len(&self) -> usize {
        self.cells[0].in_features()
    }

    /// Per-step output width (head outputs, or the last hidden size).
    pub fn output_len(&self) -> usize {
        match &self.head {
            Some(h) => h.out_features,
            None => self.cells.last().expect("non-empty").hidden(),
        }
    }

    /// Steps taken since construction or the last [`SeqRunner::reset`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Zeroes all hidden state, starting a fresh sequence.
    pub fn reset(&mut self) {
        for c in &mut self.cells {
            c.reset();
        }
        self.steps = 0;
    }

    /// Advances one timestep and returns the per-step output: a
    /// [`SeqRunnerBatch::step`] over a gang of one.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_len()` (the serving tier validates
    /// lengths before stepping).
    pub fn step(&mut self, x: &[f32]) -> Vec<f32> {
        let mut outs = SeqRunnerBatch::step(&mut [self], &[x]);
        outs.pop().expect("one output per member")
    }
}

/// Lane-batched stepping over independent [`SeqRunner`]s of the **same
/// model**: one frequency-domain pass over the shared gate grids advances
/// every member a timestep, the software analogue of C-LSTM's FPGA trick
/// of streaming independent recurrent sequences through one block-circulant
/// FFT pipeline.
///
/// This is the only step datapath: [`SeqRunner::step`] is a gang of one.
/// Gate matvecs route through [`BlockCirculant::matvec_lanes`] (sample
/// dimension innermost over the split spectral planes), the kernel the
/// batched layer forward's `matmat` also runs, per-lane independent of
/// the width;
/// everything non-linear — `add_bias`, [`lstm_cell`], [`gru_cell`], the
/// head — runs per lane with the same per-sample code as the batched
/// layer forward, so **every member's output and hidden state is
/// bit-identical to the offline full-sequence forward**, regardless of
/// gang width or gang-mates. The serving tier's session gang scheduler
/// depends on this: a session can step alone or be re-ganged with
/// different mates at any step boundary with no observable difference on
/// the wire.
///
/// Members must all be runners of the same checkpoint (the shard groups
/// sessions by registry entry before forming a gang); the gang steps
/// through member 0's grids, which are clones of the same template.
pub struct SeqRunnerBatch;

impl SeqRunnerBatch {
    /// Advances every member one timestep; returns one per-step output per
    /// member, in member order.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != members.len()`, if any input length differs
    /// from its member's [`SeqRunner::input_len`], or if members disagree
    /// on stack shape (cell count, kinds, widths).
    pub fn step(members: &mut [&mut SeqRunner], xs: &[&[f32]]) -> Vec<Vec<f32>> {
        let n = members.len();
        assert_eq!(xs.len(), n, "one input per gang member");
        if n == 0 {
            return Vec::new();
        }
        let n_cells = members[0].cells.len();
        for (m, x) in members.iter().zip(xs) {
            assert_eq!(
                m.cells.len(),
                n_cells,
                "gang members must share a stack shape"
            );
            assert_eq!(x.len(), m.input_len(), "step input length");
        }
        let mut curs: Vec<Vec<f32>> = xs.iter().map(|x| x.to_vec()).collect();
        for ci in 0..n_cells {
            match &members[0].cells[ci] {
                Cell::Lstm { .. } => {
                    // Concatenate each lane's [x; h] under a shared borrow,
                    // run the lane matvec off member 0's grid, then finish
                    // the gates per lane with the scalar cell code.
                    let zs: Vec<Vec<f32>> = members
                        .iter()
                        .zip(&curs)
                        .map(|(m, cur)| {
                            let Cell::Lstm { h, .. } = &m.cells[ci] else {
                                panic!("gang members must agree on cell kinds");
                            };
                            let mut z = Vec::with_capacity(cur.len() + h.len());
                            z.extend_from_slice(cur);
                            z.extend_from_slice(h);
                            z
                        })
                        .collect();
                    let z_refs: Vec<&[f32]> = zs.iter().map(|z| z.as_slice()).collect();
                    let pres = {
                        let Cell::Lstm { grid, .. } = &members[0].cells[ci] else {
                            unreachable!()
                        };
                        grid.matvec_lanes(&z_refs)
                    };
                    for (s, mut pre) in pres.into_iter().enumerate() {
                        let Cell::Lstm { bias, h, c, .. } = &mut members[s].cells[ci] else {
                            unreachable!()
                        };
                        add_bias(&mut pre, bias);
                        lstm_cell(&mut pre, h, c);
                        curs[s] = h.clone();
                    }
                }
                Cell::Gru { .. } => {
                    let x_refs: Vec<&[f32]> = curs.iter().map(|c| c.as_slice()).collect();
                    let h_refs: Vec<&[f32]> = members
                        .iter()
                        .map(|m| {
                            let Cell::Gru { h, .. } = &m.cells[ci] else {
                                panic!("gang members must agree on cell kinds");
                            };
                            h.as_slice()
                        })
                        .collect();
                    let (pre_ws, pre_us) = {
                        let Cell::Gru { w, u, .. } = &members[0].cells[ci] else {
                            unreachable!()
                        };
                        (w.matvec_lanes(&x_refs), u.matvec_lanes(&h_refs))
                    };
                    for (s, (mut pre_w, mut pre_u)) in pre_ws.into_iter().zip(pre_us).enumerate() {
                        let Cell::Gru {
                            bias_w, bias_u, h, ..
                        } = &mut members[s].cells[ci]
                        else {
                            unreachable!()
                        };
                        add_bias(&mut pre_w, bias_w);
                        add_bias(&mut pre_u, bias_u);
                        gru_cell(&mut pre_w, &mut pre_u, h);
                        curs[s] = h.clone();
                    }
                }
            }
        }
        members
            .iter_mut()
            .zip(curs)
            .map(|(m, cur)| {
                m.steps += 1;
                match &m.head {
                    Some(head) => head.apply(&cur),
                    None => cur,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BcmGru, BcmLstm, GlobalAvgPool, Layer, Linear};
    use crate::models::{
        attn_lstm_classifier, gru_classifier, lstm_classifier, vgg_tiny, ConvMode,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::{init, Tensor};

    /// Offline reference: run the recurrent stack's eval forward over the
    /// full sequence, then apply the final `Linear` layer to each
    /// timestep's last-cell hidden state through its own `forward` — the
    /// exact arithmetic a batched deployment would run.
    fn offline_per_step(net: &Network, x: &Tensor<f32>) -> Vec<Vec<f32>> {
        let mut cur = x.clone();
        let mut layers: Vec<Box<dyn Layer>> = net.layers().to_vec();
        let t_len = x.dims()[2];
        for layer in &mut layers {
            match layer.snapshot() {
                Some(LayerSnapshot::BcmLstm { .. }) | Some(LayerSnapshot::BcmGru { .. }) => {
                    cur = layer.forward(&cur, false);
                }
                _ => {}
            }
        }
        let hd = cur.dims()[1];
        let head_idx = layers
            .iter()
            .position(|l| matches!(l.snapshot(), Some(LayerSnapshot::Linear { .. })));
        (0..t_len)
            .map(|t| {
                let hs = cur.as_slice();
                let h: Vec<f32> = (0..hd).map(|j| hs[j * t_len + t]).collect();
                match head_idx {
                    Some(i) => layers[i]
                        .forward(&Tensor::from_vec(h, &[1, hd]), false)
                        .as_slice()
                        .to_vec(),
                    None => h,
                }
            })
            .collect()
    }

    fn assert_streaming_matches(net: &Network, seed: u64) {
        let mut runner = SeqRunner::from_network(net).expect("streamable");
        let mut rng = StdRng::seed_from_u64(seed);
        let (f, t_len) = (runner.input_len(), 7);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, f, t_len, 1], 0.0, 1.0);
        let want = offline_per_step(net, &x);
        let xs = x.as_slice();
        for (t, want_t) in want.iter().enumerate() {
            let step_in: Vec<f32> = (0..f).map(|j| xs[j * t_len + t]).collect();
            let got = runner.step(&step_in);
            assert_eq!(got.len(), runner.output_len());
            for (a, b) in got.iter().zip(want_t) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {t}: streamed {a} vs offline {b}"
                );
            }
        }
        assert_eq!(runner.steps(), t_len as u64);
    }

    #[test]
    fn lstm_streaming_is_bit_identical_to_offline_forward() {
        let net = lstm_classifier(6, 8, 4, 2, 11);
        assert_streaming_matches(&net, 0);
    }

    #[test]
    fn gru_streaming_is_bit_identical_to_offline_forward() {
        let net = gru_classifier(6, 8, 4, 2, 12);
        assert_streaming_matches(&net, 1);
    }

    #[test]
    fn pruned_stacked_cells_stream_bit_identically() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Network::new(
            "stack",
            vec![
                Box::new(BcmLstm::new(&mut rng, 4, 8, 2)) as Box<dyn Layer>,
                Box::new(BcmGru::new(&mut rng, 8, 8, 4)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(&mut rng, 8, 3)),
            ],
        );
        // Prune a few blocks in each cell; streaming must follow the skip
        // index exactly.
        net.bcm_eliminate(&[0, 7, 30]);
        assert_streaming_matches(&net, 2);
    }

    #[test]
    fn gang_step_bit_identical_to_solo_scalar() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Network::new(
            "stack",
            vec![
                Box::new(BcmLstm::new(&mut rng, 4, 8, 2)) as Box<dyn Layer>,
                Box::new(BcmGru::new(&mut rng, 8, 8, 4)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(&mut rng, 8, 3)),
            ],
        );
        net.bcm_eliminate(&[1, 5, 28]);
        let template = SeqRunner::from_network(&net).expect("streamable");
        // Six gang steps, then one more step alone: the referee is each
        // member's own offline full-sequence layer forward over all seven.
        let (f, gang_steps, t_len) = (4, 6, 7);
        let input = |s: usize, t: usize, i: usize| -> f32 {
            if t < gang_steps {
                ((t * 13 + s * 7 + i) as f32 * 0.19).sin()
            } else {
                0.125
            }
        };
        for width in [1usize, 2, 3, 8] {
            let want: Vec<Vec<Vec<f32>>> = (0..width)
                .map(|s| {
                    let x = Tensor::from_fn(&[1, f, t_len, 1], |k| input(s, k % t_len, k / t_len));
                    offline_per_step(&net, &x)
                })
                .collect();
            let mut gang: Vec<SeqRunner> = (0..width).map(|_| template.clone()).collect();
            for t in 0..gang_steps {
                let xs: Vec<Vec<f32>> = (0..width)
                    .map(|s| (0..f).map(|i| input(s, t, i)).collect())
                    .collect();
                let mut refs: Vec<&mut SeqRunner> = gang.iter_mut().collect();
                let x_refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
                let outs = SeqRunnerBatch::step(&mut refs, &x_refs);
                for s in 0..width {
                    assert_eq!(
                        outs[s].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want[s][t].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "width {width} lane {s} step {t}"
                    );
                }
            }
            // Post-gang state must match too: one more step on every
            // (ex-)member, now alone, agrees with the offline last step.
            for s in 0..width {
                let x: Vec<f32> = (0..f).map(|i| input(s, gang_steps, i)).collect();
                assert_eq!(
                    gang[s]
                        .step(&x)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    want[s][gang_steps]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn reset_restarts_the_sequence_exactly() {
        let net = lstm_classifier(4, 4, 2, 2, 14);
        let mut runner = SeqRunner::from_network(&net).expect("streamable");
        let step_in = vec![0.5f32, -0.25, 1.0, 0.0];
        let first: Vec<Vec<f32>> = (0..3).map(|_| runner.step(&step_in)).collect();
        runner.reset();
        assert_eq!(runner.steps(), 0);
        for want in &first {
            let got = runner.step(&step_in);
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn non_streamable_stacks_are_rejected() {
        // Attention is non-causal: no streaming form.
        let attn = attn_lstm_classifier(4, 4, 2, 2, 15);
        assert!(matches!(
            SeqRunner::from_network(&attn),
            Err(SeqError::Unsupported(_))
        ));
        // A CNN has no recurrent cell (conv has no streaming semantics).
        let cnn = vgg_tiny(ConvMode::Dense, 10, 16);
        assert!(SeqRunner::from_network(&cnn).is_err());
        // A head with no cell in front of it.
        let mut rng = StdRng::seed_from_u64(17);
        let headless = Network::new(
            "fc",
            vec![Box::new(Linear::new(&mut rng, 4, 2)) as Box<dyn Layer>],
        );
        assert!(matches!(
            SeqRunner::from_network(&headless),
            Err(SeqError::NoRecurrentLayer)
        ));
    }

    #[test]
    fn runner_validates_the_cell_chain() {
        let mut rng = StdRng::seed_from_u64(18);
        let bad = Network::new(
            "mismatch",
            vec![
                Box::new(BcmLstm::new(&mut rng, 4, 8, 2)) as Box<dyn Layer>,
                Box::new(BcmGru::new(&mut rng, 4, 4, 2)),
            ],
        );
        assert!(matches!(
            SeqRunner::from_network(&bad),
            Err(SeqError::Unsupported(_))
        ));
    }
}
