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
//! The streaming form splits weights from state. A [`SeqStack`] holds a
//! checkpoint's folded cell grids and head; it is built once per model
//! version and shared, behind an `Arc`, by every session. A
//! [`SeqRunner`] is that `Arc` plus one sequence's hidden state, so
//! opening a session allocates only state vectors, and a gang can only
//! step runners of one stack.

use crate::layers::checkpoint::LayerSnapshot;
use crate::layers::Network;
use circulant::BlockCirculant;
use std::sync::Arc;

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

/// One recurrent cell of a [`SeqStack`]: weights only, read-only once
/// built. The per-session state lives in the [`SeqRunner`].
#[derive(Debug)]
pub enum Cell {
    /// LSTM over the concatenated `[x; h]` input.
    Lstm {
        /// Folded `[4H, F+H]` gate grid, spectra prepared.
        grid: BlockCirculant<f32>,
        /// Gate bias, `[4H]`.
        bias: Vec<f32>,
        /// Input features F.
        in_features: usize,
        /// Hidden width H.
        hidden: usize,
    },
    /// GRU with separate input/recurrent grids.
    Gru {
        /// Folded `[3H, F]` input grid, spectra prepared.
        w: BlockCirculant<f32>,
        /// Folded `[3H, H]` recurrent grid, spectra prepared.
        u: BlockCirculant<f32>,
        /// Input-side bias, `[3H]`.
        bias_w: Vec<f32>,
        /// Recurrent-side bias, `[3H]`.
        bias_u: Vec<f32>,
        /// Input features F.
        in_features: usize,
        /// Hidden width H.
        hidden: usize,
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

    /// Per-session state values: `[h; c]` (2H) for LSTM, `h` (H) for GRU.
    fn state_len(&self) -> usize {
        match self {
            Cell::Lstm { hidden, .. } => 2 * hidden,
            Cell::Gru { hidden, .. } => *hidden,
        }
    }
}

/// The per-step classifier head (a dense `Linear` applied to the last
/// cell's hidden state each step).
#[derive(Debug)]
pub struct Head {
    /// Weight, flat `[out, in]`.
    pub weight: Vec<f32>,
    /// Bias, `[out]`.
    pub bias: Vec<f32>,
    /// Input features (the last cell's hidden size).
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

impl Head {
    /// `y[o] = Σ_j w[o][j]·h[j] + b[o]`, ascending `j` — the same
    /// accumulation order as `Tensor::matmul`, so the per-step head output
    /// is bit-identical to the offline `Linear` forward.
    fn apply(&self, h: &[f32]) -> Vec<f32> {
        debug_assert_eq!(h.len(), self.in_features);
        let mut y = vec![0.0f32; self.out_features];
        for (o, out) in y.iter_mut().enumerate() {
            let row = &self.weight[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = 0.0f32;
            for (&wv, &hv) in row.iter().zip(h) {
                acc += wv * hv;
            }
            *out = acc + self.bias[o];
        }
        y
    }
}

/// The weights of a streamable recurrent checkpoint: its cells and
/// optional head, built once per model version and shared, behind an
/// `Arc`, by every [`SeqRunner`] stepping it.
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
#[derive(Debug)]
pub struct SeqStack {
    cells: Vec<Cell>,
    head: Option<Head>,
}

impl SeqStack {
    /// Builds the stack from a network's layer snapshots.
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
                        weight,
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
        Ok(SeqStack { cells, head })
    }

    /// The cells, input side first.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The dense head, when the stack ends in a `Linear`.
    pub fn head(&self) -> Option<&Head> {
        self.head.as_ref()
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
}

/// A step-at-a-time evaluator of a recurrent checkpoint: the streaming
/// form the serving tier pins per session. It is the shared
/// [`SeqStack`] plus this sequence's hidden state, one vector per cell
/// (`[h; c]` for LSTM, `h` for GRU); cloning it copies the `Arc` and the
/// state, never the weights.
#[derive(Debug, Clone)]
pub struct SeqRunner {
    stack: Arc<SeqStack>,
    state: Vec<Vec<f32>>,
}

impl SeqRunner {
    /// A zero-state runner over `stack`, starting a fresh sequence.
    pub fn new(stack: &Arc<SeqStack>) -> Self {
        let state = stack
            .cells
            .iter()
            .map(|c| vec![0.0; c.state_len()])
            .collect();
        SeqRunner {
            stack: Arc::clone(stack),
            state,
        }
    }

    /// The shared weights this runner steps through.
    pub fn stack(&self) -> &Arc<SeqStack> {
        &self.stack
    }

    /// Per-step input width.
    pub fn input_len(&self) -> usize {
        self.stack.input_len()
    }

    /// Per-step output width (head outputs, or the last hidden size).
    pub fn output_len(&self) -> usize {
        self.stack.output_len()
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
pub struct SeqRunnerBatch;

impl SeqRunnerBatch {
    /// Advances every member one timestep; returns one per-step output per
    /// member, in member order.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != members.len()`, if the members do not all
    /// share one [`SeqStack`] allocation, or if any input length differs
    /// from [`SeqRunner::input_len`].
    pub fn step(members: &mut [&mut SeqRunner], xs: &[&[f32]]) -> Vec<Vec<f32>> {
        assert_eq!(xs.len(), members.len(), "one input per gang member");
        let Some(first) = members.first() else {
            return Vec::new();
        };
        let stack = Arc::clone(&first.stack);
        for (m, x) in members.iter().zip(xs) {
            assert!(
                Arc::ptr_eq(&m.stack, &stack),
                "gang members must share one model stack"
            );
            assert_eq!(x.len(), stack.input_len(), "step input length");
        }
        let mut curs: Vec<Vec<f32>> = xs.iter().map(|x| x.to_vec()).collect();
        for (ci, cell) in stack.cells.iter().enumerate() {
            match cell {
                Cell::Lstm {
                    grid, bias, hidden, ..
                } => {
                    // Concatenate each lane's [x; h], run one lane matvec
                    // over the shared grid, then finish the gates per lane
                    // with the scalar cell code.
                    let zs: Vec<Vec<f32>> = members
                        .iter()
                        .zip(&curs)
                        .map(|(m, cur)| [cur.as_slice(), &m.state[ci][..*hidden]].concat())
                        .collect();
                    let z_refs: Vec<&[f32]> = zs.iter().map(|z| z.as_slice()).collect();
                    let pres = grid.matvec_lanes(&z_refs);
                    for ((m, cur), mut pre) in members.iter_mut().zip(&mut curs).zip(pres) {
                        let (h, c) = m.state[ci].split_at_mut(*hidden);
                        add_bias(&mut pre, bias);
                        lstm_cell(&mut pre, h, c);
                        *cur = h.to_vec();
                    }
                }
                Cell::Gru {
                    w,
                    u,
                    bias_w,
                    bias_u,
                    ..
                } => {
                    let x_refs: Vec<&[f32]> = curs.iter().map(|c| c.as_slice()).collect();
                    let h_refs: Vec<&[f32]> =
                        members.iter().map(|m| m.state[ci].as_slice()).collect();
                    let (pre_ws, pre_us) = (w.matvec_lanes(&x_refs), u.matvec_lanes(&h_refs));
                    for ((m, cur), (mut pre_w, mut pre_u)) in members
                        .iter_mut()
                        .zip(&mut curs)
                        .zip(pre_ws.into_iter().zip(pre_us))
                    {
                        let h = &mut m.state[ci];
                        add_bias(&mut pre_w, bias_w);
                        add_bias(&mut pre_u, bias_u);
                        gru_cell(&mut pre_w, &mut pre_u, h);
                        *cur = h.clone();
                    }
                }
            }
        }
        curs.into_iter()
            .map(|cur| match &stack.head {
                Some(head) => head.apply(&cur),
                None => cur,
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

    fn runner(net: &Network) -> SeqRunner {
        SeqRunner::new(&Arc::new(SeqStack::from_network(net).expect("streamable")))
    }

    fn assert_streaming_matches(net: &Network, seed: u64) {
        let mut runner = runner(net);
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
        let template = runner(&net);
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
    fn fresh_runner_replays_the_sequence_exactly() {
        let net = lstm_classifier(4, 4, 2, 2, 14);
        let mut used = runner(&net);
        let step_in = vec![0.5f32, -0.25, 1.0, 0.0];
        let first: Vec<Vec<f32>> = (0..3).map(|_| used.step(&step_in)).collect();
        // A runner opened on the used one's stack starts from zero state.
        let mut fresh = SeqRunner::new(used.stack());
        for want in &first {
            let got = fresh.step(&step_in);
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one model stack")]
    fn gang_of_two_models_panics() {
        let mut a = runner(&lstm_classifier(8, 16, 8, 4, 1));
        let mut b = runner(&lstm_classifier(8, 16, 8, 4, 2));
        let x = [0.5f32; 8];
        SeqRunnerBatch::step(&mut [&mut a, &mut b], &[&x, &x]);
    }

    #[test]
    fn non_streamable_stacks_are_rejected() {
        // Attention is non-causal: no streaming form.
        let attn = attn_lstm_classifier(4, 4, 2, 2, 15);
        assert!(matches!(
            SeqStack::from_network(&attn),
            Err(SeqError::Unsupported(_))
        ));
        // A CNN has no recurrent cell (conv has no streaming semantics).
        let cnn = vgg_tiny(ConvMode::Dense, 10, 16);
        assert!(SeqStack::from_network(&cnn).is_err());
        // A head with no cell in front of it.
        let mut rng = StdRng::seed_from_u64(17);
        let headless = Network::new(
            "fc",
            vec![Box::new(Linear::new(&mut rng, 4, 2)) as Box<dyn Layer>],
        );
        assert!(matches!(
            SeqStack::from_network(&headless),
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
            SeqStack::from_network(&bad),
            Err(SeqError::Unsupported(_))
        ));
    }
}
