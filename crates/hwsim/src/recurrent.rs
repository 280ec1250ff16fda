//! Fixed-point recurrent cells over the eMAC datapath.
//!
//! A BCM recurrent layer folds to a 1×1-kernel block-circulant grid, so a
//! cell step *is* a 1×1 convolution: the one FFT→eMAC→IFFT lane kernel
//! ([`conv_forward_fx_batch_packed`]) that serves conv and FC layers also
//! serves the gate stacks, as one row of one pixel — the paper's point
//! that one PE array covers every layer type.
//!
//! A cell ([`FxLstmCell`], [`FxGruCell`]) is immutable weights: its
//! grids, bias, shape and Q-format. The state of each sequence (`[h; c]`
//! for LSTM, `h` for GRU) is a word slice the caller owns, so one cell
//! steps any number of independent sequences, as the accelerator streams
//! every input through weight buffers loaded once. A step always runs as
//! a lane gang (`step_gang` over the members' state slices); one
//! sequence stepped alone is a gang of one. The packed kernel is
//! per-sample bit-identical to the scalar oracle [`conv_forward_fx`] at
//! every width, so a member's words never depend on its gang-mates.
//! [`FxLstmCell::step_scalar`] and [`FxGruCell::step_scalar`] are the
//! cell-level oracles on that kernel: no serving path calls them; tests
//! check the gangs against them.
//!
//! Gate nonlinearities use the hardware-style piecewise-linear forms
//! ([`QFormat::hard_sigmoid`], [`QFormat::hard_tanh`]) — shift, add,
//! clamp; no LUT, no exponential. State is held in format words, so a
//! step is a pure function of quantized state and quantized input:
//! replaying the same inputs one step at a time is **bit-identical** to
//! an offline pass over the whole sequence, which is what lets the
//! serving tier stream sessions without an accuracy story separate from
//! batch inference.

use crate::fixed::{FxBatch, QFormat};
use crate::inference::{conv_forward_fx, conv_forward_fx_batch_packed, FxWeights};

/// Member steps taken by the fx recurrent cells (a gang of width `n`
/// adds `n`).
static FX_CELL_STEPS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.cell.steps");

/// A fixed-point LSTM cell: one fused `[4H, F+H]` gate grid over the
/// concatenated `[x; h]` input, gate order `i, f, g, o`. The cell holds
/// weights only; a sequence's state is a caller-owned `[h; c]` slice of
/// [`FxLstmCell::state_len`] words.
#[derive(Debug, Clone)]
pub struct FxLstmCell {
    q: QFormat,
    in_features: usize,
    hidden: usize,
    weights: FxWeights,
    bias: Vec<i16>,
}

impl FxLstmCell {
    /// Builds a cell from a folded 1×1 `[4H, F+H]` gate grid and a
    /// quantized bias (length `4H`).
    ///
    /// # Panics
    ///
    /// Panics if the grid is not 1×1-kernel with `4H` output channels and
    /// `F + H` input channels, or the bias length is not `4H`.
    pub fn new(q: QFormat, weights: FxWeights, bias: Vec<i16>, in_features: usize) -> Self {
        assert_eq!(weights.kernel(), 1, "gate grid must be 1x1-kernel");
        let bs = weights.block_size();
        let cols = weights.in_blocks() * bs;
        let rows = weights.out_blocks() * bs;
        assert!(
            cols > in_features && (cols - in_features) * 4 == rows,
            "grid {rows}x{cols} is not [4H, F+H] for F={in_features}"
        );
        let hidden = cols - in_features;
        assert_eq!(bias.len(), rows, "bias length");
        FxLstmCell {
            q,
            in_features,
            hidden,
            weights,
            bias,
        }
    }

    /// Per-step input width `F`.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// State words per sequence: `[h; c]`, `2H`. Zero words start a
    /// fresh sequence.
    pub fn state_len(&self) -> usize {
        2 * self.hidden
    }

    /// Scalar oracle for [`FxLstmCell::step_gang`]: one step of one
    /// sequence on [`conv_forward_fx`], with the gate word arithmetic
    /// written out independently of the lane path. Consumes `x_t`
    /// (length `F`), updates `state` in place and returns the new hidden
    /// state (its first `H` words). Not a serving path.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != F` or `state.len() != 2H`.
    pub fn step_scalar<'s>(&self, state: &'s mut [i16], x: &[i16]) -> &'s [i16] {
        assert_eq!(x.len(), self.in_features, "step input length");
        assert_eq!(state.len(), self.state_len(), "state length");
        let q = self.q;
        let hd = self.hidden;
        let (h, c) = state.split_at_mut(hd);
        let z = [x, &*h].concat();
        let mut pre = conv_forward_fx(q, &self.weights, &z, 1, 1);
        for (p, &b) in pre.iter_mut().zip(&self.bias) {
            *p = q.add(*p, b);
        }
        for j in 0..hd {
            let i_g = q.hard_sigmoid(pre[j]);
            let f_g = q.hard_sigmoid(pre[hd + j]);
            let g_g = q.hard_tanh(pre[2 * hd + j]);
            let o_g = q.hard_sigmoid(pre[3 * hd + j]);
            c[j] = q.add(q.mul(f_g, c[j]), q.mul(i_g, g_g));
            h[j] = q.mul(o_g, q.hard_tanh(c[j]));
        }
        h
    }

    /// Advances a lane gang of sequences one step through this cell with
    /// a single packed pass over the fixed-point lane kernels
    /// ([`conv_forward_fx_batch_packed`] on the concatenated `[x; h]`
    /// rows), then finishes bias and gates per lane with scalar word
    /// arithmetic. `states[s]` is member `s`'s `[h; c]`, updated in
    /// place. Returns one new hidden state per member, in member order.
    ///
    /// Because the packed batch path is per-sample bit-identical to
    /// [`conv_forward_fx`] and the gate math is per lane, **every
    /// member's state after a gang step is bit-identical to
    /// [`FxLstmCell::step_scalar`]** at every gang width, one included,
    /// regardless of gang-mates.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != states.len()`, or any input is not `F`
    /// words or any state not `2H`.
    pub fn step_gang(&self, states: &mut [&mut [i16]], xs: &[&[i16]]) -> Vec<Vec<i16>> {
        let n = states.len();
        assert_eq!(xs.len(), n, "one input per gang member");
        if n == 0 {
            return Vec::new();
        }
        let (q, f, hd) = (self.q, self.in_features, self.hidden);
        FX_CELL_STEPS.add(n as u64);
        let mut flat = Vec::with_capacity(n * (f + hd));
        for (state, x) in states.iter().zip(xs) {
            assert_eq!(x.len(), f, "step input length");
            assert_eq!(state.len(), 2 * hd, "state length");
            flat.extend_from_slice(x);
            flat.extend_from_slice(&state[..hd]);
        }
        let batch = FxBatch::from_flat(q, n, f + hd, flat);
        let pre = conv_forward_fx_batch_packed(&self.weights, &batch, 1, 1);
        let mut outs = Vec::with_capacity(n);
        for (s, state) in states.iter_mut().enumerate() {
            let (h, c) = state.split_at_mut(hd);
            let mut row = pre.row(s).to_vec();
            for (p, &b) in row.iter_mut().zip(&self.bias) {
                *p = q.add(*p, b);
            }
            for j in 0..hd {
                let i_g = q.hard_sigmoid(row[j]);
                let f_g = q.hard_sigmoid(row[hd + j]);
                let g_g = q.hard_tanh(row[2 * hd + j]);
                let o_g = q.hard_sigmoid(row[3 * hd + j]);
                c[j] = q.add(q.mul(f_g, c[j]), q.mul(i_g, g_g));
                h[j] = q.mul(o_g, q.hard_tanh(c[j]));
            }
            outs.push(h.to_vec());
        }
        outs
    }
}

/// A fixed-point GRU cell: input stack `w: [3H, F]`, recurrent stack
/// `u: [3H, H]`, gate order `r, z, n` (reset, update, candidate). Like
/// [`FxLstmCell`] it holds weights only; a sequence's state is a
/// caller-owned `h` slice of `H` words.
#[derive(Debug, Clone)]
pub struct FxGruCell {
    q: QFormat,
    in_features: usize,
    hidden: usize,
    w: FxWeights,
    u: FxWeights,
    bias_w: Vec<i16>,
    bias_u: Vec<i16>,
}

impl FxGruCell {
    /// Builds a cell from folded 1×1 `[3H, F]` / `[3H, H]` stacks and
    /// their quantized biases (length `3H` each).
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn new(q: QFormat, w: FxWeights, u: FxWeights, bias_w: Vec<i16>, bias_u: Vec<i16>) -> Self {
        assert_eq!(w.kernel(), 1, "input stack must be 1x1-kernel");
        assert_eq!(u.kernel(), 1, "recurrent stack must be 1x1-kernel");
        let in_features = w.in_blocks() * w.block_size();
        let hidden = u.in_blocks() * u.block_size();
        assert_eq!(
            w.out_blocks() * w.block_size(),
            3 * hidden,
            "input stack is not [3H, F]"
        );
        assert_eq!(
            u.out_blocks() * u.block_size(),
            3 * hidden,
            "recurrent stack is not [3H, H]"
        );
        assert_eq!(bias_w.len(), 3 * hidden, "input bias length");
        assert_eq!(bias_u.len(), 3 * hidden, "recurrent bias length");
        FxGruCell {
            q,
            in_features,
            hidden,
            w,
            u,
            bias_w,
            bias_u,
        }
    }

    /// Per-step input width `F`.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// State words per sequence: `h`, `H`. Zero words start a fresh
    /// sequence.
    pub fn state_len(&self) -> usize {
        self.hidden
    }

    /// Scalar oracle for [`FxGruCell::step_gang`], built like
    /// [`FxLstmCell::step_scalar`]. Not a serving path.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != F` or `h.len() != H`.
    pub fn step_scalar<'s>(&self, h: &'s mut [i16], x: &[i16]) -> &'s [i16] {
        assert_eq!(x.len(), self.in_features, "step input length");
        assert_eq!(h.len(), self.hidden, "state length");
        let q = self.q;
        let hd = self.hidden;
        let mut pre_w = conv_forward_fx(q, &self.w, x, 1, 1);
        let mut pre_u = conv_forward_fx(q, &self.u, h, 1, 1);
        for (p, &b) in pre_w.iter_mut().zip(&self.bias_w) {
            *p = q.add(*p, b);
        }
        for (p, &b) in pre_u.iter_mut().zip(&self.bias_u) {
            *p = q.add(*p, b);
        }
        for j in 0..hd {
            let r = q.hard_sigmoid(q.add(pre_w[j], pre_u[j]));
            let z = q.hard_sigmoid(q.add(pre_w[hd + j], pre_u[hd + j]));
            let n = q.hard_tanh(q.add(pre_w[2 * hd + j], q.mul(r, pre_u[2 * hd + j])));
            // h = (1 - z)·n + z·h_prev
            let one_minus_z = q.sub(q.one(), z);
            h[j] = q.add(q.mul(one_minus_z, n), q.mul(z, h[j]));
        }
        h
    }

    /// GRU sibling of [`FxLstmCell::step_gang`]: two packed lane passes
    /// (input stack over the lane inputs, recurrent stack over the lane
    /// hidden states), then per-lane bias and gates in scalar word
    /// arithmetic. `states[s]` is member `s`'s `h`, updated in place.
    /// Same contract: every member's post-step `h` is bit-identical to
    /// [`FxGruCell::step_scalar`] at every gang width.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != states.len()`, or any input is not `F`
    /// words or any state not `H`.
    pub fn step_gang(&self, states: &mut [&mut [i16]], xs: &[&[i16]]) -> Vec<Vec<i16>> {
        let n = states.len();
        assert_eq!(xs.len(), n, "one input per gang member");
        if n == 0 {
            return Vec::new();
        }
        let (q, f, hd) = (self.q, self.in_features, self.hidden);
        for (state, x) in states.iter().zip(xs) {
            assert_eq!(x.len(), f, "step input length");
            assert_eq!(state.len(), hd, "state length");
        }
        FX_CELL_STEPS.add(n as u64);
        let xb = FxBatch::from_borrowed_rows(q, xs);
        let h_refs: Vec<&[i16]> = states.iter().map(|h| &**h).collect();
        let hb = FxBatch::from_borrowed_rows(q, &h_refs);
        let pre_w = conv_forward_fx_batch_packed(&self.w, &xb, 1, 1);
        let pre_u = conv_forward_fx_batch_packed(&self.u, &hb, 1, 1);
        let mut outs = Vec::with_capacity(n);
        for (s, h) in states.iter_mut().enumerate() {
            let mut pw = pre_w.row(s).to_vec();
            let mut pu = pre_u.row(s).to_vec();
            for (p, &b) in pw.iter_mut().zip(&self.bias_w) {
                *p = q.add(*p, b);
            }
            for (p, &b) in pu.iter_mut().zip(&self.bias_u) {
                *p = q.add(*p, b);
            }
            for j in 0..hd {
                let r = q.hard_sigmoid(q.add(pw[j], pu[j]));
                let z = q.hard_sigmoid(q.add(pw[hd + j], pu[hd + j]));
                let nv = q.hard_tanh(q.add(pw[2 * hd + j], q.mul(r, pu[2 * hd + j])));
                let one_minus_z = q.sub(q.one(), z);
                h[j] = q.add(q.mul(one_minus_z, nv), q.mul(z, h[j]));
            }
            outs.push(h.to_vec());
        }
        outs
    }
}

/// A fixed-point dense head: `y = W·x + b` with wide accumulation and a
/// single narrowing per output — the classifier tail after the last cell.
#[derive(Debug, Clone)]
pub struct FxLinear {
    q: QFormat,
    in_features: usize,
    out_features: usize,
    /// Row-major `[out, in]` weight words.
    w: Vec<i16>,
    bias: Vec<i16>,
}

impl FxLinear {
    /// Quantizes a dense `[out, in]` weight matrix and bias into `q`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out·in` or `bias.len() != out`.
    pub fn quantize(q: QFormat, w: &[f32], bias: &[f32], out: usize, inf: usize) -> Self {
        assert_eq!(w.len(), out * inf, "weight length");
        assert_eq!(bias.len(), out, "bias length");
        FxLinear {
            q,
            in_features: inf,
            out_features: out,
            w: q.quantize_slice(w),
            bias: q.quantize_slice(bias),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the head to one vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` disagrees with the input width.
    pub fn apply(&self, x: &[i16]) -> Vec<i16> {
        assert_eq!(x.len(), self.in_features, "head input length");
        let q = self.q;
        (0..self.out_features)
            .map(|o| {
                let row = &self.w[o * self.in_features..(o + 1) * self.in_features];
                let mut acc = 0i32;
                for (&wv, &xv) in row.iter().zip(x) {
                    acc = q.mac_wide(acc, wv, xv);
                }
                q.add(q.narrow(acc), self.bias[o])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circulant::{BlockCirculant, CirculantMatrix, ConvBlockCirculant};

    fn lstm_step(cell: &FxLstmCell, state: &mut [i16], x: &[i16]) -> Vec<i16> {
        cell.step_gang(&mut [state], &[x]).remove(0)
    }

    fn gru_step(cell: &FxGruCell, h: &mut [i16], x: &[i16]) -> Vec<i16> {
        cell.step_gang(&mut [h], &[x]).remove(0)
    }

    fn grid_1x1(bs: usize, rows: usize, cols: usize, seed: u64) -> ConvBlockCirculant<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let blocks = (0..(rows / bs) * (cols / bs))
            .map(|_| CirculantMatrix::new((0..bs).map(|_| next()).collect()))
            .collect();
        let grid = BlockCirculant::from_blocks(bs, rows / bs, cols / bs, blocks);
        ConvBlockCirculant::from_grids(1, 1, vec![grid])
    }

    #[test]
    fn hard_activations_are_integer_exact() {
        let q = QFormat::q8();
        // Saturation rails.
        assert_eq!(q.hard_sigmoid(q.from_f64(10.0)), q.one());
        assert_eq!(q.hard_sigmoid(q.from_f64(-10.0)), 0);
        assert_eq!(q.hard_tanh(q.from_f64(5.0)), q.one());
        assert_eq!(q.hard_tanh(q.from_f64(-5.0)), -q.one());
        // Linear region: σ̂(0) = 1/2, σ̂(1) = 3/4, both exact in Q7.8.
        assert_eq!(q.hard_sigmoid(0), q.from_f64(0.5));
        assert_eq!(q.hard_sigmoid(q.from_f64(1.0)), q.from_f64(0.75));
        assert_eq!(q.hard_tanh(q.from_f64(0.25)), q.from_f64(0.25));
        // Monotone over the whole word range (spot-sweep).
        let mut prev = q.hard_sigmoid(i16::MIN);
        for v in (i16::MIN..=i16::MAX).step_by(257) {
            let cur = q.hard_sigmoid(v);
            assert!(cur >= prev, "hard_sigmoid not monotone at {v}");
            prev = cur;
        }
    }

    #[test]
    fn lstm_streaming_replay_is_bit_identical() {
        let q = QFormat::q8();
        let (f, h, bs) = (4, 8, 4);
        let conv = grid_1x1(bs, 4 * h, f + h, 1);
        let weights = FxWeights::from_folded(q, &conv);
        let bias: Vec<i16> = (0..4 * h).map(|i| q.from_f64(0.01 * i as f64)).collect();
        let cell = FxLstmCell::new(q, weights, bias, f);
        let steps: Vec<Vec<i16>> = (0..6)
            .map(|t| {
                (0..f)
                    .map(|j| q.from_f64(0.1 * (t * f + j) as f64 - 1.0))
                    .collect()
            })
            .collect();
        // One continuous run vs a run replayed from zero state after
        // another sequence warmed up the same cell: identical words.
        let mut a = vec![0i16; cell.state_len()];
        let run_a: Vec<Vec<i16>> = steps.iter().map(|s| lstm_step(&cell, &mut a, s)).collect();
        let mut warm = vec![0i16; cell.state_len()];
        lstm_step(&cell, &mut warm, &vec![q.from_f64(0.5); f]);
        let mut b = vec![0i16; cell.state_len()];
        for (t, s) in steps.iter().enumerate() {
            assert_eq!(lstm_step(&cell, &mut b, s), run_a[t], "step {t} diverged");
        }
    }

    #[test]
    fn gru_state_stays_bounded_by_the_rails() {
        let q = QFormat::q8();
        let (f, h, bs) = (4, 4, 4);
        let w = FxWeights::from_folded(q, &grid_1x1(bs, 3 * h, f, 2));
        let u = FxWeights::from_folded(q, &grid_1x1(bs, 3 * h, h, 3));
        let cell = FxGruCell::new(q, w, u, vec![0; 3 * h], vec![0; 3 * h]);
        let mut state = vec![0i16; cell.state_len()];
        // h is a convex combination of hard_tanh outputs, so it can never
        // leave [-1, 1] no matter how hot the inputs run.
        for t in 0..50 {
            let x: Vec<i16> = (0..f)
                .map(|j| q.from_f64(((t + j) % 7) as f64 - 3.0))
                .collect();
            let hs = gru_step(&cell, &mut state, &x);
            for &v in &hs {
                assert!(v.abs() <= q.one(), "state escaped the rails: {v}");
            }
        }
    }

    #[test]
    fn pruned_blocks_contribute_nothing() {
        let q = QFormat::q8();
        let (f, h, bs) = (4, 4, 4);
        let full = grid_1x1(bs, 4 * h, f + h, 4);
        // Zero the block column that reads the input: the cell then
        // ignores x entirely.
        let (ob, ib) = full.grid_dims();
        let mut blocks = Vec::new();
        for bo in 0..ob {
            for bi in 0..ib {
                if bi == 0 {
                    blocks.push(CirculantMatrix::zeros(bs));
                } else {
                    blocks.push(full.grid(0, 0).block(bo, bi).clone());
                }
            }
        }
        let pruned = ConvBlockCirculant::from_grids(
            1,
            1,
            vec![BlockCirculant::from_blocks(bs, ob, ib, blocks)],
        );
        let cell = FxLstmCell::new(q, FxWeights::from_folded(q, &pruned), vec![0; 4 * h], f);
        let (mut a, mut b) = (vec![0i16; cell.state_len()], vec![0i16; cell.state_len()]);
        let x1: Vec<i16> = (0..f).map(|j| q.from_f64(j as f64)).collect();
        let x2 = vec![0i16; f];
        for _ in 0..3 {
            assert_eq!(lstm_step(&cell, &mut a, &x1), lstm_step(&cell, &mut b, &x2));
        }
    }

    #[test]
    fn gang_step_bit_identical_to_solo_scalar() {
        let q = QFormat::q8();
        let (f, h, bs) = (4, 8, 4);
        let lstm = FxLstmCell::new(
            q,
            FxWeights::from_folded(q, &grid_1x1(bs, 4 * h, f + h, 7)),
            (0..4 * h)
                .map(|i| q.from_f64(0.02 * i as f64 - 0.3))
                .collect(),
            f,
        );
        let gru = FxGruCell::new(
            q,
            FxWeights::from_folded(q, &grid_1x1(bs, 3 * h, f, 8)),
            FxWeights::from_folded(q, &grid_1x1(bs, 3 * h, h, 9)),
            (0..3 * h).map(|i| q.from_f64(0.01 * i as f64)).collect(),
            (0..3 * h).map(|i| q.from_f64(-0.01 * i as f64)).collect(),
        );
        for width in [1usize, 2, 5, 8] {
            // One cell each, N sequences: gang states vs solo states.
            let mut lstm_gang = vec![vec![0i16; lstm.state_len()]; width];
            let mut lstm_solo = lstm_gang.clone();
            let mut gru_gang = vec![vec![0i16; gru.state_len()]; width];
            let mut gru_solo = gru_gang.clone();
            for t in 0..5 {
                let xs: Vec<Vec<i16>> = (0..width)
                    .map(|s| {
                        (0..f)
                            .map(|j| q.from_f64(0.2 * ((t * 11 + s * 5 + j) % 13) as f64 - 1.0))
                            .collect()
                    })
                    .collect();
                let x_refs: Vec<&[i16]> = xs.iter().map(|x| x.as_slice()).collect();
                let mut lrefs: Vec<&mut [i16]> =
                    lstm_gang.iter_mut().map(|s| s.as_mut_slice()).collect();
                let louts = lstm.step_gang(&mut lrefs, &x_refs);
                let mut grefs: Vec<&mut [i16]> =
                    gru_gang.iter_mut().map(|s| s.as_mut_slice()).collect();
                let gouts = gru.step_gang(&mut grefs, &x_refs);
                for s in 0..width {
                    assert_eq!(
                        louts[s],
                        lstm.step_scalar(&mut lstm_solo[s], &xs[s]),
                        "lstm width {width} lane {s} step {t}"
                    );
                    assert_eq!(
                        gouts[s],
                        gru.step_scalar(&mut gru_solo[s], &xs[s]),
                        "gru width {width} lane {s} step {t}"
                    );
                }
                assert_eq!(lstm_gang, lstm_solo, "lstm [h; c] width {width} step {t}");
            }
            // Leaving the gang: one more step alone must agree.
            let x = vec![q.from_f64(0.5); f];
            for s in 0..width {
                assert_eq!(
                    lstm_step(&lstm, &mut lstm_gang[s], &x),
                    lstm.step_scalar(&mut lstm_solo[s], &x)
                );
                assert_eq!(
                    gru_step(&gru, &mut gru_gang[s], &x),
                    gru.step_scalar(&mut gru_solo[s], &x)
                );
            }
        }
    }

    #[test]
    fn head_matches_a_float_reference_closely() {
        let q = QFormat::q8();
        let (out, inf) = (3, 8);
        let w: Vec<f32> = (0..out * inf)
            .map(|i| (i as f32 * 0.37).sin() * 0.5)
            .collect();
        let bias = vec![0.125f32, -0.25, 0.5];
        let head = FxLinear::quantize(q, &w, &bias, out, inf);
        let x: Vec<f32> = (0..inf).map(|i| (i as f32 * 0.77).cos()).collect();
        let xq = q.quantize_slice(&x);
        let got = head.apply(&xq);
        for o in 0..out {
            let want: f32 = (0..inf).map(|i| w[o * inf + i] * x[i]).sum::<f32>() + bias[o];
            let got_f = q.to_f64(got[o]) as f32;
            assert!(
                (want - got_f).abs() < 0.05,
                "head row {o}: float {want} vs fx {got_f}"
            );
        }
    }
}
