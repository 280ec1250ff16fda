//! Streaming-session runtimes: the per-session steppers a shard pins
//! when a client opens a stateful session (`session_open`, opcode 6).
//!
//! A session's hidden state lives server-side and advances one timestep
//! per `session_step`. Two datapaths mirror the batch engine's split:
//!
//! - **float** — [`nn::seq::SeqRunner`], whose per-step outputs are
//!   bit-identical to the offline full-sequence `Network::forward` (the
//!   shared-cell-math contract proven in `nn::seq`);
//! - **fixed-point** — [`FxSeqRunner`] below, over a stack of
//!   [`hwsim::FxLstmCell`] / [`hwsim::FxGruCell`] cells plus an optional
//!   [`hwsim::FxLinear`] head, quantized from the float stack's folded
//!   weights.
//!   The fx cells are pure functions of quantized state and input, so a
//!   streamed replay is trivially bit-identical to an offline fold of
//!   the same step sequence.
//!
//! Each datapath has one step path, the lane gang
//! ([`nn::seq::SeqRunnerBatch`], [`FxSeqRunnerBatch`]); a single
//! session's `step` is a gang of one.
//!
//! Weights and state are separate. Each published model version builds
//! its float [`nn::seq::SeqStack`] and its quantized fx stack **once**,
//! inside [`SeqModel`] (carried by the registry's `ModelEntry`), each
//! behind one `Arc`. A session runner is that `Arc` plus zeroed state
//! vectors, so `session_open` copies no weights, re-quantizes nothing and
//! re-plans no FFTs; the `Arc` also pins the version a session opened
//! against, giving hot-swap isolation for free. A gang checks once that
//! all its members share one stack, then walks the shared cells.

use std::sync::Arc;

use circulant::{BlockCirculant, ConvBlockCirculant};
use hwsim::inference::FxWeights;
use hwsim::{FxGruCell, FxLinear, FxLstmCell, QFormat};
use nn::seq::{Cell, SeqRunner, SeqStack};
use nn::{CheckpointMeta, Network};

/// One fixed-point recurrent cell of an [`FxSeqStack`].
#[derive(Debug)]
enum FxCell {
    Lstm(FxLstmCell),
    Gru(FxGruCell),
}

impl FxCell {
    fn state_len(&self) -> usize {
        match self {
            FxCell::Lstm(c) => c.state_len(),
            FxCell::Gru(c) => c.state_len(),
        }
    }
}

/// Quantizes one folded float gate grid into the eMAC spectra form the
/// fx cells consume.
fn quantize_grid(q: QFormat, grid: &BlockCirculant<f32>) -> FxWeights {
    FxWeights::from_folded(q, &ConvBlockCirculant::from_grids(1, 1, vec![grid.clone()]))
}

/// The quantized weights of one model version's streaming form, shared
/// by every [`FxSeqRunner`] opened on it.
#[derive(Debug)]
pub(crate) struct FxSeqStack {
    q: QFormat,
    cells: Vec<FxCell>,
    head: Option<FxLinear>,
    input_len: usize,
    output_len: usize,
}

impl FxSeqStack {
    /// Quantizes the float `stack` to `q`: the same cells, grids and
    /// head on the fixed-point datapath.
    fn quantize(stack: &SeqStack, q: QFormat) -> FxSeqStack {
        let cells = stack
            .cells()
            .iter()
            .map(|cell| match cell {
                Cell::Lstm {
                    grid,
                    bias,
                    in_features,
                    ..
                } => FxCell::Lstm(FxLstmCell::new(
                    q,
                    quantize_grid(q, grid),
                    q.quantize_slice(bias),
                    *in_features,
                )),
                Cell::Gru {
                    w,
                    u,
                    bias_w,
                    bias_u,
                    ..
                } => FxCell::Gru(FxGruCell::new(
                    q,
                    quantize_grid(q, w),
                    quantize_grid(q, u),
                    q.quantize_slice(bias_w),
                    q.quantize_slice(bias_u),
                )),
            })
            .collect();
        let head = stack
            .head()
            .map(|h| FxLinear::quantize(q, &h.weight, &h.bias, h.out_features, h.in_features));
        FxSeqStack {
            q,
            cells,
            head,
            input_len: stack.input_len(),
            output_len: stack.output_len(),
        }
    }
}

/// The fixed-point streaming stepper: the "FPGA mode" twin of
/// [`SeqRunner`], running every gate matvec through the one packed eMAC
/// lane kernel ([`hwsim::inference::conv_forward_fx_batch_packed`]) of
/// batch fx inference. It is the model version's shared fx stack plus
/// this sequence's state, one word vector per cell (`[h; c]` for LSTM,
/// `h` for GRU); cloning it copies the `Arc` and the state, never the
/// weights.
#[derive(Debug, Clone)]
pub struct FxSeqRunner {
    stack: Arc<FxSeqStack>,
    state: Vec<Vec<i16>>,
}

impl FxSeqRunner {
    /// A zero-state runner over `stack`, starting a fresh sequence.
    fn new(stack: &Arc<FxSeqStack>) -> FxSeqRunner {
        let state = stack.cells.iter().map(|c| vec![0; c.state_len()]).collect();
        FxSeqRunner {
            stack: Arc::clone(stack),
            state,
        }
    }

    /// The shared weights this runner steps through.
    pub(crate) fn stack(&self) -> &Arc<FxSeqStack> {
        &self.stack
    }

    /// The Q-format the stepper was quantized for.
    pub fn qformat(&self) -> QFormat {
        self.stack.q
    }

    /// Per-step input width in i16 words.
    pub fn input_len(&self) -> usize {
        self.stack.input_len
    }

    /// Per-step output width in i16 words.
    pub fn output_len(&self) -> usize {
        self.stack.output_len
    }

    /// Advances one timestep and returns the per-step output: a
    /// [`FxSeqRunnerBatch::step`] over a gang of one.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_len()` (the shard validates
    /// lengths before stepping).
    pub fn step(&mut self, x: &[i16]) -> Vec<i16> {
        let mut outs = FxSeqRunnerBatch::step(&mut [self], &[x]);
        outs.pop().expect("one output per member")
    }

    /// Scalar oracle for [`FxSeqRunner::step`]: chains the cells'
    /// [`FxLstmCell::step_scalar`] / [`FxGruCell::step_scalar`] and the
    /// head, independently of the lane gang. Not a serving path; tests
    /// check the gang against it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_len()`.
    pub fn step_scalar(&mut self, x: &[i16]) -> Vec<i16> {
        assert_eq!(x.len(), self.input_len(), "fx step input length");
        let mut cur = x.to_vec();
        for (cell, state) in self.stack.cells.iter().zip(&mut self.state) {
            cur = match cell {
                FxCell::Lstm(c) => c.step_scalar(state, &cur).to_vec(),
                FxCell::Gru(c) => c.step_scalar(state, &cur).to_vec(),
            };
        }
        match &self.stack.head {
            Some(h) => h.apply(&cur),
            None => cur,
        }
    }
}

/// Lane-batched stepping over independent [`FxSeqRunner`]s of the same
/// model version: the fixed-point twin of [`nn::seq::SeqRunnerBatch`].
///
/// This is the only fixed-point step datapath: [`FxSeqRunner::step`] is
/// a gang of one. Each cell level dispatches to
/// [`FxLstmCell::step_gang`] / [`FxGruCell::step_gang`], which pack the
/// lanes' state into an `FxBatch` and run one pass over the packed eMAC
/// lane kernels; bias, gates and the head stay per-lane scalar word
/// arithmetic. Every member's output and hidden state after a gang step
/// is **bit-identical to [`FxSeqRunner::step_scalar`] at every gang
/// width**, so the shard can gang and un-gang sessions freely between
/// steps with no observable difference on the wire.
pub struct FxSeqRunnerBatch;

impl FxSeqRunnerBatch {
    /// Advances every member one timestep; returns one per-step output
    /// per member, in member order.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != members.len()`, if the members do not all
    /// share one model version's fx stack, or if any input length
    /// differs from [`FxSeqRunner::input_len`].
    pub fn step(members: &mut [&mut FxSeqRunner], xs: &[&[i16]]) -> Vec<Vec<i16>> {
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
            assert_eq!(x.len(), stack.input_len, "fx step input length");
        }
        let mut curs: Vec<Vec<i16>> = xs.iter().map(|x| x.to_vec()).collect();
        for (ci, cell) in stack.cells.iter().enumerate() {
            let x_refs: Vec<&[i16]> = curs.iter().map(|c| c.as_slice()).collect();
            let mut states: Vec<&mut [i16]> = members
                .iter_mut()
                .map(|m| m.state[ci].as_mut_slice())
                .collect();
            curs = match cell {
                FxCell::Lstm(c) => c.step_gang(&mut states, &x_refs),
                FxCell::Gru(c) => c.step_gang(&mut states, &x_refs),
            };
        }
        curs.into_iter()
            .map(|cur| match &stack.head {
                Some(h) => h.apply(&cur),
                None => cur,
            })
            .collect()
    }
}

/// The streaming capability of one published model version: the float
/// and fixed-point weight stacks, each built once and shared by every
/// session opened on this version.
pub struct SeqModel {
    f32: Arc<SeqStack>,
    fx: Arc<FxSeqStack>,
}

impl SeqModel {
    /// Builds the stacks, or `None` when the network has no streaming
    /// form (e.g. a conv stack, or a non-causal attention layer). The fx
    /// stack is the float one quantized to the checkpoint's Q-format.
    pub(crate) fn build(net: &Network, meta: &CheckpointMeta) -> Option<SeqModel> {
        let f32 = SeqStack::from_network(net).ok()?;
        let fx = FxSeqStack::quantize(&f32, QFormat::new(u32::from(meta.frac_bits)));
        Some(SeqModel {
            f32: Arc::new(f32),
            fx: Arc::new(fx),
        })
    }

    /// Per-step float input width.
    pub fn input_len(&self) -> usize {
        self.f32.input_len()
    }

    /// Per-step float output width.
    pub fn output_len(&self) -> usize {
        self.f32.output_len()
    }

    /// A fresh zero-state float session stepper over the shared stack.
    pub fn new_f32(&self) -> SeqRunner {
        SeqRunner::new(&self.f32)
    }

    /// A fresh zero-state fixed-point session stepper over the shared
    /// stack. Every streamable stack has one today; the `Option` leaves
    /// room for a float-only streaming form.
    pub fn new_fx(&self) -> Option<FxSeqRunner> {
        Some(FxSeqRunner::new(&self.fx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::models::{gru_classifier, lstm_classifier, vgg_tiny, ConvMode};
    use telemetry::fnv::Fnv1a;

    fn meta() -> CheckpointMeta {
        CheckpointMeta {
            input_dims: vec![8, 6, 1],
            frac_bits: 12,
        }
    }

    #[test]
    fn recurrent_stacks_get_both_steppers() {
        let net = lstm_classifier(8, 8, 4, 4, 3);
        let seq = SeqModel::build(&net, &meta()).expect("streamable");
        assert_eq!(seq.input_len(), 8);
        assert_eq!(seq.output_len(), 4);
        let fx = seq.new_fx().unwrap();
        assert_eq!(fx.input_len(), 8);
        assert_eq!(fx.output_len(), 4);
        assert_eq!(fx.qformat(), QFormat::new(12));
    }

    #[test]
    fn conv_stacks_have_no_streaming_form() {
        let net = vgg_tiny(ConvMode::Bcm { block_size: 4 }, 10, 4);
        assert!(SeqModel::build(&net, &meta()).is_none());
    }

    #[test]
    fn fresh_sessions_start_from_zero_state() {
        let net = gru_classifier(4, 8, 3, 4, 5);
        let seq = SeqModel::build(
            &net,
            &CheckpointMeta {
                input_dims: vec![4, 5, 1],
                frac_bits: 12,
            },
        )
        .unwrap();
        let x = [0.25f32, -0.5, 0.125, 0.0625];
        let mut a = seq.new_f32();
        let first: Vec<u32> = a.step(&x).iter().map(|v| v.to_bits()).collect();
        a.step(&x);
        // A stepper opened after another has run reproduces the first
        // step exactly: stepping never touches the shared weights.
        let mut b = seq.new_f32();
        assert_eq!(
            b.step(&x).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            first
        );

        let xq: Vec<i16> = seq.new_fx().unwrap().qformat().quantize_slice(&x);
        let mut fa = seq.new_fx().unwrap();
        let ffirst = fa.step(&xq);
        fa.step(&xq);
        assert_eq!(seq.new_fx().unwrap().step(&xq), ffirst);
    }

    #[test]
    fn fx_gang_step_bit_identical_to_solo_scalar() {
        let net = lstm_classifier(4, 8, 3, 4, 9);
        let m = CheckpointMeta {
            input_dims: vec![4, 6, 1],
            frac_bits: 12,
        };
        let seq = SeqModel::build(&net, &m).unwrap();
        let q = seq.new_fx().unwrap().qformat();
        for width in [1usize, 3, 8] {
            let mut gang: Vec<FxSeqRunner> = (0..width).map(|_| seq.new_fx().unwrap()).collect();
            let mut solo: Vec<FxSeqRunner> = (0..width).map(|_| seq.new_fx().unwrap()).collect();
            for t in 0..6 {
                let xs: Vec<Vec<i16>> = (0..width)
                    .map(|s| {
                        let row: Vec<f32> = (0..4)
                            .map(|j| ((t * 17 + s * 3 + j) as f32 * 0.23).sin())
                            .collect();
                        q.quantize_slice(&row)
                    })
                    .collect();
                let x_refs: Vec<&[i16]> = xs.iter().map(|x| x.as_slice()).collect();
                let mut refs: Vec<&mut FxSeqRunner> = gang.iter_mut().collect();
                let outs = FxSeqRunnerBatch::step(&mut refs, &x_refs);
                for s in 0..width {
                    assert_eq!(
                        outs[s],
                        solo[s].step_scalar(&xs[s]),
                        "width {width} lane {s} step {t}"
                    );
                }
            }
            // Leaving the gang (a gang of one) must be seamless.
            let x = vec![q.from_f64(0.25); 4];
            for s in 0..width {
                assert_eq!(gang[s].step(&x), solo[s].step_scalar(&x));
            }
        }
    }

    #[test]
    fn fx_streamed_replay_is_bit_identical_to_an_offline_fold() {
        let net = lstm_classifier(4, 8, 3, 4, 6);
        let m = CheckpointMeta {
            input_dims: vec![4, 9, 1],
            frac_bits: 12,
        };
        let seq = SeqModel::build(&net, &m).unwrap();
        let q = seq.new_fx().unwrap().qformat();
        let steps: Vec<Vec<i16>> = (0..9)
            .map(|t| {
                let row: Vec<f32> = (0..4).map(|j| ((t * 4 + j) as f32).sin() * 0.5).collect();
                q.quantize_slice(&row)
            })
            .collect();
        // "Offline": the scalar oracle consumes the whole sequence in a fold.
        let mut offline = seq.new_fx().unwrap();
        let offline_outs: Vec<Vec<i16>> = steps.iter().map(|x| offline.step_scalar(x)).collect();
        // "Streamed": a second session replays the same steps one at a
        // time (between other work, here interleaved with a third).
        let mut streamed = seq.new_fx().unwrap();
        let mut decoy = seq.new_fx().unwrap();
        for (t, x) in steps.iter().enumerate() {
            decoy.step(&steps[(t + 1) % steps.len()]);
            assert_eq!(streamed.step(x), offline_outs[t], "step {t}");
        }
    }

    #[test]
    fn sessions_share_one_weight_allocation() {
        let seq = SeqModel::build(&lstm_classifier(8, 16, 8, 4, 1), &meta()).unwrap();
        let floats: Vec<SeqRunner> = (0..8).map(|_| seq.new_f32()).collect();
        let fxs: Vec<FxSeqRunner> = (0..8).map(|_| seq.new_fx().unwrap()).collect();
        assert!(floats.iter().all(|r| Arc::ptr_eq(r.stack(), &seq.f32)));
        assert!(fxs.iter().all(|r| Arc::ptr_eq(r.stack(), &seq.fx)));
        assert_eq!(Arc::strong_count(&seq.f32), 9);
        assert_eq!(Arc::strong_count(&seq.fx), 9);
        drop((floats, fxs));
        assert_eq!(Arc::strong_count(&seq.f32), 1);
        assert_eq!(Arc::strong_count(&seq.fx), 1);
    }

    #[test]
    #[should_panic(expected = "share one model stack")]
    fn fx_gang_of_two_models_panics() {
        let a = SeqModel::build(&lstm_classifier(8, 16, 8, 4, 1), &meta()).unwrap();
        let b = SeqModel::build(&lstm_classifier(8, 16, 8, 4, 2), &meta()).unwrap();
        let (mut ra, mut rb) = (a.new_fx().unwrap(), b.new_fx().unwrap());
        let x = [256i16; 8];
        FxSeqRunnerBatch::step(&mut [&mut ra, &mut rb], &[&x, &x]);
    }

    /// A seeded, pruned LSTM -> GRU -> pool -> head stack.
    fn referee_net() -> Network {
        use nn::layers::{BcmGru, BcmLstm, GlobalAvgPool, Linear};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut net = Network::new(
            "referee",
            vec![
                Box::new(BcmLstm::new(&mut rng, 8, 8, 4)),
                Box::new(BcmGru::new(&mut rng, 8, 8, 4)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(&mut rng, 8, 3)),
            ],
        );
        net.bcm_eliminate(&[1, 5, 12, 20, 33, 40, 50]);
        net
    }

    /// Streaming-weights referee: fingerprints of 8 steps of the float
    /// and fixed-point steppers, pinned. The gang-vs-scalar tests share
    /// one set of quantized weights, so only these values catch a change
    /// in how the templates are built or quantized.
    #[test]
    fn streaming_step_fingerprints_are_pinned() {
        let seq = SeqModel::build(&referee_net(), &meta()).unwrap();
        let (mut f, mut fx) = (seq.new_f32(), seq.new_fx().unwrap());
        let q = fx.qformat();
        let (mut hf, mut hq) = (Fnv1a::new(), Fnv1a::new());
        for t in 0..8 {
            let x: Vec<f32> = (0..8).map(|j| ((t * 8 + j) as f32 * 0.37).sin()).collect();
            for v in f.step(&x) {
                hf.write_u32(v.to_bits());
            }
            for w in fx.step(&q.quantize_slice(&x)) {
                hq.write_u16(w as u16);
            }
        }
        assert_eq!(
            hf.finish(),
            0x0284_e8b4_8046_9835,
            "float steps {:#018x}",
            hf.finish()
        );
        assert_eq!(
            hq.finish(),
            0xf394_8d73_b7ed_1473,
            "fx steps {:#018x}",
            hq.finish()
        );
    }
}
