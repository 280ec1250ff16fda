//! Deployed-model registry with versioned hot-swap, and the batch
//! execution engine.
//!
//! A [`Model`] wraps one deployed (folded, pruned) [`nn::Network`] plus
//! everything the scheduler needs to run it: the per-sample input/output
//! lengths for admission-time validation, and — when the network is an
//! fx-compatible conv stack — a pre-quantized [`FxModel`] mirroring it on
//! the hwsim fixed-point datapath ("FPGA mode").
//!
//! # Hot-swap
//!
//! Publishing a [`Model`] into the [`Registry`] wraps it in a versioned,
//! immutable [`ModelEntry`] behind an [`Arc`]. Request admission calls
//! [`Registry::resolve`], which returns the *newest* entry under the
//! name — and that `Arc` rides with the request through the batch queue,
//! so a version flip is atomic from the traffic's point of view:
//!
//! - requests admitted before the flip execute on the old entry they
//!   already hold (never a mix of versions inside one request),
//! - requests admitted after the flip resolve the new entry,
//! - the old version's weights are freed exactly when its last in-flight
//!   request completes (the `Arc` strong count hits zero) — a lossless
//!   drain with no coordination beyond reference counting.
//!
//! Batch execution is bit-identical to per-request execution on both
//! paths: every float forward op treats batch rows independently, and the
//! fx batch kernel ([`hwsim::inference::conv_forward_fx_batch_packed`])
//! preserves each sample's fixed-point operation sequence exactly —
//! batching only shares each live block's weight stream across the
//! samples and pays each dispatch's set-up (FFT twiddles, buffers, the
//! worker fan-out) once. The float path locks its `Network` per
//! dispatch: an eval `Network::forward` keeps no per-call state, but it
//! takes `&mut self` because each BCM layer's `GateStack` builds its
//! dense expansion and prepared spectra lazily on first use. The fx path
//! is lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hwsim::inference::{conv_forward_fx, conv_forward_fx_batch_packed, FxWeights};
use hwsim::{FxBatch, QFormat};
use nn::layers::checkpoint::LayerSnapshot;
use nn::{CheckpointError, CheckpointMeta, Network};
use tensor::Tensor;

use crate::session::SeqModel;

/// One stage of the fixed-point mirror of a conv stack.
enum FxStage {
    /// A folded BCM convolution, spectra pre-quantized.
    Conv(FxWeights),
    /// Elementwise `max(0)` on the i16 activations.
    Relu,
}

/// The hwsim fixed-point mirror of an fx-compatible model: a stack of
/// stride-1, "same"-padded folded BCM convolutions and ReLUs over a fixed
/// `[c, h, w]` input.
pub struct FxModel {
    q: QFormat,
    h: usize,
    w: usize,
    input_len: usize,
    output_len: usize,
    stages: Vec<FxStage>,
}

impl FxModel {
    /// Builds the fixed-point mirror from the network's layer snapshots.
    /// Returns `None` when the network is not an fx-compatible conv stack:
    /// fx mode supports exactly stride-1, odd-kernel BCM convolutions with
    /// symmetric "same" padding interleaved with ReLUs, over a rank-3
    /// `[c, h, w]` input. (An even kernel with pad `(k−1)/2` shrinks the
    /// map, while the fx conv always returns `h × w`.)
    fn build(net: &Network, meta: &CheckpointMeta) -> Option<FxModel> {
        let [c, h, w] = *meta.input_dims.as_slice() else {
            return None;
        };
        let q = QFormat::new(meta.frac_bits as u32);
        let mut stages = Vec::new();
        let mut channels = c;
        for layer in net.layers() {
            match layer.snapshot()? {
                LayerSnapshot::Relu => stages.push(FxStage::Relu),
                LayerSnapshot::BcmConv2d {
                    stride,
                    pad,
                    weights,
                } => {
                    if weights.c_in != channels
                        || stride != 1
                        || weights.k % 2 == 0
                        || pad != weights.k / 2
                    {
                        return None;
                    }
                    stages.push(FxStage::Conv(FxWeights::from_folded(q, &weights.folded())));
                    channels = weights.c_out;
                }
                _ => return None,
            }
        }
        if stages.is_empty() {
            return None;
        }
        Some(FxModel {
            q,
            h,
            w,
            input_len: c * h * w,
            output_len: channels * h * w,
            stages,
        })
    }

    /// The Q-format the model was calibrated for.
    pub fn qformat(&self) -> QFormat {
        self.q
    }

    /// Per-sample input length in i16 words.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Per-sample output length in i16 words.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Runs one sample through the fixed-point stack: a one-row
    /// [`FxModel::forward_batch_packed`].
    pub fn forward(&self, sample: &[i16]) -> Vec<i16> {
        self.forward_batch_packed(FxBatch::from_borrowed_rows(self.q, &[sample]))
            .row(0)
            .to_vec()
    }

    /// Runs a packed batch through the fixed-point stack via the
    /// vectorized lane kernels ([`conv_forward_fx_batch_packed`]): the
    /// `i16` words stay in the [`FxBatch`] container end to end — one
    /// flat buffer in, one flat buffer out, no per-sample row splits
    /// between layers. The eMAC entry lists live in the [`FxWeights`],
    /// built once with the model; what micro-batching buys is each
    /// dispatch's set-up paid once and each weight load shared across
    /// every sample in the batch. This is the only fx model datapath ([`FxModel::forward`]
    /// is a batch of one); per sample it is bit-identical to a
    /// [`hwsim::inference::conv_forward_fx`] fold of the stages.
    pub fn forward_batch_packed(&self, batch: FxBatch) -> FxBatch {
        assert!(!batch.is_empty(), "empty fx batch");
        assert_eq!(batch.sample_len(), self.input_len, "fx sample length");
        assert_eq!(batch.format(), self.q, "fx batch format");
        let mut cur = batch;
        for stage in &self.stages {
            match stage {
                FxStage::Conv(wts) => {
                    cur = conv_forward_fx_batch_packed(wts, &cur, self.h, self.w);
                }
                FxStage::Relu => {
                    for v in cur.as_flat_mut() {
                        *v = (*v).max(0);
                    }
                }
            }
        }
        cur
    }

    /// Reference batch execution on the **scalar oracle** kernel: folds
    /// [`conv_forward_fx`] and the ReLUs over the stages, one sample at a
    /// time. Bit-identical to [`FxModel::forward_batch_packed`]; kept
    /// callable (not test-gated) so `exp_serve` can measure the
    /// engine-level scalar-vs-lane speedup at runtime.
    pub fn forward_batch_scalar(&self, samples: &[Vec<i16>]) -> Vec<Vec<i16>> {
        assert!(!samples.is_empty(), "empty fx batch");
        samples
            .iter()
            .map(|s| {
                assert_eq!(s.len(), self.input_len, "fx sample length");
                self.stages
                    .iter()
                    .fold(s.clone(), |cur, stage| match stage {
                        FxStage::Conv(wts) => conv_forward_fx(self.q, wts, &cur, self.h, self.w),
                        FxStage::Relu => cur.into_iter().map(|v| v.max(0)).collect(),
                    })
            })
            .collect()
    }
}

/// A loaded model artifact: the network, its checkpoint metadata, and
/// (when fx-compatible) its fixed-point mirror. Publish it into a
/// [`Registry`] to serve it.
pub struct Model {
    name: String,
    net: Network,
    meta: CheckpointMeta,
    input_len: usize,
    output_len: usize,
    fx: Option<FxModel>,
    seq: Option<SeqModel>,
}

impl Model {
    /// Wraps a deployed network for serving under `name`, building every
    /// BCM layer's inference cache (the live blocks' prepared half-spectra
    /// and entry lists for convolutions, the prepared grid for 1-tap
    /// stacks; never a dense expansion) with one zero-sample eval forward,
    /// which also derives the output length.
    ///
    /// # Panics
    ///
    /// Panics if the network cannot forward a `[1, ...input_dims]` zero
    /// tensor — the checkpoint metadata disagrees with the stack.
    pub fn from_network(name: &str, mut net: Network, meta: CheckpointMeta) -> Model {
        let mut dims = vec![1usize];
        dims.extend_from_slice(&meta.input_dims);
        let warm = net.forward(&Tensor::zeros(&dims), false);
        let output_len = warm.len();
        let input_len = meta.sample_len();
        let fx = FxModel::build(&net, &meta);
        let seq = SeqModel::build(&net, &meta);
        Model {
            name: name.to_string(),
            net,
            meta,
            input_len,
            output_len,
            fx,
            seq,
        }
    }

    /// Loads a `.rpbcm` checkpoint and wraps it for serving; the model is
    /// named after the checkpoint's network name.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`] from [`Network::load`].
    pub fn load_file(path: &std::path::Path) -> Result<Model, CheckpointError> {
        let (net, meta) = Network::load(path)?;
        let name = net.name().to_string();
        Ok(Model::from_network(&name, net, meta))
    }

    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Checkpoint metadata (input shape, Q-format).
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// Per-sample float input length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Per-sample float output length.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// The fixed-point mirror, when the stack is fx-compatible.
    pub fn fx(&self) -> Option<&FxModel> {
        self.fx.as_ref()
    }

    /// The streaming-session weight stacks, when the stack is a recurrent
    /// sequence model (see [`crate::session`]).
    pub fn seq(&self) -> Option<&SeqModel> {
        self.seq.as_ref()
    }
}

/// One published, immutable version of a model — what requests actually
/// execute against. Admission resolves an `Arc<ModelEntry>` and the
/// request carries it to execution, so a registry flip never changes the
/// version an in-flight request runs on.
pub struct ModelEntry {
    name: String,
    version: u64,
    meta: CheckpointMeta,
    input_len: usize,
    output_len: usize,
    /// `Network::forward` needs `&mut self` for the `GateStack`s' lazily
    /// built weight caches, so the float path serializes per entry. The
    /// fx path below is lock-free.
    net: Mutex<Network>,
    fx: Option<FxModel>,
    seq: Option<SeqModel>,
}

impl ModelEntry {
    fn new(model: Model, version: u64) -> ModelEntry {
        ModelEntry {
            name: model.name,
            version,
            meta: model.meta,
            input_len: model.input_len,
            output_len: model.output_len,
            net: Mutex::new(model.net),
            fx: model.fx,
            seq: model.seq,
        }
    }

    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registry-assigned publication version (monotonic across the
    /// whole registry, so later publications always compare greater).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Checkpoint metadata (input shape, Q-format).
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// Per-sample float input length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Per-sample float output length.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// The fixed-point mirror, when the stack is fx-compatible.
    pub fn fx(&self) -> Option<&FxModel> {
        self.fx.as_ref()
    }

    /// The streaming-session weight stacks, when the stack is a
    /// recurrent sequence model. Sessions opened against this entry hold
    /// its `Arc` and their runners hold the stacks' `Arc`s, so a hot swap
    /// never changes the weights mid-session.
    pub fn seq(&self) -> Option<&SeqModel> {
        self.seq.as_ref()
    }

    /// Runs a float batch: returns the per-sample output rows.
    /// Bit-identical to forwarding each sample alone — every layer in the
    /// stack treats batch rows independently in inference mode, and a BCM
    /// conv runs the paper's "FFT → eMAC → IFFT" datapath over its live
    /// blocks with samples in independent lanes, split over output blocks,
    /// so neither the batch width nor the worker count changes a bit.
    pub fn forward_f32_batch(&self, samples: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = samples.len();
        assert!(n > 0, "empty batch");
        let mut flat = Vec::with_capacity(n * self.input_len);
        for s in samples {
            assert_eq!(s.len(), self.input_len, "f32 sample length");
            flat.extend_from_slice(s);
        }
        let mut dims = vec![n];
        dims.extend_from_slice(&self.meta.input_dims);
        let out = {
            let mut net = self.net.lock().expect("model net lock");
            net.forward(&Tensor::from_vec(flat, &dims), false)
        };
        let row = self.output_len;
        out.as_slice().chunks(row).map(<[f32]>::to_vec).collect()
    }

    /// Runs a fixed-point batch through [`FxModel::forward_batch_packed`]
    /// — the batch worker's entry point: the request payloads are
    /// flattened straight into an [`FxBatch`] and the `i16` lanes never
    /// leave it until reply split. Every sample's output is bit-identical
    /// to a per-request [`FxModel::forward`] call.
    ///
    /// # Panics
    ///
    /// Panics if the model has no fx mirror — callers gate on
    /// [`ModelEntry::fx`] at admission time.
    pub fn forward_fx_batch_packed(&self, batch: FxBatch) -> FxBatch {
        let fx = self.fx.as_ref().expect("fx mode unavailable");
        fx.forward_batch_packed(batch)
    }
}

/// Descriptor the server validates requests against without touching the
/// engine-owned entries.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Publication version of the newest entry under this name.
    pub version: u64,
    /// Per-sample float input length.
    pub input_len: usize,
    /// Per-sample float output length.
    pub output_len: usize,
    /// Per-sample fx input length, when fx mode is available.
    pub fx_input_len: Option<usize>,
    /// Whether streaming sessions can be opened against this model.
    pub streamable: bool,
}

/// The set of deployed models a server instance offers, with versioned
/// hot-swap (see the module docs). All methods take `&self`: the
/// registry is shared across shards and mutated live.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Arc<ModelEntry>>>,
    next_version: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Publishes a model version, returning its entry. A publication
    /// under an existing name **is** the hot-swap: [`Registry::resolve`]
    /// returns the new entry from this call on, requests already holding
    /// the old entry finish on it, and the old version is dropped from
    /// the registry immediately (its weights are freed once the last
    /// in-flight reference releases).
    pub fn publish(&self, model: Model) -> Arc<ModelEntry> {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(ModelEntry::new(model, version));
        let mut entries = self.entries.lock().expect("registry lock");
        // Retire prior versions of the same name in place so the catalog
        // keeps publication order for distinct names.
        match entries.iter().position(|e| e.name() == entry.name()) {
            Some(i) => entries[i] = Arc::clone(&entry),
            None => entries.push(Arc::clone(&entry)),
        }
        entry
    }

    /// Loads a `.rpbcm` checkpoint and publishes it.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`] from [`Model::load_file`].
    pub fn load_file(&self, path: &std::path::Path) -> Result<Arc<ModelEntry>, CheckpointError> {
        Ok(self.publish(Model::load_file(path)?))
    }

    /// The current entry under `name` — the newest published version.
    pub fn resolve(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.entries
            .lock()
            .expect("registry lock")
            .iter()
            .find(|e| e.name() == name)
            .map(Arc::clone)
    }

    /// Number of served names.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock").len()
    }

    /// Whether the registry serves nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().expect("registry lock").is_empty()
    }

    /// Immutable descriptors of every served name (newest versions).
    pub fn catalog(&self) -> Vec<ModelInfo> {
        self.entries
            .lock()
            .expect("registry lock")
            .iter()
            .map(|e| ModelInfo {
                name: e.name().to_string(),
                version: e.version(),
                input_len: e.input_len(),
                output_len: e.output_len(),
                fx_input_len: e.fx().map(FxModel::input_len),
                streamable: e.seq().is_some(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::layers::{BcmConv2d, Flatten, Linear, ReLU};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv_stack(seed: u64) -> (Network, CheckpointMeta) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            "convstack",
            vec![
                Box::new(BcmConv2d::new(&mut rng, 4, 8, 3, 1, 1, 4)),
                Box::new(ReLU::new()),
                Box::new(BcmConv2d::new(&mut rng, 8, 4, 3, 1, 1, 4)),
            ],
        );
        let meta = CheckpointMeta {
            input_dims: vec![4, 5, 5],
            frac_bits: 8,
        };
        (net, meta)
    }

    #[test]
    fn conv_stack_gets_an_fx_mirror() {
        let (net, meta) = conv_stack(1);
        let model = Model::from_network("m", net, meta);
        assert_eq!(model.input_len(), 4 * 5 * 5);
        assert_eq!(model.output_len(), 4 * 5 * 5);
        let fx = model.fx().expect("fx mode");
        assert_eq!(fx.input_len(), 4 * 5 * 5);
        assert_eq!(fx.output_len(), 4 * 5 * 5);
    }

    #[test]
    fn folded_hadabcm_stack_gets_an_fx_mirror() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Network::new(
            "hada",
            vec![
                Box::new(BcmConv2d::new_hada(&mut rng, 4, 4, 3, 1, 1, 4)),
                Box::new(ReLU::new()),
            ],
        );
        let meta = CheckpointMeta {
            input_dims: vec![4, 4, 4],
            frac_bits: 8,
        };
        let model = Model::from_network("hada", net, meta);
        assert!(model.fx().is_some());
    }

    #[test]
    fn dense_tails_disable_fx_mode() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(
            "mixed",
            vec![
                Box::new(BcmConv2d::new(&mut rng, 4, 4, 3, 1, 1, 4)),
                Box::new(ReLU::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(&mut rng, 4 * 4 * 4, 3)),
            ],
        );
        let meta = CheckpointMeta {
            input_dims: vec![4, 4, 4],
            frac_bits: 8,
        };
        let model = Model::from_network("mixed", net, meta);
        assert!(model.fx().is_none());
        assert_eq!(model.output_len(), 3);
        // An even kernel with pad (k−1)/2 shrinks the map: the float
        // output is 8×3×3, which the "same"-padded fx conv cannot match.
        for (k, pad) in [(2, 0), (4, 1)] {
            let net = Network::new(
                "even",
                vec![Box::new(BcmConv2d::new(&mut rng, 8, 8, k, 1, pad, 4))],
            );
            let meta = CheckpointMeta {
                input_dims: vec![8, 4, 4],
                frac_bits: 8,
            };
            let model = Model::from_network("even", net, meta);
            assert!(model.fx().is_none(), "k = {k}");
            assert_eq!(model.output_len(), 72, "k = {k}");
        }
    }

    #[test]
    fn f32_batches_are_bit_identical_to_single_samples() {
        let (net, meta) = conv_stack(4);
        let reg = Registry::new();
        let entry = reg.publish(Model::from_network("m", net, meta));
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<Vec<f32>> = (0..5)
            .map(|_| {
                (0..entry.input_len())
                    .map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0))
                    .collect()
            })
            .collect();
        let batched = entry.forward_f32_batch(&samples);
        for (s, b) in samples.iter().zip(&batched) {
            let single = &entry.forward_f32_batch(std::slice::from_ref(s))[0];
            let a: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, bb);
        }
    }

    #[test]
    fn fx_batches_match_direct_hwsim_inference() {
        let (net, meta) = conv_stack(6);
        let reg = Registry::new();
        let entry = reg.publish(Model::from_network("m", net, meta));
        let fx = entry.fx().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<Vec<i16>> = (0..4)
            .map(|_| {
                (0..fx.input_len())
                    .map(|_| rand::Rng::gen_range(&mut rng, -256i16..256))
                    .collect()
            })
            .collect();
        let batched = entry
            .forward_fx_batch_packed(FxBatch::from_rows(fx.qformat(), &samples))
            .into_rows();
        for (s, b) in samples.iter().zip(&batched) {
            let want = fx.forward_batch_scalar(std::slice::from_ref(s)).remove(0);
            assert_eq!(&want, b);
            assert_eq!(fx.forward(s), want);
        }
    }

    #[test]
    fn fx_scalar_oracle_matches_lane_batch() {
        let (net, meta) = conv_stack(10);
        let model = Model::from_network("m", net, meta);
        let fx = model.fx().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<Vec<i16>> = (0..6)
            .map(|_| {
                (0..fx.input_len())
                    .map(|_| rand::Rng::gen_range(&mut rng, -256i16..256))
                    .collect()
            })
            .collect();
        let lane = fx
            .forward_batch_packed(FxBatch::from_rows(fx.qformat(), &samples))
            .into_rows();
        let scalar = fx.forward_batch_scalar(&samples);
        assert_eq!(lane, scalar, "lane engine diverged from scalar oracle");
        for (s, row) in samples.iter().zip(&lane) {
            assert_eq!(
                &fx.forward(s),
                row,
                "a batch of one diverged from the batch"
            );
        }
    }

    #[test]
    fn publish_hot_swaps_resolution_and_keeps_old_arcs_alive() {
        let reg = Registry::new();
        let (net, meta) = conv_stack(8);
        let v1 = reg.publish(Model::from_network("a", net, meta));
        assert_eq!(v1.version(), 1);
        // A request in flight holds v1 across the flip.
        let in_flight = reg.resolve("a").unwrap();
        let (net, meta) = conv_stack(9);
        let v2 = reg.publish(Model::from_network("a", net, meta));
        assert_eq!(v2.version(), 2);
        assert_eq!(reg.resolve("a").unwrap().version(), 2);
        assert_eq!(in_flight.version(), 1, "in-flight ref still runs v1");
        assert_eq!(reg.len(), 1, "old version retired from the catalog");
        let cat = reg.catalog();
        assert_eq!(cat.len(), 1);
        assert_eq!(cat[0].version, 2);
        assert!(cat[0].fx_input_len.is_some());
        // The registry no longer pins v1: only local refs keep it alive.
        drop(v2);
        assert_eq!(Arc::strong_count(&v1), 2, "v1 + in_flight only");
    }
}
