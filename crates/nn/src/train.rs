//! Training loop, evaluation, and the Algorithm 1 adapter.
//!
//! # Data-parallel training
//!
//! `Trainer::fit` shards every minibatch into fixed-size *microbatches*
//! ([`TrainConfig::microbatch`]) and runs forward/backward for each shard on
//! a private network replica, fanned out over `tensor::parallel` workers.
//! The shard layout depends only on the batch size and the microbatch
//! size — never on the worker count — and the per-shard gradients are
//! reduced into the master network **sequentially in shard order** on the
//! calling thread. Together with the serial per-shard bodies
//! (`parallel::serial_scope`) this makes training bit-exact for every
//! worker count: `RPBCM_THREADS=1` and `RPBCM_THREADS=64` produce the same
//! loss history and the same final weights, byte for byte. Changing
//! `microbatch` *does* change results (it changes where batch-norm
//! statistics are computed — "ghost batch norm"), which is why it is a
//! config field and not an environment knob.

use crate::data::{SyntheticVision, TrainData};
use crate::layers::Network;
use crate::loss::softmax_cross_entropy;
use crate::optim::Sgd;
use rpbcm::pruning::PrunableNetwork;
use std::sync::Arc;
use std::time::Instant;
use tensor::ops::argmax;
use tensor::parallel;
use tensor::Tensor;

/// Global L2 norm of all accumulated gradients, last training step.
static GRAD_NORM: telemetry::Gauge = telemetry::Gauge::new("nn.train.grad_norm");
/// Largest gradient norm seen across all training steps.
static GRAD_NORM_MAX: telemetry::Gauge = telemetry::Gauge::new("nn.train.grad_norm_max");
/// `‖Δw‖ / ‖w‖` of the last SGD step (weight-relative update magnitude).
static UPDATE_RATIO: telemetry::Gauge = telemetry::Gauge::new("nn.train.update_ratio");
/// Largest update ratio seen across all training steps.
static UPDATE_RATIO_MAX: telemetry::Gauge = telemetry::Gauge::new("nn.train.update_ratio_max");
/// Worker count the data-parallel trainer fans shards out over.
static PARALLEL_WORKERS: telemetry::Gauge = telemetry::Gauge::new("nn.train.parallel.workers");
/// Minibatch shards dispatched to replicas.
static SHARDS: telemetry::Counter = telemetry::Counter::new("nn.train.parallel.shards");
/// Wall time of one shard's forward + backward (nanoseconds).
static SHARD_NS: telemetry::Histogram = telemetry::Histogram::new("nn.train.parallel.shard_ns");
/// Per-step shard imbalance: slowest shard over mean shard time, in
/// permille (1000 = perfectly balanced). Large values mean one replica
/// straggles and the whole batch waits on it.
static SHARD_IMBALANCE: telemetry::Histogram =
    telemetry::Histogram::new("nn.train.parallel.shard_imbalance_permille");
/// Wall time of the sequential gradient reduction (nanoseconds).
static REDUCE_NS: telemetry::Histogram = telemetry::Histogram::new("nn.train.parallel.reduce_ns");

/// Global L2 norms of `(gradients, weights)` over every trainable
/// parameter — read-only, safe to call between `backward` and `step`
/// (which clears gradients).
fn grad_and_weight_norms(net: &Network) -> (f64, f64) {
    let mut g2 = 0.0f64;
    let mut w2 = 0.0f64;
    for p in net.params() {
        for &g in p.grad.as_slice() {
            g2 += f64::from(g) * f64::from(g);
        }
        for &w in p.value.as_slice() {
            w2 += f64::from(w) * f64::from(w);
        }
    }
    (g2.sqrt(), w2.sqrt())
}

/// Training hyper-parameters (SGD + cosine annealing, as in paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum learning rate (annealed to `lr_min`).
    pub lr_max: f32,
    /// Minimum learning rate.
    pub lr_min: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Data-parallel shard size: each minibatch is split into contiguous
    /// microbatches of this many samples, one replica forward/backward
    /// each. Batch-norm statistics are computed per shard (ghost batch
    /// norm), so this value is part of the numerical recipe — results are
    /// identical for every worker count but *not* across different
    /// microbatch sizes. Values `>= batch_size` reproduce single-shard
    /// (whole-batch) training.
    pub microbatch: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr_max: 0.05,
            lr_min: 1e-4,
            momentum: 0.9,
            weight_decay: 5e-4,
            microbatch: 8,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Training accuracy.
    pub train_accuracy: f32,
}

/// What one shard's replica reports back to the reducing thread.
struct ShardOutcome {
    /// `loss × samples` (so shard losses sum to the batch total).
    loss_sum: f64,
    /// Correct argmax predictions in the shard.
    correct: usize,
    /// Samples in the shard.
    count: usize,
    /// Wall time of the shard's forward + backward.
    ns: u64,
}

/// Drives SGD training of a [`Network`] on any [`TrainData`] dataset
/// (vision `[N, C, H, W]` or sequence `[N, F, T, 1]` — the shard slicing
/// below is 4-D layout-agnostic).
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    history: Vec<EpochStats>,
    workers: usize,
}

impl Trainer {
    /// Creates a trainer using the process-wide worker pool size
    /// (`RPBCM_THREADS` / `available_parallelism`) for shard fan-out.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            history: Vec::new(),
            workers: parallel::max_workers(),
        }
    }

    /// Overrides the shard fan-out width. Any value produces bit-identical
    /// training results; this only changes how many shards run
    /// concurrently.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The shard fan-out width this trainer uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The per-epoch history of the last `fit`.
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// Trains for the configured epochs and returns final test accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `microbatch` is zero.
    pub fn fit(&mut self, net: &mut Network, data: &impl TrainData) -> f32 {
        assert!(self.config.batch_size > 0, "batch size must be non-zero");
        assert!(self.config.microbatch > 0, "microbatch must be non-zero");
        self.history.clear();
        PARALLEL_WORKERS.set(self.workers as f64);
        let steps_per_epoch = data.train_len().div_ceil(self.config.batch_size);
        let sgd = Sgd {
            lr_max: self.config.lr_max,
            lr_min: self.config.lr_min,
            momentum: self.config.momentum,
            weight_decay: self.config.weight_decay,
            total_steps: self.config.epochs * steps_per_epoch,
        };
        // Persistent per-shard replicas, grown on first use. Replicas carry
        // weights + gradients only: momentum lives in the master's private
        // velocity buffers (replicas never `step`), and replica running
        // batch-norm stats are never read (training forwards use batch
        // statistics; the master's running stats get one pooled update per
        // step below).
        let mut replicas: Vec<Network> = Vec::new();
        let micro = self.config.microbatch;
        let mut step = 0usize;
        for epoch in 0..self.config.epochs {
            let mut loss_sum = 0.0f64;
            let mut correct = 0usize;
            let mut count = 0usize;
            let mut last_lr = 0.0f32;
            for (x, y) in data.train_batches(self.config.batch_size, epoch as u64) {
                let b = y.len();
                let used = b.div_ceil(micro);
                while replicas.len() < used {
                    replicas.push(net.clone());
                }
                // Publish the master weights to every active replica before
                // fanning out (serially — `Network` is `Send`, not `Sync`,
                // and the copies are cheap next to a forward/backward).
                for rep in &mut replicas[..used] {
                    rep.sync_params_from(net);
                }
                let dims = x.dims().to_vec();
                let sample_len: usize = dims[1..].iter().product();
                let outcomes = parallel::par_chunk_map_with(
                    self.workers,
                    &mut replicas[..used],
                    1,
                    |si, rep| {
                        // Shard bodies run with nested fan-outs forced
                        // serial: the shards *are* the parallelism, and a
                        // fully serial body keeps each shard's arithmetic
                        // independent of the worker count.
                        parallel::serial_scope(|| {
                            let t0 = Instant::now();
                            let _trace = telemetry::trace_span("shard", "nn.train.parallel");
                            let rep = &mut rep[0];
                            let lo = si * micro;
                            let hi = (lo + micro).min(b);
                            let xs = Tensor::from_vec(
                                x.as_slice()[lo * sample_len..hi * sample_len].to_vec(),
                                &[hi - lo, dims[1], dims[2], dims[3]],
                            );
                            let logits = rep.forward(&xs, true);
                            let out = softmax_cross_entropy(&logits, &y[lo..hi]);
                            // The loss gradient is divided by the *shard*
                            // size; rescale so the shard gradients sum to
                            // the full-batch mean gradient.
                            let mut grad = out.grad;
                            let scale = (hi - lo) as f32 / b as f32;
                            for g in grad.as_mut_slice() {
                                *g *= scale;
                            }
                            rep.backward(&grad);
                            ShardOutcome {
                                loss_sum: f64::from(out.loss) * (hi - lo) as f64,
                                correct: out.correct,
                                count: hi - lo,
                                ns: t0.elapsed().as_nanos() as u64,
                            }
                        })
                    },
                );
                // Deterministic reduction: always shard 0, 1, 2, … on this
                // thread, whatever order the workers finished in.
                net.zero_grads();
                {
                    let _span = REDUCE_NS.span();
                    let _trace = telemetry::trace_span("grad_reduce", "nn.train.parallel");
                    for rep in &replicas[..used] {
                        net.reduce_grads_from(rep);
                    }
                }
                self.pool_batchnorm_stats(net, &replicas[..used]);
                if telemetry::enabled() {
                    SHARDS.add(used as u64);
                    let mut ns_sum = 0u64;
                    let mut ns_max = 0u64;
                    for o in &outcomes {
                        SHARD_NS.record(o.ns);
                        ns_sum += o.ns;
                        ns_max = ns_max.max(o.ns);
                    }
                    let mean = ns_sum / used as u64;
                    if let Some(permille) = (ns_max * 1000).checked_div(mean) {
                        SHARD_IMBALANCE.record(permille);
                    }
                }
                let update = sgd.update_at(step);
                if telemetry::enabled() {
                    // Gradients are cleared by `step`, so norms must be read
                    // here; the pre-step weight snapshot yields an exact
                    // ‖Δw‖ including momentum and weight decay. All reads —
                    // the update arithmetic is untouched.
                    let (grad_norm, weight_norm) = grad_and_weight_norms(net);
                    let pre: Vec<Vec<f32>> = net
                        .params()
                        .iter()
                        .map(|p| p.value.as_slice().to_vec())
                        .collect();
                    net.step(&update);
                    let mut d2 = 0.0f64;
                    for (p, old) in net.params().iter().zip(&pre) {
                        for (&w, &o) in p.value.as_slice().iter().zip(old) {
                            let d = f64::from(w) - f64::from(o);
                            d2 += d * d;
                        }
                    }
                    let ratio = if weight_norm > 0.0 {
                        d2.sqrt() / weight_norm
                    } else {
                        0.0
                    };
                    GRAD_NORM.set(grad_norm);
                    GRAD_NORM_MAX.set_max(grad_norm);
                    UPDATE_RATIO.set(ratio);
                    UPDATE_RATIO_MAX.set_max(ratio);
                } else {
                    net.step(&update);
                }
                last_lr = update.lr;
                step += 1;
                for o in &outcomes {
                    loss_sum += o.loss_sum;
                    correct += o.correct;
                    count += o.count;
                }
            }
            let stats = EpochStats {
                epoch,
                train_loss: (loss_sum / count as f64) as f32,
                train_accuracy: correct as f32 / count as f32,
            };
            if telemetry::enabled() {
                telemetry::record_gauge(
                    &format!("nn.train.epoch.{epoch:03}.loss"),
                    f64::from(stats.train_loss),
                );
                telemetry::record_gauge(
                    &format!("nn.train.epoch.{epoch:03}.accuracy"),
                    f64::from(stats.train_accuracy),
                );
                telemetry::record_gauge(
                    &format!("nn.train.epoch.{epoch:03}.lr"),
                    f64::from(last_lr),
                );
            }
            self.history.push(stats);
        }
        evaluate(net, data)
    }

    /// Applies one running-statistics update per batch-norm layer on the
    /// master from the count-weighted pool of the shards' batch statistics
    /// (`E[x²]` recombination, accumulated in `f64` in shard order so the
    /// result is worker-count independent).
    fn pool_batchnorm_stats(&self, net: &mut Network, replicas: &[Network]) {
        let mut masters = net.bn_layers_mut();
        if masters.is_empty() {
            return;
        }
        type BnStats<'a> = Vec<(&'a [f32], &'a [f32], usize)>;
        let shard_stats: Vec<BnStats<'_>> = replicas
            .iter()
            .map(|rep| {
                rep.bn_layers()
                    .into_iter()
                    .map(|bn| bn.batch_stats().expect("replica ran a training forward"))
                    .collect()
            })
            .collect();
        for (bi, master) in masters.iter_mut().enumerate() {
            let channels = shard_stats[0][bi].0.len();
            let mut mean_p = vec![0.0f64; channels];
            let mut ex2_p = vec![0.0f64; channels];
            let mut total = 0.0f64;
            for stats in &shard_stats {
                let (mean, var, cnt) = stats[bi];
                let cnt = cnt as f64;
                total += cnt;
                for ci in 0..channels {
                    let m = f64::from(mean[ci]);
                    mean_p[ci] += cnt * m;
                    ex2_p[ci] += cnt * (f64::from(var[ci]) + m * m);
                }
            }
            let mut mean = vec![0.0f32; channels];
            let mut var = vec![0.0f32; channels];
            for ci in 0..channels {
                let m = mean_p[ci] / total;
                mean[ci] = m as f32;
                var[ci] = (ex2_p[ci] / total - m * m) as f32;
            }
            master.update_running_stats(&mean, &var);
        }
    }
}

/// Per-chunk batch size used by [`evaluate`] / [`evaluate_topk`]: keeps the
/// forward batched (one im2col / matmat per chunk, not per sample) while
/// bounding the peak activation footprint on large test splits. Eval-mode
/// forwards use running statistics, so chunking never changes the scores.
const EVAL_BATCH: usize = 64;

/// Shared batched-evaluation core: fraction of test samples whose target is
/// in the top-`k` logits.
fn eval_topk_fraction(net: &mut Network, data: &impl TrainData, k: usize) -> f32 {
    let (x, y) = data.test_set();
    let dims = x.dims().to_vec();
    let sample_len: usize = dims[1..].iter().product();
    let mut correct = 0usize;
    for (ci, chunk) in y.chunks(EVAL_BATCH).enumerate() {
        let lo = ci * EVAL_BATCH;
        let xs = Tensor::from_vec(
            x.as_slice()[lo * sample_len..(lo + chunk.len()) * sample_len].to_vec(),
            &[chunk.len(), dims[1], dims[2], dims[3]],
        );
        let logits = net.forward(&xs, false);
        let classes = logits.dims()[1];
        for (i, &t) in chunk.iter().enumerate() {
            let row = &logits.as_slice()[i * classes..(i + 1) * classes];
            let hit = if k == 1 {
                argmax(row) == t
            } else {
                let mut order: Vec<usize> = (0..classes).collect();
                order.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("finite logits"));
                order[..k.min(classes)].contains(&t)
            };
            if hit {
                correct += 1;
            }
        }
    }
    correct as f32 / y.len() as f32
}

/// Test-set accuracy of a network (eval mode).
pub fn evaluate(net: &mut Network, data: &impl TrainData) -> f32 {
    eval_topk_fraction(net, data, 1)
}

/// Top-k test-set accuracy (the paper's tables report Top-1 and Top-5).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn evaluate_topk(net: &mut Network, data: &impl TrainData, k: usize) -> f32 {
    assert!(k > 0, "k must be non-zero");
    eval_topk_fraction(net, data, k)
}

/// Adapter that lets `rpbcm`'s Algorithm 1 drive a trained [`Network`]:
/// each pruning round fine-tunes for `finetune.epochs` and reports test
/// accuracy. Works over any [`TrainData`] (the default keeps existing
/// vision-pruning call sites unchanged); `Clone`/`Debug` are implemented
/// manually so the dataset type needs neither.
pub struct PrunableTrainedNetwork<D: TrainData = SyntheticVision> {
    /// The network being pruned.
    pub net: Network,
    /// Shared dataset (cloning the adapter must not copy the data).
    pub data: Arc<D>,
    /// Fine-tuning schedule applied after each elimination round.
    pub finetune: TrainConfig,
}

impl<D: TrainData> Clone for PrunableTrainedNetwork<D> {
    fn clone(&self) -> Self {
        PrunableTrainedNetwork {
            net: self.net.clone(),
            data: Arc::clone(&self.data),
            finetune: self.finetune,
        }
    }
}

impl<D: TrainData> std::fmt::Debug for PrunableTrainedNetwork<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrunableTrainedNetwork")
            .field("net", &self.net.name())
            .field("finetune", &self.finetune)
            .finish_non_exhaustive()
    }
}

impl<D: TrainData> PrunableNetwork for PrunableTrainedNetwork<D> {
    fn bcm_norms(&self) -> Vec<f64> {
        self.net.bcm_importances()
    }

    fn eliminate(&mut self, indices: &[usize]) {
        self.net.bcm_eliminate(indices);
    }

    fn fine_tune(&mut self) -> f64 {
        let mut trainer = Trainer::new(self.finetune);
        f64::from(trainer.fit(&mut self.net, &*self.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{GlobalAvgPool, Layer, Linear};
    use crate::models::{vgg_tiny, ConvMode};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpbcm::BcmWisePruner;

    fn small_data(seed: u64) -> SyntheticVision {
        SyntheticVision::cifar10_like(8, 4, seed)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr_max: 0.05,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_beats_chance_on_synthetic_data() {
        let data = small_data(0);
        let mut net = vgg_tiny(ConvMode::Dense, data.num_classes(), 1);
        let mut trainer = Trainer::new(quick_config());
        let acc = trainer.fit(&mut net, &data);
        // 10 classes → chance = 0.1; six epochs separate the textures well
        // (≈0.9+ in practice; the loose bound keeps the test robust).
        assert!(acc > 0.5, "accuracy = {acc}");
        assert_eq!(trainer.history().len(), 6);
        // Loss decreased over training.
        let h = trainer.history();
        assert!(h.last().expect("history").train_loss < h[0].train_loss);
    }

    #[test]
    fn topk_accuracy_is_monotone_in_k() {
        let data = small_data(2);
        let mut net = vgg_tiny(ConvMode::Dense, data.num_classes(), 4);
        let _ = Trainer::new(quick_config()).fit(&mut net, &data);
        let top1 = evaluate_topk(&mut net, &data, 1);
        let top5 = evaluate_topk(&mut net, &data, 5);
        let top_all = evaluate_topk(&mut net, &data, data.num_classes());
        assert!(top5 >= top1);
        assert_eq!(top_all, 1.0);
        assert_eq!(top1, evaluate(&mut net, &data));
    }

    #[test]
    fn training_is_deterministic() {
        let data = small_data(3);
        let run = || {
            let mut net = vgg_tiny(ConvMode::Bcm { block_size: 8 }, data.num_classes(), 7);
            let mut t = Trainer::new(quick_config());
            t.fit(&mut net, &data)
        };
        assert_eq!(run(), run());
    }

    /// A full fingerprint of a training run: final accuracy bits, per-epoch
    /// history bits, and every parameter's final bit pattern.
    fn run_fingerprint(
        data: &SyntheticVision,
        config: TrainConfig,
        workers: usize,
    ) -> (u32, Vec<(u32, u32)>, Vec<u32>) {
        let mut net = vgg_tiny(ConvMode::Bcm { block_size: 8 }, data.num_classes(), 7);
        let mut t = Trainer::new(config).with_workers(workers);
        let acc = t.fit(&mut net, data);
        let hist = t
            .history()
            .iter()
            .map(|s| (s.train_loss.to_bits(), s.train_accuracy.to_bits()))
            .collect();
        let bits = net
            .params()
            .iter()
            .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        (acc.to_bits(), hist, bits)
    }

    #[test]
    fn training_is_bit_exact_across_worker_counts() {
        let data = small_data(11);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let base = run_fingerprint(&data, config, 1);
        for workers in [2, 4] {
            let other = run_fingerprint(&data, config, workers);
            assert_eq!(base.0, other.0, "accuracy differs at {workers} workers");
            assert_eq!(base.1, other.1, "history differs at {workers} workers");
            assert_eq!(base.2, other.2, "weights differ at {workers} workers");
        }
    }

    proptest! {
        /// The gradient-reduction order (and hence every training result)
        /// is independent of the worker count for arbitrary batch/shard
        /// geometry.
        #[test]
        fn prop_reduction_is_worker_count_independent(
            seed in 0u64..16,
            micro in 1usize..6,
            batch in 2usize..10,
            workers in 2usize..6,
        ) {
            let data = SyntheticVision::cifar10_like(2, 1, seed);
            let config = TrainConfig {
                epochs: 1,
                batch_size: batch,
                microbatch: micro,
                ..TrainConfig::default()
            };
            let build = || {
                let mut rng = StdRng::seed_from_u64(seed);
                Network::new(
                    "probe",
                    vec![
                        Box::new(GlobalAvgPool::new()) as Box<dyn Layer>,
                        Box::new(Linear::new(&mut rng, 3, data.num_classes())),
                    ],
                )
            };
            let run = |w: usize| {
                let mut net = build();
                let mut t = Trainer::new(config).with_workers(w);
                t.fit(&mut net, &data);
                net.params()
                    .iter()
                    .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
                    .collect::<Vec<u32>>()
            };
            prop_assert_eq!(run(1), run(workers));
        }
    }

    #[test]
    fn algorithm1_prunes_a_real_network() {
        let data = Arc::new(small_data(5));
        let mut net = vgg_tiny(ConvMode::HadaBcm { block_size: 8 }, data.num_classes(), 2);
        let mut trainer = Trainer::new(TrainConfig {
            microbatch: 16,
            ..quick_config()
        });
        let base_acc = trainer.fit(&mut net, &*data);
        let adapter = PrunableTrainedNetwork {
            net,
            data: data.clone(),
            finetune: TrainConfig {
                epochs: 1,
                // Whole-batch statistics: one epoch must re-stabilize the
                // batch-norm layers after a 20% elimination, which the
                // 8-sample ghost-BN shards are too noisy to do.
                microbatch: 16,
                ..quick_config()
            },
        };
        let pruner = BcmWisePruner {
            alpha_init: 0.2,
            alpha_step: 0.2,
            // Permissive floor so at least one round is accepted even on
            // this tiny budget.
            target_accuracy: f64::from(base_acc) * 0.3,
            max_rounds: 3,
        };
        let (best, report) = pruner.run(adapter);
        assert!(report.final_alpha.is_some());
        assert!(best.net.bcm_sparsity() > 0.0);
        assert!(best.net.folded_param_count() < best.net.dense_equiv_param_count());
    }

    #[test]
    fn recurrent_training_beats_chance_on_delayed_recall() {
        use crate::data::SyntheticSequence;
        use crate::models::lstm_classifier;
        // 3 classes + marker channel = 4 features, aligned to BS 4.
        let data = SyntheticSequence::delayed_recall(3, 8, 60, 24, 3);
        let mut net = lstm_classifier(data.features(), 16, data.num_classes(), 4, 5);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 14,
            batch_size: 16,
            lr_max: 0.1,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        });
        let acc = trainer.fit(&mut net, &data);
        // 4 classes → chance = 0.25. The marked symbol sits in the first
        // half of the sequence, so the cell must carry it across at least
        // seq_len/2 distractor steps to score above chance.
        assert!(acc > 0.5, "accuracy = {acc}");
        let h = trainer.history();
        assert!(h.last().expect("history").train_loss < h[0].train_loss);
    }

    #[test]
    fn algorithm1_prunes_a_recurrent_network() {
        use crate::data::SyntheticSequence;
        use crate::models::lstm_classifier;
        let data = Arc::new(SyntheticSequence::delayed_recall(3, 10, 20, 9, 6));
        let mut net = lstm_classifier(data.features(), 8, data.num_classes(), 4, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 12,
            lr_max: 0.08,
            ..TrainConfig::default()
        });
        let base_acc = trainer.fit(&mut net, &*data);
        let adapter = PrunableTrainedNetwork {
            net,
            data: data.clone(),
            finetune: TrainConfig {
                epochs: 2,
                batch_size: 12,
                lr_max: 0.02,
                ..TrainConfig::default()
            },
        };
        let pruner = BcmWisePruner {
            alpha_init: 0.15,
            alpha_step: 0.15,
            // Permissive floor so at least one round is accepted even on
            // this tiny budget.
            target_accuracy: f64::from(base_acc) * 0.3,
            max_rounds: 3,
        };
        let (best, report) = pruner.run(adapter);
        assert!(report.final_alpha.is_some(), "no round was accepted");
        assert!(
            best.net.bcm_sparsity() > 0.0,
            "no recurrent blocks were pruned"
        );
        // The pruned cell still streams: the skip index survives into a
        // runner without panicking.
        assert!(crate::seq::SeqStack::from_network(&best.net).is_ok());
    }
}
