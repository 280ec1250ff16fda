//! `prune_pipeline`: train a hadaBCM `vgg_tiny` on the CIFAR-10
//! stand-in, run Algorithm 1 (`BcmWisePruner`), and fold the result into
//! a servable `Model`. The only workload where `nn::train`, backward and
//! `core::pruning` do the work. One operation is one whole pipeline.

use std::sync::Arc;
use std::time::Instant;

use nn::data::{DatasetConfig, SyntheticVision};
use nn::models::{vgg_tiny, ConvMode};
use nn::train::{PrunableTrainedNetwork, TrainConfig, Trainer};
use nn::{CheckpointMeta, Network};
use rpbcm::BcmWisePruner;
use serve::Model;
use telemetry::fnv::Fnv1a;

use super::{Ctx, Outcome, PipelineFacts};
use crate::stats::Summary;

/// Set-up rounds (data synthesis plus model init) per run.
const SETUP_REPS: usize = 15;

/// Initial training schedule.
const TRAIN: TrainConfig = TrainConfig {
    epochs: 1,
    batch_size: 32,
    lr_max: 0.05,
    lr_min: 1e-4,
    momentum: 0.9,
    weight_decay: 5e-4,
    microbatch: 8,
};

/// Fine-tuning after each elimination round.
const FINETUNE: TrainConfig = TrainConfig { epochs: 1, ..TRAIN };

/// Algorithm 1 with α = 0.5, then 0.75, and no accuracy floor: after one
/// short epoch the accuracy is near chance on some variants, so a floor
/// would make the number of rounds (and the work) depend on the seed.
/// Every pipeline does the same two fine-tunes.
const PRUNER: BcmWisePruner = BcmWisePruner {
    alpha_init: 0.5,
    alpha_step: 0.25,
    target_accuracy: 0.0,
    max_rounds: 2,
};

/// The CIFAR-10 stand-in's calibration (`bench::experiments::cifar10_data`)
/// at 8 training and 4 test samples per class, so a pipeline takes about
/// two seconds on the two-core reference host.
fn dataset(seed: u64) -> SyntheticVision {
    SyntheticVision::new(DatasetConfig {
        classes: 10,
        channels: 3,
        size: 16,
        train_per_class: 8,
        test_per_class: 4,
        seed,
        noise_std: 0.8,
        components: 6,
    })
}

/// One input variant and the outputs recorded for it from the code this
/// benchmark was defined against: block sparsity, final α and the FNV-1a
/// fingerprint of the folded weights.
struct Variant {
    data_seed: u64,
    model_seed: u64,
    sparsity: f64,
    final_alpha: f64,
    fingerprint: u64,
}

/// The seed picks a variant; every variant does the same amount of work.
const VARIANTS: [Variant; 4] = [
    Variant {
        data_seed: 11,
        model_seed: 11,
        sparsity: 0.75,
        final_alpha: 0.75,
        fingerprint: 0x366b_8821_ca9a_bece,
    },
    Variant {
        data_seed: 12,
        model_seed: 13,
        sparsity: 0.75,
        final_alpha: 0.75,
        fingerprint: 0x287d_60d7_abec_4830,
    },
    Variant {
        data_seed: 14,
        model_seed: 15,
        sparsity: 0.75,
        final_alpha: 0.75,
        fingerprint: 0x5935_9763_2af6_9726,
    },
    Variant {
        data_seed: 16,
        model_seed: 17,
        sparsity: 0.75,
        final_alpha: 0.75,
        fingerprint: 0x4425_73b3_e032_1a4a,
    },
];

fn meta() -> CheckpointMeta {
    CheckpointMeta {
        input_dims: vec![3, 16, 16],
        frac_bits: 8,
    }
}

/// FNV-1a over every BCM layer's folded defining vectors, in layer,
/// tap and block order.
pub fn fingerprint(net: &Network) -> u64 {
    let mut h = Fnv1a::new();
    for layer in net.bcm_layers() {
        let folded = layer.folded();
        let (kh, kw) = folded.kernel_dims();
        let (ob, ib) = folded.grid_dims();
        for p in 0..kh {
            for q in 0..kw {
                let grid = folded.grid(p, q);
                for bo in 0..ob {
                    for bi in 0..ib {
                        for v in grid.block(bo, bi).defining_vector() {
                            h.write(&v.to_le_bytes());
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

/// One pipeline's timings and outputs.
struct Run {
    total_s: f64,
    fit_s: f64,
    prune_s: f64,
    build_ms: f64,
    accepted: usize,
    rounds: usize,
    accuracies: Vec<f64>,
    sparsity: f64,
    final_alpha: f64,
    fingerprint: u64,
}

fn pipeline(ctx: &mut Ctx, data: &Arc<SyntheticVision>, init: &Network) -> Run {
    let (span, t0) = ctx.spans.open();
    let mut net = init.clone();
    Trainer::new(TRAIN).fit(&mut net, &**data);
    let t1 = Instant::now();
    ctx.spans.record("nn.train.fit", span, t0, t1);
    let adapter = PrunableTrainedNetwork {
        net,
        data: Arc::clone(data),
        finetune: FINETUNE,
    };
    let (best, report) = PRUNER.run(adapter);
    let t2 = Instant::now();
    ctx.spans.record("core.pruning.run", span, t1, t2);
    let sparsity = best.net.bcm_sparsity();
    let fp = fingerprint(&best.net);
    let t3 = Instant::now();
    let model = Model::from_network("pruned", best.net, meta());
    let t4 = Instant::now();
    ctx.spans.record("serve.registry.model_build", span, t3, t4);
    drop(model);
    ctx.spans.close((span, t0), "pipeline", ctx.root);
    Run {
        total_s: (t4 - t0).as_secs_f64(),
        fit_s: (t1 - t0).as_secs_f64(),
        prune_s: (t2 - t1).as_secs_f64(),
        build_ms: (t4 - t3).as_secs_f64() * 1e3,
        accepted: report.steps.iter().filter(|s| s.accepted).count(),
        rounds: report.steps.len(),
        accuracies: report.steps.iter().map(|s| s.accuracy).collect(),
        sparsity,
        final_alpha: report.final_alpha.unwrap_or(0.0),
        fingerprint: fp,
    }
}

fn variant(seed: u64) -> &'static Variant {
    &VARIANTS[(seed % VARIANTS.len() as u64) as usize]
}

/// Data synthesis plus model init: the pipeline's set-up.
fn inputs(v: &Variant) -> (Arc<SyntheticVision>, Network) {
    let data = dataset(v.data_seed);
    let net = vgg_tiny(
        ConvMode::HadaBcm { block_size: 8 },
        data.num_classes(),
        v.model_seed,
    );
    (Arc::new(data), net)
}

/// Why a pipeline's outputs differ from those recorded for its variant.
fn mismatch(v: &Variant, r: &Run) -> Option<String> {
    let got = (r.sparsity, r.final_alpha, r.fingerprint);
    let want = (v.sparsity, v.final_alpha, v.fingerprint);
    (got != want).then(|| {
        format!(
            "pipeline output (sparsity, final alpha, fingerprint) = ({}, {}, {:#018x}), \
             recorded ({}, {}, {:#018x})",
            got.0, got.1, got.2, want.0, want.1, want.2
        )
    })
}

/// One output-checked pipeline on the seed's variant: the pipeline
/// layers' numbers for traced runs of the other workloads, and the
/// failure reason when its outputs differ from the recorded ones.
pub fn facts_once(ctx: &mut Ctx) -> (PipelineFacts, Option<String>) {
    let v = variant(ctx.seed);
    let (data, init) = inputs(v);
    let r = pipeline(ctx, &data, &init);
    let facts = PipelineFacts {
        fit_s: r.fit_s,
        samples_per_s: (data.train_len() * TRAIN.epochs) as f64 / r.fit_s,
        prune_s: r.prune_s,
        accepted_frac: r.accepted as f64 / r.rounds as f64,
        model_build_ms: r.build_ms,
    };
    (facts, mismatch(v, &r))
}

/// Runs the workload: pipelines back to back until `--seconds` pass
/// (at least two).
pub fn run(ctx: &mut Ctx) -> Outcome {
    let variant = variant(ctx.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let made = inputs(variant);
        let t1 = Instant::now();
        ctx.spans.record("setup", ctx.root, t0, t1);
        setups.push((t1 - t0).as_secs_f64());
        prepared = Some(made);
    }
    let (data, init) = prepared.expect("at least one set-up round");

    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        runs.push(pipeline(ctx, &data, &init));
    }

    let mismatches: Vec<String> = runs.iter().filter_map(|r| mismatch(variant, r)).collect();
    let failed = mismatches.len() as u64;
    let reasons: Vec<String> = mismatches.into_iter().take(1).collect();

    let col = |f: fn(&Run) -> f64| -> Summary {
        Summary::of(&runs.iter().map(f).collect::<Vec<_>>()).expect("pipelines ran")
    };
    let fit = col(|r| r.fit_s);
    let samples = (data.train_len() * TRAIN.epochs) as f64;
    let rounds: usize = runs.iter().map(|r| r.rounds).sum();
    let accepted: usize = runs.iter().map(|r| r.accepted).sum();
    ctx.note(format!(
        "pipeline: {} runs, train {} epochs x {} samples, {} prune rounds per run",
        runs.len(),
        TRAIN.epochs,
        data.train_len(),
        rounds as f64 / runs.len() as f64
    ));
    ctx.note(format!("fit_s {fit}"));
    ctx.note(format!("round accuracies {:?}", runs[0].accuracies));
    ctx.note(format!("prune_s {}", col(|r| r.prune_s)));
    Outcome {
        attempted: runs.len() as u64,
        failed,
        reasons,
        setup_s: Summary::of(&setups).expect("set-up rounds ran"),
        throughput: col(|r| 1.0 / r.total_s),
        latency_us: col(|r| r.total_s * 1e6),
        latency_p99_us: None,
        lag_p99_us: None,
        latency_limit_us: None,
        live: None,
        pipeline: Some(PipelineFacts {
            fit_s: fit.median,
            samples_per_s: samples / fit.median,
            prune_s: col(|r| r.prune_s).median,
            accepted_frac: accepted as f64 / rounds as f64,
            model_build_ms: col(|r| r.build_ms).median,
        }),
    }
}
