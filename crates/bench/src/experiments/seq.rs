//! `exp_seq`: the sequence workload end to end — train a block-circulant
//! LSTM on the delayed-recall task, prune it with Algorithm 1, then
//! serve the pruned checkpoint over a real streaming session and prove
//! the per-step outputs bit-identical to the offline full-sequence
//! forward of the same checkpoint, on both engine paths.
//!
//! This is the C-LSTM/E-RNN reproduction slice: BCM-compressed gate
//! matrices trained and block-pruned exactly like the conv stacks
//! (Algorithm 1 is layer-agnostic), then deployed through the serving
//! tier's stateful `session_*` opcodes where hidden state lives
//! server-side.
//!
//! Writes `results/BENCH_seq.json` with two records:
//!
//! - `delayed_recall_lstm` — `baseline_accuracy` (trained, unpruned),
//!   `pruned_accuracy` (after the accepted Algorithm 1 rounds),
//!   `accuracy_drop`, `sparsity`, and `param_reduction_pct`.
//! - `streaming_parity` — `steps` served over a loopback session and the
//!   `float_bit_identical` / `fx_bit_identical` flags (1 = every step's
//!   reply matched the offline reference bit for bit).

use crate::table::Table;
use nn::data::{SyntheticSequence, TrainData};
use nn::layers::checkpoint::LayerSnapshot;
use nn::layers::Layer;
use nn::models::lstm_classifier;
use nn::train::{PrunableTrainedNetwork, TrainConfig, Trainer};
use nn::{CheckpointMeta, Network};
use rpbcm::BcmWisePruner;
use serve::{Client, Model, Registry, ServeConfig, Server};
use std::sync::Arc;
use tensor::Tensor;

/// All measurements of the sequence experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqResult {
    /// Test accuracy of the trained, unpruned BCM-LSTM.
    pub baseline_accuracy: f64,
    /// Test accuracy after the accepted Algorithm 1 rounds.
    pub pruned_accuracy: f64,
    /// `baseline_accuracy - pruned_accuracy`.
    pub accuracy_drop: f64,
    /// Fraction of BCM blocks eliminated.
    pub sparsity: f64,
    /// Folded-parameter reduction vs the dense equivalent, percent.
    pub param_reduction_pct: f64,
    /// Steps served over the loopback streaming session.
    pub steps: u64,
    /// 1 when every float `session_step` reply was bit-identical to the
    /// offline full-sequence forward's per-step head output.
    pub float_bit_identical: u64,
    /// 1 when every fixed-point reply matched the offline fx fold.
    pub fx_bit_identical: u64,
}

/// Offline float reference: the full-sequence eval forward of the
/// recurrent stack, then the dense head applied per timestep — the exact
/// arithmetic a batched (non-streaming) deployment of the same
/// checkpoint runs.
fn offline_per_step(net: &Network, x: &Tensor<f32>) -> Vec<Vec<f32>> {
    let t_len = x.dims()[2];
    let mut cur = x.clone();
    let mut layers: Vec<Box<dyn Layer>> = net.layers().to_vec();
    for layer in &mut layers {
        if matches!(
            layer.snapshot(),
            Some(LayerSnapshot::BcmLstm { .. }) | Some(LayerSnapshot::BcmGru { .. })
        ) {
            cur = layer.forward(&cur, false);
        }
    }
    let hd = cur.dims()[1];
    let head = layers
        .iter()
        .position(|l| matches!(l.snapshot(), Some(LayerSnapshot::Linear { .. })))
        .expect("classifier head");
    (0..t_len)
        .map(|t| {
            let hs = cur.as_slice();
            let h: Vec<f32> = (0..hd).map(|j| hs[j * t_len + t]).collect();
            layers[head]
                .forward(&Tensor::from_vec(h, &[1, hd]), false)
                .as_slice()
                .to_vec()
        })
        .collect()
}

/// Runs the experiment. `quick` shrinks the dataset and training budget
/// for the smoke gate; the parity checks are identical in both modes.
pub fn run(quick: bool) -> SeqResult {
    // 3 classes + marker channel = 4 features, aligned to BS 4. The
    // marked symbol sits in the first half of the 8-step sequence, so
    // the cell must hold it across ≥ 4 distractor steps.
    let (train_per_class, test_per_class, epochs) = if quick { (24, 9, 8) } else { (60, 24, 14) };
    let data = Arc::new(SyntheticSequence::delayed_recall(
        3,
        8,
        train_per_class,
        test_per_class,
        3,
    ));
    let f = data.features();
    let t_len = data.seq_len();
    let mut net = lstm_classifier(f, 16, data.num_classes(), 4, 5);
    let mut trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size: 16,
        lr_max: 0.1,
        weight_decay: 1e-4,
        ..TrainConfig::default()
    });
    let baseline_accuracy = f64::from(trainer.fit(&mut net, &*data));

    // Algorithm 1 over the gate grids, with fine-tuning between rounds.
    // The floor is relative to the trained accuracy (the synthetic
    // analogue of the paper's absolute β): rounds that fall below it are
    // rolled back, bounding the accuracy loss of the pruned checkpoint.
    let adapter = PrunableTrainedNetwork {
        net,
        data: data.clone(),
        finetune: TrainConfig {
            epochs: if quick { 2 } else { 3 },
            batch_size: 16,
            lr_max: 0.02,
            ..TrainConfig::default()
        },
    };
    let pruner = BcmWisePruner {
        alpha_init: 0.2,
        alpha_step: 0.2,
        target_accuracy: baseline_accuracy * 0.5,
        max_rounds: if quick { 2 } else { 4 },
    };
    let (best, report) = pruner.run(adapter);
    let pruned = best.net;
    let pruned_accuracy = report.final_accuracy;
    let sparsity = pruned.bcm_sparsity();
    let param_reduction_pct = 100.0
        * (1.0 - pruned.folded_param_count() as f64 / pruned.dense_equiv_param_count() as f64);

    // Serve the pruned checkpoint over a streaming session and compare
    // every per-step reply against the offline references.
    let meta = CheckpointMeta {
        input_dims: vec![f, t_len, 1],
        frac_bits: 12,
    };
    let x = Tensor::from_vec(
        (0..f * t_len)
            .map(|i| ((i as f32) * 0.73).sin() * 0.5)
            .collect(),
        &[1, f, t_len, 1],
    );
    let xs = x.as_slice();
    let step_inputs: Vec<Vec<f32>> = (0..t_len)
        .map(|t| (0..f).map(|j| xs[j * t_len + t]).collect())
        .collect();
    let float_want = offline_per_step(&pruned, &x);

    let reference = Model::from_network("seq-ref", pruned.clone(), meta.clone());
    let seq = reference.seq().expect("pruned BCM-LSTM is streamable");
    let mut fx_offline = seq.new_fx().expect("fx streaming form");
    let q = fx_offline.qformat();
    let fx_inputs: Vec<Vec<i16>> = step_inputs.iter().map(|s| q.quantize_slice(s)).collect();
    let fx_want: Vec<Vec<i16>> = fx_inputs
        .iter()
        .map(|s| fx_offline.step_scalar(s))
        .collect();

    let registry = Registry::new();
    registry.publish(Model::from_network("seq", pruned, meta));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), registry).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut float_ok = true;
    let (sid, _version) = client.open_session("seq", false).expect("open float");
    for (s, want) in step_inputs.iter().zip(&float_want) {
        let got = client.session_step_f32(sid, s).expect("float step");
        float_ok &= got
            .iter()
            .map(|v| v.to_bits())
            .eq(want.iter().map(|v| v.to_bits()));
    }
    client.close_session(sid).expect("close float");

    let mut fx_ok = true;
    let (sid, _version) = client.open_session("seq", true).expect("open fx");
    for (s, want) in fx_inputs.iter().zip(&fx_want) {
        fx_ok &= &client.session_step_fx(sid, s).expect("fx step") == want;
    }
    client.close_session(sid).expect("close fx");
    server.shutdown();

    SeqResult {
        baseline_accuracy,
        pruned_accuracy,
        accuracy_drop: baseline_accuracy - pruned_accuracy,
        sparsity,
        param_reduction_pct,
        steps: t_len as u64,
        float_bit_identical: u64::from(float_ok),
        fx_bit_identical: u64::from(fx_ok),
    }
}

/// Prints the result table.
pub fn print(r: &SeqResult) {
    println!("== exp_seq: BCM-LSTM delayed recall + streaming parity ==");
    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec![
        "baseline accuracy".into(),
        format!("{:.4}", r.baseline_accuracy),
    ]);
    t.row_owned(vec![
        "pruned accuracy".into(),
        format!("{:.4}", r.pruned_accuracy),
    ]);
    t.row_owned(vec![
        "accuracy drop".into(),
        format!("{:.4}", r.accuracy_drop),
    ]);
    t.row_owned(vec!["BCM sparsity".into(), format!("{:.3}", r.sparsity)]);
    t.row_owned(vec![
        "param reduction %".into(),
        format!("{:.2}", r.param_reduction_pct),
    ]);
    t.row_owned(vec!["session steps".into(), r.steps.to_string()]);
    t.row_owned(vec![
        "float bit-identical".into(),
        r.float_bit_identical.to_string(),
    ]);
    t.row_owned(vec![
        "fx bit-identical".into(),
        r.fx_bit_identical.to_string(),
    ]);
    t.print();
}

/// Renders the JSON artifact (hand-rolled: the workspace is std-only).
pub fn to_json(r: &SeqResult) -> String {
    format!(
        "[\n  {{\"config\": \"delayed_recall_lstm\", \"baseline_accuracy\": {:.4}, \
         \"pruned_accuracy\": {:.4}, \"accuracy_drop\": {:.4}, \"sparsity\": {:.4}, \
         \"param_reduction_pct\": {:.2}}},\n  {{\"config\": \"streaming_parity\", \
         \"steps\": {}, \"float_bit_identical\": {}, \"fx_bit_identical\": {}}}\n]",
        r.baseline_accuracy,
        r.pruned_accuracy,
        r.accuracy_drop,
        r.sparsity,
        r.param_reduction_pct,
        r.steps,
        r.float_bit_identical,
        r.fx_bit_identical,
    )
}

/// Writes `results/BENCH_seq.json` (anchored at the workspace root).
pub fn write_json(r: &SeqResult) -> std::io::Result<std::path::PathBuf> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_seq.json");
    std::fs::write(&path, to_json(r) + "\n")?;
    Ok(path)
}

/// Smoke-checks a quick run. Returns the failures.
pub fn smoke_failures(r: &SeqResult) -> Vec<String> {
    let mut fails = Vec::new();
    // 3 classes → chance = 1/3; even the quick budget must clear it.
    if r.baseline_accuracy <= 0.34 {
        fails.push(format!(
            "delayed_recall_lstm: baseline accuracy {:.3} is at chance",
            r.baseline_accuracy
        ));
    }
    if r.sparsity <= 0.0 {
        fails.push("delayed_recall_lstm: Algorithm 1 pruned no blocks".into());
    }
    if r.pruned_accuracy < r.baseline_accuracy * 0.5 {
        fails.push(format!(
            "delayed_recall_lstm: pruned accuracy {:.3} fell below the floor",
            r.pruned_accuracy
        ));
    }
    if r.steps == 0 {
        fails.push("streaming_parity: no steps served".into());
    }
    if r.float_bit_identical != 1 {
        fails.push("streaming_parity: float session diverged from the offline forward".into());
    }
    if r.fx_bit_identical != 1 {
        fails.push("streaming_parity: fx session diverged from the offline fold".into());
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> SeqResult {
        SeqResult {
            baseline_accuracy: 0.78,
            pruned_accuracy: 0.66,
            accuracy_drop: 0.12,
            sparsity: 0.2,
            param_reduction_pct: 93.5,
            steps: 8,
            float_bit_identical: 1,
            fx_bit_identical: 1,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = to_json(&good());
        assert!(j.contains("\"config\": \"delayed_recall_lstm\""));
        assert!(j.contains("\"baseline_accuracy\": 0.7800"));
        assert!(j.contains("\"config\": \"streaming_parity\""));
        assert!(j.contains("\"float_bit_identical\": 1"));
        assert!(j.starts_with('[') && j.ends_with(']'));
        crate::json::parse(&j).expect("artifact is valid JSON");
    }

    #[test]
    fn smoke_failures_flag_bad_results() {
        assert!(smoke_failures(&good()).is_empty());
        let bad = SeqResult {
            baseline_accuracy: 0.3,
            pruned_accuracy: 0.1,
            sparsity: 0.0,
            steps: 0,
            float_bit_identical: 0,
            fx_bit_identical: 0,
            ..good()
        };
        let fails = smoke_failures(&bad);
        assert_eq!(fails.len(), 6, "{fails:?}");
    }
}
