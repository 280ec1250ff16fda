//! Telemetry must never change arithmetic: enabling the probes leaves the
//! hwsim fixed-point datapath bit-identical.
//!
//! Lives in its own integration-test binary (its own process) because it
//! flips the process-wide telemetry override, which must not race probes
//! exercised by other tests.

use std::sync::Mutex;

use proptest::prelude::*;
use rpbcm_repro::circulant::{BlockCirculant, CirculantMatrix, ConvBlockCirculant};
use rpbcm_repro::hwsim::dataflow::{DataflowConfig, LayerShape};
use rpbcm_repro::hwsim::fixed::{FxBatch, QFormat};
use rpbcm_repro::hwsim::inference::{conv_forward_fx, conv_forward_fx_batch_packed, FxWeights};
use rpbcm_repro::nn::data::SyntheticVision;
use rpbcm_repro::nn::models::vgg_tiny;
use rpbcm_repro::nn::{ConvMode, TrainConfig, Trainer};

/// Serializes the tests below: each flips the process-wide override, and
/// the counter test reads global `hwsim.fx.*` counters before and after
/// its own calls, so another test's switch or fx calls must not land in
/// between.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// A full instrumented training run (per-layer latency histograms, epoch
/// gauges, gradient-norm/update-ratio gauges) leaves every weight — and
/// therefore the final accuracy — bit-identical to an uninstrumented run.
#[test]
fn training_is_bit_identical_with_telemetry() {
    let _serial = serial();
    let data = SyntheticVision::cifar10_like(8, 4, 11);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..TrainConfig::default()
    };
    let run = |capture: bool| {
        telemetry::set_enabled(capture);
        let mut net = vgg_tiny(ConvMode::Bcm { block_size: 8 }, data.num_classes(), 3);
        let mut trainer = Trainer::new(cfg);
        let acc = trainer.fit(&mut net, &data);
        telemetry::set_enabled(false);
        let weight_bits: Vec<u32> = net
            .params()
            .iter()
            .flat_map(|p| p.value.as_slice().iter().map(|w| w.to_bits()))
            .collect();
        (acc.to_bits(), weight_bits)
    };
    let quiet = run(false);
    let probed = run(true);
    assert!(!quiet.1.is_empty(), "params() surfaces trainable weights");
    assert_eq!(quiet, probed);
}

/// A fully-connected layer (`k = 1` on a `1×1` map) runs the one lane
/// kernel as one row of one pixel, and its counters still add up
/// exactly: per sample one input FFT per input block, one IFFT per
/// output block and one eMAC per live block, for the lane batch and the
/// scalar oracle alike.
#[test]
fn fx_fc_counters_count_live_blocks_per_sample() {
    let _serial = serial();
    let q = QFormat::q8();
    let vals: Vec<f32> = (0..8).map(|i| 0.05 * i as f32 - 0.2).collect();
    // 3 × 4 grid of BS-8 blocks, every other block pruned: 6 live.
    let weights = FxWeights::from_folded(q, &conv_from_values(8, 3, 4, 1, &vals));
    let (live, n) = (weights.live_count() as u64, 5usize);
    assert_eq!(live, 6);
    let xs: Vec<i16> = (0..n * 32).map(|i| (i as i16 % 97) - 48).collect();
    let counters = || {
        let snap = telemetry::snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        [
            get("hwsim.fx.input_ffts"),
            get("hwsim.fx.output_iffts"),
            get("hwsim.fx.emac_blocks"),
        ]
    };
    let delta = |before: [u64; 3], after: [u64; 3]| -> [u64; 3] {
        std::array::from_fn(|i| after[i] - before[i])
    };
    let want = [4 * n as u64, 3 * n as u64, live * n as u64];

    telemetry::set_enabled(true);
    let c0 = counters();
    let lane =
        conv_forward_fx_batch_packed(&weights, &FxBatch::from_flat(q, n, 32, xs.clone()), 1, 1);
    let c1 = counters();
    let scalar: Vec<i16> = xs
        .chunks_exact(32)
        .flat_map(|x| conv_forward_fx(q, &weights, x, 1, 1))
        .collect();
    let c2 = counters();
    telemetry::set_enabled(false);

    assert_eq!(lane.as_flat(), &scalar[..]);
    assert_eq!(delta(c0, c1), want, "lane batch counters");
    assert_eq!(delta(c1, c2), want, "scalar oracle counters");
}

/// Random block-circulant conv weight from a proptest value vector, with
/// every other block pruned so the skip path is exercised too.
fn conv_from_values(
    bs: usize,
    ob: usize,
    ib: usize,
    k: usize,
    vals: &[f32],
) -> ConvBlockCirculant<f32> {
    let mut it = vals.iter().copied().cycle();
    let grids = (0..k * k)
        .map(|_| {
            let blocks = (0..ob * ib)
                .map(|b| {
                    if b % 2 == 1 {
                        CirculantMatrix::zeros(bs)
                    } else {
                        CirculantMatrix::new((0..bs).map(|_| it.next().expect("cycle")).collect())
                    }
                })
                .collect();
            BlockCirculant::from_blocks(bs, ob, ib, blocks)
        })
        .collect();
    ConvBlockCirculant::from_grids(k, k, grids)
}

proptest! {
    /// The fixed-point conv forward returns the same words with telemetry
    /// captured and with it disabled — probes observe, never perturb.
    #[test]
    fn fx_conv_is_bit_identical_with_telemetry(
        vals in proptest::collection::vec(-0.5_f32..0.5, 16),
        xs in proptest::collection::vec(-64_i16..64, 2 * 8 * 5 * 5),
    ) {
        let _serial = serial();
        let q = QFormat::q8();
        let conv = conv_from_values(8, 2, 2, 3, &vals);
        let w = FxWeights::from_folded(q, &conv);

        telemetry::set_enabled(false);
        let quiet = conv_forward_fx(q, &w, &xs, 5, 5);

        telemetry::set_enabled(true);
        let probed = conv_forward_fx(q, &w, &xs, 5, 5);
        telemetry::set_enabled(false);

        prop_assert_eq!(quiet, probed);
    }

    /// The analytic dataflow model reports the same cycle breakdown either
    /// way: its telemetry records the breakdown, it never feeds back.
    #[test]
    fn dataflow_cycles_identical_with_telemetry(alpha in 0.0_f64..1.0) {
        let _serial = serial();
        let cfg = DataflowConfig::pynq_z2();
        let layer = LayerShape::conv(128, 128, 28, 28, 3, 8);

        telemetry::set_enabled(false);
        let quiet = cfg.simulate(&layer, alpha);

        telemetry::set_enabled(true);
        let probed = cfg.simulate(&layer, alpha);
        telemetry::set_enabled(false);

        prop_assert_eq!(quiet, probed);
    }
}
