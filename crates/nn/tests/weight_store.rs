//! Block-circulant weight-store contracts, one network per BCM layer kind.
//!
//! - **Replica sync:** a data-parallel replica that has already trained
//!   (so its layers hold cached expansions) must, after
//!   `Network::sync_params_from`, forward and backward exactly like a fresh
//!   clone of the master.
//! - **Golden training fingerprint:** a few seeded forward/backward/step
//!   rounds with an Algorithm 1 elimination midway, hashed bit for bit
//!   (every round's output and input gradient, the trained network's
//!   checkpoint bytes, and the final training-mode output). The constants
//!   pin the training arithmetic of every BCM layer kind, so a refactor of
//!   the weight store that changes a single bit fails here.
//! - **Golden eval fingerprint:** the trained network's inference-mode
//!   output, pinned apart because a BCM conv infers on the spectral
//!   datapath and trains on the dense im2col one.
//!
//!   Both were recorded on x86_64 Linux; the recurrent and attention cells
//!   call `exp`/`tanh`, whose last bit may differ on another libm.
//! - **Live-only storage:** a pruned stack stores its live blocks' words
//!   and nothing for pruned ones.

use nn::layers::{checkpoint, BcmAttention, BcmConv2d, BcmGru, BcmLinear, BcmLstm, Layer};
use nn::models::vgg_tiny;
use nn::optim::SgdUpdate;
use nn::{CheckpointMeta, ConvMode, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::fnv::Fnv1a;
use tensor::{init, Tensor};

const UPDATE: SgdUpdate = SgdUpdate {
    lr: 0.05,
    momentum: 0.9,
    weight_decay: 1e-4,
};

/// A one-layer network of the given BCM kind and a matching input batch.
fn build(kind: &str, seed: u64) -> (Network, Tensor<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (layer, dims): (Box<dyn Layer>, Vec<usize>) = match kind {
        "bcmconv" => (
            Box::new(BcmConv2d::new(&mut rng, 8, 8, 3, 1, 1, 4)),
            vec![2, 8, 5, 5],
        ),
        "hadabcmconv" => (
            Box::new(BcmConv2d::new_hada(&mut rng, 8, 8, 3, 1, 1, 4)),
            vec![2, 8, 5, 5],
        ),
        "bcmlinear" => (Box::new(BcmLinear::new(&mut rng, 16, 8, 4)), vec![3, 16]),
        "bcmlstm" => (Box::new(BcmLstm::new(&mut rng, 8, 8, 4)), vec![2, 8, 5, 1]),
        "bcmgru" => (Box::new(BcmGru::new(&mut rng, 8, 8, 4)), vec![2, 8, 5, 1]),
        "bcmattn" => (
            Box::new(BcmAttention::new(&mut rng, 8, 4)),
            vec![2, 8, 5, 1],
        ),
        other => panic!("unknown layer kind {other}"),
    };
    let x = init::gaussian(&mut rng, &dims, 0.0, 1.0);
    (Network::new(kind, vec![layer]), x)
}

/// A deterministic upstream gradient shaped like `out`.
fn upstream(out: &Tensor<f32>, seed: u64) -> Tensor<f32> {
    init::gaussian(&mut StdRng::seed_from_u64(seed), out.dims(), 0.0, 1.0)
}

/// One forward/backward round; returns the output and the input gradient.
fn train_round(net: &mut Network, x: &Tensor<f32>, seed: u64) -> (Tensor<f32>, Tensor<f32>) {
    let out = net.forward(x, true);
    let dx = net.backward(&upstream(&out, seed));
    (out, dx)
}

fn assert_bits_eq(got: &Tensor<f32>, want: &Tensor<f32>, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// Replica: train once (caches built), master steps, sync, then the replica
/// must match a fresh clone of the master bit for bit — outputs in both
/// modes and every parameter gradient.
fn check_replica_sync(kind: &str) {
    let (mut master, x) = build(kind, 11);
    let mut replica = master.clone();
    let _ = train_round(&mut replica, &x, 12);
    let _ = train_round(&mut master, &x, 13);
    master.step(&UPDATE);
    replica.sync_params_from(&master);
    let mut fresh = master.clone();
    let (got, _) = train_round(&mut replica, &x, 14);
    let (want, _) = train_round(&mut fresh, &x, 14);
    assert_bits_eq(&got, &want, &format!("{kind} train forward"));
    for (pi, (a, b)) in replica.params().iter().zip(fresh.params()).enumerate() {
        assert_bits_eq(&a.grad, &b.grad, &format!("{kind} param {pi} grad"));
    }
    let got = replica.forward(&x, false);
    let want = fresh.forward(&x, false);
    assert_bits_eq(&got, &want, &format!("{kind} inference forward"));
}

#[test]
fn bcmconv_replica_matches_fresh_clone_after_sync() {
    check_replica_sync("bcmconv");
}

#[test]
fn hadabcmconv_replica_matches_fresh_clone_after_sync() {
    check_replica_sync("hadabcmconv");
}

#[test]
fn bcmlinear_replica_matches_fresh_clone_after_sync() {
    check_replica_sync("bcmlinear");
}

#[test]
fn bcmlstm_replica_matches_fresh_clone_after_sync() {
    check_replica_sync("bcmlstm");
}

#[test]
fn bcmgru_replica_matches_fresh_clone_after_sync() {
    check_replica_sync("bcmgru");
}

#[test]
fn bcmattn_replica_matches_fresh_clone_after_sync() {
    check_replica_sync("bcmattn");
}

/// Four seeded training rounds, a quarter of the blocks eliminated after
/// the second, then a hash of every round's output and input gradient,
/// the checkpoint bytes of the trained network, and the final training
/// forward. The checkpoint holds the (folded) weights and biases without
/// the in-memory storage layout, so the hash pins the arithmetic, not how
/// the weight store arranges its words. Returns the trained network, its
/// input and the hash.
fn trained(kind: &str) -> (Network, Tensor<f32>, u64) {
    let (mut net, x) = build(kind, 21);
    let meta = CheckpointMeta {
        input_dims: x.dims()[1..].to_vec(),
        frac_bits: 8,
    };
    let mut h = Fnv1a::new();
    for round in 0..4u64 {
        if round == 2 {
            let blocks = net.bcm_block_count();
            let victims: Vec<usize> = (0..blocks).step_by(4).collect();
            net.bcm_eliminate(&victims);
        }
        let (out, dx) = train_round(&mut net, &x, 30 + round);
        feed(&mut h, &out);
        feed(&mut h, &dx);
        net.step(&UPDATE);
    }
    h.write(&checkpoint::to_bytes(&net, &meta).expect("every BCM kind checkpoints"));
    feed(&mut h, &net.forward(&x, true));
    (net, x, h.finish())
}

fn feed(h: &mut Fnv1a, t: &Tensor<f32>) {
    for v in t.as_slice() {
        h.write_u32(v.to_bits());
    }
}

/// The hash of the trained network's inference forward. A BCM conv's
/// inference forward runs the spectral datapath and its training forward
/// the dense im2col, so this is pinned apart from the training arithmetic.
fn eval_fingerprint(kind: &str) -> u64 {
    let (mut net, x, _) = trained(kind);
    let mut h = Fnv1a::new();
    feed(&mut h, &net.forward(&x, false));
    h.finish()
}

fn assert_pinned(golden: &[(&str, u64)], fingerprint: impl Fn(&str) -> u64) {
    let got: Vec<(&str, u64)> = golden
        .iter()
        .map(|&(kind, _)| (kind, fingerprint(kind)))
        .collect();
    for (&(kind, want), &(_, fp)) in golden.iter().zip(&got) {
        assert_eq!(fp, want, "{kind}: fingerprint {fp:#018x}; all: {got:x?}");
    }
}

#[test]
fn training_fingerprint_is_pinned_for_every_bcm_layer_kind() {
    assert_pinned(
        &[
            ("bcmconv", 0x9afc_1e9c_2058_922f),
            ("hadabcmconv", 0x8372_4500_27c4_edb6),
            ("bcmlinear", 0x9085_daf8_32cc_ea06),
            ("bcmlstm", 0x29e9_3e19_3388_5b53),
            ("bcmgru", 0xa60f_91a8_2b70_4706),
            ("bcmattn", 0xf335_a084_5bdf_555c),
        ],
        |kind| trained(kind).2,
    );
}

#[test]
fn eval_fingerprint_is_pinned_for_every_bcm_layer_kind() {
    assert_pinned(
        &[
            ("bcmconv", 0x23fa_6ef5_ef23_7cfd),
            ("hadabcmconv", 0x55d1_40b0_bba1_dfcd),
            ("bcmlinear", 0x26ad_4300_e4c3_93d2),
            ("bcmlstm", 0x070e_97fc_7e86_a972),
            ("bcmgru", 0xdd60_3e42_6af7_a201),
            ("bcmattn", 0x15aa_9a3d_8f54_5294),
        ],
        eval_fingerprint,
    );
}

/// A `vgg_tiny` with the least important half of its blocks eliminated,
/// as the float serving benchmark builds it.
fn half_pruned_vgg_tiny(mode: ConvMode) -> Network {
    let mut net = vgg_tiny(mode, 10, 3);
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    net.bcm_eliminate(&order[..importances.len() / 2]);
    net
}

#[test]
fn pruned_stacks_hold_weight_state_for_live_blocks_only() {
    for mode in [
        ConvMode::Bcm { block_size: 8 },
        ConvMode::HadaBcm { block_size: 8 },
    ] {
        let net = half_pruned_vgg_tiny(mode);
        assert!(net.bcm_sparsity() >= 0.5, "{mode:?}");
        let mut bcm_layers = 0;
        for layer in net.layers() {
            let [bcm] = layer.bcm_layers()[..] else {
                continue;
            };
            bcm_layers += 1;
            let factors = layer.params();
            let live = bcm.skip_index().iter().filter(|&&l| l).count();
            assert_eq!(live, bcm.live_blocks());
            // Value, gradient and momentum are each `p.len()` words.
            let state: usize = factors.iter().map(|p| 3 * p.len()).sum();
            let bound = 3 * bcm.block_size() * live * factors.len();
            assert!(state <= bound, "{}: {state} words > {bound}", layer.name());
        }
        assert_eq!(bcm_layers, 6, "{mode:?}");
        let stored: usize = net.params().iter().map(|p| p.len()).sum();
        assert_eq!(stored, net.param_count(), "{mode:?}");
    }
}
