//! Property contract of the float BCM inference datapath.
//!
//! Every float BCM eval forward runs the `f32` instance of the one conv
//! schedule ("FFT → eMAC → IFFT" over the live blocks' prepared
//! half-spectra): `BcmConv2d` as a conv, and the 1-tap kinds
//! (`BcmLinear`, the `BcmLstm`/`BcmGru` gates and the `BcmAttention`
//! projections) as a `1 × 1` conv of one pixel per sample. Across every
//! kind, random channel counts, block sizes `BS ∈ {2, 4, 8, 16}` and live
//! fractions from 0 to 1 — for convs also kernels `k ∈ {1, 3, 5}`, strides
//! 1 and 2, any padding the window fits and maps down to one pixel wide —
//! it must
//!
//! - give every sample of an `n`-wide batch (`n ∈ 1..=9`) exactly the bits
//!   of the width-1 call on that sample, at the default worker count and
//!   under `serial_scope`, and
//! - match the dense training forward of the same folded weights within
//!   `1e-5` of the output's largest magnitude.

use nn::layers::{BcmAttention, BcmConv2d, BcmGru, BcmLayer, BcmLinear, BcmLstm, Layer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::{init, parallel, Tensor};

/// Keeps `live_quarters` quarters of `layer`'s blocks, chosen at random.
fn prune(layer: &mut impl BcmLayer, live_quarters: usize, rng: &mut StdRng) {
    let blocks = layer.block_count();
    let mut order: Vec<usize> = (0..blocks).collect();
    for i in (1..blocks).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let live = blocks * live_quarters / 4;
    layer.eliminate(&order[live..]);
    assert_eq!(layer.live_blocks(), live);
}

/// The contract above for one layer on an `n`-sample batch `x`.
fn check(layer: &mut impl Layer, x: &Tensor<f32>) {
    let n = x.dims()[0];
    let batch = layer.forward(x, false);
    let serial = parallel::serial_scope(|| layer.forward(x, false));
    let (in_len, out_len) = (x.len() / n, batch.len() / n);
    let mut one_dims = x.dims().to_vec();
    one_dims[0] = 1;
    for s in 0..n {
        let xs = x.as_slice()[s * in_len..][..in_len].to_vec();
        let single = layer.forward(&Tensor::from_vec(xs, &one_dims), false);
        for (run, y) in [("default", &batch), ("serial", &serial)] {
            let got = &y.as_slice()[s * out_len..][..out_len];
            for (i, (a, b)) in got.iter().zip(single.as_slice()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} sample {} word {}", run, s, i);
            }
        }
    }

    let dense = layer.forward(x, true);
    prop_assert_eq!(dense.dims(), batch.dims());
    let scale = dense.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (a, b) in batch.as_slice().iter().zip(dense.as_slice()) {
        prop_assert!(
            (a - b).abs() <= 1e-5 * scale,
            "{} vs {} (scale {})",
            a,
            b,
            scale
        );
    }
}

proptest! {
    #[test]
    fn eval_forward_is_width_independent_and_tracks_dense(
        bs_sel in 0usize..4,
        k_sel in 0usize..3,
        ib in 1usize..=3,
        ob in 1usize..=3,
        stride in 1usize..=2,
        extra_pad in 0usize..=2,
        h in 1usize..=6,
        w in 1usize..=6,
        live_quarters in 0usize..=4,
        n in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let bs = [2usize, 4, 8, 16][bs_sel];
        let k = [1usize, 3, 5][k_sel];
        // The smallest padding the window fits in, plus any extra.
        let pad = k.saturating_sub(h.min(w)).div_ceil(2) + extra_pad;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = BcmConv2d::new(&mut rng, ib * bs, ob * bs, k, stride, pad, bs);
        prune(&mut conv, live_quarters, &mut rng);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[n, ib * bs, h, w], 0.0, 1.0);
        check(&mut conv, &x);
    }

    #[test]
    fn one_tap_eval_forward_is_width_independent_and_tracks_dense(
        kind in 0usize..4,
        bs_sel in 0usize..4,
        ib in 1usize..=3,
        ob in 1usize..=3,
        t_len in 1usize..=4,
        live_quarters in 0usize..=4,
        n in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let bs = [2usize, 4, 8, 16][bs_sel];
        let (f, hd) = (ib * bs, ob * bs);
        let mut rng = StdRng::seed_from_u64(seed);
        let seq: Tensor<f32> = init::gaussian(&mut rng, &[n, f, t_len, 1], 0.0, 1.0);
        match kind {
            0 => {
                let mut l = BcmLinear::new(&mut rng, f, hd, bs);
                prune(&mut l, live_quarters, &mut rng);
                let x: Tensor<f32> = init::gaussian(&mut rng, &[n, f], 0.0, 1.0);
                check(&mut l, &x);
            }
            1 => {
                let mut l = BcmLstm::new(&mut rng, f, hd, bs);
                prune(&mut l, live_quarters, &mut rng);
                check(&mut l, &seq);
            }
            2 => {
                let mut l = BcmGru::new(&mut rng, f, hd, bs);
                prune(&mut l, live_quarters, &mut rng);
                check(&mut l, &seq);
            }
            _ => {
                let mut l = BcmAttention::new(&mut rng, f, bs);
                prune(&mut l, live_quarters, &mut rng);
                check(&mut l, &seq);
            }
        }
    }
}
