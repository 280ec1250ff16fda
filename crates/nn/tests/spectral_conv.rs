//! Property contract of the float conv inference datapath.
//!
//! `BcmConv2d::forward(x, false)` runs the `f32` instance of the one conv
//! schedule ("FFT → eMAC → IFFT" over the live blocks' prepared
//! half-spectra). Across random channel counts, kernels `k ∈ {1, 3, 5}`,
//! strides 1 and 2, any padding the window fits, block sizes
//! `BS ∈ {2, 4, 8, 16}`, live fractions from 0 to 1 and maps down to one
//! pixel wide, it must
//!
//! - give every sample of an `n`-wide batch (`n ∈ 1..=9`) exactly the bits
//!   of the width-1 call on that sample, and
//! - match the dense im2col forward of the same folded weights (the
//!   training forward) within `1e-5` of the output's largest magnitude.

use nn::layers::{BcmConv2d, BcmLayer, Layer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::{init, Tensor};

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
        let blocks = conv.block_count();
        let mut order: Vec<usize> = (0..blocks).collect();
        for i in (1..blocks).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let live = blocks * live_quarters / 4;
        conv.eliminate(&order[live..]);
        prop_assert_eq!(conv.live_blocks(), live);

        let x: Tensor<f32> = init::gaussian(&mut rng, &[n, ib * bs, h, w], 0.0, 1.0);
        let batch = conv.forward(&x, false);
        let dims = batch.dims().to_vec();
        let (in_len, out_len) = (x.len() / n, batch.len() / n);
        for s in 0..n {
            let mut one_dims = x.dims().to_vec();
            one_dims[0] = 1;
            let xs = x.as_slice()[s * in_len..][..in_len].to_vec();
            let single = conv.forward(&Tensor::from_vec(xs, &one_dims), false);
            let got = &batch.as_slice()[s * out_len..][..out_len];
            for (i, (a, b)) in got.iter().zip(single.as_slice()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "sample {} word {}", s, i);
            }
        }

        let dense = conv.forward(&x, true);
        prop_assert_eq!(dense.dims(), &dims[..]);
        let scale = dense.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in batch.as_slice().iter().zip(dense.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-5 * scale, "{} vs {} (scale {})", a, b, scale);
        }
    }
}
