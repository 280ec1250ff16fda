//! Property-based bit-identity contract for the vectorized fixed-point
//! batch datapath.
//!
//! The one lane kernel, `conv_forward_fx_batch_packed`, must produce
//! **exactly** the words of the one scalar oracle, `conv_forward_fx`,
//! applied to each sample. The property runs across random shapes,
//! kernel sizes, block sizes, Q-formats, pruning masks, and batch sizes:
//! empty batches, single samples, and ragged tails narrower than a SIMD
//! register. Kernels of size 1, 3 and 5 on 1..=5 maps cover `1×1`
//! fully-connected layers and the clipped border loop, including entries
//! whose whole row lies in the padding and column ranges that clip to
//! empty. Weights are synthesized directly from random i16 spectrum
//! words via `FxWeights::from_parts`, so the property covers the full
//! i16 dynamic range (including saturation paths a float-calibrated
//! quantizer would rarely reach) and stays integer-only end to end.

use hwsim::inference::{conv_forward_fx, conv_forward_fx_batch_packed, FxWeights};
use hwsim::{FxBatch, QFormat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One randomly drawn layer + batch instance.
struct Case {
    q: QFormat,
    weights: FxWeights,
    h: usize,
    w: usize,
    n: usize,
    xs: Vec<i16>,
}

/// Expands the primitive draws into a full instance: synthesized i16
/// weight spectra, a ~30% pruned liveness mask, and full-range inputs.
#[allow(clippy::too_many_arguments)]
fn build_case(
    bs_sel: usize,
    k_sel: usize,
    ob: usize,
    ib: usize,
    h: usize,
    w: usize,
    n: usize,
    frac_bits: u32,
    seed: u64,
) -> Case {
    let bs = [2usize, 4, 8, 16][bs_sel];
    let k = [1usize, 3, 5][k_sel];
    // Keep `1×1` fully-connected layers (k = 1 on a 1×1 map) as likely
    // as the spatial k = 1 variant.
    let (h, w) = if k == 1 && seed.is_multiple_of(2) {
        (1, 1)
    } else {
        (h, w)
    };
    let bins = bs / 2 + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let skip: Vec<bool> = (0..k * k * ob * ib)
        .map(|_| rng.gen_range(0u32..10) < 7)
        .collect();
    let live = skip.iter().filter(|&&s| s).count();
    let spectra_words: Vec<i16> = (0..live * bins * 2)
        .map(|_| rng.gen_range(i32::from(i16::MIN)..=i32::from(i16::MAX)) as i16)
        .collect();
    let c_in = ib * bs;
    let xs: Vec<i16> = (0..n * c_in * h * w)
        .map(|_| rng.gen_range(i32::from(i16::MIN)..=i32::from(i16::MAX)) as i16)
        .collect();
    Case {
        q: QFormat::new(frac_bits),
        weights: FxWeights::from_parts(bs, k, ob, ib, &skip, &spectra_words),
        h,
        w,
        n,
        xs,
    }
}

proptest! {
    /// The lane kernel is word-for-word identical to the scalar oracle
    /// applied to each sample, for every random
    /// shape/kernel/format/mask/batch-size.
    #[test]
    fn lane_batch_is_bit_identical_to_scalar_oracles(
        bs_sel in 0usize..4,
        k_sel in 0usize..3,
        ob in 1usize..=3,
        ib in 1usize..=3,
        h in 1usize..=5,
        w in 1usize..=5,
        n in 0usize..=11,
        frac_bits in 4u32..=14,
        seed in any::<u64>(),
    ) {
        let case = build_case(bs_sel, k_sel, ob, ib, h, w, n, frac_bits, seed);
        let (q, weights) = (case.q, &case.weights);
        let (h, w, n) = (case.h, case.w, case.n);
        let sample_in = weights.in_blocks() * weights.block_size() * h * w;
        let sample_out = weights.out_blocks() * weights.block_size() * h * w;

        let batch = FxBatch::from_flat(q, n, sample_in, case.xs.clone());
        let packed = conv_forward_fx_batch_packed(weights, &batch, h, w);
        prop_assert_eq!(packed.len(), n);
        prop_assert_eq!(packed.sample_len(), sample_out);
        prop_assert_eq!(packed.format(), q);
        let lane = packed.as_flat();

        for s in 0..n {
            let single = conv_forward_fx(q, weights, &case.xs[s * sample_in..][..sample_in], h, w);
            prop_assert_eq!(
                &lane[s * sample_out..][..sample_out],
                &single[..],
                "sample {} diverged from the scalar oracle",
                s
            );
        }
    }
}
