//! Quickstart: compress a single convolution layer with RP-BCM.
//!
//! Walks the whole pipeline on one weight tensor: block-circulant
//! projection, the FFT fast path, hadaBCM parameterization, BCM-wise
//! pruning, and the skip-index buffer the accelerator consumes.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpbcm_repro::circulant::ConvBlockCirculant;
use rpbcm_repro::nn::layers::{BcmConv2d, BcmLayer};
use rpbcm_repro::rpbcm::pruning::prune_indices;
use rpbcm_repro::rpbcm::SkipIndexBuffer;
use rpbcm_repro::tensor::{init, ops, Tensor};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let bs = 8;

    // A dense conv weight [c_out=32, c_in=16, 3, 3] ...
    let dense: Tensor<f64> = init::kaiming_normal(&mut rng, &[32, 16, 3, 3]);
    println!("dense conv weight: {} parameters", dense.len());

    // ... projected onto block-circulant form: BS x fewer parameters.
    let bcm = ConvBlockCirculant::project_from_dense(&dense, bs);
    println!(
        "BCM (BS={bs}): {} parameters ({}x reduction), {} blocks",
        bcm.param_count(),
        bcm.dense_param_count() / bcm.param_count(),
        bcm.block_count()
    );

    // The FFT fast path computes exactly the dense block product.
    let grid = bcm.grid(1, 1); // the (1,1) spatial tap's channel grid
    let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
    let fast = grid.matvec(&x);
    let slow = grid.matvec_naive(&x);
    let diff = fast
        .iter()
        .zip(&slow)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("FFT path vs dense path: max |diff| = {diff:.2e}");

    // hadaBCM: every block becomes A ⊙ B during training; folding back is
    // free and exact. A 1x1 hadaBCM conv with the same channel grid
    // (16 -> 32 channels) stands in for the tap above.
    let (rb, cb) = grid.grid_dims();
    let mut hada = BcmConv2d::new_hada(&mut rng, cb * bs, rb * bs, 1, 1, 0, bs);
    println!(
        "hadaBCM grid: {} training params fold to {} inference params",
        hada.trained_param_count(),
        hada.folded_param_count()
    );

    // BCM-wise pruning: rank blocks by ℓ₂ norm, drop the weakest 50 %.
    let norms = hada.importances();
    let victims = prune_indices(&norms, 0.5);
    hada.eliminate(&victims);
    let pruned = hada.folded();
    let skip = SkipIndexBuffer::from_conv(&pruned);
    println!(
        "pruned {} of {} blocks; skip-index buffer: {} bits ({} live)",
        victims.len(),
        norms.len(),
        skip.size_bits(),
        skip.live_count()
    );

    // The pruned grid still multiplies correctly (skipped blocks are zero).
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let y = pruned.grid(0, 0).matvec(&x32);
    println!(
        "pruned-layer output norm: {:.4}",
        ops::dot(
            &y.iter().copied().collect::<Tensor<f32>>(),
            &y.iter().copied().collect::<Tensor<f32>>()
        )
        .sqrt()
    );
}
