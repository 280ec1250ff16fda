//! Cross-crate equivalence tests: every computational substitution the
//! stack makes (dense ↔ circulant ↔ FFT ↔ fixed point) must agree, and
//! the training-side layers must agree with the hardware-side functional
//! model. These are the end-to-end guarantees the per-crate unit tests
//! cannot give.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpbcm_repro::circulant::{BlockCirculant, CirculantMatrix};
use rpbcm_repro::fft::real::HalfSpectrum;
use rpbcm_repro::hwsim::fixed::{ComplexAcc, ComplexFx, QFormat};
use rpbcm_repro::hwsim::fxfft::FxFftPe;
use rpbcm_repro::hwsim::pe::{emac_block, narrow_accumulator};
use rpbcm_repro::tensor::{init, Tensor};

/// Dense matvec == FFT matvec == "FFT → eMAC → IFFT" by hand, on the same
/// block-circulant layer.
#[test]
fn dense_fft_and_manual_pipeline_agree() {
    let mut rng = StdRng::seed_from_u64(1);
    let bs = 8;
    let grid = BlockCirculant::from_blocks(
        bs,
        2,
        2,
        (0..4)
            .map(|_| {
                CirculantMatrix::new(init::gaussian::<f64>(&mut rng, &[bs], 0.0, 1.0).into_vec())
            })
            .collect(),
    );
    let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin()).collect();

    let dense = grid
        .to_dense()
        .matmul(&Tensor::from_vec(x.clone(), &[16, 1]));
    let fast = grid.matvec(&x);

    // Manual pipeline: FFT inputs once, eMAC-accumulate per output block,
    // IFFT once per output block — the accelerator's computation order.
    let mut manual = Vec::new();
    for bi in 0..2 {
        let mut acc = HalfSpectrum::zeros(bs);
        for bj in 0..2 {
            let w_spec = HalfSpectrum::forward(grid.block(bi, bj).defining_vector());
            let x_spec = HalfSpectrum::forward(&x[bj * bs..(bj + 1) * bs]);
            acc.emac_accumulate(&w_spec, &x_spec);
        }
        manual.extend(acc.inverse());
    }

    for i in 0..16 {
        assert!((fast[i] - dense.as_slice()[i]).abs() < 1e-9);
        assert!((manual[i] - dense.as_slice()[i]).abs() < 1e-9);
    }
}

/// The fixed-point accelerator datapath (FxFFT → fixed eMAC → FxIFFT)
/// approximates the float circulant product within quantization error.
#[test]
fn fixed_point_datapath_tracks_float_reference() {
    let mut rng = StdRng::seed_from_u64(2);
    let bs = 8;
    let q = QFormat::q8();
    let w: Vec<f64> = init::gaussian::<f64>(&mut rng, &[bs], 0.0, 0.4).into_vec();
    let x: Vec<f64> = init::gaussian::<f64>(&mut rng, &[bs], 0.0, 0.8).into_vec();
    let float = CirculantMatrix::new(w.clone()).matvec(&x);

    // Hardware path: weight spectrum precomputed offline (float FFT then
    // quantized — Fig. 4b), input through the fixed-point FFT PE.
    let pe = FxFftPe::new(bs, q);
    let w_spec_float = HalfSpectrum::forward(&w);
    let w_bins: Vec<ComplexFx> = w_spec_float
        .bins()
        .iter()
        .map(|c| ComplexFx::from_f64(q, c.re, c.im))
        .collect();
    let x_fx: Vec<i16> = x.iter().map(|&v| q.from_f64(v)).collect();
    let x_full = pe.forward_real(&x_fx);
    let x_bins: Vec<ComplexFx> = x_full[..=bs / 2].to_vec();

    let mut acc = vec![vec![ComplexAcc::zero(); bs / 2 + 1]];
    emac_block(q, bs, &w_bins, &[x_bins], &mut acc);
    let y_half = narrow_accumulator(q, &acc[0]);

    // Expand conjugate-symmetric spectrum and run the fixed-point IFFT.
    let mut y_full = vec![ComplexFx::new(0, 0); bs];
    y_full[..=bs / 2].copy_from_slice(&y_half);
    for k in 1..bs / 2 {
        y_full[bs - k] = y_half[k].conj();
    }
    pe.inverse(&mut y_full);

    for (fx, &want) in y_full.iter().zip(&float) {
        let (re, im) = fx.to_f64(q);
        assert!(
            (re - want).abs() < 0.1,
            "fixed {re} vs float {want} (err {})",
            (re - want).abs()
        );
        assert!(im.abs() < 0.1);
    }
}

/// nn's hadaBCM conv ranks each block by the ℓ₂ norm of its folded
/// defining vector, the importance Algorithm 1 line 4 names.
#[test]
fn nn_layer_and_core_hadabcm_agree() {
    use rpbcm_repro::nn::layers::{BcmConv2d, BcmLayer};
    let mut rng = StdRng::seed_from_u64(3);
    let layer = BcmConv2d::new_hada(&mut rng, 8, 8, 1, 1, 0, 8);
    let folded = layer.folded();
    let imp = layer.importances();
    // Reconstruct the same importance from the folded block.
    for (grid, &want) in folded.iter().zip(&imp) {
        let block = grid.block(0, 0);
        assert!((f64::from(block.vector_norm()) - want).abs() < 1e-5);
    }
}

/// A 1x1 BCM convolution layer equals the BlockCirculant matvec applied
/// per pixel — the training stack and the algebra stack compute the same
/// function.
#[test]
fn bcm_conv_layer_matches_block_circulant_matvec() {
    use rpbcm_repro::nn::layers::{BcmConv2d, BcmLayer, Layer};
    let mut rng = StdRng::seed_from_u64(4);
    let bs = 4;
    let mut layer = BcmConv2d::new(&mut rng, 8, 8, 1, 1, 0, bs);
    let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 8, 2, 2], 0.0, 1.0);
    let y = layer.forward(&x, false);

    let folded = layer.folded();
    let grid = folded.grid(0, 0);
    for py in 0..2 {
        for px in 0..2 {
            let xin: Vec<f32> = (0..8).map(|c| x.at(&[0, c, py, px])).collect();
            let want = grid.matvec_naive(&xin);
            for c in 0..8 {
                assert!(
                    (y.at(&[0, c, py, px]) - want[c]).abs() < 1e-4,
                    "pixel ({py},{px}) channel {c}"
                );
            }
        }
    }
}
