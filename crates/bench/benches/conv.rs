//! Convolution-layer forward passes: dense vs BCM vs hadaBCM, and the
//! ablation of the real-FFT half-spectrum eMAC vs a full-spectrum eMAC
//! (the `BS/2 + 1` saving of paper §IV-B).

use criterion::{criterion_group, criterion_main, Criterion};
use fft::real::HalfSpectrum;
use fft::{Complex, Fft};
use nn::layers::{BcmConv2d, Conv2d, Layer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{init, Tensor};

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_forward_32x32x8x8");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(0);
    let x: Tensor<f32> = init::gaussian(&mut rng, &[4, 32, 8, 8], 0.0, 1.0);
    let mut dense = Conv2d::new(&mut rng, 32, 32, 3, 1, 1);
    let mut bcm = BcmConv2d::new(&mut rng, 32, 32, 3, 1, 1, 8);
    let mut hada = BcmConv2d::new_hada(&mut rng, 32, 32, 3, 1, 1, 8);
    group.bench_function("dense", |b| {
        b.iter(|| black_box(dense.forward(black_box(&x), true)))
    });
    group.bench_function("bcm_bs8", |b| {
        b.iter(|| black_box(bcm.forward(black_box(&x), true)))
    });
    group.bench_function("hadabcm_bs8", |b| {
        b.iter(|| black_box(hada.forward(black_box(&x), true)))
    });
    group.finish();
}

/// Ablation: eMAC over the conjugate-symmetric half spectrum (BS/2+1 bins)
/// vs the full BS-bin spectrum.
fn bench_emac_symmetry_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("emac_half_vs_full_bs32");
    group.sample_size(30);
    let n = 32;
    let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
    let hw = HalfSpectrum::forward(&w);
    let hx = HalfSpectrum::forward(&x);
    let plan = Fft::<f64>::new(n);
    let fw = plan.forward_real(&w);
    let fx = plan.forward_real(&x);
    group.bench_function("half_spectrum", |b| {
        b.iter(|| black_box(hx.emac(black_box(&hw))))
    });
    group.bench_function("full_spectrum", |b| {
        b.iter(|| {
            let out: Vec<Complex<f64>> = fx.iter().zip(&fw).map(|(&a, &b)| a * b).collect();
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_conv_forward, bench_emac_symmetry_ablation);
criterion_main!(benches);
