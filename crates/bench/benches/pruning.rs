//! BCM-wise pruning machinery: norm ranking (Algorithm 1 lines 8–14) and
//! the hadaBCM fold/importance computation it ranks, on a 256→256, 1x1,
//! BS 8 hadaBCM layer (1024 blocks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::layers::{BcmConv2d, BcmLayer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpbcm::pruning::{prune_indices, prune_threshold};
use std::hint::black_box;

fn bench_prune_indices(c: &mut Criterion) {
    let mut group = c.benchmark_group("prune_indices");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(0);
    for &n in &[1_000usize, 10_000, 100_000] {
        let norms: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(prune_indices(black_box(&norms), 0.5)))
        });
    }
    group.finish();
}

fn bench_threshold(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let norms: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
    c.bench_function("prune_threshold_10k", |b| {
        b.iter(|| black_box(prune_threshold(black_box(&norms), 0.7)))
    });
}

fn bench_grid_importances(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let layer = BcmConv2d::new_hada(&mut rng, 256, 256, 1, 1, 0, 8);
    c.bench_function("hadabcm_importances_1024_blocks", |b| {
        b.iter(|| black_box(layer.importances()))
    });
    c.bench_function("hadabcm_fold_1024_blocks", |b| {
        b.iter(|| black_box(layer.folded()))
    });
}

criterion_group!(
    benches,
    bench_prune_indices,
    bench_threshold,
    bench_grid_importances
);
criterion_main!(benches);
