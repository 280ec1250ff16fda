//! Batch normalization over NCHW feature maps.

use crate::layers::{Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use tensor::Tensor;

const EPS: f32 = 1e-5;

/// 2-d batch normalization with running statistics and learnable affine
/// parameters.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    /// Kept by a training forward: normalized activations, per-channel
    /// batch std, input dims and batch statistics.
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x_hat: Tensor<f32>,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
    /// Per-channel statistics of the batch this cache was built from. The
    /// data-parallel trainer reads these per shard to pool a full-batch
    /// running-statistics update on the master network.
    mean: Vec<f32>,
    var: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be non-zero");
        BatchNorm2d {
            name: format!("bn{channels}"),
            channels,
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            cache: None,
        }
    }

    /// Rebuilds a batch-norm layer from checkpointed inference state.
    /// `momentum` keeps its default — deployed checkpoints carry no
    /// training hyper-parameters.
    pub(crate) fn from_parts(
        gamma: Vec<f32>,
        beta: Vec<f32>,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
    ) -> Self {
        let channels = gamma.len();
        assert!(channels > 0, "channels must be non-zero");
        assert!(
            beta.len() == channels
                && running_mean.len() == channels
                && running_var.len() == channels,
            "batch-norm vector lengths"
        );
        BatchNorm2d {
            name: format!("bn{channels}"),
            channels,
            gamma: Param::new(Tensor::from_vec(gamma, &[channels])),
            beta: Param::new(Tensor::from_vec(beta, &[channels])),
            running_mean,
            running_var,
            momentum: 0.1,
            cache: None,
        }
    }

    fn stats(&self, x: &Tensor<f32>, train: bool) -> (Vec<f32>, Vec<f32>) {
        let dims = x.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if !train {
            return (self.running_mean.clone(), self.running_var.clone());
        }
        let count = (n * h * w) as f32;
        let xs = x.as_slice();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                mean[ci] += xs[base..base + h * w].iter().sum::<f32>();
            }
        }
        for m in &mut mean {
            *m /= count;
        }
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                var[ci] += xs[base..base + h * w]
                    .iter()
                    .map(|&v| (v - mean[ci]).powi(2))
                    .sum::<f32>();
            }
        }
        for v in &mut var {
            *v /= count;
        }
        (mean, var)
    }

    /// The per-channel batch statistics `(mean, var, count)` of the most
    /// recent *training* forward, where `count = n·h·w` is the number of
    /// samples behind each channel statistic. `None` before any forward or
    /// after an eval forward. The data-parallel trainer pools these across
    /// shards (count-weighted) into one master running-stats update.
    pub fn batch_stats(&self) -> Option<(&[f32], &[f32], usize)> {
        let cache = self.cache.as_ref()?;
        let count = cache.dims[0] * cache.dims[2] * cache.dims[3];
        Some((&cache.mean, &cache.var, count))
    }

    /// Applies one running-statistics momentum update from externally
    /// computed batch statistics:
    /// `running ← (1 − momentum)·running + momentum·batch`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not `channels` long.
    pub fn update_running_stats(&mut self, mean: &[f32], var: &[f32]) {
        assert_eq!(mean.len(), self.channels, "mean length");
        assert_eq!(var.len(), self.channels, "var length");
        for ci in 0..self.channels {
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
        }
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "batch norm expects NCHW");
        assert_eq!(dims[1], self.channels, "channel mismatch");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (mean, var) = self.stats(x, train);
        if train {
            self.update_running_stats(&mean, &var);
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let mut x_hat = train.then(|| Tensor::zeros(dims));
        let mut out = Tensor::zeros(dims);
        let xs = x.as_slice();
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        {
            let mut xh = x_hat.as_mut().map(Tensor::as_mut_slice);
            let os = out.as_mut_slice();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    for k in 0..h * w {
                        let normalized = (xs[base + k] - mean[ci]) * inv_std[ci];
                        if let Some(xh) = &mut xh {
                            xh[base + k] = normalized;
                        }
                        os[base + k] = g[ci] * normalized + b[ci];
                    }
                }
            }
        }
        self.cache = x_hat.map(|x_hat| Cache {
            x_hat,
            inv_std,
            dims: dims.to_vec(),
            mean,
            var,
        });
        out
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let cache = self.cache.as_ref().expect(NO_TRAINING_FORWARD);
        let dims = &cache.dims;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let count = (n * h * w) as f32;
        let gs = grad.as_slice();
        let xh = cache.x_hat.as_slice();
        let gamma = self.gamma.value.as_slice();

        // Per-channel reductions.
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gx = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for k in 0..h * w {
                    sum_g[ci] += gs[base + k];
                    sum_gx[ci] += gs[base + k] * xh[base + k];
                }
            }
        }
        for ci in 0..c {
            self.beta.grad.as_mut_slice()[ci] += sum_g[ci];
            self.gamma.grad.as_mut_slice()[ci] += sum_gx[ci];
        }

        // dx = (γ·inv_std/count)·(count·g − Σg − x̂·Σ(g·x̂))
        let mut out = Tensor::zeros(dims);
        {
            let os = out.as_mut_slice();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    let scale = gamma[ci] * cache.inv_std[ci] / count;
                    for k in 0..h * w {
                        os[base + k] =
                            scale * (count * gs[base + k] - sum_g[ci] - xh[base + k] * sum_gx[ci]);
                    }
                }
            }
        }
        out
    }

    fn step(&mut self, update: &SgdUpdate) {
        // Weight decay on BN affine parameters is conventionally disabled.
        let no_decay = SgdUpdate {
            weight_decay: 0.0,
            ..*update
        };
        self.gamma.step(&no_decay);
        self.beta.step(&no_decay);
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn bn_layers(&self) -> Vec<&BatchNorm2d> {
        vec![self]
    }

    fn bn_layers_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        vec![self]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        Some(crate::layers::checkpoint::LayerSnapshot::BatchNorm2d {
            gamma: self.gamma.value.as_slice().to_vec(),
            beta: self.beta.value.as_slice().to_vec(),
            mean: self.running_mean.clone(),
            var: self.running_var.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    #[test]
    fn normalizes_batch_statistics() {
        let mut rng = StdRng::seed_from_u64(0);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[4, 3, 5, 5], 2.0, 3.0);
        let mut bn = BatchNorm2d::new(3);
        let y = bn.forward(&x, true);
        // Per-channel mean ≈ 0, var ≈ 1 after normalization (γ=1, β=0).
        let dims = y.dims().to_vec();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                vals.extend_from_slice(&y.as_slice()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean = {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var = {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        // Train on shifted data for a while to build running stats.
        for _ in 0..50 {
            let x: Tensor<f32> = init::gaussian(&mut rng, &[8, 2, 4, 4], 5.0, 2.0);
            let _ = bn.forward(&x, true);
        }
        // In eval, the same distribution should map near standard normal.
        let x: Tensor<f32> = init::gaussian(&mut rng, &[8, 2, 4, 4], 5.0, 2.0);
        let y = bn.forward(&x, false);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        assert!(mean.abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn backward_matches_finite_difference_on_gamma() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 2, 3, 3], 0.0, 1.0);
        let mut bn = BatchNorm2d::new(2);
        let _ = bn.forward(&x, true);
        let _ = bn.backward(&Tensor::ones(&[2, 2, 3, 3]));
        let got = bn.gamma.grad.as_slice()[0];
        let eps = 1e-3;
        let mut bn_p = bn.clone();
        bn_p.gamma.value.as_mut_slice()[0] += eps;
        let y1 = bn_p.forward(&x, true).sum();
        let mut bn_m = bn.clone();
        bn_m.gamma.value.as_mut_slice()[0] -= eps;
        let y0 = bn_m.forward(&x, true).sum();
        let fd = (y1 - y0) / (2.0 * eps);
        assert!((fd - got).abs() < 1e-2, "fd={fd} got={got}");
    }

    #[test]
    fn backward_input_gradient_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 1, 2, 2], 0.0, 1.0);
        let mut bn = BatchNorm2d::new(1);
        let _ = bn.forward(&x, true);
        // Weighted-sum loss to exercise non-uniform gradient.
        let gw = Tensor::from_fn(&[2, 1, 2, 2], |i| (i as f32 + 1.0) * 0.1);
        let gin = bn.backward(&gw);
        let loss = |inp: &Tensor<f32>| -> f32 {
            let mut b = bn.clone();
            let y = b.forward(inp, true);
            y.as_slice()
                .iter()
                .zip(gw.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        for idx in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (fd - gin.as_slice()[idx]).abs() < 2e-2,
                "idx={idx}: fd={fd} got={}",
                gin.as_slice()[idx]
            );
        }
    }
}
