//! Pooling layers: 2×2 max pooling and global average pooling.

use crate::layers::{Layer, NO_TRAINING_FORWARD};
use tensor::Tensor;

/// Max pooling with a square window and stride equal to the window size
/// (the only configuration the VGG/ResNet builders need).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Kept by a training forward: input dims and the flat argmax index
    /// per output element.
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a pool with `window × window` kernel and stride `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be non-zero");
        MaxPool2d {
            window,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool"
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "maxpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.window;
        assert_eq!(h % k, 0, "height {h} not divisible by window {k}");
        assert_eq!(w % k, 0, "width {w} not divisible by window {k}");
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = train.then(|| vec![0usize; n * c * oh * ow]);
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..k {
                            for dx in 0..k {
                                let idx = base + (oy * k + dy) * w + (ox * k + dx);
                                if xs[idx] > best {
                                    best = xs[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((ni * c + ci) * oh + oy) * ow + ox;
                        os[oidx] = best;
                        if let Some(argmax) = &mut argmax {
                            argmax[oidx] = best_idx;
                        }
                    }
                }
            }
        }
        self.cache = argmax.map(|argmax| (dims.to_vec(), argmax));
        out
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let (dims, argmax) = self.cache.as_ref().expect(NO_TRAINING_FORWARD);
        let mut out = Tensor::zeros(dims);
        let os = out.as_mut_slice();
        for (g, &idx) in grad.as_slice().iter().zip(argmax) {
            os[idx] += g;
        }
        out
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        Some(crate::layers::checkpoint::LayerSnapshot::MaxPool {
            window: self.window,
        })
    }
}

/// Global average pooling `[N, C, H, W] → [N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        "gap"
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "global avg pool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        self.input_dims = train.then(|| dims.to_vec());
        let area = (h * w) as f32;
        let xs = x.as_slice();
        Tensor::from_fn(&[n, c], |idx| {
            let base = idx * h * w;
            xs[base..base + h * w].iter().sum::<f32>() / area
        })
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let dims = self.input_dims.as_ref().expect(NO_TRAINING_FORWARD);
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let area = (h * w) as f32;
        let gs = grad.as_slice();
        Tensor::from_fn(dims, |idx| {
            let nc = idx / (h * w);
            let _ = n;
            gs[nc] / area
        })
        .reshape(&[n, c, h, w])
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        Some(crate::layers::checkpoint::LayerSnapshot::GlobalAvgPool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_selects_max_and_routes_gradient() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0_f32, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        let g = p.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        // Gradient lands only at the max positions.
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(g.at(&[0, 0, 1, 3]), 2.0);
        assert_eq!(g.at(&[0, 0, 3, 1]), 3.0);
        assert_eq!(g.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(g.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn gap_averages_and_spreads() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0_f32, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1]);
        assert_eq!(y.as_slice(), &[4.0]);
        let g = p.backward(&Tensor::from_vec(vec![8.0], &[1, 1]));
        assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_requires_divisible_dims() {
        MaxPool2d::new(2).forward(&Tensor::<f32>::ones(&[1, 1, 3, 4]), true);
    }
}
