//! Dense 2-d convolution via im2col, plus the shared core the BCM layers
//! reuse.

use crate::layers::{Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use circulant::schedule::{ConvShape, SpectralConv};
use rand::Rng;
use tensor::{init, parallel, Tensor};

/// The shape/im2col machinery shared by [`Conv2d`] and the block-circulant
/// convolution layers: turns convolution into a matrix product against a
/// `[c_out, c_in·kh·kw]` weight matrix and provides the exact adjoint.
#[derive(Debug, Clone)]
pub(crate) struct ConvCore {
    pub c_in: usize,
    pub c_out: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    cache: Option<CoreCache>,
}

#[derive(Debug, Clone)]
struct CoreCache {
    input_dims: Vec<usize>,
    /// One im2col matrix per sample: `[c_in·kh·kw, oh·ow]`.
    cols: Vec<Tensor<f32>>,
    oh: usize,
    ow: usize,
}

impl ConvCore {
    pub fn new(c_in: usize, c_out: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        assert!(c_in > 0 && c_out > 0 && kh > 0 && kw > 0 && stride > 0);
        ConvCore {
            c_in,
            c_out,
            kh,
            kw,
            stride,
            pad,
            cache: None,
        }
    }

    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kh) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kw) / self.stride + 1;
        (oh, ow)
    }

    fn im2col(&self, x: &Tensor<f32>, n: usize, h: usize, w: usize) -> Tensor<f32> {
        let (oh, ow) = self.output_hw(h, w);
        let rows = self.c_in * self.kh * self.kw;
        let mut cols = Tensor::zeros(&[rows, oh * ow]);
        let xs = x.as_slice();
        let cs = cols.as_mut_slice();
        for ci in 0..self.c_in {
            let x_base = (n * self.c_in + ci) * h * w;
            for p in 0..self.kh {
                for q in 0..self.kw {
                    let row = (ci * self.kh + p) * self.kw + q;
                    for oy in 0..oh {
                        let iy = (oy * self.stride + p) as isize - self.pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * self.stride + q) as isize - self.pad as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                xs[x_base + iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                            cs[row * oh * ow + oy * ow + ox] = v;
                        }
                    }
                }
            }
        }
        cols
    }

    /// Adjoint of [`Self::im2col`] for one sample: scatters `dcols` into the
    /// sample's `[c_in, h, w]` input-gradient slice.
    fn col2im(&self, dcols: &Tensor<f32>, dx_sample: &mut [f32], h: usize, w: usize) {
        let (oh, ow) = self.output_hw(h, w);
        let ds = dcols.as_slice();
        let xs = dx_sample;
        for ci in 0..self.c_in {
            let x_base = ci * h * w;
            for p in 0..self.kh {
                for q in 0..self.kw {
                    let row = (ci * self.kh + p) * self.kw + q;
                    for oy in 0..oh {
                        let iy = (oy * self.stride + p) as isize - self.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * self.stride + q) as isize - self.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            xs[x_base + iy as usize * w + ix as usize] +=
                                ds[row * oh * ow + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// Forward convolution of NCHW `x` against `w_mat: [c_out, c_in·kh·kw]`;
    /// only a training forward keeps the im2col matrices for `backward`.
    pub fn forward(&mut self, x: &Tensor<f32>, w_mat: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "conv expects NCHW input");
        assert_eq!(dims[1], self.c_in, "input channel mismatch");
        assert_eq!(w_mat.dims(), &[self.c_out, self.c_in * self.kh * self.kw]);
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, self.c_out, oh, ow]);
        // Samples are independent: fan the im2col + matmul per sample over
        // the worker pool, each writing its own output slice.
        let cols_cache = {
            let this = &*self;
            parallel::par_chunk_map(out.as_mut_slice(), self.c_out * oh * ow, |ni, y| {
                let cols = this.im2col(x, ni, h, w);
                let prod = w_mat.matmul(&cols); // [c_out, oh*ow]
                y.copy_from_slice(prod.as_slice());
                train.then_some(cols)
            })
        };
        self.cache = train.then(|| CoreCache {
            input_dims: dims.to_vec(),
            cols: cols_cache.into_iter().flatten().collect(),
            oh,
            ow,
        });
        out
    }

    /// Inference forward of NCHW `x` on the spectral datapath: the layer's
    /// prepared live-block spectra, never a dense weight. Keeps nothing for
    /// `backward`.
    pub fn forward_spectral(&mut self, x: &Tensor<f32>, conv: &SpectralConv<f32>) -> Tensor<f32> {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "conv expects NCHW input");
        assert_eq!(dims[1], self.c_in, "input channel mismatch");
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.output_hw(h, w);
        self.cache = None;
        let shape = ConvShape {
            h,
            w,
            stride: self.stride,
            pad: self.pad,
        };
        let y = conv.forward(x.as_slice(), n, shape);
        Tensor::from_vec(y, &[n, self.c_out, oh, ow])
    }

    /// Backward: returns `(dW_mat, dx)` for the upstream NCHW gradient.
    pub fn backward(
        &mut self,
        grad: &Tensor<f32>,
        w_mat: &Tensor<f32>,
    ) -> (Tensor<f32>, Tensor<f32>) {
        let cache = self.cache.as_ref().expect(NO_TRAINING_FORWARD);
        let (n, h, w) = (
            cache.input_dims[0],
            cache.input_dims[2],
            cache.input_dims[3],
        );
        let (oh, ow) = (cache.oh, cache.ow);
        assert_eq!(grad.dims(), &[n, self.c_out, oh, ow], "gradient shape");
        let w_t = w_mat.transpose(); // hoisted: identical for every sample
        let mut dx = Tensor::zeros(&cache.input_dims);
        // Per-sample weight gradients and input-gradient scatters are
        // independent; the dW partials are then summed in sample order, so
        // the result is bit-identical for every worker count.
        let dw_parts = {
            let this = &*self;
            parallel::par_chunk_map(dx.as_mut_slice(), self.c_in * h * w, |ni, dx_s| {
                let g = Tensor::from_vec(
                    grad.as_slice()[ni * self.c_out * oh * ow..(ni + 1) * self.c_out * oh * ow]
                        .to_vec(),
                    &[self.c_out, oh * ow],
                );
                let dw_i = g.matmul(&cache.cols[ni].transpose());
                let dcols = w_t.matmul(&g);
                this.col2im(&dcols, dx_s, h, w);
                dw_i
            })
        };
        let mut dw = Tensor::zeros(&[self.c_out, self.c_in * self.kh * self.kw]);
        for part in &dw_parts {
            dw += part;
        }
        (dw, dx)
    }
}

/// A dense 2-d convolution layer (no bias — the builders always follow it
/// with batch norm).
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    pub(crate) weight: Param, // stored flat as [c_out, c_in*kh*kw]
    core: ConvCore,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    pub fn new(
        rng: &mut impl Rng,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let weight4 = init::kaiming_normal::<f32>(rng, &[c_out, c_in, kernel, kernel]);
        let weight = Param::new(weight4.reshape(&[c_out, c_in * kernel * kernel]));
        Conv2d {
            name: format!("conv{c_in}x{c_out}k{kernel}"),
            weight,
            core: ConvCore::new(c_in, c_out, kernel, kernel, stride, pad),
        }
    }

    /// Rebuilds a convolution from checkpointed parts (`weight` is flat
    /// `[c_out, c_in·k·k]`).
    pub(crate) fn from_parts(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        weight: Vec<f32>,
    ) -> Self {
        let weight = Param::new(Tensor::from_vec(weight, &[c_out, c_in * kernel * kernel]));
        Conv2d {
            name: format!("conv{c_in}x{c_out}k{kernel}"),
            weight,
            core: ConvCore::new(c_in, c_out, kernel, kernel, stride, pad),
        }
    }

    /// The dense weight as `[c_out, c_in, kh, kw]`.
    pub fn weight4(&self) -> Tensor<f32> {
        self.weight
            .value
            .reshape(&[self.core.c_out, self.core.c_in, self.core.kh, self.core.kw])
    }

    /// `(c_in, c_out, kernel)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.core.c_in, self.core.c_out, self.core.kh)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        self.core.forward(x, &self.weight.value, train)
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let (dw, dx) = self.core.backward(grad, &self.weight.value);
        self.weight.grad += &dw;
        dx
    }

    fn step(&mut self, update: &SgdUpdate) {
        self.weight.step(update);
    }

    fn param_count(&self) -> usize {
        self.weight.len()
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn conv_weight(&self) -> Option<Tensor<f32>> {
        Some(self.weight4())
    }

    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        Some(crate::layers::checkpoint::LayerSnapshot::Conv2d {
            c_in: self.core.c_in,
            c_out: self.core.c_out,
            kernel: self.core.kh,
            stride: self.core.stride,
            pad: self.core.pad,
            weight: self.weight.value.as_slice().to_vec(),
        })
    }

    fn set_conv_weight(
        &mut self,
        w: &Tensor<f32>,
    ) -> Result<(), crate::layers::SetConvWeightError> {
        assert_eq!(
            w.dims(),
            &[self.core.c_out, self.core.c_in, self.core.kh, self.core.kw],
            "replacement weight shape mismatch"
        );
        self.weight.value = w.reshape(&[
            self.core.c_out,
            self.core.c_in * self.core.kh * self.core.kw,
        ]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Direct O(everything) convolution for cross-checking.
    fn conv_naive(
        x: &Tensor<f32>,
        w: &Tensor<f32>, // [F, C, kh, kw]
        stride: usize,
        pad: usize,
    ) -> Tensor<f32> {
        let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (f, _, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (wd + 2 * pad - kw) / stride + 1;
        let mut out = Tensor::zeros(&[n, f, oh, ow]);
        for ni in 0..n {
            for fi in 0..f {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for p in 0..kh {
                                for q in 0..kw {
                                    let iy = (oy * stride + p) as isize - pad as isize;
                                    let ix = (ox * stride + q) as isize - pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < wd as isize {
                                        acc += x.at(&[ni, ci, iy as usize, ix as usize])
                                            * w.at(&[fi, ci, p, q]);
                                    }
                                }
                            }
                        }
                        out.set(&[ni, fi, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_convolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 3, 4, 3, 1, 1);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 3, 6, 6], 0.0, 1.0);
        let got = conv.forward(&x, true);
        let want = conv_naive(&x, &conv.weight4(), 1, 1);
        assert_eq!(got.dims(), want.dims());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn strided_convolution_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(&mut rng, 2, 5, 3, 2, 1);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 2, 8, 8], 0.0, 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.dims(), &[1, 5, 4, 4]);
        let want = conv_naive(&x, &conv.weight4(), 2, 1);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 2, 2, 3, 1, 1);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 2, 4, 4], 0.0, 1.0);
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&Tensor::ones(&[1, 2, 4, 4]));
        let eps = 1e-3;
        for idx in [0usize, 7, 17, 35] {
            let mut cp = conv.clone();
            cp.weight.value.as_mut_slice()[idx] += eps;
            let y1 = cp.forward(&x, true).sum();
            let mut cm = conv.clone();
            cm.weight.value.as_mut_slice()[idx] -= eps;
            let y0 = cm.forward(&x, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            let got = conv.weight.grad.as_slice()[idx];
            assert!((fd - got).abs() < 1e-2, "idx={idx}: fd={fd} got={got}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 1, 1);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 1, 4, 4], 0.0, 1.0);
        let _ = conv.forward(&x, true);
        let gin = conv.backward(&Tensor::ones(&[1, 2, 4, 4]));
        let eps = 1e-3;
        for idx in [0usize, 5, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let y1 = conv.forward(&xp, true).sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let y0 = conv.forward(&xm, true).sum();
            let fd = (y1 - y0) / (2.0 * eps);
            assert!(
                (fd - gin.as_slice()[idx]).abs() < 1e-2,
                "idx={idx}: fd={fd} got={}",
                gin.as_slice()[idx]
            );
        }
    }
}
