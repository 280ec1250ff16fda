//! The one BCM convolution schedule, shared by both numeric modes.
//!
//! A block-circulant conv layer runs as the paper's accelerator runs it
//! (§IV, Figs. 6–7): one FFT per input pixel and channel block, shared by
//! every kernel tap and output block; then, per output block, an eMAC per
//! *live* block, accumulated in the frequency domain (the Pruned-BCM PE's
//! skip index means a pruned block costs nothing); then one IFFT per
//! output pixel and block.
//!
//! [`conv_lanes`] is that schedule, written once. The numeric mode — the
//! [`LaneMode`] trait — supplies the arithmetic: the input transform, the
//! multiply-accumulate of one weight bin, and the finish (narrowing, where
//! the mode has one, and the IFFT). `hwsim`'s 16-bit fixed-point datapath
//! is one instance; [`SpectralConv`], over [`fft::Fft`] and `f32` MACs, is
//! the float one.
//!
//! **Lanes.** Samples ride innermost (`[.. ][lane]`), so one weight bin
//! serves every sample of the batch, as the accelerator's parallel PE
//! lanes share one weight stream (§IV-C). Each lane's arithmetic is
//! independent of how many lanes share the pass, and every output block is
//! computed whole by one worker, so every sample's output is bit-identical
//! at any batch width and any worker count.

use fft::{Complex, Fft};
use tensor::parallel;

/// Per output channel block latency of the eMAC walk and finish
/// (nanoseconds): one observation covers every output pixel of one block.
static OUT_BLOCK_NS: telemetry::Histogram =
    telemetry::Histogram::new("circulant.schedule.out_block_ns");

/// One live eMAC operand of an output block: the kernel tap, the input
/// block whose spectrum it reads, and the live ordinal that locates its
/// weight bins. It does not depend on the feature-map size or the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmacEntry {
    /// Kernel tap row.
    pub p: usize,
    /// Kernel tap column.
    pub q: usize,
    /// Input channel block.
    pub bi: usize,
    /// The block's position among the live blocks in skip order: its
    /// weight bins are the `live`-th run of `BS/2+1` bins.
    pub live: usize,
}

impl EmacEntry {
    /// Flat input-pixel index `(bi · h + iy) · w + ix` this entry reads for
    /// output pixel `(oy, ox)`, or `None` when the tap lands in the zero
    /// padding.
    pub fn input_pixel(&self, oy: usize, ox: usize, shape: ConvShape) -> Option<usize> {
        let iy = (oy * shape.stride + self.p)
            .checked_sub(shape.pad)
            .filter(|&iy| iy < shape.h)?;
        let ix = (ox * shape.stride + self.q)
            .checked_sub(shape.pad)
            .filter(|&ix| ix < shape.w)?;
        Some((self.bi * shape.h + iy) * shape.w + ix)
    }
}

/// A layer's skip index resolved into per-output-block eMAC entry lists,
/// in accumulation order (tap-major, then input block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryLists {
    bs: usize,
    k: usize,
    in_blocks: usize,
    live: usize,
    lists: Vec<Vec<EmacEntry>>,
}

impl EntryLists {
    /// Resolves `skip` (one liveness bit per block: tap-major, then output
    /// block, then input block) of a square `k × k` layer.
    ///
    /// # Panics
    ///
    /// Panics if `skip` does not cover `k·k·out_blocks·in_blocks` blocks.
    pub fn new(bs: usize, k: usize, out_blocks: usize, in_blocks: usize, skip: &[bool]) -> Self {
        assert_eq!(skip.len(), k * k * out_blocks * in_blocks, "skip length");
        let mut lists = vec![Vec::new(); out_blocks];
        let live_blocks = skip.iter().enumerate().filter(|&(_, &l)| l);
        let mut live = 0;
        for (ordinal, (blk, _)) in live_blocks.enumerate() {
            let tap = blk / (out_blocks * in_blocks);
            lists[blk / in_blocks % out_blocks].push(EmacEntry {
                p: tap / k,
                q: tap % k,
                bi: blk % in_blocks,
                live: ordinal,
            });
            live += 1;
        }
        EntryLists {
            bs,
            k,
            in_blocks,
            live,
            lists,
        }
    }

    /// Block size `BS`.
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Square kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Output channel-block count.
    pub fn out_blocks(&self) -> usize {
        self.lists.len()
    }

    /// Input channel-block count.
    pub fn in_blocks(&self) -> usize {
        self.in_blocks
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Output block `bo`'s entries, in accumulation order.
    pub fn block(&self, bo: usize) -> &[EmacEntry] {
        &self.lists[bo]
    }
}

/// The geometry of one conv call: the `h × w` input map and the window's
/// stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Window stride.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvShape {
    /// Output `(height, width)` of a `k × k` window.
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or the padded map is smaller than the
    /// window.
    pub fn output_hw(&self, k: usize) -> (usize, usize) {
        assert!(self.stride > 0, "stride must be positive");
        let side = |len: usize| {
            let padded = (len + 2 * self.pad)
                .checked_sub(k)
                .expect("padded map smaller than the window");
            padded / self.stride + 1
        };
        (side(self.h), side(self.w))
    }
}

/// The arithmetic of one numeric mode of the conv schedule. Planes are
/// flat: `[bin][..][lane]` with the lane innermost.
pub trait LaneMode: Sync {
    /// Activation and spectrum word.
    type Word: Copy + Default + Send + Sync;
    /// eMAC accumulator word.
    type Acc: Copy + Default + Send;
    /// Per-worker transform scratch.
    type Scratch;

    /// The layer's eMAC entry lists.
    fn entries(&self) -> &EntryLists;

    /// Scratch for transforms of `n` lanes.
    fn scratch(&self, n: usize) -> Self::Scratch;

    /// The input FFT of one channel block of one pixel for `n` lanes:
    /// `block` is `[BS][n]` real words, which the mode may overwrite; bin
    /// `k` of lane `s` goes to `re[k · bin_stride + s]` and `im[..]`.
    fn fft(
        &self,
        block: &mut [Self::Word],
        re: &mut [Self::Word],
        im: &mut [Self::Word],
        bin_stride: usize,
        n: usize,
        scratch: &mut Self::Scratch,
    );

    /// Accumulates live block `live` times a run of input words into a
    /// run of accumulators, element by element: for every bin `k`, the
    /// `len` words at `xre[k · x_stride..]` (and `xim`) times weight bin
    /// `k`, into the `len` accumulators at `are[k · acc_stride..]` (and
    /// `aim`).
    #[allow(clippy::too_many_arguments)]
    fn mac(
        &self,
        live: usize,
        xre: &[Self::Word],
        xim: &[Self::Word],
        x_stride: usize,
        are: &mut [Self::Acc],
        aim: &mut [Self::Acc],
        acc_stride: usize,
        len: usize,
    );

    /// Finishes one output pixel of one block for `n` lanes: bin `k` of
    /// lane `s` is `are[k · bin_stride + s]` (and `aim`); writes the
    /// pixel's `BS` real outputs to `out` as `[BS][n]`.
    fn finish(
        &self,
        are: &[Self::Acc],
        aim: &[Self::Acc],
        bin_stride: usize,
        out: &mut [Self::Word],
        n: usize,
        scratch: &mut Self::Scratch,
    );
}

/// Runs the conv schedule on `n` samples `[n, c_in, h, w]` (flat), returning
/// `[n, c_out, oh, ow]` words.
///
/// 1. **Input FFTs.** Every (channel block, pixel) is transformed once for
///    all lanes into `[bi][iy][bin][ix][lane]` planes.
/// 2. **eMAC walk.** The output blocks are split over the [`parallel`]
///    workers. Per output block and output row the block's entry list is
///    walked in order. An entry whose input row is in the zero padding is
///    skipped; otherwise its output columns are clipped to those whose
///    input column `ox·stride + q − pad` lies in `[0, w)`, and per weight
///    bin the whole clipped run accumulates into `[bin][ox][lane]` row
///    planes (one contiguous run at stride 1).
/// 3. **Finish.** Every pixel of the row is finished by the mode. An output
///    block with no live entry writes zeros and runs no IFFT.
///
/// Per (sample, pixel, bin) the accumulation runs over the in-bounds
/// entries in list order, whatever the batch width, worker count or
/// layout, so a mode whose `mac` and transforms are element-wise per lane
/// gives bit-identical results for each sample at every width. An empty
/// batch returns no words.
///
/// # Panics
///
/// Panics if `xs.len() != n · c_in · h · w` or the window does not fit
/// the padded map.
pub fn conv_lanes<M: LaneMode>(
    mode: &M,
    xs: &[M::Word],
    n: usize,
    shape: ConvShape,
) -> Vec<M::Word> {
    let lists = mode.entries();
    let bs = lists.bs;
    let bins = bs / 2 + 1;
    let ConvShape { h, w, stride, pad } = shape;
    let (oh, ow) = shape.output_hw(lists.k);
    assert_eq!(
        xs.len(),
        n * lists.in_blocks * bs * h * w,
        "batch input length mismatch"
    );
    let ohw = oh * ow;
    let slab = bs * ohw;
    let mut out = vec![M::Word::default(); n * lists.out_blocks() * slab];
    if n == 0 {
        return out;
    }
    let (sre, sim) = input_spectra(mode, xs, n, shape);
    let in_run = w * n;
    let run = ow * n;
    // Per tap column `q`: the first output column whose input column
    // `ox·stride + q − pad` is in `[0, w)`, how many runs of input pixels
    // the in-bounds columns read (one contiguous run at stride 1, else one
    // per column) and each run's length in words.
    let cols: Vec<(usize, usize, usize)> = (0..lists.k)
        .map(|q| {
            let x0 = pad.saturating_sub(q).div_ceil(stride);
            let x1 = (w + pad).saturating_sub(q).div_ceil(stride).min(ow).max(x0);
            if stride == 1 {
                (x0, usize::from(x1 > x0), (x1 - x0) * n)
            } else {
                (x0, x1 - x0, n)
            }
        })
        .collect();

    // Block-major staging `[bo][s][bs·oh·ow]` keeps each output block's
    // batch slab contiguous for the worker pool; scattered back to
    // sample-major at the end.
    let mut staged = vec![M::Word::default(); lists.out_blocks() * n * slab];
    parallel::par_chunk_map(&mut staged[..], n * slab, |bo, bo_slab| {
        let entries = lists.block(bo);
        if entries.is_empty() {
            return;
        }
        let _lat = OUT_BLOCK_NS.span();
        let _trace = telemetry::trace_span("conv_out_block", "circulant.schedule");
        let mut are = vec![M::Acc::default(); bins * run];
        let mut aim = vec![M::Acc::default(); bins * run];
        let mut pixel = vec![M::Word::default(); bs * n];
        let mut scratch = mode.scratch(n);
        for oy in 0..oh {
            are.fill(M::Acc::default());
            aim.fill(M::Acc::default());
            for e in entries {
                let Some(iy) = (oy * stride + e.p).checked_sub(pad).filter(|&iy| iy < h) else {
                    continue;
                };
                let (x0, runs, len) = cols[e.q];
                let row = (e.bi * h + iy) * bins * in_run;
                for ox in x0..x0 + runs {
                    let ix = row + (ox * stride + e.q - pad) * n;
                    let (xr, xi) = (&sre[ix..], &sim[ix..]);
                    let (ar, ai) = (&mut are[ox * n..], &mut aim[ox * n..]);
                    mode.mac(e.live, xr, xi, in_run, ar, ai, run, len);
                }
            }
            for ox in 0..ow {
                mode.finish(
                    &are[ox * n..],
                    &aim[ox * n..],
                    run,
                    &mut pixel,
                    n,
                    &mut scratch,
                );
                let pix = oy * ow + ox;
                for (oi, lanes) in pixel.chunks_exact(n).enumerate() {
                    for (s, &v) in lanes.iter().enumerate() {
                        bo_slab[s * slab + oi * ohw + pix] = v;
                    }
                }
            }
        }
    });

    let c_out = lists.out_blocks() * bs;
    for (bo, slabs) in staged.chunks_exact(n * slab).enumerate() {
        for (s, src) in slabs.chunks_exact(slab).enumerate() {
            out[(s * c_out + bo * bs) * ohw..][..slab].copy_from_slice(src);
        }
    }
    out
}

/// Step 1 of [`conv_lanes`]: every (channel block, pixel) transformed once
/// for all lanes, into `[bi][iy][bin][ix][lane]` re/im planes.
fn input_spectra<M: LaneMode>(
    mode: &M,
    xs: &[M::Word],
    n: usize,
    shape: ConvShape,
) -> (Vec<M::Word>, Vec<M::Word>) {
    let lists = mode.entries();
    let (bs, h, w) = (lists.bs, shape.h, shape.w);
    let bins = bs / 2 + 1;
    let (hw, in_run) = (h * w, w * n);
    let chw = lists.in_blocks * bs * hw;
    let len = lists.in_blocks * h * bins * in_run;
    let (mut sre, mut sim) = (vec![M::Word::default(); len], vec![M::Word::default(); len]);
    let mut block = vec![M::Word::default(); bs * n];
    let mut scratch = mode.scratch(n);
    for bi in 0..lists.in_blocks {
        for iy in 0..h {
            for ix in 0..w {
                let pix = iy * w + ix;
                for (ci, lanes) in block.chunks_exact_mut(n).enumerate() {
                    let src = (bi * bs + ci) * hw + pix;
                    for (s, slot) in lanes.iter_mut().enumerate() {
                        *slot = xs[s * chw + src];
                    }
                }
                let base = (bi * h + iy) * bins * in_run + ix * n;
                let (re, im) = (&mut sre[base..], &mut sim[base..]);
                mode.fft(&mut block, re, im, in_run, n, &mut scratch);
            }
        }
    }
    (sre, sim)
}

/// Largest number of samples [`SpectralConv::forward`] runs through one
/// pass of the schedule; wider batches run in groups of this many.
const F32_LANES: usize = 8;

/// The `f32` instance of the conv schedule: a layer's live blocks'
/// half-spectra, prepared once, with its entry lists and its transform.
///
/// Transforms go through one [`fft::Fft`] plan, one lane at a time; the
/// eMAC accumulates `acc += w · x` on complex values in `[bin][lane]`
/// planes. Pruned blocks have no spectrum and cost nothing.
#[derive(Debug, Clone)]
pub struct SpectralConv {
    entries: EntryLists,
    plan: Fft<f32>,
    /// Live blocks' bins, `[live][bin]`, real parts.
    wre: Vec<f32>,
    /// Imaginary parts, same layout as `wre`.
    wim: Vec<f32>,
}

impl SpectralConv {
    /// Prepares a square `k × k` layer from its skip index (tap-major, then
    /// output block, then input block) and its live blocks' defining
    /// vectors, `[live, BS]` flat in skip order.
    ///
    /// # Panics
    ///
    /// Panics if `bs` is not a power of two, the skip index does not cover
    /// the grid, or `vecs` does not hold one vector per live block.
    pub fn new(
        bs: usize,
        k: usize,
        out_blocks: usize,
        in_blocks: usize,
        skip: &[bool],
        vecs: &[f32],
    ) -> Self {
        let entries = EntryLists::new(bs, k, out_blocks, in_blocks, skip);
        assert_eq!(
            vecs.len(),
            entries.live_count() * bs,
            "one vector per live block"
        );
        let plan = Fft::new(bs);
        let bins = bs / 2 + 1;
        let mut wre = Vec::with_capacity(entries.live_count() * bins);
        let mut wim = Vec::with_capacity(entries.live_count() * bins);
        let mut buf = vec![Complex::zero(); bs];
        for v in vecs.chunks_exact(bs) {
            for (z, &x) in buf.iter_mut().zip(v) {
                *z = Complex::from_real(x);
            }
            plan.forward(&mut buf);
            wre.extend(buf[..bins].iter().map(|z| z.re));
            wim.extend(buf[..bins].iter().map(|z| z.im));
        }
        SpectralConv {
            entries,
            plan,
            wre,
            wim,
        }
    }

    /// Runs the layer on `n` samples `[n, c_in, h, w]`, returning
    /// `[n, c_out, oh, ow]`: [`conv_lanes`] over groups of at most 8
    /// samples. Each sample's output is bit-identical at
    /// every batch width and worker count.
    ///
    /// # Panics
    ///
    /// As [`conv_lanes`].
    pub fn forward(&self, xs: &[f32], n: usize, shape: ConvShape) -> Vec<f32> {
        let (oh, ow) = shape.output_hw(self.entries.k);
        let bs = self.entries.bs;
        let in_len = self.entries.in_blocks * bs * shape.h * shape.w;
        let out_len = self.entries.out_blocks() * bs * oh * ow;
        assert_eq!(xs.len(), n * in_len, "batch input length mismatch");
        let mut out = Vec::with_capacity(n * out_len);
        for lo in (0..n).step_by(F32_LANES) {
            let lanes = (n - lo).min(F32_LANES);
            let group = &xs[lo * in_len..(lo + lanes) * in_len];
            out.extend(conv_lanes(self, group, lanes, shape));
        }
        out
    }
}

impl LaneMode for SpectralConv {
    type Word = f32;
    type Acc = f32;
    type Scratch = Vec<Complex<f32>>;

    fn entries(&self) -> &EntryLists {
        &self.entries
    }

    fn scratch(&self, _n: usize) -> Vec<Complex<f32>> {
        vec![Complex::zero(); self.entries.bs]
    }

    fn fft(
        &self,
        block: &mut [f32],
        re: &mut [f32],
        im: &mut [f32],
        bin_stride: usize,
        n: usize,
        buf: &mut Vec<Complex<f32>>,
    ) {
        for s in 0..n {
            for (z, lanes) in buf.iter_mut().zip(block.chunks_exact(n)) {
                *z = Complex::from_real(lanes[s]);
            }
            self.plan.forward(buf);
            for (k, z) in buf[..=self.entries.bs / 2].iter().enumerate() {
                re[k * bin_stride + s] = z.re;
                im[k * bin_stride + s] = z.im;
            }
        }
    }

    fn mac(
        &self,
        live: usize,
        xre: &[f32],
        xim: &[f32],
        x_stride: usize,
        are: &mut [f32],
        aim: &mut [f32],
        acc_stride: usize,
        len: usize,
    ) {
        let bins = self.entries.bs / 2 + 1;
        let weights = self.wre[live * bins..][..bins]
            .iter()
            .zip(&self.wim[live * bins..]);
        for (k, (&wr, &wi)) in weights.enumerate() {
            let (x, a) = (k * x_stride, k * acc_stride);
            let acc = are[a..][..len].iter_mut().zip(&mut aim[a..][..len]);
            let xs = xre[x..][..len].iter().zip(&xim[x..][..len]);
            for ((a_r, a_i), (&x_r, &x_i)) in acc.zip(xs) {
                *a_r += wr * x_r - wi * x_i;
                *a_i += wr * x_i + wi * x_r;
            }
        }
    }

    fn finish(
        &self,
        are: &[f32],
        aim: &[f32],
        bin_stride: usize,
        out: &mut [f32],
        n: usize,
        buf: &mut Vec<Complex<f32>>,
    ) {
        let bs = self.entries.bs;
        for s in 0..n {
            for k in 0..=bs / 2 {
                buf[k] = Complex::new(are[k * bin_stride + s], aim[k * bin_stride + s]);
            }
            for k in 1..bs / 2 {
                buf[bs - k] = buf[k].conj();
            }
            self.plan.inverse(buf);
            for (lanes, z) in out.chunks_exact_mut(n).zip(buf.iter()) {
                lanes[s] = z.re;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct convolution of the dense expansion (`W[o][i] = v[(o−i) mod
    /// BS]` per live block) — the reference the schedule must track.
    fn direct(
        bs: usize,
        k: usize,
        (ob, ib): (usize, usize),
        skip: &[bool],
        vecs: &[f32],
        xs: &[f32],
        shape: ConvShape,
    ) -> Vec<f64> {
        let (oh, ow) = shape.output_hw(k);
        let c_out = ob * bs;
        let mut out = vec![0.0f64; c_out * oh * ow];
        let mut rows = vecs.chunks_exact(bs);
        for (blk, _) in skip.iter().enumerate().filter(|&(_, &l)| l) {
            let v = rows.next().unwrap();
            let tap = blk / (ob * ib);
            let (p, q) = (tap / k, tap % k);
            let (bo, bi) = (blk / ib % ob, blk % ib);
            for oi in 0..bs {
                for ii in 0..bs {
                    let wv = f64::from(v[(oi + bs - ii) % bs]);
                    let (o, i) = (bo * bs + oi, bi * bs + ii);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * shape.stride + p).checked_sub(shape.pad);
                            let ix = (ox * shape.stride + q).checked_sub(shape.pad);
                            if let (Some(iy), Some(ix)) = (iy, ix) {
                                if iy < shape.h && ix < shape.w {
                                    let x = xs[(i * shape.h + iy) * shape.w + ix];
                                    out[(o * oh + oy) * ow + ox] += wv * f64::from(x);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(rows.next().is_none());
        out
    }

    fn lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn f32_schedule_tracks_direct_conv_and_is_width_independent() {
        // (bs, k, ob, ib, h, w, stride, pad)
        let cases = [
            (4, 3, 2, 2, 5, 4, 1, 1),
            (8, 1, 2, 1, 1, 1, 1, 0),
            (4, 3, 1, 2, 6, 5, 2, 1),
            (2, 5, 2, 1, 1, 3, 1, 2),
            (4, 1, 1, 1, 3, 3, 2, 2),
        ];
        for (seed, &(bs, k, ob, ib, h, w, stride, pad)) in cases.iter().enumerate() {
            let blocks = k * k * ob * ib;
            let skip: Vec<bool> = (0..blocks).map(|b| (b + seed) % 3 != 0).collect();
            let live = skip.iter().filter(|&&l| l).count();
            let vecs = lcg(seed as u64, live * bs);
            let conv = SpectralConv::new(bs, k, ob, ib, &skip, &vecs);
            let shape = ConvShape { h, w, stride, pad };
            let n = 11;
            let in_len = ib * bs * h * w;
            let xs = lcg(100 + seed as u64, n * in_len);
            let batch = conv.forward(&xs, n, shape);
            let out_len = batch.len() / n;
            for s in 0..n {
                let x = &xs[s * in_len..][..in_len];
                let single = conv.forward(x, 1, shape);
                assert_eq!(
                    single,
                    batch[s * out_len..][..out_len],
                    "case {seed} sample {s}"
                );
                let want = direct(bs, k, (ob, ib), &skip, &vecs, x, shape);
                for (a, b) in single.iter().zip(&want) {
                    assert!((f64::from(*a) - b).abs() < 1e-4, "case {seed}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn output_block_without_live_entries_is_zero() {
        let (bs, k) = (4, 3);
        let skip: Vec<bool> = (0..k * k * 2).map(|b| b % 2 == 0).collect(); // block 1 never live
        let live = skip.iter().filter(|&&l| l).count();
        let conv = SpectralConv::new(bs, k, 2, 1, &skip, &lcg(3, live * bs));
        assert!(conv.entries().block(1).is_empty());
        let shape = ConvShape {
            h: 3,
            w: 3,
            stride: 1,
            pad: 1,
        };
        let y = conv.forward(&lcg(4, 2 * bs * 9), 2, shape);
        for s in 0..2 {
            let out = &y[s * 2 * bs * 9..][..2 * bs * 9];
            assert!(out[bs * 9..].iter().all(|&v| v == 0.0));
            assert!(out[..bs * 9].iter().any(|&v| v != 0.0));
        }
        assert!(conv.forward(&[], 0, shape).is_empty());
    }
}
