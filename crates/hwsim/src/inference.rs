//! Functional fixed-point inference of a folded BCM convolution layer —
//! the full "load complex weights → FFT inputs → eMAC with skip → IFFT"
//! datapath of Fig. 6 run bit-accurately on real weights.
//!
//! Weight spectra are computed offline in float and quantized (Fig. 4b:
//! "the Hadamard product and FFT can be pre-computed before the
//! inference"); activations travel as 16-bit words; eMAC accumulation is
//! 32-bit wide. This is what lets the repo measure the accuracy cost of
//! the paper's "just 16-bit fixed-point computation" (§V-C2) end to end.
//!
//! [`FxWeights`] is the one form of a quantized layer: the skip index,
//! the live blocks' bins in weight-stream order, and each output block's
//! eMAC entry list, all built once. The deployment package
//! ([`crate::deploy`]) is its byte encoding.
//!
//! Each schedule of the datapath is one function:
//!
//! - [`conv_forward_fx`] is the scalar oracle: one sample, element at a
//!   time over complex words, kept plain. It is the only scalar conv
//!   body; a batch oracle is this function per sample.
//! - [`conv_forward_fx_batch_packed`] is the one lane kernel: a packed
//!   [`FxBatch`] in, a packed batch out, samples innermost. One body
//!   serves every shape: a `1×1` fully-connected layer is one row of one
//!   pixel, and border pixels clip each entry's column range.
//! - [`conv_forward_fx_scaled`] runs per-block-scaled narrow weights
//!   ([`ScaledFxWeights`]) on one sample.

use crate::fixed::{ComplexAcc, ComplexFx, FxBatch, QFormat};
use crate::fxfft::FxFftPe;
use circulant::ConvBlockCirculant;
use fft::real::HalfSpectrum;
use fft::Complex;
use tensor::parallel;

/// Fixed-point input FFTs run (one per input block per pixel).
static FX_INPUT_FFTS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.input_ffts");
/// Fixed-point output IFFTs run (one per output block per pixel).
static FX_OUTPUT_IFFTS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.output_iffts");
/// Block eMACs scheduled by the entry lists (live entries × pixels;
/// border pixels skip out-of-bounds taps, so this is a slight over-count).
static FX_EMAC_BLOCKS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.emac_blocks");
/// Per out-block eMAC execution latency distribution (nanoseconds): one
/// observation covers every pixel of one output channel block.
static FX_PLAN_EXEC_NS: telemetry::Histogram = telemetry::Histogram::new("hwsim.fx.plan_exec_ns");

/// Coarse arithmetic counts for one fixed-point conv call of one sample,
/// computed from the layer geometry outside the hot loops.
fn record_fx_layer(weights: &FxWeights, h: usize, w: usize) {
    if !telemetry::enabled() {
        return;
    }
    let pixels = (h * w) as u64;
    FX_INPUT_FFTS.add(weights.in_blocks as u64 * pixels);
    FX_OUTPUT_IFFTS.add(weights.out_blocks as u64 * pixels);
    FX_EMAC_BLOCKS.add(weights.live_count() as u64 * pixels);
}

/// Computes every pixel's channel-block input spectrum once, in parallel
/// over channel blocks — the input reuse the dataflow maximizes. Returns a
/// flat `[(bi · h + y) · w + x] × bins` layout so the eMAC loop reads each
/// spectrum as one contiguous slice.
fn input_spectra(pe: &FxFftPe, x: &[i16], in_blocks: usize, h: usize, w: usize) -> Vec<ComplexFx> {
    let bs = pe.block_size();
    let bins = bs / 2 + 1;
    let mut spectra = vec![ComplexFx::zero(); in_blocks * h * w * bins];
    parallel::par_chunk_map(&mut spectra[..], h * w * bins, |bi, chunk| {
        let mut buf = vec![ComplexFx::zero(); bs];
        for y in 0..h {
            for xx in 0..w {
                for (ci, item) in buf.iter_mut().enumerate() {
                    *item = ComplexFx::new(x[(bi * bs + ci) * h * w + y * w + xx], 0);
                }
                pe.forward(&mut buf);
                chunk[(y * w + xx) * bins..][..bins].copy_from_slice(&buf[..bins]);
            }
        }
    });
    spectra
}

/// One live eMAC operand of an output block: the kernel tap, the input
/// block whose spectrum it reads, and where its weight bins start in
/// [`FxWeights`]' flat bins. It does not depend on the feature-map size;
/// kernels derive spectrum offsets from `(h, w)` inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EmacEntry {
    /// Kernel tap offsets relative to the output pixel (`dy = p − pad`).
    dy: isize,
    dx: isize,
    /// Input channel block.
    bi: usize,
    /// Start of the entry's `BS/2+1` bins in the layer's flat bins.
    w_off: usize,
}

impl EmacEntry {
    /// Flat input-pixel index `(bi · h + iy) · w + ix` this entry reads
    /// for output pixel `(y, x)` of an `h × w` map, or `None` when the
    /// tap lands in the zero padding.
    fn input_pixel(&self, y: usize, x: usize, h: usize, w: usize) -> Option<usize> {
        let iy = y.checked_add_signed(self.dy).filter(|&iy| iy < h)?;
        let ix = x.checked_add_signed(self.dx).filter(|&ix| ix < w)?;
        Some((self.bi * h + iy) * w + ix)
    }
}

/// The quantized weights of one folded BCM conv layer, in the one form
/// both the kernels and the deployment package use.
///
/// - The skip index: one liveness bit per block, tap-major, then
///   out-block, then in-block (§IV-B).
/// - The weight stream: every live block's `BS/2+1` quantized bins, flat,
///   in skip order.
/// - Per output block, the eMAC entry list in accumulation order
///   (tap-major, then in-block), resolved from the skip index once at
///   construction.
///
/// The kernel is square with odd `k`: the datapath pads by `(k−1)/2`,
/// which keeps an `h × w` map `h × w` only for odd `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct FxWeights {
    bs: usize,
    k: usize,
    out_blocks: usize,
    in_blocks: usize,
    skip: Vec<bool>,
    bins: Vec<ComplexFx>,
    entries: Vec<Vec<EmacEntry>>,
}

impl FxWeights {
    /// Quantizes a folded layer's weight spectra into format `q`.
    ///
    /// # Panics
    ///
    /// Panics unless the kernel is square with odd size.
    pub fn from_folded(q: QFormat, conv: &ConvBlockCirculant<f32>) -> Self {
        Self::quantize(conv, |half, bins| {
            bins.extend(half.iter().map(|c| ComplexFx::from_f64(q, c.re, c.im)));
        })
    }

    /// The one folded → half-spectrum → quantize walk: visits blocks in
    /// skip order and lets `quantize_block` append each live block's
    /// `BS/2+1` words to the weight stream.
    fn quantize(
        conv: &ConvBlockCirculant<f32>,
        mut quantize_block: impl FnMut(&[Complex<f64>], &mut Vec<ComplexFx>),
    ) -> Self {
        let (k, kw) = conv.kernel_dims();
        assert_eq!(k, kw, "fx layers have square kernels");
        let (ob, ib) = conv.grid_dims();
        let mut skip = Vec::with_capacity(k * k * ob * ib);
        let mut bins = Vec::new();
        for tap in 0..k * k {
            let grid = conv.grid(tap / k, tap % k);
            for bo in 0..ob {
                for bi in 0..ib {
                    let block = grid.block(bo, bi);
                    skip.push(!block.is_zero());
                    if block.is_zero() {
                        continue;
                    }
                    let w64: Vec<f64> = block
                        .defining_vector()
                        .iter()
                        .map(|&v| f64::from(v))
                        .collect();
                    quantize_block(HalfSpectrum::forward(&w64).bins(), &mut bins);
                }
            }
        }
        Self::new(conv.block_size(), k, ob, ib, skip, bins)
    }

    /// Builds weights from raw parts (a decoded deployment package or
    /// synthesized test words): `skip` is the per-block liveness bitmap
    /// (tap-major, out, in) and `spectra_words` the interleaved `(re, im)`
    /// words of every live block's `BS/2+1` bins, in skip order.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or the counts are inconsistent.
    pub fn from_parts(
        bs: usize,
        k: usize,
        out_blocks: usize,
        in_blocks: usize,
        skip: &[bool],
        spectra_words: &[i16],
    ) -> Self {
        assert!(spectra_words.len().is_multiple_of(2), "spectra length");
        let bins = spectra_words
            .chunks_exact(2)
            .map(|c| ComplexFx::new(c[0], c[1]))
            .collect();
        Self::new(bs, k, out_blocks, in_blocks, skip.to_vec(), bins)
    }

    /// Checks the geometry and resolves the skip index into per-output
    /// block eMAC entry lists.
    fn new(
        bs: usize,
        k: usize,
        out_blocks: usize,
        in_blocks: usize,
        skip: Vec<bool>,
        bins: Vec<ComplexFx>,
    ) -> Self {
        assert!(k % 2 == 1, "fx conv needs an odd kernel size, got {k}");
        assert_eq!(skip.len(), k * k * out_blocks * in_blocks, "skip length");
        let per_block = bs / 2 + 1;
        let live = skip.iter().filter(|&&b| b).count();
        assert_eq!(bins.len(), live * per_block, "spectra length");
        let pad = (k / 2) as isize;
        let mut entries = vec![Vec::new(); out_blocks];
        let live_blocks = skip.iter().enumerate().filter(|&(_, &b)| b);
        for (ordinal, (blk, _)) in live_blocks.enumerate() {
            let tap = blk / (out_blocks * in_blocks);
            entries[blk / in_blocks % out_blocks].push(EmacEntry {
                dy: (tap / k) as isize - pad,
                dx: (tap % k) as isize - pad,
                bi: blk % in_blocks,
                w_off: ordinal * per_block,
            });
        }
        FxWeights {
            bs,
            k,
            out_blocks,
            in_blocks,
            skip,
            bins,
            entries,
        }
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> usize {
        self.bins.len() / (self.bs / 2 + 1)
    }

    /// On-chip weight footprint in bytes (complex 16-bit pairs).
    pub fn weight_bytes(&self) -> usize {
        self.bins.len() * 4
    }

    /// Block size `BS`.
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Input channel-block count (`c_in / BS`).
    pub fn in_blocks(&self) -> usize {
        self.in_blocks
    }

    /// Output channel-block count (`c_out / BS`).
    pub fn out_blocks(&self) -> usize {
        self.out_blocks
    }

    /// Square kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// The skip index, one liveness bit per block in weight-stream order.
    pub(crate) fn skip(&self) -> &[bool] {
        &self.skip
    }

    /// The weight stream: every live block's bins, in skip order.
    pub(crate) fn bins(&self) -> &[ComplexFx] {
        &self.bins
    }

    /// One live block's `BS/2+1` bins.
    fn entry_bins(&self, e: &EmacEntry) -> &[ComplexFx] {
        &self.bins[e.w_off..e.w_off + self.bs / 2 + 1]
    }
}

/// Expands one pixel's narrowed half-spectrum (`full[..=BS/2]`) to the
/// conjugate-symmetric full spectrum, runs the IFFT with the shift
/// divider, and writes the real outputs — the datapath finish every
/// output pixel of both scalar bodies shares.
fn finish_pixel(
    pe: &FxFftPe,
    full: &mut [ComplexFx],
    out_block: &mut [i16],
    hw: usize,
    pix: usize,
) {
    let bs = full.len();
    for k in 1..bs / 2 {
        full[bs - k] = full[k].conj();
    }
    pe.inverse(full);
    for (oi, v) in full.iter().enumerate() {
        out_block[oi * hw + pix] = v.re;
    }
}

/// The **scalar oracle** of the fixed-point conv datapath: runs one
/// folded BCM conv layer (stride 1, symmetric zero padding `(k−1)/2`) on
/// a quantized single-sample input `[c_in, h, w]`, returning
/// `[c_out, h, w]` words.
///
/// It is the plain specification, element at a time over
/// [`ComplexFx`]/[`ComplexAcc`] words: the input spectra once, then per
/// output block and pixel the block's eMAC entries in list order (taps
/// that land in the zero padding skipped), then the narrow/IFFT finish. The
/// lane kernel [`conv_forward_fx_batch_packed`] must match it word for
/// word on every sample; samples are independent, so a batch oracle is
/// this function per sample. `1×1` fully-connected layers (`k = 1`) are
/// the one-pixel case. It stays in the build (not test-gated) so
/// `exp_speedup` and `exp_serve` can time it against the lane kernel;
/// production callers use the lane kernel.
///
/// # Panics
///
/// Panics if the input length disagrees with the layer dimensions.
pub fn conv_forward_fx(q: QFormat, weights: &FxWeights, x: &[i16], h: usize, w: usize) -> Vec<i16> {
    let bs = weights.bs;
    assert_eq!(
        x.len(),
        weights.in_blocks * bs * h * w,
        "input length mismatch"
    );
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;
    let spectra = input_spectra(&pe, x, weights.in_blocks, h, w);
    record_fx_layer(weights, h, w);
    let mut out = vec![0i16; weights.out_blocks * bs * h * w];
    parallel::par_chunk_map(&mut out[..], bs * h * w, |bo, out_block| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan", "hwsim.fx");
        let mut acc = vec![ComplexAcc::zero(); bins];
        let mut full = vec![ComplexFx::zero(); bs];
        for y in 0..h {
            for xx in 0..w {
                acc.fill(ComplexAcc::zero());
                for e in &weights.entries[bo] {
                    let Some(pix) = e.input_pixel(y, xx, h, w) else {
                        continue;
                    };
                    let xs = &spectra[pix * bins..][..bins];
                    for (a, (xv, wv)) in acc.iter_mut().zip(xs.iter().zip(weights.entry_bins(e))) {
                        a.mac(q, *xv, *wv);
                    }
                }
                for (f, a) in full.iter_mut().zip(&acc) {
                    *f = a.narrow(q);
                }
                finish_pixel(&pe, &mut full, out_block, h * w, y * w + xx);
            }
        }
    });
    out
}

/// Computes every (sample, channel-block, pixel) input spectrum with the
/// lane FFT, writing split re/im planes in
/// `((bi·h + y)·w + x)·bins + k` bin order with the **sample lane
/// innermost** (`[.. ][n]`). Per sample the arithmetic is exactly
/// [`input_spectra`]'s (quantized words through [`FxFftPe::forward`]), so
/// bins are bit-identical; the batch dimension just rides in SIMD lanes.
fn input_spectra_lanes(
    pe: &FxFftPe,
    xs: &[i16],
    n: usize,
    in_blocks: usize,
    h: usize,
    w: usize,
) -> (Vec<i16>, Vec<i16>) {
    let bs = pe.block_size();
    let bins = bs / 2 + 1;
    let hw = h * w;
    let chw = in_blocks * bs * hw;
    let mut sre = vec![0i16; in_blocks * hw * bins * n];
    let mut sim = vec![0i16; in_blocks * hw * bins * n];
    let mut bre = vec![0i16; bs * n];
    let mut bim = vec![0i16; bs * n];
    for bi in 0..in_blocks {
        for pix in 0..hw {
            for ci in 0..bs {
                let row = &mut bre[ci * n..(ci + 1) * n];
                for (s, slot) in row.iter_mut().enumerate() {
                    *slot = xs[s * chw + (bi * bs + ci) * hw + pix];
                }
            }
            bim.fill(0);
            pe.forward_lanes(&mut bre, &mut bim, n);
            let base = (bi * hw + pix) * bins * n;
            sre[base..base + bins * n].copy_from_slice(&bre[..bins * n]);
            sim[base..base + bins * n].copy_from_slice(&bim[..bins * n]);
        }
    }
    (sre, sim)
}

/// Narrows one pixel's `[bin][n]` accumulator planes, closes conjugate
/// symmetry, runs the lane IFFT, and scatters each lane's real parts into
/// its sample's out-block — the scalar oracle's narrowing and
/// [`finish_pixel`] for all `n` samples at once, bit-identical per lane.
#[allow(clippy::too_many_arguments)]
fn finish_pixels_lanes(
    pe: &FxFftPe,
    q: QFormat,
    acc_re: &[i32],
    acc_im: &[i32],
    fre: &mut [i16],
    fim: &mut [i16],
    n: usize,
    bo_slab: &mut [i16],
    slab: usize,
    hw: usize,
    pix: usize,
) {
    let bs = fre.len() / n;
    let bins = acc_re.len() / n;
    for k in 0..bins {
        let ar = &acc_re[k * n..(k + 1) * n];
        let ai = &acc_im[k * n..(k + 1) * n];
        let rr = &mut fre[k * n..(k + 1) * n];
        let ri = &mut fim[k * n..(k + 1) * n];
        for s in 0..n {
            rr[s] = q.narrow(ar[s]);
            ri[s] = q.narrow(ai[s]);
        }
    }
    for k in 1..bs / 2 {
        for s in 0..n {
            fre[(bs - k) * n + s] = fre[k * n + s];
            fim[(bs - k) * n + s] = fim[k * n + s].saturating_neg();
        }
    }
    pe.inverse_lanes(fre, fim, n);
    for oi in 0..bs {
        let row = &fre[oi * n..(oi + 1) * n];
        for (s, &v) in row.iter().enumerate() {
            bo_slab[s * slab + oi * hw + pix] = v;
        }
    }
}

/// The fixed-point conv datapath in fixed-width SoA lane form — the one
/// lane kernel, for every layer shape, and the one the serving paths
/// dispatch: a packed [`FxBatch`] of `n` samples (`[n, c_in, h, w]`, the
/// batch's format as `q`) in, `[n, c_out, h, w]` words out, no
/// per-element float round-trips. The **sample dimension is innermost**
/// everywhere — input spectra, `i32` eMAC accumulators, and IFFT buffers
/// all live in flat split re/im planes whose inner loops the
/// autovectorizer widens (`n = 8` fills a 128-bit vector of i16 lanes
/// end to end).
///
/// Per output block and output row it walks the block's eMAC entry list
/// in order. An entry whose input row falls in the zero padding is
/// skipped; otherwise its output columns are clipped to
/// `[max(0, −dx), min(w, w − dx))`, where every horizontal tap is in
/// bounds, and each of those pixels accumulates the entry with
/// [`crate::pe::emac_block_lanes`] into `[px][bin][n]` row planes — one
/// weight stream shared by all `n` samples, the software analogue of the
/// accelerator's parallel PE lanes (§IV-C). Then every pixel of the row
/// is narrowed and inverse-transformed. A fully-connected layer (`k = 1`
/// on a `1×1` map) is one row of one pixel.
///
/// Every sample's output is **bit-identical** to the scalar oracle
/// [`conv_forward_fx`] on that sample: per (sample, pixel, bin) the
/// accumulation order over in-bounds entries and every fixed-point
/// operation are the oracle's; only the schedule differs. An empty batch
/// (`n = 0`) returns no words.
///
/// # Panics
///
/// Panics if the batch's words disagree with `n · c_in · h · w`.
pub fn conv_forward_fx_batch_packed(
    weights: &FxWeights,
    batch: &FxBatch,
    h: usize,
    w: usize,
) -> FxBatch {
    let (q, xs, n) = (batch.format(), batch.as_flat(), batch.len());
    let bs = weights.bs;
    let c_in = weights.in_blocks * bs;
    let c_out = weights.out_blocks * bs;
    assert_eq!(xs.len(), n * c_in * h * w, "batch input length mismatch");
    if n == 0 {
        return FxBatch::from_flat(q, 0, c_out * h * w, Vec::new());
    }
    let pe = FxFftPe::new(bs, q);
    let lane_bins = (bs / 2 + 1) * n;
    let hw = h * w;

    let (sre, sim) = input_spectra_lanes(&pe, xs, n, weights.in_blocks, h, w);

    for _ in 0..n {
        record_fx_layer(weights, h, w);
    }

    // Block-major staging `[bo][s][bs·h·w]` keeps each out-block's batch
    // slab contiguous for the worker pool; scattered back to sample-major
    // at the end.
    let slab = bs * hw;
    let mut staged = vec![0i16; weights.out_blocks * n * slab];
    parallel::par_chunk_map(&mut staged[..], n * slab, |bo, bo_slab| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan_batch_lanes", "hwsim.fx");
        let mut acc_re = vec![0i32; w * lane_bins];
        let mut acc_im = vec![0i32; w * lane_bins];
        let mut fre = vec![0i16; bs * n];
        let mut fim = vec![0i16; bs * n];
        for y in 0..h {
            acc_re.fill(0);
            acc_im.fill(0);
            for e in &weights.entries[bo] {
                let Some(iy) = y.checked_add_signed(e.dy).filter(|&iy| iy < h) else {
                    continue;
                };
                // Output columns whose tap is in bounds:
                // [max(0, −dx), min(w, w − dx)), possibly empty.
                let x0 = e.dx.min(0).unsigned_abs();
                let x1 = w.saturating_sub(e.dx.max(0).unsigned_abs());
                let row = (e.bi * h + iy) * w;
                for px in x0..x1 {
                    let src = (row + px).wrapping_add_signed(e.dx) * lane_bins;
                    let acc = px * lane_bins..(px + 1) * lane_bins;
                    crate::pe::emac_block_lanes(
                        q,
                        bs,
                        weights.entry_bins(e),
                        &sre[src..src + lane_bins],
                        &sim[src..src + lane_bins],
                        &mut acc_re[acc.clone()],
                        &mut acc_im[acc],
                        n,
                    );
                }
            }
            for px in 0..w {
                finish_pixels_lanes(
                    &pe,
                    q,
                    &acc_re[px * lane_bins..][..lane_bins],
                    &acc_im[px * lane_bins..][..lane_bins],
                    &mut fre,
                    &mut fim,
                    n,
                    bo_slab,
                    slab,
                    hw,
                    y * w + px,
                );
            }
        }
    });

    let mut out = vec![0i16; n * c_out * hw];
    for bo in 0..weights.out_blocks {
        for s in 0..n {
            let src = &staged[(bo * n + s) * slab..][..slab];
            out[s * c_out * hw + bo * slab..][..slab].copy_from_slice(src);
        }
    }
    FxBatch::from_flat(q, n, c_out * hw, out)
}

/// Per-block-scaled narrow weight spectra — the "fine-grained
/// frequency-domain quantization" of He et al. (ASP-DAC 2021) the paper
/// cites as an available improvement (§V-C2): each block's spectrum is
/// stored in `bits`-bit words with its own fractional exponent chosen so
/// the block's largest bin just fits, and the eMAC rescales block
/// contributions to a common accumulator format.
#[derive(Debug, Clone)]
pub struct ScaledFxWeights {
    /// The `bits`-bit words in the uniform layout: skip index, weight
    /// stream and entry lists.
    fx: FxWeights,
    bits: u32,
    /// Fractional exponent of each live block, by live ordinal.
    fracs: Vec<u32>,
}

impl ScaledFxWeights {
    /// Quantizes a folded layer to `bits`-bit weight words (activations
    /// stay in `q`-format 16-bit).
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= bits <= 16` and the kernel is square with odd
    /// size.
    pub fn from_folded(bits: u32, conv: &ConvBlockCirculant<f32>) -> Self {
        assert!((4..=16).contains(&bits), "bits must be in 4..=16");
        let max_word = (1i32 << (bits - 1)) - 1;
        let mut fracs = Vec::new();
        let fx = FxWeights::quantize(conv, |half, bins| {
            let max_mag = half
                .iter()
                .map(|c| c.re.abs().max(c.im.abs()))
                .fold(0.0f64, f64::max)
                .max(1e-12);
            // Largest frac such that max_mag·2^frac ≤ max_word.
            let frac = ((max_word as f64 / max_mag).log2().floor() as i64).clamp(0, 30) as u32;
            let scale = f64::from(1u32 << frac.min(31));
            let word = |v: f64| ((v * scale).round() as i32).clamp(-max_word, max_word) as i16;
            bins.extend(half.iter().map(|c| ComplexFx::new(word(c.re), word(c.im))));
            fracs.push(frac);
        });
        ScaledFxWeights { fx, bits, fracs }
    }

    /// Weight word width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

/// Like [`conv_forward_fx`] but with per-block-scaled `bits`-bit weights:
/// products are rescaled to the activation format's `2·frac` accumulator
/// before accumulation.
///
/// # Panics
///
/// Panics if the input length disagrees with the layer dimensions.
pub fn conv_forward_fx_scaled(
    q: QFormat,
    weights: &ScaledFxWeights,
    x: &[i16],
    h: usize,
    w: usize,
) -> Vec<i16> {
    let fx = &weights.fx;
    let bs = fx.bs;
    let c_in = fx.in_blocks * bs;
    let c_out = fx.out_blocks * bs;
    assert_eq!(x.len(), c_in * h * w, "input length mismatch");
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;
    let act_frac = q.frac_bits();
    let mut out = vec![0i16; c_out * h * w];

    let in_spectra = input_spectra(&pe, x, fx.in_blocks, h, w);
    record_fx_layer(fx, h, w);

    parallel::par_chunk_map(&mut out[..], bs * h * w, |bo, out_block| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan_scaled", "hwsim.fx");
        // i64 accumulators at 2·act_frac fractional bits.
        let mut acc_re = vec![0i64; bins];
        let mut acc_im = vec![0i64; bins];
        let mut full = vec![ComplexFx::zero(); bs];
        for y in 0..h {
            for xx in 0..w {
                acc_re.fill(0);
                acc_im.fill(0);
                for e in &fx.entries[bo] {
                    let Some(pix) = e.input_pixel(y, xx, h, w) else {
                        continue;
                    };
                    // Product frac = act_frac + wfrac; rescale to
                    // 2·act_frac by shifting by (wfrac − act_frac).
                    let shift = i64::from(weights.fracs[e.w_off / bins]) - i64::from(act_frac);
                    let xs = &in_spectra[pix * bins..][..bins];
                    for (k, (a, b)) in xs.iter().zip(fx.entry_bins(e)).enumerate() {
                        let re =
                            i64::from(a.re) * i64::from(b.re) - i64::from(a.im) * i64::from(b.im);
                        let im =
                            i64::from(a.re) * i64::from(b.im) + i64::from(a.im) * i64::from(b.re);
                        let (re, im) = if shift >= 0 {
                            (re >> shift, im >> shift)
                        } else {
                            (re << -shift, im << -shift)
                        };
                        acc_re[k] += re;
                        acc_im[k] += im;
                    }
                }
                for k in 0..bins {
                    let narrow = |v: i64| -> i16 {
                        let rounding = 1i64 << (act_frac - 1);
                        ((v + rounding) >> act_frac).clamp(i64::from(i16::MIN), i64::from(i16::MAX))
                            as i16
                    };
                    full[k] = ComplexFx::new(narrow(acc_re[k]), narrow(acc_im[k]));
                }
                finish_pixel(&pe, &mut full, out_block, h * w, y * w + xx);
            }
        }
    });
    out
}

/// Error statistics of the fixed-point layer output against a float
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantError {
    /// Largest absolute error.
    pub max_abs: f64,
    /// Root-mean-square error.
    pub rms: f64,
    /// RMS of the reference signal (for SNR).
    pub signal_rms: f64,
}

impl QuantError {
    /// Signal-to-quantization-noise ratio in dB (∞ when error is zero).
    pub fn snr_db(&self) -> f64 {
        if self.rms <= 0.0 {
            f64::INFINITY
        } else {
            20.0 * (self.signal_rms / self.rms).log10()
        }
    }
}

/// Compares the fixed-point datapath against the float reference on one
/// layer: quantizes `x_float`, runs [`conv_forward_fx`], and measures the
/// error against `reference` (the float layer's output).
///
/// # Panics
///
/// Panics on length mismatches.
pub fn quantization_error(
    q: QFormat,
    weights: &FxWeights,
    x_float: &[f32],
    reference: &[f32],
    h: usize,
    w: usize,
) -> QuantError {
    let x_fx: Vec<i16> = x_float.iter().map(|&v| q.from_f32(v)).collect();
    let y_fx = conv_forward_fx(q, weights, &x_fx, h, w);
    assert_eq!(y_fx.len(), reference.len(), "reference length mismatch");
    let mut max_abs = 0.0f64;
    let mut sq = 0.0f64;
    let mut ref_sq = 0.0f64;
    for (fx, &want) in y_fx.iter().zip(reference) {
        let got = q.to_f64(*fx);
        let err = (got - f64::from(want)).abs();
        max_abs = max_abs.max(err);
        sq += err * err;
        ref_sq += f64::from(want) * f64::from(want);
    }
    let n = reference.len() as f64;
    QuantError {
        max_abs,
        rms: (sq / n).sqrt(),
        signal_rms: (ref_sq / n).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circulant::{BlockCirculant, CirculantMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn random_conv(
        seed: u64,
        bs: usize,
        ob: usize,
        ib: usize,
        k: usize,
    ) -> ConvBlockCirculant<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let grids = (0..k * k)
            .map(|_| {
                let blocks = (0..ob * ib)
                    .map(|_| {
                        CirculantMatrix::new(
                            init::gaussian::<f32>(&mut rng, &[bs], 0.0, 0.2).into_vec(),
                        )
                    })
                    .collect();
                BlockCirculant::from_blocks(bs, ob, ib, blocks)
            })
            .collect();
        ConvBlockCirculant::from_grids(k, k, grids)
    }

    /// Float reference: direct dense convolution of the folded weights.
    fn conv_forward_float(
        conv: &ConvBlockCirculant<f32>,
        x: &[f32],
        h: usize,
        w: usize,
    ) -> Vec<f32> {
        let dense = conv.to_dense();
        let (co, ci) = conv.channel_dims();
        let (kh, kw) = conv.kernel_dims();
        let pad = (kh - 1) / 2;
        let mut out = vec![0.0f32; co * h * w];
        for o in 0..co {
            for y in 0..h {
                for xx in 0..w {
                    let mut acc = 0.0f32;
                    for i in 0..ci {
                        for p in 0..kh {
                            for q in 0..kw {
                                let iy = y as isize + p as isize - pad as isize;
                                let ix = xx as isize + q as isize - pad as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    acc += x[i * h * w + iy as usize * w + ix as usize]
                                        * dense.at(&[o, i, p, q]);
                                }
                            }
                        }
                    }
                    out[o * h * w + y * w + xx] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn fixed_point_conv_tracks_float_reference() {
        let conv = random_conv(1, 8, 1, 1, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let h = 5;
        let w = 5;
        let x: Vec<f32> = init::gaussian::<f32>(&mut rng, &[8 * h * w], 0.0, 0.5).into_vec();
        let q = QFormat::q8();
        let want = conv_forward_float(&conv, &x, h, w);
        let weights = FxWeights::from_folded(q, &conv);
        let err = quantization_error(q, &weights, &x, &want, h, w);
        assert!(err.max_abs < 0.15, "max err = {}", err.max_abs);
        assert!(err.snr_db() > 20.0, "snr = {} dB", err.snr_db());
    }

    #[test]
    fn pruned_blocks_are_skipped_in_fx_path() {
        let mut conv = random_conv(3, 4, 2, 2, 1);
        // Prune output block row 1 entirely → its output channels are 0.
        for bi in 0..2 {
            *conv.grid_mut(0, 0).block_mut(1, bi) = CirculantMatrix::zeros(4);
        }
        let q = QFormat::q8();
        let weights = FxWeights::from_folded(q, &conv);
        assert_eq!(weights.live_count(), 2);
        let x: Vec<i16> = (0..8 * 4)
            .map(|i| q.from_f64((i % 5) as f64 * 0.1))
            .collect();
        let y = conv_forward_fx(q, &weights, &x, 2, 2);
        // Channels 4..8 (output block 1) must be exactly zero.
        for c in 4..8 {
            for pix in 0..4 {
                assert_eq!(y[c * 4 + pix], 0, "channel {c} pixel {pix}");
            }
        }
    }

    #[test]
    fn batched_fx_is_bit_identical_per_sample() {
        let q = QFormat::q8();
        // Conv (k=3, interior + border rows), FC-shaped (k=1, 1×1), and a
        // pruned grid all must match the single-sample kernel exactly.
        // (seed, bs, out_blocks, in_blocks, k, h, w, prune)
        let cases = [
            (10, 4, 2, 2, 3, 5, 4, false),
            (11, 8, 4, 4, 1, 1, 1, false),
            (12, 4, 3, 3, 3, 4, 4, true),
        ];
        for (seed, bs, ob, ib, k, h, w, prune) in cases {
            let mut conv = random_conv(seed, bs, ob, ib, k);
            if prune {
                for bi in 0..ib {
                    *conv.grid_mut(0, 0).block_mut(0, bi) = CirculantMatrix::zeros(bs);
                }
            }
            let weights = FxWeights::from_folded(q, &conv);
            let c_in = ib * bs;
            let n = 5;
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let xs: Vec<i16> = init::gaussian::<f32>(&mut rng, &[n * c_in * h * w], 0.0, 0.5)
                .into_vec()
                .iter()
                .map(|&v| q.from_f32(v))
                .collect();
            let packed = conv_forward_fx_batch_packed(
                &weights,
                &FxBatch::from_flat(q, n, c_in * h * w, xs.clone()),
                h,
                w,
            );
            assert_eq!((packed.len(), packed.sample_len()), (n, ob * bs * h * w));
            let batched = packed.as_flat();
            for s in 0..n {
                let single =
                    conv_forward_fx(q, &weights, &xs[s * c_in * h * w..][..c_in * h * w], h, w);
                assert_eq!(
                    batched[s * single.len()..][..single.len()],
                    single[..],
                    "sample {s} of case seed {seed} diverged"
                );
            }
        }
    }

    #[test]
    fn batched_fx_empty_batch_is_empty() {
        let q = QFormat::q8();
        let conv = random_conv(22, 4, 1, 1, 3);
        let weights = FxWeights::from_folded(q, &conv);
        let empty = FxBatch::from_flat(q, 0, 4 * 3 * 3, Vec::new());
        assert!(conv_forward_fx_batch_packed(&weights, &empty, 3, 3).is_empty());
    }

    #[test]
    fn stride1_pad_shapes() {
        let conv = random_conv(4, 4, 1, 1, 3);
        let q = QFormat::q8();
        let weights = FxWeights::from_folded(q, &conv);
        let x = vec![0i16; 4 * 6 * 7];
        let y = conv_forward_fx(q, &weights, &x, 6, 7);
        assert_eq!(y.len(), 4 * 6 * 7);
    }

    #[test]
    fn scaled_8bit_weights_track_the_16bit_path() {
        // Per-block scaling lets 8-bit weight words approach the plain
        // 16-bit path's accuracy — the He et al. [29] effect the paper
        // cites as future improvement.
        let conv = random_conv(7, 8, 2, 2, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let h = 5;
        let w = 5;
        let x: Vec<f32> = init::gaussian::<f32>(&mut rng, &[16 * h * w], 0.0, 0.5).into_vec();
        let q = QFormat::q8();
        let want = conv_forward_float(&conv, &x, h, w);
        let x_fx: Vec<i16> = x.iter().map(|&v| q.from_f32(v)).collect();

        let err_of = |y: Vec<i16>| -> f64 {
            y.iter()
                .zip(&want)
                .map(|(&fx, &r)| (q.to_f64(fx) - f64::from(r)).abs())
                .fold(0.0, f64::max)
        };
        let full16 = FxWeights::from_folded(q, &conv);
        let e16 = err_of(conv_forward_fx(q, &full16, &x_fx, h, w));
        let scaled8 = ScaledFxWeights::from_folded(8, &conv);
        let e8 = err_of(conv_forward_fx_scaled(q, &scaled8, &x_fx, h, w));
        assert!(e8 < 0.25, "8-bit scaled error = {e8}");
        assert!(e8 < 4.0 * e16.max(0.02), "e8 = {e8} vs e16 = {e16}");
        // And width still matters: 4-bit is clearly worse than 8-bit.
        let scaled4 = ScaledFxWeights::from_folded(4, &conv);
        let e4 = err_of(conv_forward_fx_scaled(q, &scaled4, &x_fx, h, w));
        assert!(e4 > e8, "e4 = {e4} vs e8 = {e8}");
    }

    #[test]
    fn scaled_weights_skip_pruned_blocks() {
        let mut conv = random_conv(9, 4, 2, 1, 1);
        *conv.grid_mut(0, 0).block_mut(1, 0) = CirculantMatrix::zeros(4);
        let q = QFormat::q8();
        let weights = ScaledFxWeights::from_folded(8, &conv);
        let x: Vec<i16> = (0..4 * 4).map(|i| q.from_f64(0.1 * i as f64)).collect();
        let y = conv_forward_fx_scaled(q, &weights, &x, 2, 2);
        for c in 4..8 {
            for pix in 0..4 {
                assert_eq!(y[c * 4 + pix], 0);
            }
        }
        assert_eq!(weights.bits(), 8);
    }

    #[test]
    fn snr_improves_with_more_fractional_bits() {
        let conv = random_conv(5, 8, 1, 1, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let h = 4;
        let w = 4;
        let x: Vec<f32> = init::gaussian::<f32>(&mut rng, &[8 * h * w], 0.0, 0.4).into_vec();
        let want = conv_forward_float(&conv, &x, h, w);
        let mut snrs = Vec::new();
        for frac in [6u32, 8, 10] {
            let q = QFormat::new(frac);
            let weights = FxWeights::from_folded(q, &conv);
            snrs.push(quantization_error(q, &weights, &x, &want, h, w).snr_db());
        }
        assert!(snrs[1] > snrs[0] && snrs[2] > snrs[1], "{snrs:?}");
    }
}
