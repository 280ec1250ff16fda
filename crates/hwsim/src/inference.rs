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
//!   [`FxBatch`] in, a packed batch out, samples innermost. It is the
//!   16-bit instance of `circulant::schedule`'s one conv schedule, whose
//!   `f32` instance serves float convs. One body serves every shape: a
//!   `1×1` fully-connected layer is one row of one pixel, and border
//!   pixels clip each entry's column range.
//! - [`conv_forward_fx_scaled`] runs per-block-scaled narrow weights
//!   ([`ScaledFxWeights`]) on one sample.

use crate::fixed::{ComplexAcc, ComplexFx, FxBatch, QFormat};
use crate::fxfft::FxFftPe;
use circulant::schedule::{self, ConvShape, EmacEntry, EntryLists, LaneMode};
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
    FX_INPUT_FFTS.add(weights.in_blocks() as u64 * pixels);
    FX_OUTPUT_IFFTS.add(weights.out_blocks() as u64 * pixels);
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
    skip: Vec<bool>,
    bins: Vec<ComplexFx>,
    entries: EntryLists,
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
        let entries = EntryLists::new(bs, k, out_blocks, in_blocks, &skip);
        assert_eq!(
            bins.len(),
            entries.live_count() * (bs / 2 + 1),
            "spectra length"
        );
        FxWeights {
            skip,
            bins,
            entries,
        }
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> usize {
        self.entries.live_count()
    }

    /// On-chip weight footprint in bytes (complex 16-bit pairs).
    pub fn weight_bytes(&self) -> usize {
        self.bins.len() * 4
    }

    /// Block size `BS`.
    pub fn block_size(&self) -> usize {
        self.entries.block_size()
    }

    /// Input channel-block count (`c_in / BS`).
    pub fn in_blocks(&self) -> usize {
        self.entries.in_blocks()
    }

    /// Output channel-block count (`c_out / BS`).
    pub fn out_blocks(&self) -> usize {
        self.entries.out_blocks()
    }

    /// Square kernel size.
    pub fn kernel(&self) -> usize {
        self.entries.kernel()
    }

    /// The datapath's window on an `h × w` map: stride 1, padding
    /// `(k−1)/2`.
    fn shape(&self, h: usize, w: usize) -> ConvShape {
        ConvShape {
            h,
            w,
            stride: 1,
            pad: self.kernel() / 2,
        }
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
        let per_block = self.block_size() / 2 + 1;
        &self.bins[e.live * per_block..][..per_block]
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
    let bs = weights.block_size();
    assert_eq!(
        x.len(),
        weights.in_blocks() * bs * h * w,
        "input length mismatch"
    );
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;
    let spectra = input_spectra(&pe, x, weights.in_blocks(), h, w);
    record_fx_layer(weights, h, w);
    let shape = weights.shape(h, w);
    let mut out = vec![0i16; weights.out_blocks() * bs * h * w];
    parallel::par_chunk_map(&mut out[..], bs * h * w, |bo, out_block| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan", "hwsim.fx");
        let mut acc = vec![ComplexAcc::zero(); bins];
        let mut full = vec![ComplexFx::zero(); bs];
        for y in 0..h {
            for xx in 0..w {
                acc.fill(ComplexAcc::zero());
                for e in weights.entries.block(bo) {
                    let Some(pix) = e.input_pixel(y, xx, shape) else {
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

/// The fixed-point instance of the one conv schedule: the layer's weights
/// in format `q` with its FFT PE.
struct FxLanes<'a> {
    weights: &'a FxWeights,
    pe: FxFftPe,
    q: QFormat,
}

impl LaneMode for FxLanes<'_> {
    type Word = i16;
    type Acc = i32;
    /// The imaginary `[BS][n]` plane of the lane transforms (the real
    /// plane is the block being transformed).
    type Scratch = Vec<i16>;

    fn entries(&self) -> &EntryLists {
        &self.weights.entries
    }

    fn scratch(&self, n: usize) -> Vec<i16> {
        vec![0; self.weights.block_size() * n]
    }

    /// The lane FFT ([`FxFftPe::forward_lanes`]): per lane exactly
    /// [`input_spectra`]'s words.
    fn fft(
        &self,
        block: &mut [i16],
        re: &mut [i16],
        im: &mut [i16],
        bin_stride: usize,
        n: usize,
        bim: &mut Vec<i16>,
    ) {
        bim.fill(0);
        self.pe.forward_lanes(block, bim, n);
        for k in 0..=self.weights.block_size() / 2 {
            re[k * bin_stride..][..n].copy_from_slice(&block[k * n..][..n]);
            im[k * bin_stride..][..n].copy_from_slice(&bim[k * n..][..n]);
        }
    }

    fn mac(
        &self,
        live: usize,
        xre: &[i16],
        xim: &[i16],
        x_stride: usize,
        are: &mut [i32],
        aim: &mut [i32],
        acc_stride: usize,
        len: usize,
    ) {
        let per_block = self.weights.block_size() / 2 + 1;
        let bins = &self.weights.bins[live * per_block..][..per_block];
        for (k, &w) in bins.iter().enumerate() {
            let (x, a) = (k * x_stride, k * acc_stride);
            let (xr, xi) = (&xre[x..][..len], &xim[x..][..len]);
            crate::pe::mac_lanes(w, xr, xi, &mut are[a..][..len], &mut aim[a..][..len]);
        }
    }

    /// Narrows the accumulators, closes conjugate symmetry and runs the
    /// lane IFFT — the scalar oracle's narrowing and [`finish_pixel`] for
    /// all `n` lanes at once, bit-identical per lane.
    fn finish(
        &self,
        are: &[i32],
        aim: &[i32],
        bin_stride: usize,
        out: &mut [i16],
        n: usize,
        fim: &mut Vec<i16>,
    ) {
        let bs = self.weights.block_size();
        for k in 0..=bs / 2 {
            let (ar, ai) = (&are[k * bin_stride..][..n], &aim[k * bin_stride..][..n]);
            let (rr, ri) = (&mut out[k * n..][..n], &mut fim[k * n..][..n]);
            for s in 0..n {
                rr[s] = self.q.narrow(ar[s]);
                ri[s] = self.q.narrow(ai[s]);
            }
        }
        for k in 1..bs / 2 {
            for s in 0..n {
                out[(bs - k) * n + s] = out[k * n + s];
                fim[(bs - k) * n + s] = fim[k * n + s].saturating_neg();
            }
        }
        self.pe.inverse_lanes(out, fim, n);
    }
}

/// The fixed-point conv datapath in fixed-width SoA lane form — the one
/// lane kernel, for every layer shape, and the one the serving paths
/// dispatch: a packed [`FxBatch`] of `n` samples (`[n, c_in, h, w]`, the
/// batch's format as `q`) in, `[n, c_out, h, w]` words out, no
/// per-element float round-trips.
///
/// It is the fixed-point instance of [`schedule::conv_lanes`], the one
/// conv schedule: input spectra, `i32` eMAC accumulators and IFFT buffers
/// live in flat split re/im planes with the **sample dimension
/// innermost**, whose inner loops the autovectorizer widens; one weight
/// stream is shared by all `n` samples, the software analogue of the
/// accelerator's parallel PE lanes (§IV-C). The mode supplies the lane FFT
/// ([`FxFftPe::forward_lanes`]), the wide eMAC ([`crate::pe::mac_lanes`])
/// and the narrow → conjugate fill → lane IFFT finish. A fully-connected
/// layer (`k = 1` on a `1×1` map) is one row of one pixel.
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
    let (q, n) = (batch.format(), batch.len());
    let mode = FxLanes {
        weights,
        pe: FxFftPe::new(weights.block_size(), q),
        q,
    };
    let out = schedule::conv_lanes(&mode, batch.as_flat(), n, weights.shape(h, w));
    for _ in 0..n {
        record_fx_layer(weights, h, w);
    }
    let c_out = weights.out_blocks() * weights.block_size();
    FxBatch::from_flat(q, n, c_out * h * w, out)
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
    let bs = fx.block_size();
    let c_in = fx.in_blocks() * bs;
    let c_out = fx.out_blocks() * bs;
    assert_eq!(x.len(), c_in * h * w, "input length mismatch");
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;
    let act_frac = q.frac_bits();
    let mut out = vec![0i16; c_out * h * w];

    let in_spectra = input_spectra(&pe, x, fx.in_blocks(), h, w);
    record_fx_layer(fx, h, w);
    let shape = fx.shape(h, w);

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
                for e in fx.entries.block(bo) {
                    let Some(pix) = e.input_pixel(y, xx, shape) else {
                        continue;
                    };
                    // Product frac = act_frac + wfrac; rescale to
                    // 2·act_frac by shifting by (wfrac − act_frac).
                    let shift = i64::from(weights.fracs[e.live]) - i64::from(act_frac);
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
