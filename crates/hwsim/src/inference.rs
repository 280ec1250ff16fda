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
//! Each schedule of the datapath is one function:
//!
//! - [`conv_forward_fx_batch_scalar`] is the scalar oracle, element at a
//!   time over complex words and kept unoptimized. It is the only scalar
//!   conv body: [`conv_forward_fx`] is the oracle at batch width 1, and
//!   `1×1` fully-connected layers run through its general path.
//! - [`conv_forward_fx_batch_packed`] is the one lane entry point: a
//!   packed [`FxBatch`] in, a packed batch out, samples innermost. It
//!   sends `1×1` fully-connected layers to a lane FC fast path, because
//!   the general lane path is bit-identical but measurably slower on
//!   them (see `fc_forward_fx_batch`).
//! - [`conv_forward_fx_scaled`] runs per-block-scaled narrow weights
//!   ([`ScaledFxWeights`]) on one sample.

use crate::fixed::{ComplexAcc, ComplexFx, FxBatch, QFormat};
use crate::fxfft::FxFftPe;
use circulant::ConvBlockCirculant;
use fft::real::HalfSpectrum;
use tensor::parallel;

/// Fixed-point input FFTs run (one per input block per pixel).
static FX_INPUT_FFTS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.input_ffts");
/// Fixed-point output IFFTs run (one per output block per pixel).
static FX_OUTPUT_IFFTS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.output_iffts");
/// Block eMACs scheduled by the plans (live entries × pixels; border
/// pixels skip out-of-bounds taps, so this is a slight over-count).
static FX_EMAC_BLOCKS: telemetry::Counter = telemetry::Counter::new("hwsim.fx.emac_blocks");
/// Per out-block eMAC-plan execution latency distribution (nanoseconds):
/// one observation covers every pixel of one output channel block.
static FX_PLAN_EXEC_NS: telemetry::Histogram = telemetry::Histogram::new("hwsim.fx.plan_exec_ns");

/// Coarse arithmetic counts for one fixed-point conv call, computed from
/// the layer geometry outside the hot loops.
fn record_fx_layer(plans: &[EmacPlan], in_blocks: usize, out_blocks: usize, h: usize, w: usize) {
    if !telemetry::enabled() {
        return;
    }
    let pixels = (h * w) as u64;
    FX_INPUT_FFTS.add(in_blocks as u64 * pixels);
    FX_OUTPUT_IFFTS.add(out_blocks as u64 * pixels);
    let entries: usize = plans.iter().map(|p| p.entries.len()).sum();
    FX_EMAC_BLOCKS.add(entries as u64 * pixels);
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

/// One live eMAC operand of an out-block's plan: which shifted input
/// spectrum to read and where its weight bins sit in the plan's flat
/// weight array.
struct EmacEntry {
    /// Kernel tap offsets relative to the output pixel (`dy = p − pad`).
    dy: isize,
    dx: isize,
    /// Pixel-relative spectrum offset `dy·w + dx` — valid only when the
    /// tap stays in bounds, i.e. on the interior fast path.
    rel: isize,
    /// Flat-spectra base of the entry's in-block, in pixel units
    /// (`bi · h · w`).
    in_base: usize,
    /// Start of the entry's `bins` weight words in [`EmacPlan::weights`].
    w_off: usize,
}

/// Per-out-block eMAC schedule: the skip bitmap resolved once into a flat
/// entry list (seed accumulation order: tap-major, then in-block), with
/// every live block's weight bins packed contiguously. The per-pixel loop
/// then walks two dense arrays instead of chasing nested `Vec`s and
/// re-deriving block indices and liveness 𝐡·𝐰 times.
struct EmacPlan {
    entries: Vec<EmacEntry>,
    weights: Vec<ComplexFx>,
    /// Per-entry extra word (the block's scale shift for the per-block
    /// scaled path; unused by the uniform path).
    shifts: Vec<i64>,
}

/// Geometry an [`EmacPlan`] is built against.
#[derive(Debug, Clone, Copy)]
struct PlanDims {
    kh: usize,
    kw: usize,
    in_blocks: usize,
    h: usize,
    w: usize,
}

/// Builds one out-block's plan. `block_bins(blk)` returns the block's
/// quantized bins (with its scale shift) or `None` when pruned; bins are
/// copied into the plan's contiguous weight array.
fn emac_plan<'a>(
    d: PlanDims,
    bo: usize,
    index: impl Fn(usize, usize, usize, usize) -> usize,
    mut block_bins: impl FnMut(usize) -> Option<(&'a [ComplexFx], i64)>,
) -> EmacPlan {
    let PlanDims {
        kh,
        kw,
        in_blocks,
        h,
        w,
    } = d;
    let pad = (kh - 1) / 2;
    let mut plan = EmacPlan {
        entries: Vec::new(),
        weights: Vec::new(),
        shifts: Vec::new(),
    };
    for p in 0..kh {
        for qq in 0..kw {
            let dy = p as isize - pad as isize;
            let dx = qq as isize - pad as isize;
            for bi in 0..in_blocks {
                let blk = index(p, qq, bo, bi);
                let Some((bins, shift)) = block_bins(blk) else {
                    continue; // skip-index hit, resolved once per layer
                };
                plan.entries.push(EmacEntry {
                    dy,
                    dx,
                    rel: dy * w as isize + dx,
                    in_base: bi * h * w,
                    w_off: plan.weights.len(),
                });
                plan.weights.extend_from_slice(bins);
                plan.shifts.push(shift);
            }
        }
    }
    plan
}

/// Pre-quantized complex weights of one folded BCM conv layer: one
/// half-spectrum (`BS/2+1` bins) per live block, plus the skip bitmap.
#[derive(Debug, Clone)]
pub struct FxWeights {
    bs: usize,
    kh: usize,
    kw: usize,
    out_blocks: usize,
    in_blocks: usize,
    /// `[tap][out_block][in_block]` → bins (empty when pruned).
    spectra: Vec<Vec<ComplexFx>>,
    live: Vec<bool>,
}

impl FxWeights {
    /// Quantizes a folded layer's weight spectra into format `q`.
    pub fn from_folded(q: QFormat, conv: &ConvBlockCirculant<f32>) -> Self {
        let bs = conv.block_size();
        let (kh, kw) = conv.kernel_dims();
        let (ob, ib) = conv.grid_dims();
        let mut spectra = Vec::with_capacity(kh * kw * ob * ib);
        let mut live = Vec::with_capacity(kh * kw * ob * ib);
        for p in 0..kh {
            for qq in 0..kw {
                let grid = conv.grid(p, qq);
                for bo in 0..ob {
                    for bi in 0..ib {
                        let block = grid.block(bo, bi);
                        if block.is_zero() {
                            spectra.push(Vec::new());
                            live.push(false);
                        } else {
                            let w64: Vec<f64> = block
                                .defining_vector()
                                .iter()
                                .map(|&v| f64::from(v))
                                .collect();
                            let half = HalfSpectrum::forward(&w64);
                            spectra.push(
                                half.bins()
                                    .iter()
                                    .map(|c| ComplexFx::from_f64(q, c.re, c.im))
                                    .collect(),
                            );
                            live.push(true);
                        }
                    }
                }
            }
        }
        FxWeights {
            bs,
            kh,
            kw,
            out_blocks: ob,
            in_blocks: ib,
            spectra,
            live,
        }
    }

    /// Rebuilds weights from raw parts (a decoded deployment package):
    /// `skip` is the per-block liveness bitmap (tap-major, out, in) and
    /// `spectra_words` the interleaved `(re, im)` words of every live
    /// block's `BS/2+1` bins, in skip order.
    ///
    /// # Panics
    ///
    /// Panics if the counts are inconsistent.
    pub fn from_parts(
        bs: usize,
        k: usize,
        out_blocks: usize,
        in_blocks: usize,
        skip: &[bool],
        spectra_words: &[i16],
    ) -> Self {
        assert_eq!(skip.len(), k * k * out_blocks * in_blocks, "skip length");
        let bins = bs / 2 + 1;
        let live = skip.iter().filter(|&&b| b).count();
        assert_eq!(spectra_words.len(), live * bins * 2, "spectra length");
        let mut spectra = Vec::with_capacity(skip.len());
        let mut cursor = 0usize;
        for &alive in skip {
            if alive {
                let words = &spectra_words[cursor..cursor + bins * 2];
                spectra.push(
                    words
                        .chunks_exact(2)
                        .map(|c| ComplexFx::new(c[0], c[1]))
                        .collect(),
                );
                cursor += bins * 2;
            } else {
                spectra.push(Vec::new());
            }
        }
        FxWeights {
            bs,
            kh: k,
            kw: k,
            out_blocks,
            in_blocks,
            spectra,
            live: skip.to_vec(),
        }
    }

    fn index(&self, p: usize, q: usize, bo: usize, bi: usize) -> usize {
        ((p * self.kw + q) * self.out_blocks + bo) * self.in_blocks + bi
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
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
        self.kh
    }
}

/// Runs one folded BCM conv layer (stride 1, symmetric zero padding
/// `(k−1)/2`) on a quantized single-sample input `[c_in, h, w]` through
/// the fixed-point datapath, returning `[c_out, h, w]` words.
///
/// This is the scalar oracle [`conv_forward_fx_batch_scalar`] at batch
/// width 1.
///
/// # Panics
///
/// Panics if the input length disagrees with the layer dimensions.
pub fn conv_forward_fx(q: QFormat, weights: &FxWeights, x: &[i16], h: usize, w: usize) -> Vec<i16> {
    conv_forward_fx_batch_scalar(q, weights, x, 1, h, w)
}

/// Narrows one pixel's accumulators, expands the conjugate-symmetric
/// spectrum, runs the IFFT with the shift divider, and writes the real
/// outputs — the tail every output pixel shares.
fn finish_pixel(
    pe: &FxFftPe,
    q: QFormat,
    acc: &[ComplexAcc],
    full: &mut [ComplexFx],
    out_block: &mut [i16],
    hw: usize,
    pix: usize,
) {
    let bs = full.len();
    let bins = acc.len();
    for k in 0..bins {
        full[k] = acc[k].narrow(q);
    }
    for k in 1..bs / 2 {
        full[bs - k] = full[k].conj();
    }
    pe.inverse(full);
    for (oi, v) in full.iter().enumerate() {
        out_block[oi * hw + pix] = v.re;
    }
}

/// The **scalar oracle** of the fixed-point conv datapath: runs `n`
/// samples (`xs` is `[n, c_in, h, w]` row-major, the result
/// `[n, c_out, h, w]`) element at a time over
/// [`ComplexFx`]/[`ComplexAcc`] words, with the eMAC plans, twiddle ROM,
/// and weight streams prepared once per invocation.
///
/// This is the only scalar conv body. [`conv_forward_fx`] is this
/// function at `n = 1`, and `1×1` fully-connected layers run through the
/// same general path. It is kept unoptimized on purpose: it is the
/// specification the lane kernel [`conv_forward_fx_batch_packed`] must
/// match word for word. It stays in the build (not test-gated) so the
/// `exp_speedup`/`exp_serve` benchmarks can time scalar-vs-lane at equal
/// plan amortization and the proptest suite can assert bit-identity;
/// production callers use the lane kernel.
///
/// Per (sample, pixel, bin) the accumulation order over live entries and
/// every fixed-point operation are those of a batch of one; only
/// cross-sample scheduling differs. An empty batch (`n = 0`) returns no
/// words, as the lane kernel does.
///
/// # Panics
///
/// Panics if `xs.len() != n * c_in * h * w`.
pub fn conv_forward_fx_batch_scalar(
    q: QFormat,
    weights: &FxWeights,
    xs: &[i16],
    n: usize,
    h: usize,
    w: usize,
) -> Vec<i16> {
    let bs = weights.bs;
    let c_in = weights.in_blocks * bs;
    let c_out = weights.out_blocks * bs;
    assert_eq!(xs.len(), n * c_in * h * w, "batch input length mismatch");
    if n == 0 {
        return Vec::new();
    }
    let pad = (weights.kh - 1) / 2;
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;

    // Per-sample input spectra, concatenated: sample `s` starts at
    // `s · in_blocks · h · w · bins` and uses the same `[bi][pix][bins]`
    // layout the plans index into.
    let stride = weights.in_blocks * h * w * bins;
    let spectra: Vec<ComplexFx> = xs
        .chunks_exact(c_in * h * w)
        .flat_map(|x| input_spectra(&pe, x, weights.in_blocks, h, w))
        .collect();

    let plans: Vec<EmacPlan> = (0..weights.out_blocks)
        .map(|bo| {
            emac_plan(
                PlanDims {
                    kh: weights.kh,
                    kw: weights.kw,
                    in_blocks: weights.in_blocks,
                    h,
                    w,
                },
                bo,
                |p, qq, b, bi| weights.index(p, qq, b, bi),
                |blk| weights.live[blk].then(|| (&weights.spectra[blk][..], 0)),
            )
        })
        .collect();
    for _ in 0..n {
        record_fx_layer(&plans, weights.in_blocks, weights.out_blocks, h, w);
    }

    // Block-major staging `[bo][s][bs·h·w]` keeps each out-block's batch
    // slab contiguous for the worker pool; scattered back to sample-major
    // at the end.
    let slab = bs * h * w;
    let mut staged = vec![0i16; weights.out_blocks * n * slab];
    parallel::par_chunk_map(&mut staged[..], n * slab, |bo, bo_slab| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan_batch", "hwsim.fx");
        let plan = &plans[bo];
        let mut acc = vec![ComplexAcc::zero(); bins];
        let mut full = vec![ComplexFx::zero(); bs];
        // Interior column range [x0, x1): every horizontal tap in bounds.
        let x0 = pad.min(w);
        let x1 = w.saturating_sub(weights.kw - 1 - pad).max(x0);
        let row = (x1 - x0) * bins;
        let mut row_acc = vec![ComplexAcc::zero(); n * row];
        for y in 0..h {
            let y_interior = y >= pad && y + (weights.kh - 1 - pad) < h;
            if y_interior && x0 < x1 {
                row_acc.fill(ComplexAcc::zero());
                // Entry-major over the whole batch: one weight load per
                // entry row serves all samples. Per sample the entry
                // order is the tap-major, then in-block plan order.
                for e in &plan.entries {
                    let ws = &plan.weights[e.w_off..e.w_off + bins];
                    let rel = ((e.in_base + y * w + x0) as isize + e.rel) as usize * bins;
                    for (s, racc) in row_acc.chunks_exact_mut(row).enumerate() {
                        let xs_row = &spectra[s * stride + rel..s * stride + rel + row];
                        for (acc_pix, xs_pix) in
                            racc.chunks_exact_mut(bins).zip(xs_row.chunks_exact(bins))
                        {
                            for (a, (xv, wv)) in acc_pix.iter_mut().zip(xs_pix.iter().zip(ws)) {
                                a.mac(q, *xv, *wv);
                            }
                        }
                    }
                }
                for (s, racc) in row_acc.chunks_exact(row).enumerate() {
                    let out_block = &mut bo_slab[s * slab..][..slab];
                    for xx in x0..x1 {
                        finish_pixel(
                            &pe,
                            q,
                            &racc[(xx - x0) * bins..][..bins],
                            &mut full,
                            out_block,
                            h * w,
                            y * w + xx,
                        );
                    }
                }
            }
            // Border pixels (edge rows, or edge columns of interior rows)
            // take the bounds-checked per-pixel path.
            let border: Vec<usize> = if y_interior && x0 < x1 {
                (0..x0).chain(x1..w).collect()
            } else {
                (0..w).collect()
            };
            for s in 0..n {
                let sp = &spectra[s * stride..][..stride];
                let out_block = &mut bo_slab[s * slab..][..slab];
                for &xx in &border {
                    acc.fill(ComplexAcc::zero());
                    for e in &plan.entries {
                        let iy = y as isize + e.dy;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let ix = xx as isize + e.dx;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let idx = (e.in_base + iy as usize * w + ix as usize) * bins;
                        let xv = &sp[idx..idx + bins];
                        let ws = &plan.weights[e.w_off..e.w_off + bins];
                        for (a, (x, wv)) in acc.iter_mut().zip(xv.iter().zip(ws)) {
                            a.mac(q, *x, *wv);
                        }
                    }
                    finish_pixel(&pe, q, &acc, &mut full, out_block, h * w, y * w + xx);
                }
            }
        }
    });

    let mut out = vec![0i16; n * c_out * h * w];
    for bo in 0..weights.out_blocks {
        for s in 0..n {
            let src = &staged[(bo * n + s) * slab..][..slab];
            out[s * c_out * h * w + bo * slab..][..slab].copy_from_slice(src);
        }
    }
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
/// its sample's out-block — [`finish_pixel`] for all `n` samples at once,
/// bit-identical per lane.
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
/// lane entry point, and the one the serving fast path dispatches: a
/// packed [`FxBatch`] of `n` samples (`[n, c_in, h, w]`, the batch's
/// format as `q`) in, `[n, c_out, h, w]` words out, no per-element float
/// round-trips. The **sample dimension is innermost** everywhere — input
/// spectra, `i32` eMAC accumulators, and IFFT buffers all live in flat
/// split re/im planes whose inner loops the autovectorizer widens
/// (`n = 8` fills a 128-bit vector of i16 lanes end to end).
///
/// The eMAC plans, twiddle ROM, and weight streams are prepared once per
/// invocation, and the interior fast path runs entry-major across the
/// whole batch, so each live block's weight bins are loaded once per row
/// for all `n` samples — the software analogue of the accelerator's
/// parallel PE lanes sharing one weight stream (§IV-C). Fully-connected
/// layers (`k = 1` on a `1×1` map) take the lane FC fast path, which
/// skips the plan and the spatial bookkeeping.
///
/// Every sample's output is **bit-identical** to the scalar oracle
/// [`conv_forward_fx_batch_scalar`] (and so to [`conv_forward_fx`] on
/// that sample): per (sample, pixel, bin) the accumulation order over
/// live entries and every fixed-point operation are unchanged; only
/// cross-sample scheduling differs.
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
    if h == 1 && w == 1 && weights.kh == 1 && weights.kw == 1 {
        return FxBatch::from_flat(q, n, c_out, fc_forward_fx_batch(q, weights, xs, n));
    }
    let pad = (weights.kh - 1) / 2;
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;
    let hw = h * w;

    let (sre, sim) = input_spectra_lanes(&pe, xs, n, weights.in_blocks, h, w);

    let plans: Vec<EmacPlan> = (0..weights.out_blocks)
        .map(|bo| {
            emac_plan(
                PlanDims {
                    kh: weights.kh,
                    kw: weights.kw,
                    in_blocks: weights.in_blocks,
                    h,
                    w,
                },
                bo,
                |p, qq, b, bi| weights.index(p, qq, b, bi),
                |blk| weights.live[blk].then(|| (&weights.spectra[blk][..], 0)),
            )
        })
        .collect();
    for _ in 0..n {
        record_fx_layer(&plans, weights.in_blocks, weights.out_blocks, h, w);
    }

    // Block-major staging `[bo][s][bs·h·w]`, scattered back to
    // sample-major at the end (same scheme as the scalar oracle).
    let slab = bs * hw;
    let mut staged = vec![0i16; weights.out_blocks * n * slab];
    parallel::par_chunk_map(&mut staged[..], n * slab, |bo, bo_slab| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan_batch_lanes", "hwsim.fx");
        let plan = &plans[bo];
        let x0 = pad.min(w);
        let x1 = w.saturating_sub(weights.kw - 1 - pad).max(x0);
        let row = (x1 - x0) * bins;
        let mut racc_re = vec![0i32; row * n];
        let mut racc_im = vec![0i32; row * n];
        let mut acc_re = vec![0i32; bins * n];
        let mut acc_im = vec![0i32; bins * n];
        let mut fre = vec![0i16; bs * n];
        let mut fim = vec![0i16; bs * n];
        for y in 0..h {
            let y_interior = y >= pad && y + (weights.kh - 1 - pad) < h;
            if y_interior && x0 < x1 {
                racc_re.fill(0);
                racc_im.fill(0);
                // Entry-major over the whole batch: one weight load per
                // entry bin serves all samples and all interior pixels.
                for e in &plan.entries {
                    let ws = &plan.weights[e.w_off..e.w_off + bins];
                    let base = ((e.in_base + y * w + x0) as isize + e.rel) as usize;
                    for px in 0..x1 - x0 {
                        let xoff = (base + px) * bins * n;
                        let aoff = px * bins * n;
                        let ar = &mut racc_re[aoff..aoff + bins * n];
                        let ai = &mut racc_im[aoff..aoff + bins * n];
                        let xr = &sre[xoff..xoff + bins * n];
                        let xi = &sim[xoff..xoff + bins * n];
                        for (k, wv) in ws.iter().enumerate() {
                            let (wre, wim) = (i32::from(wv.re), i32::from(wv.im));
                            let arr = &mut ar[k * n..(k + 1) * n];
                            let aii = &mut ai[k * n..(k + 1) * n];
                            let xrr = &xr[k * n..(k + 1) * n];
                            let xii = &xi[k * n..(k + 1) * n];
                            for s in 0..n {
                                // [`ComplexAcc::mac`] unrolled, per lane.
                                let re = i32::from(xrr[s]);
                                let im = i32::from(xii[s]);
                                arr[s] = arr[s].saturating_add(re * wre).saturating_sub(im * wim);
                                aii[s] = aii[s].saturating_add(re * wim).saturating_add(im * wre);
                            }
                        }
                    }
                }
                for px in 0..x1 - x0 {
                    finish_pixels_lanes(
                        &pe,
                        q,
                        &racc_re[px * bins * n..][..bins * n],
                        &racc_im[px * bins * n..][..bins * n],
                        &mut fre,
                        &mut fim,
                        n,
                        bo_slab,
                        slab,
                        hw,
                        y * w + x0 + px,
                    );
                }
            }
            let border: Vec<usize> = if y_interior && x0 < x1 {
                (0..x0).chain(x1..w).collect()
            } else {
                (0..w).collect()
            };
            for &xx in &border {
                acc_re.fill(0);
                acc_im.fill(0);
                for e in &plan.entries {
                    let iy = y as isize + e.dy;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let ix = xx as isize + e.dx;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let idx = (e.in_base + iy as usize * w + ix as usize) * bins * n;
                    let ws = &plan.weights[e.w_off..e.w_off + bins];
                    crate::pe::emac_block_lanes(
                        q,
                        bs,
                        ws,
                        &sre[idx..idx + bins * n],
                        &sim[idx..idx + bins * n],
                        &mut acc_re,
                        &mut acc_im,
                        n,
                    );
                }
                finish_pixels_lanes(
                    &pe,
                    q,
                    &acc_re,
                    &acc_im,
                    &mut fre,
                    &mut fim,
                    n,
                    bo_slab,
                    slab,
                    hw,
                    y * w + xx,
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

/// The fully-connected (`k = 1`, `1×1` feature map) fast path of
/// [`conv_forward_fx_batch_packed`], fully in lane form: lane FFTs over
/// the batch at ingress, the shared-weight `[bin][sample]` eMAC
/// ([`crate::pe::emac_block_lanes`]), and lane IFFTs at egress. Outputs
/// are bit-identical to the general path of the scalar oracle
/// [`conv_forward_fx_batch_scalar`].
///
/// It is kept because it is faster, not because it computes anything
/// else. Sending `1×1` layers through the general lane path instead is
/// bit-identical but slower on the 512-wide, 1-in-8-live layer of the
/// perfbench `fx_infer` demo model: 1.10–1.14× the time at batch 1 and
/// 1.05–1.21× at batch 8 (2-vCPU x86-64 host, two passes per size).
fn fc_forward_fx_batch(q: QFormat, weights: &FxWeights, xs: &[i16], n: usize) -> Vec<i16> {
    let bs = weights.bs;
    let bins = bs / 2 + 1;
    let ib = weights.in_blocks;
    let ob = weights.out_blocks;
    let c_in = ib * bs;
    let c_out = ob * bs;
    let pe = FxFftPe::new(bs, q);

    // Lane FFTs per in-block: gather `[ci][sample]`, one wide transform,
    // bins land directly in the `[bi][bin][sample]` planes the eMAC reads.
    let mut xre = vec![0i16; ib * bins * n];
    let mut xim = vec![0i16; ib * bins * n];
    let mut bre = vec![0i16; bs * n];
    let mut bim = vec![0i16; bs * n];
    for bi in 0..ib {
        for ci in 0..bs {
            let row = &mut bre[ci * n..(ci + 1) * n];
            for (s, slot) in row.iter_mut().enumerate() {
                *slot = xs[s * c_in + bi * bs + ci];
            }
        }
        bim.fill(0);
        pe.forward_lanes(&mut bre, &mut bim, n);
        xre[bi * bins * n..][..bins * n].copy_from_slice(&bre[..bins * n]);
        xim[bi * bins * n..][..bins * n].copy_from_slice(&bim[..bins * n]);
    }
    if telemetry::enabled() {
        FX_INPUT_FFTS.add((n * ib) as u64);
        FX_OUTPUT_IFFTS.add((n * ob) as u64);
    }

    // Block-major staging `[bo][s][bs]`, scattered to `[s][c_out]` below.
    let mut staged = vec![0i16; ob * n * bs];
    parallel::par_chunk_map(&mut staged[..], n * bs, |bo, bo_slab| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_fc_batch_lanes", "hwsim.fx");
        let mut acc_re = vec![0i32; bins * n];
        let mut acc_im = vec![0i32; bins * n];
        let mut fre = vec![0i16; bs * n];
        let mut fim = vec![0i16; bs * n];
        let mut emacs = 0u64;
        for bi in 0..ib {
            let blk = weights.index(0, 0, bo, bi);
            if !weights.live[blk] {
                continue;
            }
            emacs += 1;
            crate::pe::emac_block_lanes(
                q,
                bs,
                &weights.spectra[blk],
                &xre[bi * bins * n..][..bins * n],
                &xim[bi * bins * n..][..bins * n],
                &mut acc_re,
                &mut acc_im,
                n,
            );
        }
        if telemetry::enabled() {
            FX_EMAC_BLOCKS.add(emacs * n as u64);
        }
        finish_pixels_lanes(
            &pe, q, &acc_re, &acc_im, &mut fre, &mut fim, n, bo_slab, bs, 1, 0,
        );
    });

    let mut out = vec![0i16; n * c_out];
    for bo in 0..ob {
        for s in 0..n {
            out[s * c_out + bo * bs..][..bs].copy_from_slice(&staged[(bo * n + s) * bs..][..bs]);
        }
    }
    out
}

/// Per-block-scaled narrow weight spectra — the "fine-grained
/// frequency-domain quantization" of He et al. (ASP-DAC 2021) the paper
/// cites as an available improvement (§V-C2): each block's spectrum is
/// stored in `bits`-bit words with its own fractional exponent chosen so
/// the block's largest bin just fits, and the eMAC rescales block
/// contributions to a common accumulator format.
#[derive(Debug, Clone)]
pub struct ScaledFxWeights {
    bs: usize,
    kh: usize,
    kw: usize,
    out_blocks: usize,
    in_blocks: usize,
    bits: u32,
    /// `(bins, frac)` per live block.
    blocks: Vec<Option<(Vec<ComplexFx>, u32)>>,
}

impl ScaledFxWeights {
    /// Quantizes a folded layer to `bits`-bit weight words (activations
    /// stay in `q`-format 16-bit).
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= bits <= 16`.
    pub fn from_folded(bits: u32, conv: &ConvBlockCirculant<f32>) -> Self {
        assert!((4..=16).contains(&bits), "bits must be in 4..=16");
        let bs = conv.block_size();
        let (kh, kw) = conv.kernel_dims();
        let (ob, ib) = conv.grid_dims();
        let max_word = (1i32 << (bits - 1)) - 1;
        let mut blocks = Vec::with_capacity(kh * kw * ob * ib);
        for p in 0..kh {
            for qq in 0..kw {
                let grid = conv.grid(p, qq);
                for bo in 0..ob {
                    for bi in 0..ib {
                        let block = grid.block(bo, bi);
                        if block.is_zero() {
                            blocks.push(None);
                            continue;
                        }
                        let w64: Vec<f64> = block
                            .defining_vector()
                            .iter()
                            .map(|&v| f64::from(v))
                            .collect();
                        let half = HalfSpectrum::forward(&w64);
                        let max_mag = half
                            .bins()
                            .iter()
                            .map(|c| c.re.abs().max(c.im.abs()))
                            .fold(0.0f64, f64::max)
                            .max(1e-12);
                        // Largest frac such that max_mag·2^frac ≤ max_word.
                        let frac =
                            ((max_word as f64 / max_mag).log2().floor() as i64).clamp(0, 30) as u32;
                        let scale = f64::from(1u32 << frac.min(31));
                        let bins = half
                            .bins()
                            .iter()
                            .map(|c| {
                                ComplexFx::new(
                                    ((c.re * scale).round() as i32).clamp(-max_word, max_word)
                                        as i16,
                                    ((c.im * scale).round() as i32).clamp(-max_word, max_word)
                                        as i16,
                                )
                            })
                            .collect();
                        blocks.push(Some((bins, frac)));
                    }
                }
            }
        }
        ScaledFxWeights {
            bs,
            kh,
            kw,
            out_blocks: ob,
            in_blocks: ib,
            bits,
            blocks,
        }
    }

    /// Weight word width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    fn index(&self, p: usize, q: usize, bo: usize, bi: usize) -> usize {
        ((p * self.kw + q) * self.out_blocks + bo) * self.in_blocks + bi
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
    let bs = weights.bs;
    let c_in = weights.in_blocks * bs;
    let c_out = weights.out_blocks * bs;
    assert_eq!(x.len(), c_in * h * w, "input length mismatch");
    let pad = (weights.kh - 1) / 2;
    let pe = FxFftPe::new(bs, q);
    let bins = bs / 2 + 1;
    let act_frac = q.frac_bits();
    let mut out = vec![0i16; c_out * h * w];

    let in_spectra = input_spectra(&pe, x, weights.in_blocks, h, w);
    let plans: Vec<EmacPlan> = (0..weights.out_blocks)
        .map(|bo| {
            emac_plan(
                PlanDims {
                    kh: weights.kh,
                    kw: weights.kw,
                    in_blocks: weights.in_blocks,
                    h,
                    w,
                },
                bo,
                |p, qq, b, bi| weights.index(p, qq, b, bi),
                |blk| {
                    weights.blocks[blk].as_ref().map(|(ws, wfrac)| {
                        // Product frac = act_frac + wfrac; rescale to
                        // 2·act_frac by shifting by (wfrac − act_frac).
                        (&ws[..], i64::from(*wfrac) - i64::from(act_frac))
                    })
                },
            )
        })
        .collect();
    record_fx_layer(&plans, weights.in_blocks, weights.out_blocks, h, w);

    parallel::par_chunk_map(&mut out[..], bs * h * w, |bo, out_block| {
        let _lat = FX_PLAN_EXEC_NS.span();
        let _trace = telemetry::trace_span("emac_plan_scaled", "hwsim.fx");
        let plan = &plans[bo];
        // i64 accumulators at 2·act_frac fractional bits.
        let mut acc_re = vec![0i64; bins];
        let mut acc_im = vec![0i64; bins];
        let mut full = vec![ComplexFx::zero(); bs];
        let mac =
            |acc_re: &mut [i64], acc_im: &mut [i64], idx: usize, e: &EmacEntry, shift: i64| {
                let xs = &in_spectra[idx..idx + bins];
                let ws = &plan.weights[e.w_off..e.w_off + bins];
                for (k, (xv, wv)) in xs.iter().zip(ws).enumerate() {
                    let (a, b) = (*xv, *wv);
                    let re = i64::from(a.re) * i64::from(b.re) - i64::from(a.im) * i64::from(b.im);
                    let im = i64::from(a.re) * i64::from(b.im) + i64::from(a.im) * i64::from(b.re);
                    let (re, im) = if shift >= 0 {
                        (re >> shift, im >> shift)
                    } else {
                        (re << -shift, im << -shift)
                    };
                    acc_re[k] += re;
                    acc_im[k] += im;
                }
            };
        for y in 0..h {
            let y_interior = y >= pad && y + (weights.kh - 1 - pad) < h;
            for xx in 0..w {
                acc_re.fill(0);
                acc_im.fill(0);
                let pix = (y * w + xx) as isize;
                if y_interior && xx >= pad && xx + (weights.kw - 1 - pad) < w {
                    for (e, &shift) in plan.entries.iter().zip(&plan.shifts) {
                        let idx = ((e.in_base as isize + pix + e.rel) as usize) * bins;
                        mac(&mut acc_re, &mut acc_im, idx, e, shift);
                    }
                } else {
                    for (e, &shift) in plan.entries.iter().zip(&plan.shifts) {
                        let iy = y as isize + e.dy;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let ix = xx as isize + e.dx;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let idx = (e.in_base + iy as usize * w + ix as usize) * bins;
                        mac(&mut acc_re, &mut acc_im, idx, e, shift);
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
                for k in 1..bs / 2 {
                    full[bs - k] = full[k].conj();
                }
                pe.inverse(&mut full);
                for oi in 0..bs {
                    out_block[oi * h * w + y * w + xx] = full[oi].re;
                }
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
            let scalar = conv_forward_fx_batch_scalar(q, &weights, &xs, n, h, w);
            let packed = conv_forward_fx_batch_packed(
                &weights,
                &FxBatch::from_flat(q, n, c_in * h * w, xs.clone()),
                h,
                w,
            );
            assert_eq!((packed.len(), packed.sample_len()), (n, ob * bs * h * w));
            let batched = packed.as_flat();
            assert_eq!(
                batched, scalar,
                "lane batch diverged from the scalar oracle (seed {seed})"
            );
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
        assert!(conv_forward_fx_batch_scalar(q, &weights, &[], 0, 3, 3).is_empty());
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
