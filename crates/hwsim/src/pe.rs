//! The Pruned-BCM PE bank and its skip-index controller (paper §IV-B,
//! Fig. 7), plus the conventional (no-skip) baseline it is compared with.
//!
//! One eMAC PE performs the `BS/2 + 1` complex MACs of a block (the
//! conjugate-symmetry saving); `p` PEs share the same block weights and
//! work on `p` different partial inputs in parallel. The controller walks
//! the skip-index bitmap: a zero bit skips the whole bank for that block
//! "immediately", costing only the check.

use crate::fixed::{ComplexAcc, ComplexFx, QFormat};
use rpbcm::SkipIndexBuffer;

/// Cycle-cost parameters of a PE bank.
///
/// Defaults are calibrated so that a non-pruned Fig. 10 workload shows the
/// paper's ≈3.1 % skip-scheme overhead versus the conventional PE
/// (§V-C1): checking and restarting around a block costs
/// [`PeCosts::skip_overhead_cycles`] on top of the shared per-block setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeCosts {
    /// Cycles to load/setup one block's weights (both designs pay this).
    pub block_setup_cycles: u64,
    /// Extra cycles per block for the skip controller: index fetch, check
    /// and PE-bank restart (proposed design only).
    pub skip_overhead_cycles: u64,
    /// Cycles for one complex MAC (pipelined: 1).
    pub mac_cycles: u64,
}

impl Default for PeCosts {
    fn default() -> Self {
        PeCosts {
            block_setup_cycles: 4,
            skip_overhead_cycles: 4,
            mac_cycles: 1,
        }
    }
}

/// Configuration of a Pruned-BCM PE bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeBankConfig {
    /// Block size `BS`.
    pub bs: usize,
    /// Parallelism factor `p`: eMAC PEs sharing the same block weights.
    pub p: usize,
    /// Cycle-cost parameters.
    pub costs: PeCosts,
}

impl PeBankConfig {
    /// Creates a bank configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bs` is not a power of two ≥ 2 or `p == 0`.
    pub fn new(bs: usize, p: usize) -> Self {
        assert!(
            bs.is_power_of_two() && bs >= 2,
            "BS must be a power of two >= 2"
        );
        assert!(p > 0, "parallelism must be non-zero");
        PeBankConfig {
            bs,
            p,
            costs: PeCosts::default(),
        }
    }

    /// Complex MACs per block per input: `BS/2 + 1`.
    pub fn macs_per_input(&self) -> u64 {
        (self.bs / 2 + 1) as u64
    }

    /// eMAC cycles for one block over a tile of `pixels` partial inputs:
    /// the `p` lanes split the pixels; each lane runs `BS/2+1` MACs per
    /// pixel.
    pub fn block_emac_cycles(&self, pixels: usize) -> u64 {
        (pixels as u64).div_ceil(self.p as u64) * self.macs_per_input() * self.costs.mac_cycles
    }

    /// Cycles for the **proposed** bank to process a block sequence with
    /// the skip scheme: live blocks pay setup + eMAC + skip overhead,
    /// pruned blocks pay only the skip check (one cycle — the controller
    /// "immediately executes the PE banks for the next non-pruned weight").
    pub fn tile_cycles_skip(&self, skip: &SkipIndexBuffer, pixels: usize) -> u64 {
        let mut cycles = 0u64;
        for i in 0..skip.len() {
            if skip.get(i) {
                cycles += self.costs.block_setup_cycles
                    + self.costs.skip_overhead_cycles
                    + self.block_emac_cycles(pixels);
            } else {
                cycles += 1; // the check itself
            }
        }
        cycles
    }

    /// Cycles for the **conventional** bank (no skip logic): every block —
    /// pruned or not — is computed in full.
    pub fn tile_cycles_conventional(&self, blocks: usize, pixels: usize) -> u64 {
        (blocks as u64) * (self.costs.block_setup_cycles + self.block_emac_cycles(pixels))
    }

    /// The §V-C1 overhead metric: relative cycle increase of the proposed
    /// PE over the conventional PE on a *non-pruned* workload.
    pub fn skip_overhead_fraction(&self, blocks: usize, pixels: usize) -> f64 {
        let all_live = SkipIndexBuffer::all_live(blocks);
        let with_skip = self.tile_cycles_skip(&all_live, pixels) as f64;
        let conventional = self.tile_cycles_conventional(blocks, pixels) as f64;
        with_skip / conventional - 1.0
    }
}

/// Functional (bit-level) model of the eMAC computation a Pruned-BCM PE
/// bank performs for one block over a set of partial inputs.
///
/// `weight_bins` are the block's pre-computed complex weights
/// (`BS/2 + 1` bins, Hadamard-folded and FFT'd offline per Fig. 4b);
/// `input_bins[i]` are the i-th partial input's spectrum bins;
/// `accumulators[i]` the running partial outputs.
///
/// # Panics
///
/// Panics if bin counts disagree with `BS/2 + 1` or slice lengths differ.
pub fn emac_block(
    q: QFormat,
    bs: usize,
    weight_bins: &[ComplexFx],
    input_bins: &[Vec<ComplexFx>],
    accumulators: &mut [Vec<ComplexAcc>],
) {
    let bins = bs / 2 + 1;
    assert_eq!(weight_bins.len(), bins, "weight bins must be BS/2+1");
    assert_eq!(
        input_bins.len(),
        accumulators.len(),
        "one accumulator set per input"
    );
    for (x, acc) in input_bins.iter().zip(accumulators.iter_mut()) {
        assert_eq!(x.len(), bins, "input bins must be BS/2+1");
        assert_eq!(acc.len(), bins, "accumulator bins must be BS/2+1");
        for k in 0..bins {
            acc[k].mac(q, x[k], weight_bins[k]);
        }
    }
}

/// Narrows a half-spectrum accumulator back to `BS/2+1` complex words
/// (what the bank emits to the IFFT stage).
pub fn narrow_accumulator(q: QFormat, acc: &[ComplexAcc]) -> Vec<ComplexFx> {
    acc.iter().map(|a| a.narrow(q)).collect()
}

/// Lane-form eMAC: one weight block against `lanes` input spectra held in
/// split SoA planes.
///
/// `xre`/`xim` hold the input bins as `[bin][lane]` (lane innermost, bin
/// `k` at `k*lanes..`); `acc_re`/`acc_im` are the matching `i32`
/// accumulator planes. Per (bin, lane) the operation sequence is exactly
/// [`ComplexAcc::mac`] — saturating add of `re·wre`, saturating subtract of
/// `im·wim`, then the two imaginary-part adds — so results are
/// bit-identical to [`emac_block`]; the lane loop is flat i32 arithmetic
/// the autovectorizer widens.
///
/// # Panics
///
/// Panics if `weight_bins.len() != BS/2+1` or any plane is not
/// `(BS/2+1) * lanes` long.
#[allow(clippy::too_many_arguments)]
pub fn emac_block_lanes(
    q: QFormat,
    bs: usize,
    weight_bins: &[ComplexFx],
    xre: &[i16],
    xim: &[i16],
    acc_re: &mut [i32],
    acc_im: &mut [i32],
    lanes: usize,
) {
    let bins = bs / 2 + 1;
    assert_eq!(weight_bins.len(), bins, "weight bins must be BS/2+1");
    assert_eq!(
        xre.len(),
        bins * lanes,
        "input planes must be (BS/2+1)*lanes"
    );
    assert_eq!(
        xim.len(),
        bins * lanes,
        "input planes must be (BS/2+1)*lanes"
    );
    assert_eq!(
        acc_re.len(),
        bins * lanes,
        "acc planes must be (BS/2+1)*lanes"
    );
    assert_eq!(
        acc_im.len(),
        bins * lanes,
        "acc planes must be (BS/2+1)*lanes"
    );
    let _ = q; // the wide MAC never narrows, so the format is not consulted
    for (k, &w) in weight_bins.iter().enumerate() {
        let lanes = k * lanes..(k + 1) * lanes;
        mac_lanes(
            w,
            &xre[lanes.clone()],
            &xim[lanes.clone()],
            &mut acc_re[lanes.clone()],
            &mut acc_im[lanes],
        );
    }
}

/// The eMAC's inner step: one weight bin times a run of input words,
/// accumulated element by element into 32-bit accumulators with the
/// saturating complex MAC of [`crate::fixed::ComplexAcc::mac`]. The run
/// is any set of independent lanes (samples, pixels), so the one conv
/// schedule hands it whole output-row runs.
pub fn mac_lanes(w: ComplexFx, xre: &[i16], xim: &[i16], acc_re: &mut [i32], acc_im: &mut [i32]) {
    let (wre, wim) = (i32::from(w.re), i32::from(w.im));
    let n = acc_re.len();
    let (xre, xim, acc_im) = (&xre[..n], &xim[..n], &mut acc_im[..n]);
    for l in 0..n {
        let re = i32::from(xre[l]);
        let im = i32::from(xim[l]);
        acc_re[l] = acc_re[l].saturating_add(re * wre).saturating_sub(im * wim);
        acc_im[l] = acc_im[l].saturating_add(re * wim).saturating_add(im * wre);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::real::HalfSpectrum;

    #[test]
    fn macs_per_input_uses_conjugate_symmetry() {
        assert_eq!(PeBankConfig::new(8, 16).macs_per_input(), 5);
        assert_eq!(PeBankConfig::new(16, 16).macs_per_input(), 9);
    }

    #[test]
    fn skip_overhead_is_about_three_percent() {
        // Fig. 10 workload: 128×28×28 feature map, 3×3 kernel, BS=8:
        // tile of 784 pixels, 3·3·16·16 = 2304 blocks, p = 32 lanes (the
        // PYNQ-Z2 design point).
        let cfg = PeBankConfig::new(8, 32);
        let frac = cfg.skip_overhead_fraction(2304, 784);
        assert!(
            (0.02..=0.045).contains(&frac),
            "skip overhead = {:.3}%",
            frac * 100.0
        );
    }

    #[test]
    fn cycles_decrease_linearly_with_pruning() {
        let cfg = PeBankConfig::new(8, 16);
        let blocks = 1000;
        let pixels = 784;
        let mut cycles = Vec::new();
        for alpha in [0.0, 0.25, 0.5, 0.75] {
            let pruned = (blocks as f64 * alpha) as usize;
            let bits: Vec<bool> = (0..blocks).map(|i| i >= pruned).collect();
            let skip = SkipIndexBuffer::from_bools(&bits);
            cycles.push(cfg.tile_cycles_skip(&skip, pixels));
        }
        // Strictly decreasing.
        for w in cycles.windows(2) {
            assert!(w[1] < w[0]);
        }
        // Near-linear: the 0.5 point sits near the midpoint of 0.0 and 1.0
        // extremes (pruned blocks still cost 1 cycle each).
        let c0 = cycles[0] as f64;
        let c50 = cycles[2] as f64;
        assert!((c50 / c0 - 0.5).abs() < 0.02, "ratio = {}", c50 / c0);
    }

    #[test]
    fn pruned_blocks_cost_only_the_check() {
        let cfg = PeBankConfig::new(8, 4);
        let skip = SkipIndexBuffer::from_bools(&[false, false, false]);
        assert_eq!(cfg.tile_cycles_skip(&skip, 100), 3);
    }

    #[test]
    fn parallelism_divides_emac_cycles() {
        let c1 = PeBankConfig::new(8, 1).block_emac_cycles(64);
        let c16 = PeBankConfig::new(8, 16).block_emac_cycles(64);
        assert_eq!(c1, 64 * 5);
        assert_eq!(c16, 4 * 5);
    }

    #[test]
    fn functional_emac_matches_float_reference() {
        let q = QFormat::q8();
        let bs = 8;
        // Float reference through fft::HalfSpectrum.
        let w: Vec<f64> = (0..bs).map(|i| 0.3 * ((i as f64) - 3.0)).collect();
        let x: Vec<f64> = (0..bs).map(|i| ((i as f64) * 0.9).sin()).collect();
        let hw = HalfSpectrum::forward(&w);
        let hx = HalfSpectrum::forward(&x);
        let want = hx.emac(&hw);

        // Fixed-point path.
        let to_fx = |h: &HalfSpectrum<f64>| -> Vec<ComplexFx> {
            h.bins()
                .iter()
                .map(|c| ComplexFx::from_f64(q, c.re, c.im))
                .collect()
        };
        let wfx = to_fx(&hw);
        let xfx = vec![to_fx(&hx)];
        let mut acc = vec![vec![ComplexAcc::zero(); bs / 2 + 1]];
        emac_block(q, bs, &wfx, &xfx, &mut acc);
        let out = narrow_accumulator(q, &acc[0]);
        for (fx, c) in out.iter().zip(want.bins()) {
            let (re, im) = fx.to_f64(q);
            assert!((re - c.re).abs() < 0.15, "{re} vs {}", c.re);
            assert!((im - c.im).abs() < 0.15, "{im} vs {}", c.im);
        }
    }

    #[test]
    fn emac_accumulates_across_blocks() {
        let q = QFormat::q8();
        let bs = 4;
        let one = ComplexFx::from_f64(q, 1.0, 0.0);
        let w = vec![one; 3];
        let x = vec![vec![one; 3]];
        let mut acc = vec![vec![ComplexAcc::zero(); 3]];
        emac_block(q, bs, &w, &x, &mut acc);
        emac_block(q, bs, &w, &x, &mut acc);
        let out = narrow_accumulator(q, &acc[0]);
        let (re, _) = out[0].to_f64(q);
        assert!((re - 2.0).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "BS/2+1")]
    fn emac_validates_bin_count() {
        let q = QFormat::q8();
        emac_block(q, 8, &[ComplexFx::zero(); 3], &[], &mut []);
    }

    #[test]
    fn lane_emac_is_bit_identical_to_scalar() {
        let q = QFormat::q8();
        for &bs in &[2usize, 4, 8, 16] {
            let bins = bs / 2 + 1;
            for lanes in [1usize, 3, 8] {
                // Deterministic words spanning the full i16 range so the
                // saturating paths get exercised too.
                let mut s = 0x9e3779b97f4a7c15u64 ^ (bs as u64);
                let mut word = || {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s >> 48) as i16
                };
                let w: Vec<ComplexFx> = (0..bins).map(|_| ComplexFx::new(word(), word())).collect();
                let x: Vec<Vec<ComplexFx>> = (0..lanes)
                    .map(|_| (0..bins).map(|_| ComplexFx::new(word(), word())).collect())
                    .collect();
                let mut acc = vec![vec![ComplexAcc::zero(); bins]; lanes];
                // Run twice so accumulation across calls is covered.
                emac_block(q, bs, &w, &x, &mut acc);
                emac_block(q, bs, &w, &x, &mut acc);

                let mut xre = vec![0i16; bins * lanes];
                let mut xim = vec![0i16; bins * lanes];
                for l in 0..lanes {
                    for k in 0..bins {
                        xre[k * lanes + l] = x[l][k].re;
                        xim[k * lanes + l] = x[l][k].im;
                    }
                }
                let mut are = vec![0i32; bins * lanes];
                let mut aim = vec![0i32; bins * lanes];
                emac_block_lanes(q, bs, &w, &xre, &xim, &mut are, &mut aim, lanes);
                emac_block_lanes(q, bs, &w, &xre, &xim, &mut are, &mut aim, lanes);
                for l in 0..lanes {
                    for k in 0..bins {
                        assert_eq!(are[k * lanes + l], acc[l][k].re, "bs={bs} l={l} k={k}");
                        assert_eq!(aim[k * lanes + l], acc[l][k].im, "bs={bs} l={l} k={k}");
                    }
                }
            }
        }
    }
}
