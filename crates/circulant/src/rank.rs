//! Rank-condition analysis of circulant blocks (paper §II-B1, §V-B1).
//!
//! The paper's motivating observation: singular values of trained BCM
//! blocks decay *exponentially* (poor rank-condition) while Gaussian or
//! dense convolution blocks decay roughly linearly. `hadaBCM` repairs this.
//! This module measures all of that:
//!
//! - [`poor_rank_fraction`]: the fraction of blocks failing the paper's
//!   50 %/5 % criterion;
//! - [`spectrum_support`] and [`hadamard_spectrum_support_bound`]: the
//!   circulant-specific mechanism of rank enhancement — multiplying two
//!   circulants element-wise *circularly convolves* their spectra, which
//!   can only widen the support;
//! - [`DecayFit`]: a log-linear fit distinguishing linear from exponential
//!   singular-value decay, the quantity Figs. 2/9a visualize.

use crate::{BlockCirculant, CirculantMatrix, ConvBlockCirculant};
use tensor::svd::PoorRankCriterion;
use tensor::Scalar;

/// The number of non-negligible DFT bins of a circulant block's defining
/// vector — which equals the exact rank of the block.
///
/// `tol` is relative to the largest bin magnitude.
pub fn spectrum_support<T: Scalar>(c: &CirculantMatrix<T>, tol: f64) -> usize {
    c.rank(tol)
}

/// Upper bound on the spectrum support (= rank) of `a ⊙ b` for circulant
/// `a`, `b` of size `n`.
///
/// `DFT(a ⊙ b)` is the circular convolution of the two spectra, so its
/// support is contained in the (mod-n) sumset of the factors' supports:
/// at most `ra · rb` bins, capped at `n`. This is the circulant
/// specialization of the general Hadamard rank bound
/// `rank(A ⊙ B) ≤ rank(A)·rank(B)` the paper cites from FedPara.
pub fn hadamard_spectrum_support_bound(n: usize, ra: usize, rb: usize) -> usize {
    n.min(ra.saturating_mul(rb))
}

/// Fraction of blocks of a grid in poor rank-condition under `criterion`.
///
/// Zero blocks (pruned) are excluded: they carry no representation to rate.
pub fn poor_rank_fraction<T: Scalar>(
    grid: &BlockCirculant<T>,
    criterion: PoorRankCriterion,
) -> f64 {
    let mut total = 0usize;
    let mut poor = 0usize;
    for block in grid.iter() {
        if block.is_zero() {
            continue;
        }
        total += 1;
        if criterion.is_poor_spectrum(&block.singular_values()) {
            poor += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        poor as f64 / total as f64
    }
}

/// Fraction of blocks of a conv weight in poor rank-condition.
pub fn poor_rank_fraction_conv<T: Scalar>(
    conv: &ConvBlockCirculant<T>,
    criterion: PoorRankCriterion,
) -> f64 {
    let mut total = 0usize;
    let mut poor = 0usize;
    for grid in conv.iter() {
        for block in grid.iter() {
            if block.is_zero() {
                continue;
            }
            total += 1;
            if criterion.is_poor_spectrum(&block.singular_values()) {
                poor += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        poor as f64 / total as f64
    }
}

/// Characterization of a singular-value decay curve.
///
/// Obtained by fitting `ln σ_k ≈ a + b·k` over the non-zero spectrum: a
/// strongly negative slope `b` means exponential decay (poor
/// rank-condition); a slope near zero means a flat/linear spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayFit {
    /// Slope of the log-spectrum per index (more negative = faster decay).
    pub log_slope: f64,
    /// Intercept of the fit (ln σ₀ scale).
    pub log_intercept: f64,
    /// Ratio σ_min/σ_max (dynamic range of the spectrum).
    pub range_ratio: f64,
}

impl DecayFit {
    /// Fits the decay of a descending singular-value spectrum.
    ///
    /// Zero (or non-finite after `ln`) values are clamped to `1e-300` so
    /// rank-deficient spectra register as extreme decay rather than NaN.
    ///
    /// # Panics
    ///
    /// Panics if `sv` is empty.
    pub fn of_spectrum(sv: &[f64]) -> Self {
        assert!(!sv.is_empty(), "cannot fit an empty spectrum");
        let n = sv.len();
        let logs: Vec<f64> = sv.iter().map(|&s| s.max(1e-300).ln()).collect();
        // Least-squares line over k = 0..n.
        let k_mean = (n as f64 - 1.0) / 2.0;
        let l_mean = logs.iter().sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for (k, &l) in logs.iter().enumerate() {
            num += (k as f64 - k_mean) * (l - l_mean);
            den += (k as f64 - k_mean).powi(2);
        }
        let slope = if den > 0.0 { num / den } else { 0.0 };
        let smax = sv[0].max(1e-300);
        let smin = sv[n - 1].max(0.0);
        DecayFit {
            log_slope: slope,
            log_intercept: l_mean - slope * k_mean,
            range_ratio: smin / smax,
        }
    }

    /// Fits the decay of a circulant block's spectrum.
    pub fn of_block<T: Scalar>(c: &CirculantMatrix<T>) -> Self {
        Self::of_spectrum(&c.singular_values())
    }

    /// Heuristic: `true` when decay is closer to exponential than linear
    /// (slope of the log-spectrum steeper than `ln(0.05)/(n/2)`, i.e. the
    /// spectrum loses 95 % of its magnitude within half its length).
    pub fn is_exponential(&self, n: usize) -> bool {
        let threshold = (0.05_f64).ln() / ((n as f64) / 2.0);
        self.log_slope < threshold
    }
}

/// Mean decay fit across every non-zero block of a grid.
pub fn mean_decay<T: Scalar>(grid: &BlockCirculant<T>) -> Option<DecayFit> {
    let mut count = 0usize;
    let mut slope = 0.0;
    let mut intercept = 0.0;
    let mut ratio = 0.0;
    for block in grid.iter() {
        if block.is_zero() {
            continue;
        }
        let fit = DecayFit::of_block(block);
        slope += fit.log_slope;
        intercept += fit.log_intercept;
        ratio += fit.range_ratio;
        count += 1;
    }
    if count == 0 {
        None
    } else {
        let c = count as f64;
        Some(DecayFit {
            log_slope: slope / c,
            log_intercept: intercept / c,
            range_ratio: ratio / c,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn gaussian_block(seed: u64, n: usize) -> CirculantMatrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        CirculantMatrix::new(init::gaussian::<f64>(&mut rng, &[n], 0.0, 1.0).into_vec())
    }

    #[test]
    fn support_bound_is_tight_for_impulse_spectra() {
        // Defining vectors whose spectra are sparse: w = cos(2πk·t/n) has a
        // 2-bin spectrum.
        let n = 16;
        let a = CirculantMatrix::new(
            (0..n)
                .map(|t| (2.0 * std::f64::consts::PI * 2.0 * t as f64 / n as f64).cos())
                .collect(),
        );
        let b = CirculantMatrix::new(
            (0..n)
                .map(|t| (2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64).cos())
                .collect(),
        );
        let ra = spectrum_support(&a, 1e-9);
        let rb = spectrum_support(&b, 1e-9);
        assert_eq!(ra, 2);
        assert_eq!(rb, 2);
        let h = a.hadamard(&b);
        let rh = spectrum_support(&h, 1e-9);
        // cos(2)·cos(3) = (cos(5) + cos(1))/2 → 4 spectral bins.
        assert_eq!(rh, 4);
        assert!(rh <= hadamard_spectrum_support_bound(n, ra, rb));
    }

    #[test]
    fn hadamard_enriches_rank_of_low_rank_blocks() {
        // A rank-1 circulant (constant vector) Hadamard a generic one stays
        // rank-limited; two moderate-rank blocks multiply up.
        let n = 8;
        let low = CirculantMatrix::new(vec![1.0_f64; n]); // rank 1
        let gen = gaussian_block(3, n); // full rank a.s.
        let h = low.hadamard(&gen);
        assert_eq!(h.rank(1e-9), gen.rank(1e-9)); // scaling cannot change support
        assert!(hadamard_spectrum_support_bound(n, 1, n) == n);
    }

    #[test]
    fn hadabcm_improves_rank_condition_of_poor_blocks() {
        // Deliberately rank-poor single blocks vs the Hadamard product of
        // two generic factors: the product's spectrum support widens
        // (Fig. 9a's mechanism).
        let n = 16;
        let single = CirculantMatrix::new(
            (0..n)
                .map(|t| 1.0 + 0.02 * (2.0 * std::f64::consts::PI * t as f64 / n as f64).cos())
                .collect(),
        );
        assert!(PoorRankCriterion::paper().is_poor_spectrum(&single.singular_values()));
        let mut rng = StdRng::seed_from_u64(11);
        let mut factor =
            || CirculantMatrix::new(init::gaussian::<f64>(&mut rng, &[n], 0.0, 1.0).into_vec());
        let folded = factor().hadamard(&factor());
        assert!(!PoorRankCriterion::paper().is_poor_spectrum(&folded.singular_values()));
        let grid = BlockCirculant::from_blocks(n, 1, 1, vec![folded]);
        assert_eq!(poor_rank_fraction(&grid, PoorRankCriterion::paper()), 0.0);
    }

    #[test]
    fn poor_rank_fraction_flags_decayed_blocks() {
        // Build a grid with one healthy and three spectrally-collapsed blocks.
        let n = 16;
        let healthy = gaussian_block(1, n);
        // Low-pass block: spectrum concentrated in one bin + tiny leakage.
        let collapsed = CirculantMatrix::new(
            (0..n)
                .map(|t| 1.0 + 1e-4 * (2.0 * std::f64::consts::PI * t as f64 / n as f64).cos())
                .collect(),
        );
        let grid = BlockCirculant::from_blocks(
            n,
            2,
            2,
            vec![
                healthy,
                collapsed.clone(),
                collapsed.clone(),
                collapsed.clone(),
            ],
        );
        let frac = poor_rank_fraction(&grid, PoorRankCriterion::paper());
        assert!((frac - 0.75).abs() < 1e-12, "frac = {frac}");
    }

    #[test]
    fn poor_rank_fraction_ignores_pruned_blocks() {
        let n = 8;
        let grid = BlockCirculant::from_blocks(
            n,
            1,
            2,
            vec![gaussian_block(4, n), CirculantMatrix::zeros(n)],
        );
        assert_eq!(poor_rank_fraction(&grid, PoorRankCriterion::paper()), 0.0);
    }

    #[test]
    fn decay_fit_distinguishes_flat_from_exponential() {
        let flat: Vec<f64> = vec![1.0; 16];
        let expo: Vec<f64> = (0..16).map(|k| (0.3_f64).powi(k)).collect();
        let f_flat = DecayFit::of_spectrum(&flat);
        let f_expo = DecayFit::of_spectrum(&expo);
        assert!(f_flat.log_slope.abs() < 1e-12);
        assert!(f_expo.log_slope < -1.0);
        assert!(!f_flat.is_exponential(16));
        assert!(f_expo.is_exponential(16));
        assert!(f_expo.range_ratio < f_flat.range_ratio);
    }

    #[test]
    fn mean_decay_averages_blocks() {
        let n = 8;
        let grid =
            BlockCirculant::from_blocks(n, 1, 2, vec![gaussian_block(7, n), gaussian_block(8, n)]);
        let fit = mean_decay(&grid).expect("non-empty grid");
        assert!(fit.log_slope <= 0.0);
        let empty = BlockCirculant::<f64>::zeros(n, 1, 1);
        assert!(mean_decay(&empty).is_none());
    }

    #[test]
    fn gaussian_circulant_blocks_are_rarely_poor() {
        // Statistical smoke test backing the paper's Fig. 2 Gaussian
        // reference: random circulant blocks have flat-ish spectra.
        let mut poor = 0;
        let total = 50;
        for seed in 0..total {
            let b = gaussian_block(seed as u64 + 100, 16);
            if PoorRankCriterion::paper().is_poor_spectrum(&b.singular_values()) {
                poor += 1;
            }
        }
        assert!(poor <= 2, "poor = {poor}/{total}");
    }
}
