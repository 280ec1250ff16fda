//! Packed real-input spectra and the `BS/2 + 1` MAC argument.
//!
//! The DFT of a real length-`n` signal is conjugate-symmetric:
//! `X[n-k] = conj(X[k])`. Only bins `0 ..= n/2` are independent, so
//! BCM inference stores and multiplies `n/2 + 1` complex bins per block —
//! exactly why the paper's eMAC PE performs `BS/2 + 1` MAC operations for a
//! `BS`-point block (§IV-B, citing REQ-YOLO).

use crate::Complex;
use tensor::Scalar;

/// The non-redundant half-spectrum of a real signal of even length `n`:
/// bins `0 ..= n/2` (that is, `n/2 + 1` complex values).
///
/// # Example
///
/// ```
/// use fft::real::HalfSpectrum;
///
/// let x = [1.0_f64, 2.0, 3.0, 4.0];
/// let h = HalfSpectrum::forward(&x);
/// assert_eq!(h.bins().len(), 3); // 4/2 + 1
/// let back = h.inverse();
/// for (a, b) in back.iter().zip(&x) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HalfSpectrum<T: Scalar> {
    n: usize,
    bins: Vec<Complex<T>>,
}

impl<T: Scalar> HalfSpectrum<T> {
    /// Computes the half-spectrum of a real signal.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a power of two.
    pub fn forward(x: &[T]) -> Self {
        let n = x.len();
        let mut bins = vec![Complex::zero(); n / 2 + 1];
        forward_half_into(x, &mut bins);
        HalfSpectrum { n, bins }
    }

    /// Length of the underlying real signal.
    pub fn signal_len(&self) -> usize {
        self.n
    }

    /// The independent bins `0 ..= n/2`.
    pub fn bins(&self) -> &[Complex<T>] {
        &self.bins
    }

    /// The number of complex MACs an eMAC PE spends multiplying two such
    /// spectra: `n/2 + 1`.
    pub fn mac_count(&self) -> usize {
        self.n / 2 + 1
    }

    /// Element-wise product with another half-spectrum — the eMAC step of
    /// "FFT → eMAC → IFFT". Multiplying two conjugate-symmetric spectra
    /// yields a conjugate-symmetric spectrum, so closure is free.
    ///
    /// # Panics
    ///
    /// Panics if the signal lengths differ.
    pub fn emac(&self, other: &Self) -> Self {
        assert_eq!(self.n, other.n, "half-spectrum length mismatch");
        HalfSpectrum {
            n: self.n,
            bins: self
                .bins
                .iter()
                .zip(&other.bins)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Accumulates `other ⊙ weight` into `self` (the running partial sum a
    /// Pruned-BCM PE keeps while walking input-channel blocks).
    ///
    /// # Panics
    ///
    /// Panics if the signal lengths differ.
    pub fn emac_accumulate(&mut self, x: &Self, w: &Self) {
        assert_eq!(self.n, x.n, "half-spectrum length mismatch");
        assert_eq!(self.n, w.n, "half-spectrum length mismatch");
        for ((acc, &a), &b) in self.bins.iter_mut().zip(&x.bins).zip(&w.bins) {
            *acc += a * b;
        }
    }

    /// Inverse transform back to the real signal.
    pub fn inverse(&self) -> Vec<T> {
        let mut out = vec![T::ZERO; self.n];
        self.inverse_into(&mut out);
        out
    }

    /// Inverse transform writing into a caller-provided slice, expanding
    /// through a pooled scratch buffer instead of allocating the full
    /// spectrum (and the output vector) per call.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n`.
    pub fn inverse_into(&self, out: &mut [T]) {
        inverse_half_into(self.n, &self.bins, out);
    }

    /// An all-zero half-spectrum for accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn zeros(n: usize) -> Self {
        assert!(crate::is_power_of_two(n), "signal length must be 2^k");
        HalfSpectrum {
            n,
            bins: vec![Complex::zero(); n / 2 + 1],
        }
    }
}

/// Forward-transforms a real signal into caller-provided half-spectrum
/// bins `0 ..= n/2`: the full spectrum is computed in a pooled scratch
/// buffer and only the independent bins are copied out — zero
/// allocations once the thread's arena is warm. The inverse of
/// [`inverse_half_into`].
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two or
/// `bins.len() != x.len()/2 + 1`.
pub fn forward_half_into<T: Scalar>(x: &[T], bins: &mut [Complex<T>]) {
    let n = x.len();
    assert_eq!(
        bins.len(),
        n / 2 + 1,
        "half spectrum of n={n} needs n/2+1 bins"
    );
    crate::workspace::with_scratch::<T, _>(|full| {
        crate::plan::with_plan::<T, _>(n, |plan| plan.forward_real_into(x, full));
        bins.copy_from_slice(&full[..=n / 2]);
    });
}

/// Inverse-transforms raw half-spectrum bins into a caller-provided real
/// slice: the bins are expanded to the full conjugate-symmetric spectrum
/// in a pooled scratch buffer and inverse-transformed there — zero
/// allocations once the thread's arena is warm.
///
/// # Panics
///
/// Panics if `bins.len() != n/2 + 1`, `out.len() != n`, or `n` is not a
/// power of two.
pub fn inverse_half_into<T: Scalar>(n: usize, bins: &[Complex<T>], out: &mut [T]) {
    assert_eq!(
        bins.len(),
        n / 2 + 1,
        "half spectrum of n={n} needs n/2+1 bins"
    );
    assert_eq!(out.len(), n, "inverse of n={n} needs an n-length output");
    crate::workspace::with_scratch::<T, _>(|full| {
        full.resize(n, Complex::zero());
        full[..=n / 2].copy_from_slice(bins);
        for k in 1..n / 2 {
            full[n - k] = bins[k].conj();
        }
        crate::plan::with_plan::<T, _>(n, |plan| plan.inverse(full));
        for (o, z) in out.iter_mut().zip(full.iter()) {
            *o = z.re;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fft;

    #[test]
    fn round_trip() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let h = HalfSpectrum::forward(&x);
        assert_eq!(h.signal_len(), 16);
        assert_eq!(h.bins().len(), 9);
        assert_eq!(h.mac_count(), 9);
        let back = h.inverse();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn emac_equals_full_spectrum_product() {
        let x: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let w: Vec<f64> = (0..8).map(|i| 0.5 - 0.1 * i as f64).collect();
        let hx = HalfSpectrum::forward(&x);
        let hw = HalfSpectrum::forward(&w);
        let prod = hx.emac(&hw);

        let plan = Fft::new(8);
        let fx = plan.forward_real(&x);
        let fw = plan.forward_real(&w);
        let full: Vec<Complex<f64>> = fx.iter().zip(&fw).map(|(&a, &b)| a * b).collect();
        for (k, bin) in prod.bins().iter().enumerate() {
            assert!((bin.re - full[k].re).abs() < 1e-10);
            assert!((bin.im - full[k].im).abs() < 1e-10);
        }
        // And the product spectrum inverts to a real signal.
        let y = prod.inverse();
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn accumulate_matches_sum_of_products() {
        let a: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..8).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let c: Vec<f64> = (0..8).map(|i| (i % 3) as f64).collect();
        let d: Vec<f64> = (0..8).map(|i| -(i as f64) * 0.2).collect();

        let mut acc = HalfSpectrum::zeros(8);
        acc.emac_accumulate(&HalfSpectrum::forward(&a), &HalfSpectrum::forward(&b));
        acc.emac_accumulate(&HalfSpectrum::forward(&c), &HalfSpectrum::forward(&d));

        let p1 = HalfSpectrum::forward(&a).emac(&HalfSpectrum::forward(&b));
        let p2 = HalfSpectrum::forward(&c).emac(&HalfSpectrum::forward(&d));
        for ((acc_bin, &x), &y) in acc.bins().iter().zip(p1.bins()).zip(p2.bins()) {
            let want = x + y;
            assert!((acc_bin.re - want.re).abs() < 1e-10);
            assert!((acc_bin.im - want.im).abs() < 1e-10);
        }
    }

    #[test]
    fn mac_savings_vs_full_spectrum() {
        // For BS = 8 the eMAC PE does 5 MACs instead of 8: the savings the
        // paper's PE design banks on.
        let h = HalfSpectrum::<f64>::zeros(8);
        assert_eq!(h.mac_count(), 5);
        let h32 = HalfSpectrum::<f64>::zeros(32);
        assert_eq!(h32.mac_count(), 17);
    }
}
