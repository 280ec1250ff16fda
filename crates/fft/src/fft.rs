//! Iterative radix-2 decimation-in-time Cooley–Tukey FFT.

use crate::{is_power_of_two, Complex};
use tensor::Scalar;

/// Per-call forward-transform latency distribution (nanoseconds).
static FORWARD_NS: telemetry::Histogram = telemetry::Histogram::new("fft.forward_ns");
/// Per-call inverse-transform latency distribution (nanoseconds).
static INVERSE_NS: telemetry::Histogram = telemetry::Histogram::new("fft.inverse_ns");

/// A fixed-size FFT plan with a precomputed twiddle table.
///
/// This mirrors the accelerator's FFT PE (paper §IV-B): the twiddle factors
/// live in a ROM; the butterfly network is the well-known Cooley–Tukey
/// structure; the inverse transform is computed by conjugation plus a
/// `1/BS` scale, which hardware implements as a `log₂ BS` right-shift.
///
/// # Example
///
/// ```
/// use fft::{Complex, Fft};
///
/// let plan = Fft::<f64>::new(4);
/// let mut x = vec![
///     Complex::new(1.0, 0.0),
///     Complex::new(0.0, 0.0),
///     Complex::new(0.0, 0.0),
///     Complex::new(0.0, 0.0),
/// ];
/// plan.forward(&mut x);
/// // The DFT of a unit impulse is all-ones.
/// for bin in &x {
///     assert!((bin.re - 1.0).abs() < 1e-12 && bin.im.abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Fft<T: Scalar> {
    n: usize,
    /// Twiddle factors `e^{-2πik/n}` for `k in 0..n/2` (forward direction).
    twiddles: Vec<Complex<T>>,
    /// Bit-reversal permutation.
    rev: Vec<usize>,
}

impl<T: Scalar> Fft<T> {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (the radix-2 constraint — the
    /// same constraint that forces BCM block sizes to be 2ⁿ).
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "FFT size must be a power of two, got {n}"
        );
        let twiddles = (0..n / 2)
            .map(|k| {
                let theta = -2.0 * std::f64::consts::PI * (k as f64) / (n as f64);
                Complex::from_polar(T::ONE, T::from_f64(theta))
            })
            .collect();
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (usize::BITS - bits)
                }
            })
            .collect();
        Fft { n, twiddles, rev }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-0 plan (never constructible; kept
    /// for the `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The twiddle table (the "ROM" contents), `e^{-2πik/n}` for
    /// `k in 0..n/2`.
    pub fn twiddles(&self) -> &[Complex<T>] {
        &self.twiddles
    }

    /// In-place forward DFT: `X[k] = Σ_j x[j]·e^{-2πijk/n}`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan size.
    pub fn forward(&self, x: &mut [Complex<T>]) {
        let _lat = FORWARD_NS.span();
        self.transform(x, false);
    }

    /// In-place inverse DFT, including the `1/n` normalization:
    /// `x[j] = (1/n)·Σ_k X[k]·e^{+2πijk/n}`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan size.
    pub fn inverse(&self, x: &mut [Complex<T>]) {
        let _lat = INVERSE_NS.span();
        self.transform(x, true);
        let scale = T::ONE / T::from_usize(self.n);
        for z in x {
            *z = z.scale(scale);
        }
    }

    fn transform(&self, x: &mut [Complex<T>], inverse: bool) {
        assert_eq!(
            x.len(),
            self.n,
            "buffer length {} does not match FFT size {}",
            x.len(),
            self.n
        );
        // Bit-reversal permutation.
        for (i, &j) in self.rev.iter().enumerate() {
            if i < j {
                x.swap(i, j);
            }
        }
        // Butterfly stages: each `2·half` run pairs its halves.
        let mut half = 1;
        while half < self.n {
            let step = self.n / (2 * half);
            for run in x.chunks_exact_mut(2 * half) {
                let (lo, hi) = run.split_at_mut(half);
                for (k, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let tw = self.twiddles[k * step];
                    let tw = if inverse { tw.conj() } else { tw };
                    let u = *a;
                    let v = *b * tw;
                    *a = u + v;
                    *b = u - v;
                }
            }
            half *= 2;
        }
    }

    /// Convenience: forward transform of a real signal, allocating the
    /// complex buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan size.
    pub fn forward_real(&self, x: &[T]) -> Vec<Complex<T>> {
        let mut buf = Vec::new();
        self.forward_real_into(x, &mut buf);
        buf
    }

    /// Forward transform of a real signal into a caller-provided buffer
    /// (cleared and resized to the plan size) — the allocation-free variant
    /// of [`Fft::forward_real`] for use with [`crate::workspace`] arenas.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan size.
    pub fn forward_real_into(&self, x: &[T], out: &mut Vec<Complex<T>>) {
        assert_eq!(x.len(), self.n, "input length must equal FFT size");
        out.clear();
        out.extend(x.iter().map(|&v| Complex::from_real(v)));
        self.forward(out);
    }
}

/// Reference O(n²) DFT used to validate the fast path in tests.
pub fn naive_dft<T: Scalar>(x: &[Complex<T>], inverse: bool) -> Vec<Complex<T>> {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex::zero();
            for (j, &xj) in x.iter().enumerate() {
                let theta =
                    sign * 2.0 * std::f64::consts::PI * (j as f64) * (k as f64) / (n as f64);
                acc += xj * Complex::from_polar(T::ONE, T::from_f64(theta));
            }
            if inverse {
                acc.scale(T::ONE / T::from_usize(n))
            } else {
                acc
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex<f64>, b: Complex<f64>, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 32] {
            let x: Vec<Complex<f64>> = (0..n)
                .map(|i| Complex::new((i as f64).sin() + 0.5, (i as f64 * 0.7).cos()))
                .collect();
            let want = naive_dft(&x, false);
            let plan = Fft::new(n);
            let mut got = x.clone();
            plan.forward(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!(close(*g, *w, 1e-9), "n={n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let n = 64;
        let plan = Fft::<f64>::new(n);
        let x: Vec<Complex<f64>> = (0..n)
            .map(|i| Complex::new((i * 3 % 7) as f64, (i % 5) as f64 - 2.0))
            .collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!(close(*a, *b, 1e-10));
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = Fft::<f64>::new(16);
        let mut x = vec![Complex::zero(); 16];
        x[0] = Complex::one();
        plan.forward(&mut x);
        for bin in &x {
            assert!(close(*bin, Complex::one(), 1e-12));
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 32;
        let plan = Fft::<f64>::new(n);
        let x: Vec<Complex<f64>> = (0..n)
            .map(|i| Complex::new(i as f64, -(i as f64) / 3.0))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut s = x;
        plan.forward(&mut s);
        let freq_energy: f64 = s.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn real_input_spectrum_is_conjugate_symmetric() {
        let n = 16;
        let plan = Fft::<f64>::new(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let s = plan.forward_real(&x);
        for k in 1..n {
            let a = s[k];
            let b = s[n - k].conj();
            assert!(close(a, b, 1e-10), "bin {k}");
        }
        assert!(s[0].im.abs() < 1e-12);
        assert!(s[n / 2].im.abs() < 1e-12);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Fft::<f64>::new(1);
        let mut x = vec![Complex::new(5.0, -2.0)];
        plan.forward(&mut x);
        assert_eq!(x[0], Complex::new(5.0, -2.0));
        plan.inverse(&mut x);
        assert_eq!(x[0], Complex::new(5.0, -2.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Fft::<f32>::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match FFT size")]
    fn rejects_wrong_buffer_length() {
        let plan = Fft::<f64>::new(8);
        let mut x = vec![Complex::zero(); 4];
        plan.forward(&mut x);
    }

    #[test]
    fn f32_round_trip_within_tolerance() {
        let n = 32;
        let plan = Fft::<f32>::new(n);
        let x: Vec<Complex<f32>> = (0..n).map(|i| Complex::new(i as f32 * 0.1, 0.0)).collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!((a.re - b.re).abs() < 1e-4);
        }
    }

    #[test]
    fn twiddle_table_size_is_half_n() {
        let plan = Fft::<f64>::new(16);
        assert_eq!(plan.twiddles().len(), 8);
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
    }
}
