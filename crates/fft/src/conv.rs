//! Circular convolution and correlation — the computational identity behind
//! BCM compression.
//!
//! A circulant matrix–vector product is a circular convolution, so it can be
//! evaluated either naively in O(n²) or through the FFT in O(n log n). Both
//! paths live here; the naive one is the ground truth for property tests
//! and for the accelerator's bit-exactness checks. Correlation, the
//! adjoint backpropagation computes, has only the naive form.

use tensor::Scalar;

/// Circular convolution `y[i] = Σ_j a[j] · b[(i - j) mod n]`, naive O(n²).
///
/// # Panics
///
/// Panics if the lengths differ or are zero.
pub fn circular_convolve_naive<T: Scalar>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular convolution length mismatch");
    assert!(!a.is_empty(), "circular convolution of empty signals");
    let n = a.len();
    (0..n)
        .map(|i| (0..n).map(|j| a[j] * b[(i + n - j) % n]).sum())
        .collect()
}

/// Circular convolution via FFT: `y = IFFT(FFT(a) ⊙ FFT(b))`, O(n log n).
///
/// # Panics
///
/// Panics if lengths differ or are not a power of two.
///
/// # Example
///
/// ```
/// use fft::conv;
///
/// let a = [1.0_f64, 2.0, 3.0, 4.0];
/// let b = [1.0_f64, 0.0, 0.0, 0.0];
/// // Convolving with a unit impulse returns the signal.
/// let y = conv::circular_convolve(&a, &b);
/// for (x, w) in y.iter().zip(&a) {
///     assert!((x - w).abs() < 1e-12);
/// }
/// ```
pub fn circular_convolve<T: Scalar>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular convolution length mismatch");
    let n = a.len();
    crate::plan::with_plan::<T, _>(n, |plan| {
        crate::workspace::with_scratch::<T, _>(|fa| {
            crate::workspace::with_scratch::<T, _>(|fb| {
                plan.forward_real_into(a, fa);
                plan.forward_real_into(b, fb);
                for (x, &y) in fa.iter_mut().zip(fb.iter()) {
                    *x *= y;
                }
                plan.inverse(fa);
                fa.iter().map(|z| z.re).collect()
            })
        })
    })
}

/// Circular cross-correlation `y[i] = Σ_j a[j] · b[(j + i) mod n]`,
/// naive O(n²). This is the adjoint of [`circular_convolve_naive`] and is
/// what backpropagation through a circulant layer computes.
///
/// # Panics
///
/// Panics if the lengths differ or are zero.
pub fn circular_correlate_naive<T: Scalar>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular correlation length mismatch");
    assert!(!a.is_empty(), "circular correlation of empty signals");
    let n = a.len();
    (0..n)
        .map(|i| (0..n).map(|j| a[j] * b[(j + i) % n]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fft_convolution_matches_naive() {
        let a: Vec<f64> = (0..16).map(|i| (i as f64 * 0.9).sin()).collect();
        let b: Vec<f64> = (0..16).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let fast = circular_convolve(&a, &b);
        let slow = circular_convolve_naive(&a, &b);
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0_f64, -2.0, 0.5, 3.0];
        let b = [0.25_f64, 1.5, -1.0, 2.0];
        let ab = circular_convolve_naive(&a, &b);
        let ba = circular_convolve_naive(&b, &a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn impulse_is_identity() {
        let a = [5.0_f64, 6.0, 7.0, 8.0];
        let mut impulse = [0.0_f64; 4];
        impulse[0] = 1.0;
        assert_eq!(circular_convolve_naive(&a, &impulse), a.to_vec());
    }

    #[test]
    fn shifted_impulse_rotates() {
        let a = [1.0_f64, 2.0, 3.0, 4.0];
        let mut shift1 = [0.0_f64; 4];
        shift1[1] = 1.0;
        // Convolving with δ[i-1] rotates the signal right by one.
        assert_eq!(
            circular_convolve_naive(&a, &shift1),
            vec![4.0, 1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn correlation_adjoint_identity() {
        // <conv(w, x), y> == <x, corr(w, y)> — the identity backprop uses.
        let w = [0.5_f64, -1.0, 2.0, 0.25];
        let x = [1.0_f64, 2.0, -1.5, 0.5];
        let y = [2.0_f64, 0.0, 1.0, -1.0];
        let conv_wx = circular_convolve_naive(&w, &x);
        let corr_wy = circular_correlate_naive(&w, &y);
        let lhs: f64 = conv_wx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&corr_wy).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");
    }

    proptest! {
        #[test]
        fn prop_fft_matches_naive_convolution(
            raw in proptest::collection::vec(-10.0_f64..10.0, 16),
        ) {
            let (a, b) = raw.split_at(8);
            let fast = circular_convolve(a, b);
            let slow = circular_convolve_naive(a, b);
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-7);
            }
        }

        #[test]
        fn prop_convolution_linear_in_first_arg(
            raw in proptest::collection::vec(-5.0_f64..5.0, 24),
            s in -3.0_f64..3.0,
        ) {
            let a = &raw[0..8];
            let b = &raw[8..16];
            let c = &raw[16..24];
            // conv(s*a + b, c) == s*conv(a, c) + conv(b, c)
            let lhs_input: Vec<f64> = a.iter().zip(b).map(|(x, y)| s * x + y).collect();
            let lhs = circular_convolve_naive(&lhs_input, c);
            let ca = circular_convolve_naive(a, c);
            let cb = circular_convolve_naive(b, c);
            for i in 0..8 {
                prop_assert!((lhs[i] - (s * ca[i] + cb[i])).abs() < 1e-9);
            }
        }
    }
}
