//! Fast Fourier transforms for the RP-BCM reproduction.
//!
//! BCM compression replaces each circulant-block matrix–vector product with
//! "FFT → element-wise MAC → IFFT" (paper §II-A). This crate provides the
//! float-domain machinery that both the training stack and the accelerator
//! model build on:
//!
//! - [`Complex`]: a minimal complex number over `f32`/`f64`;
//! - [`Fft`]: an iterative radix-2 Cooley–Tukey transform with a precomputed
//!   twiddle table (the software analogue of the accelerator's twiddle ROM).
//!   Its interleaved `Complex<T>` butterfly is the crate's one float
//!   transform, as the paper's accelerator has one FFT PE design;
//! - [`real`]: the packed real-input FFT exposing the conjugate-symmetric
//!   half-spectrum — the reason an eMAC PE only needs `BS/2 + 1` MACs
//!   (paper §IV-B);
//! - [`conv`]: circular convolution, plus naive O(n²) convolution and
//!   correlation references that anchor the property tests;
//! - [`plan`] and [`workspace`]: the thread-local plan cache and the one
//!   thread-local scratch arena every float spectral kernel borrows its
//!   complex buffers from.
//!
//! # Example
//!
//! ```
//! use fft::{Complex, Fft};
//!
//! let fft = Fft::<f64>::new(8);
//! let mut x: Vec<Complex<f64>> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let orig = x.clone();
//! fft.forward(&mut x);
//! fft.inverse(&mut x);
//! for (a, b) in x.iter().zip(&orig) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

// Every public item must carry documentation: these crates are the
// reproduction's reference API surface.
#![deny(missing_docs)]
mod complex;
#[allow(clippy::module_inception)]
mod fft;

pub mod conv;
pub mod plan;
pub mod real;
pub mod workspace;

pub use crate::fft::{naive_dft, Fft};
pub use complex::Complex;

/// `true` if `n` is a power of two (the only sizes radix-2 FFT supports —
/// and why the paper notes BS must be 2ⁿ).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// log₂ of a power of two.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn log2(n: usize) -> u32 {
    assert!(is_power_of_two(n), "{n} is not a power of two");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(12));
    }

    #[test]
    fn log2_of_powers() {
        assert_eq!(log2(1), 0);
        assert_eq!(log2(8), 3);
        assert_eq!(log2(1024), 10);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_rejects_non_powers() {
        log2(6);
    }
}
