//! Circulant and block-circulant matrix algebra for RP-BCM.
//!
//! A circulant matrix is fully determined by one defining vector; its
//! matrix–vector product is a circular convolution, its eigenvalues are the
//! DFT of the defining vector, and — because circulant matrices are normal —
//! its singular values are the magnitudes of those DFT bins. These identities
//! power everything in the paper:
//!
//! - storage drops from O(n²) to O(n) (paper §II-A),
//! - compute drops from O(n²) to O(n log n) via "FFT → eMAC → IFFT",
//! - the rank-condition of a block is readable straight off its spectrum
//!   (paper §II-B1, Figs. 2/9a),
//! - the Hadamard product of two circulants is circulant, with spectrum
//!   equal to the *circular convolution* of the factors' spectra — the
//!   mechanism by which hadaBCM enriches rank (paper §III-A).
//!
//! [`CirculantMatrix`] is the single block; [`BlockCirculant`] partitions a
//! full weight matrix into a grid of blocks; [`rank`] hosts the
//! rank-condition analysis.
//!
//! # Example
//!
//! ```
//! use circulant::CirculantMatrix;
//!
//! let c = CirculantMatrix::new(vec![1.0_f64, 2.0, 0.0, 0.0]);
//! let x = [1.0, 0.0, 0.0, 0.0];
//! // Multiplying the dense expansion equals the FFT fast path.
//! let dense = c.matvec_naive(&x);
//! let fast = c.matvec(&x);
//! for (a, b) in dense.iter().zip(&fast) {
//!     assert!((a - b).abs() < 1e-12);
//! }
//! ```

// Index-based loops mirror the mathematical/hardware notation the code
// implements; iterator rewrites obscure the kernels.
#![allow(clippy::needless_range_loop)]
// Every public item must carry documentation: these crates are the
// reproduction's reference API surface.
#![deny(missing_docs)]

mod block;
#[allow(clippy::module_inception)]
mod circulant;

pub mod rank;

pub use block::{BlockCirculant, ConvBlockCirculant};
pub use circulant::CirculantMatrix;
