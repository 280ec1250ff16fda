//! RP-BCM: rank-enhanced and highly-pruned block-circulant matrix
//! compression (DATE 2023).
//!
//! The paper's framework compresses a network in two stages (its Fig. 3):
//!
//! 1. **hadaBCM** ([`hadabcm`]): every circulant block is re-parameterized
//!    as the Hadamard product of two circulant blocks during training,
//!    repairing the poor rank-condition of plain BCM training, then folded
//!    back into a single block (zero inference overhead).
//! 2. **BCM-wise pruning** ([`pruning`]): whole blocks are removed by
//!    ℓ₂-norm rank with an adaptive ratio α, fine-tuning between steps
//!    until a target accuracy β is reached (its Algorithm 1).
//!
//! Supporting modules: [`accounting`] (parameter/FLOP reduction — the
//! arithmetic behind its Table I), [`normstats`] (pruning-unit norm
//! distributions — its Fig. 5), and [`skipindex`] (the 1-bit-per-BCM skip
//! buffer its PE controller consumes — §IV-B).
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rpbcm::hadabcm::HadaBcm;
//!
//! // Parameterize an 8x8 circulant block as A ⊙ B and fold for inference.
//! let mut rng = StdRng::seed_from_u64(0);
//! let h = HadaBcm::<f32>::random(&mut rng, 8, 0.5);
//! let folded = h.fold();
//! assert_eq!(folded.block_size(), 8);
//! ```

pub mod accounting;
pub mod hadabcm;
pub mod normstats;
pub mod pruning;
pub mod skipindex;

pub use hadabcm::{HadaBcm, HadaBcmGrid};
pub use pruning::{BcmWisePruner, PruneOutcome, PruningReport};
pub use skipindex::SkipIndexBuffer;
