//! RP-BCM: rank-enhanced and highly-pruned block-circulant matrix
//! compression (DATE 2023).
//!
//! The paper's framework compresses a network in two stages (its Fig. 3):
//!
//! 1. **hadaBCM**: every circulant block is re-parameterized as the
//!    Hadamard product of two circulant blocks during training, repairing
//!    the poor rank-condition of plain BCM training, then folded back into
//!    a single block (zero inference overhead). It lives in the training
//!    stack's one weight store (`nn`'s `BcmConv2d::new_hada`); the algebra
//!    it folds with is `circulant::CirculantMatrix::hadamard`.
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
//! use rpbcm::pruning::prune_indices;
//! use rpbcm::SkipIndexBuffer;
//!
//! // Rank four blocks by their folded ℓ₂ norms and drop the weakest half;
//! // the skip index then marks the two survivors live.
//! let norms = [0.9, 0.1, 0.4, 0.2];
//! let victims = prune_indices(&norms, 0.5);
//! assert_eq!(victims, vec![1, 3]);
//! let skip: SkipIndexBuffer = (0..4).map(|i| !victims.contains(&i)).collect();
//! assert_eq!(skip.live_count(), 2);
//! ```

pub mod accounting;
pub mod normstats;
pub mod pruning;
pub mod skipindex;

pub use pruning::{BcmWisePruner, PruneOutcome, PruningReport};
pub use skipindex::SkipIndexBuffer;
