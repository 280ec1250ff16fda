//! A from-scratch CNN training framework with block-circulant layers.
//!
//! This crate is the training substrate the RP-BCM paper assumes: enough of
//! a deep-learning stack to *train* dense, BCM-compressed and
//! hadaBCM-compressed convolutional networks and observe the paper's
//! accuracy/compression trade-offs — implemented entirely in safe Rust on
//! the [`tensor`] crate.
//!
//! - [`layers`]: `Conv2d` (im2col), `BcmConv2d` (plain or hadaBCM),
//!   `Linear`, `BatchNorm2d`, `ReLU`, `MaxPool2d`, `GlobalAvgPool`,
//!   `Flatten` — each with hand-derived backward passes.
//! - [`layers::checkpoint`]: compact `.rpbcm` binary checkpointing of
//!   deployed (hadaBCM-folded, pruned) networks via `Network::save` /
//!   `Network::load`, with bit-identical inference across the round trip.
//! - [`optim`]: SGD with momentum/weight decay and the cosine-annealing
//!   schedule the paper trains with (§V-A).
//! - [`loss`]: softmax cross-entropy.
//! - [`data`]: deterministic synthetic vision datasets standing in for
//!   CIFAR-10/100/ImageNet (see DESIGN.md's substitution table).
//! - [`models`]: scaled-down VGG-16/19 and ResNet-18 style builders with a
//!   selectable convolution mode (dense / BCM / hadaBCM).
//! - [`train`]: the training loop, evaluation, and the adapter that lets
//!   `rpbcm`'s Algorithm 1 drive fine-tuning.
//!
//! # Example
//!
//! ```no_run
//! use nn::data::SyntheticVision;
//! use nn::models::{ConvMode, vgg_tiny};
//! use nn::train::{Trainer, TrainConfig};
//!
//! let data = SyntheticVision::cifar10_like(64, 32, 7);
//! let mut net = vgg_tiny(ConvMode::HadaBcm { block_size: 8 }, data.num_classes(), 11);
//! let mut trainer = Trainer::new(TrainConfig::default());
//! let acc = trainer.fit(&mut net, &data);
//! println!("accuracy {acc}");
//! ```

// Index-based loops mirror the mathematical/hardware notation the code
// implements; iterator rewrites obscure the kernels.
#![allow(clippy::needless_range_loop)]

pub mod baselines;
pub mod data;
pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod seq;
pub mod train;

pub use layers::checkpoint::{CheckpointError, CheckpointMeta};
pub use layers::{Layer, Network};
pub use models::ConvMode;
pub use train::{TrainConfig, Trainer};
