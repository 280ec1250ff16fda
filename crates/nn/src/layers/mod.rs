//! Layers with hand-derived forward/backward passes.

mod act;
mod attention;
mod bcm;
mod bcmlinear;
pub mod checkpoint;
mod conv;
mod gates;
mod linear;
mod network;
mod norm;
mod param;
mod pool;
mod recurrent;

pub use act::{Flatten, ReLU};
pub use attention::BcmAttention;
pub use bcm::{BcmConv2d, BcmLayer};
pub use bcmlinear::BcmLinear;
pub use conv::Conv2d;
pub use linear::Linear;
pub use network::{Network, ResidualBlock};
pub use norm::BatchNorm2d;
pub use param::Param;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use recurrent::{BcmGru, BcmLstm};

use crate::optim::SgdUpdate;
use tensor::Tensor;

/// What `backward` panics with when no training forward left its state.
const NO_TRAINING_FORWARD: &str = "backward before training forward";

/// A differentiable layer.
///
/// A training forward (`train = true`) keeps whatever `backward` needs; an
/// eval forward keeps nothing and drops what an earlier training forward
/// kept, so a served model holds only its weights and their derived
/// inference caches. `backward` consumes the upstream gradient and returns
/// the gradient with respect to the layer input, accumulating parameter
/// gradients internally. `step` applies an SGD update to the layer's
/// parameters (a no-op for stateless layers).
///
/// `Send` is a supertrait so whole networks can move across threads
/// (the serving engine runs batches on a dedicated worker).
pub trait Layer: Send {
    /// Layer name for reports.
    fn name(&self) -> &str;

    /// Forward pass. `train` selects training behaviour (batch-norm
    /// statistics, etc.).
    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32>;

    /// Backward pass: upstream gradient in, input gradient out.
    ///
    /// # Panics
    ///
    /// Panics with "backward before training forward" when no training
    /// forward has left its state: none ran, or an eval forward ran since.
    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32>;

    /// Applies one SGD update and clears gradients. Default: no parameters.
    fn step(&mut self, _update: &SgdUpdate) {}

    /// Number of trainable parameters. Default: zero.
    fn param_count(&self) -> usize {
        0
    }

    /// The layer's parameter tensors (values plus accumulated gradients),
    /// recursing into composites. Default: none. Used by the training
    /// telemetry to compute gradient norms and update ratios without
    /// copying — implementations return borrows in a stable order.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable variant of [`Layer::params`], in the same stable order. The
    /// data-parallel trainer uses it to sync replica weights from the
    /// master and to reduce replica gradients back in a fixed order.
    /// BCM layers drop their cached dense and spectral weights here,
    /// since the caller may rewrite the values.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// All batch-norm sublayers, recursively, in a stable order matching
    /// across clones of the same layer. The data-parallel trainer pools
    /// per-shard batch statistics through this surface.
    fn bn_layers(&self) -> Vec<&BatchNorm2d> {
        Vec::new()
    }

    /// Mutable variant of [`Layer::bn_layers`].
    fn bn_layers_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        Vec::new()
    }

    /// Clones into a boxed trait object (manual object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Access to BCM-specific surface when the layer is block-circulant.
    fn bcm(&self) -> Option<&dyn BcmLayer> {
        None
    }

    /// Mutable access to BCM-specific surface.
    fn bcm_mut(&mut self) -> Option<&mut dyn BcmLayer> {
        None
    }

    /// All block-circulant sublayers, recursively (composites like
    /// [`ResidualBlock`] override this to surface nested BCM layers).
    fn bcm_layers(&self) -> Vec<&dyn BcmLayer> {
        self.bcm().into_iter().collect()
    }

    /// Mutable variant of [`Layer::bcm_layers`].
    fn bcm_layers_mut(&mut self) -> Vec<&mut dyn BcmLayer> {
        self.bcm_mut().into_iter().collect()
    }

    /// The dense convolution weight `[c_out, c_in, kh, kw]` when the layer
    /// is an ordinary [`Conv2d`]; `None` otherwise. Used by the weight
    /// analysis experiments (paper Figs. 2/5).
    fn conv_weight(&self) -> Option<Tensor<f32>> {
        None
    }

    /// Replaces the dense convolution weight (baseline compressors edit
    /// trained layers in place).
    ///
    /// # Errors
    ///
    /// Returns [`SetConvWeightError`] when the layer has no dense conv
    /// weight; implementations panic on shape mismatch instead, since that
    /// is a caller bug.
    fn set_conv_weight(&mut self, _w: &Tensor<f32>) -> Result<(), SetConvWeightError> {
        Err(SetConvWeightError)
    }

    /// The layer's serializable inference state for `.rpbcm`
    /// checkpointing (see [`checkpoint`]), or `None` when the layer does
    /// not support it — `Network::save` then fails with
    /// [`checkpoint::CheckpointError::Unsupported`].
    fn snapshot(&self) -> Option<checkpoint::LayerSnapshot> {
        None
    }
}

/// Error: the layer has no dense convolution weight to replace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetConvWeightError;

impl std::fmt::Display for SetConvWeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "layer has no dense convolution weight")
    }
}

impl std::error::Error for SetConvWeightError {}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
