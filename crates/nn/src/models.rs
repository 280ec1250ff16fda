//! Scaled-down VGG and ResNet builders with selectable convolution mode.
//!
//! The paper evaluates VGG-16 (CIFAR-10), VGG-19 (CIFAR-100) and
//! ResNet-18/50 (ImageNet). These builders reproduce the *architecture
//! families* at CPU-trainable scale (documented substitution, DESIGN.md
//! §2): same stage structure, pooling rhythm and residual topology, with
//! channel widths divided by 8. The `ConvMode` switch selects dense,
//! plain-BCM or hadaBCM convolutions — everything else held fixed, which is
//! exactly the controlled comparison Figs. 9b/9c make.

use crate::layers::{
    BatchNorm2d, BcmAttention, BcmConv2d, BcmGru, BcmLstm, Conv2d, GlobalAvgPool, Layer, Linear,
    MaxPool2d, Network, ReLU, ResidualBlock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How convolution layers are parameterized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvMode {
    /// Ordinary dense convolution (the paper's "Baseline").
    Dense,
    /// Traditional block-circulant compression (the paper's "BCM").
    Bcm {
        /// Block size `BS`.
        block_size: usize,
    },
    /// Hadamard-product block-circulant compression (the paper's
    /// "Ours*1" before pruning).
    HadaBcm {
        /// Block size `BS`.
        block_size: usize,
    },
}

impl ConvMode {
    /// The block size, if compressed.
    pub fn block_size(&self) -> Option<usize> {
        match *self {
            ConvMode::Dense => None,
            ConvMode::Bcm { block_size } | ConvMode::HadaBcm { block_size } => Some(block_size),
        }
    }
}

/// Builds one convolution in the requested mode, falling back to dense
/// when the channels are not divisible by the block size (first RGB layer,
/// narrow stages at large BS — same rule prior BCM accelerators use).
fn conv_in_mode(
    mode: ConvMode,
    rng: &mut impl Rng,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Box<dyn Layer> {
    match mode {
        ConvMode::Dense => Box::new(Conv2d::new(rng, c_in, c_out, k, stride, pad)),
        ConvMode::Bcm { block_size } => {
            if c_in.is_multiple_of(block_size) && c_out.is_multiple_of(block_size) {
                Box::new(BcmConv2d::new(rng, c_in, c_out, k, stride, pad, block_size))
            } else {
                Box::new(Conv2d::new(rng, c_in, c_out, k, stride, pad))
            }
        }
        ConvMode::HadaBcm { block_size } => {
            if c_in.is_multiple_of(block_size) && c_out.is_multiple_of(block_size) {
                Box::new(BcmConv2d::new_hada(
                    rng, c_in, c_out, k, stride, pad, block_size,
                ))
            } else {
                Box::new(Conv2d::new(rng, c_in, c_out, k, stride, pad))
            }
        }
    }
}

fn conv_bn_relu(
    mode: ConvMode,
    rng: &mut impl Rng,
    c_in: usize,
    c_out: usize,
) -> Vec<Box<dyn Layer>> {
    vec![
        conv_in_mode(mode, rng, c_in, c_out, 3, 1, 1),
        Box::new(BatchNorm2d::new(c_out)),
        Box::new(ReLU::new()),
    ]
}

/// VGG-16-style network for 16×16 inputs: stage widths `[32, 64, 128]`
/// with `[2, 2, 3]` convs per stage (the 13-conv CIFAR VGG-16 scaled down,
/// the last two 512-wide stages merged into one 128-wide stage of 3
/// convs). All stages are divisible by BS up to 32, so the paper's full
/// BS ∈ {8, 16, 32} sweep compresses every non-RGB layer.
pub fn vgg_tiny(mode: ConvMode, num_classes: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let stages: &[(usize, usize)] = &[(32, 2), (64, 2), (128, 3)];
    let mut c_in = 3;
    for &(width, convs) in stages {
        for _ in 0..convs {
            layers.extend(conv_bn_relu(mode, &mut rng, c_in, width));
            c_in = width;
        }
        layers.push(Box::new(MaxPool2d::new(2)));
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(&mut rng, 128, num_classes)));
    Network::new("vgg-tiny", layers)
}

/// VGG-19-style network: same stages with `[2, 2, 4]` convs (the deeper
/// variant the paper pairs with CIFAR-100).
pub fn vgg19_tiny(mode: ConvMode, num_classes: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let stages: &[(usize, usize)] = &[(32, 2), (64, 2), (128, 4)];
    let mut c_in = 3;
    for &(width, convs) in stages {
        for _ in 0..convs {
            layers.extend(conv_bn_relu(mode, &mut rng, c_in, width));
            c_in = width;
        }
        layers.push(Box::new(MaxPool2d::new(2)));
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(&mut rng, 128, num_classes)));
    Network::new("vgg19-tiny", layers)
}

fn basic_block(
    mode: ConvMode,
    rng: &mut impl Rng,
    name: &str,
    c_in: usize,
    c_out: usize,
    stride: usize,
) -> Box<dyn Layer> {
    let main: Vec<Box<dyn Layer>> = vec![
        conv_in_mode(mode, rng, c_in, c_out, 3, stride, 1),
        Box::new(BatchNorm2d::new(c_out)),
        Box::new(ReLU::new()),
        conv_in_mode(mode, rng, c_out, c_out, 3, 1, 1),
        Box::new(BatchNorm2d::new(c_out)),
    ];
    let shortcut: Option<Vec<Box<dyn Layer>>> = if stride != 1 || c_in != c_out {
        Some(vec![
            conv_in_mode(mode, rng, c_in, c_out, 1, stride, 0),
            Box::new(BatchNorm2d::new(c_out)),
        ])
    } else {
        None
    };
    Box::new(ResidualBlock::new(name, main, shortcut))
}

fn bottleneck_block(
    mode: ConvMode,
    rng: &mut impl Rng,
    name: &str,
    c_in: usize,
    mid: usize,
    c_out: usize,
    stride: usize,
) -> Box<dyn Layer> {
    let main: Vec<Box<dyn Layer>> = vec![
        conv_in_mode(mode, rng, c_in, mid, 1, 1, 0),
        Box::new(BatchNorm2d::new(mid)),
        Box::new(ReLU::new()),
        conv_in_mode(mode, rng, mid, mid, 3, stride, 1),
        Box::new(BatchNorm2d::new(mid)),
        Box::new(ReLU::new()),
        conv_in_mode(mode, rng, mid, c_out, 1, 1, 0),
        Box::new(BatchNorm2d::new(c_out)),
    ];
    let shortcut: Option<Vec<Box<dyn Layer>>> = if stride != 1 || c_in != c_out {
        Some(vec![
            conv_in_mode(mode, rng, c_in, c_out, 1, stride, 0),
            Box::new(BatchNorm2d::new(c_out)),
        ])
    } else {
        None
    };
    Box::new(ResidualBlock::new(name, main, shortcut))
}

/// ResNet-50-style network with *bottleneck* residual blocks (1×1 → 3×3 →
/// 1×1 with 4× expansion), ResNet-50's `[3, 4, 6, 3]` topology scaled to
/// widths `[16, 32, 32, 64]`·(mid) for CPU training — the architecture
/// family of the paper's Table I headline result.
pub fn resnet50_tiny(mode: ConvMode, num_classes: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(&mut rng, 3, 16, 3, 1, 1)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(ReLU::new()),
    ];
    // (mid, out, blocks, stride of first block)
    let stages: &[(usize, usize, usize, usize)] = &[
        (16, 64, 3, 1),
        (32, 128, 4, 2),
        (32, 128, 6, 1),
        (64, 256, 3, 2),
    ];
    let mut c_in = 16;
    for (si, &(mid, out, blocks, stride)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let s = if b == 0 { stride } else { 1 };
            layers.push(bottleneck_block(
                mode,
                &mut rng,
                &format!("layer{}_{b}", si + 1),
                c_in,
                mid,
                out,
                s,
            ));
            c_in = out;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(&mut rng, 256, num_classes)));
    Network::new("resnet50-tiny", layers)
}

/// ResNet-18-style network for 16×16–32×32 inputs: a 3×3 stem then four
/// stages of two basic blocks at widths `[16, 32, 64, 64]` (ResNet-18's
/// `[2,2,2,2]` topology with widths scaled for CPU training).
pub fn resnet18_tiny(mode: ConvMode, num_classes: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        // Stem stays dense like ImageNet ResNet's conv1 (RGB input).
        Box::new(Conv2d::new(&mut rng, 3, 16, 3, 1, 1)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(ReLU::new()),
    ];
    let stages: &[(usize, usize)] = &[(16, 1), (32, 2), (64, 2), (64, 1)];
    let mut c_in = 16;
    for (si, &(width, stride)) in stages.iter().enumerate() {
        for b in 0..2 {
            let s = if b == 0 { stride } else { 1 };
            layers.push(basic_block(
                mode,
                &mut rng,
                &format!("layer{}_{b}", si + 1),
                c_in,
                width,
                s,
            ));
            c_in = width;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(&mut rng, 64, num_classes)));
    Network::new("resnet18-tiny", layers)
}

/// Sequence classifier in the C-LSTM mold: one [`BcmLstm`] cell over
/// `[N, F, T, 1]`, mean-pooled hidden states, dense head. The whole stack
/// streams through `seq::SeqRunner` (GAP is the per-step identity), so a
/// trained instance serves over stateful sessions bit-identically to its
/// offline forward.
///
/// # Panics
///
/// Panics if `in_features` or `hidden` is not divisible by `bs`.
pub fn lstm_classifier(
    in_features: usize,
    hidden: usize,
    num_classes: usize,
    bs: usize,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(
        "bcm-lstm",
        vec![
            Box::new(BcmLstm::new(&mut rng, in_features, hidden, bs)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(&mut rng, hidden, num_classes)),
        ],
    )
}

/// Sequence classifier in the E-RNN mold: one [`BcmGru`] cell, mean-pooled
/// hidden states, dense head. Streams like [`lstm_classifier`].
///
/// # Panics
///
/// Panics if `in_features` or `hidden` is not divisible by `bs`.
pub fn gru_classifier(
    in_features: usize,
    hidden: usize,
    num_classes: usize,
    bs: usize,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(
        "bcm-gru",
        vec![
            Box::new(BcmGru::new(&mut rng, in_features, hidden, bs)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(&mut rng, hidden, num_classes)),
        ],
    )
}

/// Sequence classifier with a BCM-projected attention layer over the LSTM
/// hidden states. Attention is non-causal (every step attends to the whole
/// sequence), so this stack trains and evaluates offline only — it has no
/// streaming form and `seq::SeqRunner` rejects it.
///
/// # Panics
///
/// Panics if `in_features` or `hidden` is not divisible by `bs`.
pub fn attn_lstm_classifier(
    in_features: usize,
    hidden: usize,
    num_classes: usize,
    bs: usize,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(
        "bcm-attn-lstm",
        vec![
            Box::new(BcmLstm::new(&mut rng, in_features, hidden, bs)),
            Box::new(BcmAttention::new(&mut rng, hidden, bs)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(&mut rng, hidden, num_classes)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Tensor;

    #[test]
    fn vgg_tiny_shapes_and_modes() {
        for mode in [
            ConvMode::Dense,
            ConvMode::Bcm { block_size: 8 },
            ConvMode::HadaBcm { block_size: 8 },
        ] {
            let mut net = vgg_tiny(mode, 10, 1);
            let x = Tensor::<f32>::ones(&[2, 3, 16, 16]);
            let y = net.forward(&x, true);
            assert_eq!(y.dims(), &[2, 10], "{mode:?}");
            let g = net.backward(&Tensor::ones(&[2, 10]));
            assert_eq!(g.dims(), &[2, 3, 16, 16]);
        }
    }

    #[test]
    fn bcm_mode_reduces_conv_params() {
        let dense = vgg_tiny(ConvMode::Dense, 10, 1);
        let bcm = vgg_tiny(ConvMode::Bcm { block_size: 8 }, 10, 1);
        let hada = vgg_tiny(ConvMode::HadaBcm { block_size: 8 }, 10, 1);
        assert!(bcm.param_count() < dense.param_count() / 3);
        // hadaBCM trains 2x the BCM params but folds to the same count.
        assert!(hada.param_count() > bcm.param_count());
        assert_eq!(hada.folded_param_count(), bcm.folded_param_count());
        assert_eq!(hada.dense_equiv_param_count(), dense.param_count());
    }

    #[test]
    fn bcm_block_counts_scale_with_bs() {
        let b8 = vgg_tiny(ConvMode::Bcm { block_size: 8 }, 10, 1);
        let b16 = vgg_tiny(ConvMode::Bcm { block_size: 16 }, 10, 1);
        assert!(b8.bcm_block_count() > b16.bcm_block_count());
        assert!(b16.bcm_block_count() > 0);
    }

    #[test]
    fn resnet_tiny_forward_backward_all_modes() {
        for mode in [ConvMode::Dense, ConvMode::HadaBcm { block_size: 8 }] {
            let mut net = resnet18_tiny(mode, 10, 2);
            let x = Tensor::<f32>::ones(&[1, 3, 16, 16]);
            let y = net.forward(&x, true);
            assert_eq!(y.dims(), &[1, 10]);
            let g = net.backward(&Tensor::ones(&[1, 10]));
            assert_eq!(g.dims(), &[1, 3, 16, 16]);
        }
    }

    #[test]
    fn resnet_tiny_exposes_nested_bcm_layers() {
        let net = resnet18_tiny(ConvMode::Bcm { block_size: 8 }, 10, 3);
        // Residual blocks must surface their BCM convs.
        assert!(net.bcm_block_count() > 0);
        assert_eq!(net.bcm_importances().len(), net.bcm_block_count());
    }

    #[test]
    fn resnet50_tiny_bottlenecks_work_in_all_modes() {
        for mode in [ConvMode::Dense, ConvMode::Bcm { block_size: 8 }] {
            let mut net = resnet50_tiny(mode, 10, 5);
            let x = Tensor::<f32>::ones(&[1, 3, 16, 16]);
            let y = net.forward(&x, true);
            assert_eq!(y.dims(), &[1, 10], "{mode:?}");
            let g = net.backward(&Tensor::ones(&[1, 10]));
            assert_eq!(g.dims(), &[1, 3, 16, 16]);
        }
        // The bottleneck 1x1 convs are BCM-compressed too.
        let net = resnet50_tiny(ConvMode::Bcm { block_size: 8 }, 10, 5);
        assert!(net.bcm_block_count() > 100);
        // ResNet-50-tiny is deeper than ResNet-18-tiny.
        let r18 = resnet18_tiny(ConvMode::Dense, 10, 5);
        assert!(resnet50_tiny(ConvMode::Dense, 10, 5).param_count() > r18.param_count());
    }

    #[test]
    fn vgg19_is_deeper_than_vgg16() {
        let v16 = vgg_tiny(ConvMode::Dense, 10, 1);
        let v19 = vgg19_tiny(ConvMode::Dense, 10, 1);
        assert!(v19.param_count() > v16.param_count());
    }

    #[test]
    fn first_conv_stays_dense_under_bcm() {
        let net = vgg_tiny(ConvMode::Bcm { block_size: 8 }, 10, 1);
        // First layer has c_in = 3 → dense, so it exposes no BCM surface.
        assert!(net.layers()[0].bcm().is_none());
        // Later conv layers do.
        assert!(net.layers()[3].bcm().is_some());
    }
}
