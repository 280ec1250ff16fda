//! Compact binary checkpointing for deployed networks (`.rpbcm`).
//!
//! A deployed RP-BCM model is the *inference* form of a trained network:
//! hadaBCM factors folded into plain defining vectors (paper §III-A),
//! pruned blocks recorded in a skip-index bitmap and their vectors
//! dropped from the payload entirely, batch-norm reduced to its running
//! statistics. [`Network::save`] writes that form; [`Network::load`]
//! rebuilds a network whose inference outputs are **bit-identical** to
//! the original's (the round-trip test pins this).
//!
//! # Format
//!
//! Everything is little-endian. The file is:
//!
//! ```text
//! magic  "RPCK"                          4 bytes
//! version u16                            currently 1
//! network name                           u32 length + UTF-8 bytes
//! q-format fraction bits  u8             1..=15, for the fixed-point path
//! input dims              u8 count, then u32 each (per-sample shape)
//! layer count             u32
//! layer records           tagged, see below
//! ```
//!
//! Each layer record is a `u8` tag followed by its payload, fields in the
//! order listed (`u32` dimensions, `f32` runs with the length shown):
//!
//! | tag | layer | payload |
//! |----:|-------|---------|
//! | 0 | ReLU | — |
//! | 1 | Flatten | — |
//! | 2 | MaxPool2d | `window` |
//! | 3 | GlobalAvgPool | — |
//! | 4 | Conv2d | `c_in, c_out, k, stride, pad`; weight `[c_out·c_in·k·k]` |
//! | 5 | Linear | `in, out`; weight `[out·in]`; bias `[out]` |
//! | 6 | BatchNorm2d | `C`; γ, β, running mean, running var `[C]` each |
//! | 7 | BcmConv2d | `c_in, c_out, k, stride, pad, BS`; stack |
//! | 8 | BcmLinear | `in, out, BS`; stack; bias `[out]` |
//! | 9 | Residual | name (`u32` length + UTF-8); `u32` count + main-path records; `u8` 0 (identity) or 1 + `u32` count + shortcut records |
//! | 10 | BcmLstm | `F, H, BS`; stack `[4H, F+H]`; bias `[4H]` |
//! | 11 | BcmGru | `F, H, BS`; stack `[3H, F]`; stack `[3H, H]`; `b_w [3H]`; `b_u [3H]` |
//! | 12 | BcmAttention | `D, BS`; stacks `[D, D]` for query, key, value |
//!
//! A **stack** is one block-circulant weight ([`StackSnapshot`]): a `u32`
//! bit count `n = k·k·(c_out/BS)·(c_in/BS)`, then the skip index in
//! `⌈n/8⌉` bytes packed LSB-first (bit set = live), then `BS` `f32`s per
//! **live** block only, in block order (tap-major, then output block,
//! then input block) — a highly-pruned checkpoint shrinks accordingly.
//! Trailing garbage after the last record is rejected.

use crate::layers::gates::BcmLayout;
use crate::layers::{
    BatchNorm2d, BcmAttention, BcmConv2d, BcmGru, BcmLinear, BcmLstm, Conv2d, Flatten,
    GlobalAvgPool, Layer, Linear, MaxPool2d, Network, ReLU, ResidualBlock,
};
use circulant::{BlockCirculant, ConvBlockCirculant};
use rpbcm::skipindex;

/// File magic for `.rpbcm` checkpoints.
pub const MAGIC: [u8; 4] = *b"RPCK";
/// Current format version.
pub const VERSION: u16 = 1;

const TAG_RELU: u8 = 0;
const TAG_FLATTEN: u8 = 1;
const TAG_MAXPOOL: u8 = 2;
const TAG_GAP: u8 = 3;
const TAG_CONV: u8 = 4;
const TAG_LINEAR: u8 = 5;
const TAG_BATCHNORM: u8 = 6;
const TAG_BCM_CONV: u8 = 7;
const TAG_BCM_LINEAR: u8 = 8;
const TAG_RESIDUAL: u8 = 9;
const TAG_LSTM: u8 = 10;
const TAG_GRU: u8 = 11;
const TAG_ATTENTION: u8 = 12;

/// The Q-format fraction bits a checkpoint may declare: the range
/// `hwsim::QFormat` accepts.
const FRAC_BITS: std::ops::RangeInclusive<u8> = 1..=15;

/// Checkpoint metadata carried alongside the layer stack: everything a
/// server needs to validate requests and drive the fixed-point datapath
/// without re-deriving it from the layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Per-sample input shape, e.g. `[3, 16, 16]` for NCHW models or
    /// `[256]` for flat MLPs (no batch dimension).
    pub input_dims: Vec<usize>,
    /// Q-format fraction bits the model was calibrated for on the
    /// fixed-point (`hwsim`) path; [`from_bytes`] accepts `1..=15`.
    pub frac_bits: u8,
}

impl CheckpointMeta {
    /// Elements in one sample (`input_dims` product).
    pub fn sample_len(&self) -> usize {
        self.input_dims.iter().product()
    }
}

/// One checkpointed block-circulant weight: the deployed record of a BCM
/// layer's weight store (paper §III-A, §IV-B).
///
/// Blocks are indexed tap-major, then output-block, then input-block.
/// `vecs` holds the defining vectors of the **live** blocks only, in skip
/// order — the form the codec writes. Every BCM layer's record holds its
/// weights as stacks.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSnapshot {
    /// Input channels (features).
    pub c_in: usize,
    /// Output channels (features).
    pub c_out: usize,
    /// Square kernel side; `1` for FC layers and gate matrices.
    pub k: usize,
    /// Block size BS.
    pub bs: usize,
    /// Skip index: `true` per block when live.
    pub live: Vec<bool>,
    /// Defining vectors of the live blocks, in skip order, flat
    /// `[live, bs]`.
    pub vecs: Vec<f32>,
}

impl StackSnapshot {
    /// The record of a stack with `layout`, live (folded) defining
    /// vectors `vecs` and per-block pruning mask `pruned`.
    pub(crate) fn new(layout: &BcmLayout, vecs: Vec<f32>, pruned: &[bool]) -> Self {
        StackSnapshot {
            c_in: layout.c_in,
            c_out: layout.c_out,
            k: layout.k,
            bs: layout.bs,
            live: pruned.iter().map(|&p| !p).collect(),
            vecs,
        }
    }

    pub(crate) fn layout(&self) -> BcmLayout {
        BcmLayout::new(self.c_in, self.c_out, self.k, self.bs)
    }

    pub(crate) fn pruned(&self) -> Vec<bool> {
        self.live.iter().map(|&l| !l).collect()
    }

    /// The folded weights, one grid per tap.
    ///
    /// # Panics
    ///
    /// Panics if the fields are inconsistent (a decoded record never is).
    pub fn folded(&self) -> ConvBlockCirculant<f32> {
        self.layout().folded_from(&self.vecs, &self.pruned())
    }

    /// The folded grid of a 1-tap stack.
    ///
    /// # Panics
    ///
    /// Panics if `k != 1` or the fields are inconsistent.
    pub fn folded_grid(&self) -> BlockCirculant<f32> {
        self.layout().grid(&self.vecs, &self.pruned())
    }
}

/// The serializable inference state of one layer.
///
/// Produced by [`Layer::snapshot`]; consumed by the codec below. Each BCM
/// variant holds its weights as [`StackSnapshot`]s and no dimension they
/// already carry. hadaBCM layers snapshot as [`LayerSnapshot::BcmConv2d`]
/// with their *folded* defining vectors (`a ⊙ b`), which is exactly the
/// deployed form.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSnapshot {
    /// [`ReLU`].
    Relu,
    /// [`Flatten`].
    Flatten,
    /// [`MaxPool2d`] with its square window.
    MaxPool {
        /// Window size (stride equals window).
        window: usize,
    },
    /// [`GlobalAvgPool`].
    GlobalAvgPool,
    /// Dense [`Conv2d`].
    Conv2d {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Weight, flat `[c_out, c_in·k·k]`.
        weight: Vec<f32>,
    },
    /// Dense [`Linear`].
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Weight, flat `[out, in]`.
        weight: Vec<f32>,
        /// Bias, `[out]`.
        bias: Vec<f32>,
    },
    /// [`BatchNorm2d`] inference state (running statistics + affine).
    BatchNorm2d {
        /// Scale γ, `[channels]`.
        gamma: Vec<f32>,
        /// Shift β, `[channels]`.
        beta: Vec<f32>,
        /// Running mean, `[channels]`.
        mean: Vec<f32>,
        /// Running variance, `[channels]`.
        var: Vec<f32>,
    },
    /// Block-circulant convolution ([`BcmConv2d`], plain or hadaBCM with
    /// its folded vectors); channels, kernel and BS live in `weights`.
    BcmConv2d {
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// The `[c_out, c_in]` grid of every `k×k` tap.
        weights: StackSnapshot,
    },
    /// Block-circulant linear ([`BcmLinear`]): a 1-tap stack.
    BcmLinear {
        /// The `[out, in]` stack.
        weights: StackSnapshot,
        /// Bias, `[out]`.
        bias: Vec<f32>,
    },
    /// Block-circulant LSTM ([`BcmLstm`]): one fused `[4H, F+H]` gate
    /// stack over `[x_t; h_{t−1}]`, gate order `i, f, g, o`.
    BcmLstm {
        /// The fused `[4H, F+H]` gate stack.
        gates: StackSnapshot,
        /// Gate bias, `[4H]`.
        bias: Vec<f32>,
    },
    /// Block-circulant GRU ([`BcmGru`]), gate order `r, z, n`.
    BcmGru {
        /// Input stack `[3H, F]`.
        w: StackSnapshot,
        /// Recurrent stack `[3H, H]`.
        u: StackSnapshot,
        /// Input-side bias, `[3H]`.
        bias_w: Vec<f32>,
        /// Recurrent-side bias, `[3H]`.
        bias_u: Vec<f32>,
    },
    /// BCM-projected self-attention ([`BcmAttention`]): three `[D, D]`
    /// projection stacks.
    BcmAttention {
        /// Query stack.
        q: StackSnapshot,
        /// Key stack.
        k: StackSnapshot,
        /// Value stack.
        v: StackSnapshot,
    },
    /// [`ResidualBlock`] with recursive sublayer snapshots.
    Residual {
        /// Block name (preserved across the round trip).
        name: String,
        /// Main-path layers.
        main: Vec<LayerSnapshot>,
        /// Projection shortcut layers (`None` = identity).
        shortcut: Option<Vec<LayerSnapshot>>,
    },
}

impl LayerSnapshot {
    /// Rebuilds the layer this snapshot describes.
    pub(crate) fn into_layer(self) -> Box<dyn Layer> {
        match self {
            LayerSnapshot::Relu => Box::new(ReLU::new()),
            LayerSnapshot::Flatten => Box::new(Flatten::new()),
            LayerSnapshot::MaxPool { window } => Box::new(MaxPool2d::new(window)),
            LayerSnapshot::GlobalAvgPool => Box::new(GlobalAvgPool::new()),
            LayerSnapshot::Conv2d {
                c_in,
                c_out,
                kernel,
                stride,
                pad,
                weight,
            } => Box::new(Conv2d::from_parts(c_in, c_out, kernel, stride, pad, weight)),
            LayerSnapshot::Linear {
                in_features,
                out_features,
                weight,
                bias,
            } => Box::new(Linear::from_parts(in_features, out_features, weight, bias)),
            LayerSnapshot::BatchNorm2d {
                gamma,
                beta,
                mean,
                var,
            } => Box::new(BatchNorm2d::from_parts(gamma, beta, mean, var)),
            LayerSnapshot::BcmConv2d {
                stride,
                pad,
                weights,
            } => Box::new(BcmConv2d::from_parts(stride, pad, weights)),
            LayerSnapshot::BcmLinear { weights, bias } => {
                Box::new(BcmLinear::from_parts(weights, bias))
            }
            LayerSnapshot::BcmLstm { gates, bias } => Box::new(BcmLstm::from_parts(gates, bias)),
            LayerSnapshot::BcmGru {
                w,
                u,
                bias_w,
                bias_u,
            } => Box::new(BcmGru::from_parts(w, u, bias_w, bias_u)),
            LayerSnapshot::BcmAttention { q, k, v } => Box::new(BcmAttention::from_parts(q, k, v)),
            LayerSnapshot::Residual {
                name,
                main,
                shortcut,
            } => {
                let main = main.into_iter().map(LayerSnapshot::into_layer).collect();
                let shortcut =
                    shortcut.map(|sc| sc.into_iter().map(LayerSnapshot::into_layer).collect());
                Box::new(ResidualBlock::new(&name, main, shortcut))
            }
        }
    }
}

/// Failure while saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    BadVersion(u16),
    /// The payload ended early or has trailing garbage.
    Truncated,
    /// A layer cannot be checkpointed (no [`Layer::snapshot`]), or a
    /// record's fields are internally inconsistent.
    Unsupported(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an .rpbcm checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::Truncated => write!(f, "checkpoint payload truncated or oversized"),
            CheckpointError::Unsupported(what) => write!(f, "unsupported checkpoint layer: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&u32::try_from(v).expect("dimension fits u32").to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Writes a stack's skip index — `u32` bit count, then the bits packed
/// LSB-first (bit set = live) by [`skipindex::pack_bits`], as the hwsim
/// deployment package stores it — followed by the live blocks' defining
/// vectors (pruned ones are omitted). The stack's dimensions belong to its
/// layer's header.
fn put_stack(out: &mut Vec<u8>, stack: &StackSnapshot) {
    let live = &stack.live;
    let count = live.iter().filter(|&&l| l).count();
    assert_eq!(stack.vecs.len(), count * stack.bs, "defining-vector layout");
    put_u32(out, live.len());
    skipindex::pack_bits(out, live);
    put_f32s(out, &stack.vecs);
}

fn encode_snapshot(out: &mut Vec<u8>, snap: &LayerSnapshot) {
    match snap {
        LayerSnapshot::Relu => out.push(TAG_RELU),
        LayerSnapshot::Flatten => out.push(TAG_FLATTEN),
        LayerSnapshot::MaxPool { window } => {
            out.push(TAG_MAXPOOL);
            put_u32(out, *window);
        }
        LayerSnapshot::GlobalAvgPool => out.push(TAG_GAP),
        LayerSnapshot::Conv2d {
            c_in,
            c_out,
            kernel,
            stride,
            pad,
            weight,
        } => {
            out.push(TAG_CONV);
            for d in [c_in, c_out, kernel, stride, pad] {
                put_u32(out, *d);
            }
            put_f32s(out, weight);
        }
        LayerSnapshot::Linear {
            in_features,
            out_features,
            weight,
            bias,
        } => {
            out.push(TAG_LINEAR);
            put_u32(out, *in_features);
            put_u32(out, *out_features);
            put_f32s(out, weight);
            put_f32s(out, bias);
        }
        LayerSnapshot::BatchNorm2d {
            gamma,
            beta,
            mean,
            var,
        } => {
            out.push(TAG_BATCHNORM);
            put_u32(out, gamma.len());
            for vs in [gamma, beta, mean, var] {
                put_f32s(out, vs);
            }
        }
        LayerSnapshot::BcmConv2d {
            stride,
            pad,
            weights: w,
        } => {
            out.push(TAG_BCM_CONV);
            for d in [w.c_in, w.c_out, w.k, *stride, *pad, w.bs] {
                put_u32(out, d);
            }
            put_stack(out, w);
        }
        LayerSnapshot::BcmLinear { weights: w, bias } => {
            out.push(TAG_BCM_LINEAR);
            for d in [w.c_in, w.c_out, w.bs] {
                put_u32(out, d);
            }
            put_stack(out, w);
            put_f32s(out, bias);
        }
        LayerSnapshot::BcmLstm { gates, bias } => {
            out.push(TAG_LSTM);
            let hidden = gates.c_out / 4;
            for d in [gates.c_in - hidden, hidden, gates.bs] {
                put_u32(out, d);
            }
            put_stack(out, gates);
            put_f32s(out, bias);
        }
        LayerSnapshot::BcmGru {
            w,
            u,
            bias_w,
            bias_u,
        } => {
            out.push(TAG_GRU);
            for d in [w.c_in, u.c_in, w.bs] {
                put_u32(out, d);
            }
            put_stack(out, w);
            put_stack(out, u);
            put_f32s(out, bias_w);
            put_f32s(out, bias_u);
        }
        LayerSnapshot::BcmAttention { q, k, v } => {
            out.push(TAG_ATTENTION);
            put_u32(out, q.c_in);
            put_u32(out, q.bs);
            for stack in [q, k, v] {
                put_stack(out, stack);
            }
        }
        LayerSnapshot::Residual {
            name,
            main,
            shortcut,
        } => {
            out.push(TAG_RESIDUAL);
            put_str(out, name);
            put_u32(out, main.len());
            for s in main {
                encode_snapshot(out, s);
            }
            match shortcut {
                None => out.push(0),
                Some(sc) => {
                    out.push(1);
                    put_u32(out, sc.len());
                    for s in sc {
                        encode_snapshot(out, s);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.data.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<usize, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let want = n
            .checked_mul(4)
            .ok_or_else(|| CheckpointError::Unsupported("f32 run overflows".into()))?;
        let b = self.take(want)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CheckpointError::Unsupported("non-UTF-8 name".into()))
    }

    /// Reads one stack written by `put_stack` for a layer whose header
    /// declared `c_in`, `c_out`, `k` and `bs`. The only place a BCM
    /// shape and skip-index length are validated.
    fn stack(
        &mut self,
        c_in: usize,
        c_out: usize,
        k: usize,
        bs: usize,
    ) -> Result<StackSnapshot, CheckpointError> {
        check_layer_dims(&[c_in, c_out, k, bs])?;
        if !bs.is_power_of_two() || bs < 2 || !c_in.is_multiple_of(bs) || !c_out.is_multiple_of(bs)
        {
            return Err(CheckpointError::Unsupported(format!(
                "BCM shape {c_out}x{c_in} incompatible with BS {bs}"
            )));
        }
        // A fully pruned stack takes a few bytes on disk whatever its
        // shape, but its float layer expands to k²·c_in·c_out dense
        // weights; bound that from the header before anything is sized.
        // 2^28 is above any real layer (VGG-16's FC6 is 25088×4096).
        const MAX_STACK_ELEMS: usize = 1 << 28;
        let dense = dim_product(&[k, k, c_in, c_out])?;
        if dense > MAX_STACK_ELEMS {
            return Err(CheckpointError::Unsupported(format!(
                "implausible BCM stack of {dense} dense weights"
            )));
        }
        let want = dim_product(&[k, k, c_out / bs, c_in / bs])?;
        let n = self.u32()?;
        if n != want {
            return Err(CheckpointError::Unsupported(format!(
                "skip index covers {n} blocks, stack has {want}"
            )));
        }
        let live = skipindex::unpack_bits(self.take(n.div_ceil(8))?, n);
        // Sized by the bytes present, not by the header: the live count is
        // at most n, and n·bs is within the dense bound above.
        let vecs = self.f32s(live.iter().filter(|&&l| l).count() * bs)?;
        Ok(StackSnapshot {
            c_in,
            c_out,
            k,
            bs,
            live,
            vecs,
        })
    }
}

fn decode_snapshot(cur: &mut Cursor<'_>) -> Result<LayerSnapshot, CheckpointError> {
    let tag = cur.u8()?;
    Ok(match tag {
        TAG_RELU => LayerSnapshot::Relu,
        TAG_FLATTEN => LayerSnapshot::Flatten,
        TAG_MAXPOOL => {
            let window = cur.u32()?;
            check_layer_dims(&[window])?;
            LayerSnapshot::MaxPool { window }
        }
        TAG_GAP => LayerSnapshot::GlobalAvgPool,
        TAG_CONV => {
            let (c_in, c_out, kernel, stride, pad) =
                (cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?);
            check_layer_dims(&[c_in, c_out, kernel, stride])?;
            let weight = cur.f32s(dim_product(&[c_out, c_in, kernel, kernel])?)?;
            LayerSnapshot::Conv2d {
                c_in,
                c_out,
                kernel,
                stride,
                pad,
                weight,
            }
        }
        TAG_LINEAR => {
            let (in_features, out_features) = (cur.u32()?, cur.u32()?);
            check_layer_dims(&[in_features, out_features])?;
            let weight = cur.f32s(dim_product(&[out_features, in_features])?)?;
            let bias = cur.f32s(out_features)?;
            LayerSnapshot::Linear {
                in_features,
                out_features,
                weight,
                bias,
            }
        }
        TAG_BATCHNORM => {
            let channels = cur.u32()?;
            check_layer_dims(&[channels])?;
            let gamma = cur.f32s(channels)?;
            let beta = cur.f32s(channels)?;
            let mean = cur.f32s(channels)?;
            let var = cur.f32s(channels)?;
            LayerSnapshot::BatchNorm2d {
                gamma,
                beta,
                mean,
                var,
            }
        }
        TAG_BCM_CONV => {
            let (c_in, c_out, kernel, stride, pad, bs) = (
                cur.u32()?,
                cur.u32()?,
                cur.u32()?,
                cur.u32()?,
                cur.u32()?,
                cur.u32()?,
            );
            check_layer_dims(&[stride])?;
            LayerSnapshot::BcmConv2d {
                stride,
                pad,
                weights: cur.stack(c_in, c_out, kernel, bs)?,
            }
        }
        TAG_BCM_LINEAR => {
            let (in_features, out_features, bs) = (cur.u32()?, cur.u32()?, cur.u32()?);
            LayerSnapshot::BcmLinear {
                weights: cur.stack(in_features, out_features, 1, bs)?,
                bias: cur.f32s(out_features)?,
            }
        }
        TAG_LSTM => {
            let (in_features, hidden, bs) = (cur.u32()?, cur.u32()?, cur.u32()?);
            // F and H are each whole blocks, not just their sum.
            check_layer_dims(&[in_features])?;
            if !hidden.is_multiple_of(bs) {
                return Err(CheckpointError::Unsupported(format!(
                    "LSTM hidden size {hidden} not a multiple of BS {bs}"
                )));
            }
            let gates_in = in_features.checked_add(hidden).ok_or_else(overflow)?;
            let gates = cur.stack(gates_in, dim_product(&[4, hidden])?, 1, bs)?;
            LayerSnapshot::BcmLstm {
                bias: cur.f32s(gates.c_out)?,
                gates,
            }
        }
        TAG_GRU => {
            let (in_features, hidden, bs) = (cur.u32()?, cur.u32()?, cur.u32()?);
            let gates = dim_product(&[3, hidden])?;
            LayerSnapshot::BcmGru {
                w: cur.stack(in_features, gates, 1, bs)?,
                u: cur.stack(hidden, gates, 1, bs)?,
                bias_w: cur.f32s(gates)?,
                bias_u: cur.f32s(gates)?,
            }
        }
        TAG_ATTENTION => {
            let (dim, bs) = (cur.u32()?, cur.u32()?);
            LayerSnapshot::BcmAttention {
                q: cur.stack(dim, dim, 1, bs)?,
                k: cur.stack(dim, dim, 1, bs)?,
                v: cur.stack(dim, dim, 1, bs)?,
            }
        }
        TAG_RESIDUAL => {
            let name = cur.string()?;
            let n_main = cur.u32()?;
            check_stack_len(n_main)?;
            let main = (0..n_main)
                .map(|_| decode_snapshot(cur))
                .collect::<Result<_, _>>()?;
            let shortcut = match cur.u8()? {
                0 => None,
                1 => {
                    let n = cur.u32()?;
                    check_stack_len(n)?;
                    Some(
                        (0..n)
                            .map(|_| decode_snapshot(cur))
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                other => {
                    return Err(CheckpointError::Unsupported(format!(
                        "bad shortcut marker {other}"
                    )))
                }
            };
            LayerSnapshot::Residual {
                name,
                main,
                shortcut,
            }
        }
        other => {
            return Err(CheckpointError::Unsupported(format!(
                "unknown layer tag {other}"
            )))
        }
    })
}

fn check_layer_dims(dims: &[usize]) -> Result<(), CheckpointError> {
    // Constructors assert these; surface them as decode errors instead so
    // a corrupt file cannot panic the loader.
    if dims.contains(&0) {
        return Err(CheckpointError::Unsupported("zero layer dimension".into()));
    }
    Ok(())
}

/// Product of header dimensions, or `Unsupported` when it overflows.
fn dim_product(dims: &[usize]) -> Result<usize, CheckpointError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(overflow)
}

fn overflow() -> CheckpointError {
    CheckpointError::Unsupported("layer dimensions overflow".into())
}

fn check_stack_len(n: usize) -> Result<(), CheckpointError> {
    // One record is at least one byte; a count beyond the format's
    // practical bounds means a corrupt header, not a real model.
    const MAX_LAYERS: usize = 1 << 20;
    if n > MAX_LAYERS {
        return Err(CheckpointError::Unsupported(format!(
            "implausible layer count {n}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Whole-network API
// ---------------------------------------------------------------------

/// Serializes `net` with `meta` into `.rpbcm` bytes.
///
/// # Errors
///
/// [`CheckpointError::Unsupported`] when a layer has no
/// [`Layer::snapshot`] implementation.
pub fn to_bytes(net: &Network, meta: &CheckpointMeta) -> Result<Vec<u8>, CheckpointError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_str(&mut out, net.name());
    out.push(meta.frac_bits);
    out.push(u8::try_from(meta.input_dims.len()).expect("input rank fits u8"));
    for &d in &meta.input_dims {
        put_u32(&mut out, d);
    }
    put_u32(&mut out, net.layers().len());
    for layer in net.layers() {
        let snap = layer
            .snapshot()
            .ok_or_else(|| CheckpointError::Unsupported(layer.name().to_string()))?;
        encode_snapshot(&mut out, &snap);
    }
    Ok(out)
}

/// Deserializes `.rpbcm` bytes back into a network and its metadata.
///
/// # Errors
///
/// [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`] on
/// foreign input, [`CheckpointError::Truncated`] on short or oversized
/// payloads, [`CheckpointError::Unsupported`] on unknown tags or
/// inconsistent records.
pub fn from_bytes(bytes: &[u8]) -> Result<(Network, CheckpointMeta), CheckpointError> {
    let mut cur = Cursor {
        data: bytes,
        pos: 0,
    };
    if cur.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = cur.u16()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let name = cur.string()?;
    let frac_bits = cur.u8()?;
    if !FRAC_BITS.contains(&frac_bits) {
        return Err(CheckpointError::Unsupported(format!(
            "frac_bits {frac_bits} outside {FRAC_BITS:?}"
        )));
    }
    let rank = cur.u8()? as usize;
    let mut input_dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        input_dims.push(cur.u32()?);
    }
    let n_layers = cur.u32()?;
    check_stack_len(n_layers)?;
    let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(n_layers.min(1024));
    for _ in 0..n_layers {
        layers.push(decode_snapshot(&mut cur)?.into_layer());
    }
    if cur.pos != bytes.len() {
        return Err(CheckpointError::Truncated);
    }
    Ok((
        Network::new(&name, layers),
        CheckpointMeta {
            input_dims,
            frac_bits,
        },
    ))
}

impl Network {
    /// Saves the deployed form of this network to `path` (see the module
    /// docs for the format). hadaBCM layers are folded; pruned blocks'
    /// vectors are dropped from the payload.
    ///
    /// # Errors
    ///
    /// Propagates codec and filesystem failures as [`CheckpointError`].
    pub fn save(
        &self,
        path: &std::path::Path,
        meta: &CheckpointMeta,
    ) -> Result<(), CheckpointError> {
        let bytes = to_bytes(self, meta)?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// Loads a network saved by [`Network::save`]. The returned network's
    /// inference (`train = false`) outputs are bit-identical to the
    /// saved network's.
    ///
    /// # Errors
    ///
    /// Propagates codec and filesystem failures as [`CheckpointError`].
    pub fn load(path: &std::path::Path) -> Result<(Network, CheckpointMeta), CheckpointError> {
        let bytes = std::fs::read(path)?;
        from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::{init, Tensor};

    fn meta() -> CheckpointMeta {
        CheckpointMeta {
            input_dims: vec![4, 8, 8],
            frac_bits: 8,
        }
    }

    /// A deployed-style mix: hadaBCM conv, BN with non-trivial running
    /// stats, pooling, BCM linear and a dense head — some blocks pruned.
    fn mixed_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(
            "mixed",
            vec![
                Box::new(BcmConv2d::new_hada(&mut rng, 4, 8, 3, 1, 1, 4)),
                Box::new(BatchNorm2d::new(8)),
                Box::new(ReLU::new()),
                Box::new(MaxPool2d::new(2)),
                Box::new(Flatten::new()),
                Box::new(BcmLinear::new(&mut rng, 8 * 4 * 4, 16, 4)),
                Box::new(ReLU::new()),
                Box::new(Linear::new(&mut rng, 16, 3)),
            ],
        );
        // Move the BN running stats off their initialization so eval mode
        // exercises real state.
        let x: Tensor<f32> = init::gaussian(&mut rng, &[4, 4, 8, 8], 0.3, 1.2);
        let _ = net.forward(&x, true);
        net.bcm_eliminate(&[0, 3, 20, 25]);
        net
    }

    fn assert_bit_identical(a: &Tensor<f32>, b: &Tensor<f32>) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn round_trip_inference_is_bit_identical() {
        let mut net = mixed_net(0);
        let bytes = to_bytes(&net, &meta()).unwrap();
        let (mut loaded, got_meta) = from_bytes(&bytes).unwrap();
        assert_eq!(got_meta, meta());
        assert_eq!(loaded.name(), "mixed");
        assert_eq!(loaded.layers().len(), net.layers().len());
        let mut rng = StdRng::seed_from_u64(42);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let want = net.forward(&x, false);
        let got = loaded.forward(&x, false);
        assert_bit_identical(&want, &got);
        // The loaded network carries the same skip index and accounting.
        assert_eq!(loaded.bcm_sparsity(), net.bcm_sparsity());
        assert_eq!(loaded.folded_param_count(), net.folded_param_count());
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let net = mixed_net(1);
        let path = std::env::temp_dir().join(format!(
            "rpbcm-ckpt-test-{}-{:?}.rpbcm",
            std::process::id(),
            std::thread::current().id()
        ));
        net.save(&path, &meta()).unwrap();
        let (loaded, got_meta) = Network::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got_meta.sample_len(), 4 * 8 * 8);
        assert_eq!(loaded.layers().len(), net.layers().len());
    }

    #[test]
    fn residual_blocks_round_trip_recursively() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(
            "res",
            vec![
                Box::new(ResidualBlock::new(
                    "block1",
                    vec![
                        Box::new(Conv2d::new(&mut rng, 4, 4, 3, 1, 1)),
                        Box::new(BatchNorm2d::new(4)),
                    ],
                    None,
                )),
                Box::new(ResidualBlock::new(
                    "block2",
                    vec![
                        Box::new(Conv2d::new(&mut rng, 4, 8, 3, 2, 1)),
                        Box::new(BatchNorm2d::new(8)),
                    ],
                    Some(vec![
                        Box::new(Conv2d::new(&mut rng, 4, 8, 1, 2, 0)),
                        Box::new(BatchNorm2d::new(8)),
                    ]),
                )),
            ],
        );
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 8, 8], 0.0, 1.0);
        let _ = net.forward(&x, true);
        let bytes = to_bytes(&net, &meta()).unwrap();
        let (mut loaded, _) = from_bytes(&bytes).unwrap();
        let want = net.forward(&x, false);
        let got = loaded.forward(&x, false);
        assert_bit_identical(&want, &got);
        assert_eq!(loaded.layers()[1].name(), "block2");
    }

    #[test]
    fn pruned_blocks_shrink_the_checkpoint() {
        let mut rng = StdRng::seed_from_u64(3);
        let dense = Network::new("fc", vec![Box::new(BcmLinear::new(&mut rng, 64, 64, 8))]);
        let mut pruned = dense.clone();
        let all: Vec<usize> = (0..pruned.bcm_block_count()).collect();
        pruned.bcm_eliminate(&all);
        let full = to_bytes(&dense, &meta()).unwrap();
        let empty = to_bytes(&pruned, &meta()).unwrap();
        // 64 blocks × 8 lanes × 4 bytes of defining vectors drop out.
        assert_eq!(full.len() - empty.len(), 64 * 8 * 4);
        // And the empty one still loads with everything pruned.
        let (loaded, _) = from_bytes(&empty).unwrap();
        assert_eq!(loaded.bcm_layers()[0].live_blocks(), 0);
    }

    #[test]
    fn foreign_and_corrupt_inputs_are_rejected() {
        let net = mixed_net(4);
        let bytes = to_bytes(&net, &meta()).unwrap();
        assert!(matches!(
            from_bytes(b"not a checkpoint"),
            Err(CheckpointError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(matches!(
            from_bytes(&wrong_version),
            Err(CheckpointError::BadVersion(_))
        ));
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated)
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            from_bytes(&trailing),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn unsupported_layers_fail_to_save() {
        struct Opaque;
        impl Layer for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn forward(&mut self, x: &Tensor<f32>, _train: bool) -> Tensor<f32> {
                x.clone()
            }
            fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
                grad.clone()
            }
            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(Opaque)
            }
        }
        let net = Network::new("opaque", vec![Box::new(Opaque)]);
        match to_bytes(&net, &meta()) {
            Err(CheckpointError::Unsupported(name)) => assert_eq!(name, "opaque"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// A pruned sequence stack: LSTM -> GRU -> pool -> dense head.
    fn seq_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(
            "seq",
            vec![
                Box::new(BcmLstm::new(&mut rng, 8, 8, 4)),
                Box::new(BcmGru::new(&mut rng, 8, 8, 4)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(&mut rng, 8, 3)),
            ],
        );
        net.bcm_eliminate(&[0, 9, 17, 30]);
        net
    }

    fn seq_meta() -> CheckpointMeta {
        CheckpointMeta {
            input_dims: vec![8, 6, 1],
            frac_bits: 8,
        }
    }

    #[test]
    fn sequence_nets_round_trip_bit_identically() {
        let mut net = seq_net(7);
        let bytes = to_bytes(&net, &seq_meta()).unwrap();
        let (mut loaded, got_meta) = from_bytes(&bytes).unwrap();
        assert_eq!(got_meta, seq_meta());
        assert_eq!(loaded.layers().len(), 4);
        let mut rng = StdRng::seed_from_u64(43);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 8, 6, 1], 0.0, 1.0);
        assert_bit_identical(&net.forward(&x, false), &loaded.forward(&x, false));
        assert_eq!(loaded.bcm_sparsity(), net.bcm_sparsity());
        assert_eq!(loaded.folded_param_count(), net.folded_param_count());
    }

    /// LSTM -> attention -> pool -> head, some blocks pruned.
    fn attention_net(rng: &mut StdRng) -> Network {
        let mut net = Network::new(
            "attn",
            vec![
                Box::new(BcmLstm::new(rng, 4, 8, 4)) as Box<dyn Layer>,
                Box::new(BcmAttention::new(rng, 8, 4)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(rng, 8, 2)),
            ],
        );
        net.bcm_eliminate(&[2, 8, 14]);
        net
    }

    fn attention_meta() -> CheckpointMeta {
        CheckpointMeta {
            input_dims: vec![4, 5, 1],
            frac_bits: 8,
        }
    }

    #[test]
    fn attention_round_trips_bit_identically() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = attention_net(&mut rng);
        let bytes = to_bytes(&net, &attention_meta()).unwrap();
        let (mut loaded, _) = from_bytes(&bytes).unwrap();
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 4, 5, 1], 0.0, 1.0);
        assert_bit_identical(&net.forward(&x, false), &loaded.forward(&x, false));
    }

    #[test]
    fn pruned_sequence_blocks_shrink_the_checkpoint() {
        let dense = to_bytes(&seq_net_unpruned(9), &meta()).unwrap();
        let pruned = to_bytes(&seq_net(9), &meta()).unwrap();
        assert!(
            pruned.len() < dense.len(),
            "pruned {} vs dense {}",
            pruned.len(),
            dense.len()
        );
    }

    fn seq_net_unpruned(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            "seq",
            vec![
                Box::new(BcmLstm::new(&mut rng, 8, 8, 4)) as Box<dyn Layer>,
                Box::new(BcmGru::new(&mut rng, 8, 8, 4)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(&mut rng, 8, 3)),
            ],
        )
    }

    #[test]
    fn corrupt_sequence_records_are_rejected_not_panicked() {
        let net = seq_net(10);
        let bytes = to_bytes(&net, &meta()).unwrap();
        // Find the LSTM record: first occurrence of its tag byte after the
        // header is fragile, so corrupt dimension fields by brute force —
        // every single-byte corruption must yield Err or a valid different
        // checkpoint, never a panic.
        let mut rejected = 0usize;
        for i in 0..bytes.len().min(256) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            if from_bytes(&bad).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "no corruption was ever detected");
    }

    /// A lone hadaBCM conv with pruned blocks: its record is the folded
    /// `a ⊙ b` stack.
    fn hada_net() -> Network {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(
            "hada",
            vec![Box::new(BcmConv2d::new_hada(&mut rng, 8, 8, 3, 1, 1, 4))],
        );
        net.bcm_eliminate(&[1, 6, 11, 30]);
        net
    }

    /// Format referee: the encoder's bytes for one net of each record
    /// family, pinned by FNV-1a. The round-trip tests compare the codec
    /// only with itself; these values catch any change to the layout.
    #[test]
    fn on_disk_bytes_are_pinned() {
        let mut rng = StdRng::seed_from_u64(8);
        let cases = [
            (
                "mixed",
                to_bytes(&mixed_net(0), &meta()),
                0xa227_42df_f753_66a2,
            ),
            (
                "seq",
                to_bytes(&seq_net(7), &seq_meta()),
                0x6836_990b_360f_c7ef,
            ),
            (
                "attention",
                to_bytes(&attention_net(&mut rng), &attention_meta()),
                0x5add_efe3_8fe3_cc58,
            ),
            (
                "hada",
                to_bytes(&hada_net(), &meta()),
                0x389c_5425_9194_2916,
            ),
        ];
        for (name, bytes, want) in cases {
            let got = telemetry::fnv::fnv1a(&bytes.unwrap());
            assert_eq!(got, want, "{name}: on-disk bytes changed ({got:#018x})");
        }
    }

    /// The bytes of a checkpoint header declaring one layer record.
    fn one_layer_header(frac_bits: u8) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_str(&mut out, "crafted");
        out.push(frac_bits);
        out.push(1);
        put_u32(&mut out, 16);
        put_u32(&mut out, 1);
        out
    }

    #[test]
    fn crafted_records_are_rejected_not_panicked() {
        let record = |tag: u8, dims: &[u32]| {
            let mut out = one_layer_header(8);
            out.push(tag);
            for d in dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out
        };
        let max = u32::MAX;
        let crafted = [
            ("maxpool window 0", record(TAG_MAXPOOL, &[0])),
            (
                "conv u32::MAX dims",
                record(TAG_CONV, &[max, max, max, 1, 0]),
            ),
            (
                "bcm conv block count overflow",
                record(TAG_BCM_CONV, &[1 << 31, 1 << 31, max, 1, 0, 2]),
            ),
            // 57 bytes declaring one fully pruned 2^22 × 2^22 block. Left
            // to load, its first float forward would expand a
            // 2^44-element dense matrix.
            ("bcm conv 2^44 dense weights", {
                let mut out = record(TAG_BCM_CONV, &[1 << 22, 1 << 22, 1, 1, 0, 1 << 22, 1]);
                out.push(0);
                out
            }),
        ];
        for (what, bytes) in crafted {
            assert!(
                matches!(from_bytes(&bytes), Err(CheckpointError::Unsupported(_))),
                "{what}"
            );
        }
    }

    /// A one-layer record: a 1×1 `BcmConv2d` of `c` channels at block
    /// size `bs` with the skip index `skip` (packed bytes) followed by
    /// `payload` defining-vector words.
    fn bcm_conv_record(c: u32, bs: u32, skip: &[u8], payload: &[f32]) -> Vec<u8> {
        let mut out = one_layer_header(8);
        out.push(TAG_BCM_CONV);
        for d in [c, c, 1, 1, 0, bs, (c / bs) * (c / bs)] {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(skip);
        put_f32s(&mut out, payload);
        out
    }

    /// Stored words of every trainable parameter (value, gradient and
    /// momentum are each this long).
    fn stored_words(net: &Network) -> usize {
        net.params().iter().map(|p| p.len()).sum()
    }

    #[test]
    fn decoded_stacks_store_live_blocks_only() {
        // Fully pruned 16384 → 16384 at BS 64: 65536 blocks, an 8 KiB skip
        // index and no vectors, at the 2^28 dense-weight cap. It decodes to
        // a layer that stores no weight word at all.
        let bytes = bcm_conv_record(1 << 14, 64, &[0; 1 << 13], &[]);
        let (net, meta) = from_bytes(&bytes).unwrap();
        let bcm = net.bcm_layers()[0];
        assert_eq!((bcm.block_count(), bcm.live_blocks()), (1 << 16, 0));
        assert_eq!(stored_words(&net), 0);
        assert_eq!(to_bytes(&net, &meta).unwrap(), bytes);
        // Its eval forward on a 1×1 map returns zeros: no output block has
        // a live entry, so none runs an eMAC or an IFFT, and no dense
        // expansion (2^28 floats, 1 GiB) is built.
        let Some(LayerSnapshot::BcmConv2d {
            stride,
            pad,
            weights,
        }) = net.layers()[0].snapshot()
        else {
            panic!("a BCM conv record decodes to a BCM conv");
        };
        let mut conv = BcmConv2d::from_parts(stride, pad, weights);
        let y = conv.forward(&Tensor::ones(&[1, 1 << 14, 1, 1]), false);
        assert_eq!(y.dims(), &[1, 1 << 14, 1, 1]);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(conv.caches_built(), (false, true), "(dense, spectra)");
        // Half live: 8 of 16 blocks at BS 4 store exactly 8·4 words, in
        // skip order, and re-encode to the same bytes.
        let payload: Vec<f32> = (1..=32).map(|v| v as f32).collect();
        let bytes = bcm_conv_record(16, 4, &[0x55, 0x55], &payload);
        let (net, meta) = from_bytes(&bytes).unwrap();
        assert_eq!(net.bcm_layers()[0].live_blocks(), 8);
        assert_eq!(stored_words(&net), 8 * 4);
        assert_eq!(net.params()[0].value.as_slice(), &payload[..]);
        assert_eq!(to_bytes(&net, &meta).unwrap(), bytes);
    }

    #[test]
    fn frac_bits_outside_the_q_format_range_are_rejected() {
        for frac_bits in [0u8, 16, 255] {
            let bytes = to_bytes(
                &seq_net(7),
                &CheckpointMeta {
                    frac_bits,
                    ..seq_meta()
                },
            )
            .unwrap();
            assert!(
                matches!(from_bytes(&bytes), Err(CheckpointError::Unsupported(_))),
                "frac_bits {frac_bits}"
            );
        }
        let mut ok = one_layer_header(15);
        ok.push(TAG_RELU);
        assert!(from_bytes(&ok).is_ok());
    }
}
