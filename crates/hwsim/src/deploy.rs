//! Deployment packages: the artifact a host would DMA onto the board.
//!
//! After RP-BCM compression, what the accelerator needs per layer is
//! exactly (paper §IV-A): the pre-computed complex weight spectra
//! (Fig. 4b), the skip-index bitmap (1 bit/BCM, §IV-B), and the layer
//! geometry. [`DeployedNetwork`] bundles those, with a versioned
//! little-endian binary encoding — no external dependencies, stable
//! across platforms, and a faithful stand-in for the weight files a
//! Vivado host application would ship.

use crate::fixed::{ComplexFx, QFormat};
use crate::inference::FxWeights;
use circulant::ConvBlockCirculant;
use rpbcm::SkipIndexBuffer;
use std::fmt;

/// Magic bytes prefixing every package ("RPBM").
pub const MAGIC: [u8; 4] = *b"RPBM";
/// Encoding version.
pub const VERSION: u16 = 1;

/// One deployed layer: geometry + quantized spectra + skip bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedLayer {
    /// Layer name.
    pub name: String,
    /// Block size `BS`.
    pub bs: u16,
    /// Square kernel size.
    pub k: u16,
    /// Output channel blocks.
    pub out_blocks: u32,
    /// Input channel blocks.
    pub in_blocks: u32,
    /// Skip bitmap, one bit per BCM (tap-major, out, in).
    pub skip: Vec<bool>,
    /// Interleaved `(re, im)` words of every *live* block's `BS/2+1`
    /// bins, in skip order.
    pub spectra: Vec<i16>,
}

/// A whole network ready for the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedNetwork {
    /// Activation fixed-point format's fractional bits.
    pub frac_bits: u8,
    /// Layers in execution order.
    pub layers: Vec<DeployedLayer>,
}

/// Errors decoding a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Buffer ended early or lengths are inconsistent.
    Truncated,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an RP-BCM deployment package"),
            DecodeError::BadVersion(v) => write!(f, "unsupported package version {v}"),
            DecodeError::Truncated => write!(f, "package is truncated or inconsistent"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DeployedLayer {
    /// Builds a deployed layer from folded weights: computes the skip
    /// bitmap and the quantized frequency-domain weights offline.
    pub fn from_folded(name: &str, q: QFormat, conv: &ConvBlockCirculant<f32>) -> Self {
        let skip_buf = SkipIndexBuffer::from_conv(conv);
        let skip: Vec<bool> = (0..skip_buf.len()).map(|i| skip_buf.get(i)).collect();
        // Re-derive the per-block spectra in skip order via FxWeights'
        // public geometry plus a fresh quantization pass (FxWeights keeps
        // its spectra private; recompute deterministically).
        let bs = conv.block_size();
        let (kh, kw) = conv.kernel_dims();
        let (ob, ib) = conv.grid_dims();
        let mut spectra = Vec::new();
        for p in 0..kh {
            for qq in 0..kw {
                let grid = conv.grid(p, qq);
                for bo in 0..ob {
                    for bi in 0..ib {
                        let block = grid.block(bo, bi);
                        if block.is_zero() {
                            continue;
                        }
                        let w64: Vec<f64> = block
                            .defining_vector()
                            .iter()
                            .map(|&v| f64::from(v))
                            .collect();
                        let half = fft::real::HalfSpectrum::forward(&w64);
                        for c in half.bins() {
                            let fx = ComplexFx::from_f64(q, c.re, c.im);
                            spectra.push(fx.re);
                            spectra.push(fx.im);
                        }
                    }
                }
            }
        }
        debug_assert_eq!(skip_buf.live_count() * (bs / 2 + 1) * 2, spectra.len());
        DeployedLayer {
            name: name.to_string(),
            bs: bs as u16,
            k: kh as u16,
            out_blocks: ob as u32,
            in_blocks: ib as u32,
            skip,
            spectra,
        }
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> usize {
        self.skip.iter().filter(|&&b| b).count()
    }

    /// Reconstructs executable weights from the package — the board-side
    /// load step. Bit-identical to [`FxWeights::from_folded`] on the same
    /// source layer and format.
    pub fn to_fx_weights(&self) -> FxWeights {
        FxWeights::from_parts(
            self.bs as usize,
            self.k as usize,
            self.out_blocks as usize,
            self.in_blocks as usize,
            &self.skip,
            &self.spectra,
        )
    }

    /// On-chip weight footprint in bytes (complex 16-bit pairs).
    pub fn weight_bytes(&self) -> usize {
        self.spectra.len() * 2
    }
}

impl DeployedNetwork {
    /// Encodes to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.frac_bits);
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for l in &self.layers {
            let name = l.name.as_bytes();
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&l.bs.to_le_bytes());
            out.extend_from_slice(&l.k.to_le_bytes());
            out.extend_from_slice(&l.out_blocks.to_le_bytes());
            out.extend_from_slice(&l.in_blocks.to_le_bytes());
            out.extend_from_slice(&(l.skip.len() as u32).to_le_bytes());
            // Bit-packed skip index, LSB first.
            let mut byte = 0u8;
            for (i, &b) in l.skip.iter().enumerate() {
                if b {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if l.skip.len() % 8 != 0 {
                out.push(byte);
            }
            out.extend_from_slice(&(l.spectra.len() as u32).to_le_bytes());
            for &w in &l.spectra {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a package.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on bad magic, unsupported version, or a
    /// truncated/inconsistent buffer.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
            if *pos + n > buf.len() {
                return Err(DecodeError::Truncated);
            }
            let s = &buf[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let frac_bits = take(&mut pos, 1)?[0];
        let n_layers = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        // The count is outside input: cap the preallocation so a bogus
        // header fails as truncated instead of exhausting memory.
        let mut layers = Vec::with_capacity(n_layers.min(1024));
        for _ in 0..n_layers {
            let name_len =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| DecodeError::Truncated)?;
            let bs = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes"));
            let k = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes"));
            let out_blocks = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
            let in_blocks = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
            let skip_len =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let skip_bytes = take(&mut pos, skip_len.div_ceil(8))?;
            let skip: Vec<bool> = (0..skip_len)
                .map(|i| (skip_bytes[i / 8] >> (i % 8)) & 1 == 1)
                .collect();
            let n_words =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let raw = take(&mut pos, n_words * 2)?;
            let spectra: Vec<i16> = raw
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes(c.try_into().expect("2 bytes")))
                .collect();
            // Consistency: the skip bitmap covers k²·out·in blocks, the
            // block size is one the FFT PE runs (a power of two ≥ 2), and
            // live blocks × (BS/2+1) × 2 words must match.
            let blocks = usize::from(k)
                .checked_mul(usize::from(k))
                .and_then(|b| b.checked_mul(out_blocks as usize))
                .and_then(|b| b.checked_mul(in_blocks as usize));
            if blocks != Some(skip_len) || bs < 2 || !bs.is_power_of_two() {
                return Err(DecodeError::Truncated);
            }
            let live = skip.iter().filter(|&&b| b).count();
            if spectra.len() != live * (bs as usize / 2 + 1) * 2 {
                return Err(DecodeError::Truncated);
            }
            layers.push(DeployedLayer {
                name,
                bs,
                k,
                out_blocks,
                in_blocks,
                skip,
                spectra,
            });
        }
        if pos != buf.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(DeployedNetwork { frac_bits, layers })
    }

    /// Total weight payload in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(DeployedLayer::weight_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circulant::{BlockCirculant, CirculantMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn folded(seed: u64, bs: usize, ob: usize, ib: usize, k: usize) -> ConvBlockCirculant<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let grids = (0..k * k)
            .map(|_| {
                let blocks = (0..ob * ib)
                    .map(|_| {
                        CirculantMatrix::new(
                            init::gaussian::<f32>(&mut rng, &[bs], 0.0, 0.2).into_vec(),
                        )
                    })
                    .collect();
                BlockCirculant::from_blocks(bs, ob, ib, blocks)
            })
            .collect();
        ConvBlockCirculant::from_grids(k, k, grids)
    }

    fn sample_network() -> DeployedNetwork {
        let q = QFormat::q8();
        let mut conv1 = folded(1, 8, 2, 2, 3);
        // Prune a couple of blocks to exercise the live-only payload.
        *conv1.grid_mut(0, 0).block_mut(0, 1) = CirculantMatrix::zeros(8);
        *conv1.grid_mut(1, 2).block_mut(1, 0) = CirculantMatrix::zeros(8);
        let conv2 = folded(2, 4, 1, 2, 1);
        DeployedNetwork {
            frac_bits: 8,
            layers: vec![
                DeployedLayer::from_folded("conv1", q, &conv1),
                DeployedLayer::from_folded("conv2", q, &conv2),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let net = sample_network();
        let bytes = net.encode();
        let back = DeployedNetwork::decode(&bytes).expect("valid package");
        assert_eq!(back, net);
    }

    #[test]
    fn payload_counts_live_blocks_only() {
        let net = sample_network();
        let l = &net.layers[0];
        assert_eq!(l.skip.len(), 9 * 2 * 2);
        assert_eq!(l.live_count(), 36 - 2);
        assert_eq!(l.weight_bytes(), l.live_count() * 5 * 4);
    }

    #[test]
    fn deployed_weights_execute_bit_identically() {
        use crate::inference::{conv_forward_fx, FxWeights};
        let q = QFormat::q8();
        let conv = folded(5, 8, 1, 2, 3);
        let direct = FxWeights::from_folded(q, &conv);
        let deployed = DeployedLayer::from_folded("l", q, &conv);
        let bytes = DeployedNetwork {
            frac_bits: 8,
            layers: vec![deployed],
        }
        .encode();
        let loaded = DeployedNetwork::decode(&bytes).expect("valid");
        let reconstructed = loaded.layers[0].to_fx_weights();
        let x: Vec<i16> = (0..16 * 4 * 4)
            .map(|i| ((i * 37) % 200) as i16 - 100)
            .collect();
        let y1 = conv_forward_fx(q, &direct, &x, 4, 4);
        let y2 = conv_forward_fx(q, &reconstructed, &x, 4, 4);
        assert_eq!(y1, y2);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_network().encode();
        bytes[0] = b'X';
        assert_eq!(DeployedNetwork::decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_network().encode();
        bytes[4] = 99;
        assert!(matches!(
            DeployedNetwork::decode(&bytes),
            Err(DecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_network().encode();
        // Chop at a sample of offsets; every prefix must fail cleanly.
        for cut in [3usize, 6, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                DeployedNetwork::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn skip_length_must_match_geometry() {
        // Every field is self-consistent except the grid: the skip bitmap
        // no longer covers k²·out·in blocks, so loading it would panic.
        let mut net = sample_network();
        net.layers[1].in_blocks = 3;
        assert_eq!(
            DeployedNetwork::decode(&net.encode()),
            Err(DecodeError::Truncated)
        );
        // A block size the FFT PE cannot run is rejected the same way.
        let mut net = sample_network();
        net.layers[1].bs = 6;
        net.layers[1].spectra.clear();
        net.layers[1].skip.fill(false);
        assert_eq!(
            DeployedNetwork::decode(&net.encode()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn huge_layer_count_is_rejected_without_allocating() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(8);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 11);
        assert_eq!(DeployedNetwork::decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_network().encode();
        bytes.push(0);
        assert_eq!(DeployedNetwork::decode(&bytes), Err(DecodeError::Truncated));
    }
}
