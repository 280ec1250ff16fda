//! Deployment packages: the artifact a host would DMA onto the board.
//!
//! After RP-BCM compression, what the accelerator needs per layer is
//! exactly (paper §IV-A): the pre-computed complex weight spectra
//! (Fig. 4b), the skip-index bitmap (1 bit/BCM, §IV-B), and the layer
//! geometry. That is [`FxWeights`], the one quantized form of a layer
//! the fixed-point kernels run; a package is a byte encoding of named
//! [`FxWeights`], so decoding yields executable weights directly. The
//! encoding is versioned little-endian binary — no external
//! dependencies, stable across platforms, and a faithful stand-in for
//! the weight files a Vivado host application would ship.

use crate::fixed::ComplexFx;
use crate::inference::FxWeights;
use rpbcm::skipindex;
use std::fmt;

/// Magic bytes prefixing every package ("RPBM").
pub const MAGIC: [u8; 4] = *b"RPBM";
/// Encoding version.
pub const VERSION: u16 = 1;

/// A whole network ready for the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedNetwork {
    /// Activation fixed-point format's fractional bits.
    pub frac_bits: u8,
    /// Named layers in execution order.
    pub layers: Vec<(String, FxWeights)>,
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

/// Appends one layer record: name, geometry, the bit-packed skip index
/// (LSB first, [`skipindex::pack_bits`]) and the interleaved `(re, im)`
/// words of the weight stream.
#[allow(clippy::too_many_arguments)]
fn put_layer(
    out: &mut Vec<u8>,
    name: &str,
    bs: u16,
    k: u16,
    out_blocks: u32,
    in_blocks: u32,
    skip: &[bool],
    bins: &[ComplexFx],
) {
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&bs.to_le_bytes());
    out.extend_from_slice(&k.to_le_bytes());
    out.extend_from_slice(&out_blocks.to_le_bytes());
    out.extend_from_slice(&in_blocks.to_le_bytes());
    out.extend_from_slice(&(skip.len() as u32).to_le_bytes());
    skipindex::pack_bits(out, skip);
    out.extend_from_slice(&((bins.len() * 2) as u32).to_le_bytes());
    for c in bins {
        out.extend_from_slice(&c.re.to_le_bytes());
        out.extend_from_slice(&c.im.to_le_bytes());
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
        for (name, l) in &self.layers {
            put_layer(
                &mut out,
                name,
                l.block_size() as u16,
                l.kernel() as u16,
                l.out_blocks() as u32,
                l.in_blocks() as u32,
                l.skip(),
                l.bins(),
            );
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
            let skip = skipindex::unpack_bits(take(&mut pos, skip_len.div_ceil(8))?, skip_len);
            let n_words =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let raw = take(&mut pos, n_words * 2)?;
            let spectra: Vec<i16> = raw
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes(c.try_into().expect("2 bytes")))
                .collect();
            // Consistency: the kernel is one the fx conv runs (odd, so
            // "same" padding keeps the map size), the grid is non-empty,
            // the skip bitmap covers k²·out·in blocks, the block size is
            // one the FFT PE runs (a power of two ≥ 2), and live blocks ×
            // (BS/2+1) × 2 words must match.
            let blocks = usize::from(k)
                .checked_mul(usize::from(k))
                .and_then(|b| b.checked_mul(out_blocks as usize))
                .and_then(|b| b.checked_mul(in_blocks as usize));
            if k % 2 == 0
                || out_blocks == 0
                || in_blocks == 0
                || blocks != Some(skip_len)
                || bs < 2
                || !bs.is_power_of_two()
            {
                return Err(DecodeError::Truncated);
            }
            let live = skip.iter().filter(|&&b| b).count();
            if spectra.len() != live * (bs as usize / 2 + 1) * 2 {
                return Err(DecodeError::Truncated);
            }
            let weights = FxWeights::from_parts(
                usize::from(bs),
                usize::from(k),
                out_blocks as usize,
                in_blocks as usize,
                &skip,
                &spectra,
            );
            layers.push((name, weights));
        }
        if pos != buf.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(DeployedNetwork { frac_bits, layers })
    }

    /// Total weight payload in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|(_, l)| l.weight_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::QFormat;
    use circulant::{BlockCirculant, CirculantMatrix, ConvBlockCirculant};
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
                ("conv1".into(), FxWeights::from_folded(q, &conv1)),
                ("conv2".into(), FxWeights::from_folded(q, &conv2)),
            ],
        }
    }

    /// One 3×3 layer with every other block (in skip order) pruned.
    fn half_pruned_3x3() -> DeployedNetwork {
        let mut conv = folded(3, 8, 2, 2, 3);
        for p in 0..3 {
            for qq in 0..3 {
                for bo in 0..2 {
                    for bi in 0..2 {
                        if (p * 3 + qq + bo + bi) % 2 == 1 {
                            *conv.grid_mut(p, qq).block_mut(bo, bi) = CirculantMatrix::zeros(8);
                        }
                    }
                }
            }
        }
        DeployedNetwork {
            frac_bits: 10,
            layers: vec![(
                "half".into(),
                FxWeights::from_folded(QFormat::new(10), &conv),
            )],
        }
    }

    /// A package of one layer record with the given raw fields, which
    /// need not be consistent.
    #[allow(clippy::too_many_arguments)]
    fn raw_package(
        bs: u16,
        k: u16,
        out_blocks: u32,
        in_blocks: u32,
        skip: &[bool],
        bins: &[ComplexFx],
    ) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(8);
        out.extend_from_slice(&1u32.to_le_bytes());
        put_layer(&mut out, "l", bs, k, out_blocks, in_blocks, skip, bins);
        out
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // FNV-1a of the encoding, recorded before packages were encoded
        // from `FxWeights`: the byte format is unchanged.
        let cases = [
            ("sample", sample_network(), 0x4113_f7e9_b665_15f5),
            ("half-pruned 3x3", half_pruned_3x3(), 0xbf8e_9a0a_63f2_2432),
        ];
        for (what, net, want) in cases {
            let got = telemetry::fnv::fnv1a(&net.encode());
            assert_eq!(got, want, "{what}: package bytes changed ({got:#018x})");
        }
        let l = &half_pruned_3x3().layers[0].1;
        assert_eq!((l.live_count(), l.skip().len()), (18, 36));
    }

    #[test]
    fn encode_decode_round_trip() {
        let net = sample_network();
        let bytes = net.encode();
        let back = DeployedNetwork::decode(&bytes).expect("valid package");
        assert_eq!(back, net);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn payload_counts_live_blocks_only() {
        let net = sample_network();
        let l = &net.layers[0].1;
        assert_eq!(l.skip().len(), 9 * 2 * 2);
        assert_eq!(l.live_count(), 36 - 2);
        assert_eq!(l.weight_bytes(), l.live_count() * 5 * 4);
        assert_eq!(
            net.weight_bytes(),
            l.weight_bytes() + net.layers[1].1.weight_bytes()
        );
    }

    #[test]
    fn deployed_weights_execute_bit_identically() {
        use crate::inference::conv_forward_fx;
        let q = QFormat::q8();
        let conv = folded(5, 8, 1, 2, 3);
        let direct = FxWeights::from_folded(q, &conv);
        let bytes = DeployedNetwork {
            frac_bits: 8,
            layers: vec![("l".into(), direct.clone())],
        }
        .encode();
        let loaded = DeployedNetwork::decode(&bytes).expect("valid");
        let x: Vec<i16> = (0..16 * 4 * 4)
            .map(|i| ((i * 37) % 200) as i16 - 100)
            .collect();
        let y1 = conv_forward_fx(q, &direct, &x, 4, 4);
        let y2 = conv_forward_fx(q, &loaded.layers[0].1, &x, 4, 4);
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
        let live = |n: usize| vec![true; n];
        let bins = |blocks: usize, bs: usize| vec![ComplexFx::new(1, -1); blocks * (bs / 2 + 1)];
        // The geometry itself is sound.
        assert!(DeployedNetwork::decode(&raw_package(4, 1, 1, 2, &live(2), &bins(2, 4))).is_ok());
        let rejected = [
            // The skip bitmap does not cover k²·out·in blocks, so loading
            // it would panic.
            (
                "grid mismatch",
                raw_package(4, 1, 1, 3, &live(2), &bins(2, 4)),
            ),
            // A block size the FFT PE cannot run.
            ("bs 6", raw_package(6, 1, 1, 2, &[false; 2], &[])),
            // Kernels the "same"-padded fx conv cannot run: k = 0 would
            // underflow the padding, an even k changes the map size.
            ("k 0", raw_package(4, 0, 1, 2, &[], &[])),
            ("k 2", raw_package(4, 2, 1, 1, &live(4), &bins(4, 4))),
            ("k 4", raw_package(4, 4, 1, 1, &[false; 16], &[])),
            // An empty grid.
            ("0 out blocks", raw_package(4, 1, 0, 2, &[], &[])),
            ("0 in blocks", raw_package(4, 3, 2, 0, &[], &[])),
        ];
        for (what, bytes) in rejected {
            assert_eq!(
                DeployedNetwork::decode(&bytes),
                Err(DecodeError::Truncated),
                "{what}"
            );
        }
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
