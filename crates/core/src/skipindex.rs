//! The skip-index buffer: one bit per BCM (paper §IV-B).
//!
//! "Before the computation, the PE controller checks the skip index bit,
//! which indicates whether the corresponding BCM is pruned or not." The
//! buffer costs `K·K·(C_in/BS)·(C_out/BS)` bits per conv layer — a
//! negligible overhead that this type makes concrete (bit-packed into
//! 64-bit words, exactly as a BRAM-resident bitmap would be).

use circulant::{BlockCirculant, ConvBlockCirculant};
use tensor::Scalar;

/// Skip-index buffers constructed.
static BUFFERS_BUILT: telemetry::Counter = telemetry::Counter::new("skipindex.buffers_built");
/// Live (compute) bits across all constructed buffers.
static LIVE_BITS: telemetry::Counter = telemetry::Counter::new("skipindex.live_bits");
/// Pruned (skip) bits across all constructed buffers.
static PRUNED_BITS: telemetry::Counter = telemetry::Counter::new("skipindex.pruned_bits");

/// A bit-packed skip-index buffer: bit `i` is `true` when BCM `i` is live
/// (must be computed) and `false` when it is pruned (skipped).
///
/// # Example
///
/// ```
/// use rpbcm::SkipIndexBuffer;
///
/// let buf = SkipIndexBuffer::from_bools(&[true, false, true, true]);
/// assert_eq!(buf.len(), 4);
/// assert_eq!(buf.live_count(), 3);
/// assert!(!buf.get(1));
/// assert_eq!(buf.size_bits(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipIndexBuffer {
    words: Vec<u64>,
    len: usize,
}

impl SkipIndexBuffer {
    /// Builds a buffer with every bit live.
    pub fn all_live(len: usize) -> Self {
        let mut buf = SkipIndexBuffer {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        buf.mask_tail();
        buf.record_build();
        buf
    }

    /// Builds from a boolean slice (`true` = live).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut buf = SkipIndexBuffer {
            words: vec![0u64; bits.len().div_ceil(64)],
            len: bits.len(),
        };
        for (i, &b) in bits.iter().enumerate() {
            if b {
                buf.words[i / 64] |= 1 << (i % 64);
            }
        }
        buf.record_build();
        buf
    }

    /// Telemetry on construction: buffer count plus live/pruned bit totals.
    fn record_build(&self) {
        BUFFERS_BUILT.inc();
        if telemetry::enabled() {
            let live = self.live_count() as u64;
            LIVE_BITS.add(live);
            PRUNED_BITS.add(self.len as u64 - live);
        }
    }

    /// Builds from a block-circulant grid's pruning state.
    pub fn from_grid<T: Scalar>(grid: &BlockCirculant<T>) -> Self {
        Self::from_bools(&grid.skip_index())
    }

    /// Builds from a conv weight's pruning state (all taps concatenated).
    pub fn from_conv<T: Scalar>(conv: &ConvBlockCirculant<T>) -> Self {
        Self::from_bools(&conv.skip_index())
    }

    /// Number of BCM bits tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer tracks no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (`true` = live).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "skip index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, live: bool) {
        assert!(i < self.len, "skip index {i} out of bounds ({})", self.len);
        if live {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of live blocks (population count — one instruction per word,
    /// the hardware's occupancy counter).
    pub fn live_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of pruned blocks.
    pub fn pruned_count(&self) -> usize {
        self.len - self.live_count()
    }

    /// Fraction of pruned blocks.
    pub fn sparsity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.pruned_count() as f64 / self.len as f64
        }
    }

    /// Buffer footprint in bits (exactly one per BCM).
    pub fn size_bits(&self) -> usize {
        self.len
    }

    /// Buffer footprint in bytes as stored (word-padded).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Iterates over the live block indices — the order the PE controller
    /// walks, skipping pruned work "immediately" (paper §IV-B).
    pub fn iter_live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for SkipIndexBuffer {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

/// Appends a skip bitmap in its byte form: `ceil(n/8)` bytes, packed
/// LSB-first (bit `i % 8` of byte `i / 8` set = block `i` live), tail bits
/// zero. This is the skip index the `nn` checkpoint and the `hwsim`
/// deployment package store. It builds no [`SkipIndexBuffer`], so the
/// construction telemetry stays a count of buffers the model built.
pub fn pack_bits(out: &mut Vec<u8>, live: &[bool]) {
    out.extend(live.chunks(8).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u8, |byte, (i, &l)| byte | (u8::from(l) << i))
    }));
}

/// Reads `n` skip bits from their byte form (see [`pack_bits`]).
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `ceil(n/8)` bytes.
pub fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use circulant::CirculantMatrix;

    #[test]
    fn byte_form_round_trips_and_is_lsb_first() {
        for n in [0usize, 8, 13] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
            let mut bytes = vec![0xaa]; // appends after what is there
            pack_bits(&mut bytes, &bits);
            assert_eq!(bytes.len(), 1 + n.div_ceil(8), "n={n}");
            assert_eq!(unpack_bits(&bytes[1..], n), bits, "n={n}");
        }
        // Blocks 0, 2, 3, 5, 6, 8, 9, 11, 12 live: LSB-first, zero tail.
        let bits: Vec<bool> = (0..13).map(|i| i % 3 != 1).collect();
        let mut bytes = Vec::new();
        pack_bits(&mut bytes, &bits);
        assert_eq!(bytes, [0b0110_1101, 0b0001_1011]);
    }

    #[test]
    fn round_trip_bools() {
        let bits = [true, false, true, true, false];
        let buf = SkipIndexBuffer::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(buf.get(i), b);
        }
        assert_eq!(buf.live_count(), 3);
        assert_eq!(buf.pruned_count(), 2);
        assert!((buf.sparsity() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn works_across_word_boundaries() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let buf: SkipIndexBuffer = bits.iter().copied().collect();
        assert_eq!(buf.len(), 130);
        assert_eq!(buf.live_count(), bits.iter().filter(|&&b| b).count());
        assert_eq!(buf.size_bytes(), 24); // 3 words
        let live: Vec<usize> = buf.iter_live().collect();
        assert!(live.iter().all(|&i| i % 3 == 0));
    }

    #[test]
    fn all_live_masks_tail() {
        let buf = SkipIndexBuffer::all_live(70);
        assert_eq!(buf.live_count(), 70);
        assert_eq!(buf.size_bits(), 70);
    }

    #[test]
    fn set_and_clear() {
        let mut buf = SkipIndexBuffer::all_live(8);
        buf.set(3, false);
        assert!(!buf.get(3));
        assert_eq!(buf.live_count(), 7);
        buf.set(3, true);
        assert_eq!(buf.live_count(), 8);
    }

    #[test]
    fn from_grid_reflects_pruning() {
        let mut grid = BlockCirculant::from_blocks(
            2,
            1,
            3,
            vec![
                CirculantMatrix::new(vec![1.0_f32, 2.0]),
                CirculantMatrix::zeros(2),
                CirculantMatrix::new(vec![3.0_f32, 4.0]),
            ],
        );
        let buf = SkipIndexBuffer::from_grid(&grid);
        assert_eq!(buf.live_count(), 2);
        assert!(!buf.get(1));
        *grid.block_mut(0, 0) = CirculantMatrix::zeros(2);
        assert_eq!(SkipIndexBuffer::from_grid(&grid).live_count(), 1);
    }

    #[test]
    fn paper_buffer_size_example() {
        // A 3×3×128×128 conv at BS=8: 3·3·16·16 = 2304 bits ≈ 288 bytes.
        let bits = 3 * 3 * (128 / 8) * (128 / 8);
        let buf = SkipIndexBuffer::all_live(bits);
        assert_eq!(buf.size_bits(), 2304);
        assert_eq!(buf.size_bytes(), 2304 / 64 * 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        SkipIndexBuffer::from_bools(&[true]).get(1);
    }
}
