//! Block-circulant partitioning of weight matrices and convolution kernels.

use crate::schedule::{ConvShape, SpectralConv};
use crate::CirculantMatrix;
use fft::real::HalfSpectrum;
use std::sync::OnceLock;
use tensor::{Scalar, Tensor};

/// Spectral-cache builds (the weight FFTs actually ran).
static SPECTRA_BUILDS: telemetry::Counter = telemetry::Counter::new("circulant.spectra.builds");
/// Spectral-cache hits (a matvec/matmat found the spectra already built).
static SPECTRA_HITS: telemetry::Counter = telemetry::Counter::new("circulant.spectra.hits");
/// Spectral-cache invalidations from mutable block access.
static SPECTRA_INVALIDATIONS: telemetry::Counter =
    telemetry::Counter::new("circulant.spectra.invalidations");

/// A weight matrix partitioned into a grid of circulant blocks
/// (paper Fig. 1b for the convolution case; this type is the 2-d
/// fully-connected / per-spatial-position core).
///
/// The dense matrix is `[rows, cols] = [rb·BS, cb·BS]`; block `(bi, bj)`
/// multiplies input chunk `bj` and accumulates into output chunk `bi`.
///
/// # Example
///
/// ```
/// use circulant::BlockCirculant;
/// use tensor::Tensor;
///
/// let dense = Tensor::from_fn(&[4, 8], |i| (i % 7) as f64);
/// let bc = BlockCirculant::project_from_dense(&dense, 4);
/// assert_eq!(bc.grid_dims(), (1, 2));
/// assert_eq!(bc.param_count(), 8); // two blocks x BS params
/// ```
#[derive(Debug, Clone)]
pub struct BlockCirculant<T: Scalar> {
    block_size: usize,
    row_blocks: usize,
    col_blocks: usize,
    /// Row-major grid of blocks, length `row_blocks * col_blocks`.
    blocks: Vec<CirculantMatrix<T>>,
    /// Lazily-built spectral weight cache (frequency-domain weight storage
    /// of paper Fig. 4b): the grid as a 1-tap [`SpectralConv`] over its
    /// live blocks, boxed so an unbuilt cache costs one pointer.
    /// Invalidated by every mutable block access.
    spectra: OnceLock<Box<SpectralConv<T>>>,
}

/// Equality is over the time-domain weights only; the spectral cache is a
/// derived artifact and never affects comparisons.
impl<T: Scalar> PartialEq for BlockCirculant<T> {
    fn eq(&self, other: &Self) -> bool {
        self.block_size == other.block_size
            && self.row_blocks == other.row_blocks
            && self.col_blocks == other.col_blocks
            && self.blocks == other.blocks
    }
}

impl<T: Scalar> BlockCirculant<T> {
    /// Builds a grid from blocks in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if the count is wrong, any block size differs from
    /// `block_size`, or any dimension is zero.
    pub fn from_blocks(
        block_size: usize,
        row_blocks: usize,
        col_blocks: usize,
        blocks: Vec<CirculantMatrix<T>>,
    ) -> Self {
        assert!(block_size > 0 && row_blocks > 0 && col_blocks > 0);
        assert_eq!(
            blocks.len(),
            row_blocks * col_blocks,
            "expected {} blocks, got {}",
            row_blocks * col_blocks,
            blocks.len()
        );
        assert!(
            blocks.iter().all(|b| b.block_size() == block_size),
            "all blocks must have size {block_size}"
        );
        BlockCirculant {
            block_size,
            row_blocks,
            col_blocks,
            blocks,
            spectra: OnceLock::new(),
        }
    }

    /// Builds an all-zero grid.
    pub fn zeros(block_size: usize, row_blocks: usize, col_blocks: usize) -> Self {
        let blocks = (0..row_blocks * col_blocks)
            .map(|_| CirculantMatrix::zeros(block_size))
            .collect();
        Self::from_blocks(block_size, row_blocks, col_blocks, blocks)
    }

    /// Least-squares projection of a dense `[rows, cols]` matrix onto the
    /// block-circulant subspace with block size `bs`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not 2-d or its dimensions are not divisible by
    /// `bs`.
    pub fn project_from_dense(dense: &Tensor<T>, bs: usize) -> Self {
        assert_eq!(dense.shape().ndim(), 2, "projection needs a 2-d tensor");
        let (rows, cols) = (dense.shape().dim(0), dense.shape().dim(1));
        assert_eq!(rows % bs, 0, "rows {rows} not divisible by BS {bs}");
        assert_eq!(cols % bs, 0, "cols {cols} not divisible by BS {bs}");
        let (rb, cb) = (rows / bs, cols / bs);
        let mut blocks = Vec::with_capacity(rb * cb);
        for bi in 0..rb {
            for bj in 0..cb {
                let sub = Tensor::from_fn(&[bs, bs], |idx| {
                    let (i, j) = (idx / bs, idx % bs);
                    dense.at(&[bi * bs + i, bj * bs + j])
                });
                blocks.push(CirculantMatrix::project_from_dense(&sub));
            }
        }
        Self::from_blocks(bs, rb, cb, blocks)
    }

    /// Block size `BS`.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// `(row_blocks, col_blocks)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.row_blocks, self.col_blocks)
    }

    /// Dense dimensions `(rows, cols)`.
    pub fn dense_dims(&self) -> (usize, usize) {
        (
            self.row_blocks * self.block_size,
            self.col_blocks * self.block_size,
        )
    }

    /// The block at grid position `(bi, bj)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn block(&self, bi: usize, bj: usize) -> &CirculantMatrix<T> {
        assert!(
            bi < self.row_blocks && bj < self.col_blocks,
            "block index out of bounds"
        );
        &self.blocks[bi * self.col_blocks + bj]
    }

    /// Mutable block access. Invalidates the spectral cache — the next
    /// [`Self::matvec`]/[`Self::matmat`]/[`Self::prepare_spectra`] call
    /// rebuilds it from the updated weights.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// use circulant::{BlockCirculant, CirculantMatrix};
    ///
    /// let mut bc = BlockCirculant::<f64>::zeros(4, 1, 1);
    /// bc.prepare_spectra();
    /// assert!(bc.spectra_ready());
    /// // Any mutable access drops the cached weight spectra.
    /// *bc.block_mut(0, 0) = CirculantMatrix::new(vec![1.0, 2.0, 3.0, 4.0]);
    /// assert!(!bc.spectra_ready());
    /// ```
    pub fn block_mut(&mut self, bi: usize, bj: usize) -> &mut CirculantMatrix<T> {
        assert!(
            bi < self.row_blocks && bj < self.col_blocks,
            "block index out of bounds"
        );
        self.invalidate_spectra();
        &mut self.blocks[bi * self.col_blocks + bj]
    }

    /// Iterates over blocks in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = &CirculantMatrix<T>> {
        self.blocks.iter()
    }

    /// Iterates mutably over blocks in row-major order. Invalidates the
    /// spectral cache (even if nothing is written through the iterator).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CirculantMatrix<T>> {
        self.invalidate_spectra();
        self.blocks.iter_mut()
    }

    /// Drops the spectral cache (mutable access may change the weights).
    fn invalidate_spectra(&mut self) {
        if self.spectra.take().is_some() {
            SPECTRA_INVALIDATIONS.inc();
        }
    }

    /// Total number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of *stored* parameters: `BS` per block (pruned blocks counted
    /// as zero — they are dropped from storage entirely).
    pub fn param_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| !b.is_zero())
            .map(|b| b.param_count())
            .sum()
    }

    /// Parameters of the dense equivalent.
    pub fn dense_param_count(&self) -> usize {
        let (r, c) = self.dense_dims();
        r * c
    }

    /// Expands to the dense matrix.
    pub fn to_dense(&self) -> Tensor<T> {
        let (rows, cols) = self.dense_dims();
        let bs = self.block_size;
        let mut out = Tensor::zeros(&[rows, cols]);
        for bi in 0..self.row_blocks {
            for bj in 0..self.col_blocks {
                let d = self.block(bi, bj).to_dense();
                for i in 0..bs {
                    for j in 0..bs {
                        out.set(&[bi * bs + i, bj * bs + j], d.at(&[i, j]));
                    }
                }
            }
        }
        out
    }

    /// Matrix–vector product via the naive per-block dense path, O(rows·cols).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dense column count.
    pub fn matvec_naive(&self, x: &[T]) -> Vec<T> {
        let (rows, cols) = self.dense_dims();
        assert_eq!(x.len(), cols, "matvec dimension mismatch");
        let bs = self.block_size;
        let mut y = vec![T::ZERO; rows];
        for bi in 0..self.row_blocks {
            for bj in 0..self.col_blocks {
                let blk = self.block(bi, bj);
                if blk.is_zero() {
                    continue;
                }
                let part = blk.matvec_naive(&x[bj * bs..(bj + 1) * bs]);
                for (yi, p) in y[bi * bs..(bi + 1) * bs].iter_mut().zip(part) {
                    *yi += p;
                }
            }
        }
        y
    }

    /// Builds the live blocks' weight spectra now (they are otherwise built
    /// on the first [`Self::matvec`]/[`Self::matmat`] call). Idempotent;
    /// cheap when already built. Pruned blocks get no spectrum, mirroring
    /// the skip-index scheme.
    ///
    /// The cache lives until the next mutable block access
    /// ([`Self::block_mut`] / [`Self::iter_mut`]), which drops it; see
    /// [`Self::spectra_ready`] to observe the state.
    ///
    /// # Example
    ///
    /// ```
    /// use circulant::BlockCirculant;
    /// use tensor::Tensor;
    ///
    /// let dense = Tensor::from_fn(&[8, 8], |i| (i % 5) as f64);
    /// let bc = BlockCirculant::project_from_dense(&dense, 4);
    /// assert!(!bc.spectra_ready()); // lazy: nothing built yet
    /// bc.prepare_spectra(); // e.g. ahead of a latency-sensitive phase
    /// assert!(bc.spectra_ready());
    /// bc.prepare_spectra(); // idempotent
    /// ```
    pub fn prepare_spectra(&self) {
        self.spectral();
    }

    /// The cached 1-tap [`SpectralConv`], building it if needed.
    fn spectral(&self) -> &SpectralConv<T> {
        self.spectra.get_or_init(|| {
            SPECTRA_BUILDS.inc();
            let live = self.blocks.iter().filter(|b| !b.is_zero());
            let vecs: Vec<T> = live.flat_map(|b| b.defining_vector()).copied().collect();
            let (bs, rb, cb) = (self.block_size, self.row_blocks, self.col_blocks);
            Box::new(SpectralConv::new(bs, 1, rb, cb, &self.skip_index(), &vecs))
        })
    }

    /// Whether the spectral weight cache is currently built.
    pub fn spectra_ready(&self) -> bool {
        self.spectra.get().is_some()
    }

    /// Matrix–vector product via "FFT → eMAC → IFFT" with spectrum-domain
    /// accumulation: [`Self::matmat`] of one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dense column count or `BS` is
    /// not a power of two.
    ///
    /// # Example
    ///
    /// ```
    /// use circulant::BlockCirculant;
    /// use tensor::Tensor;
    ///
    /// let dense = Tensor::from_fn(&[4, 4], |i| i as f64);
    /// let bc = BlockCirculant::project_from_dense(&dense, 4);
    /// let x = [1.0, 0.0, 0.0, 0.0];
    /// let y = bc.matvec(&x);
    /// // The FFT path agrees with the naive per-block dense path.
    /// let naive = bc.matvec_naive(&x);
    /// for (a, b) in y.iter().zip(&naive) {
    ///     assert!((a - b).abs() < 1e-9);
    /// }
    /// ```
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        self.matmat(x, 1)
    }

    /// The seed implementation: identical math, but re-runs the weight FFT
    /// of every live block on every call and stays serial. Kept as the
    /// baseline for `bench`'s speedup experiments and as an
    /// allocation-independent cross-check.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dense column count or `BS` is
    /// not a power of two.
    pub fn matvec_uncached(&self, x: &[T]) -> Vec<T> {
        let (rows, cols) = self.dense_dims();
        assert_eq!(x.len(), cols, "matvec dimension mismatch");
        let bs = self.block_size;
        let x_spectra: Vec<HalfSpectrum<T>> = (0..self.col_blocks)
            .map(|bj| HalfSpectrum::forward(&x[bj * bs..(bj + 1) * bs]))
            .collect();
        let mut y = Vec::with_capacity(rows);
        for bi in 0..self.row_blocks {
            let mut acc = HalfSpectrum::zeros(bs);
            for bj in 0..self.col_blocks {
                let blk = self.block(bi, bj);
                if blk.is_zero() {
                    continue; // skip-index hit
                }
                let w_spec = HalfSpectrum::forward(blk.defining_vector());
                acc.emac_accumulate(&w_spec, &x_spectra[bj]);
            }
            y.extend(acc.inverse());
        }
        y
    }

    /// Batched matrix–matrix product: `batch` input vectors, each of dense
    /// column length, packed row-major in `xs` (`xs[s·cols .. (s+1)·cols]`
    /// is sample `s`). Returns the outputs packed the same way
    /// (`[batch, rows]` row-major).
    ///
    /// The grid runs as a 1-tap conv of one pixel through the one conv
    /// schedule ([`SpectralConv::forward`] on [`ConvShape::PIXEL`]): each
    /// input chunk is transformed once, partial products accumulate per
    /// output chunk in the frequency domain over the live blocks only (the
    /// PE controller's skip index), and one IFFT per output chunk recovers
    /// the result — the computation order the accelerator implements.
    /// Weight spectra come from the cache (built on first use, invalidated
    /// by mutable access), so repeated calls pay only the input FFTs.
    ///
    /// Up to eight samples share one pass; the output blocks of a pass are
    /// split over the [`tensor::parallel`] workers (serial inside a worker
    /// or a `serial_scope`, and for a pass of one sample, so
    /// [`Self::matvec`] runs on the calling thread). Each sample's
    /// arithmetic is independent of its pass-mates and of the worker
    /// count, so every sample's output is **bit-identical** to a separate
    /// [`Self::matvec`] call on it, and to [`Self::matvec_uncached`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * cols` or `BS` is not a power of two.
    ///
    /// # Example
    ///
    /// ```
    /// use circulant::BlockCirculant;
    /// use tensor::Tensor;
    ///
    /// let dense = Tensor::from_fn(&[4, 4], |i| i as f64);
    /// let bc = BlockCirculant::project_from_dense(&dense, 4);
    /// let (a, b) = ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]);
    /// let both = bc.matmat(&[a, b].concat(), 2);
    /// assert_eq!(both[..4], bc.matvec(&a)[..]);
    /// assert_eq!(both[4..], bc.matvec(&b)[..]);
    /// ```
    pub fn matmat(&self, xs: &[T], batch: usize) -> Vec<T> {
        let cols = self.dense_dims().1;
        assert_eq!(xs.len(), batch * cols, "matmat dimension mismatch");
        if self.spectra_ready() {
            SPECTRA_HITS.inc();
        }
        self.spectral().forward(xs, batch, ConvShape::PIXEL)
    }

    /// Per-block skip-index bitmap: `true` = compute, `false` = pruned
    /// (paper §IV-B: one bit per BCM).
    pub fn skip_index(&self) -> Vec<bool> {
        self.blocks.iter().map(|b| !b.is_zero()).collect()
    }

    /// Fraction of blocks that are pruned.
    pub fn sparsity(&self) -> f64 {
        let zero = self.blocks.iter().filter(|b| b.is_zero()).count();
        zero as f64 / self.blocks.len() as f64
    }
}

/// A convolution weight `[c_out, c_in, kh, kw]` in block-circulant form:
/// for each spatial tap `(kh, kw)` the `[c_out, c_in]` slice is a
/// [`BlockCirculant`] grid (paper Fig. 1b).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvBlockCirculant<T: Scalar> {
    kh: usize,
    kw: usize,
    /// One grid per spatial tap, row-major over `(kh, kw)`.
    grids: Vec<BlockCirculant<T>>,
}

impl<T: Scalar> ConvBlockCirculant<T> {
    /// Builds from per-tap grids (row-major over the `kh × kw` taps).
    ///
    /// # Panics
    ///
    /// Panics if the grid count differs from `kh*kw`, or grids disagree on
    /// shape.
    pub fn from_grids(kh: usize, kw: usize, grids: Vec<BlockCirculant<T>>) -> Self {
        assert_eq!(grids.len(), kh * kw, "need one grid per spatial tap");
        assert!(!grids.is_empty(), "convolution needs at least one tap");
        let dims = grids[0].grid_dims();
        let bs = grids[0].block_size();
        assert!(
            grids
                .iter()
                .all(|g| g.grid_dims() == dims && g.block_size() == bs),
            "all taps must share grid shape"
        );
        ConvBlockCirculant { kh, kw, grids }
    }

    /// Projects a dense conv weight `[c_out, c_in, kh, kw]` onto
    /// block-circulant form.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 4-d or channels are not divisible by `bs`.
    pub fn project_from_dense(w: &Tensor<T>, bs: usize) -> Self {
        assert_eq!(w.shape().ndim(), 4, "conv weight must be 4-d");
        let (co, ci, kh, kw) = (
            w.shape().dim(0),
            w.shape().dim(1),
            w.shape().dim(2),
            w.shape().dim(3),
        );
        let grids = (0..kh * kw)
            .map(|tap| {
                let (p, q) = (tap / kw, tap % kw);
                let slice = Tensor::from_fn(&[co, ci], |idx| {
                    let (o, i) = (idx / ci, idx % ci);
                    w.at(&[o, i, p, q])
                });
                BlockCirculant::project_from_dense(&slice, bs)
            })
            .collect();
        ConvBlockCirculant { kh, kw, grids }
    }

    /// Kernel height and width.
    pub fn kernel_dims(&self) -> (usize, usize) {
        (self.kh, self.kw)
    }

    /// Block size `BS`.
    pub fn block_size(&self) -> usize {
        self.grids[0].block_size()
    }

    /// Channel-block grid dims `(c_out/BS, c_in/BS)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        self.grids[0].grid_dims()
    }

    /// `(c_out, c_in)`.
    pub fn channel_dims(&self) -> (usize, usize) {
        self.grids[0].dense_dims()
    }

    /// The grid at spatial tap `(p, q)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn grid(&self, p: usize, q: usize) -> &BlockCirculant<T> {
        assert!(p < self.kh && q < self.kw, "tap index out of bounds");
        &self.grids[p * self.kw + q]
    }

    /// Mutable tap access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn grid_mut(&mut self, p: usize, q: usize) -> &mut BlockCirculant<T> {
        assert!(p < self.kh && q < self.kw, "tap index out of bounds");
        &mut self.grids[p * self.kw + q]
    }

    /// Iterates over all taps' grids.
    pub fn iter(&self) -> impl Iterator<Item = &BlockCirculant<T>> {
        self.grids.iter()
    }

    /// Iterates mutably over all taps' grids.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut BlockCirculant<T>> {
        self.grids.iter_mut()
    }

    /// Total BCM count: `kh · kw · (c_out/BS) · (c_in/BS)`.
    pub fn block_count(&self) -> usize {
        self.grids.iter().map(|g| g.block_count()).sum()
    }

    /// Stored parameter count (pruned blocks excluded).
    pub fn param_count(&self) -> usize {
        self.grids.iter().map(|g| g.param_count()).sum()
    }

    /// Parameters of the dense equivalent.
    pub fn dense_param_count(&self) -> usize {
        let (co, ci) = self.channel_dims();
        co * ci * self.kh * self.kw
    }

    /// Expands to the dense `[c_out, c_in, kh, kw]` weight.
    pub fn to_dense(&self) -> Tensor<T> {
        let (co, ci) = self.channel_dims();
        let mut out = Tensor::zeros(&[co, ci, self.kh, self.kw]);
        for p in 0..self.kh {
            for q in 0..self.kw {
                let d = self.grid(p, q).to_dense();
                for o in 0..co {
                    for i in 0..ci {
                        out.set(&[o, i, p, q], d.at(&[o, i]));
                    }
                }
            }
        }
        out
    }

    /// Skip-index bitmap over all taps (size = [`Self::block_count`], one
    /// bit per BCM as in §IV-B).
    pub fn skip_index(&self) -> Vec<bool> {
        self.grids.iter().flat_map(|g| g.skip_index()).collect()
    }

    /// Fraction of pruned blocks across all taps.
    pub fn sparsity(&self) -> f64 {
        let total = self.block_count();
        let kept: usize = self
            .grids
            .iter()
            .map(|g| g.skip_index().iter().filter(|&&k| k).count())
            .sum();
        1.0 - kept as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::{init, parallel};

    fn random_bc(seed: u64, bs: usize, rb: usize, cb: usize) -> BlockCirculant<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = (0..rb * cb)
            .map(|_| {
                CirculantMatrix::new(init::gaussian::<f64>(&mut rng, &[bs], 0.0, 1.0).into_vec())
            })
            .collect();
        BlockCirculant::from_blocks(bs, rb, cb, blocks)
    }

    #[test]
    fn matvec_fft_matches_naive_and_dense() {
        let bc = random_bc(3, 4, 3, 2);
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let naive = bc.matvec_naive(&x);
        let fast = bc.matvec(&x);
        let dense = bc.to_dense();
        let want = dense.matmul(&Tensor::from_vec(x.clone(), &[8, 1]));
        for i in 0..12 {
            assert!((naive[i] - want.as_slice()[i]).abs() < 1e-10);
            assert!((fast[i] - want.as_slice()[i]).abs() < 1e-9);
        }
    }

    fn random_bc_f32(seed: u64, bs: usize, rb: usize, cb: usize) -> BlockCirculant<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = (0..rb * cb)
            .map(|_| {
                CirculantMatrix::new(init::gaussian::<f32>(&mut rng, &[bs], 0.0, 1.0).into_vec())
            })
            .collect();
        BlockCirculant::from_blocks(bs, rb, cb, blocks)
    }

    #[test]
    fn matmat_bit_identical_to_uncached_f64() {
        let mut bc = random_bc(11, 8, 3, 2);
        *bc.block_mut(1, 0) = CirculantMatrix::zeros(8);
        for width in 1..=9usize {
            let xs: Vec<f64> = (0..width * 16)
                .map(|i| ((i % 16 + 3 * (i / 16)) as f64 * 0.31).cos())
                .collect();
            let lanes = bc.matmat(&xs, width);
            for (s, (x, got)) in xs.chunks(16).zip(lanes.chunks(24)).enumerate() {
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = bc.matvec_uncached(x).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "lane {s} of width {width} diverged");
            }
        }
    }

    #[test]
    fn matmat_bit_identical_to_uncached_f32() {
        let mut bc = random_bc_f32(13, 4, 2, 3);
        *bc.block_mut(0, 2) = CirculantMatrix::zeros(4);
        *bc.block_mut(1, 1) = CirculantMatrix::zeros(4);
        for width in 1..=9usize {
            let xs: Vec<f32> = (0..width * 12)
                .map(|i| ((i % 12 * 7 + i / 12) as f32 * 0.17).sin())
                .collect();
            let lanes = bc.matmat(&xs, width);
            for (s, (x, got)) in xs.chunks(12).zip(lanes.chunks(8)).enumerate() {
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = bc.matvec_uncached(x).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "lane {s} of width {width} diverged");
            }
        }
    }

    #[test]
    fn matmat_empty_input() {
        let bc = random_bc(7, 4, 2, 2);
        assert!(bc.matmat(&[], 0).is_empty());
    }

    #[test]
    fn pruned_blocks_are_skipped_consistently() {
        let mut bc = random_bc(5, 4, 2, 2);
        *bc.block_mut(0, 1) = CirculantMatrix::zeros(4);
        *bc.block_mut(1, 0) = CirculantMatrix::zeros(4);
        assert_eq!(bc.skip_index(), vec![true, false, false, true]);
        assert!((bc.sparsity() - 0.5).abs() < 1e-12);
        assert_eq!(bc.param_count(), 8); // 2 live blocks x 4 params

        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let fast = bc.matvec(&x);
        let want = bc.to_dense().matmul(&Tensor::from_vec(x.clone(), &[8, 1]));
        for i in 0..8 {
            assert!((fast[i] - want.as_slice()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn split_lane_matvec_is_bit_identical_to_uncached_oracle() {
        // The lane-form cached path (split eMAC planes + the shared IFFT)
        // must not just be close to the seed implementation — every f64
        // must match bit for bit, because the per-bin expression trees are
        // identical.
        for (seed, bs, rb, cb, prune) in [
            (7u64, 4, 3, 2, false),
            (8, 8, 2, 4, true),
            (9, 16, 2, 2, true),
        ] {
            let mut bc = random_bc(seed, bs, rb, cb);
            if prune {
                for b in 0..rb * cb {
                    if b % 2 == 1 {
                        *bc.block_mut(b / cb, b % cb) = CirculantMatrix::zeros(bs);
                    }
                }
            }
            let x: Vec<f64> = (0..cb * bs)
                .map(|i| (i as f64 * 0.31).cos() * 2.0)
                .collect();
            let fast = bc.matvec(&x);
            let oracle = bc.matvec_uncached(&x);
            for (i, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "bs={bs} elem {i}");
            }
        }
    }

    #[test]
    fn projection_round_trips_block_circulant_matrices() {
        let bc = random_bc(9, 8, 2, 3);
        let p = BlockCirculant::project_from_dense(&bc.to_dense(), 8);
        assert_eq!(p.grid_dims(), (2, 3));
        for (a, b) in p.iter().zip(bc.iter()) {
            for (x, y) in a.defining_vector().iter().zip(b.defining_vector()) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn compression_ratio_is_bs() {
        let bc = random_bc(1, 8, 4, 4);
        assert_eq!(bc.dense_param_count(), 32 * 32);
        assert_eq!(bc.param_count(), 4 * 4 * 8);
        assert_eq!(bc.dense_param_count() / bc.param_count(), 8);
    }

    #[test]
    fn conv_projection_and_expansion_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        // Build an exactly block-circulant conv weight, then round-trip.
        let co = 8;
        let ci = 4;
        let bs = 4;
        let grids: Vec<BlockCirculant<f64>> = (0..9)
            .map(|_| {
                let blocks = (0..(co / bs) * (ci / bs))
                    .map(|_| {
                        CirculantMatrix::new(
                            init::gaussian::<f64>(&mut rng, &[bs], 0.0, 1.0).into_vec(),
                        )
                    })
                    .collect();
                BlockCirculant::from_blocks(bs, co / bs, ci / bs, blocks)
            })
            .collect();
        let conv = ConvBlockCirculant::from_grids(3, 3, grids);
        assert_eq!(conv.block_count(), (9 * 2));
        let dense = conv.to_dense();
        assert_eq!(dense.dims(), &[8, 4, 3, 3]);
        let back = ConvBlockCirculant::project_from_dense(&dense, 4);
        for (g1, g2) in back.iter().zip(conv.iter()) {
            for (b1, b2) in g1.iter().zip(g2.iter()) {
                for (x, y) in b1.defining_vector().iter().zip(b2.defining_vector()) {
                    assert!((x - y).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn conv_param_accounting() {
        let dense = Tensor::<f64>::ones(&[16, 8, 3, 3]);
        let conv = ConvBlockCirculant::project_from_dense(&dense, 8);
        assert_eq!(conv.dense_param_count(), 16 * 8 * 9);
        assert_eq!(conv.param_count(), (9 * 2) * 8);
        assert_eq!(conv.channel_dims(), (16, 8));
        assert_eq!(conv.grid_dims(), (2, 1));
        assert_eq!(conv.kernel_dims(), (3, 3));
        assert_eq!(conv.skip_index().len(), 18);
        assert_eq!(conv.sparsity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn projection_rejects_indivisible_dims() {
        let dense = Tensor::<f64>::ones(&[6, 8]);
        BlockCirculant::project_from_dense(&dense, 4);
    }

    #[test]
    fn spectra_cache_builds_lazily_and_invalidates_on_mutation() {
        let mut bc = random_bc(11, 4, 2, 3);
        assert!(!bc.spectra_ready());
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.3).cos()).collect();
        let before = bc.matvec(&x);
        assert!(bc.spectra_ready());
        assert_eq!(before, bc.matvec(&x), "cached calls are stable");

        // Mutating a block must drop the cache and change the product.
        *bc.block_mut(0, 0) = CirculantMatrix::new(vec![1.0, -2.0, 3.0, 0.5]);
        assert!(!bc.spectra_ready());
        let after = bc.matvec(&x);
        let naive = bc.matvec_naive(&x);
        assert_ne!(before, after);
        for (a, b) in after.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-9);
        }

        // iter_mut also invalidates, even without writing.
        bc.prepare_spectra();
        assert!(bc.spectra_ready());
        let _ = bc.iter_mut();
        assert!(!bc.spectra_ready());
    }

    #[test]
    fn cache_ignored_by_equality_and_kept_by_clone() {
        let a = random_bc(13, 4, 2, 2);
        let b = a.clone();
        a.prepare_spectra();
        assert!(a.spectra_ready() && !b.spectra_ready());
        assert_eq!(a, b, "cache state must not affect equality");
        let c = a.clone();
        assert!(c.spectra_ready(), "clone carries the built cache");
    }

    #[test]
    fn matmat_is_bit_identical_to_per_sample_oracle_at_any_worker_count() {
        let mut bc = random_bc(17, 8, 3, 2);
        *bc.block_mut(2, 1) = CirculantMatrix::zeros(8);
        let (rows, cols) = bc.dense_dims();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for batch in [1usize, 2, 5] {
            let xs: Vec<f64> = (0..batch * cols).map(|i| (i as f64 * 0.11).sin()).collect();
            let want: Vec<u64> = (0..batch)
                .flat_map(|s| bc.matvec_uncached(&xs[s * cols..(s + 1) * cols]))
                .map(f64::to_bits)
                .collect();
            let got = bc.matmat(&xs, batch);
            assert_eq!(got.len(), batch * rows);
            assert_eq!(bits(got), want, "default workers, batch {batch}");
            let serial = parallel::serial_scope(|| bc.matmat(&xs, batch));
            assert_eq!(bits(serial), want, "serial, batch {batch}");
        }
        assert!(bc.matmat(&[], 0).is_empty());
    }
}
