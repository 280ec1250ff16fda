//! Workspace-level property tests: invariants that span crates.

use proptest::prelude::*;
use rpbcm_repro::circulant::{BlockCirculant, CirculantMatrix, ConvBlockCirculant};
use rpbcm_repro::hwsim::deploy::DeployedNetwork;
use rpbcm_repro::hwsim::fixed::QFormat;
use rpbcm_repro::hwsim::inference::{conv_forward_fx, FxWeights};
use rpbcm_repro::hwsim::pe::PeBankConfig;
use rpbcm_repro::hwsim::tiling::tiled_conv_forward_fx;
use rpbcm_repro::rpbcm::pruning::{prune_indices, prune_threshold};
use rpbcm_repro::rpbcm::SkipIndexBuffer;
use rpbcm_repro::tensor::{parallel, svd};

/// Random block-circulant conv weight from a proptest value vector.
fn conv_from_values(
    bs: usize,
    ob: usize,
    ib: usize,
    k: usize,
    vals: &[f32],
) -> ConvBlockCirculant<f32> {
    let mut it = vals.iter().copied().cycle();
    let grids = (0..k * k)
        .map(|_| {
            let blocks = (0..ob * ib)
                .map(|_| CirculantMatrix::new((0..bs).map(|_| it.next().expect("cycle")).collect()))
                .collect();
            BlockCirculant::from_blocks(bs, ob, ib, blocks)
        })
        .collect();
    ConvBlockCirculant::from_grids(k, k, grids)
}

proptest! {
    /// Circulant singular values from the spectrum equal Jacobi SVD of the
    /// dense expansion, for every defining vector.
    #[test]
    fn circulant_svd_identity(w in proptest::collection::vec(-4.0_f64..4.0, 8)) {
        let c = CirculantMatrix::new(w);
        let fast = c.singular_values();
        let slow = svd::singular_values(&c.to_dense());
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Folding a hadaBCM pair (the Hadamard product of its two circulant
    /// factors) then expanding equals the Hadamard product of the factors'
    /// dense expansions.
    #[test]
    fn hadabcm_fold_commutes_with_expansion(
        a in proptest::collection::vec(-2.0_f64..2.0, 8),
        b in proptest::collection::vec(-2.0_f64..2.0, 8),
    ) {
        let ca = CirculantMatrix::new(a);
        let cb = CirculantMatrix::new(b);
        let folded_dense = ca.hadamard(&cb).to_dense();
        let dense_product = ca.to_dense().hadamard(&cb.to_dense());
        prop_assert_eq!(folded_dense, dense_product);
    }

    /// Pruning selection: exactly ⌊α·n⌋ indices, all with norms ≤ the
    /// reported threshold, and no kept block has a norm strictly below the
    /// smallest pruned one.
    #[test]
    fn pruning_selection_invariants(
        norms in proptest::collection::vec(0.0_f64..10.0, 1..64),
        alpha in 0.0_f64..1.0,
    ) {
        let idx = prune_indices(&norms, alpha);
        let threshold = prune_threshold(&norms, alpha);
        prop_assert_eq!(idx.len(), ((norms.len() as f64) * alpha).floor() as usize);
        for &i in &idx {
            prop_assert!(norms[i] <= threshold + 1e-12);
        }
        if let Some(&max_pruned) = idx.iter().map(|&i| &norms[i]).max_by(|a, b| a.partial_cmp(b).unwrap()) {
            let kept_min = norms
                .iter()
                .enumerate()
                .filter(|(i, _)| !idx.contains(i))
                .map(|(_, &n)| n)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(kept_min >= max_pruned - 1e-12);
        }
    }

    /// Skip-index round trip and counting.
    #[test]
    fn skip_index_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        let buf = SkipIndexBuffer::from_bools(&bits);
        prop_assert_eq!(buf.len(), bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(buf.get(i), b);
        }
        prop_assert_eq!(buf.live_count(), bits.iter().filter(|&&b| b).count());
        let live: Vec<usize> = buf.iter_live().collect();
        prop_assert!(live.windows(2).all(|w| w[0] < w[1]));
    }

    /// PE bank cycles: the skip design never computes more than the
    /// conventional design plus per-block overhead, and pruning can only
    /// reduce cycles.
    #[test]
    fn pe_cycle_monotonicity(
        bits in proptest::collection::vec(any::<bool>(), 1..128),
        pixels in 1usize..512,
    ) {
        let cfg = PeBankConfig::new(8, 16);
        let skip = SkipIndexBuffer::from_bools(&bits);
        let all_live = SkipIndexBuffer::all_live(bits.len());
        let pruned_cycles = cfg.tile_cycles_skip(&skip, pixels);
        let live_cycles = cfg.tile_cycles_skip(&all_live, pixels);
        prop_assert!(pruned_cycles <= live_cycles);
        let conventional = cfg.tile_cycles_conventional(bits.len(), pixels);
        let max_overhead = (bits.len() as u64) * cfg.costs.skip_overhead_cycles;
        prop_assert!(live_cycles <= conventional + max_overhead);
    }

    /// Pre-computed spectral weights compute the same product as the
    /// time-domain grid, randomly pruned blocks included.
    #[test]
    fn spectral_matvec_matches_dense(
        vals in proptest::collection::vec(-2.0_f64..2.0, 32),
        x in proptest::collection::vec(-2.0_f64..2.0, 16),
        pruned in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let mut it = vals.iter().copied().cycle();
        let blocks: Vec<CirculantMatrix<f64>> = pruned
            .iter()
            .map(|&p| {
                if p {
                    CirculantMatrix::zeros(8)
                } else {
                    CirculantMatrix::new((0..8).map(|_| it.next().expect("cycle")).collect())
                }
            })
            .collect();
        let grid = BlockCirculant::from_blocks(8, 2, 2, blocks);
        grid.prepare_spectra();
        let fast = grid.matvec(&x);
        let slow = grid.matvec_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    /// The lazily cached spectral path equals the naive time-domain
    /// product, including after mutating a block through `block_mut` (the
    /// cache must invalidate) and after pruning a block to zero (the skip
    /// path must keep matching).
    #[test]
    fn cached_spectral_matvec_matches_naive(
        vals in proptest::collection::vec(-2.0_f64..2.0, 64),
        x in proptest::collection::vec(-2.0_f64..2.0, 24),
        muts in proptest::collection::vec(-1.5_f64..1.5, 8),
    ) {
        let mut it = vals.iter().copied().cycle();
        let blocks = (0..2 * 3)
            .map(|_| CirculantMatrix::new((0..8).map(|_| it.next().expect("cycle")).collect()))
            .collect();
        let mut grid = BlockCirculant::from_blocks(8, 2, 3, blocks);
        grid.prepare_spectra();
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(p, q)| (p - q).abs() < 1e-7);
        prop_assert!(close(&grid.matvec(&x), &grid.matvec_naive(&x)));
        // Mutating a block must drop the stale spectra...
        *grid.block_mut(1, 2) = CirculantMatrix::new(muts.clone());
        prop_assert!(close(&grid.matvec(&x), &grid.matvec_naive(&x)));
        // ...and so must pruning a block to zero (the skip-index case).
        *grid.block_mut(0, 1) = CirculantMatrix::zeros(8);
        prop_assert!(close(&grid.matvec(&x), &grid.matvec_naive(&x)));
    }

    /// Lane grouping and worker count never change results: on a randomly
    /// pruned grid, `matmat` on each sub-batch of a random split of the
    /// batch, `matmat` of the whole batch at the default worker count and
    /// under `serial_scope`, and the per-sample uncached oracle agree bit
    /// for bit.
    #[test]
    fn worker_count_is_bit_exact(
        log_bs in 2usize..=4,
        rb in 1usize..=3,
        cb in 1usize..=3,
        vals in proptest::collection::vec(-2.0_f64..2.0, 144),
        live in proptest::collection::vec(any::<bool>(), 9),
        n in 0usize..=11,
        x_vals in proptest::collection::vec(-2.0_f64..2.0, 64),
        cuts in proptest::collection::vec(any::<bool>(), 11),
    ) {
        let bs = 1 << log_bs;
        let mut it = vals.iter().copied().cycle();
        let blocks = (0..rb * cb)
            .map(|b| {
                let v: Vec<f64> = (0..bs).map(|_| it.next().expect("cycle")).collect();
                if live[b] { CirculantMatrix::new(v) } else { CirculantMatrix::zeros(bs) }
            })
            .collect();
        let grid = BlockCirculant::from_blocks(bs, rb, cb, blocks);
        let (rows, cols) = grid.dense_dims();
        let xs: Vec<f64> = x_vals.iter().copied().cycle().take(n * cols).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let oracle: Vec<f64> = xs
            .chunks(cols)
            .flat_map(|x| grid.matvec_uncached(x))
            .collect();
        prop_assert_eq!(oracle.len(), n * rows);
        let mut grouped = Vec::with_capacity(n * rows);
        let mut lo = 0;
        for s in 1..=n {
            if s == n || cuts[s] {
                grouped.extend(grid.matmat(&xs[lo * cols..s * cols], s - lo));
                lo = s;
            }
        }
        prop_assert_eq!(bits(&grouped), bits(&oracle));
        prop_assert_eq!(bits(&grid.matmat(&xs, n)), bits(&oracle));
        let serial = parallel::serial_scope(|| grid.matmat(&xs, n));
        prop_assert_eq!(bits(&serial), bits(&oracle));
    }

    /// Deployment packages round-trip and execute identically to the
    /// weights they were built from.
    #[test]
    fn deployment_round_trip_executes_identically(
        vals in proptest::collection::vec(-0.5_f32..0.5, 24),
        x_raw in proptest::collection::vec(-100i16..100, 8 * 9),
    ) {
        let q = QFormat::q8();
        let conv = conv_from_values(8, 1, 1, 3, &vals);
        let direct = FxWeights::from_folded(q, &conv);
        let pkg = DeployedNetwork {
            frac_bits: 8,
            layers: vec![("l".to_string(), direct.clone())],
        };
        let decoded = DeployedNetwork::decode(&pkg.encode()).expect("round trip");
        prop_assert_eq!(&decoded, &pkg);
        let rebuilt = &decoded.layers[0].1;
        let y1 = conv_forward_fx(q, &direct, &x_raw, 3, 3);
        let y2 = conv_forward_fx(q, rebuilt, &x_raw, 3, 3);
        prop_assert_eq!(y1, y2);
    }

    /// Tile-by-tile fixed-point execution is bit-identical to whole-layer
    /// execution for every tile geometry.
    #[test]
    fn tiled_execution_bit_exact(
        vals in proptest::collection::vec(-0.5_f32..0.5, 16),
        x_raw in proptest::collection::vec(-100i16..100, 8 * 30),
        tile_h in 1usize..7,
        tile_w in 1usize..7,
    ) {
        let q = QFormat::q8();
        let conv = conv_from_values(8, 1, 1, 3, &vals);
        let weights = FxWeights::from_folded(q, &conv);
        let (h, w) = (5, 6);
        let whole = conv_forward_fx(q, &weights, &x_raw, h, w);
        let tiled = tiled_conv_forward_fx(q, &weights, &x_raw, h, w, tile_h, tile_w);
        prop_assert_eq!(whole, tiled);
    }

    /// Fixed-point quantization round-trip error is bounded by half a
    /// resolution step inside the representable range, and saturates to
    /// the range bounds outside it.
    #[test]
    fn qformat_round_trip(v in -100.0_f64..100.0, frac in 4u32..12) {
        let q = QFormat::new(frac);
        let back = q.to_f64(q.from_f64(v));
        let clamped = v.clamp(q.to_f64(i16::MIN), q.max_value());
        prop_assert!((back - clamped).abs() <= q.resolution() / 2.0 + 1e-12);
    }
}
