//! Per-layer accelerator analysis: where ResNet-18's cycles go, which
//! pipeline station bottlenecks each layer, and how α = 0.5 pruning shifts
//! the bottlenecks — the layer-level story behind Table III's single FPS
//! number, produced by the discrete-event pipeline simulation.
//!
//! Beside the model, a measured section: the wall time of the float BCM
//! conv inference forward (the `f32` instance of the one conv schedule)
//! on the three square `vgg_tiny` conv shapes as live blocks fall, next to
//! the dense im2col forward of the same shape — the CPU counterpart of the
//! paper's Fig. 10 claim that time is linear in live blocks.

use crate::table::Table;
use hwsim::dataflow::{resnet18_layers, DataflowConfig, LayerShape};
use hwsim::timeline::simulate_pipeline;
use nn::layers::{BcmConv2d, BcmLayer, Conv2d, Layer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpbcm::SkipIndexBuffer;
use std::time::Instant;
use tensor::{init, parallel, Tensor};

/// One layer's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer shape description.
    pub shape: String,
    /// Tile count.
    pub tiles: u64,
    /// Event-simulated makespan in cycles.
    pub cycles: u64,
    /// Bottleneck station name.
    pub bottleneck: &'static str,
    /// Bottleneck station utilization.
    pub utilization: f64,
}

/// Results of the per-layer analysis.
#[derive(Debug, Clone)]
pub struct LayersResult {
    /// Pruning ratio applied.
    pub alpha: f64,
    /// Per-layer rows (BCM layers only; the dense stem is reported in
    /// total only).
    pub rows: Vec<LayerRow>,
    /// Whole-network cycles (all layers, analytic model).
    pub total_cycles: u64,
}

const STATIONS: [&str; 4] = ["dram", "fft", "emac", "ifft"];

fn analyse(cfg: &DataflowConfig, layer: &LayerShape, alpha: f64) -> Option<LayerRow> {
    if !layer.bcm_compatible() {
        return None;
    }
    let blocks = layer.k
        * layer.k
        * (cfg.tile_c_in.min(layer.c_in) / layer.bs)
        * (cfg.tile_c_out.min(layer.c_out) / layer.bs);
    let pruned = ((blocks as f64) * alpha).floor() as usize;
    let bits: Vec<bool> = (0..blocks).map(|i| i >= pruned).collect();
    let skip = SkipIndexBuffer::from_bools(&bits);
    let (tile, n) = cfg.tile_costs(layer, &skip);
    let run = simulate_pipeline(&vec![tile; n as usize], cfg.double_buffering);
    let station = run.bottleneck_station();
    Some(LayerRow {
        shape: format!(
            "{}x{} {}x{}x{}",
            layer.k, layer.k, layer.c_in, layer.h_out, layer.w_out
        ),
        tiles: n,
        cycles: run.makespan,
        bottleneck: STATIONS[station],
        utilization: run.utilization()[station],
    })
}

/// Analyses every ResNet-18 layer at the given pruning ratio.
pub fn run(alpha: f64) -> LayersResult {
    let cfg = DataflowConfig::pynq_z2();
    let layers = resnet18_layers(8);
    let rows = layers
        .iter()
        .filter_map(|l| analyse(&cfg, l, alpha))
        .collect();
    LayersResult {
        alpha,
        rows,
        total_cycles: cfg.simulate_network(&layers, alpha).total_cycles,
    }
}

/// Prints the per-layer table.
pub fn print(r: &LayersResult) {
    println!(
        "== ResNet-18 per-layer pipeline analysis (α = {}) ==",
        r.alpha
    );
    let mut t = Table::new(&[
        "layer (k c_in h w)",
        "tiles",
        "cycles",
        "bottleneck",
        "util",
    ]);
    for row in &r.rows {
        t.row_owned(vec![
            row.shape.clone(),
            row.tiles.to_string(),
            row.cycles.to_string(),
            row.bottleneck.to_string(),
            format!("{:.2}", row.utilization),
        ]);
    }
    t.print();
    println!(
        "whole network (incl. dense stem): {} cycles/frame",
        r.total_cycles
    );
}

/// A measured time: median and interquartile range, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// One measured row of the float conv section.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatRow {
    /// Channels (`c → c`, 3×3, BS 8).
    pub channels: usize,
    /// Square map side.
    pub side: usize,
    /// Batch width.
    pub batch: usize,
    /// Fraction of blocks left live.
    pub live: f64,
    /// The BCM conv's inference forward.
    pub spectral: Timing,
    /// The dense im2col inference forward of the same shape.
    pub dense: Timing,
}

/// The square 3×3 conv shapes of `vgg_tiny` (`channels`, map side).
pub const VGG_TINY_SQUARE_CONVS: [(usize, usize); 3] = [(32, 16), (64, 8), (128, 4)];

/// Live fractions of the float section.
pub const LIVE_FRACTIONS: [f64; 4] = [1.0, 0.5, 0.25, 0.125];

/// Runs `f` once to warm up, then `reps` timed times.
fn time_ms(reps: usize, mut f: impl FnMut()) -> Timing {
    f();
    let mut ms: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
    Timing {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
    }
}

/// Measures the float BCM conv inference forward of every shape in
/// [`VGG_TINY_SQUARE_CONVS`] at every fraction in [`LIVE_FRACTIONS`]
/// (least important blocks eliminated first) and batch widths 1 and 8,
/// `reps` timed calls each, beside the dense im2col forward.
pub fn measure_float(reps: usize) -> Vec<FloatRow> {
    let mut rng = StdRng::seed_from_u64(41);
    let mut rows = Vec::new();
    for (c, side) in VGG_TINY_SQUARE_CONVS {
        for batch in [1, 8] {
            let x: Tensor<f32> = init::gaussian(&mut rng, &[batch, c, side, side], 0.0, 1.0);
            let mut dense_conv = Conv2d::new(&mut rng, c, c, 3, 1, 1);
            let dense = time_ms(reps, || {
                std::hint::black_box(dense_conv.forward(&x, false));
            });
            let base = BcmConv2d::new(&mut rng, c, c, 3, 1, 1, 8);
            let importances = base.importances();
            let mut order: Vec<usize> = (0..importances.len()).collect();
            order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
            for live in LIVE_FRACTIONS {
                let mut conv = base.clone();
                let cut = order.len() - (order.len() as f64 * live).round() as usize;
                conv.eliminate(&order[..cut]);
                let spectral = time_ms(reps, || {
                    std::hint::black_box(conv.forward(&x, false));
                });
                rows.push(FloatRow {
                    channels: c,
                    side,
                    batch,
                    live,
                    spectral,
                    dense,
                });
            }
        }
    }
    rows
}

/// Prints the measured float conv section.
pub fn print_float(rows: &[FloatRow]) {
    println!(
        "== vgg_tiny BCM conv inference forward, measured wall time \
         (3x3, BS 8, {} workers; ms, median [q1, q3]) ==",
        parallel::max_workers()
    );
    let fmt = |t: &Timing| format!("{:.3} [{:.3}, {:.3}]", t.median, t.q1, t.q3);
    let mut t = Table::new(&["layer (c h w)", "batch", "live", "spectral", "dense im2col"]);
    for r in rows {
        t.row_owned(vec![
            format!("{0}x{1}x{1}", r.channels, r.side),
            format!("b{}", r.batch),
            format!("{}", r.live),
            fmt(&r.spectral),
            fmt(&r.dense),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_shifts_some_bottlenecks_off_emac() {
        let dense = run(0.0);
        let pruned = run(0.9);
        let emac_bound =
            |r: &LayersResult| r.rows.iter().filter(|x| x.bottleneck == "emac").count();
        assert!(emac_bound(&dense) > 0);
        assert!(
            emac_bound(&pruned) < emac_bound(&dense),
            "pruning should relieve eMAC-bound layers"
        );
        assert!(pruned.total_cycles < dense.total_cycles);
    }

    #[test]
    fn float_rows_cover_every_shape_batch_and_fraction() {
        let rows = measure_float(1);
        assert_eq!(rows.len(), 3 * 2 * 4);
        assert!(rows
            .iter()
            .all(|r| r.spectral.median > 0.0 && r.dense.median > 0.0));
        assert!(rows.iter().all(|r| r.spectral.q1 <= r.spectral.q3));
    }

    #[test]
    fn rows_cover_all_bcm_layers() {
        let r = run(0.5);
        // ResNet-18 shapes: 16 3x3 convs + 3 1x1 downsamples are BCM; the
        // 7x7 stem is dense.
        assert_eq!(r.rows.len(), 19);
        assert!(r.rows.iter().all(|row| row.cycles > 0));
        assert!(r
            .rows
            .iter()
            .all(|row| (0.0..=1.0).contains(&row.utilization)));
    }
}
