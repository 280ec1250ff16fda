//! Layer composition: sequential networks and residual blocks.

use crate::layers::{BatchNorm2d, BcmLayer, Layer, Param, NO_TRAINING_FORWARD};
use crate::optim::SgdUpdate;
use tensor::Tensor;

/// A sequential stack of layers, with the BCM introspection Algorithm 1
/// needs (global block indexing across all block-circulant layers).
#[derive(Clone)]
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({}, {} layers, {} params)",
            self.name,
            self.layers.len(),
            self.param_count()
        )
    }
}

impl Network {
    /// Builds a network from layers.
    pub fn new(name: &str, layers: Vec<Box<dyn Layer>>) -> Self {
        Network {
            name: name.to_string(),
            layers,
        }
    }

    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable layer access.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Forward through every layer.
    ///
    /// When telemetry capture is on, each layer's wall latency lands in the
    /// dynamic histogram `nn.layer.forward_ns.<layer-name>`.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut cur = x.clone();
        if telemetry::enabled() {
            for layer in &mut self.layers {
                let start = std::time::Instant::now();
                cur = layer.forward(&cur, train);
                let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                telemetry::record_histogram(&format!("nn.layer.forward_ns.{}", layer.name()), ns);
            }
        } else {
            for layer in &mut self.layers {
                cur = layer.forward(&cur, train);
            }
        }
        cur
    }

    /// Backward through every layer in reverse.
    ///
    /// When telemetry capture is on, each layer's wall latency lands in the
    /// dynamic histogram `nn.layer.backward_ns.<layer-name>`.
    pub fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let mut cur = grad.clone();
        if telemetry::enabled() {
            for layer in self.layers.iter_mut().rev() {
                let start = std::time::Instant::now();
                cur = layer.backward(&cur);
                let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                telemetry::record_histogram(&format!("nn.layer.backward_ns.{}", layer.name()), ns);
            }
        } else {
            for layer in self.layers.iter_mut().rev() {
                cur = layer.backward(&cur);
            }
        }
        cur
    }

    /// One SGD step on every layer.
    pub fn step(&mut self, update: &SgdUpdate) {
        for layer in &mut self.layers {
            layer.step(update);
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Borrows of every trainable parameter in network order, recursing
    /// into composites. Used by training telemetry (gradient norms, update
    /// ratios) — never mutates.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable borrows of every trainable parameter, in the same stable
    /// order as [`Network::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Clears every accumulated parameter gradient.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Copies parameter *values* from `src` (a network of identical
    /// architecture) and clears this network's gradients — how a
    /// data-parallel replica refreshes from the master before each shard
    /// pass. Momentum buffers are untouched: replicas never call
    /// [`Network::step`], so optimizer state lives only on the master.
    ///
    /// Cache contract: the copy goes through each layer's
    /// [`Layer::params_mut`], where every BCM layer with one defining
    /// vector per block drops its cached dense expansion and weight
    /// spectra (hadaBCM re-expands on every forward). The next forward
    /// therefore uses the copied weights, bit-identical to a fresh clone
    /// of `src`. Skip indices are not copied: replicas must share the
    /// master's pruning state (clone them after any elimination).
    ///
    /// # Panics
    ///
    /// Panics if the parameter lists differ in length or any shape differs.
    pub fn sync_params_from(&mut self, src: &Network) {
        let src_params = src.params();
        let mut dst_params = self.params_mut();
        assert_eq!(
            src_params.len(),
            dst_params.len(),
            "parameter list mismatch"
        );
        for (dst, src) in dst_params.iter_mut().zip(src_params) {
            dst.value
                .as_mut_slice()
                .copy_from_slice(src.value.as_slice());
            dst.zero_grad();
        }
    }

    /// Accumulates `replica`'s parameter gradients into this network's
    /// (`grad += replica.grad`), parameter-wise in stable order. The
    /// data-parallel trainer calls this once per shard, always in shard
    /// order, so the reduction order never depends on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if the parameter lists differ in length or any shape differs.
    pub fn reduce_grads_from(&mut self, replica: &Network) {
        let src_params = replica.params();
        let mut dst_params = self.params_mut();
        assert_eq!(
            src_params.len(),
            dst_params.len(),
            "parameter list mismatch"
        );
        for (dst, src) in dst_params.iter_mut().zip(src_params) {
            dst.grad += &src.grad;
        }
    }

    /// All batch-norm layers in network order, recursing into composites
    /// like [`ResidualBlock`].
    pub fn bn_layers(&self) -> Vec<&BatchNorm2d> {
        self.layers.iter().flat_map(|l| l.bn_layers()).collect()
    }

    /// Mutable variant of [`Network::bn_layers`].
    pub fn bn_layers_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.bn_layers_mut())
            .collect()
    }

    /// All block-circulant layers in network order, recursing into
    /// composites like [`ResidualBlock`].
    pub fn bcm_layers(&self) -> Vec<&dyn BcmLayer> {
        self.layers.iter().flat_map(|l| l.bcm_layers()).collect()
    }

    /// Global BCM block count across all block-circulant layers (including
    /// those nested in residual blocks).
    pub fn bcm_block_count(&self) -> usize {
        self.bcm_layers().iter().map(|b| b.block_count()).sum()
    }

    /// Global importance list across all block-circulant layers, in layer
    /// order — Algorithm 1's `norm_list`.
    pub fn bcm_importances(&self) -> Vec<f64> {
        self.bcm_layers()
            .iter()
            .flat_map(|b| b.importances())
            .collect()
    }

    /// Eliminates BCM blocks by global index.
    ///
    /// # Panics
    ///
    /// Panics if any index exceeds [`Network::bcm_block_count`].
    pub fn bcm_eliminate(&mut self, global_indices: &[usize]) {
        let counts: Vec<usize> = self.bcm_layers().iter().map(|b| b.block_count()).collect();
        let total: usize = counts.iter().sum();
        // Group indices per bcm-layer ordinal.
        let mut per_layer: Vec<Vec<usize>> = vec![Vec::new(); counts.len()];
        for &g in global_indices {
            assert!(g < total, "BCM index {g} out of range ({total})");
            let mut rem = g;
            for (li, &c) in counts.iter().enumerate() {
                if rem < c {
                    per_layer[li].push(rem);
                    break;
                }
                rem -= c;
            }
        }
        let mut bcm_layers: Vec<&mut dyn BcmLayer> = self
            .layers
            .iter_mut()
            .flat_map(|l| l.bcm_layers_mut())
            .collect();
        for (ordinal, indices) in per_layer.iter().enumerate() {
            if !indices.is_empty() {
                bcm_layers[ordinal].eliminate(indices);
            }
        }
    }

    /// Folded inference parameter count: every BCM layer's weights count
    /// `live·BS`, every other parameter (biases included) as trained.
    pub fn folded_param_count(&self) -> usize {
        self.count_with_bcm_weights(|b| b.folded_param_count())
    }

    /// Dense-equivalent parameter count: every BCM layer's weights count
    /// as their dense expansion, every other parameter as trained.
    pub fn dense_equiv_param_count(&self) -> usize {
        self.count_with_bcm_weights(|b| b.dense_param_count())
    }

    /// The trainable count with each BCM layer's trainable weights swapped
    /// for `weights(layer)`; composites are covered through
    /// [`Network::bcm_layers`].
    fn count_with_bcm_weights(&self, weights: impl Fn(&dyn BcmLayer) -> usize) -> usize {
        self.bcm_layers()
            .into_iter()
            .fold(self.param_count(), |n, b| {
                n - b.trained_param_count() + weights(b)
            })
    }

    /// Global block sparsity across BCM layers (0 when there are none).
    pub fn bcm_sparsity(&self) -> f64 {
        let total = self.bcm_block_count();
        if total == 0 {
            return 0.0;
        }
        let live: usize = self.bcm_layers().iter().map(|b| b.live_blocks()).sum();
        1.0 - live as f64 / total as f64
    }
}

/// A basic residual block: `out = relu(main(x) + shortcut(x))`.
///
/// The main path is any layer stack; the shortcut is identity when `None`,
/// or a projection stack (1×1 conv + BN) when channel/stride changes.
#[derive(Clone)]
pub struct ResidualBlock {
    name: String,
    main: Vec<Box<dyn Layer>>,
    shortcut: Option<Vec<Box<dyn Layer>>>,
    relu_mask: Option<Vec<bool>>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResidualBlock({}, main={} layers, projection={})",
            self.name,
            self.main.len(),
            self.shortcut.is_some()
        )
    }
}

impl ResidualBlock {
    /// Builds a residual block.
    pub fn new(
        name: &str,
        main: Vec<Box<dyn Layer>>,
        shortcut: Option<Vec<Box<dyn Layer>>>,
    ) -> Self {
        ResidualBlock {
            name: name.to_string(),
            main,
            shortcut,
            relu_mask: None,
        }
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut main = x.clone();
        for layer in &mut self.main {
            main = layer.forward(&main, train);
        }
        let mut short = x.clone();
        if let Some(sc) = &mut self.shortcut {
            for layer in sc {
                short = layer.forward(&short, train);
            }
        }
        let sum = &main + &short;
        self.relu_mask = train.then(|| sum.as_slice().iter().map(|&v| v > 0.0).collect());
        sum.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor<f32>) -> Tensor<f32> {
        let mask = self.relu_mask.as_ref().expect(NO_TRAINING_FORWARD);
        let mut g = grad.clone();
        for (v, &m) in g.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        let mut main_grad = g.clone();
        for layer in self.main.iter_mut().rev() {
            main_grad = layer.backward(&main_grad);
        }
        let mut short_grad = g;
        if let Some(sc) = &mut self.shortcut {
            for layer in sc.iter_mut().rev() {
                short_grad = layer.backward(&short_grad);
            }
        }
        &main_grad + &short_grad
    }

    fn step(&mut self, update: &SgdUpdate) {
        for layer in &mut self.main {
            layer.step(update);
        }
        if let Some(sc) = &mut self.shortcut {
            for layer in sc {
                layer.step(update);
            }
        }
    }

    fn param_count(&self) -> usize {
        let main: usize = self.main.iter().map(|l| l.param_count()).sum();
        let short: usize = self
            .shortcut
            .iter()
            .flat_map(|sc| sc.iter())
            .map(|l| l.param_count())
            .sum();
        main + short
    }

    fn params(&self) -> Vec<&Param> {
        self.main
            .iter()
            .chain(self.shortcut.iter().flatten())
            .flat_map(|l| l.params())
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.main
            .iter_mut()
            .chain(self.shortcut.iter_mut().flatten())
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn bn_layers(&self) -> Vec<&BatchNorm2d> {
        self.main
            .iter()
            .chain(self.shortcut.iter().flatten())
            .flat_map(|l| l.bn_layers())
            .collect()
    }

    fn bn_layers_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        self.main
            .iter_mut()
            .chain(self.shortcut.iter_mut().flatten())
            .flat_map(|l| l.bn_layers_mut())
            .collect()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn bcm_layers(&self) -> Vec<&dyn BcmLayer> {
        self.main
            .iter()
            .chain(self.shortcut.iter().flatten())
            .flat_map(|l| l.bcm_layers())
            .collect()
    }

    fn bcm_layers_mut(&mut self) -> Vec<&mut dyn BcmLayer> {
        self.main
            .iter_mut()
            .chain(self.shortcut.iter_mut().flatten())
            .flat_map(|l| l.bcm_layers_mut())
            .collect()
    }

    /// Snapshots recursively; `None` if any sublayer is unsupported.
    fn snapshot(&self) -> Option<crate::layers::checkpoint::LayerSnapshot> {
        let main = self
            .main
            .iter()
            .map(|l| l.snapshot())
            .collect::<Option<Vec<_>>>()?;
        let shortcut = match &self.shortcut {
            None => None,
            Some(sc) => Some(
                sc.iter()
                    .map(|l| l.snapshot())
                    .collect::<Option<Vec<_>>>()?,
            ),
        };
        Some(crate::layers::checkpoint::LayerSnapshot::Residual {
            name: self.name.clone(),
            main,
            shortcut,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, BcmConv2d, Conv2d, Flatten, Linear, ReLU};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            "tiny",
            vec![
                Box::new(Conv2d::new(&mut rng, 1, 4, 3, 1, 1)),
                Box::new(BatchNorm2d::new(4)),
                Box::new(ReLU::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(&mut rng, 4 * 4 * 4, 3)),
            ],
        )
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_net(0);
        let x = Tensor::<f32>::ones(&[2, 1, 4, 4]);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3]);
        let gin = net.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(gin.dims(), &[2, 1, 4, 4]);
        assert!(net.param_count() > 0);
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        use crate::loss::softmax_cross_entropy;
        let mut net = tiny_net(1);
        let mut rng = StdRng::seed_from_u64(10);
        let x: Tensor<f32> = init::gaussian(&mut rng, &[6, 1, 4, 4], 0.0, 1.0);
        let targets = [0usize, 1, 2, 0, 1, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..60 {
            let logits = net.forward(&x, true);
            let out = softmax_cross_entropy(&logits, &targets);
            if it == 0 {
                first = out.loss;
            }
            last = out.loss;
            net.backward(&out.grad);
            net.step(&SgdUpdate {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            });
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn bcm_global_indexing() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(
            "bcm",
            vec![
                Box::new(BcmConv2d::new(&mut rng, 4, 4, 1, 1, 0, 4)), // 1 block
                Box::new(ReLU::new()),
                Box::new(BcmConv2d::new(&mut rng, 4, 8, 1, 1, 0, 4)), // 2 blocks
            ],
        );
        assert_eq!(net.bcm_block_count(), 3);
        assert_eq!(net.bcm_importances().len(), 3);
        net.bcm_eliminate(&[1]);
        // Block 1 is local block 0 of the second layer.
        let live: Vec<usize> = net
            .layers()
            .iter()
            .filter_map(|l| l.bcm())
            .map(|b| b.live_blocks())
            .collect();
        assert_eq!(live, vec![1, 1]);
        assert!((net.bcm_sparsity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn residual_block_gradient_flows_both_paths() {
        let mut rng = StdRng::seed_from_u64(3);
        // Identity-shortcut block over 2 channels.
        let mut block = ResidualBlock::new(
            "res",
            vec![
                Box::new(Conv2d::new(&mut rng, 2, 2, 3, 1, 1)),
                Box::new(BatchNorm2d::new(2)),
            ],
            None,
        );
        let x: Tensor<f32> = init::gaussian(&mut rng, &[1, 2, 4, 4], 0.5, 1.0);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), x.dims());
        let g = block.backward(&Tensor::ones(&[1, 2, 4, 4]));
        assert_eq!(g.dims(), x.dims());
        // Identity path guarantees some gradient reaches the input even
        // where the conv contributes nothing.
        assert!(g.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn residual_block_with_projection_changes_channels() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut block = ResidualBlock::new(
            "res-proj",
            vec![
                Box::new(Conv2d::new(&mut rng, 2, 4, 3, 2, 1)),
                Box::new(BatchNorm2d::new(4)),
            ],
            Some(vec![
                Box::new(Conv2d::new(&mut rng, 2, 4, 1, 2, 0)),
                Box::new(BatchNorm2d::new(4)),
            ]),
        );
        let x: Tensor<f32> = init::gaussian(&mut rng, &[2, 2, 8, 8], 0.0, 1.0);
        let y = block.forward(&x, true);
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
        let g = block.backward(&Tensor::ones(&[2, 4, 4, 4]));
        assert_eq!(g.dims(), &[2, 2, 8, 8]);
        assert!(block.param_count() > 0);
    }
}
