//! `float_swap`: float `infer` requests to a half-pruned BCM `vgg_tiny`
//! (BS 8, 3×16×16 input) while the generator thread publishes a new
//! version on a fixed period — writes beside reads. The work lands on the
//! float path (`Mutex<Network>`, `nn` layers, `circulant`, `fft`) and on
//! the registry's hot-swap path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nn::models::{vgg_tiny, ConvMode};
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{encode_request, encode_response, Payload, Request, Response};
use serve::{Model, Registry};
use tensor::Tensor;

use super::serving::{self, frame, Plan};
use super::{Ctx, Outcome};
use crate::gen::{Traffic, Verdict};
use crate::stats::Summary;

/// Registry name of the served model.
pub const MODEL: &str = "swap";

/// Block size of the BCM convolutions.
pub const BLOCK: usize = 8;

/// Per-sample input shape.
pub const INPUT_DIMS: [usize; 3] = [3, 16, 16];

/// Distinct request inputs.
const INPUTS: usize = 32;

/// A new version is published this often.
pub const PUBLISH_PERIOD: Duration = Duration::from_millis(250);

/// Load constants. The open-loop rate is about a tenth of the closed-loop
/// capacity on the two-core reference host (300-400 ops/s: a batch of
/// eight takes about 38 ms on one core, and the network mutex serializes
/// the two shards).
pub const PLAN: Plan = Plan {
    window: 4,
    open_rate: 30.0,
    latency_limit_us: 200_000.0,
};

/// The half-pruned BCM `vgg_tiny` of `seed`: the least important half of
/// its blocks eliminated.
pub fn network(seed: u64) -> (Network, CheckpointMeta) {
    let mut net = vgg_tiny(ConvMode::Bcm { block_size: BLOCK }, 10, seed);
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    net.bcm_eliminate(&order[..importances.len() / 2]);
    let meta = CheckpointMeta {
        input_dims: INPUT_DIMS.to_vec(),
        frac_bits: 8,
    };
    (net, meta)
}

/// Seeded float samples in `[-1, 1)`.
pub fn inputs(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let len: usize = INPUT_DIMS.iter().product();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf3);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// The two alternating versions (`seed` and `seed + 1`).
fn versions(seed: u64) -> [(Network, CheckpointMeta); 2] {
    [network(seed), network(seed + 1)]
}

/// Infer traffic with periodic hot swaps, and its output check.
pub struct SwapTraffic {
    requests: Vec<Vec<u8>>,
    /// `expected[v][i]`: reply to input `i` under version parity `v`.
    expected: [Vec<Vec<u8>>; 2],
    /// Prebuilt models to publish, alternately version 1 and version 0.
    pending: Vec<Model>,
    registry: Option<Arc<Registry>>,
    published: u64,
    next_publish: Instant,
    /// Wall time of each `Registry::publish`, µs.
    publish_us: Vec<f64>,
    order: Vec<usize>,
    cursor: usize,
}

impl SwapTraffic {
    /// Inputs from `seed`; expected replies from the offline forward of
    /// each version; `publishes` models prebuilt for the hot swaps.
    pub fn new(seed: u64, nets: &[(Network, CheckpointMeta); 2], publishes: usize) -> SwapTraffic {
        let xs = inputs(seed, INPUTS);
        let mut dims = vec![1usize];
        dims.extend_from_slice(&INPUT_DIMS);
        let expected = [0, 1].map(|v| {
            let mut net = nets[v].0.clone();
            xs.iter()
                .map(|x| {
                    let y = net.forward(&Tensor::from_vec(x.clone(), &dims), false);
                    encode_response(&Response::Output(Payload::F32(y.as_slice().to_vec())))
                })
                .collect()
        });
        let requests = xs
            .into_iter()
            .map(|x| {
                frame(&encode_request(&Request::Infer {
                    model: MODEL.into(),
                    input: Payload::F32(x),
                }))
            })
            .collect();
        // Publish k (from 0) installs version (k + 1) mod 2; popped from
        // the back.
        let mut pending: Vec<Model> = (0..publishes)
            .map(|k| {
                let (net, meta) = &nets[(k + 1) % 2];
                Model::from_network(MODEL, net.clone(), meta.clone())
            })
            .collect();
        pending.reverse();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e);
        SwapTraffic {
            requests,
            expected,
            pending,
            registry: None,
            published: 0,
            next_publish: Instant::now(),
            publish_us: Vec::new(),
            order: (0..4096).map(|_| rng.gen_range(0..INPUTS)).collect(),
            cursor: 0,
        }
    }
}

impl Traffic for SwapTraffic {
    fn request(&mut self, _conn: usize, _tick: u64, out: &mut Vec<u8>) -> Option<u64> {
        let i = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        out.extend_from_slice(&self.requests[i]);
        Some(i as u64 | self.published << 32)
    }

    fn on_reply(&mut self, tag: u64, body: &[u8]) -> Verdict {
        let i = (tag & 0xffff_ffff) as usize;
        let sent_under = tag >> 32;
        // The server resolves the version at admission, after the send:
        // the reply may come from the version current at send time or any
        // published since, and from no other.
        let ok = (sent_under..=self.published.max(sent_under))
            .any(|v| body == self.expected[(v % 2) as usize][i]);
        if ok {
            Verdict::Op
        } else {
            Verdict::Failed(serving::describe_mismatch("float infer", body))
        }
    }

    fn tick(&mut self, now: Instant) -> Option<Instant> {
        let registry = self.registry.as_ref()?;
        if now >= self.next_publish {
            let model = self.pending.pop()?;
            let t0 = Instant::now();
            registry.publish(model);
            self.publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
            self.published += 1;
            self.next_publish += PUBLISH_PERIOD;
        }
        (!self.pending.is_empty()).then_some(self.next_publish)
    }

    fn reset(&mut self, registry: &Arc<Registry>) {
        self.registry = Some(Arc::clone(registry));
        self.published = 0;
        self.next_publish = Instant::now() + PUBLISH_PERIOD;
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let nets = versions(ctx.seed);
    let publishes = (ctx.seconds / PUBLISH_PERIOD.as_secs_f64()).ceil() as usize + 2;
    let mut traffic = SwapTraffic::new(ctx.seed, &nets, publishes);
    let [(net, meta), _] = &nets;
    let out = serving::run(
        ctx,
        &PLAN,
        &mut || Model::from_network(MODEL, net.clone(), meta.clone()),
        &mut traffic,
    );
    if let Some(s) = Summary::of(&traffic.publish_us) {
        ctx.note(format!("publish under load, us: {s}"));
    }
    ctx.note(format!(
        "hot swap: {} versions published, one per {} ms",
        traffic.published,
        PUBLISH_PERIOD.as_millis()
    ));
    out
}
