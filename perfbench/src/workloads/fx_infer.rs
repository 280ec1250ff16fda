//! `fx_infer`: single-sample fixed-point `infer` requests to the highly
//! pruned demo FC model (3×512, BS 16, one live block in eight), on two
//! pipelined connections. The work lands on the reactor, the protocol,
//! the batcher and the hwsim lane kernels; the session and float paths
//! stay idle.

use bench::experiments::serve::{demo_model, DEMO_INPUT_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{encode_request, encode_response, Payload, Request, Response};
use serve::Model;

use super::serving::{self, frame, Plan};
use super::{Ctx, Outcome};
use crate::gen::{Traffic, Verdict};

/// Registry name of the served model.
pub const MODEL: &str = "demo";

/// Distinct request inputs; requests cycle through them in a seeded order.
const INPUTS: usize = 64;

/// Load constants, fixed so a slower build is offered the same load. The
/// open-loop rate is about a tenth of the closed-loop capacity on the
/// two-core reference host (11k-16k ops/s), so the open loop measures
/// latency at light load, where the batcher's 2 ms batch timeout and the
/// lane kernels set it, not queueing. The window keeps every shard's
/// queue below its admission cap of 64.
pub const PLAN: Plan = Plan {
    window: 32,
    open_rate: 1000.0,
    latency_limit_us: 50_000.0,
};

/// Seeded fx samples in `[-1, 1)` at the model's Q-format (Q8).
pub fn inputs(seed: u64, n: usize) -> Vec<Vec<i16>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1);
    (0..n)
        .map(|_| {
            (0..DEMO_INPUT_LEN)
                .map(|_| rng.gen_range(-256i16..256))
                .collect()
        })
        .collect()
}

/// Request stream and output check.
pub struct FxTraffic {
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    order: Vec<usize>,
    cursor: usize,
}

impl FxTraffic {
    /// Inputs from `seed`; expected replies from the offline
    /// [`serve::FxModel::forward`] of `model`.
    pub fn new(seed: u64, model: &Model) -> FxTraffic {
        let fx = model.fx().expect("demo model has an fx mirror");
        let xs = inputs(seed, INPUTS);
        let expected = xs
            .iter()
            .map(|x| encode_response(&Response::Output(Payload::Fx(fx.forward(x)))))
            .collect();
        let requests = xs
            .into_iter()
            .map(|x| {
                frame(&encode_request(&Request::Infer {
                    model: MODEL.into(),
                    input: Payload::Fx(x),
                }))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0d);
        let order = (0..4096).map(|_| rng.gen_range(0..INPUTS)).collect();
        FxTraffic {
            requests,
            expected,
            order,
            cursor: 0,
        }
    }
}

impl Traffic for FxTraffic {
    fn request(&mut self, _conn: usize, _tick: u64, out: &mut Vec<u8>) -> Option<u64> {
        let i = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        out.extend_from_slice(&self.requests[i]);
        Some(i as u64)
    }

    fn on_reply(&mut self, tag: u64, body: &[u8]) -> Verdict {
        if body == self.expected[tag as usize] {
            Verdict::Op
        } else {
            Verdict::Failed(serving::describe_mismatch("fx infer", body))
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let (net, meta) = demo_model(ctx.seed);
    let reference = Model::from_network(MODEL, net.clone(), meta.clone());
    let mut traffic = FxTraffic::new(ctx.seed, &reference);
    drop(reference);
    serving::run(
        ctx,
        &PLAN,
        &mut || Model::from_network(MODEL, net.clone(), meta.clone()),
        &mut traffic,
    )
}
