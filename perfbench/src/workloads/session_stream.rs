//! `session_stream`: 64 streaming sessions of the half-pruned BCM-LSTM
//! (half float, half fixed-point) multiplexed on two connections. Each
//! session sends one frame per fixed period, open loop, the way speech
//! frames arrive in C-LSTM/E-RNN serving; sessions open, run a seeded
//! number of steps, close, and are replaced, so gang membership stays
//! ragged. The work lands on the shard's session gang flush, `nn::seq`,
//! `serve::session` and `hwsim::recurrent`; the batcher stays idle.

use std::sync::Arc;

use bench::experiments::serve::{seq_demo_model, SEQ_DEMO_INPUT_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{
    decode_session_response, encode_request, encode_response, Payload, Request, Response,
};
use serve::{Model, Registry, SeqModel};

use super::serving::{self, frame, Plan};
use super::{Ctx, Outcome};
use crate::gen::{Traffic, Verdict, CONNS};

/// Registry name of the served model.
pub const MODEL: &str = "seq";

/// Concurrent session slots; slot `s` lives on connection `s mod 2`.
pub const SLOTS: usize = 64;

/// Each session sends one frame per this many milliseconds.
pub const FRAME_PERIOD_MS: f64 = 40.0;

/// Session lengths are drawn uniformly from this range of steps.
const LEN_RANGE: std::ops::Range<usize> = 16..49;

/// Distinct session scripts per datapath.
const SCRIPTS: usize = 48;

/// Load constants: the open-loop rate is every slot sending one frame
/// per [`FRAME_PERIOD_MS`], 1600 steps/s, a few percent of the closed-loop
/// capacity on the two-core reference host. The closed-loop window keeps
/// every slot of a connection busy, so readiness bursts carry steps of
/// many sessions and gangs form.
pub const PLAN: Plan = Plan {
    window: 32,
    open_rate: SLOTS as f64 * 1000.0 / FRAME_PERIOD_MS,
    latency_limit_us: 50_000.0,
};

const KIND_OPEN: u64 = 0;
const KIND_STEP: u64 = 1;
const KIND_CLOSE: u64 = 2;

/// Byte offset of the session id in a length-prefixed `session_step`
/// frame: length (4), opcode (1), mode (1).
const SID_OFFSET: usize = 6;

/// One precomputed session: its step frames (session id zeroed) and the
/// expected reply to each step.
struct Script {
    steps: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Closed,
    Opening,
    Open { sid: u64, next: usize },
}

struct Slot {
    state: State,
    script: usize,
    rng: StdRng,
}

/// Session lifecycle traffic and its output check.
pub struct SessionTraffic {
    scripts: [Vec<Script>; 2],
    open_frames: [Vec<u8>; 2],
    slots: Vec<Slot>,
    cursor: [usize; CONNS],
    seed: u64,
}

/// Whether slot `s` runs fixed-point sessions: alternating pairs, so each
/// connection carries both datapaths.
fn slot_fx(s: usize) -> bool {
    (s / 2) % 2 == 1
}

fn scripts(seed: u64, seq: &SeqModel, fx: bool) -> Vec<Script> {
    let mut rng = StdRng::seed_from_u64(seed ^ if fx { 0x5f } else { 0x5e });
    (0..SCRIPTS)
        .map(|_| {
            let len = rng.gen_range(LEN_RANGE);
            let xs: Vec<Vec<f32>> = (0..len)
                .map(|_| {
                    (0..SEQ_DEMO_INPUT_LEN)
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect()
                })
                .collect();
            let (inputs, outputs): (Vec<Payload>, Vec<Payload>) = if fx {
                let mut runner = seq.new_fx().expect("streaming demo has an fx form");
                let q = runner.qformat();
                xs.iter()
                    .map(|x| {
                        let xq = q.quantize_slice(x);
                        let y = runner.step(&xq);
                        (Payload::Fx(xq), Payload::Fx(y))
                    })
                    .unzip()
            } else {
                let mut runner = seq.new_f32();
                xs.into_iter()
                    .map(|x| {
                        let y = runner.step(&x);
                        (Payload::F32(x), Payload::F32(y))
                    })
                    .unzip()
            };
            Script {
                steps: inputs
                    .into_iter()
                    .map(|input| {
                        frame(&encode_request(&Request::SessionStep { session: 0, input }))
                    })
                    .collect(),
                expected: outputs
                    .into_iter()
                    .map(|p| encode_response(&Response::Output(p)))
                    .collect(),
            }
        })
        .collect()
}

impl SessionTraffic {
    /// Scripts from `seed`; expected replies from solo offline
    /// `SeqRunner`/`FxSeqRunner` steps of `model`.
    pub fn new(seed: u64, model: &Model) -> SessionTraffic {
        let seq = model.seq().expect("streaming demo is streamable");
        let open = |fx| {
            frame(&encode_request(&Request::SessionOpen {
                model: MODEL.into(),
                fx,
            }))
        };
        let mut t = SessionTraffic {
            scripts: [scripts(seed, seq, false), scripts(seed, seq, true)],
            open_frames: [open(false), open(true)],
            slots: Vec::new(),
            cursor: [0; CONNS],
            seed,
        };
        t.clear_slots();
        t
    }

    fn clear_slots(&mut self) {
        self.slots = (0..SLOTS)
            .map(|s| Slot {
                state: State::Closed,
                script: 0,
                rng: StdRng::seed_from_u64(self.seed ^ (0x51 + s as u64)),
            })
            .collect();
        self.cursor = [0; CONNS];
    }

    /// Writes slot `s`'s next request, if it has one it can send now.
    fn act(&mut self, s: usize, out: &mut Vec<u8>) -> Option<u64> {
        let mode = usize::from(slot_fx(s));
        let slot = &mut self.slots[s];
        let tag_base = (s as u64) << 2;
        match slot.state {
            State::Opening => None,
            State::Closed => {
                slot.script = slot.rng.gen_range(0..SCRIPTS);
                slot.state = State::Opening;
                out.extend_from_slice(&self.open_frames[mode]);
                Some(tag_base | KIND_OPEN)
            }
            State::Open { sid, next } => {
                let script = &self.scripts[mode][slot.script];
                if next < script.steps.len() {
                    let at = out.len();
                    out.extend_from_slice(&script.steps[next]);
                    out[at + SID_OFFSET..at + SID_OFFSET + 8].copy_from_slice(&sid.to_le_bytes());
                    slot.state = State::Open {
                        sid,
                        next: next + 1,
                    };
                    Some(tag_base | KIND_STEP | (slot.script as u64) << 10 | (next as u64) << 26)
                } else {
                    out.extend_from_slice(&frame(&encode_request(&Request::SessionClose {
                        session: sid,
                    })));
                    slot.state = State::Closed;
                    Some(tag_base | KIND_CLOSE)
                }
            }
        }
    }
}

impl Traffic for SessionTraffic {
    fn request(&mut self, conn: usize, _tick: u64, out: &mut Vec<u8>) -> Option<u64> {
        // Each connection walks its slots round robin. Open-loop ticks
        // alternate connections, so tick k serves slot k mod 64 and every
        // session sends once per period; a slot still waiting for its
        // open reply passes its turn to the next one.
        let per_conn = SLOTS / CONNS;
        for _ in 0..per_conn {
            let k = self.cursor[conn];
            self.cursor[conn] = (k + 1) % per_conn;
            if let Some(tag) = self.act(k * CONNS + conn, out) {
                return Some(tag);
            }
        }
        None
    }

    fn on_reply(&mut self, tag: u64, body: &[u8]) -> Verdict {
        let s = ((tag >> 2) & 0xff) as usize;
        match tag & 3 {
            KIND_OPEN => match decode_session_response(body) {
                Ok(Response::Session { session, .. }) => {
                    self.slots[s].state = State::Open {
                        sid: session,
                        next: 0,
                    };
                    Verdict::Control
                }
                _ => {
                    self.slots[s].state = State::Closed;
                    Verdict::Failed(serving::describe_mismatch("session open", body))
                }
            },
            KIND_STEP => {
                let script = ((tag >> 10) & 0xffff) as usize;
                let step = (tag >> 26) as usize;
                let mode = usize::from(slot_fx(s));
                if body == self.scripts[mode][script].expected[step] {
                    Verdict::Op
                } else {
                    Verdict::Failed(serving::describe_mismatch("session step", body))
                }
            }
            _ => {
                if body.first() == Some(&0) {
                    Verdict::Control
                } else {
                    Verdict::Failed(serving::describe_mismatch("session close", body))
                }
            }
        }
    }

    fn reset(&mut self, _registry: &Arc<Registry>) {
        self.clear_slots();
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let (net, meta) = seq_demo_model(ctx.seed);
    let reference = Model::from_network(MODEL, net.clone(), meta.clone());
    let mut traffic = SessionTraffic::new(ctx.seed, &reference);
    drop(reference);
    serving::run(
        ctx,
        &PLAN,
        &mut || Model::from_network(MODEL, net.clone(), meta.clone()),
        &mut traffic,
    )
}
