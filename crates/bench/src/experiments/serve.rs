//! `exp_serve`: load generator and batching benchmark for the
//! `rpbcm-serve` engine.
//!
//! Three scenarios against a loopback server running the built-in demo
//! model (a half-pruned block-circulant FC head with an fx mirror):
//!
//! 1. **Closed loop, B = 1** — concurrent clients each keeping one
//!    request in flight, with batching disabled (batch size 1). This is
//!    the per-request cost floor: every dispatch rebuilds the layer's
//!    eMAC plans and re-streams its weight spectra for a single sample.
//! 2. **Closed loop, B = 8** — same offered load with micro-batching on.
//!    The throughput ratio of the two runs is the batching win: each
//!    dispatch prepares plans and weight streams once and runs the batch
//!    through `hwsim`'s sample-parallel eMAC lanes
//!    (`conv_forward_fx_batch_packed`), exactly how the accelerator amortizes
//!    its double-buffered weight streams.
//! 3. **Open loop, 2× overload** — requests fired on a fixed schedule at
//!    twice the measured B = 8 capacity against a small queue: admission
//!    control must shed with explicit `overloaded` replies while served
//!    requests keep a bounded p99.
//! 4. **Open loop, 10k connections** — a child driver process (the fd
//!    budget of server + 10,000 sockets on each side does not fit one
//!    process under this kernel's 20,000-fd hard cap) holds ≥10,000
//!    concurrent connections against a 4-shard server, firing pings plus
//!    a sampled slice of fx infers on a staggered schedule. Checks the
//!    event-driven core's scaling claims: every connection answered,
//!    zero protocol errors, bounded p99, and per-shard connection
//!    imbalance ≤ 1 (round-robin dealing makes that structural). The
//!    driver is itself event-driven over [`serve::reactor`].
//! 5. **Streaming sessions** — sixty-four concurrent stateful sessions
//!    (half float, half fixed-point) against a pruned BCM-LSTM, each
//!    stepped closed-loop with every per-step reply compared bit for bit
//!    against the offline reference of the same checkpoint. The burst of
//!    same-model sessions keeps the shard's session gang scheduler busy
//!    (readiness wakeups deliver many sessions' steps at once), so this
//!    asserts the stateful tier's bit-identity contract under real
//!    gang-formed concurrency.
//!
//! Two engine-level records time kernels outside the server loop, with
//! outputs asserted bit-identical before any timing is trusted:
//!
//! - `engine_fx_lane` — the demo model's fx stack: the scalar-scheduled
//!   batch oracle ([`serve::FxModel::forward_batch_scalar`]) against the
//!   packed SoA lane path the batcher dispatches
//!   ([`serve::FxModel::forward_batch_packed`]).
//! - `session_lane` — the streaming demo stepped by 8 concurrent
//!   sessions through a join/leave schedule, once one session at a time
//!   (eight sequential gangs of one per round) and once gang-stepped 8
//!   wide, both through the lane batch steppers
//!   ([`nn::seq::SeqRunnerBatch`] / [`serve::FxSeqRunnerBatch`]), on
//!   both datapaths. This isolates the gang scheduler's kernel win from
//!   the networking around it.
//!
//! Writes `results/BENCH_serve.json`: one record per scenario
//! (`requests`, `served`, `shed`, `protocol_errors`, `throughput_rps`,
//! `p50_us`, `p99_us`), a `batch_scaling` record carrying the
//! B = 8 / B = 1 throughput ratio, the `engine_fx_lane` record
//! (`scalar_ns`, `lane_ns`, `speedup`), and the `session_lane` record
//! (per-datapath scalar/lane wall clocks, aggregate `speedup`,
//! `bit_identical`).

use crate::table::Table;
use hwsim::FxBatch;
use nn::layers::{BcmConv2d, ReLU};
use nn::seq::{SeqRunner, SeqRunnerBatch};
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{encode_request, Payload, Request, HANDSHAKE};
use serve::reactor::{stream_fd, Event, Interest, Poller};
use serve::{
    Client, ClientError, FxSeqRunner, FxSeqRunnerBatch, Model, Registry, ServeConfig, Server,
    Status,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scenario's aggregated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMeasurement {
    /// Scenario label (the JSON `config` field).
    pub config: String,
    /// Requests issued.
    pub requests: u64,
    /// Requests served with an `ok` reply.
    pub served: u64,
    /// Requests shed with an explicit `overloaded` reply.
    pub shed: u64,
    /// Wire-level protocol violations observed by the server.
    pub protocol_errors: u64,
    /// Served requests per second of wall time.
    pub throughput_rps: f64,
    /// Median round-trip latency of served requests, microseconds.
    pub p50_us: f64,
    /// 99th-percentile round-trip latency of served requests,
    /// microseconds.
    pub p99_us: f64,
}

/// The engine-level scalar-vs-lane comparison on the demo model.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMeasurement {
    /// Median wall time of one scalar-scheduled batch forward, ns.
    pub scalar_ns: u64,
    /// Median wall time of one packed SoA lane batch forward, ns.
    pub lane_ns: u64,
    /// `scalar_ns / lane_ns`.
    pub speedup: f64,
}

/// The engine-level gang-vs-one-at-a-time session-stepping comparison
/// (`session_lane`): concurrent sessions of the streaming demo model
/// driven through a join/leave schedule, once as sequential gangs of one
/// and once gang-stepped together, on both datapaths. The `*_scalar_ns`
/// fields keep their historical names (the committed records and the
/// baseline read them); that arm steps each session as a gang of one.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionLaneMeasurement {
    /// Concurrent sessions in the schedule (the lane-gang width cap).
    pub sessions: u64,
    /// Rounds in the schedule (max steps any one session runs).
    pub rounds: u64,
    /// Member-steps executed per pass (the schedule is ragged: sessions
    /// join late and leave early, so this is below `sessions × rounds`).
    pub steps: u64,
    /// Median wall time of one full float pass as gangs of one, ns.
    pub float_scalar_ns: u64,
    /// Median wall time of one full gang-stepped float pass, ns.
    pub float_lane_ns: u64,
    /// Median wall time of one full fixed-point pass as gangs of one, ns.
    pub fx_scalar_ns: u64,
    /// Median wall time of one full gang-stepped fixed-point pass, ns.
    pub fx_lane_ns: u64,
    /// Aggregate step-throughput win:
    /// `(float_scalar_ns + fx_scalar_ns) / (float_lane_ns + fx_lane_ns)`.
    pub speedup: f64,
    /// 1 when every session's gang-stepped output stream was
    /// bit-identical to its one-at-a-time run, on both datapaths.
    pub bit_identical: u64,
}

/// The streaming-session scenario's outcome (scenario 5).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingMeasurement {
    /// Sessions opened (half float, half fixed-point).
    pub sessions: u64,
    /// `session_step` requests issued.
    pub steps: u64,
    /// Steps served with an `ok` reply.
    pub served: u64,
    /// Wire-level protocol violations observed by the server.
    pub protocol_errors: u64,
    /// Served steps per second of wall time.
    pub throughput_sps: f64,
    /// Median step round-trip latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile step round-trip latency, microseconds.
    pub p99_us: f64,
    /// 1 when every float session's per-step outputs were bit-identical
    /// to the offline full-sequence forward of the same checkpoint.
    pub float_bit_identical: u64,
    /// 1 when every fixed-point session matched the offline fx fold.
    pub fx_bit_identical: u64,
}

/// The 10k-connection open-loop scenario's outcome (scenario 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TenKMeasurement {
    /// Concurrent connections the driver held open.
    pub connections: u64,
    /// Requests issued across all connections.
    pub requests: u64,
    /// `ok` replies.
    pub served: u64,
    /// Explicit `overloaded` replies.
    pub shed: u64,
    /// Other non-`ok` replies (must be zero).
    pub rejected: u64,
    /// Requests that never got a reply (must be zero).
    pub lost: u64,
    /// Wire-level protocol violations observed by the server.
    pub protocol_errors: u64,
    /// Median reply latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile reply latency, microseconds.
    pub p99_us: f64,
    /// Connections assigned per shard.
    pub shard_conns: Vec<u64>,
    /// `max - min` of [`TenKMeasurement::shard_conns`].
    pub shard_imbalance: u64,
}

/// All measurements of the serving benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// One record per scenario plus the `batch_scaling` summary.
    pub measurements: Vec<ServeMeasurement>,
    /// B = 8 throughput divided by B = 1 throughput.
    pub batch_speedup: f64,
    /// Direct fx-engine timing, outside the server loop.
    pub engine: EngineMeasurement,
    /// The 10k-connection open-loop scenario.
    pub ten_k: TenKMeasurement,
    /// The streaming-session scenario.
    pub streaming: StreamingMeasurement,
    /// The gang-vs-scalar session-stepping comparison.
    pub session_lane: SessionLaneMeasurement,
}

impl ServeResult {
    /// Looks a scenario up by label.
    pub fn get(&self, config: &str) -> Option<&ServeMeasurement> {
        self.measurements.iter().find(|m| m.config == config)
    }

    /// Renders the JSON artifact (hand-rolled: the workspace is std-only).
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for m in &self.measurements {
            s.push_str(&format!(
                "  {{\"config\": \"{}\", \"requests\": {}, \"served\": {}, \"shed\": {}, \
                 \"protocol_errors\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}}},\n",
                m.config,
                m.requests,
                m.served,
                m.shed,
                m.protocol_errors,
                m.throughput_rps,
                m.p50_us,
                m.p99_us,
            ));
        }
        s.push_str(&format!(
            "  {{\"config\": \"open_loop_10k_conns\", \"connections\": {}, \"requests\": {}, \
             \"served\": {}, \"shed\": {}, \"rejected\": {}, \"lost\": {}, \
             \"protocol_errors\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"shard_imbalance\": {}}},\n",
            self.ten_k.connections,
            self.ten_k.requests,
            self.ten_k.served,
            self.ten_k.shed,
            self.ten_k.rejected,
            self.ten_k.lost,
            self.ten_k.protocol_errors,
            self.ten_k.p50_us,
            self.ten_k.p99_us,
            self.ten_k.shard_imbalance,
        ));
        s.push_str(&format!(
            "  {{\"config\": \"streaming_sessions\", \"sessions\": {}, \"steps\": {}, \
             \"served\": {}, \"protocol_errors\": {}, \"throughput_sps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"float_bit_identical\": {}, \
             \"fx_bit_identical\": {}}},\n",
            self.streaming.sessions,
            self.streaming.steps,
            self.streaming.served,
            self.streaming.protocol_errors,
            self.streaming.throughput_sps,
            self.streaming.p50_us,
            self.streaming.p99_us,
            self.streaming.float_bit_identical,
            self.streaming.fx_bit_identical,
        ));
        s.push_str(&format!(
            "  {{\"config\": \"batch_scaling\", \"throughput_ratio_b8_over_b1\": {:.3}}},\n",
            self.batch_speedup
        ));
        s.push_str(&format!(
            "  {{\"config\": \"engine_fx_lane\", \"scalar_ns\": {}, \"lane_ns\": {}, \
             \"speedup\": {:.3}}},\n",
            self.engine.scalar_ns, self.engine.lane_ns, self.engine.speedup,
        ));
        let l = &self.session_lane;
        s.push_str(&format!(
            "  {{\"config\": \"session_lane\", \"sessions\": {}, \"rounds\": {}, \
             \"steps\": {}, \"float_scalar_ns\": {}, \"float_lane_ns\": {}, \
             \"fx_scalar_ns\": {}, \"fx_lane_ns\": {}, \"speedup\": {:.3}, \
             \"bit_identical\": {}}}\n]",
            l.sessions,
            l.rounds,
            l.steps,
            l.float_scalar_ns,
            l.float_lane_ns,
            l.fx_scalar_ns,
            l.fx_lane_ns,
            l.speedup,
            l.bit_identical,
        ));
        s
    }
}

/// Per-sample input length of the demo model.
pub const DEMO_INPUT_LEN: usize = 512;

/// The built-in demo model: a highly-pruned block-circulant FC head —
/// three 512→512 BCM layers (1×1 kernel over a `[512, 1, 1]` input,
/// BS 16) with ReLUs between, one live block in eight. This is the shape
/// the paper's serving story is about: a rank-enhanced, highly-pruned FC
/// stack where the per-dispatch weight stream is as large as one
/// sample's whole eMAC, so micro-batching (one plan build + weight
/// stream per dispatch instead of per request) is where the amortization
/// shows, and where the FFT/IFFT stages — not the pruned eMAC — dominate
/// per-sample work. The stack keeps its fixed-point mirror, so both
/// engine paths are exercisable out of the box.
pub fn demo_model(seed: u64) -> (Network, CheckpointMeta) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = DEMO_INPUT_LEN;
    let mut net = Network::new(
        "demo",
        vec![
            Box::new(BcmConv2d::new(&mut rng, c, c, 1, 1, 0, 16)),
            Box::new(ReLU::new()),
            Box::new(BcmConv2d::new(&mut rng, c, c, 1, 1, 0, 16)),
            Box::new(ReLU::new()),
            Box::new(BcmConv2d::new(&mut rng, c, c, 1, 1, 0, 16)),
            Box::new(ReLU::new()),
        ],
    );
    // Highly pruned, one live block in eight — the serving-path analogue
    // of the paper's high-pruning configurations.
    let kill: Vec<usize> = (0..net.bcm_block_count()).filter(|i| i % 8 != 0).collect();
    net.bcm_eliminate(&kill);
    let meta = CheckpointMeta {
        input_dims: vec![c, 1, 1],
        frac_bits: 8,
    };
    (net, meta)
}

/// Per-step input length of the streaming demo model.
pub const SEQ_DEMO_INPUT_LEN: usize = 8;

/// The built-in streaming demo model: a half-pruned BCM-LSTM classifier
/// (the C-LSTM/E-RNN shape: block-circulant gate grids with the
/// least-important half of the blocks eliminated), streamable on both
/// the float and the fixed-point path.
pub fn seq_demo_model(seed: u64) -> (Network, CheckpointMeta) {
    let mut net = nn::models::lstm_classifier(SEQ_DEMO_INPUT_LEN, 16, 8, 4, seed);
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    net.bcm_eliminate(&order[..importances.len() / 2]);
    let meta = CheckpointMeta {
        input_dims: vec![SEQ_DEMO_INPUT_LEN, 16, 1],
        frac_bits: 12,
    };
    (net, meta)
}

/// Builds a registry holding the demo model.
pub fn demo_registry(seed: u64) -> Registry {
    let (net, meta) = demo_model(seed);
    let registry = Registry::new();
    registry.publish(Model::from_network("demo", net, meta));
    registry
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Per-thread outcome of a load-generation run.
struct ThreadOutcome {
    served_latencies_ns: Vec<u64>,
    shed: u64,
    requests: u64,
}

fn aggregate(
    config: &str,
    outcomes: Vec<ThreadOutcome>,
    wall: Duration,
    protocol_errors: u64,
) -> ServeMeasurement {
    let mut latencies: Vec<u64> = Vec::new();
    let mut shed = 0;
    let mut requests = 0;
    for o in outcomes {
        latencies.extend(o.served_latencies_ns);
        shed += o.shed;
        requests += o.requests;
    }
    latencies.sort_unstable();
    let served = latencies.len() as u64;
    ServeMeasurement {
        config: config.to_string(),
        requests,
        served,
        shed,
        protocol_errors,
        throughput_rps: served as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
    }
}

/// Closed loop: `clients` threads, each one connection, each issuing
/// `per_client` fx requests back-to-back. The wall clock starts only
/// after every client has connected (thread spawn and TCP setup would
/// otherwise dominate short runs).
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    input_len: usize,
) -> (Vec<ThreadOutcome>, Duration) {
    let barrier = std::sync::Barrier::new(clients + 1);
    let (outcomes, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(c as u64);
                    let sample: Vec<i16> = (0..input_len)
                        .map(|_| rng.gen_range(-256i16..256))
                        .collect();
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = ThreadOutcome {
                        served_latencies_ns: Vec::with_capacity(per_client),
                        shed: 0,
                        requests: 0,
                    };
                    barrier.wait();
                    for _ in 0..per_client {
                        out.requests += 1;
                        let t = Instant::now();
                        match client.infer_fx("demo", &sample) {
                            Ok(_) => out.served_latencies_ns.push(t.elapsed().as_nanos() as u64),
                            Err(ClientError::Rejected(Status::Overloaded, _)) => out.shed += 1,
                            Err(e) => panic!("closed-loop request failed: {e}"),
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outcomes = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (outcomes, start.elapsed())
    });
    (outcomes, wall)
}

/// Open loop: `clients` threads each firing on a fixed absolute schedule
/// totalling `rate_rps` across all threads for `duration`. Clients are
/// synchronous, so enough threads must be offered that the schedule can
/// be kept even when round-trips slow under overload (a lagging thread
/// fires its overdue ticks back-to-back).
fn open_loop(
    addr: SocketAddr,
    clients: usize,
    rate_rps: f64,
    duration: Duration,
    input_len: usize,
) -> (Vec<ThreadOutcome>, Duration) {
    let per_thread_interval = Duration::from_secs_f64(clients as f64 / rate_rps.max(1.0));
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + c as u64);
                    let sample: Vec<i16> = (0..input_len)
                        .map(|_| rng.gen_range(-256i16..256))
                        .collect();
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = ThreadOutcome {
                        served_latencies_ns: Vec::new(),
                        shed: 0,
                        requests: 0,
                    };
                    // Stagger thread start so ticks interleave.
                    let t0 = Instant::now();
                    let offset = per_thread_interval.mul_f64(c as f64 / clients as f64);
                    let mut tick = 0u32;
                    loop {
                        let due = offset + per_thread_interval * tick;
                        if due >= duration {
                            break;
                        }
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        out.requests += 1;
                        let t = Instant::now();
                        match client.infer_fx("demo", &sample) {
                            Ok(_) => out.served_latencies_ns.push(t.elapsed().as_nanos() as u64),
                            Err(ClientError::Rejected(Status::Overloaded, _)) => out.shed += 1,
                            Err(e) => panic!("open-loop request failed: {e}"),
                        }
                        tick += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (outcomes, start.elapsed())
}

/// Scenario 5: concurrent streaming sessions. `clients` threads each
/// open one session against the pruned BCM-LSTM demo (even threads
/// float, odd threads fixed-point), step it `steps` times closed-loop,
/// and compare every per-step reply bit for bit against the offline
/// reference of the same checkpoint (the float full-sequence forward's
/// per-step head outputs; the fx fold of the same step inputs). With 64
/// same-model sessions stepping concurrently, shard readiness wakeups
/// routinely deliver many sessions' steps at once, so the session gang
/// scheduler executes most of this load as lane gangs — every reply must
/// still be the session's own solo arithmetic, bit for bit.
fn run_streaming(quick: bool) -> StreamingMeasurement {
    let clients = 64usize;
    let steps = if quick { 8 } else { 64 };
    let (net, meta) = seq_demo_model(77);
    let reference = Model::from_network("seq-ref", net.clone(), meta.clone());
    let seq = reference.seq().expect("streaming demo is streamable");
    let registry = Registry::new();
    registry.publish(Model::from_network("seq", net, meta));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), registry).expect("bind");
    let addr = server.local_addr();

    struct SessionOutcome {
        latencies_ns: Vec<u64>,
        steps: u64,
        fx: bool,
        bit_identical: bool,
    }
    let barrier = std::sync::Barrier::new(clients + 1);
    let (outcomes, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let seq = &seq;
                scope.spawn(move || {
                    let fx = c % 2 == 1;
                    let mut rng = StdRng::seed_from_u64(500 + c as u64);
                    let inputs: Vec<Vec<f32>> = (0..steps)
                        .map(|_| {
                            (0..SEQ_DEMO_INPUT_LEN)
                                .map(|_| rng.gen_range(-1.0f32..1.0))
                                .collect()
                        })
                        .collect();
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = SessionOutcome {
                        latencies_ns: Vec::with_capacity(steps),
                        steps: 0,
                        fx,
                        bit_identical: true,
                    };
                    barrier.wait();
                    let (sid, _version) = client.open_session("seq", fx).expect("open session");
                    if fx {
                        let mut offline = seq.new_fx().expect("fx streaming form");
                        let q = offline.qformat();
                        for x in &inputs {
                            let xq = q.quantize_slice(x);
                            out.steps += 1;
                            let t = Instant::now();
                            let got = client.session_step_fx(sid, &xq).expect("fx step");
                            out.latencies_ns.push(t.elapsed().as_nanos() as u64);
                            if got != offline.step(&xq) {
                                out.bit_identical = false;
                            }
                        }
                    } else {
                        let mut offline = seq.new_f32();
                        for x in &inputs {
                            out.steps += 1;
                            let t = Instant::now();
                            let got = client.session_step_f32(sid, x).expect("float step");
                            out.latencies_ns.push(t.elapsed().as_nanos() as u64);
                            let want = offline.step(x);
                            if got
                                .iter()
                                .map(|v| v.to_bits())
                                .ne(want.iter().map(|v| v.to_bits()))
                            {
                                out.bit_identical = false;
                            }
                        }
                    }
                    client.close_session(sid).expect("close session");
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outcomes: Vec<SessionOutcome> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        (outcomes, start.elapsed())
    });
    let errors = server.protocol_errors();
    server.shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let mut issued = 0u64;
    let mut float_ok = true;
    let mut fx_ok = true;
    for o in &outcomes {
        latencies.extend(&o.latencies_ns);
        issued += o.steps;
        if o.fx {
            fx_ok &= o.bit_identical;
        } else {
            float_ok &= o.bit_identical;
        }
    }
    latencies.sort_unstable();
    StreamingMeasurement {
        sessions: clients as u64,
        steps: issued,
        served: latencies.len() as u64,
        protocol_errors: errors,
        throughput_sps: latencies.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        float_bit_identical: u64::from(float_ok),
        fx_bit_identical: u64::from(fx_ok),
    }
}

// ---------------------------------------------------------------------
// Scenario 4: 10k concurrent connections, open loop, child-process driver
// ---------------------------------------------------------------------

/// Connections the 10k scenario holds open.
pub const TEN_K_CONNS: usize = 10_000;

/// Raises the process soft fd limit to the hard cap (Linux). Both the
/// serving parent and the driving child need ~10k fds; the default soft
/// limit of 1024 would otherwise fail `accept`/`connect` long before the
/// scenario's point.
pub fn raise_fd_limit() {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        const RLIMIT_NOFILE: i32 = 7;
        unsafe extern "C" {
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }
        let mut lim = RLimit { cur: 0, max: 0 };
        // Best effort: a failure here surfaces later as connect errors.
        unsafe {
            if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
                lim.cur = lim.max;
                setrlimit(RLIMIT_NOFILE, &lim);
            }
        }
    }
}

/// What the child driver reports back (one JSON line on stdout).
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOutcome {
    /// Connections successfully established and held.
    pub connections: u64,
    /// Requests written (handshake excluded).
    pub requests: u64,
    /// `ok` replies.
    pub served: u64,
    /// Explicit `overloaded` replies.
    pub shed: u64,
    /// Other non-`ok` replies.
    pub rejected: u64,
    /// Requests with no reply by the deadline.
    pub lost: u64,
    /// Median reply latency, ns.
    pub p50_ns: u64,
    /// p99 reply latency, ns.
    pub p99_ns: u64,
    /// Driver wall clock, ms.
    pub wall_ms: u64,
}

impl DriveOutcome {
    /// The child's single-line stdout report.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"connections\": {}, \"requests\": {}, \"served\": {}, \"shed\": {}, \
             \"rejected\": {}, \"lost\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"wall_ms\": {}}}",
            self.connections,
            self.requests,
            self.served,
            self.shed,
            self.rejected,
            self.lost,
            self.p50_ns,
            self.p99_ns,
            self.wall_ms,
        )
    }

    fn parse(line: &str) -> Option<DriveOutcome> {
        let v = crate::json::parse(line).ok()?;
        let num = |k: &str| v.get(k).and_then(crate::json::Json::as_num);
        Some(DriveOutcome {
            connections: num("connections")? as u64,
            requests: num("requests")? as u64,
            served: num("served")? as u64,
            shed: num("shed")? as u64,
            rejected: num("rejected")? as u64,
            lost: num("lost")? as u64,
            p50_ns: num("p50_ns")? as u64,
            p99_ns: num("p99_ns")? as u64,
            wall_ms: num("wall_ms")? as u64,
        })
    }
}

/// One driver-side connection's state machine.
struct DriveConn {
    stream: TcpStream,
    /// Bytes still to write (handshake + every request frame).
    wbuf: Vec<u8>,
    woff: usize,
    /// When this connection may start writing (open-loop stagger).
    due: Duration,
    /// Armed = writable interest registered (due reached).
    armed: bool,
    /// Set when the whole `wbuf` has been flushed.
    sent: Option<Instant>,
    expected: u32,
    got: u32,
    rbuf: Vec<u8>,
    rpos: usize,
    dead: bool,
}

/// The event-driven load driver: holds `conns` concurrent connections,
/// each writing its requests at a staggered `due` time across `spread`,
/// then collects every reply. Runs in a **child process** (see the
/// module docs for the fd budget); it reuses the server's own
/// [`serve::reactor`] readiness layer, so one thread drives all 10k
/// sockets.
///
/// Every connection sends `ping`; every `infer_every`-th also pipelines
/// one fx infer behind it, exercising the batch engine through the same
/// sockets.
pub fn drive(addr: SocketAddr, conns: usize, spread: Duration, infer_every: usize) -> DriveOutcome {
    raise_fd_limit();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(9000);
    let sample: Vec<i16> = (0..DEMO_INPUT_LEN)
        .map(|_| rng.gen_range(-256i16..256))
        .collect();
    let ping = frame(&encode_request(&Request::Ping));
    let infer = frame(&encode_request(&Request::Infer {
        model: "demo".into(),
        input: Payload::Fx(sample),
    }));

    // Connect phase, parallelised: a single loopback connect costs
    // multiple milliseconds on some kernels/sandboxes, so 10k serial
    // connects would eat the whole measurement window. The latencies
    // overlap across threads; the streams land back in index order.
    let connect_threads = 32.min(conns.max(1));
    let mut sockets: Vec<Option<TcpStream>> = (0..conns).map(|_| None).collect();
    let chunk = conns.div_ceil(connect_threads).max(1);
    std::thread::scope(|scope| {
        for part in sockets.chunks_mut(chunk) {
            scope.spawn(move || {
                for slot in part.iter_mut() {
                    let stream = TcpStream::connect(addr).expect("driver connect");
                    stream.set_nodelay(true).ok();
                    stream.set_nonblocking(true).expect("nonblocking");
                    *slot = Some(stream);
                }
            });
        }
    });

    let mut poller = Poller::new().expect("driver poller");
    let mut table: Vec<DriveConn> = Vec::with_capacity(conns);
    let mut requests = 0u64;
    for (i, slot) in sockets.into_iter().enumerate() {
        let stream = slot.expect("connected stream");
        let mut wbuf = HANDSHAKE.to_vec();
        wbuf.extend_from_slice(&ping);
        let mut expected = 1u32;
        if infer_every > 0 && i % infer_every == 0 {
            wbuf.extend_from_slice(&infer);
            expected += 1;
        }
        requests += u64::from(expected);
        poller
            .add(stream_fd(&stream), i, Interest::READ)
            .expect("register");
        table.push(DriveConn {
            stream,
            wbuf,
            woff: 0,
            due: spread.mul_f64(i as f64 / conns as f64),
            armed: false,
            sent: None,
            expected,
            got: 0,
            rbuf: Vec::new(),
            rpos: 0,
            dead: false,
        });
    }
    let connections = table.len() as u64;

    let mut latencies: Vec<u64> = Vec::with_capacity(requests as usize);
    let (mut served, mut shed, mut rejected) = (0u64, 0u64, 0u64);
    let mut done = 0usize;
    let mut next_arm = 0usize;
    // The stagger offsets and the reply deadline are measured from the
    // end of the connect phase, not from `t0`: connect time must not
    // consume the measurement window.
    let start = Instant::now();
    let deadline = spread + Duration::from_secs(60);
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    while done < table.len() && start.elapsed() < deadline {
        // Arm connections whose stagger offset has arrived (due is
        // monotone in the index, so a cursor suffices).
        let now = start.elapsed();
        while next_arm < table.len() && table[next_arm].due <= now {
            let c = &mut table[next_arm];
            if !c.dead {
                poller
                    .modify(stream_fd(&c.stream), next_arm, Interest::READ_WRITE)
                    .ok();
                c.armed = true;
            }
            next_arm += 1;
        }
        let timeout = if next_arm < table.len() {
            table[next_arm]
                .due
                .saturating_sub(now)
                .min(Duration::from_millis(10))
                .max(Duration::from_millis(1))
        } else {
            Duration::from_millis(20)
        };
        events.clear();
        poller
            .wait(&mut events, Some(timeout))
            .expect("driver wait");
        for ev in &events {
            let i = ev.token;
            let c = &mut table[i];
            if c.dead {
                continue;
            }
            if (ev.writable || ev.hangup) && c.armed && c.woff < c.wbuf.len() {
                loop {
                    match c.stream.write(&c.wbuf[c.woff..]) {
                        Ok(0) => break,
                        Ok(n) => {
                            c.woff += n;
                            if c.woff == c.wbuf.len() {
                                c.sent = Some(Instant::now());
                                poller.modify(stream_fd(&c.stream), i, Interest::READ).ok();
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            c.dead = true;
                            break;
                        }
                    }
                }
            }
            if ev.readable || ev.hangup {
                loop {
                    match c.stream.read(&mut scratch) {
                        Ok(0) => {
                            c.dead = true;
                            break;
                        }
                        Ok(n) => c.rbuf.extend_from_slice(&scratch[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            c.dead = true;
                            break;
                        }
                    }
                }
                // Parse complete reply frames: u32 length + status byte.
                while c.rbuf.len() - c.rpos >= 4 {
                    let len4: [u8; 4] = c.rbuf[c.rpos..c.rpos + 4].try_into().expect("4 bytes");
                    let len = u32::from_le_bytes(len4) as usize;
                    if c.rbuf.len() - c.rpos < 4 + len {
                        break;
                    }
                    let status = c.rbuf[c.rpos + 4];
                    c.rpos += 4 + len;
                    c.got += 1;
                    if let Some(sent) = c.sent {
                        latencies.push(sent.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    }
                    match status {
                        0 => served += 1,
                        1 => shed += 1,
                        _ => rejected += 1,
                    }
                }
                if c.rpos > 0 {
                    c.rbuf.drain(..c.rpos);
                    c.rpos = 0;
                }
            }
            if c.dead || c.got >= c.expected {
                poller.remove(stream_fd(&c.stream)).ok();
                done += 1;
                if !c.dead {
                    c.dead = true; // fully answered; stop tracking events
                }
            }
        }
    }
    // Connections stay open to here — concurrency held for the whole run.
    let lost = requests - served - shed - rejected;
    latencies.sort_unstable();
    let pick = |p: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() as f64 - 1.0) * p).round() as usize]
        }
    };
    DriveOutcome {
        connections,
        requests,
        served,
        shed,
        rejected,
        lost,
        p50_ns: pick(0.50),
        p99_ns: pick(0.99),
        wall_ms: t0.elapsed().as_millis().min(u64::MAX as u128) as u64,
    }
}

/// Length-prefixes one encoded request payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + payload.len());
    f.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("fits u32")
            .to_le_bytes(),
    );
    f.extend_from_slice(payload);
    f
}

/// Runs the 10k-connection scenario: a 4-shard server in this process,
/// the driver in a child process (`exp_serve --drive`).
fn run_open_10k(quick: bool) -> TenKMeasurement {
    raise_fd_limit();
    let cfg = ServeConfig {
        batch_size: 8,
        max_wait: Duration::from_micros(2000),
        // Roomy queue: this scenario checks connection scale, not
        // shedding (scenario 3 covers overload).
        queue_cap: 2048,
        shards: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, demo_registry(42)).expect("bind");
    let addr = server.local_addr();
    let spread_ms: u64 = if quick { 1500 } else { 4000 };
    let infer_every: usize = if quick { 32 } else { 8 };

    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--drive",
            &addr.to_string(),
            &TEN_K_CONNS.to_string(),
            &spread_ms.to_string(),
            &infer_every.to_string(),
        ])
        .output()
        .expect("spawn driver child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "driver child failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("driver JSON line");
    let d = DriveOutcome::parse(line).expect("parse driver outcome");

    let errors = server.protocol_errors();
    let shard_conns: Vec<u64> = server.shard_stats().iter().map(|&(c, _)| c).collect();
    server.shutdown();
    let imbalance = shard_conns.iter().max().copied().unwrap_or(0)
        - shard_conns.iter().min().copied().unwrap_or(0);
    TenKMeasurement {
        connections: d.connections,
        requests: d.requests,
        served: d.served,
        shed: d.shed,
        rejected: d.rejected,
        lost: d.lost,
        protocol_errors: errors,
        p50_us: d.p50_ns as f64 / 1e3,
        p99_us: d.p99_ns as f64 / 1e3,
        shard_conns,
        shard_imbalance: imbalance,
    }
}

/// Times the demo model's fx stack directly: the scalar-scheduled batch
/// oracle vs the packed SoA lane path the batcher dispatches, on a full
/// batch of 8. Asserts bit-identity before trusting either timing.
fn measure_engine(reps: usize) -> EngineMeasurement {
    let (net, meta) = demo_model(42);
    let model = Model::from_network("demo", net, meta);
    let fx = model.fx().expect("demo model has an fx mirror");
    let mut rng = StdRng::seed_from_u64(7);
    let samples: Vec<Vec<i16>> = (0..8)
        .map(|_| {
            (0..DEMO_INPUT_LEN)
                .map(|_| rng.gen_range(-256i16..256))
                .collect()
        })
        .collect();
    let lane = || {
        fx.forward_batch_packed(FxBatch::from_rows(fx.qformat(), &samples))
            .into_rows()
    };
    assert_eq!(
        lane(),
        fx.forward_batch_scalar(&samples),
        "lane batch path diverged from the scalar oracle"
    );
    let scalar_ns = super::median_ns(
        || {
            std::hint::black_box(fx.forward_batch_scalar(&samples));
        },
        reps,
    );
    let lane_ns = super::median_ns(
        || {
            std::hint::black_box(lane());
        },
        reps,
    );
    EngineMeasurement {
        scalar_ns,
        lane_ns,
        speedup: scalar_ns as f64 / lane_ns.max(1) as f64,
    }
}

/// Times the session gang scheduler's kernels directly: 8 concurrent
/// sessions of the streaming demo stepped through a staggered join/leave
/// schedule (late joins, early leaves, ragged occupancy every round),
/// once one session at a time (each step a gang of one) and once
/// gang-stepped together, on both datapaths. Asserts every session's
/// gang output stream bit-identical to its one-at-a-time run before
/// trusting either timing.
#[allow(clippy::needless_range_loop)] // `r` indexes two parallel (lane, round) tables
fn measure_session_lane(reps: usize, quick: bool) -> SessionLaneMeasurement {
    const W: usize = 8;
    let rounds = if quick { 32 } else { 256 };
    let (net, meta) = seq_demo_model(77);
    let model = Model::from_network("seq", net, meta);
    let seq = model.seq().expect("streaming demo is streamable");

    // Lane `i` is live for rounds `[from, to)`: staggered joins and
    // early leaves keep gang occupancy ragged through the run.
    let sched: Vec<(usize, usize)> = (0..W)
        .map(|i| ((i % 4) * rounds / 16, rounds - (i % 3) * rounds / 16))
        .collect();
    let active = |i: usize, r: usize| sched[i].0 <= r && r < sched[i].1;

    let mut rng = StdRng::seed_from_u64(99);
    let xf: Vec<Vec<Vec<f32>>> = (0..W)
        .map(|_| {
            (0..rounds)
                .map(|_| {
                    (0..SEQ_DEMO_INPUT_LEN)
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect()
                })
                .collect()
        })
        .collect();
    let q = seq.new_fx().expect("fx streaming form").qformat();
    let xq: Vec<Vec<Vec<i16>>> = xf
        .iter()
        .map(|lane| lane.iter().map(|x| q.quantize_slice(x)).collect())
        .collect();

    let float_scalar = || -> Vec<Vec<f32>> {
        let mut rs: Vec<SeqRunner> = (0..W).map(|_| seq.new_f32()).collect();
        let mut outs = Vec::new();
        for r in 0..rounds {
            for (i, runner) in rs.iter_mut().enumerate() {
                if active(i, r) {
                    outs.push(runner.step(&xf[i][r]));
                }
            }
        }
        outs
    };
    let float_lane = || -> Vec<Vec<f32>> {
        let mut rs: Vec<SeqRunner> = (0..W).map(|_| seq.new_f32()).collect();
        let mut outs = Vec::new();
        for r in 0..rounds {
            let xs: Vec<&[f32]> = (0..W)
                .filter(|&i| active(i, r))
                .map(|i| xf[i][r].as_slice())
                .collect();
            let mut members: Vec<&mut SeqRunner> = rs
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active(*i, r))
                .map(|(_, m)| m)
                .collect();
            if members.is_empty() {
                continue;
            }
            outs.extend(SeqRunnerBatch::step(&mut members, &xs));
        }
        outs
    };
    let fx_scalar = || -> Vec<Vec<i16>> {
        let mut rs: Vec<FxSeqRunner> = (0..W)
            .map(|_| seq.new_fx().expect("fx streaming form"))
            .collect();
        let mut outs = Vec::new();
        for r in 0..rounds {
            for (i, runner) in rs.iter_mut().enumerate() {
                if active(i, r) {
                    outs.push(runner.step(&xq[i][r]));
                }
            }
        }
        outs
    };
    let fx_lane = || -> Vec<Vec<i16>> {
        let mut rs: Vec<FxSeqRunner> = (0..W)
            .map(|_| seq.new_fx().expect("fx streaming form"))
            .collect();
        let mut outs = Vec::new();
        for r in 0..rounds {
            let xs: Vec<&[i16]> = (0..W)
                .filter(|&i| active(i, r))
                .map(|i| xq[i][r].as_slice())
                .collect();
            let mut members: Vec<&mut FxSeqRunner> = rs
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active(*i, r))
                .map(|(_, m)| m)
                .collect();
            if members.is_empty() {
                continue;
            }
            outs.extend(FxSeqRunnerBatch::step(&mut members, &xs));
        }
        outs
    };

    // Both passes visit active lanes in the same (round, lane) order, so
    // the output streams line up positionally.
    let f_scalar = float_scalar();
    let f_lane = float_lane();
    let float_ok = f_scalar.len() == f_lane.len()
        && f_scalar.iter().zip(&f_lane).all(|(a, b)| {
            a.iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits()))
        });
    let fx_ok = fx_scalar() == fx_lane();
    let steps = f_scalar.len() as u64;

    let float_scalar_ns = super::median_ns(
        || {
            std::hint::black_box(float_scalar());
        },
        reps,
    );
    let float_lane_ns = super::median_ns(
        || {
            std::hint::black_box(float_lane());
        },
        reps,
    );
    let fx_scalar_ns = super::median_ns(
        || {
            std::hint::black_box(fx_scalar());
        },
        reps,
    );
    let fx_lane_ns = super::median_ns(
        || {
            std::hint::black_box(fx_lane());
        },
        reps,
    );
    SessionLaneMeasurement {
        sessions: W as u64,
        rounds: rounds as u64,
        steps,
        float_scalar_ns,
        float_lane_ns,
        fx_scalar_ns,
        fx_lane_ns,
        speedup: (float_scalar_ns + fx_scalar_ns) as f64
            / (float_lane_ns + fx_lane_ns).max(1) as f64,
        bit_identical: u64::from(float_ok && fx_ok),
    }
}

/// Runs one closed-loop scenario on a fresh server.
fn run_closed(
    config: &str,
    batch_size: usize,
    clients: usize,
    per_client: usize,
) -> ServeMeasurement {
    // One shard: the closed-loop scenarios measure *batching*, and
    // batches form within a shard's queue — sharding the handful of
    // clients would just starve the batches.
    let cfg = ServeConfig {
        batch_size,
        max_wait: Duration::from_micros(2000),
        queue_cap: 256,
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, demo_registry(42)).expect("bind");
    let (outcomes, wall) = closed_loop(server.local_addr(), clients, per_client, DEMO_INPUT_LEN);
    let errors = server.protocol_errors();
    server.shutdown();
    aggregate(config, outcomes, wall, errors)
}

/// Runs the full benchmark. `quick` shrinks the request counts for smoke
/// runs while keeping every scenario.
pub fn run(quick: bool) -> ServeResult {
    let clients = 16;
    let per_client = if quick { 12 } else { 48 };

    // Warm one scenario first so thread-pool and page-cache effects hit
    // the discard run, not the measured ones.
    let _ = run_closed("warmup", 8, 4, 4);

    let b1 = run_closed("closed_loop_fx_b1_c16", 1, clients, per_client);
    let b8 = run_closed("closed_loop_fx_b8_c16", 8, clients, per_client);
    let batch_speedup = b8.throughput_rps / b1.throughput_rps.max(1e-9);

    // Open loop at 2x the measured batched capacity, against a queue
    // small enough that overload must shed. 3× the closed-loop client
    // count so the schedule holds even as round-trips slow down.
    let overload_rate = 2.0 * b8.throughput_rps;
    let cfg = ServeConfig {
        batch_size: 8,
        max_wait: Duration::from_micros(2000),
        queue_cap: 16,
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, demo_registry(42)).expect("bind");
    let duration = Duration::from_millis(if quick { 400 } else { 1500 });
    let (outcomes, wall) = open_loop(
        server.local_addr(),
        3 * clients,
        overload_rate,
        duration,
        DEMO_INPUT_LEN,
    );
    let errors = server.protocol_errors();
    server.shutdown();
    let overload = aggregate("open_loop_overload_2x", outcomes, wall, errors);

    let engine = measure_engine(if quick { 5 } else { 15 });
    let session_lane = measure_session_lane(if quick { 5 } else { 15 }, quick);
    let ten_k = run_open_10k(quick);
    let streaming = run_streaming(quick);

    ServeResult {
        measurements: vec![b1, b8, overload],
        batch_speedup,
        engine,
        ten_k,
        streaming,
        session_lane,
    }
}

/// Writes `results/BENCH_serve.json` (path anchored at the workspace root
/// so the binary works from any working directory).
pub fn write_json(r: &ServeResult) -> std::io::Result<std::path::PathBuf> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_serve.json");
    std::fs::write(&path, r.to_json() + "\n")?;
    Ok(path)
}

/// Prints the scenario table.
pub fn print(r: &ServeResult) {
    println!("== rpbcm-serve: micro-batching throughput and overload behaviour ==");
    let mut t = Table::new(&[
        "scenario",
        "requests",
        "served",
        "shed",
        "proto errs",
        "rps",
        "p50 us",
        "p99 us",
    ]);
    for m in &r.measurements {
        t.row_owned(vec![
            m.config.clone(),
            m.requests.to_string(),
            m.served.to_string(),
            m.shed.to_string(),
            m.protocol_errors.to_string(),
            format!("{:.0}", m.throughput_rps),
            format!("{:.0}", m.p50_us),
            format!("{:.0}", m.p99_us),
        ]);
    }
    t.print();
    println!(
        "batch scaling (B=8 / B=1 throughput): {:.2}x",
        r.batch_speedup
    );
    println!(
        "engine fx lane vs scalar oracle (batch 8): {} ns vs {} ns = {:.2}x",
        r.engine.lane_ns, r.engine.scalar_ns, r.engine.speedup
    );
    let t = &r.ten_k;
    println!(
        "open loop, {} connections: {} requests, {} served / {} shed / {} rejected / {} lost, \
         {} protocol errors, p50 {:.0} us, p99 {:.0} us",
        t.connections,
        t.requests,
        t.served,
        t.shed,
        t.rejected,
        t.lost,
        t.protocol_errors,
        t.p50_us,
        t.p99_us,
    );
    println!(
        "  shard connections {:?} (imbalance {})",
        t.shard_conns, t.shard_imbalance
    );
    let s = &r.streaming;
    println!(
        "streaming sessions: {} sessions x {} steps, {} served, {} protocol errors, \
         {:.0} steps/s, p50 {:.0} us, p99 {:.0} us, float parity {}, fx parity {}",
        s.sessions,
        s.steps / s.sessions.max(1),
        s.served,
        s.protocol_errors,
        s.throughput_sps,
        s.p50_us,
        s.p99_us,
        s.float_bit_identical,
        s.fx_bit_identical,
    );
    let l = &r.session_lane;
    println!(
        "session lane gangs ({} sessions, {} rounds, {} steps): float {} ns vs {} ns, \
         fx {} ns vs {} ns, aggregate {:.2}x, parity {}",
        l.sessions,
        l.rounds,
        l.steps,
        l.float_scalar_ns,
        l.float_lane_ns,
        l.fx_scalar_ns,
        l.fx_lane_ns,
        l.speedup,
        l.bit_identical,
    );
}

/// Smoke-checks a quick run: some throughput, no protocol errors, shed
/// requests only where overload was intended. Returns the failures.
pub fn smoke_failures(r: &ServeResult) -> Vec<String> {
    let mut fails = Vec::new();
    for m in &r.measurements {
        if m.protocol_errors != 0 {
            fails.push(format!(
                "{}: {} protocol error(s)",
                m.config, m.protocol_errors
            ));
        }
        if m.served == 0 {
            fails.push(format!("{}: zero requests served", m.config));
        }
        if m.throughput_rps <= 0.0 {
            fails.push(format!("{}: zero throughput", m.config));
        }
    }
    for closed in ["closed_loop_fx_b1_c16", "closed_loop_fx_b8_c16"] {
        match r.get(closed) {
            Some(m) if m.shed > 0 => {
                fails.push(format!("{closed}: shed {} without overload", m.shed))
            }
            Some(_) => {}
            None => fails.push(format!("{closed}: scenario missing")),
        }
    }
    match r.get("open_loop_overload_2x") {
        Some(m) if m.shed == 0 => {
            fails.push("open_loop_overload_2x: no shedding at 2x capacity".into())
        }
        Some(_) => {}
        None => fails.push("open_loop_overload_2x: scenario missing".into()),
    }
    if r.engine.scalar_ns == 0 || r.engine.lane_ns == 0 {
        fails.push("engine_fx_lane: zero wall time".into());
    }
    if r.engine.speedup < 1.0 {
        fails.push(format!(
            "engine_fx_lane: lane path slower than the scalar oracle ({:.2}x)",
            r.engine.speedup
        ));
    }
    let t = &r.ten_k;
    if t.connections < TEN_K_CONNS as u64 {
        fails.push(format!(
            "open_loop_10k_conns: only {} concurrent connections",
            t.connections
        ));
    }
    if t.protocol_errors != 0 {
        fails.push(format!(
            "open_loop_10k_conns: {} protocol error(s)",
            t.protocol_errors
        ));
    }
    if t.rejected != 0 {
        fails.push(format!(
            "open_loop_10k_conns: {} rejected request(s)",
            t.rejected
        ));
    }
    if t.lost != 0 {
        fails.push(format!("open_loop_10k_conns: {} lost request(s)", t.lost));
    }
    if t.p99_us >= 1_000_000.0 {
        fails.push(format!(
            "open_loop_10k_conns: unbounded p99 ({:.0} us)",
            t.p99_us
        ));
    }
    if t.shard_imbalance > 1 {
        fails.push(format!(
            "open_loop_10k_conns: shard connection imbalance {} (round-robin allows 1)",
            t.shard_imbalance
        ));
    }
    let s = &r.streaming;
    if s.served == 0 || s.served != s.steps {
        fails.push(format!(
            "streaming_sessions: {} of {} steps served",
            s.served, s.steps
        ));
    }
    if s.protocol_errors != 0 {
        fails.push(format!(
            "streaming_sessions: {} protocol error(s)",
            s.protocol_errors
        ));
    }
    if s.float_bit_identical != 1 {
        fails.push("streaming_sessions: float session diverged from the offline forward".into());
    }
    if s.fx_bit_identical != 1 {
        fails.push("streaming_sessions: fx session diverged from the offline fold".into());
    }
    let l = &r.session_lane;
    if l.float_scalar_ns == 0 || l.float_lane_ns == 0 || l.fx_scalar_ns == 0 || l.fx_lane_ns == 0 {
        fails.push("session_lane: zero wall time".into());
    }
    if l.bit_identical != 1 {
        fails.push(
            "session_lane: gang-stepped stream diverged from the one-at-a-time runs (gangs of one)"
                .into(),
        );
    }
    if l.speedup < 1.0 {
        fails.push(format!(
            "session_lane: 8-wide gangs slower than sequential gangs of one ({:.2}x)",
            l.speedup
        ));
    }
    fails
}

/// Observability smoke checks, run alongside [`smoke_failures`] by
/// `exp_serve --smoke`. Exercises the PR's three tracing surfaces
/// against live loopback servers and returns the failures:
///
/// 1. **Bit-exactness** — the same request stream served with tracing
///    off and on must produce bit-identical replies.
/// 2. **Trace completeness + stats round-trip** — after `n` served
///    requests, the `stats` opcode must return a parseable versioned
///    snapshot over the wire, and a flight dump must hold exactly `n`
///    complete seven-stamp traces with non-decreasing stamps.
/// 3. **SLO violation** — a server armed with an absurd 1 µs p99 SLO
///    must produce a flight-recorder dump pair (JSON + Chrome trace)
///    that both parse.
pub fn observability_smoke() -> Vec<String> {
    let mut fails = Vec::new();
    let sample: Vec<f32> = (0..DEMO_INPUT_LEN)
        .map(|i| (i % 13) as f32 * 0.05)
        .collect();
    let cfg = ServeConfig {
        batch_size: 4,
        max_wait: Duration::from_micros(500),
        queue_cap: 64,
        shards: 1,
        ..ServeConfig::default()
    };

    // 1. Bit-exactness across the tracing toggle.
    let serve_bits = |fails: &mut Vec<String>| -> Vec<Vec<u32>> {
        let server = Server::bind("127.0.0.1:0", cfg, demo_registry(42)).expect("bind");
        let mut outs = Vec::new();
        match Client::connect(server.local_addr()) {
            Ok(mut client) => {
                for _ in 0..8 {
                    match client.infer_f32("demo", &sample) {
                        Ok(out) => outs.push(out.iter().map(|x| x.to_bits()).collect()),
                        Err(e) => fails.push(format!("observability: infer failed: {e}")),
                    }
                }
            }
            Err(e) => fails.push(format!("observability: connect failed: {e}")),
        }
        server.shutdown();
        outs
    };
    telemetry::set_enabled(false);
    let bits_off = serve_bits(&mut fails);
    telemetry::set_enabled(true);
    let bits_on = serve_bits(&mut fails);
    if bits_off != bits_on {
        fails.push("observability: tracing changed served outputs (bit-exactness broken)".into());
    }

    // 2. Stats round-trip and per-request trace completeness.
    let n = 12usize;
    let server = Server::bind("127.0.0.1:0", cfg, demo_registry(42)).expect("bind");
    match Client::connect(server.local_addr()) {
        Ok(mut client) => {
            for _ in 0..n {
                if let Err(e) = client.infer_f32("demo", &sample) {
                    fails.push(format!("observability: traced infer failed: {e}"));
                }
            }
            match client.stats() {
                Ok(doc) => match crate::json::parse(&doc) {
                    Ok(v) => {
                        if v.get("stats_version").and_then(crate::json::Json::as_num) != Some(1.0) {
                            fails.push("observability: stats_version missing or not 1".into());
                        }
                        if v.get("shards")
                            .and_then(crate::json::Json::as_arr)
                            .is_none()
                        {
                            fails.push("observability: stats snapshot lacks shards array".into());
                        }
                    }
                    Err(e) => fails.push(format!("observability: stats doc unparseable: {e}")),
                },
                Err(e) => fails.push(format!("observability: stats opcode failed: {e}")),
            }
        }
        Err(e) => fails.push(format!("observability: connect failed: {e}")),
    }
    let dump_dir = std::env::temp_dir().join(format!("rpbcm-smoke-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).ok();
    std::env::set_var("RPBCM_SERVE_SLO_DIR", &dump_dir);
    match server.dump_flight("smoke completeness check") {
        Ok((json_path, _trace_path)) => {
            let doc = std::fs::read_to_string(&json_path).unwrap_or_default();
            match crate::json::parse(&doc) {
                Ok(v) => check_dump_traces(&v, n, &mut fails),
                Err(e) => fails.push(format!("observability: flight dump unparseable: {e}")),
            }
        }
        Err(e) => fails.push(format!("observability: forced flight dump failed: {e}")),
    }
    server.shutdown();

    // 3. A violated SLO must produce a validated dump pair.
    let slo_cfg = ServeConfig {
        slo_p99_us: 1,
        ..cfg
    };
    let server = Server::bind("127.0.0.1:0", slo_cfg, demo_registry(42)).expect("bind");
    if let Ok(mut client) = Client::connect(server.local_addr()) {
        for _ in 0..4 {
            client.infer_f32("demo", &sample).ok();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let dumps = loop {
        let dumps = server.flight_dumps();
        if !dumps.is_empty() || Instant::now() >= deadline {
            break dumps;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    match dumps.first() {
        None => fails.push("observability: SLO watchdog produced no dump within 5s".into()),
        Some((json_path, trace_path)) => {
            let doc = std::fs::read_to_string(json_path).unwrap_or_default();
            match crate::json::parse(&doc) {
                Ok(v) => {
                    let reason = v
                        .get("reason")
                        .and_then(crate::json::Json::as_str)
                        .unwrap_or("");
                    if !reason.contains("exceeds SLO") {
                        fails.push(format!(
                            "observability: SLO dump reason does not name the violation: {reason:?}"
                        ));
                    }
                }
                Err(e) => fails.push(format!("observability: SLO dump unparseable: {e}")),
            }
            let trace = std::fs::read_to_string(trace_path).unwrap_or_default();
            match crate::json::parse(&trace) {
                Ok(v) => {
                    if v.get("traceEvents")
                        .and_then(crate::json::Json::as_arr)
                        .is_none_or(<[crate::json::Json]>::is_empty)
                    {
                        fails.push("observability: SLO chrome trace has no events".into());
                    }
                }
                Err(e) => fails.push(format!("observability: chrome trace unparseable: {e}")),
            }
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dump_dir).ok();
    fails
}

/// Validates the `"traces"` array of a flight dump: exactly `n` records,
/// each with all seven stamps present, positive, and non-decreasing.
fn check_dump_traces(dump: &crate::json::Json, n: usize, fails: &mut Vec<String>) {
    let Some(traces) = dump.get("traces").and_then(crate::json::Json::as_arr) else {
        fails.push("observability: flight dump lacks a traces array".into());
        return;
    };
    if traces.len() != n {
        fails.push(format!(
            "observability: expected {n} complete traces, dump holds {}",
            traces.len()
        ));
    }
    for t in traces {
        let mut prev = 0.0f64;
        for stage in telemetry::flight::STAGE_NAMES {
            let key = format!("{stage}_ns");
            match t.get(&key).and_then(crate::json::Json::as_num) {
                Some(v) if v > 0.0 && v >= prev => prev = v,
                Some(v) => {
                    fails.push(format!(
                        "observability: trace stamp {key} = {v} out of order (prev {prev})"
                    ));
                    break;
                }
                None => {
                    fails.push(format!("observability: trace lacks stamp {key}"));
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A passing session-lane measurement for result-literal tests.
    fn good_session_lane() -> SessionLaneMeasurement {
        SessionLaneMeasurement {
            sessions: 8,
            rounds: 32,
            steps: 224,
            float_scalar_ns: 4000,
            float_lane_ns: 3000,
            fx_scalar_ns: 4000,
            fx_lane_ns: 2500,
            speedup: 1.45,
            bit_identical: 1,
        }
    }

    /// A passing streaming-scenario measurement for result-literal tests.
    fn good_streaming() -> StreamingMeasurement {
        StreamingMeasurement {
            sessions: 64,
            steps: 4096,
            served: 4096,
            protocol_errors: 0,
            throughput_sps: 4000.0,
            p50_us: 200.0,
            p99_us: 900.0,
            float_bit_identical: 1,
            fx_bit_identical: 1,
        }
    }

    /// A passing 10k-scenario measurement for result-literal tests.
    fn good_ten_k() -> TenKMeasurement {
        TenKMeasurement {
            connections: TEN_K_CONNS as u64,
            requests: 11_000,
            served: 11_000,
            shed: 0,
            rejected: 0,
            lost: 0,
            protocol_errors: 0,
            p50_us: 900.0,
            p99_us: 40_000.0,
            shard_conns: vec![2500, 2500, 2500, 2500],
            shard_imbalance: 0,
        }
    }

    #[test]
    fn demo_model_has_fx_mirror_and_pruning() {
        let (net, meta) = demo_model(42);
        assert!(net.bcm_sparsity() > 0.4);
        let model = Model::from_network("demo", net, meta);
        assert!(model.fx().is_some());
        assert_eq!(model.input_len(), DEMO_INPUT_LEN);
        assert_eq!(model.output_len(), DEMO_INPUT_LEN);
    }

    #[test]
    fn json_shape_is_stable() {
        let r = ServeResult {
            measurements: vec![ServeMeasurement {
                config: "x".into(),
                requests: 10,
                served: 8,
                shed: 2,
                protocol_errors: 0,
                throughput_rps: 123.4,
                p50_us: 10.0,
                p99_us: 20.0,
            }],
            batch_speedup: 2.5,
            engine: EngineMeasurement {
                scalar_ns: 1000,
                lane_ns: 500,
                speedup: 2.0,
            },
            ten_k: good_ten_k(),
            streaming: good_streaming(),
            session_lane: good_session_lane(),
        };
        let j = r.to_json();
        assert!(j.contains("\"config\": \"x\""));
        assert!(j.contains("\"served\": 8"));
        assert!(j.contains("\"config\": \"open_loop_10k_conns\""));
        assert!(j.contains("\"connections\": 10000"));
        assert!(j.contains("\"shard_imbalance\": 0"));
        assert!(j.contains("\"config\": \"streaming_sessions\""));
        assert!(j.contains("\"float_bit_identical\": 1"));
        assert!(j.contains("\"fx_bit_identical\": 1"));
        assert!(j.contains("\"throughput_ratio_b8_over_b1\": 2.500"));
        assert!(j.contains("\"config\": \"engine_fx_lane\""));
        assert!(j.contains("\"lane_ns\": 500"));
        assert!(j.contains("\"config\": \"session_lane\""));
        assert!(j.contains("\"speedup\": 1.450"));
        assert!(j.contains("\"bit_identical\": 1"));
        assert!(j.starts_with('[') && j.ends_with(']'));
        // The artifact must parse with the workspace JSON reader.
        crate::json::parse(&j).expect("artifact is valid JSON");
    }

    #[test]
    fn percentiles_interpolate_sanely() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert!((percentile_us(&ns, 0.5) - 51.0).abs() < 2.0);
        assert!((percentile_us(&ns, 0.99) - 99.0).abs() < 2.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn smoke_failures_flag_protocol_errors_and_empty_runs() {
        let good = ServeMeasurement {
            config: "closed_loop_fx_b1_c16".into(),
            requests: 4,
            served: 4,
            shed: 0,
            protocol_errors: 0,
            throughput_rps: 10.0,
            p50_us: 1.0,
            p99_us: 2.0,
        };
        let mut b8 = good.clone();
        b8.config = "closed_loop_fx_b8_c16".into();
        let mut overload = good.clone();
        overload.config = "open_loop_overload_2x".into();
        overload.shed = 2;
        let r = ServeResult {
            measurements: vec![good.clone(), b8, overload],
            batch_speedup: 2.0,
            engine: EngineMeasurement {
                scalar_ns: 1000,
                lane_ns: 500,
                speedup: 2.0,
            },
            ten_k: good_ten_k(),
            streaming: good_streaming(),
            session_lane: good_session_lane(),
        };
        assert!(smoke_failures(&r).is_empty());

        let mut bad = r.clone();
        bad.measurements[0].protocol_errors = 1;
        bad.measurements[1].served = 0;
        bad.measurements[2].shed = 0;
        bad.engine.speedup = 0.8;
        let fails = smoke_failures(&bad);
        assert_eq!(fails.len(), 4, "{fails:?}");

        let mut badlane = r.clone();
        badlane.session_lane.float_lane_ns = 0;
        badlane.session_lane.bit_identical = 0;
        badlane.session_lane.speedup = 0.7;
        let fails = smoke_failures(&badlane);
        assert_eq!(fails.len(), 3, "{fails:?}");

        let mut bad10k = r.clone();
        bad10k.ten_k.connections = 9_000;
        bad10k.ten_k.lost = 3;
        bad10k.ten_k.shard_imbalance = 7;
        bad10k.ten_k.p99_us = 2e6;
        let fails = smoke_failures(&bad10k);
        assert_eq!(fails.len(), 4, "{fails:?}");

        let mut badstream = r.clone();
        badstream.streaming.served = 500;
        badstream.streaming.protocol_errors = 2;
        badstream.streaming.float_bit_identical = 0;
        badstream.streaming.fx_bit_identical = 0;
        let fails = smoke_failures(&badstream);
        assert_eq!(fails.len(), 4, "{fails:?}");
    }

    #[test]
    fn drive_outcome_json_round_trips() {
        let d = DriveOutcome {
            connections: 10_000,
            requests: 11_250,
            served: 11_249,
            shed: 1,
            rejected: 0,
            lost: 0,
            p50_ns: 800_000,
            p99_ns: 9_500_000,
            wall_ms: 4_200,
        };
        assert_eq!(DriveOutcome::parse(&d.to_json_line()), Some(d));
    }
}
