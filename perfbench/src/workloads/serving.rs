//! The shape every serving workload shares: timed set-up rounds, then a
//! closed-loop saturation phase and an open-loop phase at a constant
//! rate, all against an in-process server.

use std::time::{Duration, Instant};

use serve::{Model, Registry, ServeConfig, Server};

use super::{Ctx, Live, Outcome};
use crate::gen::{Generator, Load, Phase, Traffic, CONNS};
use crate::stats::{self, Summary};

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// Slices of the closed-loop phase; `throughput_ops_s` is the median of
/// their rates.
const WINDOWS: usize = 16;

/// Shares of `--seconds`: warm-up (closed loop, not scored), closed-loop
/// saturation, open loop.
const WARMUP_SHARE: f64 = 0.05;
const CLOSED_SHARE: f64 = 0.60;
const OPEN_SHARE: f64 = 0.35;

/// One serving workload's load constants. None of them is derived from a
/// measurement made in the same run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Closed loop: requests in flight per connection.
    pub window: usize,
    /// Open loop: offered operations per second.
    pub open_rate: f64,
    /// Latency limit, µs. A run whose generator ran later than this (p99
    /// of send − due) is invalid.
    pub latency_limit_us: f64,
}

/// The server configuration every serving workload uses: the defaults,
/// with one shard per generator connection.
pub fn config() -> ServeConfig {
    ServeConfig {
        shards: CONNS,
        ..ServeConfig::default()
    }
}

/// Length-prefixes one encoded request.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + body.len());
    f.extend_from_slice(
        &u32::try_from(body.len())
            .expect("frame fits u32")
            .to_le_bytes(),
    );
    f.extend_from_slice(body);
    f
}

/// A short failure reason for a reply that was not the expected output.
pub fn describe_mismatch(what: &str, body: &[u8]) -> String {
    match body.first() {
        Some(0) => format!("{what}: output differs from the offline reference"),
        Some(&code) => format!(
            "{what}: status {code}: {}",
            String::from_utf8_lossy(body.get(5..).unwrap_or_default())
        ),
        None => format!("{what}: empty reply"),
    }
}

/// Runs set-up, warm-up, the closed-loop phase and the open-loop phase.
/// `build` makes a fresh model; set-up time covers it, the publish, the
/// bind, the connects and the first correct reply.
///
/// # Panics
///
/// Panics if the server cannot bind or the generator cannot connect.
pub fn run(
    ctx: &mut Ctx,
    plan: &Plan,
    build: &mut dyn FnMut() -> Model,
    traffic: &mut impl Traffic,
) -> Outcome {
    let mut total = Phase::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<Live> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let registry = Registry::new();
        registry.publish(build());
        let server = Server::bind("127.0.0.1:0", config(), registry).expect("bind server");
        let mut gen = Generator::connect(server.local_addr()).expect("connect generator");
        total.attempted += 1;
        if let Err(why) = gen.probe(traffic) {
            total.failed += 1;
            total.reasons.push(format!("set-up: {why}"));
        }
        let t1 = Instant::now();
        ctx.spans.record("setup", ctx.root, t0, t1);
        setups.push((t1 - t0).as_secs_f64());
        traffic.reset(server.registry());
        live = Some(Live { server, gen });
    }
    let mut live = live.expect("at least one set-up round");

    let secs = ctx.seconds;
    let phase = |ctx: &mut Ctx, gen: &mut Generator, traffic: &mut _, name, load, share: f64| {
        let t0 = Instant::now();
        let ph = gen.run(traffic, load, Duration::from_secs_f64(secs * share));
        ctx.spans.record(name, ctx.root, t0, Instant::now());
        ph
    };
    let closed_load = Load::Closed {
        window: plan.window,
    };
    let warm = phase(
        ctx,
        &mut live.gen,
        traffic,
        "warmup",
        closed_load,
        WARMUP_SHARE,
    );
    let closed = phase(
        ctx,
        &mut live.gen,
        traffic,
        "closed_loop",
        closed_load,
        CLOSED_SHARE,
    );
    let open = phase(
        ctx,
        &mut live.gen,
        traffic,
        "open_loop",
        Load::Open {
            rate: plan.open_rate,
        },
        OPEN_SHARE,
    );
    for ph in [&warm, &closed, &open] {
        total.absorb_counts(ph);
    }

    let rates = closed.window_rates(WINDOWS);
    let lat = stats::sorted(&open.latency_us);
    let lag = stats::sorted(&open.lag_us);
    ctx.note(format!(
        "closed loop: window {} x {CONNS} conns, {} ops in {:.2} s",
        plan.window, closed.ops, closed.seconds
    ));
    ctx.note(format!(
        "open loop: {:.0} ops/s offered, {} ops, latency limit {:.0} us",
        plan.open_rate, open.ops, plan.latency_limit_us
    ));
    if let Some(s) = Summary::of(&lag) {
        ctx.note(format!("open loop: generator lag us {s}"));
    }
    ctx.note(format!(
        "throughput windows ops/s: {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Outcome {
        attempted: total.attempted,
        failed: total.failed,
        reasons: total.reasons,
        setup_s: Summary::of(&setups).expect("set-up rounds ran"),
        throughput: Summary::of(&rates).expect("closed-loop windows"),
        latency_us: Summary::of(&lat).unwrap_or(Summary {
            n: 0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        }),
        latency_p99_us: stats::tail_percentile(&lat, 99.0),
        lag_p99_us: stats::tail_percentile(&lag, 99.0).or(lag.last().copied()),
        latency_limit_us: Some(plan.latency_limit_us),
        live: Some(live),
        pipeline: None,
    }
}
