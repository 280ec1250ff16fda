//! The four workloads. Each one builds its inputs from the run's seed,
//! measures, and checks every output it receives.

pub mod float_swap;
pub mod fx_infer;
pub mod prune_pipeline;
pub mod serving;
pub mod session_stream;

use serve::Server;

use crate::gen::Generator;
use crate::stats::Summary;
use crate::trace::Spans;

/// Workload names: the three `BENCHMARK.json` gates, in its order, then
/// `prune_pipeline`, which runs on request only (see `README.md`).
pub const NAMES: [&str; 4] = ["fx_infer", "session_stream", "float_swap", "prune_pipeline"];

/// Per-run context shared by the workload and the layer replay.
pub struct Ctx {
    /// The workload seed from the command line.
    pub seed: u64,
    /// Measurement length from the command line.
    pub seconds: f64,
    /// The benchmark's own spans (kept only in traced runs).
    pub spans: Spans,
    /// Root span id of the run.
    pub root: u64,
    /// When the root span started.
    pub root_start: std::time::Instant,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Ctx {
        let mut spans = Spans::new(trace);
        let (root, root_start) = spans.open();
        Ctx {
            seed,
            seconds,
            spans,
            root,
            root_start,
            notes: Vec::new(),
        }
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A server still running after its workload, with the generator's
/// connections, so the traced run can read its `stats` snapshot.
pub struct Live {
    /// The in-process server.
    pub server: Server,
    /// The generator that drove it.
    pub gen: Generator,
}

impl Live {
    /// Closes the connections and stops the server.
    pub fn stop(self) {
        drop(self.gen);
        self.server.shutdown();
    }
}

/// Timings and counts of the prune pipeline, for its per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineFacts {
    /// Median `Trainer::fit` wall time, s.
    pub fit_s: f64,
    /// Training samples per second of `fit`.
    pub samples_per_s: f64,
    /// Median `BcmWisePruner::run` wall time, s.
    pub prune_s: f64,
    /// Accepted rounds ÷ rounds.
    pub accepted_frac: f64,
    /// Median `Model::from_network` wall time of the folded network, ms.
    pub model_build_ms: f64,
}

/// What one workload run measured.
pub struct Outcome {
    /// Operations attempted, set-up probes included.
    pub attempted: u64,
    /// Operations failed: error status, wrong output, or no reply.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Set-up wall time per round, s.
    pub setup_s: Summary,
    /// Completed operations per second.
    pub throughput: Summary,
    /// Per-operation latency, µs.
    pub latency_us: Summary,
    /// p99 latency, when at least ten samples lie beyond it.
    pub latency_p99_us: Option<f64>,
    /// p99 of open-loop send − due, µs.
    pub lag_p99_us: Option<f64>,
    /// The workload's latency limit, µs.
    pub latency_limit_us: Option<f64>,
    /// The server, for serving workloads.
    pub live: Option<Live>,
    /// Pipeline facts, for `prune_pipeline`.
    pub pipeline: Option<PipelineFacts>,
}

impl Outcome {
    /// Whether the generator kept its schedule: a run whose p99 lag
    /// exceeds the latency limit measured the generator, not the server.
    pub fn valid(&self) -> bool {
        match (self.lag_p99_us, self.latency_limit_us) {
            (Some(lag), Some(limit)) => lag <= limit,
            _ => true,
        }
    }
}

/// Runs workload `name`.
///
/// # Panics
///
/// Panics on an unknown name (the command line checks names first).
pub fn run(name: &str, ctx: &mut Ctx) -> Outcome {
    match name {
        "fx_infer" => fx_infer::run(ctx),
        "session_stream" => session_stream::run(ctx),
        "float_swap" => float_swap::run(ctx),
        "prune_pipeline" => prune_pipeline::run(ctx),
        other => panic!("unknown workload {other}"),
    }
}
