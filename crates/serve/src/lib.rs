//! rpbcm-serve: an event-driven, sharded inference serving engine over
//! the pruned-BCM fast path.
//!
//! The RP-BCM accelerator's throughput story (§V) assumes work arrives in
//! batches that keep the datapath busy; this crate supplies the software
//! side of that story at production connection counts. A nonblocking
//! acceptor deals connections to thread-per-core **reactor shards**
//! (readiness loops over `epoll`/`poll` — see [`reactor`]); each shard
//! parses requests zero-copy out of pooled per-connection buffers and
//! feeds its own dynamic micro-batching scheduler (dispatching when a
//! batch fills to `B` or its oldest request has waited `T`). Batches
//! execute through either
//!
//! - the **float path** — an eval `Network::forward` over each BCM
//!   layer's cached weights (dense im2col GEMM for convolutions, spectral
//!   `matmat` for linear and recurrent layers), or
//! - the **fixed-point datapath** ("FPGA mode") — the [`hwsim`] 16-bit
//!   eMAC pipeline, when the deployed model is a stride-1 BCM conv stack.
//!
//! Batching never changes results: every op in both stacks treats batch
//! samples independently, so a batched reply is bit-identical to serving
//! the request alone (the loopback e2e tests assert exactly this).
//!
//! # Anatomy
//!
//! - [`protocol`] — the wire format: length-prefixed binary frames
//!   behind an `RPBS` handshake, plus a line-delimited JSON debug mode.
//!   The normative byte-level spec lives in [`spec`] (compiled from
//!   `docs/PROTOCOL.md`, so its examples cannot rot).
//! - [`registry`] — deployed [`Model`]s (loaded from `.rpbcm`
//!   checkpoints or wrapped in process) with **versioned hot swap**:
//!   publishing under an existing name atomically flips which weights
//!   new requests resolve while in-flight requests finish on the old
//!   version.
//! - [`reactor`] — the std-only readiness layer (`epoll` on Linux,
//!   `poll` elsewhere on Unix) plus its cross-thread [`reactor::Waker`].
//! - [`batcher`] — the bounded-queue micro-batching scheduler with
//!   explicit `overloaded` shedding and graceful drain; one per shard.
//! - [`quota`] — per-tenant in-flight admission quotas behind the
//!   `hello` opcode.
//! - [`server`] / [`client`] — the sharded TCP front end and its
//!   blocking reference client.
//! - [`config`] — `RPBCM_SERVE_*` environment knobs (operator guide:
//!   `docs/OPERATIONS.md`).
//!
//! # Observability
//!
//! Every admitted request carries a [`telemetry::flight::FlightRecord`]:
//! a trace id plus seven lifecycle stamps (parse, admit, enqueue,
//! batch-formed, infer-start, infer-end, reply-flushed) taken as it
//! moves shard → batcher → socket, finalized into per-shard bounded
//! lock-free flight rings when the reply bytes actually flush. Three
//! surfaces expose them:
//!
//! - the **`stats` opcode** — a versioned JSON snapshot (config, model
//!   catalog, quota state, per-shard queue depth and stage-latency
//!   summaries, full telemetry report) over the wire via
//!   [`Client::stats`] or [`Server::stats_snapshot`];
//! - the **SLO watchdog** — armed by `RPBCM_SERVE_SLO_P99_US` /
//!   `RPBCM_SERVE_SLO_SHED_PCT`, it dumps the recent traces plus a
//!   stats snapshot to a timestamped JSON file and a Perfetto-openable
//!   Chrome-trace twin on violation ([`Server::dump_flight`] forces
//!   one);
//! - the **`serve.stage.*` histograms** — per-interval lifecycle
//!   latencies in the workspace [`telemetry`] registry, next to the
//!   existing `serve.*` counters, queue gauges and per-shard
//!   `serve.shard.*` load counters, all surfaced in the bench harness
//!   dumps.
//!
//! Tracing obeys the workspace telemetry contract: it only ever counts
//! and stamps — replies are bit-identical with tracing on or off.
//!
//! # Example
//!
//! ```no_run
//! use serve::{Client, Model, Registry, ServeConfig, Server};
//!
//! let registry = Registry::new();
//! registry.load_file(std::path::Path::new("model.rpbcm")).unwrap();
//! let server = Server::bind("127.0.0.1:0", ServeConfig::from_env(), registry).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let output = client.infer_f32("model", &vec![0.0; 3 * 16 * 16]).unwrap();
//! println!("{} logits", output.len());
//!
//! // Hot swap: publish a new version under the same name. In-flight
//! // requests finish on the old weights; new requests get the new ones.
//! let v2 = Model::load_file(std::path::Path::new("model-v2.rpbcm")).unwrap();
//! server.registry().publish(v2);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

mod metrics;
mod shard;
mod stats;

pub mod batcher;
pub mod client;
pub mod config;
pub mod conn;
pub mod protocol;
pub mod quota;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod session;
pub mod spec;

pub use batcher::{Batcher, SubmitError};
pub use client::{Client, ClientError};
pub use config::ServeConfig;
pub use protocol::{Payload, Request, Response, Status};
pub use quota::{QuotaGuard, QuotaTable};
pub use registry::{FxModel, Model, ModelEntry, ModelInfo, Registry};
pub use server::Server;
pub use session::{FxSeqRunner, FxSeqRunnerBatch, SeqModel};
