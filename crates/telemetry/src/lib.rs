//! Unified telemetry for the RP-BCM hot paths: counters, gauges and span
//! timers behind one global registry, with a structured JSON report.
//!
//! CirCNN and E-RNN motivate their FPGA designs with per-stage
//! FFT/eMAC/IFFT breakdowns; this crate makes the same breakdowns
//! first-class and machine-readable for the software reproduction. Every
//! hot path in the workspace (FFT plan cache, spectral weight cache,
//! `tensor::parallel` workers, hwsim per-phase cycles, skip-index
//! effectiveness) reports through probes defined here, and the `exp_*`
//! benchmark binaries dump the registry as `results/TELEMETRY_*.json`.
//!
//! # Gating: one run-time switch
//!
//! Probes are always compiled in. The `RPBCM_TELEMETRY` environment
//! variable (read once per process; `1`, `true` or `on` enable) switches
//! them on. While disabled, a probe call is a single relaxed atomic load
//! and an untaken branch, and the registry stays empty. [`set_enabled`]
//! overrides the variable for tests and tools.
//!
//! All `RPBCM_*` environment variables across the workspace (including
//! `RPBCM_THREADS` in `tensor` and the `RPBCM_SERVE_*` family in `serve`)
//! are parsed through the [`mod@env`] module: malformed values fall back to
//! the documented default with a one-line stderr warning instead of
//! panicking or silently misbehaving.
//!
//! Telemetry only ever *counts* — it never changes an algorithm's
//! arithmetic, allocation pattern or iteration order — so outputs are
//! bit-identical whether it is enabled or disabled. The hwsim property
//! tests lock this in.
//!
//! # Probes
//!
//! Probes are `const`-constructible statics, so instrumentation sites pay
//! no registration cost until first use:
//!
//! ```
//! static HITS: telemetry::Counter = telemetry::Counter::new("demo.cache.hits");
//!
//! telemetry::set_enabled(true);
//! HITS.inc();
//! HITS.add(2);
//! assert_eq!(HITS.value(), 3);
//! # telemetry::clear_override();
//! ```
//!
//! Dynamic names (for per-layer or per-experiment metrics such as the
//! accounting, training and power reports) go through [`record_counter`],
//! [`record_gauge`], [`record_timer_ns`] and [`record_histogram`].
//!
//! # Histograms
//!
//! Where a [`Timer`] keeps only totals, a [`Histogram`] keeps a lock-free
//! log₂-bucketed distribution (65 power-of-two buckets plus exact
//! count/sum/max), so reports can show p50/p90/p99 tail latencies of the
//! FFT, eMAC and worker hot paths. [`Histogram::span`] measures a scope
//! in nanoseconds just like [`Timer::span`].
//!
//! # Reports
//!
//! [`snapshot`] captures every registered metric; [`report_json`] renders
//! the snapshot as a stable JSON document (hand-rolled: the workspace is
//! std-only; keys sorted, so identical registry contents yield
//! byte-identical reports) and [`write_report`] writes it to disk:
//!
//! ```json
//! {
//!   "enabled": true,
//!   "counters": { "fft.plan_cache.hits": 4096 },
//!   "gauges": { "tensor.parallel.max_partition_imbalance": 1.0 },
//!   "timers": { "tensor.parallel.scope_wall": { "count": 32, "total_ns": 180000 } },
//!   "histograms": { "fft.forward_ns": { "count": 4096, "sum": 812000,
//!     "max": 4096, "p50": 127, "p90": 255, "p99": 511 } }
//! }
//! ```
//!
//! # Chrome-trace export
//!
//! The [`trace_span`] / [`trace_cycle_process`] / [`trace_complete_cycles`]
//! family buffers events into bounded per-thread rings and renders them as
//! a Chrome trace-event JSON document ([`trace_json`]) loadable in
//! Perfetto: wall-clock spans for the software hot paths on one process
//! track, and `hwsim::timeline`'s modeled FFT/eMAC/IFFT pipeline schedule
//! replayed as a second clock domain (1 cycle = 1 µs). Enabled by setting
//! `RPBCM_TRACE=<path>`; the `exp_*` binaries call [`flush_trace`] on exit
//! to write the file.
//!
//! # Flight recorder
//!
//! The [`mod@flight`] module holds per-request lifecycle trace records
//! for the serving tier: a fixed-size seven-stamp
//! [`flight::FlightRecord`] per admitted request, pushed into bounded
//! lock-free per-shard [`flight::FlightRing`]s, rendered as JSON or as
//! a Perfetto-openable Chrome trace for the SLO flight-recorder dump.

#![deny(missing_docs)]

pub mod env;
pub mod flight;
pub mod fnv;
mod probe;
mod registry;
mod report;
mod trace;

pub use probe::{
    Counter, Gauge, Histogram, HistogramSpan, OwnedCounter, OwnedGauge, OwnedHistogram, Span, Timer,
};
pub use registry::{
    clear_override, enabled, record_counter, record_gauge, record_histogram, record_timer_ns,
    reset, set_enabled,
};
pub use report::{report_json, snapshot, write_report, HistogramStat, Snapshot, TimerStat};
pub use trace::{
    clear_trace_override, flush_trace, reset_trace, set_trace_enabled, trace_complete_cycles,
    trace_cycle_process, trace_dropped, trace_enabled, trace_json, trace_span, write_trace,
    TraceSpan,
};
