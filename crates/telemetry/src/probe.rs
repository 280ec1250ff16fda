//! Statically named probes: the `const`-constructible handles that
//! instrumentation sites embed as `static`s.

use crate::registry::{
    enabled, gauge_bits, gauge_value, registry, HistCell, TimerCell, GAUGE_UNWRITTEN,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A monotonically increasing event counter.
///
/// The registry handle is resolved lazily on first use and cached, so the
/// steady-state cost of [`Counter::add`] is one enabled-check plus one
/// relaxed `fetch_add` — and nothing at all while telemetry is disabled.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<AtomicU64>>,
}

impl Counter {
    /// Creates a probe for the metric `name` (usable in `static` items).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<AtomicU64> {
        self.cell.get_or_init(|| registry().counter(self.name))
    }

    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The counter's current value (registers the metric if needed).
    pub fn value(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

/// A last-written-value metric with a high-water-mark variant.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<Arc<AtomicU64>>,
}

impl Gauge {
    /// Creates a probe for the metric `name` (usable in `static` items).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<AtomicU64> {
        self.cell.get_or_init(|| registry().gauge(self.name))
    }

    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.cell().store(gauge_bits(v), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the stored value, or records
    /// `v` unconditionally if the gauge has never been written — so the
    /// first observed maximum sticks even when it is negative. NaN inputs
    /// are ignored. No-op while telemetry is disabled.
    #[inline]
    pub fn set_max(&self, v: f64) {
        if enabled() && !v.is_nan() {
            let cell = self.cell();
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let stored = f64::from_bits(cur);
                // `stored.is_nan()` also covers the unwritten sentinel.
                if !(cur == GAUGE_UNWRITTEN || stored.is_nan() || v > stored) {
                    break;
                }
                match cell.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The gauge's current value: the last value written, or `0.0` if the
    /// gauge has never been written (registers the metric if needed).
    pub fn value(&self) -> f64 {
        gauge_value(self.cell().load(Ordering::Relaxed))
    }
}

/// An accumulating duration metric: total nanoseconds plus a recording
/// count, fed either directly ([`Timer::add_ns`]) or by scoped
/// [`Span`] guards.
pub struct Timer {
    name: &'static str,
    cell: OnceLock<Arc<TimerCell>>,
}

impl Timer {
    /// Creates a probe for the metric `name` (usable in `static` items).
    pub const fn new(name: &'static str) -> Self {
        Timer {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<TimerCell> {
        self.cell.get_or_init(|| registry().timer(self.name))
    }

    /// Records one measurement of `ns` nanoseconds (no-op while telemetry
    /// is disabled).
    #[inline]
    pub fn add_ns(&self, ns: u64) {
        if enabled() {
            let cell = self.cell();
            cell.ns.fetch_add(ns, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts a scoped measurement; the elapsed time is recorded when the
    /// returned guard drops. While telemetry is disabled the guard is
    /// inert and no clock is read.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            inner: enabled().then(|| (self, Instant::now())),
        }
    }

    /// Total recorded nanoseconds (registers the metric if needed).
    pub fn total_ns(&self) -> u64 {
        self.cell().ns.load(Ordering::Relaxed)
    }

    /// Number of recordings (registers the metric if needed).
    pub fn count(&self) -> u64 {
        self.cell().count.load(Ordering::Relaxed)
    }
}

/// Guard returned by [`Timer::span`]; records the elapsed time into its
/// timer on drop.
pub struct Span<'a> {
    inner: Option<(&'a Timer, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.inner.take() {
            timer.add_ns(start.elapsed().as_nanos() as u64);
        }
    }
}

/// A lock-free log₂-bucketed latency/size distribution.
///
/// Where a [`Timer`] keeps only a total and a count, a `Histogram` keeps
/// 65 power-of-two buckets plus exact count/sum/max, so the report can
/// estimate p50/p90/p99 tail latencies. Recording is a handful of relaxed
/// `fetch_add`s — no locks — so concurrent `tensor::parallel` workers
/// merge losslessly. Same gating as every other probe: a single untaken
/// branch while `RPBCM_TELEMETRY` is unset.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<Arc<HistCell>>,
}

impl Histogram {
    /// Creates a probe for the metric `name` (usable in `static` items).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<HistCell> {
        self.cell.get_or_init(|| registry().histogram(self.name))
    }

    /// Records one observation of `v` (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.cell().record(v);
        }
    }

    /// Starts a scoped latency measurement; the elapsed nanoseconds are
    /// recorded as one observation when the returned guard drops. While
    /// telemetry is disabled the guard is inert and no clock is read.
    #[inline]
    pub fn span(&self) -> HistogramSpan<'_> {
        HistogramSpan {
            inner: enabled().then(|| (self, Instant::now())),
        }
    }

    /// Number of recorded observations (registers the metric if needed).
    pub fn count(&self) -> u64 {
        self.cell().count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations (registers the metric if needed).
    pub fn sum(&self) -> u64 {
        self.cell().sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (registers the metric if needed).
    pub fn max(&self) -> u64 {
        self.cell().max.load(Ordering::Relaxed)
    }
}

/// Guard returned by [`Histogram::span`]; records the elapsed nanoseconds
/// into its histogram on drop.
pub struct HistogramSpan<'a> {
    inner: Option<(&'a Histogram, Instant)>,
}

impl Drop for HistogramSpan<'_> {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// A counter with a runtime-constructed name, for metric families whose
/// cardinality is only known at startup (per-shard serving probes, per-
/// worker pools). The registry cell is resolved **once** at construction,
/// so the steady-state cost matches the `static` [`Counter`]: one
/// enabled-check plus one relaxed `fetch_add`.
pub struct OwnedCounter {
    cell: Arc<AtomicU64>,
}

impl OwnedCounter {
    /// Creates (and registers) a probe for the metric `name`.
    pub fn new(name: &str) -> Self {
        OwnedCounter {
            cell: registry().counter(name),
        }
    }

    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The counter's current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge with a runtime-constructed name (see [`OwnedCounter`]).
pub struct OwnedGauge {
    cell: Arc<AtomicU64>,
}

impl OwnedGauge {
    /// Creates (and registers) a probe for the metric `name`.
    pub fn new(name: &str) -> Self {
        OwnedGauge {
            cell: registry().gauge(name),
        }
    }

    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.cell.store(gauge_bits(v), Ordering::Relaxed);
        }
    }

    /// The gauge's current value (`0.0` if never written).
    pub fn value(&self) -> f64 {
        gauge_value(self.cell.load(Ordering::Relaxed))
    }
}

/// A histogram with a runtime-constructed name (see [`OwnedCounter`]).
pub struct OwnedHistogram {
    cell: Arc<HistCell>,
}

impl OwnedHistogram {
    /// Creates (and registers) a probe for the metric `name`.
    pub fn new(name: &str) -> Self {
        OwnedHistogram {
            cell: registry().histogram(name),
        }
    }

    /// Records one observation of `v` (no-op while telemetry is
    /// disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.cell.record(v);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }
}
