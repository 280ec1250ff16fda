//! Serving configuration and its `RPBCM_SERVE_*` environment knobs.

use std::time::Duration;

/// Tunables of the sharded reactor and micro-batching scheduler.
///
/// Defaults come from [`ServeConfig::default`]; [`ServeConfig::from_env`]
/// overlays the `RPBCM_SERVE_*` environment variables (parsed through
/// [`telemetry::env`], so malformed values fall back with a one-line
/// warning instead of panicking):
///
/// | Variable                   | Meaning                             | Default |
/// |----------------------------|-------------------------------------|---------|
/// | `RPBCM_SERVE_BATCH`        | max batch size B                    | 8       |
/// | `RPBCM_SERVE_MAX_WAIT_US`  | batch-fill deadline T (µs)          | 2000    |
/// | `RPBCM_SERVE_QUEUE_CAP`    | per-shard admission queue bound     | 64      |
/// | `RPBCM_SERVE_SHARDS`       | reactor shard count                 | cores, capped at 8 |
/// | `RPBCM_SERVE_TENANT_QUOTA` | per-tenant in-flight cap (0 = none) | 0       |
/// | `RPBCM_SERVE_SLO_P99_US`   | p99 latency SLO (µs, 0 = off)       | 0       |
/// | `RPBCM_SERVE_SLO_SHED_PCT` | shed-rate SLO (%, 0 = off)          | 0       |
/// | `RPBCM_SERVE_SLO_DIR`      | flight-recorder dump directory      | `.`     |
/// | `RPBCM_SERVE_SESSION_TTL_MS` | idle-session expiry (ms, 0 = never) | 60000 |
/// | `RPBCM_SERVE_SESSION_CAP`  | max open sessions server-wide       | 1024    |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests per dispatched batch (B). A batch launches as
    /// soon as B same-model, same-mode requests are queued.
    pub batch_size: usize,
    /// How long the scheduler holds an incomplete batch open after its
    /// first request arrives (T) before dispatching it short.
    pub max_wait: Duration,
    /// Bounded-queue admission limit **per shard**: a request arriving
    /// while the shard's queue holds this many entries is shed with an
    /// explicit `overloaded` reply instead of being buffered.
    pub queue_cap: usize,
    /// Reactor shard count. Each shard is one event-loop thread plus
    /// one batch worker; connections are dealt to shards round-robin.
    /// Clamped to at least 1.
    pub shards: usize,
    /// Per-tenant in-flight request cap. `0` disables enforcement
    /// (in-flight counts are still tracked); a positive value makes the
    /// `quota_exceeded` status live (see [`crate::quota`]).
    pub tenant_quota: usize,
    /// p99 request-latency SLO in microseconds. `0` disables the
    /// watchdog check; a positive value arms the SLO watchdog thread,
    /// which dumps a flight-recorder snapshot when the observed p99
    /// (over recent completed traces) exceeds it. Requires telemetry
    /// (`RPBCM_TELEMETRY=1`) — without it no traces are recorded and
    /// the watchdog sees nothing.
    pub slo_p99_us: usize,
    /// Shed-rate SLO in percent (shed / offered over the watchdog
    /// window). `0` disables the check; see [`ServeConfig::slo_p99_us`]
    /// for the telemetry requirement. The dump directory comes from
    /// `RPBCM_SERVE_SLO_DIR` (default: the working directory), read at
    /// dump time.
    pub slo_shed_pct: usize,
    /// Idle streaming-session time-to-live: a session untouched for this
    /// long is expired by its shard's sweep (its next `session_step`
    /// answers `bad_request`, and its quota slot is released). `0`
    /// disables expiry — sessions then live until closed or their
    /// connection drops.
    pub session_ttl: Duration,
    /// Server-wide cap on concurrently open streaming sessions; an open
    /// past the cap is refused with `overloaded`. Clamped to at least 1.
    pub session_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_size: 8,
            max_wait: Duration::from_micros(2000),
            queue_cap: 64,
            shards: default_shards(),
            tenant_quota: 0,
            slo_p99_us: 0,
            slo_shed_pct: 0,
            session_ttl: Duration::from_millis(60_000),
            session_cap: 1024,
        }
    }
}

/// One shard per available core, capped at 8 — past that, loopback
/// serving is batcher-bound, not reactor-bound.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

impl ServeConfig {
    /// The defaults overlaid with any `RPBCM_SERVE_*` variables set in
    /// the environment (see the type-level table).
    pub fn from_env() -> Self {
        let d = ServeConfig::default();
        ServeConfig {
            batch_size: telemetry::env::usize_or("RPBCM_SERVE_BATCH", d.batch_size).max(1),
            max_wait: Duration::from_micros(telemetry::env::usize_or(
                "RPBCM_SERVE_MAX_WAIT_US",
                d.max_wait.subsec_micros() as usize,
            ) as u64),
            queue_cap: telemetry::env::usize_or("RPBCM_SERVE_QUEUE_CAP", d.queue_cap).max(1),
            shards: telemetry::env::usize_or("RPBCM_SERVE_SHARDS", d.shards).max(1),
            tenant_quota: telemetry::env::usize_or("RPBCM_SERVE_TENANT_QUOTA", d.tenant_quota),
            slo_p99_us: telemetry::env::usize_or("RPBCM_SERVE_SLO_P99_US", d.slo_p99_us),
            slo_shed_pct: telemetry::env::usize_or("RPBCM_SERVE_SLO_SHED_PCT", d.slo_shed_pct),
            session_ttl: Duration::from_millis(telemetry::env::usize_or(
                "RPBCM_SERVE_SESSION_TTL_MS",
                d.session_ttl.as_millis() as usize,
            ) as u64),
            session_cap: telemetry::env::usize_or("RPBCM_SERVE_SESSION_CAP", d.session_cap).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.batch_size >= 1);
        assert!(c.queue_cap >= c.batch_size);
        assert!(c.max_wait > Duration::ZERO);
        assert!(c.shards >= 1);
        assert_eq!(c.tenant_quota, 0);
        assert_eq!(c.slo_p99_us, 0, "SLO watchdog is off by default");
        assert_eq!(c.slo_shed_pct, 0, "SLO watchdog is off by default");
        assert_eq!(c.session_ttl, Duration::from_millis(60_000));
        assert!(c.session_cap >= 1);
    }
}
