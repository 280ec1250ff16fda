//! The `stats` introspection snapshot and the SLO-triggered flight
//! recorder.
//!
//! [`stats_json`] assembles the versioned JSON document returned by the
//! `stats` opcode (see `docs/PROTOCOL.md` §3.4): the server
//! configuration, the model catalog, per-tenant quota state, per-shard
//! load and queue state, per-shard stage-latency summaries computed
//! from the flight-recorder rings, and the full telemetry registry
//! report. The document is hand-rolled (the workspace is std-only) with
//! sorted, stable key order, so identical state renders identically.
//!
//! [`watchdog_loop`] is the SLO watchdog thread: while the server runs
//! it periodically checks the observed p99 lifecycle latency (from the
//! flight rings) against `slo_p99_us` and the shed rate over its window
//! against `slo_shed_pct`, and on a violation writes a flight-recorder
//! dump — a JSON file with the last completed traces plus a stats
//! snapshot, and a Chrome-trace twin openable in Perfetto (see
//! `docs/OPERATIONS.md` §8). Both checks need telemetry enabled
//! (`RPBCM_TELEMETRY=1`): without it no traces are recorded and the
//! watchdog stays quiet by design.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use telemetry::flight::{self, FlightRecord, INTERVAL_NAMES, STAMP_FLUSH};

use crate::metrics;
use crate::server::ServerShared;
use crate::shard::SESSION_GANG;

/// Version tag of the stats snapshot document. Bump when the layout
/// changes shape (adding keys is allowed without a bump; removing or
/// retyping them is not).
pub(crate) const STATS_VERSION: u64 = 1;

/// How often the watchdog evaluates its SLOs.
const WATCH_TICK: Duration = Duration::from_millis(100);

/// Minimum spacing between two watchdog-triggered dumps, so a sustained
/// violation produces a trickle of files instead of a flood.
const DUMP_COOLDOWN: Duration = Duration::from_secs(2);

/// Most recent completed traces kept in one dump.
const DUMP_TRACES: usize = 256;

/// Distinguishes dump files created within the same millisecond.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `p`-th percentile (`p <= 100`) of an already **sorted** slice:
/// nearest-rank, the smallest sample with at least `p` % of the samples
/// at or below it (rank `ceil(n·p/100)`).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// `{"count":…,"p50_ns":…,"p99_ns":…,"max_ns":…}` over raw samples.
fn summary_json(mut samples: Vec<u64>) -> String {
    samples.sort_unstable();
    format!(
        "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
        samples.len(),
        percentile(&samples, 50),
        percentile(&samples, 99),
        samples.last().copied().unwrap_or(0),
    )
}

/// Per-shard stage-latency summaries from one ring's completed records:
/// one summary per lifecycle interval plus the end-to-end total.
fn stage_summaries_json(records: &[FlightRecord]) -> String {
    let complete: Vec<&FlightRecord> = records.iter().filter(|r| r.is_complete()).collect();
    let mut parts = Vec::with_capacity(INTERVAL_NAMES.len() + 1);
    for (i, name) in INTERVAL_NAMES.iter().enumerate() {
        let samples: Vec<u64> = complete.iter().map(|r| r.interval_ns(i)).collect();
        parts.push(format!("\"{name}_ns\": {}", summary_json(samples)));
    }
    let totals: Vec<u64> = complete.iter().map(|r| r.total_ns()).collect();
    parts.push(format!("\"total_ns\": {}", summary_json(totals)));
    format!("{{{}}}", parts.join(", "))
}

/// Assembles the versioned stats snapshot for `server` (the body of a
/// `stats` reply and the `"stats"` section of a flight dump).
pub(crate) fn stats_json(server: &Arc<ServerShared>) -> String {
    let cfg = server.cfg;
    let mut doc = String::with_capacity(4096);
    doc.push_str("{\n");
    doc.push_str(&format!("  \"stats_version\": {STATS_VERSION},\n"));
    doc.push_str(&format!(
        "  \"config\": {{\"batch_size\": {}, \"max_wait_us\": {}, \"queue_cap\": {}, \
         \"shards\": {}, \"tenant_quota\": {}, \"slo_p99_us\": {}, \"slo_shed_pct\": {}, \
         \"session_ttl_ms\": {}, \"session_cap\": {}, \"session_gang\": {SESSION_GANG}}},\n",
        cfg.batch_size,
        cfg.max_wait.as_micros(),
        cfg.queue_cap,
        cfg.shards,
        cfg.tenant_quota,
        cfg.slo_p99_us,
        cfg.slo_shed_pct,
        cfg.session_ttl.as_millis(),
        cfg.session_cap,
    ));

    let mut models = server.registry.catalog();
    models.sort_by(|a, b| a.name.cmp(&b.name));
    let model_rows: Vec<String> = models
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"version\": {}, \"input_len\": {}, \"output_len\": {}, \
                 \"streamable\": {}}}",
                esc(&m.name),
                m.version,
                m.input_len,
                m.output_len,
                m.streamable,
            )
        })
        .collect();
    doc.push_str(&format!("  \"models\": [{}],\n", model_rows.join(", ")));

    let quota_rows: Vec<String> = server
        .quotas
        .snapshot()
        .iter()
        .map(|(tenant, n)| format!("\"{}\": {n}", esc(tenant)))
        .collect();
    doc.push_str(&format!(
        "  \"quota\": {{\"limit\": {}, \"in_flight\": {{{}}}}},\n",
        server.quotas.limit(),
        quota_rows.join(", "),
    ));
    doc.push_str(&format!(
        "  \"sessions\": {{\"active\": {}, \"opened\": {}, \"closed\": {}, \
         \"expired\": {}, \"steps\": {}, \"steps_ganged\": {}, \"steps_scalar\": {}, \
         \"gangs\": {}}},\n",
        server
            .active_sessions
            .load(std::sync::atomic::Ordering::SeqCst),
        metrics::SESSIONS_OPENED.value(),
        metrics::SESSIONS_CLOSED.value(),
        metrics::SESSIONS_EXPIRED.value(),
        metrics::SESSION_STEPS.value(),
        metrics::SESSION_STEPS_GANGED.value(),
        metrics::SESSION_STEPS_SCALAR.value(),
        metrics::SESSION_GANGS.value(),
    ));
    doc.push_str(&format!(
        "  \"protocol_errors\": {},\n",
        server
            .protocol_errors
            .load(std::sync::atomic::Ordering::SeqCst)
    ));

    let shard_rows: Vec<String> = server
        .shard_handles()
        .iter()
        .map(|h| {
            let records = h.ring.snapshot();
            format!(
                "{{\"index\": {}, \"conns\": {}, \"requests\": {}, \"queue_depth\": {}, \
                 \"flight\": {{\"capacity\": {}, \"pushed\": {}, \"dropped\": {}}}, \
                 \"stages\": {}}}",
                h.index,
                h.stats.conns.load(Ordering::Relaxed),
                h.stats.requests.load(Ordering::Relaxed),
                h.batcher.queue_depth(),
                h.ring.capacity(),
                h.ring.pushed(),
                h.ring.dropped(),
                stage_summaries_json(&records),
            )
        })
        .collect();
    doc.push_str(&format!("  \"shards\": [{}],\n", shard_rows.join(", ")));

    // The full registry report rides along so one stats call carries
    // every serve.* counter and histogram without a second channel.
    let telemetry_doc = telemetry::report_json();
    doc.push_str(&format!("  \"telemetry\": {}\n", telemetry_doc.trim_end()));
    doc.push_str("}\n");
    doc
}

/// All shards' flight records, completed only, oldest first, capped to
/// the newest [`DUMP_TRACES`].
fn recent_traces(server: &Arc<ServerShared>) -> Vec<FlightRecord> {
    let mut records: Vec<FlightRecord> = Vec::new();
    for h in server.shard_handles() {
        records.extend(h.ring.snapshot());
    }
    records.retain(FlightRecord::is_complete);
    records.sort_by_key(|r| (r.stamps_ns[STAMP_FLUSH], r.trace_id));
    let skip = records.len().saturating_sub(DUMP_TRACES);
    records.split_off(skip)
}

/// Writes a flight-recorder dump: `flight-<millis>-<seq>.json` (reason,
/// stats snapshot, recent completed traces) plus the Chrome-trace twin
/// `flight-<millis>-<seq>.trace.json`, into `RPBCM_SERVE_SLO_DIR`
/// (default `.`). Returns the `(json, chrome_trace)` path pair and
/// records it in the server's dump list.
pub(crate) fn dump_flight(
    server: &Arc<ServerShared>,
    reason: &str,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir =
        PathBuf::from(telemetry::env::path("RPBCM_SERVE_SLO_DIR").unwrap_or_else(|| ".".into()));
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let stem = format!("flight-{millis}-{seq}");

    let traces = recent_traces(server);
    let doc = format!(
        "{{\n\"reason\": \"{}\",\n\"stats\": {},\n\"traces\": {}\n}}\n",
        esc(reason),
        stats_json(server).trim_end(),
        flight::records_json(&traces).trim_end(),
    );
    let json_path = dir.join(format!("{stem}.json"));
    let trace_path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&json_path, doc)?;
    std::fs::write(&trace_path, flight::trace_json(&traces))?;
    server
        .flight_dumps
        .lock()
        .expect("dump lock")
        .push((json_path.clone(), trace_path.clone()));
    Ok((json_path, trace_path))
}

/// The SLO watchdog thread body: ticks until the server stops, checking
/// the armed SLOs and dumping the flight recorder on a violation (with
/// a cooldown between dumps).
pub(crate) fn watchdog_loop(server: &Arc<ServerShared>) {
    let cfg = server.cfg;
    let mut last_dump: Option<Instant> = None;
    let mut prev_accepted = 0u64;
    let mut prev_shed = 0u64;
    while !server.stop.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(WATCH_TICK);
        if !telemetry::enabled() {
            continue;
        }
        let mut violation: Option<String> = None;

        if cfg.slo_p99_us > 0 {
            let mut totals: Vec<u64> = Vec::new();
            for h in server.shard_handles() {
                totals.extend(
                    h.ring
                        .snapshot()
                        .iter()
                        .filter(|r| r.is_complete())
                        .map(FlightRecord::total_ns),
                );
            }
            if !totals.is_empty() {
                totals.sort_unstable();
                let p99_ns = percentile(&totals, 99);
                let slo_ns = (cfg.slo_p99_us as u64).saturating_mul(1000);
                if p99_ns > slo_ns {
                    violation = Some(format!(
                        "p99 lifecycle latency {p99_ns} ns exceeds SLO {slo_ns} ns \
                         over {} recent traces",
                        totals.len()
                    ));
                }
            }
        }

        let accepted = metrics::ACCEPTED.value();
        let shed = metrics::SHED.value();
        if violation.is_none() && cfg.slo_shed_pct > 0 {
            let da = accepted.saturating_sub(prev_accepted);
            let ds = shed.saturating_sub(prev_shed);
            let offered = da + ds;
            if offered > 0 && ds * 100 > offered * cfg.slo_shed_pct as u64 {
                violation = Some(format!(
                    "shed rate {ds}/{offered} exceeds SLO {}% over the last tick",
                    cfg.slo_shed_pct
                ));
            }
        }
        prev_accepted = accepted;
        prev_shed = shed;

        if let Some(reason) = violation {
            let cooled = last_dump.is_none_or(|t| t.elapsed() >= DUMP_COOLDOWN);
            if cooled {
                last_dump = Some(Instant::now());
                metrics::SLO_VIOLATIONS.add(1);
                // A dump failing (unwritable dir) must not kill the
                // watchdog; the violation counter still records it.
                let _ = dump_flight(server, &reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 99), 7);
        // Small windows: rounding the rank down would read the tail low.
        assert_eq!(percentile(&[10, 1000], 99), 1000);
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 99), 10);
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_bytes() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }

    #[test]
    fn stage_summaries_render_every_interval_and_total() {
        let doc = stage_summaries_json(&[]);
        for name in INTERVAL_NAMES {
            assert!(doc.contains(&format!("\"{name}_ns\"")), "missing {name}");
        }
        assert!(doc.contains("\"total_ns\""));
        assert!(doc.contains("\"count\": 0"));
    }
}
