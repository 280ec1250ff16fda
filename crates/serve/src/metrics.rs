//! Telemetry probes for the serving hot path.
//!
//! All metrics flow through the workspace [`telemetry`] registry, so
//! `RPBCM_TELEMETRY=1` (or `telemetry::set_enabled(true)`) turns them on
//! and the bench harness dumps them into `results/TELEMETRY_serve.json`
//! alongside every other subsystem's probes.

/// Requests admitted into the batch queue.
pub(crate) static ACCEPTED: telemetry::Counter = telemetry::Counter::new("serve.requests.accepted");

/// Requests shed by admission control (queue at capacity).
pub(crate) static SHED: telemetry::Counter = telemetry::Counter::new("serve.requests.shed");

/// Requests whose batch executed and whose reply was delivered.
pub(crate) static COMPLETED: telemetry::Counter =
    telemetry::Counter::new("serve.requests.completed");

/// Requests rejected before queueing (malformed frame, unknown model,
/// wrong input length).
pub(crate) static REJECTED: telemetry::Counter = telemetry::Counter::new("serve.requests.rejected");

/// Instantaneous batch-queue depth, sampled at every enqueue/dispatch.
pub(crate) static QUEUE_DEPTH: telemetry::Gauge = telemetry::Gauge::new("serve.queue.depth");

/// High-water mark of the batch queue.
pub(crate) static QUEUE_PEAK: telemetry::Gauge = telemetry::Gauge::new("serve.queue.peak_depth");

/// Distribution of dispatched batch sizes.
pub(crate) static BATCH_SIZE: telemetry::Histogram = telemetry::Histogram::new("serve.batch.size");

/// Wall time of one batch execution through the engine (nanoseconds).
pub(crate) static BATCH_EXEC: telemetry::Histogram =
    telemetry::Histogram::new("serve.batch.exec_ns");

/// End-to-end queue latency per request: enqueue to reply (nanoseconds).
pub(crate) static LATENCY: telemetry::Histogram =
    telemetry::Histogram::new("serve.request.latency_ns");

/// Connections registered with a reactor shard.
pub(crate) static CONNS_ACCEPTED: telemetry::Counter =
    telemetry::Counter::new("serve.conns.accepted");

/// Connections torn down (clean close, violation, or drain deadline).
pub(crate) static CONNS_CLOSED: telemetry::Counter = telemetry::Counter::new("serve.conns.closed");

/// Requests denied because their tenant was at its in-flight quota.
pub(crate) static QUOTA_DENIED: telemetry::Counter =
    telemetry::Counter::new("serve.requests.quota_denied");

/// Streaming sessions opened (`session_open` accepted).
pub(crate) static SESSIONS_OPENED: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.opened");

/// Streaming sessions closed by the client (`session_close`).
pub(crate) static SESSIONS_CLOSED: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.closed");

/// Streaming sessions expired by the idle-TTL sweep.
pub(crate) static SESSIONS_EXPIRED: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.expired");

/// Timesteps served across all streaming sessions (`session_step` ok).
pub(crate) static SESSION_STEPS: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.steps");

/// Wall time of one session-step execution (nanoseconds). Every step
/// runs as a gang and records once for the whole gang — divide by the
/// paired `serve.session.gang_width` sample for a per-session figure.
pub(crate) static SESSION_STEP_NS: telemetry::Histogram =
    telemetry::Histogram::new("serve.session.step_ns");

/// Lane occupancy of executed session gangs: 1 is a gang of one (a
/// session that stepped alone this flush), up to the gang width cap.
pub(crate) static SESSION_GANG_WIDTH: telemetry::Histogram =
    telemetry::Histogram::new("serve.session.gang_width");

/// Lane gangs of two or more sessions executed.
pub(crate) static SESSION_GANGS: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.gangs");

/// Timesteps that rode a lane gang of two or more sessions.
pub(crate) static SESSION_STEPS_GANGED: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.steps_ganged");

/// Timesteps run as a gang of one (the stats snapshot keeps the
/// historical `steps_scalar` name that clients read).
pub(crate) static SESSION_STEPS_SCALAR: telemetry::Counter =
    telemetry::Counter::new("serve.sessions.steps_scalar");

// ---------------------------------------------------------------------
// Per-stage lifecycle latency (fed from completed flight records; see
// `telemetry::flight` and the stamping sites in shard/batcher/conn).
// ---------------------------------------------------------------------

/// parse → admit: request validation and quota acquisition.
pub(crate) static STAGE_ADMIT: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.admit_ns");

/// admit → enqueue: batcher submission (queue lock + capacity check).
pub(crate) static STAGE_ENQUEUE: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.enqueue_ns");

/// enqueue → batch-formed: time waiting in the queue for a batch.
pub(crate) static STAGE_BATCH_WAIT: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.batch_wait_ns");

/// batch-formed → infer-start: batch assembly before the engine call.
pub(crate) static STAGE_DISPATCH: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.dispatch_ns");

/// infer-start → infer-end: engine execution of the whole batch.
pub(crate) static STAGE_INFER: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.infer_ns");

/// infer-end → reply-flushed: reply encode, sequencing and socket write.
pub(crate) static STAGE_REPLY: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.reply_ns");

/// parse → reply-flushed: the whole request lifecycle.
pub(crate) static STAGE_TOTAL: telemetry::Histogram =
    telemetry::Histogram::new("serve.stage.total_ns");

/// SLO watchdog violations that produced a flight-recorder dump.
pub(crate) static SLO_VIOLATIONS: telemetry::Counter =
    telemetry::Counter::new("serve.slo.violations");

/// The six interval histograms, indexed like
/// [`telemetry::flight::INTERVAL_NAMES`].
pub(crate) static STAGE_INTERVALS: [&telemetry::Histogram; 6] = [
    &STAGE_ADMIT,
    &STAGE_ENQUEUE,
    &STAGE_BATCH_WAIT,
    &STAGE_DISPATCH,
    &STAGE_INFER,
    &STAGE_REPLY,
];

/// Feeds one completed flight record into the `serve.stage.*`
/// histograms. Incomplete records (a stamp lost to a dead connection)
/// are skipped rather than recorded as garbage deltas.
pub(crate) fn record_stages(rec: &telemetry::flight::FlightRecord) {
    if !rec.is_complete() {
        return;
    }
    for (i, h) in STAGE_INTERVALS.iter().enumerate() {
        h.record(rec.interval_ns(i));
    }
    STAGE_TOTAL.record(rec.total_ns());
}
