//! A reactor shard: one event-loop thread owning a slice of the
//! server's connections, plus its dedicated batch worker.
//!
//! Each shard runs a level-triggered readiness loop over its own
//! [`Poller`]. The acceptor hands freshly accepted sockets to a shard's
//! inbox (round-robin, so load balance is deterministic) and rings its
//! [`Notifier`]; the shard registers them and from then on owns all
//! their socket I/O. Request bytes accumulate in a per-connection read
//! buffer and are parsed **in place** — a frame is only copied when it
//! becomes a decoded `Payload`, and consumed bytes are reclaimed with a
//! single `drain` compaction per readiness burst.
//!
//! Admission (catalog resolution, length validation, tenant quota) runs
//! on the shard thread; admitted requests go to the shard's own
//! [`Batcher`] with a connection sink, and the batch worker deposits
//! encoded replies back into the connection's sequenced output buffer
//! (see [`crate::conn`]), waking the shard to flush. The shard is the
//! only thread that ever writes to its sockets.
//!
//! Shutdown: the server sets its stop flag and wakes every shard. A
//! shard then stops admitting (its batcher drains — queued requests
//! still execute and answer), keeps the loop alive to flush every owed
//! reply, answers any late-parsed requests with `shutting_down`, and
//! exits once the batcher is drained and no connection has backlog
//! (with a hard deadline against peers that stop reading).

use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use telemetry::flight::{
    FlightRecord, FlightRing, STAMP_ADMIT, STAMP_BATCH, STAMP_ENQUEUE, STAMP_INFER_END,
    STAMP_INFER_START, STAMP_PARSE,
};

use nn::seq::{SeqRunner, SeqRunnerBatch};

use crate::batcher::{encode_for_wire, Batcher, ReplySink, SubmitError};
use crate::conn::{ConnShared, Notifier};
use crate::metrics;
use crate::protocol::{self, Payload, Request, Response, Status, HANDSHAKE, MAX_FRAME};
use crate::quota::QuotaGuard;
use crate::reactor::{self, Event, Interest, Poller, WAKER_TOKEN};
use crate::server::ServerShared;
use crate::session::{FxSeqRunner, FxSeqRunnerBatch};

/// How long a shard blocks in the poller before re-checking stop state.
const TICK: Duration = Duration::from_millis(50);

/// Hard ceiling on the drain phase: after this, connections whose peers
/// stopped reading are closed with replies still buffered.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Maximum lane-gang width for cross-session stepping: the PE lane
/// width of the batch-of-8 spectral kernels. Reported under `config` in
/// the stats snapshot.
pub(crate) const SESSION_GANG: usize = 8;

/// Per-shard load counters, read by [`crate::server::Server::shard_stats`]
/// for the imbalance metric.
#[derive(Default)]
pub(crate) struct ShardStats {
    /// Connections ever assigned to this shard.
    pub conns: AtomicU64,
    /// Requests parsed by this shard (all opcodes).
    pub requests: AtomicU64,
}

/// The cross-thread face of one shard.
pub(crate) struct ShardHandle {
    pub index: usize,
    /// Freshly accepted sockets awaiting registration.
    pub inbox: Mutex<Vec<TcpStream>>,
    pub notifier: Arc<Notifier>,
    pub batcher: Batcher,
    pub stats: ShardStats,
    /// Flight-recorder ring holding this shard's completed traces.
    pub ring: Arc<FlightRing>,
    /// Shard-scoped session-gang id source; a gang-formed step carries
    /// its gang id in the flight record's `batch` word, exactly like a
    /// batcher-formed batch carries its batch id.
    pub gang_seq: AtomicU32,
}

enum ConnMode {
    /// Awaiting the first bytes that pick binary vs JSON.
    Handshake,
    Binary,
    Json,
}

struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Unparsed request bytes; `rpos` is the parse cursor.
    rbuf: Vec<u8>,
    rpos: usize,
    mode: ConnMode,
    tenant: String,
    /// Current poller interest includes writable.
    wants_write: bool,
    /// Peer sent EOF; close once the output backlog flushes.
    eof: bool,
    /// Open streaming sessions, keyed by connection-scoped id. Sessions
    /// live and die with the connection — the shard that owns the
    /// connection owns every session opened on it, so session state
    /// needs no cross-thread synchronization at all.
    sessions: HashMap<u64, Session>,
    /// Next session id handed out on this connection (ids are scoped to
    /// the connection; 0 is never issued).
    next_session: u64,
}

/// The per-session stepper, one of the two engine datapaths.
enum SessionRunner {
    F32(SeqRunner),
    Fx(FxSeqRunner),
}

impl SessionRunner {
    /// Gang-formation key: the address of the runner's shared weight
    /// stack. Only runners of one stack may share lanes; float and fx
    /// stacks are separate allocations, so the key also fixes the mode.
    fn stack_key(&self) -> usize {
        match self {
            SessionRunner::F32(r) => Arc::as_ptr(r.stack()) as usize,
            SessionRunner::Fx(r) => Arc::as_ptr(r.stack()) as usize,
        }
    }
}

/// One open streaming session: the stepper holding the server-side
/// hidden state, pinned to the exact model version resolved at open.
struct Session {
    /// The stepper holding this session's hidden state. `None` only
    /// transiently while the runner is checked out into a lane gang
    /// inside `execute_gang` — it is always checked back in (bit-exact)
    /// before the flush returns.
    runner: Option<SessionRunner>,
    /// The version the session resolved at `session_open`, for flight
    /// traces. The runner's stack `Arc` pins that version's weights, so a
    /// hot swap republishes the name while this session keeps stepping the
    /// weights it opened against, and the rest of the old entry is freed.
    version: u64,
    /// Refreshed on every step; the idle-TTL sweep expires stale ones.
    last_used: Instant,
    /// Server-wide session-cap slot (RAII: released on close, expiry,
    /// or connection teardown).
    _slot: SessionSlot,
    /// Tenant quota slot held for the whole session lifetime, so open
    /// sessions count against the tenant's in-flight cap.
    _quota: QuotaGuard,
}

/// RAII slot in the server-wide open-session count.
struct SessionSlot {
    server: Arc<ServerShared>,
}

impl SessionSlot {
    /// Claims a slot, or `None` at the cap.
    fn acquire(server: &Arc<ServerShared>) -> Option<SessionSlot> {
        let cap = server.cfg.session_cap as u64;
        if server.active_sessions.fetch_add(1, Ordering::SeqCst) >= cap {
            server.active_sessions.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(SessionSlot {
            server: Arc::clone(server),
        })
    }
}

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.server.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A session operation parsed during the current loop iteration and
/// deferred to the end-of-iteration gang flush. Deferral is what lets
/// one readiness burst's `session_step` frames from *different* sessions
/// meet in a lane gang; it never delays a reply past the iteration that
/// parsed it.
enum SessionOp {
    Step {
        token: usize,
        session: u64,
        seq: u64,
        json: bool,
        input: Payload,
        trace: Option<FlightRecord>,
    },
    Close {
        token: usize,
        session: u64,
        seq: u64,
        json: bool,
    },
}

impl SessionOp {
    fn token(&self) -> usize {
        match self {
            SessionOp::Step { token, .. } | SessionOp::Close { token, .. } => *token,
        }
    }

    /// Wave-partition key: pipelined ops on one session execute strictly
    /// in arrival order, one per wave.
    fn key(&self) -> (usize, u64) {
        match self {
            SessionOp::Step { token, session, .. } | SessionOp::Close { token, session, .. } => {
                (*token, *session)
            }
        }
    }
}

/// A validated `session_step` awaiting gang execution.
struct ReadyStep {
    token: usize,
    session: u64,
    seq: u64,
    json: bool,
    input: Payload,
    trace: Option<FlightRecord>,
    /// [`SessionRunner::stack_key`] of the session's runner.
    stack_key: usize,
}

/// Why a connection must be torn down.
enum ConnFate {
    /// Keep serving.
    Alive,
    /// Clean close (EOF with nothing owed).
    Closed,
    /// Protocol violation: count it and close.
    Violation,
}

/// Per-shard owned-name probes (`serve.shard.<i>.*`).
struct ShardProbes {
    requests: telemetry::OwnedCounter,
    conns: telemetry::OwnedGauge,
}

/// The shard event loop. Runs until the server's stop flag is set and
/// the drain completes.
pub(crate) fn run(handle: &Arc<ShardHandle>, server: &Arc<ServerShared>, mut poller: Poller) {
    let probes = ShardProbes {
        requests: telemetry::OwnedCounter::new(&format!("serve.shard.{}.requests", handle.index)),
        conns: telemetry::OwnedGauge::new(&format!("serve.shard.{}.conns", handle.index)),
    };
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut draining = false;
    let mut drain_started = Instant::now();
    // Session ops deferred within one loop iteration for gang formation;
    // always drained to empty by `flush_session_ops` below.
    let mut pending: Vec<SessionOp> = Vec::new();

    loop {
        events.clear();
        if poller.wait(&mut events, Some(TICK)).is_err() {
            // A failing poller would spin; a short sleep keeps the loop
            // making progress (stop checks, inbox, dirty flushes).
            std::thread::sleep(TICK);
        }
        handle.notifier.drain_wakes();

        // Register newly accepted connections.
        let newcomers = std::mem::take(&mut *handle.inbox.lock().expect("shard inbox"));
        for stream in newcomers {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let token = next_token;
            next_token = next_token.wrapping_add(1);
            if poller
                .add(reactor::stream_fd(&stream), token, Interest::READ)
                .is_err()
            {
                continue;
            }
            handle.stats.conns.fetch_add(1, Ordering::Relaxed);
            metrics::CONNS_ACCEPTED.add(1);
            conns.insert(
                token,
                Conn {
                    stream,
                    shared: ConnShared::new(
                        token,
                        Arc::clone(&handle.notifier),
                        Arc::clone(&handle.ring),
                    ),
                    rbuf: Vec::new(),
                    rpos: 0,
                    mode: ConnMode::Handshake,
                    tenant: String::new(),
                    wants_write: false,
                    eof: false,
                    sessions: HashMap::new(),
                    next_session: 1,
                },
            );
        }

        // Readiness events.
        for ev in &events {
            if ev.token == WAKER_TOKEN {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut fate = ConnFate::Alive;
            if ev.readable || ev.hangup {
                fate = on_readable(conn, &mut scratch, handle, server, &probes, &mut pending);
            }
            if matches!(fate, ConnFate::Alive) && (ev.writable || ev.hangup) {
                // A deferred session op still owes this connection a
                // reply: hold it open past EOF until the gang flush runs.
                let hold = pending.iter().any(|op| op.token() == ev.token);
                fate = settle_output(conn, &mut poller, hold);
            }
            finish_event(&mut conns, &mut poller, ev.token, fate);
        }

        // Execute the iteration's deferred session steps as lane gangs
        // (and their interleaved closes, in per-session arrival order).
        // Replies land in the sequenced output buffers and mark their
        // connections dirty, so the settle pass right below flushes them
        // within this same iteration.
        flush_session_ops(&mut conns, &mut pending, handle);

        // Cross-thread completions (batch workers deposited replies).
        let mut dirty = handle.notifier.take_dirty();
        dirty.sort_unstable();
        dirty.dedup();
        for token in dirty {
            if let Some(conn) = conns.get_mut(&token) {
                let fate = settle_output(conn, &mut poller, false);
                finish_event(&mut conns, &mut poller, token, fate);
            }
        }
        probes.conns.set(conns.len() as f64);

        // Idle-session expiry: every loop iteration (at most one TICK
        // apart) drops sessions whose last step is older than the TTL.
        // Dropping the `Session` releases its cap slot and quota guard.
        let ttl = server.cfg.session_ttl;
        if !ttl.is_zero() {
            for conn in conns.values_mut() {
                let before = conn.sessions.len();
                if before == 0 {
                    continue;
                }
                conn.sessions.retain(|_, s| s.last_used.elapsed() <= ttl);
                let expired = before - conn.sessions.len();
                if expired > 0 {
                    metrics::SESSIONS_EXPIRED.add(expired as u64);
                }
            }
        }

        // Shutdown and drain.
        if server.stop.load(Ordering::SeqCst) {
            if !draining {
                draining = true;
                drain_started = Instant::now();
                handle.batcher.begin_drain();
            }
            let backlog = conns.values().any(|c| c.shared.has_backlog());
            if (handle.batcher.is_drained() && !backlog) || drain_started.elapsed() > DRAIN_DEADLINE
            {
                break;
            }
        }
    }

    handle.batcher.shutdown();
    for (_token, conn) in conns.drain() {
        poller.remove(reactor::stream_fd(&conn.stream)).ok();
        metrics::CONNS_CLOSED.add(1);
    }
}

/// Applies a connection's fate after an event: tears it down and
/// deregisters it unless it stays alive.
fn finish_event(
    conns: &mut HashMap<usize, Conn>,
    poller: &mut Poller,
    token: usize,
    fate: ConnFate,
) {
    match fate {
        ConnFate::Alive => {}
        ConnFate::Closed | ConnFate::Violation => {
            if matches!(fate, ConnFate::Violation) {
                metrics::REJECTED.add(1);
            }
            if let Some(conn) = conns.remove(&token) {
                poller.remove(reactor::stream_fd(&conn.stream)).ok();
                metrics::CONNS_CLOSED.add(1);
            }
        }
    }
}

/// Drains the socket into the read buffer and parses every complete
/// request.
fn on_readable(
    conn: &mut Conn,
    scratch: &mut [u8],
    handle: &Arc<ShardHandle>,
    server: &Arc<ServerShared>,
    probes: &ShardProbes,
    pending: &mut Vec<SessionOp>,
) -> ConnFate {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.eof = true;
                break;
            }
        }
    }
    let fate = parse_ready(conn, handle, server, probes, pending);
    if !matches!(fate, ConnFate::Alive) {
        return fate;
    }
    if conn.eof {
        let partial = conn.rpos < conn.rbuf.len();
        if partial && !matches!(conn.mode, ConnMode::Json) {
            // EOF inside a frame or an unfinished handshake.
            server.protocol_errors.fetch_add(1, Ordering::SeqCst);
            return ConnFate::Violation;
        }
        let owes_session_reply = pending.iter().any(|op| op.token() == conn.shared.token());
        if !conn.shared.has_backlog() && !owes_session_reply {
            return ConnFate::Closed;
        }
        // Replies are still owed or buffered: linger write-only until the
        // backlog flushes (settle_output closes it then).
    }
    ConnFate::Alive
}

/// Parses every complete request currently buffered, handling each.
fn parse_ready(
    conn: &mut Conn,
    handle: &Arc<ShardHandle>,
    server: &Arc<ServerShared>,
    probes: &ShardProbes,
    pending: &mut Vec<SessionOp>,
) -> ConnFate {
    loop {
        match conn.mode {
            ConnMode::Handshake => {
                if conn.rbuf.is_empty() {
                    return ConnFate::Alive;
                }
                if conn.rbuf[0] == b'{' {
                    conn.mode = ConnMode::Json;
                    continue;
                }
                if conn.rbuf.len() < HANDSHAKE.len() {
                    return ConnFate::Alive; // need more bytes
                }
                if conn.rbuf[..4] == HANDSHAKE {
                    conn.mode = ConnMode::Binary;
                    conn.rpos = 4;
                    continue;
                }
                server.protocol_errors.fetch_add(1, Ordering::SeqCst);
                return ConnFate::Violation;
            }
            ConnMode::Binary => {
                while conn.rbuf.len() - conn.rpos >= 4 {
                    let len4: [u8; 4] = conn.rbuf[conn.rpos..conn.rpos + 4]
                        .try_into()
                        .expect("4 bytes");
                    let len = u32::from_le_bytes(len4) as usize;
                    if len > MAX_FRAME {
                        server.protocol_errors.fetch_add(1, Ordering::SeqCst);
                        return ConnFate::Violation;
                    }
                    if conn.rbuf.len() - conn.rpos < 4 + len {
                        break; // incomplete frame
                    }
                    let start = conn.rpos + 4;
                    let seq = conn.shared.alloc_seq();
                    let decoded = protocol::decode_request(&conn.rbuf[start..start + len]);
                    conn.rpos = start + len;
                    match decoded {
                        Ok(req) => {
                            let trace = begin_trace(handle.index);
                            process_request(
                                conn, req, false, seq, handle, server, probes, trace, pending,
                            );
                        }
                        Err(e) => {
                            // Malformed request: explicit reply, count it,
                            // connection survives.
                            server.protocol_errors.fetch_add(1, Ordering::SeqCst);
                            metrics::REJECTED.add(1);
                            reply_now(
                                conn,
                                seq,
                                &Response::Error(Status::BadRequest, e.to_string()),
                                false,
                            );
                        }
                    }
                }
                compact(conn);
                return ConnFate::Alive;
            }
            ConnMode::Json => {
                loop {
                    let Some(nl) = conn.rbuf[conn.rpos..].iter().position(|&b| b == b'\n') else {
                        // EOF: a final unterminated line is still a request.
                        if conn.eof && conn.rpos < conn.rbuf.len() {
                            let line = conn.rbuf[conn.rpos..].to_vec();
                            conn.rpos = conn.rbuf.len();
                            handle_json_line(conn, &line, handle, server, probes, pending);
                        }
                        break;
                    };
                    let line = conn.rbuf[conn.rpos..conn.rpos + nl].to_vec();
                    conn.rpos += nl + 1;
                    handle_json_line(conn, &line, handle, server, probes, pending);
                }
                compact(conn);
                return ConnFate::Alive;
            }
        }
    }
}

/// Reclaims consumed bytes from the front of the read buffer.
fn compact(conn: &mut Conn) {
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
}

fn handle_json_line(
    conn: &mut Conn,
    line: &[u8],
    handle: &Arc<ShardHandle>,
    server: &Arc<ServerShared>,
    probes: &ShardProbes,
    pending: &mut Vec<SessionOp>,
) {
    let text = String::from_utf8_lossy(line);
    if text.trim().is_empty() {
        return;
    }
    let seq = conn.shared.alloc_seq();
    match protocol::parse_json_request(&text) {
        Ok(req) => {
            let trace = begin_trace(handle.index);
            process_request(conn, req, true, seq, handle, server, probes, trace, pending);
        }
        Err(e) => {
            server.protocol_errors.fetch_add(1, Ordering::SeqCst);
            metrics::REJECTED.add(1);
            reply_now(
                conn,
                seq,
                &Response::Error(Status::BadRequest, e.to_string()),
                true,
            );
        }
    }
}

/// Deposits an immediate (non-batched) reply into the sequenced output.
fn reply_now(conn: &Conn, seq: u64, resp: &Response, json: bool) {
    conn.shared
        .push_reply(seq, encode_for_wire(resp, json), None);
}

/// Opens a lifecycle trace for a freshly parsed request: allocates the
/// trace id, tags the shard, and takes the `parse` stamp. Returns `None`
/// while telemetry is disabled, so the hot path pays one branch.
fn begin_trace(shard: usize) -> Option<FlightRecord> {
    if !telemetry::enabled() {
        return None;
    }
    let mut rec = FlightRecord {
        trace_id: telemetry::flight::next_trace_id(),
        shard: shard as u32,
        ..FlightRecord::default()
    };
    rec.stamps_ns[STAMP_PARSE] = telemetry::flight::now_ns();
    Some(rec)
}

/// FNV-1a hash of a tenant name — a stable, allocation-free tag small
/// enough for a flight-record word.
fn tenant_hash(name: &str) -> u64 {
    telemetry::fnv::fnv1a(name.as_bytes())
}

/// Validates and routes one decoded request.
#[allow(clippy::too_many_arguments)]
fn process_request(
    conn: &mut Conn,
    req: Request,
    json: bool,
    seq: u64,
    handle: &Arc<ShardHandle>,
    server: &Arc<ServerShared>,
    probes: &ShardProbes,
    mut trace: Option<FlightRecord>,
    pending: &mut Vec<SessionOp>,
) {
    handle.stats.requests.fetch_add(1, Ordering::Relaxed);
    probes.requests.inc();
    match req {
        Request::Ping => reply_now(conn, seq, &Response::Output(Payload::F32(Vec::new())), json),
        Request::Shutdown => {
            server.remote_shutdown.store(true, Ordering::SeqCst);
            reply_now(conn, seq, &Response::Output(Payload::F32(Vec::new())), json);
        }
        Request::Hello { tenant } => {
            conn.tenant = tenant;
            reply_now(conn, seq, &Response::Output(Payload::F32(Vec::new())), json);
        }
        Request::Stats => {
            let doc = crate::stats::stats_json(server);
            reply_now(conn, seq, &Response::Stats(doc), json);
        }
        Request::Infer { model, input } => {
            let Some(entry) = server.registry.resolve(&model) else {
                metrics::REJECTED.add(1);
                let resp = Response::Error(Status::UnknownModel, format!("no model {model:?}"));
                return reply_now(conn, seq, &resp, json);
            };
            let expect = match &input {
                Payload::F32(_) => Some(entry.input_len()),
                Payload::Fx(_) => entry.fx().map(|fx| fx.input_len()),
            };
            let Some(expect) = expect else {
                metrics::REJECTED.add(1);
                let resp = Response::Error(
                    Status::BadRequest,
                    format!("model {model:?} has no fixed-point mode"),
                );
                return reply_now(conn, seq, &resp, json);
            };
            if input.len() != expect {
                metrics::REJECTED.add(1);
                let resp = Response::Error(
                    Status::BadRequest,
                    format!("input length {} != expected {expect}", input.len()),
                );
                return reply_now(conn, seq, &resp, json);
            }
            let Some(guard) = server.quotas.try_acquire(&conn.tenant) else {
                metrics::QUOTA_DENIED.add(1);
                let resp = Response::Error(
                    Status::QuotaExceeded,
                    format!(
                        "tenant {:?} at its in-flight quota ({})",
                        conn.tenant,
                        server.quotas.limit()
                    ),
                );
                return reply_now(conn, seq, &resp, json);
            };
            if let Some(rec) = trace.as_mut() {
                rec.tenant_hash = tenant_hash(&conn.tenant);
                rec.model_version = entry.version();
                rec.stamps_ns[STAMP_ADMIT] = telemetry::flight::now_ns();
            }
            let sink = ReplySink::Conn {
                conn: Arc::clone(&conn.shared),
                seq,
                json,
            };
            match handle
                .batcher
                .submit_sink(entry, input, sink, Some(guard), trace)
            {
                Ok(()) => {} // the batch worker owes the reply
                Err(SubmitError::Overloaded) => reply_now(
                    conn,
                    seq,
                    &Response::Error(Status::Overloaded, "queue at capacity".into()),
                    json,
                ),
                Err(SubmitError::ShuttingDown) => reply_now(
                    conn,
                    seq,
                    &Response::Error(Status::ShuttingDown, "server is draining".into()),
                    json,
                ),
            }
        }
        Request::SessionOpen { model, fx } => {
            if server.stop.load(Ordering::SeqCst) {
                let resp = Response::Error(Status::ShuttingDown, "server is draining".into());
                return reply_now(conn, seq, &resp, json);
            }
            let Some(entry) = server.registry.resolve(&model) else {
                metrics::REJECTED.add(1);
                let resp = Response::Error(Status::UnknownModel, format!("no model {model:?}"));
                return reply_now(conn, seq, &resp, json);
            };
            let Some(seqm) = entry.seq() else {
                metrics::REJECTED.add(1);
                let resp = Response::Error(
                    Status::BadRequest,
                    format!("model {model:?} has no streaming form"),
                );
                return reply_now(conn, seq, &resp, json);
            };
            let runner = if fx {
                match seqm.new_fx() {
                    Some(r) => SessionRunner::Fx(r),
                    None => {
                        metrics::REJECTED.add(1);
                        let resp = Response::Error(
                            Status::BadRequest,
                            format!("model {model:?} has no fixed-point streaming form"),
                        );
                        return reply_now(conn, seq, &resp, json);
                    }
                }
            } else {
                SessionRunner::F32(seqm.new_f32())
            };
            let Some(slot) = SessionSlot::acquire(server) else {
                metrics::REJECTED.add(1);
                let resp = Response::Error(
                    Status::Overloaded,
                    format!("server at its session cap ({})", server.cfg.session_cap),
                );
                return reply_now(conn, seq, &resp, json);
            };
            let Some(guard) = server.quotas.try_acquire(&conn.tenant) else {
                metrics::QUOTA_DENIED.add(1);
                let resp = Response::Error(
                    Status::QuotaExceeded,
                    format!(
                        "tenant {:?} at its in-flight quota ({})",
                        conn.tenant,
                        server.quotas.limit()
                    ),
                );
                return reply_now(conn, seq, &resp, json);
            };
            let id = conn.next_session;
            conn.next_session += 1;
            let version = entry.version();
            conn.sessions.insert(
                id,
                Session {
                    runner: Some(runner),
                    version,
                    last_used: Instant::now(),
                    _slot: slot,
                    _quota: guard,
                },
            );
            metrics::SESSIONS_OPENED.add(1);
            reply_now(
                conn,
                seq,
                &Response::Session {
                    session: id,
                    version,
                },
                json,
            );
        }
        Request::SessionStep { session, input } => {
            let Some(s) = conn.sessions.get(&session) else {
                metrics::REJECTED.add(1);
                let resp = Response::Error(
                    Status::BadRequest,
                    format!("no open session {session} (unknown, expired, or closed)"),
                );
                return reply_now(conn, seq, &resp, json);
            };
            if let Some(rec) = trace.as_mut() {
                rec.tenant_hash = tenant_hash(&conn.tenant);
                rec.model_version = s.version;
                rec.stamps_ns[STAMP_ADMIT] = telemetry::flight::now_ns();
                rec.stamps_ns[STAMP_ENQUEUE] = telemetry::flight::now_ns();
            }
            // Defer into this iteration's gang flush: steps for different
            // sessions parsed in the same readiness burst meet there and
            // share one lane-form step. Wave partitioning in the flush
            // keeps pipelined steps on one session strictly ordered.
            pending.push(SessionOp::Step {
                token: conn.shared.token(),
                session,
                seq,
                json,
                input,
                trace,
            });
        }
        Request::SessionClose { session } => {
            // Defer behind any same-session steps parsed this burst: a
            // close is a barrier in its session's wave order, so `step,
            // step, close` pipelined in one burst answers `ok, ok, ok`.
            pending.push(SessionOp::Close {
                token: conn.shared.token(),
                session,
                seq,
                json,
            });
        }
    }
}

/// Flushes buffered output and reconciles writable interest. Closes the
/// connection when the peer already sent EOF and nothing is owed —
/// `hold_open` marks a connection that a deferred session op still owes
/// a reply, which counts as owed even with an empty output buffer.
fn settle_output(conn: &mut Conn, poller: &mut Poller, hold_open: bool) -> ConnFate {
    match conn.shared.flush(&mut conn.stream) {
        Ok(emptied) => {
            let want = !emptied;
            if want != conn.wants_write {
                let interest = if want {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if poller
                    .modify(
                        reactor::stream_fd(&conn.stream),
                        conn.shared.token(),
                        interest,
                    )
                    .is_ok()
                {
                    conn.wants_write = want;
                }
            }
            if conn.eof && !conn.shared.has_backlog() && !hold_open {
                ConnFate::Closed
            } else {
                ConnFate::Alive
            }
        }
        Err(_) => ConnFate::Closed, // peer gone; replies are undeliverable
    }
}

/// Drains the iteration's deferred session ops: wave-partitions them to
/// at most one op per session (pipelined same-session traffic executes
/// strictly in arrival order, and a close is a barrier), executes each
/// wave's closes in arrival order, groups the wave's validated steps by
/// shared weight stack (one per model version and engine mode), and runs
/// each group in lane gangs of at most [`SESSION_GANG`] sessions.
fn flush_session_ops(
    conns: &mut HashMap<usize, Conn>,
    pending: &mut Vec<SessionOp>,
    handle: &Arc<ShardHandle>,
) {
    while !pending.is_empty() {
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        let mut wave: Vec<SessionOp> = Vec::new();
        let mut rest: Vec<SessionOp> = Vec::new();
        for op in pending.drain(..) {
            if seen.insert(op.key()) {
                wave.push(op);
            } else {
                rest.push(op);
            }
        }
        *pending = rest;
        let mut steps: Vec<ReadyStep> = Vec::new();
        for op in wave {
            match op {
                SessionOp::Close {
                    token,
                    session,
                    seq,
                    json,
                } => {
                    // Connection torn down since parse: nowhere to reply.
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if conn.sessions.remove(&session).is_some() {
                        metrics::SESSIONS_CLOSED.add(1);
                        reply_now(conn, seq, &Response::Output(Payload::F32(Vec::new())), json);
                    } else {
                        metrics::REJECTED.add(1);
                        let resp = Response::Error(
                            Status::BadRequest,
                            format!("no open session {session} (unknown, expired, or closed)"),
                        );
                        reply_now(conn, seq, &resp, json);
                    }
                }
                SessionOp::Step {
                    token,
                    session,
                    seq,
                    json,
                    input,
                    trace,
                } => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    // Re-validate at execution time: an earlier wave's
                    // close (or a violation teardown) may have raced the
                    // parse-time check.
                    let Some(s) = conn.sessions.get(&session) else {
                        metrics::REJECTED.add(1);
                        let resp = Response::Error(
                            Status::BadRequest,
                            format!("no open session {session} (unknown, expired, or closed)"),
                        );
                        reply_now(conn, seq, &resp, json);
                        continue;
                    };
                    let runner = s.runner.as_ref().expect("runner checked in");
                    let err = match (runner, &input) {
                        (SessionRunner::F32(r), Payload::F32(x)) => (x.len() != r.input_len())
                            .then(|| {
                                format!("step length {} != expected {}", x.len(), r.input_len())
                            }),
                        (SessionRunner::Fx(r), Payload::Fx(x)) => {
                            (x.len() != r.input_len()).then(|| {
                                format!("step length {} != expected {}", x.len(), r.input_len())
                            })
                        }
                        _ => Some(format!(
                            "step payload type disagrees with session {session}'s mode"
                        )),
                    };
                    if let Some(msg) = err {
                        metrics::REJECTED.add(1);
                        reply_now(conn, seq, &Response::Error(Status::BadRequest, msg), json);
                        continue;
                    }
                    steps.push(ReadyStep {
                        token,
                        session,
                        seq,
                        json,
                        input,
                        trace,
                        stack_key: runner.stack_key(),
                    });
                }
            }
        }
        // Gang formation: group by shared stack preserving arrival
        // order, then chunk each group to the lane width (ragged tails
        // run as narrower gangs, down to a gang of one).
        let mut groups: Vec<(usize, Vec<ReadyStep>)> = Vec::new();
        for st in steps {
            let key = st.stack_key;
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(st),
                None => groups.push((key, vec![st])),
            }
        }
        for (_, mut group) in groups {
            while !group.is_empty() {
                let tail = group.split_off(group.len().min(SESSION_GANG));
                execute_gang(conns, group, handle);
                group = tail;
            }
        }
    }
}

/// Executes one lane gang: checks every member's runner out of its
/// session, advances all of them with a single lane-form step (the same
/// code at every width, one included), and checks the runners back in
/// bit-exactly. Every member's reply is byte-identical to the offline
/// forward at any width — the lane kernels' per-lane bit-identity
/// contract — so gang membership is invisible on the wire.
fn execute_gang(
    conns: &mut HashMap<usize, Conn>,
    mut gang: Vec<ReadyStep>,
    handle: &Arc<ShardHandle>,
) {
    let width = gang.len();
    debug_assert!(width >= 1);
    let gid = handle.gang_seq.fetch_add(1, Ordering::Relaxed);
    if gang.iter().any(|st| st.trace.is_some()) {
        let now = telemetry::flight::now_ns();
        for st in gang.iter_mut() {
            if let Some(rec) = st.trace.as_mut() {
                rec.batch = gid;
                rec.stamps_ns[STAMP_BATCH] = now;
            }
        }
    }
    // Check the runners out (each session transiently holds `None`).
    let mut runners: Vec<SessionRunner> = Vec::with_capacity(width);
    for st in &gang {
        let s = conns
            .get_mut(&st.token)
            .expect("validated this wave")
            .sessions
            .get_mut(&st.session)
            .expect("validated this wave");
        runners.push(s.runner.take().expect("runner checked in"));
    }
    let t0 = telemetry::flight::now_ns();
    let outputs: Vec<Payload> = if matches!(runners[0], SessionRunner::Fx(_)) {
        let mut members: Vec<&mut FxSeqRunner> = runners
            .iter_mut()
            .map(|r| match r {
                SessionRunner::Fx(r) => r,
                SessionRunner::F32(_) => unreachable!("gang grouped by stack"),
            })
            .collect();
        let xs: Vec<&[i16]> = gang
            .iter()
            .map(|st| match &st.input {
                Payload::Fx(x) => x.as_slice(),
                Payload::F32(_) => unreachable!("gang grouped by stack"),
            })
            .collect();
        FxSeqRunnerBatch::step(&mut members, &xs)
            .into_iter()
            .map(Payload::Fx)
            .collect()
    } else {
        let mut members: Vec<&mut SeqRunner> = runners
            .iter_mut()
            .map(|r| match r {
                SessionRunner::F32(r) => r,
                SessionRunner::Fx(_) => unreachable!("gang grouped by stack"),
            })
            .collect();
        let xs: Vec<&[f32]> = gang
            .iter()
            .map(|st| match &st.input {
                Payload::F32(x) => x.as_slice(),
                Payload::Fx(_) => unreachable!("gang grouped by stack"),
            })
            .collect();
        SeqRunnerBatch::step(&mut members, &xs)
            .into_iter()
            .map(Payload::F32)
            .collect()
    };
    let t1 = telemetry::flight::now_ns();
    metrics::SESSION_STEP_NS.record(t1.saturating_sub(t0));
    metrics::SESSION_GANG_WIDTH.record(width as u64);
    metrics::SESSION_STEPS.add(width as u64);
    if width >= 2 {
        metrics::SESSION_GANGS.add(1);
        metrics::SESSION_STEPS_GANGED.add(width as u64);
    } else {
        metrics::SESSION_STEPS_SCALAR.add(1);
    }
    // Check the runners back in and deliver, in member order.
    let stepped_at = Instant::now();
    for (mut st, (runner, out)) in gang.into_iter().zip(runners.into_iter().zip(outputs)) {
        if let Some(rec) = st.trace.as_mut() {
            rec.stamps_ns[STAMP_INFER_START] = t0;
            rec.stamps_ns[STAMP_INFER_END] = t1;
        }
        let conn = conns.get_mut(&st.token).expect("validated this wave");
        let s = conn
            .sessions
            .get_mut(&st.session)
            .expect("validated this wave");
        s.runner = Some(runner);
        s.last_used = stepped_at;
        conn.shared.push_reply(
            st.seq,
            encode_for_wire(&Response::Output(out), st.json),
            st.trace,
        );
    }
}
