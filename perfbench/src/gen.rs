//! The load generator: one thread, at most [`CONNS`] connections, with
//! requests pipelined on each connection.
//!
//! On a two-core host a generator with many client threads measures the
//! scheduler rather than the server, so everything here runs on the
//! calling thread: it writes due requests, waits for readiness with
//! [`crate::sys::wait_ready`], and matches replies to requests in order
//! (the server answers each connection in request order).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::protocol::{read_frame, HANDSHAKE};
use serve::Registry;

/// Connections the generator holds: the core count of the two-core
/// reference host, so no connection waits for a core the server needs.
pub const CONNS: usize = 2;

/// How long the generator waits for outstanding replies after a phase
/// stops issuing; a request still unanswered then counts as failed.
pub const DRAIN: Duration = Duration::from_secs(5);

/// Failure reasons kept per phase (the count is always exact).
const KEEP_REASONS: usize = 5;

/// What a reply meant to the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A served operation with a correct output: counts towards
    /// throughput and latency.
    Op,
    /// A correct reply to a control request (session open or close).
    Control,
    /// An error status, a wrong output or a malformed reply.
    Failed(String),
}

/// A workload's request stream and output check.
pub trait Traffic {
    /// Appends the next length-prefixed request frame for connection
    /// `conn` to `out` and returns the tag [`Traffic::on_reply`] will
    /// receive, or `None` when nothing can be sent on `conn` yet. `tick`
    /// is the open-loop schedule index (a running count in closed loop).
    fn request(&mut self, conn: usize, tick: u64, out: &mut Vec<u8>) -> Option<u64>;

    /// Checks the reply body to the request tagged `tag`.
    fn on_reply(&mut self, tag: u64, body: &[u8]) -> Verdict;

    /// Called on every turn of the generator loop: writes that run beside
    /// the requests (hot-swap publishes) happen here. Returns when it next
    /// wants to be called.
    fn tick(&mut self, _now: Instant) -> Option<Instant> {
        None
    }

    /// Forgets per-server state after a set-up round: the traffic now
    /// talks to a fresh server holding `registry`.
    fn reset(&mut self, _registry: &Arc<Registry>) {}
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: keep `window` requests in flight on every connection.
    Closed {
        /// In-flight requests per connection.
        window: usize,
    },
    /// Open loop: request `k` is due at `k / rate` seconds into the phase,
    /// on connection `k mod CONNS`, whether or not earlier ones returned.
    Open {
        /// Offered requests per second.
        rate: f64,
    },
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub attempted: u64,
    /// Replies that were correct operations.
    pub ops: u64,
    /// Requests that failed: error status, wrong output, or no reply.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Per operation: reply time minus due time, µs. In closed loop the
    /// due time is the send time.
    pub latency_us: Vec<f64>,
    /// Per open-loop request: send time minus due time, µs.
    pub lag_us: Vec<f64>,
    /// Completion time of each operation that finished before the phase
    /// ended, seconds since the phase started.
    pub done_s: Vec<f64>,
    /// Phase length, seconds (the issuing window, without the drain).
    pub seconds: f64,
}

impl Phase {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < KEEP_REASONS {
            self.reasons.push(reason);
        }
    }

    /// Completed operations per second in each of `windows` equal slices
    /// of the phase.
    pub fn window_rates(&self, windows: usize) -> Vec<f64> {
        let width = self.seconds / windows as f64;
        let mut counts = vec![0u64; windows];
        for &t in &self.done_s {
            let w = ((t / width) as usize).min(windows - 1);
            counts[w] += 1;
        }
        counts.iter().map(|&c| c as f64 / width).collect()
    }

    /// Adds another phase's request accounting to this one.
    pub fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.ops += other.ops;
        self.failed += other.failed;
        for r in &other.reasons {
            if self.reasons.len() < KEEP_REASONS {
                self.reasons.push(r.clone());
            }
        }
    }
}

struct Inflight {
    tag: u64,
    due: Instant,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    woff: usize,
    rbuf: Vec<u8>,
    inflight: VecDeque<Inflight>,
    dead: bool,
}

/// The generator's connections.
pub struct Generator {
    conns: Vec<Conn>,
    scratch: Vec<u8>,
}

impl Generator {
    /// Opens [`CONNS`] binary-protocol connections to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect and handshake errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Generator> {
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&HANDSHAKE)?;
            conns.push(Conn {
                stream,
                wbuf: Vec::new(),
                woff: 0,
                rbuf: Vec::new(),
                inflight: VecDeque::new(),
                dead: false,
            });
        }
        Ok(Generator {
            conns,
            scratch: vec![0u8; 64 << 10],
        })
    }

    /// Sends one request on connection 0 and blocks for its reply: the
    /// end of set-up is the first correct reply.
    ///
    /// # Errors
    ///
    /// A wire error, or the reply's failure reason.
    pub fn probe(&mut self, traffic: &mut impl Traffic) -> Result<(), String> {
        let conn = &mut self.conns[0];
        let mut frame = Vec::new();
        let tag = traffic
            .request(0, 0, &mut frame)
            .ok_or("workload had no first request")?;
        conn.stream
            .write_all(&frame)
            .map_err(|e| format!("probe write: {e}"))?;
        let body = read_frame(&mut conn.stream).map_err(|e| format!("probe read: {e}"))?;
        match traffic.on_reply(tag, &body) {
            Verdict::Failed(why) => Err(why),
            Verdict::Op | Verdict::Control => Ok(()),
        }
    }

    /// Runs one phase of `duration`, then drains outstanding replies.
    ///
    /// # Panics
    ///
    /// Panics if a socket cannot be switched to nonblocking mode or the
    /// readiness wait fails.
    pub fn run(&mut self, traffic: &mut impl Traffic, load: Load, duration: Duration) -> Phase {
        for c in &self.conns {
            c.stream
                .set_nonblocking(true)
                .expect("switch socket to nonblocking");
        }
        let mut ph = Phase::default();
        let start = Instant::now();
        let end = start + duration;
        let mut tick = 0u64;
        let due_of = |k: u64, rate: f64| start + Duration::from_secs_f64(k as f64 / rate);
        loop {
            let now = Instant::now();
            let wake = traffic.tick(now);
            if now < end {
                match load {
                    Load::Closed { window } => {
                        for ci in 0..self.conns.len() {
                            while self.conns[ci].inflight.len() < window {
                                if !self.issue(ci, tick, Instant::now(), None, traffic, &mut ph) {
                                    break;
                                }
                                tick += 1;
                            }
                        }
                    }
                    Load::Open { rate } => loop {
                        let due = due_of(tick, rate);
                        if due > now || due >= end {
                            break;
                        }
                        let ci = (tick % self.conns.len() as u64) as usize;
                        if !self.issue(ci, tick, due, Some(due), traffic, &mut ph) {
                            break;
                        }
                        tick += 1;
                    },
                }
            }
            self.flush(&mut ph);

            let outstanding: usize = self.conns.iter().map(|c| c.inflight.len()).sum();
            if now >= end && outstanding == 0 {
                break;
            }
            if now >= end + DRAIN {
                for c in &mut self.conns {
                    for _ in c.inflight.drain(..) {
                        ph.failed += 1;
                    }
                }
                if ph.reasons.len() < KEEP_REASONS {
                    ph.reasons
                        .push(format!("{outstanding} requests got no reply"));
                }
                break;
            }

            let mut deadline = match load {
                _ if now >= end => end + DRAIN,
                Load::Closed { .. } => end,
                Load::Open { rate } => due_of(tick, rate).min(end),
            };
            if let Some(w) = wake {
                deadline = deadline.min(w);
            }
            let timeout = deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(20));
            let streams: Vec<&TcpStream> = self.conns.iter().map(|c| &c.stream).collect();
            let want_write: Vec<bool> = self.conns.iter().map(|c| c.woff < c.wbuf.len()).collect();
            crate::sys::wait_ready(&streams, &want_write, timeout).expect("readiness wait");
            self.read_replies(traffic, &mut ph, start, end);
        }
        ph.seconds = duration.as_secs_f64();
        ph
    }

    fn issue(
        &mut self,
        ci: usize,
        tick: u64,
        due: Instant,
        lag_from: Option<Instant>,
        traffic: &mut impl Traffic,
        ph: &mut Phase,
    ) -> bool {
        let conn = &mut self.conns[ci];
        if conn.dead {
            return false;
        }
        let Some(tag) = traffic.request(ci, tick, &mut conn.wbuf) else {
            return false;
        };
        conn.inflight.push_back(Inflight { tag, due });
        ph.attempted += 1;
        if let Some(due) = lag_from {
            ph.lag_us
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        }
        true
    }

    fn flush(&mut self, ph: &mut Phase) {
        for c in &mut self.conns {
            while !c.dead && c.woff < c.wbuf.len() {
                match c.stream.write(&c.wbuf[c.woff..]) {
                    Ok(0) => kill(c, ph, "connection closed on write"),
                    Ok(n) => c.woff += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => kill(c, ph, &format!("write: {e}")),
                }
            }
            if c.woff == c.wbuf.len() {
                c.wbuf.clear();
                c.woff = 0;
            }
        }
    }

    fn read_replies(
        &mut self,
        traffic: &mut impl Traffic,
        ph: &mut Phase,
        start: Instant,
        end: Instant,
    ) {
        for c in &mut self.conns {
            while !c.dead {
                match c.stream.read(&mut self.scratch) {
                    Ok(0) => kill(c, ph, "connection closed by server"),
                    Ok(n) => c.rbuf.extend_from_slice(&self.scratch[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => kill(c, ph, &format!("read: {e}")),
                }
            }
            let now = Instant::now();
            let mut pos = 0usize;
            while c.rbuf.len() - pos >= 4 {
                let len =
                    u32::from_le_bytes(c.rbuf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                if c.rbuf.len() - pos - 4 < len {
                    break;
                }
                let body = &c.rbuf[pos + 4..pos + 4 + len];
                pos += 4 + len;
                let Some(req) = c.inflight.pop_front() else {
                    ph.fail("reply with no request outstanding".into());
                    continue;
                };
                match traffic.on_reply(req.tag, body) {
                    Verdict::Op => {
                        ph.ops += 1;
                        ph.latency_us
                            .push(now.saturating_duration_since(req.due).as_secs_f64() * 1e6);
                        if now < end {
                            ph.done_s.push((now - start).as_secs_f64());
                        }
                    }
                    Verdict::Control => {}
                    Verdict::Failed(why) => ph.fail(why),
                }
            }
            c.rbuf.drain(..pos);
        }
    }
}

/// Marks a connection dead and fails everything in flight on it.
fn kill(c: &mut Conn, ph: &mut Phase, why: &str) {
    c.dead = true;
    for _ in c.inflight.drain(..) {
        ph.fail(why.to_string());
    }
}
