//! The rpbcm-serve wire protocol (RPBS): length-prefixed binary frames,
//! plus a line-delimited JSON mode for debugging.
//!
//! The **normative byte-level specification** lives in
//! `docs/PROTOCOL.md` (compiled into the crate docs as [`crate::spec`],
//! so its examples are checked by `cargo test`). This module is the
//! reference codec.
//!
//! # Handshake
//!
//! A connection's first bytes pick the mode:
//!
//! - `RPBS` (4 bytes) — binary mode for the rest of the connection.
//! - `{` — line-delimited JSON mode; every request is one JSON object
//!   on one line, every response likewise.
//!
//! # Binary frames
//!
//! Both directions use `u32` little-endian length + payload. Request
//! payloads:
//!
//! ```text
//! u8 opcode            0 = ping, 1 = infer (f32), 2 = infer (fx/i16),
//!                      3 = shutdown, 4 = hello, 5 = stats,
//!                      6 = session_open, 7 = session_step,
//!                      8 = session_close
//! infer only:
//!   u8    model name length, then UTF-8 name bytes
//!   u32   element count
//!   values  f32 LE (opcode 1) or i16 LE (opcode 2)
//! hello only:
//!   u8    tenant name length, then UTF-8 tenant bytes
//! session_open only:
//!   u8    mode: 0 = f32, 1 = fx
//!   u8    model name length, then UTF-8 name bytes
//! session_step only:
//!   u8    mode: 0 = f32, 1 = fx (must match the session's mode)
//!   u64   session id, LE
//!   u32   element count
//!   values  f32 LE (mode 0) or i16 LE (mode 1)
//! session_close only:
//!   u64   session id, LE
//! ```
//!
//! Response payloads:
//!
//! ```text
//! u8 status            0 ok, 1 overloaded, 2 bad_request,
//!                      3 shutting_down, 4 unknown_model,
//!                      5 quota_exceeded
//! ok infer / session_step / session_close:
//!             u32 element count + values (same scalar type as request;
//!             a session_close ok body is an empty f32 payload)
//! ok stats:   u32 byte length + UTF-8 JSON snapshot document
//! ok session_open:
//!             u64 session id + u64 pinned model version, both LE
//! non-ok:     u32 message length + UTF-8 diagnostic
//! ```
//!
//! There are no request ids, so an `ok` body is typed by the request it
//! answers: clients decode infer replies with [`decode_response`], stats
//! replies with [`decode_stats_response`], and session-open replies with
//! [`decode_session_response`].
//!
//! The exact bytes, cross-checked (an fx infer of two words against
//! model `"m"`, and its ok reply):
//!
//! ```
//! use serve::protocol::{decode_request, decode_response, encode_request,
//!     encode_response, Payload, Request, Response};
//!
//! let req = Request::Infer { model: "m".into(), input: Payload::Fx(vec![7, -1]) };
//! let bytes = encode_request(&req);
//! assert_eq!(bytes, [
//!     2,                      // opcode: infer (fx)
//!     1, b'm',                // name length + name
//!     2, 0, 0, 0,             // element count, u32 LE
//!     7, 0,                   // 7_i16 LE
//!     0xFF, 0xFF,             // -1_i16 LE
//! ]);
//! assert_eq!(decode_request(&bytes).unwrap(), req);
//!
//! let resp = Response::Output(Payload::Fx(vec![42]));
//! let bytes = encode_response(&resp);
//! assert_eq!(bytes, [
//!     0,                      // status: ok
//!     1, 0, 0, 0,             // element count, u32 LE
//!     42, 0,                  // 42_i16 LE
//! ]);
//! assert_eq!(decode_response(&bytes, true).unwrap(), resp);
//! ```
//!
//! # Ordering
//!
//! Responses are delivered **in request order** on each connection;
//! there are no request ids. Clients may pipeline freely.
//!
//! # JSON mode
//!
//! Requests: `{"op":"ping"}`, `{"op":"shutdown"}`, `{"op":"stats"}`,
//! `{"op":"hello","tenant":"<name>"}`,
//! `{"op":"infer","model":"<name>","mode":"f32"|"fx","input":[...]}`,
//! `{"op":"session_open","model":"<name>","mode":"f32"|"fx"}`,
//! `{"op":"session_step","session":<id>,"mode":"f32"|"fx","input":[...]}`,
//! or `{"op":"session_close","session":<id>}`.
//! Responses: `{"status":"ok","output":[...]}`,
//! `{"status":"ok","stats":{...}}` (stats only),
//! `{"status":"ok","session":<id>,"version":<v>}` (session_open only) or
//! `{"status":"<error>","error":"<diagnostic>"}`. The parser accepts
//! exactly this shape — it is a debugging convenience, not a general
//! JSON implementation.

use std::io::{Read, Write};

/// Binary-mode connection preamble.
pub const HANDSHAKE: [u8; 4] = *b"RPBS";

/// Upper bound on a single frame; larger lengths are treated as protocol
/// corruption rather than honored as allocations.
pub const MAX_FRAME: usize = 64 << 20;

/// Outcome of one request, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was served.
    Ok,
    /// Admission control shed the request (queue at capacity).
    Overloaded,
    /// The request was malformed (bad opcode, wrong input length, …).
    BadRequest,
    /// The server is draining and no longer admits requests.
    ShuttingDown,
    /// The named model is not in the registry.
    UnknownModel,
    /// The connection's tenant is at its in-flight quota.
    QuotaExceeded,
}

impl Status {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::BadRequest => 2,
            Status::ShuttingDown => 3,
            Status::UnknownModel => 4,
            Status::QuotaExceeded => 5,
        }
    }

    /// Parses a wire code.
    pub fn from_code(c: u8) -> Option<Status> {
        Some(match c {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::BadRequest,
            3 => Status::ShuttingDown,
            4 => Status::UnknownModel,
            5 => Status::QuotaExceeded,
            _ => return None,
        })
    }

    /// Stable lower-snake name (used by the JSON mode).
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::BadRequest => "bad_request",
            Status::ShuttingDown => "shutting_down",
            Status::UnknownModel => "unknown_model",
            Status::QuotaExceeded => "quota_exceeded",
        }
    }
}

/// Numeric payload of an inference request or reply: the scalar type
/// selects the engine path (f32 → float fast path, i16 → hwsim
/// fixed-point datapath).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Float samples for the float path.
    F32(Vec<f32>),
    /// Q-format words for the fixed-point datapath ("FPGA mode").
    Fx(Vec<i16>),
}

impl Payload {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::Fx(v) => v.len(),
        }
    }

    /// Whether the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// One sample for one model.
    Infer {
        /// Registry model name.
        model: String,
        /// The sample; its variant selects float vs fixed-point.
        input: Payload,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// Declare the connection's tenant for admission quotas.
    Hello {
        /// Tenant name the connection's subsequent requests count
        /// against.
        tenant: String,
    },
    /// Ask for a versioned introspection snapshot (registry metrics,
    /// per-shard stage-latency histograms, queue/quota state).
    Stats,
    /// Open a stateful streaming session against a model. The server
    /// pins the session to the handling shard, resolves the model
    /// version **once**, and holds the recurrent hidden state
    /// server-side until close or idle expiry.
    SessionOpen {
        /// Registry model name.
        model: String,
        /// `true` for the fixed-point datapath, `false` for float.
        fx: bool,
    },
    /// Advance an open session by one timestep.
    SessionStep {
        /// Session id from the open reply.
        session: u64,
        /// One timestep of input; its variant must match the session's
        /// mode.
        input: Payload,
    },
    /// Close a session and release its state and quota slot.
    SessionClose {
        /// Session id from the open reply.
        session: u64,
    },
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Served: the model output, same scalar type as the request.
    Output(Payload),
    /// A `stats` reply: the snapshot as one UTF-8 JSON document.
    Stats(String),
    /// A `session_open` reply: the session id and the model version the
    /// session is pinned to (hot swaps never change it mid-session).
    Session {
        /// Server-assigned session id, unique per connection lifetime.
        session: u64,
        /// The registry version resolved at open.
        version: u64,
    },
    /// Not served; carries the status and a short diagnostic.
    Error(Status, String),
}

/// Protocol failure while reading a frame.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection between frames.
    Closed,
    /// Socket error.
    Io(std::io::Error),
    /// The frame violates the format (bad opcode, oversized, …).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Binary framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame fits u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. [`WireError::Closed`] when the peer
/// hung up cleanly before the length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len4 = [0u8; 4];
    read_exact_or_closed(r, &mut len4, true)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!("frame of {len} bytes")));
    }
    let mut buf = vec![0u8; len];
    read_exact_or_closed(r, &mut buf, false)?;
    Ok(buf)
}

/// `read_exact` that maps a clean EOF at a frame boundary to
/// [`WireError::Closed`] and mid-frame EOF to [`WireError::Malformed`].
fn read_exact_or_closed(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Err(WireError::Closed)
                } else {
                    Err(WireError::Malformed("eof inside frame".into()))
                };
            }
            Ok(n) => filled += n,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&u32::try_from(v).expect("count fits u32").to_le_bytes());
}

/// Encodes a request payload (without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Ping => out.push(0),
        Request::Infer { model, input } => {
            out.push(match input {
                Payload::F32(_) => 1,
                Payload::Fx(_) => 2,
            });
            out.push(u8::try_from(model.len()).expect("model name fits u8"));
            out.extend_from_slice(model.as_bytes());
            put_u32(&mut out, input.len());
            match input {
                Payload::F32(vs) => {
                    for v in vs {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Payload::Fx(vs) => {
                    for v in vs {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        Request::Shutdown => out.push(3),
        Request::Hello { tenant } => {
            out.push(4);
            out.push(u8::try_from(tenant.len()).expect("tenant name fits u8"));
            out.extend_from_slice(tenant.as_bytes());
        }
        Request::Stats => out.push(5),
        Request::SessionOpen { model, fx } => {
            out.push(6);
            out.push(u8::from(*fx));
            out.push(u8::try_from(model.len()).expect("model name fits u8"));
            out.extend_from_slice(model.as_bytes());
        }
        Request::SessionStep { session, input } => {
            out.push(7);
            out.push(match input {
                Payload::F32(_) => 0,
                Payload::Fx(_) => 1,
            });
            out.extend_from_slice(&session.to_le_bytes());
            put_u32(&mut out, input.len());
            match input {
                Payload::F32(vs) => {
                    for v in vs {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Payload::Fx(vs) => {
                    for v in vs {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        Request::SessionClose { session } => {
            out.push(8);
            out.extend_from_slice(&session.to_le_bytes());
        }
    }
    out
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`WireError::Malformed`] on unknown opcodes or inconsistent lengths.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let bad = |m: &str| WireError::Malformed(m.into());
    let (&op, rest) = buf.split_first().ok_or_else(|| bad("empty request"))?;
    match op {
        0 => {
            if rest.is_empty() {
                Ok(Request::Ping)
            } else {
                Err(bad("trailing bytes after ping"))
            }
        }
        3 => {
            if rest.is_empty() {
                Ok(Request::Shutdown)
            } else {
                Err(bad("trailing bytes after shutdown"))
            }
        }
        5 => {
            if rest.is_empty() {
                Ok(Request::Stats)
            } else {
                Err(bad("trailing bytes after stats"))
            }
        }
        4 => {
            let (&tenant_len, rest) = rest.split_first().ok_or_else(|| bad("missing tenant"))?;
            if rest.len() != tenant_len as usize {
                return Err(bad("tenant length disagrees with body"));
            }
            let tenant = std::str::from_utf8(rest)
                .map_err(|_| bad("non-UTF-8 tenant name"))?
                .to_string();
            Ok(Request::Hello { tenant })
        }
        1 | 2 => {
            let (&name_len, rest) = rest.split_first().ok_or_else(|| bad("missing name"))?;
            let name_len = name_len as usize;
            if rest.len() < name_len + 4 {
                return Err(bad("truncated infer header"));
            }
            let model = std::str::from_utf8(&rest[..name_len])
                .map_err(|_| bad("non-UTF-8 model name"))?
                .to_string();
            let rest = &rest[name_len..];
            let count = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let rest = &rest[4..];
            let scalar = if op == 1 { 4 } else { 2 };
            if rest.len() != count * scalar {
                return Err(bad("input length disagrees with count"));
            }
            let input = if op == 1 {
                Payload::F32(
                    rest.chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                )
            } else {
                Payload::Fx(
                    rest.chunks_exact(2)
                        .map(|c| i16::from_le_bytes([c[0], c[1]]))
                        .collect(),
                )
            };
            Ok(Request::Infer { model, input })
        }
        6 => {
            let (&mode, rest) = rest.split_first().ok_or_else(|| bad("missing mode"))?;
            let fx = match mode {
                0 => false,
                1 => true,
                _ => return Err(bad("unknown session mode")),
            };
            let (&name_len, rest) = rest.split_first().ok_or_else(|| bad("missing name"))?;
            if rest.len() != name_len as usize {
                return Err(bad("model name length disagrees with body"));
            }
            let model = std::str::from_utf8(rest)
                .map_err(|_| bad("non-UTF-8 model name"))?
                .to_string();
            Ok(Request::SessionOpen { model, fx })
        }
        7 => {
            let (&mode, rest) = rest.split_first().ok_or_else(|| bad("missing mode"))?;
            if rest.len() < 12 {
                return Err(bad("truncated session_step header"));
            }
            let session = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            let count = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]) as usize;
            let rest = &rest[12..];
            let input = match mode {
                0 => {
                    if rest.len() != count * 4 {
                        return Err(bad("input length disagrees with count"));
                    }
                    Payload::F32(
                        rest.chunks_exact(4)
                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    )
                }
                1 => {
                    if rest.len() != count * 2 {
                        return Err(bad("input length disagrees with count"));
                    }
                    Payload::Fx(
                        rest.chunks_exact(2)
                            .map(|c| i16::from_le_bytes([c[0], c[1]]))
                            .collect(),
                    )
                }
                _ => return Err(bad("unknown session mode")),
            };
            Ok(Request::SessionStep { session, input })
        }
        8 => {
            if rest.len() != 8 {
                return Err(bad("session_close wants exactly a u64 id"));
            }
            let session = u64::from_le_bytes(rest.try_into().expect("8 bytes"));
            Ok(Request::SessionClose { session })
        }
        other => Err(bad(&format!("unknown opcode {other}"))),
    }
}

/// Encodes a response payload (without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Output(payload) => {
            out.push(Status::Ok.code());
            put_u32(&mut out, payload.len());
            match payload {
                Payload::F32(vs) => {
                    for v in vs {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Payload::Fx(vs) => {
                    for v in vs {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        Response::Stats(doc) => {
            out.push(Status::Ok.code());
            put_u32(&mut out, doc.len());
            out.extend_from_slice(doc.as_bytes());
        }
        Response::Session { session, version } => {
            out.push(Status::Ok.code());
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
        }
        Response::Error(status, msg) => {
            out.push(status.code());
            put_u32(&mut out, msg.len());
            out.extend_from_slice(msg.as_bytes());
        }
    }
    out
}

/// Decodes a response payload. `fx` tells the decoder which scalar type
/// an `ok` body carries (the protocol echoes the request's type).
///
/// Only for replies to *infer-shaped* requests — a `stats` reply's `ok`
/// body is a JSON document, decoded by [`decode_stats_response`].
///
/// # Errors
///
/// [`WireError::Malformed`] on unknown status codes or inconsistent
/// lengths.
pub fn decode_response(buf: &[u8], fx: bool) -> Result<Response, WireError> {
    let bad = |m: &str| WireError::Malformed(m.into());
    let (&code, rest) = buf.split_first().ok_or_else(|| bad("empty response"))?;
    let status = Status::from_code(code).ok_or_else(|| bad("unknown status"))?;
    if rest.len() < 4 {
        return Err(bad("truncated response"));
    }
    let count = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let rest = &rest[4..];
    match status {
        Status::Ok => {
            let scalar = if fx { 2 } else { 4 };
            if rest.len() != count * scalar {
                return Err(bad("output length disagrees with count"));
            }
            let payload = if fx {
                Payload::Fx(
                    rest.chunks_exact(2)
                        .map(|c| i16::from_le_bytes([c[0], c[1]]))
                        .collect(),
                )
            } else {
                Payload::F32(
                    rest.chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                )
            };
            Ok(Response::Output(payload))
        }
        _ => {
            if rest.len() != count {
                return Err(bad("diagnostic length disagrees with count"));
            }
            let msg = std::str::from_utf8(rest)
                .map_err(|_| bad("non-UTF-8 diagnostic"))?
                .to_string();
            Ok(Response::Error(status, msg))
        }
    }
}

/// Decodes a reply to a `stats` request: an `ok` body is `u32` byte
/// length + a UTF-8 JSON snapshot document ([`Response::Stats`]); a
/// non-ok body is the usual diagnostic ([`Response::Error`]).
///
/// # Errors
///
/// [`WireError::Malformed`] on unknown status codes or inconsistent
/// lengths.
pub fn decode_stats_response(buf: &[u8]) -> Result<Response, WireError> {
    let bad = |m: &str| WireError::Malformed(m.into());
    let (&code, rest) = buf.split_first().ok_or_else(|| bad("empty response"))?;
    let status = Status::from_code(code).ok_or_else(|| bad("unknown status"))?;
    if rest.len() < 4 {
        return Err(bad("truncated response"));
    }
    let count = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let rest = &rest[4..];
    if rest.len() != count {
        return Err(bad("body length disagrees with count"));
    }
    let text = std::str::from_utf8(rest)
        .map_err(|_| bad("non-UTF-8 body"))?
        .to_string();
    match status {
        Status::Ok => Ok(Response::Stats(text)),
        _ => Ok(Response::Error(status, text)),
    }
}

/// Decodes a reply to a `session_open` request: an `ok` body is two
/// `u64` LE words — session id then pinned model version
/// ([`Response::Session`]); a non-ok body is the usual diagnostic.
///
/// # Errors
///
/// [`WireError::Malformed`] on unknown status codes or inconsistent
/// lengths.
pub fn decode_session_response(buf: &[u8]) -> Result<Response, WireError> {
    let bad = |m: &str| WireError::Malformed(m.into());
    let (&code, rest) = buf.split_first().ok_or_else(|| bad("empty response"))?;
    let status = Status::from_code(code).ok_or_else(|| bad("unknown status"))?;
    match status {
        Status::Ok => {
            if rest.len() != 16 {
                return Err(bad("session_open ok body wants two u64 words"));
            }
            let session = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            let version = u64::from_le_bytes(rest[8..].try_into().expect("8 bytes"));
            Ok(Response::Session { session, version })
        }
        _ => {
            if rest.len() < 4 {
                return Err(bad("truncated response"));
            }
            let count = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let rest = &rest[4..];
            if rest.len() != count {
                return Err(bad("diagnostic length disagrees with count"));
            }
            let msg = std::str::from_utf8(rest)
                .map_err(|_| bad("non-UTF-8 diagnostic"))?
                .to_string();
            Ok(Response::Error(status, msg))
        }
    }
}

// ---------------------------------------------------------------------
// JSON debug mode
// ---------------------------------------------------------------------

/// Parses one JSON-mode request line (see module docs for the accepted
/// shape).
///
/// # Errors
///
/// [`WireError::Malformed`] with a diagnostic for anything outside the
/// accepted subset.
pub fn parse_json_request(line: &str) -> Result<Request, WireError> {
    let bad = |m: &str| WireError::Malformed(m.into());
    let obj = json_object(line).ok_or_else(|| bad("not a JSON object"))?;
    let op = json_string(&obj, "op").ok_or_else(|| bad("missing \"op\""))?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "stats" => Ok(Request::Stats),
        "hello" => {
            let tenant = json_string(&obj, "tenant").ok_or_else(|| bad("missing \"tenant\""))?;
            Ok(Request::Hello { tenant })
        }
        "infer" => {
            let model = json_string(&obj, "model").ok_or_else(|| bad("missing \"model\""))?;
            let mode = json_string(&obj, "mode").unwrap_or_else(|| "f32".to_string());
            let nums = json_numbers(&obj, "input").ok_or_else(|| bad("missing \"input\""))?;
            let input = match mode.as_str() {
                "f32" => Payload::F32(nums.iter().map(|&v| v as f32).collect()),
                "fx" => {
                    let mut words = Vec::with_capacity(nums.len());
                    for &v in &nums {
                        if v.fract() != 0.0
                            || !(f64::from(i16::MIN)..=f64::from(i16::MAX)).contains(&v)
                        {
                            return Err(bad("fx input values must be i16 integers"));
                        }
                        words.push(v as i16);
                    }
                    Payload::Fx(words)
                }
                other => return Err(bad(&format!("unknown mode {other:?}"))),
            };
            Ok(Request::Infer { model, input })
        }
        "session_open" => {
            let model = json_string(&obj, "model").ok_or_else(|| bad("missing \"model\""))?;
            let mode = json_string(&obj, "mode").unwrap_or_else(|| "f32".to_string());
            let fx = match mode.as_str() {
                "f32" => false,
                "fx" => true,
                other => return Err(bad(&format!("unknown mode {other:?}"))),
            };
            Ok(Request::SessionOpen { model, fx })
        }
        "session_step" => {
            let session = json_u64(&obj, "session").ok_or_else(|| bad("missing \"session\""))?;
            let mode = json_string(&obj, "mode").unwrap_or_else(|| "f32".to_string());
            let nums = json_numbers(&obj, "input").ok_or_else(|| bad("missing \"input\""))?;
            let input = match mode.as_str() {
                "f32" => Payload::F32(nums.iter().map(|&v| v as f32).collect()),
                "fx" => {
                    let mut words = Vec::with_capacity(nums.len());
                    for &v in &nums {
                        if v.fract() != 0.0
                            || !(f64::from(i16::MIN)..=f64::from(i16::MAX)).contains(&v)
                        {
                            return Err(bad("fx input values must be i16 integers"));
                        }
                        words.push(v as i16);
                    }
                    Payload::Fx(words)
                }
                other => return Err(bad(&format!("unknown mode {other:?}"))),
            };
            Ok(Request::SessionStep { session, input })
        }
        "session_close" => {
            let session = json_u64(&obj, "session").ok_or_else(|| bad("missing \"session\""))?;
            Ok(Request::SessionClose { session })
        }
        other => Err(bad(&format!("unknown op {other:?}"))),
    }
}

/// Renders a response as one JSON line (no trailing newline).
pub fn render_json_response(resp: &Response) -> String {
    match resp {
        Response::Output(payload) => {
            let mut s = String::from("{\"status\":\"ok\",\"output\":[");
            match payload {
                Payload::F32(vs) => {
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        // Ryu-style shortest output is unnecessary; debug
                        // formatting round-trips f32 exactly.
                        s.push_str(&format!("{v:?}"));
                    }
                }
                Payload::Fx(vs) => {
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        s.push_str(&v.to_string());
                    }
                }
            }
            s.push_str("]}");
            s
        }
        Response::Stats(doc) => {
            // The snapshot is itself JSON; embed it raw, folding any
            // pretty-printing newlines so the reply stays one line.
            format!(
                "{{\"status\":\"ok\",\"stats\":{}}}",
                doc.replace('\n', " ").trim()
            )
        }
        Response::Session { session, version } => {
            format!("{{\"status\":\"ok\",\"session\":{session},\"version\":{version}}}")
        }
        Response::Error(status, msg) => {
            format!(
                "{{\"status\":\"{}\",\"error\":\"{}\"}}",
                status.name(),
                msg.replace('\\', "\\\\").replace('"', "\\\"")
            )
        }
    }
}

/// The flat key/value view of one small JSON object: string values kept
/// verbatim, arrays kept as their raw bracketed text.
type JsonObj = Vec<(String, JsonValue)>;

enum JsonValue {
    Str(String),
    Array(Vec<f64>),
    Num(f64),
}

fn json_string(obj: &JsonObj, key: &str) -> Option<String> {
    obj.iter().find_map(|(k, v)| match v {
        JsonValue::Str(s) if k == key => Some(s.clone()),
        _ => None,
    })
}

fn json_numbers(obj: &JsonObj, key: &str) -> Option<Vec<f64>> {
    obj.iter().find_map(|(k, v)| match v {
        JsonValue::Array(a) if k == key => Some(a.clone()),
        _ => None,
    })
}

fn json_number(obj: &JsonObj, key: &str) -> Option<f64> {
    obj.iter().find_map(|(k, v)| match v {
        JsonValue::Num(n) if k == key => Some(*n),
        _ => None,
    })
}

/// Parses a non-negative integer field that must fit a `u64` exactly
/// (session ids on the JSON path).
fn json_u64(obj: &JsonObj, key: &str) -> Option<u64> {
    let n = json_number(obj, key)?;
    if n.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&n) {
        return None;
    }
    Some(n as u64)
}

/// Hand-rolled parser for one flat object of string and numeric-array
/// values — the only JSON the debug mode speaks.
fn json_object(line: &str) -> Option<JsonObj> {
    let s = line.trim();
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut obj = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        let key = rest[..end].to_string();
        rest = rest[end + 1..].trim_start().strip_prefix(':')?.trim_start();
        if let Some(tail) = rest.strip_prefix('"') {
            let end = tail.find('"')?;
            obj.push((key, JsonValue::Str(tail[..end].to_string())));
            rest = &tail[end + 1..];
        } else if let Some(tail) = rest.strip_prefix('[') {
            let end = tail.find(']')?;
            let body = &tail[..end];
            let mut nums = Vec::new();
            for part in body.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                nums.push(part.parse::<f64>().ok()?);
            }
            obj.push((key, JsonValue::Array(nums)));
            rest = &tail[end + 1..];
        } else {
            // A bare number runs to the next comma or the object end.
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let n = rest[..end].trim().parse::<f64>().ok()?;
            obj.push((key, JsonValue::Num(n)));
            rest = &rest[end..];
        }
        rest = rest.trim_start();
        rest = match rest.strip_prefix(',') {
            Some(r) => r.trim_start(),
            None => {
                if rest.is_empty() {
                    rest
                } else {
                    return None;
                }
            }
        };
    }
    Some(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_request_round_trips() {
        for req in [
            Request::Ping,
            Request::Shutdown,
            Request::Hello {
                tenant: "team-a".into(),
            },
            Request::Infer {
                model: "mlp".into(),
                input: Payload::F32(vec![1.5, -2.25, 0.0]),
            },
            Request::Infer {
                model: "conv".into(),
                input: Payload::Fx(vec![-7, 0, 1234]),
            },
            Request::Stats,
            Request::SessionOpen {
                model: "lstm".into(),
                fx: false,
            },
            Request::SessionOpen {
                model: "lstm".into(),
                fx: true,
            },
            Request::SessionStep {
                session: u64::MAX - 1,
                input: Payload::F32(vec![0.5, -0.25]),
            },
            Request::SessionStep {
                session: 3,
                input: Payload::Fx(vec![-7, 0, 1234]),
            },
            Request::SessionClose { session: 42 },
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn session_frames_have_the_documented_layout() {
        let open = encode_request(&Request::SessionOpen {
            model: "m".into(),
            fx: true,
        });
        assert_eq!(open, [6, 1, 1, b'm']);
        let step = encode_request(&Request::SessionStep {
            session: 0x0102,
            input: Payload::Fx(vec![7]),
        });
        assert_eq!(step, [7, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 7, 0]);
        let close = encode_request(&Request::SessionClose { session: 9 });
        assert_eq!(close, [8, 9, 0, 0, 0, 0, 0, 0, 0]);

        let opened = Response::Session {
            session: 9,
            version: 2,
        };
        let bytes = encode_response(&opened);
        assert_eq!(bytes, [0, 9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_session_response(&bytes).unwrap(), opened);
    }

    #[test]
    fn malformed_session_frames_are_rejected() {
        // Unknown mode byte.
        assert!(decode_request(&[6, 2, 1, b'm']).is_err());
        // Name length disagrees with body.
        assert!(decode_request(&[6, 0, 4, b'm']).is_err());
        // Truncated step header.
        assert!(decode_request(&[7, 0, 1, 0, 0]).is_err());
        // Count says one fx word, body holds none.
        assert!(decode_request(&[7, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]).is_err());
        // Close with a short id.
        assert!(decode_request(&[8, 1, 2, 3]).is_err());
        // Session-open ok reply must be exactly two u64 words.
        assert!(decode_session_response(&[0, 1, 2, 3]).is_err());
        // Errors decode on the session reply path too.
        let err = Response::Error(Status::UnknownModel, "no such model".into());
        assert_eq!(
            decode_session_response(&encode_response(&err)).unwrap(),
            err
        );
    }

    #[test]
    fn stats_round_trips_and_rejects_trailing_bytes() {
        assert_eq!(encode_request(&Request::Stats), [5]);
        assert!(decode_request(&[5, 0]).is_err());

        let resp = Response::Stats("{\"stats_version\":1}".into());
        let bytes = encode_response(&resp);
        assert_eq!(bytes[0], 0, "a stats reply is an ok-status body");
        assert_eq!(decode_stats_response(&bytes).unwrap(), resp);
        // Errors decode identically on both reply paths.
        let err = Response::Error(Status::ShuttingDown, "draining".into());
        assert_eq!(decode_stats_response(&encode_response(&err)).unwrap(), err);
        // Truncated body.
        assert!(decode_stats_response(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_stats_response(&[]).is_err());
    }

    #[test]
    fn binary_response_round_trips() {
        let ok = Response::Output(Payload::F32(vec![0.5, -1.0]));
        let bytes = encode_response(&ok);
        assert_eq!(decode_response(&bytes, false).unwrap(), ok);
        let okx = Response::Output(Payload::Fx(vec![17, -3]));
        let bytes = encode_response(&okx);
        assert_eq!(decode_response(&bytes, true).unwrap(), okx);
        let err = Response::Error(Status::Overloaded, "queue full".into());
        let bytes = encode_response(&err);
        assert_eq!(decode_response(&bytes, false).unwrap(), err);
        let quota = Response::Error(Status::QuotaExceeded, "tenant at limit".into());
        let bytes = encode_response(&quota);
        assert_eq!(bytes[0], 5);
        assert_eq!(decode_response(&bytes, false).unwrap(), quota);
    }

    #[test]
    fn malformed_binary_is_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[9]).is_err());
        assert!(decode_request(&[0, 1]).is_err());
        // Count says 2 floats, body has one.
        let mut buf = vec![1u8, 1, b'm', 2, 0, 0, 0];
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(decode_request(&buf).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn json_requests_parse() {
        assert_eq!(
            parse_json_request("{\"op\":\"ping\"}").unwrap(),
            Request::Ping
        );
        let req = parse_json_request(
            "{\"op\":\"infer\",\"model\":\"mlp\",\"mode\":\"f32\",\"input\":[1.5,-2,0.25]}",
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Infer {
                model: "mlp".into(),
                input: Payload::F32(vec![1.5, -2.0, 0.25]),
            }
        );
        let req = parse_json_request(
            "{\"op\":\"infer\",\"model\":\"m\",\"mode\":\"fx\",\"input\":[3,-4]}",
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Infer {
                model: "m".into(),
                input: Payload::Fx(vec![3, -4]),
            }
        );
        assert!(parse_json_request(
            "{\"op\":\"infer\",\"model\":\"m\",\"mode\":\"fx\",\"input\":[1.5]}"
        )
        .is_err());
        assert!(parse_json_request("not json").is_err());
        assert!(parse_json_request("{\"op\":\"explode\"}").is_err());
        assert_eq!(
            parse_json_request("{\"op\":\"hello\",\"tenant\":\"t0\"}").unwrap(),
            Request::Hello {
                tenant: "t0".into()
            }
        );
        assert!(parse_json_request("{\"op\":\"hello\"}").is_err());
    }

    #[test]
    fn json_session_requests_parse() {
        assert_eq!(
            parse_json_request("{\"op\":\"session_open\",\"model\":\"lstm\",\"mode\":\"fx\"}")
                .unwrap(),
            Request::SessionOpen {
                model: "lstm".into(),
                fx: true,
            }
        );
        assert_eq!(
            parse_json_request("{\"op\":\"session_open\",\"model\":\"lstm\"}").unwrap(),
            Request::SessionOpen {
                model: "lstm".into(),
                fx: false,
            }
        );
        assert_eq!(
            parse_json_request("{\"op\":\"session_step\",\"session\":7,\"input\":[1.5,-2]}")
                .unwrap(),
            Request::SessionStep {
                session: 7,
                input: Payload::F32(vec![1.5, -2.0]),
            }
        );
        assert_eq!(
            parse_json_request(
                "{\"op\":\"session_step\",\"session\":7,\"mode\":\"fx\",\"input\":[3,-4]}"
            )
            .unwrap(),
            Request::SessionStep {
                session: 7,
                input: Payload::Fx(vec![3, -4]),
            }
        );
        assert_eq!(
            parse_json_request("{\"op\":\"session_close\",\"session\":12}").unwrap(),
            Request::SessionClose { session: 12 }
        );
        // Fractional and negative session ids are rejected.
        assert!(parse_json_request("{\"op\":\"session_close\",\"session\":1.5}").is_err());
        assert!(parse_json_request("{\"op\":\"session_close\",\"session\":-1}").is_err());
        assert!(parse_json_request("{\"op\":\"session_step\",\"session\":1}").is_err());
        assert_eq!(
            render_json_response(&Response::Session {
                session: 3,
                version: 1
            }),
            "{\"status\":\"ok\",\"session\":3,\"version\":1}"
        );
    }

    #[test]
    fn json_responses_render() {
        assert_eq!(
            render_json_response(&Response::Output(Payload::Fx(vec![1, -2]))),
            "{\"status\":\"ok\",\"output\":[1,-2]}"
        );
        assert_eq!(
            parse_json_request("{\"op\":\"stats\"}").unwrap(),
            Request::Stats
        );
        let rendered = render_json_response(&Response::Stats("{\"a\":\n1}".into()));
        assert_eq!(rendered, "{\"status\":\"ok\",\"stats\":{\"a\": 1}}");
        assert!(!rendered.contains('\n'), "JSON mode replies are one line");
        assert_eq!(
            render_json_response(&Response::Error(Status::ShuttingDown, "draining".into())),
            "{\"status\":\"shutting_down\",\"error\":\"draining\"}"
        );
    }
}
