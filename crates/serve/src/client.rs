//! A minimal blocking client for the binary protocol, plus a one-shot
//! JSON-mode helper. Used by the loopback tests, the `exp_serve` load
//! generator, and as the reference implementation for external clients.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{self, Payload, Request, Response, Status, WireError, HANDSHAKE};

/// A binary-mode connection to a serve instance.
pub struct Client {
    stream: TcpStream,
}

/// A client-visible request failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with a non-`ok` status.
    Rejected(Status, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Rejected(status, msg) => {
                write!(f, "server replied {}: {msg}", status.name())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

impl Client {
    /// Connects and performs the binary-mode handshake.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&HANDSHAKE)?;
        stream.flush()?;
        Ok(Client { stream })
    }

    fn round_trip(&mut self, req: &Request, fx: bool) -> Result<Response, ClientError> {
        protocol::write_frame(&mut self.stream, &protocol::encode_request(req))?;
        let reply = protocol::read_frame(&mut self.stream)?;
        Ok(protocol::decode_response(&reply, fx)?)
    }

    fn expect_output(resp: Response) -> Result<Payload, ClientError> {
        match resp {
            Response::Output(p) => Ok(p),
            Response::Error(status, msg) => Err(ClientError::Rejected(status, msg)),
            Response::Stats(_) | Response::Session { .. } => Err(ClientError::Wire(
                WireError::Malformed("mistyped reply to payload request".into()),
            )),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-`ok` reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let resp = self.round_trip(&Request::Ping, false)?;
        Self::expect_output(resp).map(|_| ())
    }

    /// Runs one float sample through `model` on the float path.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries explicit `overloaded` /
    /// `shutting_down` / validation statuses.
    pub fn infer_f32(&mut self, model: &str, input: &[f32]) -> Result<Vec<f32>, ClientError> {
        let req = Request::Infer {
            model: model.to_string(),
            input: Payload::F32(input.to_vec()),
        };
        match Self::expect_output(self.round_trip(&req, false)?)? {
            Payload::F32(v) => Ok(v),
            Payload::Fx(_) => Err(ClientError::Wire(WireError::Malformed(
                "fx reply to f32 request".into(),
            ))),
        }
    }

    /// Runs one fixed-point sample through `model` on the hwsim datapath.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries explicit `overloaded` /
    /// `shutting_down` / validation statuses.
    pub fn infer_fx(&mut self, model: &str, input: &[i16]) -> Result<Vec<i16>, ClientError> {
        let req = Request::Infer {
            model: model.to_string(),
            input: Payload::Fx(input.to_vec()),
        };
        match Self::expect_output(self.round_trip(&req, true)?)? {
            Payload::Fx(v) => Ok(v),
            Payload::F32(_) => Err(ClientError::Wire(WireError::Malformed(
                "f32 reply to fx request".into(),
            ))),
        }
    }

    /// Declares this connection's tenant for quota accounting. Connections
    /// that never say hello are accounted under the anonymous tenant `""`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-`ok` reply.
    pub fn hello(&mut self, tenant: &str) -> Result<(), ClientError> {
        let req = Request::Hello {
            tenant: tenant.to_string(),
        };
        let resp = self.round_trip(&req, false)?;
        Self::expect_output(resp).map(|_| ())
    }

    /// Asks the server to shut down (the host decides when to act on it).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-`ok` reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let resp = self.round_trip(&Request::Shutdown, false)?;
        Self::expect_output(resp).map(|_| ())
    }

    /// Fetches the server's versioned stats snapshot — a JSON document
    /// with the configuration, model catalog, quota state, per-shard
    /// queue depth and stage-latency summaries, and the full telemetry
    /// report (see `docs/PROTOCOL.md` §3.4).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-`ok` reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        protocol::write_frame(&mut self.stream, &protocol::encode_request(&Request::Stats))?;
        let reply = protocol::read_frame(&mut self.stream)?;
        match protocol::decode_stats_response(&reply)? {
            Response::Stats(doc) => Ok(doc),
            Response::Error(status, msg) => Err(ClientError::Rejected(status, msg)),
            _ => Err(ClientError::Wire(WireError::Malformed(
                "mistyped reply to stats request".into(),
            ))),
        }
    }

    /// Opens a stateful streaming session against `model`. Returns the
    /// session id and the model version the session is pinned to — later
    /// hot swaps (`Registry::publish`) never affect an open session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with `bad_request` when the model has no
    /// streaming form (e.g. a convolutional stack), `unknown_model`,
    /// `overloaded` at the session cap, or `quota_exceeded`.
    pub fn open_session(&mut self, model: &str, fx: bool) -> Result<(u64, u64), ClientError> {
        let req = Request::SessionOpen {
            model: model.to_string(),
            fx,
        };
        protocol::write_frame(&mut self.stream, &protocol::encode_request(&req))?;
        let reply = protocol::read_frame(&mut self.stream)?;
        match protocol::decode_session_response(&reply)? {
            Response::Session { session, version } => Ok((session, version)),
            Response::Error(status, msg) => Err(ClientError::Rejected(status, msg)),
            _ => Err(ClientError::Wire(WireError::Malformed(
                "mistyped reply to session_open".into(),
            ))),
        }
    }

    /// Advances a float session by one timestep and returns the per-step
    /// output (head logits, or the last hidden state for headless nets).
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with `bad_request` on unknown/expired
    /// session ids, mode mismatches, or a wrong input width.
    pub fn session_step_f32(&mut self, session: u64, x: &[f32]) -> Result<Vec<f32>, ClientError> {
        let req = Request::SessionStep {
            session,
            input: Payload::F32(x.to_vec()),
        };
        match Self::expect_output(self.round_trip(&req, false)?)? {
            Payload::F32(v) => Ok(v),
            Payload::Fx(_) => Err(ClientError::Wire(WireError::Malformed(
                "fx reply to f32 session step".into(),
            ))),
        }
    }

    /// Advances a fixed-point session by one timestep.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with `bad_request` on unknown/expired
    /// session ids, mode mismatches, or a wrong input width.
    pub fn session_step_fx(&mut self, session: u64, x: &[i16]) -> Result<Vec<i16>, ClientError> {
        let req = Request::SessionStep {
            session,
            input: Payload::Fx(x.to_vec()),
        };
        match Self::expect_output(self.round_trip(&req, true)?)? {
            Payload::Fx(v) => Ok(v),
            Payload::F32(_) => Err(ClientError::Wire(WireError::Malformed(
                "f32 reply to fx session step".into(),
            ))),
        }
    }

    /// Closes a session, releasing its server-side state and quota slot.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with `bad_request` when the id is
    /// unknown (or already expired).
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        let resp = self.round_trip(&Request::SessionClose { session }, false)?;
        Self::expect_output(resp).map(|_| ())
    }
}

/// Sends one JSON-mode request line and returns the raw response line —
/// the debugging path, e.g.
/// `json_round_trip(addr, r#"{"op":"ping"}"#)`.
///
/// # Errors
///
/// Propagates socket errors; a missing response line surfaces as
/// [`WireError::Closed`].
pub fn json_round_trip(addr: impl ToSocketAddrs, line: &str) -> Result<String, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(ClientError::Wire(WireError::Closed));
    }
    Ok(reply.trim_end().to_string())
}
