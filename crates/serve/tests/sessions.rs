//! Streaming-session end-to-end tests: real loopback sessions against
//! the sharded server, with per-step outputs compared bit for bit
//! against the offline full-sequence forward, hot-swap version pinning,
//! idle-TTL expiry, and the session cap / tenant quota interactions.

use nn::layers::checkpoint::LayerSnapshot;
use nn::layers::{BcmConv2d, Layer, ReLU};
use nn::models::lstm_classifier;
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{protocol, Payload, Request, Response};
use serve::{Client, ClientError, Model, Registry, ServeConfig, Server, Status};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

const F: usize = 6; // per-step input features
const T: usize = 7; // sequence length

/// A pruned BCM-LSTM classifier (Algorithm 1 style: drop the
/// least-important quarter of blocks) and the checkpoint metadata that
/// keys its fixed-point mirror.
fn pruned_lstm(seed: u64) -> (Network, CheckpointMeta) {
    let mut net = lstm_classifier(F, 8, 4, 2, seed);
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    net.bcm_eliminate(&order[..importances.len() / 4]);
    assert!(net.bcm_sparsity() > 0.0);
    let meta = CheckpointMeta {
        input_dims: vec![F, T, 1],
        frac_bits: 12,
    };
    (net, meta)
}

/// A deterministic `[1, F, T, 1]` input sequence, distinct per seed.
fn sequence(seed: u64) -> Tensor<f32> {
    let vals: Vec<f32> = (0..F * T)
        .map(|i| ((i as f32 + seed as f32 * 0.37) * 0.81).sin() * 0.5)
        .collect();
    Tensor::from_vec(vals, &[1, F, T, 1])
}

/// Timestep `t` of a `[1, F, T, 1]` tensor as a flat step input.
fn step_input(x: &Tensor<f32>, t: usize) -> Vec<f32> {
    let xs = x.as_slice();
    (0..F).map(|j| xs[j * T + t]).collect()
}

/// Offline reference: the recurrent stack's full-sequence eval forward,
/// then the dense head applied to every timestep's hidden state — the
/// exact arithmetic a batched (non-streaming) deployment runs.
fn offline_per_step(net: &Network, x: &Tensor<f32>) -> Vec<Vec<f32>> {
    let mut cur = x.clone();
    let mut layers: Vec<Box<dyn Layer>> = net.layers().to_vec();
    for layer in &mut layers {
        if matches!(
            layer.snapshot(),
            Some(LayerSnapshot::BcmLstm { .. }) | Some(LayerSnapshot::BcmGru { .. })
        ) {
            cur = layer.forward(&cur, false);
        }
    }
    let hd = cur.dims()[1];
    let head = layers
        .iter()
        .position(|l| matches!(l.snapshot(), Some(LayerSnapshot::Linear { .. })))
        .expect("classifier head");
    (0..T)
        .map(|t| {
            let hs = cur.as_slice();
            let h: Vec<f32> = (0..hd).map(|j| hs[j * T + t]).collect();
            layers[head]
                .forward(&Tensor::from_vec(h, &[1, hd]), false)
                .as_slice()
                .to_vec()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn serve_one(net: Network, meta: CheckpointMeta, cfg: ServeConfig) -> (Server, String) {
    let name = net.name().to_string();
    let registry = Registry::new();
    registry.publish(Model::from_network(&name, net, meta));
    let server = Server::bind("127.0.0.1:0", cfg, registry).expect("bind");
    (server, name)
}

/// Offline fixed-point reference for one session: the quantized step
/// inputs and the per-step outputs of the scalar oracle
/// ([`serve::FxSeqRunner::step_scalar`]).
type FxStepRef = (Vec<Vec<i16>>, Vec<Vec<i16>>);

fn offline_fx_steps(net: &Network, meta: &CheckpointMeta, x: &Tensor<f32>) -> FxStepRef {
    let reference = Model::from_network("ref", net.clone(), meta.clone());
    let seq = reference.seq().expect("streamable");
    let mut runner = seq.new_fx().expect("fx streaming form");
    let q = runner.qformat();
    let steps: Vec<Vec<i16>> = (0..T)
        .map(|t| q.quantize_slice(&step_input(x, t)))
        .collect();
    let outs = steps.iter().map(|s| runner.step_scalar(s)).collect();
    (steps, outs)
}

/// A raw binary-mode connection that pipelines many frames before
/// reading any reply — the only way to put several `session_step`s in
/// front of a shard in one readiness burst, which is what forms lane
/// gangs. [`Client`] is strictly request-reply and never gangs wider
/// than one.
struct Pipelined {
    stream: TcpStream,
}

impl Pipelined {
    fn connect(addr: std::net::SocketAddr) -> Pipelined {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.write_all(&protocol::HANDSHAKE).expect("handshake");
        stream.flush().expect("flush");
        Pipelined { stream }
    }

    fn send(&mut self, req: &Request) {
        protocol::write_frame(&mut self.stream, &protocol::encode_request(req)).expect("send");
    }

    fn open(&mut self, model: &str, fx: bool) -> u64 {
        self.send(&Request::SessionOpen {
            model: model.to_string(),
            fx,
        });
        let frame = protocol::read_frame(&mut self.stream).expect("open reply");
        match protocol::decode_session_response(&frame).expect("decode open") {
            Response::Session { session, .. } => session,
            other => panic!("session_open rejected: {other:?}"),
        }
    }

    fn recv(&mut self, fx: bool) -> Response {
        let frame = protocol::read_frame(&mut self.stream).expect("reply frame");
        protocol::decode_response(&frame, fx).expect("decode reply")
    }

    fn recv_f32(&mut self) -> Vec<f32> {
        match self.recv(false) {
            Response::Output(Payload::F32(v)) => v,
            other => panic!("expected f32 output, got {other:?}"),
        }
    }

    fn recv_fx(&mut self) -> Vec<i16> {
        match self.recv(true) {
            Response::Output(Payload::Fx(v)) => v,
            other => panic!("expected fx output, got {other:?}"),
        }
    }
}

#[test]
fn float_session_steps_are_bit_identical_to_the_offline_forward() {
    let (net, meta) = pruned_lstm(41);
    let x = sequence(1);
    let want = offline_per_step(&net, &x);
    let (server, name) = serve_one(net, meta, ServeConfig::default());

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (sid, version) = client.open_session(&name, false).expect("open");
    assert!(version > 0, "open reply carries the pinned version");
    assert_eq!(server.active_sessions(), 1);

    for (t, want_t) in want.iter().enumerate() {
        let got = client
            .session_step_f32(sid, &step_input(&x, t))
            .expect("step");
        assert_eq!(bits(&got), bits(want_t), "step {t} diverged from offline");
    }
    client.close_session(sid).expect("close");
    assert_eq!(server.active_sessions(), 0);

    // A closed session is gone: stepping it is an explicit bad_request.
    match client.session_step_f32(sid, &step_input(&x, 0)) {
        Err(ClientError::Rejected(Status::BadRequest, msg)) => {
            assert!(msg.contains("no open session"), "got {msg}")
        }
        other => panic!("expected bad_request after close, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn fx_session_steps_are_bit_identical_to_the_offline_fold() {
    let (net, meta) = pruned_lstm(42);
    let reference = Model::from_network("ref", net.clone(), meta.clone());
    let seq = reference.seq().expect("streamable");
    let mut offline = seq.new_fx().expect("fx streaming form");
    let q = offline.qformat();

    let x = sequence(2);
    let steps: Vec<Vec<i16>> = (0..T)
        .map(|t| q.quantize_slice(&step_input(&x, t)))
        .collect();
    let want: Vec<Vec<i16>> = steps.iter().map(|s| offline.step_scalar(s)).collect();

    let (server, name) = serve_one(net, meta, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (sid, _version) = client.open_session(&name, true).expect("open fx");
    for (t, s) in steps.iter().enumerate() {
        let got = client.session_step_fx(sid, s).expect("fx step");
        assert_eq!(got, want[t], "fx step {t} diverged from the offline fold");
    }
    client.close_session(sid).expect("close");
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn mid_session_hot_swap_keeps_the_pinned_version() {
    let (v1, meta) = pruned_lstm(51);
    let (v2, _) = pruned_lstm(52);
    let x = sequence(3);
    let want1 = offline_per_step(&v1, &x);
    let want2 = offline_per_step(&v2, &x);
    assert_ne!(
        bits(&want1[0]),
        bits(&want2[0]),
        "versions must be distinguishable"
    );

    let registry = Registry::new();
    let e1 = registry.publish(Model::from_network("cls", v1, meta.clone()));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let (sid, pinned) = client.open_session("cls", false).expect("open on v1");
    assert_eq!(pinned, e1.version());

    // A couple of steps on v1, then flip the registry mid-session.
    for (t, want_t) in want1.iter().enumerate().take(3) {
        let got = client
            .session_step_f32(sid, &step_input(&x, t))
            .expect("step");
        assert_eq!(bits(&got), bits(want_t), "pre-swap step {t}");
    }
    let e2 = server
        .registry()
        .publish(Model::from_network("cls", pruned_lstm(52).0, meta));
    assert!(e2.version() > e1.version());

    // The open session stays pinned to v1 — its remaining steps continue
    // the v1 sequence bit for bit, never mixing versions mid-stream.
    for (t, want_t) in want1.iter().enumerate().skip(3) {
        let got = client
            .session_step_f32(sid, &step_input(&x, t))
            .expect("step");
        assert_eq!(bits(&got), bits(want_t), "post-swap step {t} left v1");
    }
    client.close_session(sid).expect("close");

    // A session opened after the flip pins v2 and serves v2's math.
    let (sid2, pinned2) = client.open_session("cls", false).expect("open on v2");
    assert_eq!(pinned2, e2.version());
    let got = client
        .session_step_f32(sid2, &step_input(&x, 0))
        .expect("step");
    assert_eq!(bits(&got), bits(&want2[0]), "new session serves v2");

    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

/// A session pins the weight stack it steps, not its whole model entry:
/// once a hot swap retires v1 and nobody else holds v1's entry, the entry
/// is freed while the open session keeps stepping v1 bit for bit and its
/// flight traces still report v1.
#[test]
fn a_session_outlives_its_retired_model_entry() {
    telemetry::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("rpbcm-session-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dump dir");
    std::env::set_var("RPBCM_SERVE_SLO_DIR", &dir);

    let (v1, meta) = pruned_lstm(61);
    let x = sequence(5);
    let want = offline_per_step(&v1, &x);
    let registry = Registry::new();
    let e1 = registry.publish(Model::from_network("cls", v1, meta.clone()));
    let (v1_version, v1_entry) = (e1.version(), Arc::downgrade(&e1));
    drop(e1);
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, registry).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (sid, pinned) = client.open_session("cls", false).expect("open on v1");
    assert_eq!(pinned, v1_version);
    for (t, want_t) in want.iter().enumerate().take(3) {
        let got = client
            .session_step_f32(sid, &step_input(&x, t))
            .expect("step");
        assert_eq!(bits(&got), bits(want_t), "pre-swap step {t}");
    }

    let v2_version = server
        .registry()
        .publish(Model::from_network("cls", pruned_lstm(62).0, meta))
        .version();
    assert!(
        v1_entry.upgrade().is_none(),
        "the open session still holds v1's model entry"
    );
    for (t, want_t) in want.iter().enumerate().skip(3) {
        let got = client
            .session_step_f32(sid, &step_input(&x, t))
            .expect("step");
        assert_eq!(bits(&got), bits(want_t), "post-swap step {t} left v1");
    }

    let (json_path, trace_path) = server.dump_flight("session pin").expect("dump");
    let doc = std::fs::read_to_string(&json_path).expect("dump json");
    for path in [json_path, trace_path] {
        std::fs::remove_file(path).expect("remove dump");
    }
    std::fs::remove_dir(&dir).expect("remove dump dir");
    assert!(
        doc.contains(&format!("\"model_version\":{v1_version}")),
        "steps trace v1: {doc}"
    );
    assert!(
        !doc.contains(&format!("\"model_version\":{v2_version}")),
        "no request ran on v2: {doc}"
    );
    client.close_session(sid).expect("close");
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn idle_sessions_expire_via_ttl_and_release_their_slots() {
    let (net, meta) = pruned_lstm(61);
    let x = sequence(4);
    let cfg = ServeConfig {
        session_ttl: Duration::from_millis(50),
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta, cfg);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (sid, _) = client.open_session(&name, false).expect("open");
    client
        .session_step_f32(sid, &step_input(&x, 0))
        .expect("step before idling");

    // Idle well past the TTL plus the shard's sweep tick.
    std::thread::sleep(Duration::from_millis(300));
    match client.session_step_f32(sid, &step_input(&x, 1)) {
        Err(ClientError::Rejected(Status::BadRequest, msg)) => {
            assert!(msg.contains("no open session"), "got {msg}")
        }
        other => panic!("expected the expired session to reject, got {other:?}"),
    }
    assert_eq!(server.active_sessions(), 0, "expiry released the slot");

    // The connection survives and a fresh session starts from zero state.
    let (sid2, _) = client.open_session(&name, false).expect("reopen");
    client
        .session_step_f32(sid2, &step_input(&x, 0))
        .expect("fresh session serves");
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn session_cap_refuses_excess_opens_until_a_close_frees_a_slot() {
    let (net, meta) = pruned_lstm(71);
    let cfg = ServeConfig {
        session_cap: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta, cfg);
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    let (sid, _) = a.open_session(&name, false).expect("first open");
    match b.open_session(&name, false) {
        Err(ClientError::Rejected(Status::Overloaded, msg)) => {
            assert!(msg.contains("session cap"), "got {msg}")
        }
        other => panic!("expected overloaded at the cap, got {other:?}"),
    }
    a.close_session(sid).expect("close");
    b.open_session(&name, false)
        .expect("slot freed by the close");
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn open_sessions_hold_a_tenant_quota_slot() {
    let (net, meta) = pruned_lstm(81);
    let cfg = ServeConfig {
        tenant_quota: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta, cfg);
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("connect a");
    a.hello("team-a").expect("hello");
    let (sid, _) = a.open_session(&name, false).expect("open");

    // The open session occupies team-a's only slot for its lifetime.
    let mut a2 = Client::connect(addr).expect("connect a2");
    a2.hello("team-a").expect("hello");
    match a2.open_session(&name, false) {
        Err(ClientError::Rejected(Status::QuotaExceeded, msg)) => {
            assert!(msg.contains("team-a"), "diagnostic names the tenant: {msg}")
        }
        other => panic!("expected quota_exceeded, got {other:?}"),
    }
    // Other tenants are unaffected.
    let mut b = Client::connect(addr).expect("connect b");
    b.hello("team-b").expect("hello");
    let (sid_b, _) = b.open_session(&name, false).expect("team-b open");
    b.close_session(sid_b).expect("close b");

    // Closing releases the slot.
    a.close_session(sid).expect("close");
    a2.open_session(&name, false).expect("slot freed");
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn session_misuse_gets_explicit_replies_not_hangups() {
    let (net, meta) = pruned_lstm(91);
    let x = sequence(5);
    let want = offline_per_step(&net, &x);
    let (server, name) = serve_one(net, meta.clone(), ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // No streaming form: a conv stack refuses session_open outright.
    let mut rng = StdRng::seed_from_u64(7);
    let conv = Network::new(
        "conv",
        vec![
            Box::new(BcmConv2d::new(&mut rng, 4, 8, 3, 1, 1, 4)) as Box<dyn Layer>,
            Box::new(ReLU::new()),
        ],
    );
    server.registry().publish(Model::from_network(
        "conv",
        conv,
        CheckpointMeta {
            input_dims: vec![4, 6, 6],
            frac_bits: 8,
        },
    ));
    match client.open_session("conv", false) {
        Err(ClientError::Rejected(Status::BadRequest, msg)) => {
            assert!(msg.contains("streaming"), "got {msg}")
        }
        other => panic!("expected bad_request for a conv stack, got {other:?}"),
    }
    // Unknown model.
    match client.open_session("missing", false) {
        Err(ClientError::Rejected(Status::UnknownModel, _)) => {}
        other => panic!("expected unknown_model, got {other:?}"),
    }
    // Stepping a session that was never opened.
    match client.session_step_f32(99, &step_input(&x, 0)) {
        Err(ClientError::Rejected(Status::BadRequest, _)) => {}
        other => panic!("expected bad_request for an unknown id, got {other:?}"),
    }

    // A wrong-length step is rejected without corrupting session state:
    // the stream continues bit-identically afterwards.
    let (sid, _) = client.open_session(&name, false).expect("open");
    let got = client
        .session_step_f32(sid, &step_input(&x, 0))
        .expect("step 0");
    assert_eq!(bits(&got), bits(&want[0]));
    match client.session_step_f32(sid, &[1.0, 2.0]) {
        Err(ClientError::Rejected(Status::BadRequest, msg)) => {
            assert!(msg.contains("length"), "got {msg}")
        }
        other => panic!("expected bad_request for a short step, got {other:?}"),
    }
    // A float session refuses fx-typed steps (mode disagreement).
    match client.session_step_fx(sid, &[0i16; F]) {
        Err(ClientError::Rejected(Status::BadRequest, _)) => {}
        other => panic!("expected bad_request for a mode mismatch, got {other:?}"),
    }
    let got = client
        .session_step_f32(sid, &step_input(&x, 1))
        .expect("step 1");
    assert_eq!(bits(&got), bits(&want[1]), "state survived the rejections");
    client.close_session(sid).expect("close");
    server.shutdown();
}

#[test]
fn pipelined_multi_session_bursts_stay_bit_identical_per_session() {
    let (net, meta) = pruned_lstm(101);
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net.clone(), meta, cfg);
    let mut conn = Pipelined::connect(server.local_addr());

    // Six same-model float sessions on one connection, each streaming a
    // distinct sequence. Every round bursts all six steps in one write
    // train, so the shard sees them in one readiness wakeup and
    // lane-gangs them — replies must still be exactly what each
    // session's solo offline forward produces.
    const W: usize = 6;
    let inputs: Vec<Tensor<f32>> = (0..W as u64).map(|s| sequence(10 + s)).collect();
    let want: Vec<Vec<Vec<f32>>> = inputs.iter().map(|x| offline_per_step(&net, x)).collect();
    let sids: Vec<u64> = (0..W).map(|_| conn.open(&name, false)).collect();

    for t in 0..T {
        for (w, sid) in sids.iter().enumerate() {
            conn.send(&Request::SessionStep {
                session: *sid,
                input: Payload::F32(step_input(&inputs[w], t)),
            });
        }
        for (w, want_w) in want.iter().enumerate() {
            let got = conn.recv_f32();
            assert_eq!(
                bits(&got),
                bits(&want_w[t]),
                "session {w} step {t} diverged from its solo forward"
            );
        }
    }
    for sid in &sids {
        conn.send(&Request::SessionClose { session: *sid });
    }
    for _ in 0..W {
        match conn.recv(false) {
            Response::Output(Payload::F32(v)) => assert!(v.is_empty(), "close acks empty"),
            other => panic!("expected close ack, got {other:?}"),
        }
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn mixed_mode_gangs_survive_mid_stream_joins_and_leaves() {
    let (net, meta) = pruned_lstm(103);
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net.clone(), meta.clone(), cfg);
    let mut conn = Pipelined::connect(server.local_addr());

    // Three float and two fx sessions stream together; after round 1 one
    // session of each mode leaves, after round 2 a fresh float session
    // joins with zero state. Gang-mates must never perturb each other:
    // every reply is the member's own solo fold, bit for bit.
    let float_x: Vec<Tensor<f32>> = (0..4).map(|s| sequence(20 + s)).collect();
    let float_want: Vec<Vec<Vec<f32>>> =
        float_x.iter().map(|x| offline_per_step(&net, x)).collect();
    let fx_x: Vec<Tensor<f32>> = (0..2).map(|s| sequence(30 + s)).collect();
    let fx_ref: Vec<FxStepRef> = fx_x
        .iter()
        .map(|x| offline_fx_steps(&net, &meta, x))
        .collect();

    struct Member {
        sid: u64,
        fx: bool,
        idx: usize,
        t: usize,
    }
    let mut live: Vec<Member> = Vec::new();
    for idx in 0..3 {
        live.push(Member {
            sid: conn.open(&name, false),
            fx: false,
            idx,
            t: 0,
        });
    }
    for idx in 0..2 {
        live.push(Member {
            sid: conn.open(&name, true),
            fx: true,
            idx,
            t: 0,
        });
    }

    for round in 0..T {
        for m in &live {
            let input = if m.fx {
                Payload::Fx(fx_ref[m.idx].0[m.t].clone())
            } else {
                Payload::F32(step_input(&float_x[m.idx], m.t))
            };
            conn.send(&Request::SessionStep {
                session: m.sid,
                input,
            });
        }
        for m in &mut live {
            if m.fx {
                let got = conn.recv_fx();
                assert_eq!(
                    got, fx_ref[m.idx].1[m.t],
                    "fx session {} step {} diverged",
                    m.idx, m.t
                );
            } else {
                let got = conn.recv_f32();
                assert_eq!(
                    bits(&got),
                    bits(&float_want[m.idx][m.t]),
                    "float session {} step {} diverged",
                    m.idx,
                    m.t
                );
            }
            m.t += 1;
        }
        if round == 1 {
            // One leave per mode: the dissolving gang's survivors must
            // carry exact state forward.
            let gone_float = live.remove(0);
            conn.send(&Request::SessionClose {
                session: gone_float.sid,
            });
            let fx_pos = live.iter().position(|m| m.fx).expect("an fx member");
            let gone_fx = live.remove(fx_pos);
            conn.send(&Request::SessionClose {
                session: gone_fx.sid,
            });
            let _ = conn.recv(false);
            let _ = conn.recv(false);
        }
        if round == 2 {
            live.push(Member {
                sid: conn.open(&name, false),
                fx: false,
                idx: 3,
                t: 0,
            });
        }
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn pipelined_steps_on_one_session_execute_in_order() {
    let (net, meta) = pruned_lstm(107);
    let x = sequence(6);
    let want = offline_per_step(&net, &x);
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta, cfg);
    let mut conn = Pipelined::connect(server.local_addr());
    let sid = conn.open(&name, false);

    // All T steps of one session in a single burst: the gang scheduler
    // must run them strictly in order (one per execution wave) — a
    // session never lane-mates with itself.
    for t in 0..T {
        conn.send(&Request::SessionStep {
            session: sid,
            input: Payload::F32(step_input(&x, t)),
        });
    }
    for (t, want_t) in want.iter().enumerate() {
        let got = conn.recv_f32();
        assert_eq!(bits(&got), bits(want_t), "pipelined step {t} out of order");
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn a_pipelined_close_is_a_barrier_for_later_steps() {
    let (net, meta) = pruned_lstm(109);
    let x = sequence(7);
    let want = offline_per_step(&net, &x);
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta, cfg);
    let mut conn = Pipelined::connect(server.local_addr());
    let sid = conn.open(&name, false);

    // step, step, close, step — pipelined. The close is a barrier: the
    // steps before it execute in order, the step after it finds the
    // session gone, exactly as if each frame had been sent alone.
    conn.send(&Request::SessionStep {
        session: sid,
        input: Payload::F32(step_input(&x, 0)),
    });
    conn.send(&Request::SessionStep {
        session: sid,
        input: Payload::F32(step_input(&x, 1)),
    });
    conn.send(&Request::SessionClose { session: sid });
    conn.send(&Request::SessionStep {
        session: sid,
        input: Payload::F32(step_input(&x, 2)),
    });

    assert_eq!(bits(&conn.recv_f32()), bits(&want[0]), "pre-close step 0");
    assert_eq!(bits(&conn.recv_f32()), bits(&want[1]), "pre-close step 1");
    match conn.recv(false) {
        Response::Output(Payload::F32(v)) => assert!(v.is_empty(), "close acks empty"),
        other => panic!("expected close ack, got {other:?}"),
    }
    match conn.recv(false) {
        Response::Error(Status::BadRequest, msg) => {
            assert!(msg.contains("no open session"), "got {msg}")
        }
        other => panic!("expected bad_request after pipelined close, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}
