//! Hot-swap, ordering and quota integration tests: a real server on a
//! loopback socket, concurrent clients across a version flip, raw
//! pipelined connections, and tenant admission limits.

use nn::layers::{BcmConv2d, Flatten, Linear, ReLU};
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Payload, Request, Response, Status,
    HANDSHAKE,
};
use serve::{Client, ClientError, Model, Registry, ServeConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A float-only classifier; different seeds give bitwise-distinct
/// weights, so replies identify the serving version exactly.
fn classifier(seed: u64) -> (Network, CheckpointMeta) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Network::new(
        "cls",
        vec![
            Box::new(BcmConv2d::new_hada(&mut rng, 4, 8, 3, 1, 1, 4)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(&mut rng, 8 * 5 * 5, 3)),
        ],
    );
    let meta = CheckpointMeta {
        input_dims: vec![4, 5, 5],
        frac_bits: 8,
    };
    (net, meta)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `net` directly on one flat sample.
fn direct(net: &Network, meta: &CheckpointMeta, sample: &[f32]) -> Vec<f32> {
    let mut dims = vec![1usize];
    dims.extend_from_slice(&meta.input_dims);
    net.clone()
        .forward(&tensor::Tensor::from_vec(sample.to_vec(), &dims), false)
        .as_slice()
        .to_vec()
}

#[test]
fn hot_swap_is_atomic_and_shutdown_drains_losslessly() {
    let (v1, meta) = classifier(21);
    let (v2, _) = classifier(22);
    let sample: Vec<f32> = (0..meta.sample_len())
        .map(|i| (i % 7) as f32 * 0.1)
        .collect();
    let want1 = bits(&direct(&v1, &meta, &sample));
    let want2 = bits(&direct(&v2, &meta, &sample));
    assert_ne!(want1, want2, "versions must be distinguishable");

    let registry = Registry::new();
    let e1 = registry.publish(Model::from_network("cls", v1, meta.clone()));
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, registry).expect("bind");
    let addr = server.local_addr();

    let stop_spam = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Background spam: every reply must be exactly the old or the new
        // version's output — never a blend — or an explicit
        // shutting_down once the drain begins.
        let spammers: Vec<_> = (0..4)
            .map(|_| {
                let sample = &sample;
                let (want1, want2) = (&want1, &want2);
                let stop_spam = &stop_spam;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut answered = 0u32;
                    while !stop_spam.load(Ordering::Relaxed) {
                        match client.infer_f32("cls", sample) {
                            Ok(out) => {
                                let got = bits(&out);
                                assert!(
                                    got == *want1 || got == *want2,
                                    "reply is neither version's output: a mixed batch?"
                                );
                                answered += 1;
                            }
                            Err(ClientError::Rejected(Status::ShuttingDown, _)) => break,
                            Err(e) => panic!("transport failure during swap/drain: {e}"),
                        }
                    }
                    answered
                })
            })
            .collect();

        // Foreground: confirm v1 serves, flip, confirm v2 serves.
        let mut probe = Client::connect(addr).expect("connect probe");
        let out = probe.infer_f32("cls", &sample).expect("v1 infer");
        assert_eq!(bits(&out), want1);

        let (v2_again, _) = classifier(22);
        let e2 = server
            .registry()
            .publish(Model::from_network("cls", v2_again, meta.clone()));
        assert!(e2.version() > e1.version());
        assert_eq!(server.registry().len(), 1, "publish replaced, not appended");

        let out = probe.infer_f32("cls", &sample).expect("v2 infer");
        assert_eq!(bits(&out), want2, "requests after the flip see v2");

        // Shut down while the spammers are mid-flight: the drain must
        // answer every request (ok or shutting_down, never a hangup).
        std::thread::sleep(Duration::from_millis(20));
        stop_spam.store(true, Ordering::Relaxed);
        server.shutdown();
        let answered: u32 = spammers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(answered > 0, "spammers must have been served");
    });
    // The old entry's Arc stayed valid across the flip.
    assert_eq!(e1.name(), "cls");
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let (net, meta) = classifier(23);
    let samples: Vec<Vec<f32>> = (0..8)
        .map(|i| vec![0.01 * (i as f32 + 1.0); meta.sample_len()])
        .collect();
    let wants: Vec<Vec<u32>> = samples
        .iter()
        .map(|s| bits(&direct(&net, &meta, s)))
        .collect();

    let registry = Registry::new();
    registry.publish(Model::from_network("cls", net, meta));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), registry).expect("bind");

    // One raw connection, every request written before any reply is read.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&HANDSHAKE).expect("handshake");
    for (i, s) in samples.iter().enumerate() {
        let req = Request::Infer {
            model: "cls".into(),
            input: Payload::F32(s.clone()),
        };
        write_frame(&mut stream, &encode_request(&req)).expect("pipeline write");
        if i == 3 {
            // A malformed request mid-pipeline: its inline bad_request
            // reply must hold position 5, not overtake the batched work.
            write_frame(&mut stream, &[9u8]).expect("bad opcode write");
        }
    }
    let mut replies = Vec::new();
    for _ in 0..samples.len() + 1 {
        let frame = read_frame(&mut stream).expect("pipelined reply");
        replies.push(decode_response(&frame, false).expect("decode"));
    }
    for (i, reply) in replies.iter().enumerate() {
        let slot = match i {
            0..=3 => Some(i),
            4 => None, // the malformed request's slot
            _ => Some(i - 1),
        };
        match (slot, reply) {
            (Some(s), Response::Output(Payload::F32(out))) => {
                assert_eq!(bits(out), wants[s], "response {i} out of order");
            }
            (None, Response::Error(Status::BadRequest, _)) => {}
            other => panic!("slot {i}: unexpected reply {other:?}"),
        }
    }
    drop(stream);
    server.shutdown();
    // Exactly the one malformed frame was counted.
    assert_eq!(server.protocol_errors(), 1);
}

#[test]
fn tenant_quota_denies_excess_in_flight_and_frees_on_completion() {
    let (net, meta) = classifier(24);
    let sample: Vec<f32> = vec![0.25; meta.sample_len()];
    let registry = Registry::new();
    registry.publish(Model::from_network("cls", net, meta));
    let cfg = ServeConfig {
        // A wide-open batch with a long deadline keeps request 1 queued
        // (slot held) while request 2 is parsed in the same burst.
        batch_size: 64,
        max_wait: Duration::from_millis(300),
        queue_cap: 64,
        shards: 1,
        tenant_quota: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, registry).expect("bind");
    let addr = server.local_addr();

    let infer = Request::Infer {
        model: "cls".into(),
        input: Payload::F32(sample.clone()),
    };
    let hello = Request::Hello {
        tenant: "team-a".into(),
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&HANDSHAKE).expect("handshake");
    // hello + two infers in one burst: the first infer takes team-a's
    // only slot and waits for its batch; the second must be denied.
    write_frame(&mut stream, &encode_request(&hello)).expect("hello");
    write_frame(&mut stream, &encode_request(&infer)).expect("infer 1");
    write_frame(&mut stream, &encode_request(&infer)).expect("infer 2");

    let frame = read_frame(&mut stream).expect("hello reply");
    assert_eq!(
        decode_response(&frame, false).expect("decode"),
        Response::Output(Payload::F32(Vec::new()))
    );
    let frame = read_frame(&mut stream).expect("infer 1 reply");
    match decode_response(&frame, false).expect("decode") {
        Response::Output(Payload::F32(out)) => assert!(!out.is_empty()),
        other => panic!("first infer should be served, got {other:?}"),
    }
    let frame = read_frame(&mut stream).expect("infer 2 reply");
    match decode_response(&frame, false).expect("decode") {
        Response::Error(Status::QuotaExceeded, msg) => {
            assert!(msg.contains("team-a"), "diagnostic names the tenant: {msg}")
        }
        other => panic!("second infer should be quota-denied, got {other:?}"),
    }

    // Other tenants are unaffected, and a completed request frees its
    // slot: team-a serves again afterwards.
    let mut other = Client::connect(addr).expect("connect team-b");
    other.hello("team-b").expect("hello team-b");
    other.infer_f32("cls", &sample).expect("team-b unaffected");

    let mut again = Client::connect(addr).expect("reconnect team-a");
    again.hello("team-a").expect("hello team-a");
    again
        .infer_f32("cls", &sample)
        .expect("slot freed after completion");

    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}
