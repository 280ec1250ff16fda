//! Loopback end-to-end tests: a real TCP server on an ephemeral port,
//! real clients, and bit-exact comparisons against direct engine calls.

use nn::layers::{BcmConv2d, Flatten, Linear, ReLU};
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serve::{Client, ClientError, Model, Registry, ServeConfig, Server, Status};
use std::time::Duration;

/// A BCM conv stack that keeps an fx mirror (stride 1, "same" padding).
fn conv_stack(seed: u64) -> (Network, CheckpointMeta) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Network::new(
        "convstack",
        vec![
            Box::new(BcmConv2d::new(&mut rng, 4, 8, 3, 1, 1, 4)),
            Box::new(ReLU::new()),
            Box::new(BcmConv2d::new(&mut rng, 8, 4, 3, 1, 1, 4)),
            Box::new(ReLU::new()),
        ],
    );
    let meta = CheckpointMeta {
        input_dims: vec![4, 6, 6],
        frac_bits: 8,
    };
    (net, meta)
}

/// A mixed classifier head (folded hadaBCM + dense tail) — float-only.
fn classifier(seed: u64) -> (Network, CheckpointMeta) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Network::new(
        "classifier",
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

fn f32_samples(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn fx_samples(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<i16>> {
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-256i16..256)).collect())
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn serve_one(net: Network, meta: CheckpointMeta, cfg: ServeConfig) -> (Server, String) {
    let net_name = net.name().to_string();
    let model = Model::from_network(&net_name, net, meta);
    let name = model.name().to_string();
    let registry = Registry::new();
    registry.publish(model);
    let server = Server::bind("127.0.0.1:0", cfg, registry).expect("bind");
    (server, name)
}

#[test]
fn float_replies_are_bit_identical_to_direct_inference() {
    let (net, meta) = classifier(1);
    let mut direct = net.clone();
    let (server, name) = serve_one(net, meta.clone(), ServeConfig::default());
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(2);
    let samples = f32_samples(&mut rng, 6, meta.sample_len());

    // Concurrent clients so the batcher actually groups requests.
    let served: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .iter()
            .map(|s| {
                let name = name.clone();
                scope.spawn(move || {
                    Client::connect(addr)
                        .expect("connect")
                        .infer_f32(&name, s)
                        .expect("infer")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut dims = vec![1usize];
    dims.extend_from_slice(&meta.input_dims);
    for (s, out) in samples.iter().zip(&served) {
        let want = direct.forward(&tensor::Tensor::from_vec(s.clone(), &dims), false);
        assert_eq!(bits(want.as_slice()), bits(out));
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn fx_replies_are_bit_identical_to_direct_hwsim_inference() {
    let (net, meta) = conv_stack(3);
    let reference = Model::from_network("ref", net.clone(), meta.clone());
    let fx = reference.fx().expect("fx mirror");
    let (server, name) = serve_one(net, meta, ServeConfig::default());
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(4);
    let samples = fx_samples(&mut rng, 6, fx.input_len());
    let served: Vec<Vec<i16>> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .iter()
            .map(|s| {
                let name = name.clone();
                scope.spawn(move || {
                    Client::connect(addr)
                        .expect("connect")
                        .infer_fx(&name, s)
                        .expect("infer fx")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (s, out) in samples.iter().zip(&served) {
        let want = fx.forward_batch_scalar(std::slice::from_ref(s)).remove(0);
        assert_eq!(&want, out, "fx loopback must be bit-identical");
    }
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn served_checkpoint_round_trips_through_a_file() {
    let (net, meta) = classifier(5);
    let mut direct = net.clone();
    let path = std::env::temp_dir().join(format!(
        "rpbcm-serve-e2e-{}-{:?}.rpbcm",
        std::process::id(),
        std::thread::current().id()
    ));
    net.save(&path, &meta).expect("save checkpoint");

    let registry = Registry::new();
    registry.load_file(&path).expect("load checkpoint");
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), registry).expect("bind");

    let mut rng = StdRng::seed_from_u64(6);
    let sample = &f32_samples(&mut rng, 1, meta.sample_len())[0];
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let out = client.infer_f32("classifier", sample).expect("infer");

    let mut dims = vec![1usize];
    dims.extend_from_slice(&meta.input_dims);
    let want = direct.forward(&tensor::Tensor::from_vec(sample.clone(), &dims), false);
    assert_eq!(bits(want.as_slice()), bits(&out));

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn overload_sheds_with_explicit_replies() {
    let (net, meta) = conv_stack(7);
    let cfg = ServeConfig {
        batch_size: 2,
        max_wait: Duration::from_millis(1),
        queue_cap: 2,
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta.clone(), cfg);
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(8);
    let sample = f32_samples(&mut rng, 1, meta.sample_len()).remove(0);
    // 2x the queue bound in flight at once: some requests must come back
    // as explicit `overloaded` errors, the rest must succeed normally.
    let outcomes: Vec<Result<usize, Status>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let name = name.clone();
                let sample = sample.clone();
                scope.spawn(move || {
                    match Client::connect(addr)
                        .expect("connect")
                        .infer_f32(&name, &sample)
                    {
                        Ok(out) => Ok(out.len()),
                        Err(ClientError::Rejected(status, _)) => Err(status),
                        Err(e) => panic!("transport failure: {e}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(Status::Overloaded)))
        .count();
    assert!(ok > 0, "some requests must be served under overload");
    assert_eq!(
        ok + shed,
        outcomes.len(),
        "every non-served request must be an explicit overloaded reply"
    );
    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn json_mode_serves_and_rejects() {
    let (net, meta) = classifier(9);
    let (server, _name) = serve_one(net, meta.clone(), ServeConfig::default());
    let addr = server.local_addr();

    let reply = serve::client::json_round_trip(addr, "{\"op\":\"ping\"}").expect("ping");
    assert_eq!(reply, "{\"status\":\"ok\",\"output\":[]}");

    let input: Vec<String> = (0..meta.sample_len())
        .map(|i| format!("0.{}", i % 10))
        .collect();
    let line = format!(
        "{{\"op\":\"infer\",\"model\":\"classifier\",\"mode\":\"f32\",\"input\":[{}]}}",
        input.join(",")
    );
    let reply = serve::client::json_round_trip(addr, &line).expect("infer");
    assert!(
        reply.starts_with("{\"status\":\"ok\",\"output\":["),
        "got {reply}"
    );

    let reply =
        serve::client::json_round_trip(addr, "{\"op\":\"infer\",\"model\":\"nope\",\"input\":[1]}")
            .expect("unknown model");
    assert!(
        reply.starts_with("{\"status\":\"unknown_model\""),
        "got {reply}"
    );

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (net, meta) = conv_stack(10);
    let cfg = ServeConfig {
        batch_size: 4,
        max_wait: Duration::from_millis(200),
        queue_cap: 64,
        shards: 4,
        ..ServeConfig::default()
    };
    let (server, name) = serve_one(net, meta.clone(), cfg);
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(11);
    let sample = f32_samples(&mut rng, 1, meta.sample_len()).remove(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let name = name.clone();
                let sample = sample.clone();
                scope.spawn(move || {
                    Client::connect(addr)
                        .expect("connect")
                        .infer_f32(&name, &sample)
                })
            })
            .collect();
        // Let the burst reach the queue, then shut down mid-flight: every
        // admitted request must still be answered (drained, not dropped).
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        for h in handles {
            match h.join().unwrap() {
                Ok(out) => assert!(!out.is_empty()),
                // A request that raced the stop flag gets an explicit
                // shutting_down reply, never a dropped connection.
                Err(ClientError::Rejected(status, _)) => {
                    assert_eq!(status, Status::ShuttingDown)
                }
                Err(e) => panic!("transport failure during drain: {e}"),
            }
        }
    });
}

#[test]
fn bad_requests_get_explicit_replies_not_hangups() {
    let (net, meta) = classifier(12);
    let (server, name) = serve_one(net, meta.clone(), ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Wrong input length.
    match client.infer_f32(&name, &[1.0, 2.0]) {
        Err(ClientError::Rejected(Status::BadRequest, msg)) => {
            assert!(msg.contains("length"), "got {msg}")
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Unknown model.
    match client.infer_f32("missing", &vec![0.0; meta.sample_len()]) {
        Err(ClientError::Rejected(Status::UnknownModel, _)) => {}
        other => panic!("expected unknown_model, got {other:?}"),
    }
    // Fx request against a model with no fx mirror (dense tail).
    match client.infer_fx(&name, &vec![0i16; meta.sample_len()]) {
        Err(ClientError::Rejected(Status::BadRequest, msg)) => {
            assert!(msg.contains("fixed-point"), "got {msg}")
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // The connection survives all three rejections.
    client.ping().expect("connection still healthy");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Pruning edge cases on the serving path (satellite: pruned networks
// must serve correctly on both engine paths).
// ---------------------------------------------------------------------

/// Prunes every block of the first BCM layer, leaving the second intact.
fn prune_first_layer_fully(net: &mut Network) {
    let first_blocks = net.bcm_layers()[0].block_count();
    let all: Vec<usize> = (0..first_blocks).collect();
    net.bcm_eliminate(&all);
}

#[test]
fn all_blocks_pruned_layer_serves_zeros_consistently_on_both_paths() {
    let (mut net, meta) = conv_stack(13);
    prune_first_layer_fully(&mut net);
    assert!(net.bcm_sparsity() > 0.0);

    let mut direct = net.clone();
    let reference = Model::from_network("ref", net.clone(), meta.clone());
    let fx = reference
        .fx()
        .expect("fully-pruned stack keeps its fx mirror");
    let (server, name) = serve_one(net, meta.clone(), ServeConfig::default());
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(14);
    let fsample = f32_samples(&mut rng, 1, meta.sample_len()).remove(0);
    let xsample = fx_samples(&mut rng, 1, fx.input_len()).remove(0);

    let mut client = Client::connect(addr).expect("connect");
    let fout = client.infer_f32(&name, &fsample).expect("float infer");
    let mut dims = vec![1usize];
    dims.extend_from_slice(&meta.input_dims);
    let want = direct.forward(&tensor::Tensor::from_vec(fsample, &dims), false);
    assert_eq!(bits(want.as_slice()), bits(&fout));

    let xout = client.infer_fx(&name, &xsample).expect("fx infer");
    let want = fx
        .forward_batch_scalar(std::slice::from_ref(&xsample))
        .remove(0);
    assert_eq!(want, xout);

    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}

#[test]
fn heavily_pruned_network_serves_bit_identically_on_both_paths() {
    let (mut net, meta) = conv_stack(15);
    // Accuracy-floor style pruning: keep only the least-important few
    // blocks, mimicking Algorithm 1 stopping near the floor.
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    let kill: Vec<usize> = order[..importances.len() * 3 / 4].to_vec();
    net.bcm_eliminate(&kill);
    assert!(net.bcm_sparsity() >= 0.7);

    let mut direct = net.clone();
    let reference = Model::from_network("ref", net.clone(), meta.clone());
    let fx = reference.fx().expect("pruned stack keeps its fx mirror");
    let (server, name) = serve_one(net, meta.clone(), ServeConfig::default());
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(16);
    let fsamples = f32_samples(&mut rng, 3, meta.sample_len());
    let xsamples = fx_samples(&mut rng, 3, fx.input_len());

    let mut client = Client::connect(addr).expect("connect");
    let mut dims = vec![1usize];
    dims.extend_from_slice(&meta.input_dims);
    for s in &fsamples {
        let out = client.infer_f32(&name, s).expect("float infer");
        let want = direct.forward(&tensor::Tensor::from_vec(s.clone(), &dims), false);
        assert_eq!(bits(want.as_slice()), bits(&out));
    }
    for s in &xsamples {
        let out = client.infer_fx(&name, s).expect("fx infer");
        let want = fx.forward_batch_scalar(std::slice::from_ref(s)).remove(0);
        assert_eq!(want, out);
    }

    server.shutdown();
    assert_eq!(server.protocol_errors(), 0);
}
