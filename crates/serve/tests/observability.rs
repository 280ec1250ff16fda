//! Observability integration tests: the `stats` opcode over a real
//! socket, flight-recorder dumps, the SLO watchdog, and quota release
//! when a client disconnects abnormally with requests in flight.

use nn::layers::{BcmConv2d, Flatten, Linear, ReLU};
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::protocol::{encode_request, write_frame, Payload, Request, HANDSHAKE};
use serve::{Client, Model, Registry, ServeConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// Points `RPBCM_SERVE_SLO_DIR` at one shared per-process temp dir.
/// Every test uses the same directory (the variable is process-global),
/// and nobody deletes it, so concurrent dump tests cannot race.
fn dump_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rpbcm-flight-dumps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dump dir");
    std::env::set_var("RPBCM_SERVE_SLO_DIR", &dir);
    dir
}

fn serve_classifier(seed: u64, cfg: ServeConfig) -> (Server, Vec<f32>) {
    let (net, meta) = classifier(seed);
    let sample = vec![0.25; meta.sample_len()];
    let registry = Registry::new();
    registry.publish(Model::from_network("cls", net, meta));
    let server = Server::bind("127.0.0.1:0", cfg, registry).expect("bind");
    (server, sample)
}

#[test]
fn stats_opcode_round_trips_a_parseable_snapshot() {
    telemetry::set_enabled(true);
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let (server, sample) = serve_classifier(31, cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..4 {
        client.infer_f32("cls", &sample).expect("infer");
    }
    let doc = client.stats().expect("stats over the wire");
    // Structural spot checks on the versioned snapshot.
    assert!(doc.contains("\"stats_version\": 1"), "doc: {doc}");
    assert!(doc.contains("\"config\""));
    assert!(doc.contains("\"name\": \"cls\""));
    assert!(doc.contains("\"quota\""));
    assert!(doc.contains("\"shards\""));
    assert!(doc.contains("\"total_ns\""));
    assert!(doc.contains("\"telemetry\""));
    assert_eq!(
        doc.matches('{').count(),
        doc.matches('}').count(),
        "snapshot braces must balance"
    );
    // The wire doc is exactly what the in-process accessor renders
    // (modulo counters advancing between the two calls).
    let local = server.stats_snapshot();
    assert!(local.contains("\"stats_version\": 1"));

    // JSON debug mode folds the snapshot onto one line.
    let line = serve::client::json_round_trip(server.local_addr(), r#"{"op":"stats"}"#)
        .expect("json-mode stats");
    assert!(
        line.starts_with("{\"status\":\"ok\",\"stats\":"),
        "line: {line}"
    );
    assert!(!line.contains('\n'));
    server.shutdown();
}

#[test]
fn forced_flight_dump_writes_valid_json_and_chrome_trace() {
    telemetry::set_enabled(true);
    let dir = dump_dir();
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, sample) = serve_classifier(32, cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..6 {
        client.infer_f32("cls", &sample).expect("infer");
    }
    // Replies are flushed before the client sees them, so by now every
    // served request's trace is finalized in the shard ring.
    let (json_path, trace_path) = server.dump_flight("forced by test").expect("dump");
    assert_eq!(server.flight_dumps().len(), 1);

    let doc = std::fs::read_to_string(&json_path).expect("dump json");
    assert!(doc.contains("\"reason\": \"forced by test\""));
    assert!(doc.contains("\"stats\""));
    assert!(doc.contains("\"traces\""));
    assert!(doc.contains("\"trace_id\""), "dump holds completed traces");
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());

    let trace = std::fs::read_to_string(&trace_path).expect("chrome trace");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""), "trace: {trace}");
    let _ = dir;
    server.shutdown();
}

#[test]
fn slo_watchdog_dumps_on_a_violated_p99() {
    telemetry::set_enabled(true);
    let _dir = dump_dir();
    let cfg = ServeConfig {
        shards: 1,
        // 1 µs p99: any real request lifecycle violates it.
        slo_p99_us: 1,
        ..ServeConfig::default()
    };
    let (server, sample) = serve_classifier(33, cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..4 {
        client.infer_f32("cls", &sample).expect("infer");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let dumps = loop {
        let dumps = server.flight_dumps();
        if !dumps.is_empty() {
            break dumps;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog produced no dump within 5s"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let (json_path, trace_path) = &dumps[0];
    let doc = std::fs::read_to_string(json_path).expect("dump json");
    assert!(doc.contains("exceeds SLO"), "reason names the violation");
    assert!(std::fs::read_to_string(trace_path)
        .expect("chrome trace")
        .contains("\"traceEvents\""));
    server.shutdown();
}

#[test]
fn abnormal_disconnect_releases_tenant_quota_of_in_flight_requests() {
    let cfg = ServeConfig {
        // A wide batch and long deadline keep the request queued (quota
        // slot held) while the client vanishes.
        batch_size: 64,
        max_wait: Duration::from_millis(200),
        queue_cap: 64,
        shards: 1,
        tenant_quota: 1,
        ..ServeConfig::default()
    };
    let (server, sample) = serve_classifier(34, cfg);
    let addr = server.local_addr();

    // Raw connection: handshake, declare tenant, queue one inference —
    // then slam the socket shut without reading any reply.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&HANDSHAKE).expect("handshake");
    write_frame(
        &mut stream,
        &encode_request(&Request::Hello { tenant: "t".into() }),
    )
    .expect("hello");
    write_frame(
        &mut stream,
        &encode_request(&Request::Infer {
            model: "cls".into(),
            input: Payload::F32(sample.clone()),
        }),
    )
    .expect("infer frame");
    stream.flush().expect("flush");
    // Wait until the request is actually admitted (slot taken) before
    // disconnecting, so the test really covers an in-flight abort.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.quotas().in_flight("t") == 0 {
        assert!(Instant::now() < deadline, "request never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);

    // The batch still executes for the dead connection; delivering the
    // undeliverable reply must drop the quota guard and free the slot.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.quotas().in_flight("t") != 0 {
        assert!(
            Instant::now() < deadline,
            "quota slot leaked after abnormal disconnect: in_flight = {}",
            server.quotas().in_flight("t")
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // And the tenant can immediately fill its quota again.
    let mut client = Client::connect(addr).expect("reconnect");
    client.hello("t").expect("hello");
    client
        .infer_f32("cls", &sample)
        .expect("quota slot reusable");
    server.shutdown();
}

#[test]
fn quota_guard_survives_disconnect_while_request_executes() {
    // Variant with several requests in flight when the peer dies.
    let cfg = ServeConfig {
        batch_size: 4,
        max_wait: Duration::from_millis(100),
        queue_cap: 64,
        shards: 1,
        tenant_quota: 8,
        ..ServeConfig::default()
    };
    let (server, sample) = serve_classifier(35, cfg);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&HANDSHAKE).expect("handshake");
    write_frame(
        &mut stream,
        &encode_request(&Request::Hello {
            tenant: "burst".into(),
        }),
    )
    .expect("hello");
    for _ in 0..6 {
        write_frame(
            &mut stream,
            &encode_request(&Request::Infer {
                model: "cls".into(),
                input: Payload::F32(sample.clone()),
            }),
        )
        .expect("infer frame");
    }
    stream.flush().expect("flush");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.quotas().in_flight("burst") == 0 {
        assert!(Instant::now() < deadline, "requests never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.quotas().in_flight("burst") != 0 {
        assert!(
            Instant::now() < deadline,
            "leaked {} quota slots after disconnect",
            server.quotas().in_flight("burst")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn stats_reports_every_interval_histogram_after_traffic() {
    telemetry::set_enabled(true);
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (server, sample) = serve_classifier(36, cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..8 {
        client.infer_f32("cls", &sample).expect("infer");
    }
    let doc = client.stats().expect("stats");
    for name in [
        "admit_ns",
        "enqueue_ns",
        "batch_wait_ns",
        "dispatch_ns",
        "infer_ns",
        "reply_ns",
        "total_ns",
    ] {
        assert!(doc.contains(&format!("\"{name}\"")), "missing {name}");
    }
    // The single shard served all 8 traced requests.
    assert!(doc.contains("\"pushed\": 8"), "doc: {doc}");
    // Per-stage histograms reached the global registry too.
    assert!(doc.contains("serve.stage.total_ns"));
    server.shutdown();
}
