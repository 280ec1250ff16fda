//! Self-tests of the benchmark harness: the tail-percentile rule, lag
//! accounting against a deliberately slow responder, units on every
//! printed metric, agreement with `BENCHMARK.json`, and a quick run of
//! all four workloads with their output checks.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use bench::json::{self, Json};
use perfbench::gen::{Generator, Load, Traffic, Verdict};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::stats::{tail_percentile, Summary, MIN_BEYOND};
use perfbench::{parse_args, run, Args};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    // 1000 samples: p99 is rank 990, with exactly ten beyond it.
    assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
    // 999 samples: rank 990 again, but only nine beyond.
    assert_eq!(tail_percentile(&ramp(999), 99.0), None);
    assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
    assert_eq!(tail_percentile(&ramp(99), 90.0), None);
    assert_eq!(tail_percentile(&[], 50.0), None);
    assert_eq!(MIN_BEYOND, 10);
    let s = Summary::of(&ramp(5)).expect("samples");
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
}

/// Answers each request with a one-byte `ok` body, `delay` after reading
/// it, one request at a time per connection.
fn slow_responder(delay: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let conns: Vec<_> = (0..perfbench::gen::CONNS)
            .map(|_| listener.accept().expect("accept").0)
            .collect();
        std::thread::scope(|s| {
            for mut c in conns {
                s.spawn(move || {
                    let mut hello = [0u8; 4];
                    c.read_exact(&mut hello).expect("handshake");
                    let mut len = [0u8; 4];
                    while c.read_exact(&mut len).is_ok() {
                        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                        c.read_exact(&mut body).expect("body");
                        std::thread::sleep(delay);
                        c.write_all(&[1, 0, 0, 0, 0]).expect("reply");
                    }
                });
            }
        });
    });
    (addr, handle)
}

struct Pings;

impl Traffic for Pings {
    fn request(&mut self, _conn: usize, _tick: u64, out: &mut Vec<u8>) -> Option<u64> {
        out.extend_from_slice(&[1, 0, 0, 0, 0]);
        Some(0)
    }

    fn on_reply(&mut self, _tag: u64, body: &[u8]) -> Verdict {
        if body == [0] {
            Verdict::Op
        } else {
            Verdict::Failed("bad body".into())
        }
    }
}

#[test]
fn open_loop_latency_counts_from_due_time_and_lag_stays_small() {
    // Each connection is served one request per 10 ms, but the schedule
    // offers 200 per second per connection for 0.25 s: the responder
    // falls behind, so later requests wait in its queue. Latency is
    // timed from the due time and must show that wait; the generator
    // itself keeps its schedule, so its lag stays far below it.
    let delay = Duration::from_millis(10);
    let (addr, responder) = slow_responder(delay);
    let mut gen = Generator::connect(addr).expect("connect");
    let ph = gen.run(
        &mut Pings,
        Load::Open { rate: 400.0 },
        Duration::from_millis(250),
    );
    drop(gen);
    responder.join().expect("responder");

    assert_eq!(ph.attempted, 100);
    assert_eq!(ph.ops, 100);
    assert_eq!(ph.failed, 0);
    assert_eq!(ph.lag_us.len(), 100, "one lag sample per open-loop request");
    let lat = Summary::of(&ph.latency_us).expect("latencies");
    let lag = Summary::of(&ph.lag_us).expect("lags");
    let worst = ph.latency_us.iter().copied().fold(0.0, f64::max);
    // 50 requests per connection at 10 ms each: the last is answered
    // about 500 ms after start, 250 ms after it was due.
    assert!(worst > 200_000.0, "queueing wait missing: worst {worst} us");
    assert!(lat.median > 100_000.0, "median {lat}");
    assert!(lag.median * 10.0 < lat.median, "lag {lag} vs latency {lat}");
}

#[test]
fn closed_loop_keeps_its_window_and_ignores_lag() {
    let (addr, responder) = slow_responder(Duration::from_millis(2));
    let mut gen = Generator::connect(addr).expect("connect");
    let ph = gen.run(
        &mut Pings,
        Load::Closed { window: 3 },
        Duration::from_millis(200),
    );
    drop(gen);
    responder.join().expect("responder");
    assert!(ph.lag_us.is_empty());
    assert_eq!(ph.attempted, ph.ops);
    // Two connections, one reply per 2 ms each: about 200 in 0.2 s.
    assert!((100..=260).contains(&ph.ops), "ops {}", ph.ops);
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), table.len(), "{key} length");
        for (entry, def) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert!(
                !def.moves.is_empty(),
                "{} names what it should move",
                def.name
            );
        }
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    // prune_pipeline stays runnable but is not gated (see README.md).
    assert_eq!(names, perfbench::workloads::NAMES[..3]);
}

/// Parses a result line and checks it names exactly `table`'s metrics,
/// each with its unit.
fn check_result_line(line: &str, table: &[perfbench::metrics::Def]) {
    let doc = json::parse(line).expect("result line is JSON");
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(metrics.len(), table.len());
    for def in table {
        let m = metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("{} missing", def.name));
        assert!(
            m.get("value").and_then(Json::as_num).is_some(),
            "{} value",
            def.name
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{} unit",
            def.name
        );
    }
}

#[test]
fn quick_mode_runs_every_workload_with_output_checks() {
    for name in perfbench::workloads::NAMES {
        let args = Args {
            workload: name.into(),
            seed: 7,
            seconds: 1.0,
            trace: false,
        };
        let report = run(&args, None);
        assert!(report.correct, "{name}: {:?}", report.notes);
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted > 0, "{name}");
        check_result_line(&report.result_line(), &END_TO_END);
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_with_its_unit() {
    let args = parse_args(
        [
            "--workload",
            "fx_infer",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]
        .map(String::from),
    )
    .expect("valid arguments");
    let report = run(&args, None);
    assert!(report.correct, "{:?}", report.notes);
    check_result_line(&report.result_line(), &PER_LAYER);
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
    assert!(parse(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "fx_infer",
        "--seed",
        "x",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "fx_infer",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(parse(&["--workload", "fx_infer", "--seed", "1", "--seconds", "1"]).is_err());
}
