//! Load generator and standalone host for the `rpbcm-serve` engine.
//!
//! Run: `cargo run -p bench --release --bin exp_serve [-- OPTIONS]`.
//!
//! Modes:
//!
//! - *(default)* — full benchmark: closed-loop B=1 vs B=8 plus the 2×
//!   open-loop overload scenario; writes `results/BENCH_serve.json`.
//! - `--smoke` — quick burst with hard assertions (non-zero throughput,
//!   zero protocol errors, shedding only under overload) plus the
//!   observability checks (bit-identical replies with tracing on/off,
//!   a parseable `stats` snapshot over the wire, complete seven-stamp
//!   traces for every served request, and a validated flight-recorder
//!   dump pair from a forced SLO violation); exits non-zero on any
//!   failure and does not overwrite the committed artifact.
//! - `--listen [addr]` — standalone server on `addr` (default
//!   `127.0.0.1:7445`, port 0 for ephemeral) running the built-in demo
//!   model plus any `--model <file.rpbcm>` checkpoints; exits when a
//!   client sends the `shutdown` opcode.
//! - `--stat [addr]` — one-shot introspection: sends the `stats` opcode
//!   to a running server (default `127.0.0.1:7445`) and prints the
//!   versioned JSON snapshot (config, models, quota, per-shard queue
//!   and stage-latency state, telemetry report) to stdout.
//! - `--drive <addr> <conns> <spread_ms> <infer_every>` — internal: the
//!   10k-connection open-loop driver, run as a child process by the
//!   benchmark so driver and server fds come from separate budgets.
//!   Prints one JSON result line on stdout.

use serve::{Client, Registry, ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--drive") {
        return run_drive(&args[1..]);
    }
    let mut smoke = false;
    let mut listen: Option<String> = None;
    let mut stat: Option<String> = None;
    let mut models: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--listen" => {
                listen = Some(match it.clone().next() {
                    Some(addr) if !addr.starts_with("--") => {
                        it.next();
                        addr.clone()
                    }
                    _ => "127.0.0.1:7445".to_string(),
                });
            }
            "--stat" => {
                stat = Some(match it.clone().next() {
                    Some(addr) if !addr.starts_with("--") => {
                        it.next();
                        addr.clone()
                    }
                    _ => "127.0.0.1:7445".to_string(),
                });
            }
            "--model" => match it.next() {
                Some(p) => models.push(p.clone()),
                None => return usage("--model requires a .rpbcm path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(addr) = stat {
        if smoke || listen.is_some() || !models.is_empty() {
            return usage("--stat is a standalone mode");
        }
        return run_stat(&addr);
    }
    if let Some(addr) = listen {
        return run_listen(&addr, &models);
    }
    if !models.is_empty() {
        return usage("--model only applies to --listen mode");
    }

    let result = bench::experiments::serve::run(smoke);
    bench::experiments::serve::print(&result);
    if smoke {
        let mut fails = bench::experiments::serve::smoke_failures(&result);
        fails.extend(bench::experiments::serve::observability_smoke());
        if fails.is_empty() {
            println!("serve smoke: ok");
            return ExitCode::SUCCESS;
        }
        for f in &fails {
            eprintln!("serve smoke FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }
    match bench::experiments::serve::write_json(&result) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_serve.json: {e}"),
    }
    bench::write_telemetry("serve");
    ExitCode::SUCCESS
}

fn run_drive(rest: &[String]) -> ExitCode {
    let (addr, conns, spread_ms, infer_every) = match rest {
        [addr, conns, spread_ms, infer_every] => {
            match (
                addr.parse::<std::net::SocketAddr>(),
                conns.parse::<usize>(),
                spread_ms.parse::<u64>(),
                infer_every.parse::<usize>(),
            ) {
                (Ok(a), Ok(c), Ok(s), Ok(i)) => (a, c, s, i),
                _ => return usage("--drive arguments must be addr conns spread_ms infer_every"),
            }
        }
        _ => return usage("--drive takes exactly addr conns spread_ms infer_every"),
    };
    let outcome = bench::experiments::serve::drive(
        addr,
        conns,
        Duration::from_millis(spread_ms),
        infer_every,
    );
    println!("{}", outcome.to_json_line());
    ExitCode::SUCCESS
}

fn run_stat(addr: &str) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    match client.stats() {
        Ok(doc) => {
            print!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: stats request failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_listen(addr: &str, models: &[String]) -> ExitCode {
    let registry = Registry::new();
    let (net, meta) = bench::experiments::serve::demo_model(42);
    registry.publish(serve::Model::from_network("demo", net, meta));
    for path in models {
        match registry.load_file(std::path::Path::new(path)) {
            Ok(entry) => println!("loaded {} as {:?} v{}", path, entry.name(), entry.version()),
            Err(e) => {
                eprintln!("error: cannot load {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let server = match Server::bind(addr, ServeConfig::from_env(), registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "serving on {} (send the shutdown opcode to stop)",
        server.local_addr()
    );
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutdown requested — draining");
    server.shutdown();
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: exp_serve [--smoke] [--listen [addr] [--model <file.rpbcm>]...]\n       exp_serve --stat [addr]\n       exp_serve --drive <addr> <conns> <spread_ms> <infer_every>"
    );
    ExitCode::from(2)
}
