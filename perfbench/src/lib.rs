//! End-to-end and per-layer benchmark of the RP-BCM stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workloads`]) against in-process code built
//! from this repository, checks every output it receives, prints a
//! human-readable report to standard error and, as the last line of
//! standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics of
//! [`metrics::END_TO_END`]. Traced runs (`--trace 1`) switch telemetry
//! on, run the same workload, then replay the layers' public functions
//! ([`layers`]) and print [`metrics::PER_LAYER`]; they also write the
//! benchmark's spans as a Chrome trace. Reports and spans go to
//! `.bench_out/` under the working directory.

pub mod gen;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};

use stats::Summary;
use workloads::{Ctx, Outcome};

/// Command-line usage.
pub const USAGE: &str =
    "usage: perfbench --workload <fx_infer|session_stream|float_swap|prune_pipeline> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// Where reports and spans are written, relative to the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// A message naming the missing or malformed argument.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}: use 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one invocation produced.
pub struct Report {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values, in the order of the definition table.
    pub metrics: Vec<(&'static str, f64)>,
    /// The generator kept its schedule (see [`Outcome::valid`]).
    pub valid: bool,
    /// Report lines.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object, every metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = metrics::find(name).map_or("", |d| d.unit);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
        json_num(s.median),
        json_num(s.q1),
        json_num(s.q3),
        s.n
    )
}

/// The end-to-end values of an outcome, in table order.
fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> [(&'static str, f64); 4] {
    [
        ("setup_s", outcome.setup_s.median),
        ("throughput_ops_s", outcome.throughput.median),
        ("latency_p50_us", outcome.latency_us.median),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

fn report_path(dir: &Path, args: &Args, trace: bool) -> PathBuf {
    dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(trace)
    ))
}

/// Tracing overhead: traced minus untraced end-to-end medians, when the
/// untraced run of the same workload and seed left its report.
fn overhead_notes(dir: &Path, args: &Args, traced: &[(&'static str, f64)]) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(report_path(dir, args, false)) else {
        return vec!["tracing overhead: no untraced report for this workload and seed".into()];
    };
    let Ok(doc) = bench::json::parse(&text) else {
        return vec!["tracing overhead: untraced report unreadable".into()];
    };
    traced
        .iter()
        .filter_map(|(name, t)| {
            let u = doc.get("metrics")?.get(name)?.as_num()?;
            Some(format!(
                "tracing overhead {name}: traced {t:.4} - untraced {u:.4} = {:+.4} ({:+.1}%)",
                t - u,
                (t - u) / u * 100.0
            ))
        })
        .collect()
}

/// Runs one invocation: the workload, then (traced) the layer replay.
/// Writes the report and spans under `out_dir` when it is `Some`.
pub fn run(args: &Args, out_dir: Option<&Path>) -> Report {
    if args.trace {
        telemetry::set_enabled(true);
    }
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let mut outcome = workloads::run(&args.workload, &mut ctx);
    let peak = sys::peak_rss_mib().expect("read peak RSS");
    let e2e = end_to_end(&outcome, peak);
    let valid = outcome.valid();

    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    notes.push(format!("setup_s {}", outcome.setup_s));
    notes.push(format!("throughput_ops_s {}", outcome.throughput));
    notes.push(format!("latency_us {}", outcome.latency_us));
    notes.push(match outcome.latency_p99_us {
        Some(p) => format!("latency_p99_us {p:.1}"),
        None => "latency_p99_us not reported: fewer than 10 samples beyond it".into(),
    });
    if let Some(lag) = outcome.lag_p99_us {
        notes.push(format!(
            "generator lag p99 {lag:.1} us (limit {:.0} us): {}",
            outcome.latency_limit_us.unwrap_or(0.0),
            if valid { "valid" } else { "INVALID" }
        ));
    }
    notes.push(format!("peak_rss_mb {peak:.2}"));
    notes.push(format!(
        "attempted {} failed {} failed_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    notes.extend(outcome.reasons.iter().map(|r| format!("failure: {r}")));

    let mut failed = outcome.failed;
    let metrics: Vec<(&'static str, f64)> = if args.trace {
        let (mut v, failure) = layers::replay(&mut ctx, &args.workload, &outcome);
        if let Some(why) = failure {
            failed += 1;
            notes.push(format!("failure: {why}"));
        }
        const TRACED: [&str; 4] = [
            "trace.setup_s",
            "trace.throughput_ops_s",
            "trace.latency_p50_us",
            "trace.peak_rss_mb",
        ];
        v.extend(TRACED.iter().zip(e2e).map(|(n, (_, x))| (*n, x)));
        let order = |n: &str| metrics::PER_LAYER.iter().position(|d| d.name == n);
        v.sort_by_key(|(n, _)| order(n));
        v
    } else {
        e2e.to_vec()
    };
    if let Some(live) = outcome.live.take() {
        live.stop();
    }
    notes.append(&mut ctx.notes);

    ctx.spans.close((ctx.root, ctx.root_start), "perfbench", 0);
    if let Some(dir) = out_dir {
        if args.trace {
            notes.extend(overhead_notes(dir, args, &e2e));
        }
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"valid\": {}, \
             \"setup_s\": {}, \"throughput_ops_s\": {}, \"latency_us\": {}, \
             \"metrics\": {{{}}}, \"notes\": [{}]}}\n",
            args.workload,
            args.seed,
            args.trace,
            valid,
            summary_json(&outcome.setup_s),
            summary_json(&outcome.throughput),
            summary_json(&outcome.latency_us),
            metrics
                .iter()
                .chain(e2e.iter().filter(|_| args.trace))
                .map(|(n, v)| format!("\"{n}\": {}", json_num(*v)))
                .collect::<Vec<_>>()
                .join(", "),
            notes
                .iter()
                .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "'")))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(report_path(dir, args, args.trace), body))
            .and_then(|()| {
                if args.trace {
                    let spans = dir.join(format!("{}-seed{}-spans.json", args.workload, args.seed));
                    std::fs::write(spans, ctx.spans.to_chrome_json())
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            notes.push(format!(
                "could not write report under {}: {e}",
                dir.display()
            ));
        }
    }

    Report {
        correct: failed == 0,
        attempted: outcome.attempted,
        failed,
        metrics,
        valid,
        notes,
    }
}
