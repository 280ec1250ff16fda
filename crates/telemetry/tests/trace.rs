//! Chrome-trace writer contract: the output is parseable trace-event
//! JSON and timestamps are monotonic within each `(pid, tid)` track.
//! Lives in its own integration-test process because it flips the
//! process-wide trace override.

/// Pulls every `"ts":<number>` out of serialized events in order,
/// keyed by the `(pid, tid)` that precedes it in the same event object.
fn track_timestamps(json: &str) -> Vec<((u64, u64), f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(pid_at) = line.find("\"pid\":") else {
            continue;
        };
        if !line.contains("\"ph\":\"X\"") {
            continue;
        }
        let num_after = |key: &str| -> Option<f64> {
            let at = line.find(key)? + key.len();
            let rest = &line[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let _ = pid_at;
        let pid = num_after("\"pid\":").expect("pid") as u64;
        let tid = num_after("\"tid\":").expect("tid") as u64;
        let ts = num_after("\"ts\":").expect("ts");
        out.push(((pid, tid), ts));
    }
    out
}

#[test]
fn trace_json_is_wellformed_and_monotonic_per_track() {
    telemetry::set_trace_enabled(true);
    telemetry::reset_trace();

    // Wall-clock spans, including nested ones (which buffer in drop
    // order, i.e. inner before outer — the writer must sort).
    {
        let _outer = telemetry::trace_span("outer", "test");
        let _inner = telemetry::trace_span("inner", "test");
        std::hint::black_box(0);
    }
    {
        let _later = telemetry::trace_span("later", "test");
        std::hint::black_box(0);
    }

    // A modeled-cycle replay with overlapping stations, out of order.
    let pid = telemetry::trace_cycle_process("pipeline replay");
    assert!(pid >= 2);
    telemetry::trace_complete_cycles(pid, 1, "fft", 100, 50);
    telemetry::trace_complete_cycles(pid, 0, "dram", 0, 120);
    telemetry::trace_complete_cycles(pid, 1, "fft", 0, 60);
    telemetry::trace_complete_cycles(pid, 2, "emac", 60, 90);

    let json = telemetry::trace_json();

    // Structure: one traceEvents array, process-name metadata present.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("software (wall clock)"));
    assert!(json.contains("pipeline replay"));
    for name in ["outer", "inner", "later", "dram", "fft", "emac"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
    // Balanced braces/brackets — cheap well-formedness proxy for the
    // std-only test (no JSON parser dependency).
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces"
    );
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    // Monotonic ts within each (pid, tid) track.
    let stamps = track_timestamps(&json);
    assert!(stamps.len() >= 7, "all events serialized: {}", stamps.len());
    let mut last: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    for (track, ts) in stamps {
        if let Some(prev) = last.get(&track) {
            assert!(ts >= *prev, "track {track:?} went backwards");
        }
        last.insert(track, ts);
    }

    // Cycle domain is µs-per-cycle: fft at cycle 100 serializes ts=100.
    assert!(json.contains("\"ts\":100.000,\"dur\":50.000"));

    // write_trace round-trips through the filesystem.
    let path = std::env::temp_dir().join("rpbcm_trace_test.json");
    telemetry::write_trace(&path).expect("write");
    assert_eq!(std::fs::read_to_string(&path).expect("read"), json);
    let _ = std::fs::remove_file(&path);

    // Disabled tracing buffers nothing (same test: the override is
    // process-wide, so flipping it in a parallel test would race).
    {
        telemetry::set_trace_enabled(false);
        let _s = telemetry::trace_span("never_buffered", "test");
        telemetry::trace_complete_cycles(9, 0, "never_buffered", 0, 1);
        assert_eq!(telemetry::trace_cycle_process("never registered"), 0);
    }
    assert!(!telemetry::trace_json().contains("never_buffered"));
    assert!(!telemetry::trace_json().contains("never registered"));
    telemetry::clear_trace_override();
}
