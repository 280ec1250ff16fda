//! Identical registry contents must render byte-identical JSON, so the
//! `results/TELEMETRY_*.json` artifacts diff cleanly across runs. Lives
//! in its own integration-test process because it resets the registry.

#[test]
fn reports_are_byte_identical_for_identical_registry_contents() {
    telemetry::set_enabled(true);

    let record = || {
        telemetry::record_counter("test.det.counter", 3);
        telemetry::record_gauge("test.det.gauge", -0.75);
        telemetry::record_timer_ns("test.det.timer", 500);
        telemetry::record_histogram("test.det.hist", 9);
        telemetry::record_histogram("test.det.hist", 1024);
        // Insertion order of *registrations* must not leak into the
        // report: register a lexically-earlier name last.
        telemetry::record_counter("test.det.a_counter", 1);
    };

    record();
    let json_a = telemetry::report_json();

    telemetry::reset();
    record();
    let json_b = telemetry::report_json();

    assert_eq!(json_a.as_bytes(), json_b.as_bytes());

    // Sorted-name order within each section.
    let a = json_a.find("test.det.a_counter").expect("a present");
    let b = json_a.find("test.det.counter").expect("b present");
    assert!(a < b, "counters sorted by name");
}
