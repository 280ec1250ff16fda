//! Behaviour with the runtime gate forced on. Lives in its own
//! integration-test process so the process-wide override cannot race
//! other test binaries.

use telemetry::{Counter, Gauge, Histogram, Timer};

static HITS: Counter = Counter::new("test.enabled.hits");
static LEVEL: Gauge = Gauge::new("test.enabled.level");
static SPAN: Timer = Timer::new("test.enabled.span");
static LATENCY: Histogram = Histogram::new("test.enabled.latency");

#[test]
fn probes_record_and_report() {
    telemetry::set_enabled(true);

    HITS.inc();
    HITS.add(9);
    assert_eq!(HITS.value(), 10);

    LEVEL.set(2.5);
    LEVEL.set_max(7.0);
    LEVEL.set_max(1.0); // lower than the high-water mark: ignored
    assert_eq!(LEVEL.value(), 7.0);

    {
        let _guard = SPAN.span();
        std::hint::black_box(0);
    }
    SPAN.add_ns(1_000);
    assert_eq!(SPAN.count(), 2);
    assert!(SPAN.total_ns() >= 1_000);

    telemetry::record_counter("test.enabled.dynamic", 3);
    telemetry::record_gauge("test.enabled.dyn_gauge", 0.25);
    telemetry::record_timer_ns("test.enabled.dyn_timer", 42);

    let snap = telemetry::snapshot();
    assert!(snap.enabled);
    assert_eq!(snap.counters["test.enabled.hits"], 10);
    assert_eq!(snap.counters["test.enabled.dynamic"], 3);
    assert_eq!(snap.gauges["test.enabled.level"], 7.0);
    assert_eq!(snap.gauges["test.enabled.dyn_gauge"], 0.25);
    assert_eq!(snap.timers["test.enabled.span"].count, 2);
    assert_eq!(snap.timers["test.enabled.dyn_timer"].total_ns, 42);

    let json = telemetry::report_json();
    assert!(json.contains("\"test.enabled.hits\": 10"));
    assert!(json.contains("\"enabled\": true"));

    // Histograms: exact count/sum/max, quantiles at bucket upper bounds.
    for v in [1u64, 1, 1, 1000] {
        LATENCY.record(v);
    }
    {
        let _guard = LATENCY.span();
        std::hint::black_box(0);
    }
    assert_eq!(LATENCY.count(), 5);
    assert!(LATENCY.sum() >= 1003);
    assert!(LATENCY.max() >= 1000);
    telemetry::record_histogram("test.enabled.dyn_hist", 7);
    let snap = telemetry::snapshot();
    let h = &snap.histograms["test.enabled.latency"];
    assert_eq!(h.count, 5);
    assert_eq!(h.p50, 1);
    assert_eq!(snap.histograms["test.enabled.dyn_hist"].max, 7);
    assert!(telemetry::report_json().contains("\"test.enabled.dyn_hist\""));

    // Reset zeroes values but keeps registrations and probe handles.
    telemetry::reset();
    assert_eq!(HITS.value(), 0);
    assert_eq!(LEVEL.value(), 0.0);
    assert_eq!(SPAN.total_ns(), 0);
    assert_eq!(LATENCY.count(), 0);
    assert_eq!(LATENCY.max(), 0);
    HITS.inc();
    assert_eq!(HITS.value(), 1);
}
