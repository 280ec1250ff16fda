//! The zero-overhead contract while telemetry is runtime-disabled: probes
//! must not register metrics, touch the registry, or read the clock. Own
//! process so the override cannot race other test binaries.

use telemetry::{Counter, Gauge, Timer};

static MISSES: Counter = Counter::new("test.disabled.misses");
static DEPTH: Gauge = Gauge::new("test.disabled.depth");
static WAIT: Timer = Timer::new("test.disabled.wait");

#[test]
fn disabled_probes_leave_no_trace() {
    telemetry::set_enabled(false);
    assert!(!telemetry::enabled());

    MISSES.inc();
    MISSES.add(100);
    DEPTH.set(3.0);
    DEPTH.set_max(9.0);
    WAIT.add_ns(500);
    drop(WAIT.span());
    telemetry::record_counter("test.disabled.dynamic", 7);
    telemetry::record_gauge("test.disabled.dyn_gauge", 1.0);
    telemetry::record_timer_ns("test.disabled.dyn_timer", 1);

    // Nothing was registered: the probes bailed before touching the
    // registry, so the snapshot holds no metric of this test's.
    let snap = telemetry::snapshot();
    assert!(!snap.enabled);
    assert!(
        snap.counters
            .keys()
            .all(|k| !k.starts_with("test.disabled")),
        "disabled counter registered: {:?}",
        snap.counters
    );
    assert!(snap.gauges.keys().all(|k| !k.starts_with("test.disabled")));
    assert!(snap.timers.keys().all(|k| !k.starts_with("test.disabled")));

    // A span opened while disabled stays inert even if telemetry is
    // enabled before the guard drops: the decision is taken at open time.
    let guard = WAIT.span();
    telemetry::set_enabled(true);
    drop(guard);
    assert_eq!(
        WAIT.count(),
        0,
        "span opened while disabled must not record"
    );
    telemetry::set_enabled(false);

    // Reading a value registers the metric (documented) but reports zero.
    assert_eq!(MISSES.value(), 0);
    assert_eq!(DEPTH.value(), 0.0);
    assert_eq!(WAIT.total_ns(), 0);
}
