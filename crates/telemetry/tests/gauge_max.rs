//! Regression test for `Gauge::set_max`: cells used to start at bit
//! pattern 0 (= `0.0`), so a stream of strictly negative maxima never
//! recorded anything. Lives in its own integration-test process because
//! it flips the process-wide override and resets the registry.

use telemetry::Gauge;

static NEG_MAX: Gauge = Gauge::new("test.gauge_max.neg");

#[test]
fn set_max_accepts_negative_first_value_and_ignores_nan() {
    telemetry::set_enabled(true);

    NEG_MAX.set_max(f64::NAN); // ignored: NaN is not a maximum
    assert_eq!(NEG_MAX.value(), 0.0); // still unwritten → reports 0.0
    assert_eq!(telemetry::snapshot().gauges["test.gauge_max.neg"], 0.0);

    NEG_MAX.set_max(-5.0);
    assert_eq!(NEG_MAX.value(), -5.0);
    NEG_MAX.set_max(-9.0); // lower: ignored
    assert_eq!(NEG_MAX.value(), -5.0);
    NEG_MAX.set_max(f64::NAN); // ignored, does not clobber
    assert_eq!(NEG_MAX.value(), -5.0);
    NEG_MAX.set_max(-2.5);
    assert_eq!(NEG_MAX.value(), -2.5);
    assert_eq!(telemetry::snapshot().gauges["test.gauge_max.neg"], -2.5);

    // A NaN written via `set` is replaced by the next maximum.
    NEG_MAX.set(f64::NAN);
    NEG_MAX.set_max(-7.0);
    assert_eq!(NEG_MAX.value(), -7.0);

    // After reset the gauge is unwritten again: negative maxima still work.
    telemetry::reset();
    assert_eq!(NEG_MAX.value(), 0.0);
    NEG_MAX.set_max(-1.0);
    assert_eq!(NEG_MAX.value(), -1.0);
}
