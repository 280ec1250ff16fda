//! Telemetry aggregation across the scoped-thread worker pool.
//!
//! Lives in its own integration-test binary (its own process) because it
//! flips the process-wide telemetry override, which must not race probes
//! exercised by other tests.

use std::sync::Mutex;

use rpbcm_repro::circulant::{BlockCirculant, CirculantMatrix};
use rpbcm_repro::tensor::parallel;

/// Serializes the tests below: each reads global `tensor.parallel.*`
/// counters before and after its own jobs, and the harness would
/// otherwise run them concurrently, so one test's workers (or registry
/// reset) could land between the other's two snapshots.
static REGISTRY: Mutex<()> = Mutex::new(());

/// A probe shared by every worker closure below: all increments must land
/// in the same registry cell no matter which thread performs them.
static SEEN: telemetry::Counter = telemetry::Counter::new("test.parallel.items_seen");
/// Histogram fed concurrently from every worker: the lock-free buckets
/// must not lose observations in the merge.
static ITEM_VALUES: telemetry::Histogram = telemetry::Histogram::new("test.parallel.item_values");

#[test]
fn counters_aggregate_across_workers() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();

    let items: Vec<u64> = (0..1013).collect();
    let doubled = parallel::par_map_with(4, &items, |_, &v| {
        SEEN.inc();
        v * 2
    });
    assert_eq!(doubled.len(), items.len());
    assert_eq!(doubled[7], 14);
    // 1013 increments from 4 worker threads, one shared cell.
    assert_eq!(SEEN.value(), items.len() as u64);

    let snap = telemetry::snapshot();
    assert!(snap.enabled);
    assert_eq!(snap.counters["tensor.parallel.jobs"], 1);
    assert_eq!(snap.counters["tensor.parallel.items"], 1013);
    assert_eq!(snap.counters["tensor.parallel.workers_spawned"], 4);
    // One busy observation per spawned worker, one wall observation per
    // scope — now histograms, so tail latencies are reportable too.
    assert_eq!(snap.histograms["tensor.parallel.worker_busy"].count, 4);
    assert_eq!(snap.histograms["tensor.parallel.scope_wall"].count, 1);
    // Contiguous splitting of 1013 over 4 is near-balanced: the largest
    // range (254) over the mean (253.25) stays well under 2x.
    let imbalance = snap.gauges["tensor.parallel.max_partition_imbalance"];
    assert!((1.0..2.0).contains(&imbalance), "imbalance = {imbalance}");

    // Same test body (not a separate #[test]): this block and the exact
    // counter assertions above both depend on the global registry, and
    // the test harness runs #[test]s concurrently in one process.
    histogram_merge_preserves_every_observation();
}

/// 2000 observations with known values, recorded concurrently from 8
/// workers. Count, sum and max must all survive the lock-free merge; the
/// quantile estimates must respect the log₂ bucket bounds.
fn histogram_merge_preserves_every_observation() {
    let items: Vec<u64> = (0..2000).collect();
    let before = ITEM_VALUES.count();
    let before_sum = ITEM_VALUES.sum();
    let out = parallel::par_map_with(8, &items, |_, &v| {
        ITEM_VALUES.record(v);
        v
    });
    assert_eq!(out.len(), items.len());
    assert_eq!(ITEM_VALUES.count() - before, 2000);
    let want_sum: u64 = items.iter().sum();
    assert_eq!(ITEM_VALUES.sum() - before_sum, want_sum);
    assert!(ITEM_VALUES.max() >= 1999);

    let snap = telemetry::snapshot();
    let h = &snap.histograms["test.parallel.item_values"];
    assert_eq!(h.count, ITEM_VALUES.count());
    // Uniform 0..2000: the median rank lands in the bucket holding 999,
    // whose upper bound is 1023; p99 and max land in the last used bucket.
    assert!(h.p50 >= 511 && h.p50 <= 1023, "p50 = {}", h.p50);
    assert!(h.p90 >= h.p50 && h.p99 >= h.p90, "quantiles ordered");
    assert!(h.max <= 2047, "max within the top bucket's range");
}

#[test]
fn serial_fallback_counts_separately() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);

    let before = telemetry::snapshot();
    let serial_before = before
        .counters
        .get("tensor.parallel.serial_jobs")
        .copied()
        .unwrap_or(0);
    let items = [1u32, 2, 3];
    let out = parallel::par_map_with(1, &items, |_, &v| v + 1);
    assert_eq!(out, vec![2, 3, 4]);

    let after = telemetry::snapshot();
    assert_eq!(
        after.counters["tensor.parallel.serial_jobs"],
        serial_before + 1
    );
    // The serial path spawns nothing, so the fan-out counters are unchanged.
    assert_eq!(
        after.counters.get("tensor.parallel.workers_spawned"),
        before.counters.get("tensor.parallel.workers_spawned")
    );
}

/// The eMAC counters count one block product per lane: a 3-lane gang adds
/// exactly three times what one single-sample product adds.
#[test]
fn emac_counters_count_every_lane() {
    let _serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);

    let blocks = (0..6)
        .map(|b| {
            if b % 3 == 1 {
                CirculantMatrix::zeros(4)
            } else {
                CirculantMatrix::new(vec![1.0, -0.5, 0.25, b as f32])
            }
        })
        .collect();
    let grid = BlockCirculant::from_blocks(4, 2, 3, blocks);
    let xs: Vec<Vec<f32>> = (0..3)
        .map(|s| (0..12).map(|i| (i * 3 + s) as f32 * 0.1).collect())
        .collect();
    let emacs = || {
        let snap = telemetry::snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (
            get("circulant.emac.blocks_computed"),
            get("circulant.emac.blocks_skipped"),
        )
    };

    let (c0, s0) = emacs();
    grid.matvec(&xs[0]);
    let (c1, s1) = emacs();
    let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    grid.matvec_lanes(&refs);
    let (c3, s3) = emacs();

    // One sample: 2 rows × 3 col-blocks, 2 pruned.
    assert_eq!((c1 - c0, s1 - s0), (4, 2));
    assert_eq!((c3 - c1, s3 - s1), (3 * (c1 - c0), 3 * (s1 - s0)));
}
