//! Thread-local FFT plan cache.
//!
//! Building an [`Fft`] plan costs O(n) trigonometry for the twiddle table;
//! BCM inference calls transforms of the same small size thousands of
//! times per layer. [`with_plan`] memoizes plans per `(size, scalar type)`
//! per thread — the software analogue of the accelerator's fixed twiddle
//! ROM.
//!
//! Because the cache is thread-local, every worker spawned by
//! `tensor::parallel` builds its own plans on first use and then hits its
//! own cache with no synchronization — exactly how each hardware FFT PE
//! holds a private twiddle ROM. The cache is bounded at
//! [`MAX_CACHED_PLANS`] entries per thread (evicting all entries when a
//! new size would exceed the bound), so a workload sweeping many distinct
//! sizes cannot grow a thread's cache without limit; [`clear_plans`] drops
//! the current thread's cache eagerly.

use crate::Fft;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use tensor::Scalar;

/// Per-thread bound on cached plans. Real networks use a handful of block
/// sizes, so the bound is generous; it exists to keep a size-sweeping
/// workload from growing each thread's cache without limit.
pub const MAX_CACHED_PLANS: usize = 32;

/// Plan requests served from the thread's cache.
static CACHE_HITS: telemetry::Counter = telemetry::Counter::new("fft.plan_cache.hits");
/// Plan requests that had to build a fresh plan.
static CACHE_MISSES: telemetry::Counter = telemetry::Counter::new("fft.plan_cache.misses");
/// Wholesale evictions triggered by the [`MAX_CACHED_PLANS`] bound.
static CACHE_EVICTIONS: telemetry::Counter = telemetry::Counter::new("fft.plan_cache.evictions");

thread_local! {
    static PLANS: RefCell<HashMap<(usize, TypeId), Rc<dyn Any>>> =
        RefCell::new(HashMap::new());
}

/// Runs `f` with a cached plan for size `n`, building (and caching) it on
/// first use.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
///
/// # Example
///
/// ```
/// use fft::{plan::with_plan, Complex};
///
/// let mut x = vec![Complex::new(1.0_f64, 0.0); 8];
/// with_plan::<f64, _>(8, |p| p.forward(&mut x));
/// // Second call reuses the cached plan.
/// with_plan::<f64, _>(8, |p| p.inverse(&mut x));
/// assert!((x[0].re - 1.0).abs() < 1e-12);
/// ```
pub fn with_plan<T: Scalar, R>(n: usize, f: impl FnOnce(&Fft<T>) -> R) -> R {
    let key = (n, TypeId::of::<T>());
    let plan: Rc<dyn Any> = PLANS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.contains_key(&key) {
            CACHE_HITS.inc();
        } else {
            CACHE_MISSES.inc();
            if cache.len() >= MAX_CACHED_PLANS {
                // Wholesale eviction: plans are cheap to rebuild relative
                // to the transforms they serve, and an LRU would cost
                // bookkeeping on the hit path every call.
                CACHE_EVICTIONS.inc();
                cache.clear();
            }
        }
        cache
            .entry(key)
            .or_insert_with(|| Rc::new(Fft::<T>::new(n)) as Rc<dyn Any>)
            .clone()
    });
    let plan = plan
        .downcast_ref::<Fft<T>>()
        .expect("cache entry type matches key");
    f(plan)
}

/// Number of plans currently cached on this thread (for tests/diagnostics).
pub fn cached_plan_count() -> usize {
    PLANS.with(|cache| cache.borrow().len())
}

/// Process-wide count of wholesale evictions triggered by the
/// [`MAX_CACHED_PLANS`] bound (the `fft.plan_cache.evictions` counter).
/// Requires telemetry to be enabled.
/// Per-timestep recurrent workloads sweeping many transform sizes can
/// watch this to confirm the cache evicts rather than grows.
pub fn plan_evictions() -> u64 {
    CACHE_EVICTIONS.value()
}

/// Drops every plan cached on the current thread. Long-lived threads that
/// are done with FFT work can call this to release the twiddle tables.
pub fn clear_plans() {
    PLANS.with(|cache| cache.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    #[test]
    fn plans_are_cached_per_size_and_type() {
        let before = cached_plan_count();
        with_plan::<f64, _>(64, |p| assert_eq!(p.len(), 64));
        with_plan::<f64, _>(64, |p| assert_eq!(p.len(), 64));
        with_plan::<f32, _>(64, |p| assert_eq!(p.len(), 64));
        with_plan::<f64, _>(128, |p| assert_eq!(p.len(), 128));
        let after = cached_plan_count();
        assert_eq!(after - before, 3); // 64/f64, 64/f32, 128/f64
    }

    #[test]
    fn cache_is_bounded_and_clearable() {
        clear_plans();
        // 17 sizes × 2 scalar types = 34 keys > MAX_CACHED_PLANS = 32.
        for log in 1..=17u32 {
            let n = 1usize << log;
            with_plan::<f64, _>(n, |p| assert_eq!(p.len(), n));
            with_plan::<f32, _>(n, |p| assert_eq!(p.len(), n));
        }
        assert!(
            cached_plan_count() <= MAX_CACHED_PLANS,
            "cache grew to {} entries",
            cached_plan_count()
        );
        // Plans still compute correctly after an eviction.
        let mut x = vec![Complex::new(1.0_f64, 0.0); 8];
        with_plan::<f64, _>(8, |p| p.forward(&mut x));
        with_plan::<f64, _>(8, |p| p.inverse(&mut x));
        assert!((x[0].re - 1.0).abs() < 1e-12);
        clear_plans();
        assert_eq!(cached_plan_count(), 0);
    }

    #[test]
    fn per_timestep_size_sweep_evicts_instead_of_growing() {
        // A recurrent workload transforming a different power-of-two
        // length every timestep is the worst case for the plan cache:
        // no size ever repeats within a window larger than the bound.
        // The cache must stay bounded and report evictions.
        telemetry::set_enabled(true);
        clear_plans();
        let before = plan_evictions();
        for step in 0..4 * MAX_CACHED_PLANS {
            // 17 sizes × 2 scalar types = 34 distinct keys > the bound.
            let n = 1usize << (1 + step % 17);
            with_plan::<f32, _>(n, |p| assert_eq!(p.len(), n));
            with_plan::<f64, _>(n, |p| assert_eq!(p.len(), n));
            assert!(
                cached_plan_count() <= MAX_CACHED_PLANS,
                "cache grew to {} entries at step {step}",
                cached_plan_count()
            );
        }
        assert!(
            plan_evictions() > before,
            "size sweep past the bound must record evictions"
        );
        telemetry::clear_override();
        clear_plans();
    }

    #[test]
    fn cache_is_per_thread() {
        with_plan::<f64, _>(32, |p| assert_eq!(p.len(), 32));
        assert!(cached_plan_count() >= 1);
        // A fresh worker thread starts with an empty cache and fills its
        // own — the property the scoped-thread parallel runtime relies on.
        let counts = std::thread::spawn(|| {
            let before = cached_plan_count();
            with_plan::<f64, _>(32, |p| assert_eq!(p.len(), 32));
            (before, cached_plan_count())
        })
        .join()
        .expect("worker thread");
        assert_eq!(counts, (0, 1));
    }

    #[test]
    fn cached_plan_computes_correctly() {
        let mut x: Vec<Complex<f64>> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
        let orig = x.clone();
        with_plan::<f64, _>(16, |p| p.forward(&mut x));
        with_plan::<f64, _>(16, |p| p.inverse(&mut x));
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10);
        }
    }
}
