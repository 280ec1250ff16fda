//! Thread-local complex scratch-buffer arena.
//!
//! The spectral hot path — expand a half-spectrum, run an inverse
//! transform, copy out the real parts — used to allocate a fresh
//! `Vec<Complex<T>>` on every call. At training scale that is one heap
//! round-trip per block per pixel per sample. [`with_scratch`] lends out a
//! pooled buffer instead: each thread keeps a small stack of reusable
//! vectors per scalar type, so steady-state spectral work performs zero
//! allocations (the vectors grow once to the largest transform size seen
//! and are then recycled).
//!
//! This is the crate's one scratch arena: every float spectral kernel —
//! the real transforms, the half-spectrum inverse and the
//! `BlockCirculant` lane kernel's per-row IFFT — borrows its complex
//! buffers here.
//!
//! Like the plan cache in [`crate::plan`], the pool is thread-local:
//! workers spawned by `tensor::parallel` each warm their own arena and
//! then hit it without synchronization. Nested `with_scratch` calls are
//! safe — the buffer is popped before the closure runs, so an inner call
//! simply pops (or allocates) the next buffer down the stack.

use crate::Complex;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use tensor::Scalar;

/// Per-thread, per-scalar-type bound on pooled buffers. The deepest
/// nesting on the current hot paths is two (a lane kernel's row buffer
/// around the inverse transform's expansion buffer), so the bound is
/// generous; it exists to keep pathological nesting from
/// retaining buffers without limit.
pub const MAX_POOLED_BUFFERS: usize = 8;

/// Scratch requests served from the thread's pool.
static SCRATCH_HITS: telemetry::Counter = telemetry::Counter::new("fft.workspace.hits");
/// Scratch requests that had to allocate a fresh buffer.
static SCRATCH_MISSES: telemetry::Counter = telemetry::Counter::new("fft.workspace.misses");

thread_local! {
    static POOL: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> = RefCell::new(HashMap::new());
}

/// Runs `f` with a cleared scratch vector borrowed from the thread's pool,
/// returning the vector (and its capacity) to the pool afterwards.
///
/// The buffer arrives empty; `f` sizes it as needed (`resize`, `extend`).
/// Capacity is retained across calls, so repeated transforms of the same
/// size never reallocate.
///
/// # Example
///
/// ```
/// use fft::{workspace::with_scratch, Complex};
///
/// let doubled = with_scratch::<f64, _>(|buf| {
///     buf.resize(4, Complex::new(2.0, 0.0));
///     buf.iter().map(|z| z.re).sum::<f64>()
/// });
/// assert_eq!(doubled, 8.0);
/// ```
pub fn with_scratch<T: Scalar, R>(f: impl FnOnce(&mut Vec<Complex<T>>) -> R) -> R {
    let popped: Option<Box<dyn Any>> = POOL.with(|pool| {
        pool.borrow_mut()
            .get_mut(&TypeId::of::<T>())
            .and_then(Vec::pop)
    });
    let mut buf: Vec<Complex<T>> = match popped {
        Some(any) => {
            SCRATCH_HITS.inc();
            *any.downcast::<Vec<Complex<T>>>()
                .expect("pool entry type matches key")
        }
        None => {
            SCRATCH_MISSES.inc();
            Vec::new()
        }
    };
    buf.clear();
    let out = f(&mut buf);
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let stack = pool.entry(TypeId::of::<T>()).or_default();
        if stack.len() < MAX_POOLED_BUFFERS {
            stack.push(Box::new(buf));
        }
    });
    out
}

/// Number of buffers currently pooled on this thread across all scalar
/// types (for tests/diagnostics).
pub fn pooled_buffer_count() -> usize {
    POOL.with(|pool| pool.borrow().values().map(Vec::len).sum())
}

/// Drops every buffer pooled on the current thread.
pub fn clear_scratch() {
    POOL.with(|pool| pool.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_recycled_with_capacity() {
        clear_scratch();
        let cap = with_scratch::<f64, _>(|buf| {
            buf.resize(64, Complex::zero());
            buf.capacity()
        });
        assert_eq!(pooled_buffer_count(), 1);
        // Second call reuses the same allocation: capacity is retained and
        // the buffer arrives empty.
        let (len, cap2) = with_scratch::<f64, _>(|buf| (buf.len(), buf.capacity()));
        assert_eq!(len, 0);
        assert!(cap2 >= cap);
    }

    #[test]
    fn nested_calls_get_distinct_buffers() {
        clear_scratch();
        with_scratch::<f64, _>(|outer| {
            outer.resize(8, Complex::one());
            with_scratch::<f64, _>(|inner| {
                inner.resize(4, Complex::zero());
                assert_eq!(inner.len(), 4);
            });
            // The inner call must not have touched the outer buffer.
            assert_eq!(outer.len(), 8);
            assert_eq!(outer[0], Complex::one());
        });
        assert_eq!(pooled_buffer_count(), 2);
    }

    #[test]
    fn pools_are_per_scalar_type() {
        clear_scratch();
        with_scratch::<f64, _>(|buf| buf.resize(16, Complex::zero()));
        with_scratch::<f32, _>(|buf| buf.resize(16, Complex::zero()));
        assert_eq!(pooled_buffer_count(), 2);
        clear_scratch();
        assert_eq!(pooled_buffer_count(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        clear_scratch();
        // Nest deeper than the bound: only MAX_POOLED_BUFFERS survive.
        fn nest(depth: usize) {
            if depth == 0 {
                return;
            }
            with_scratch::<f64, _>(|buf| {
                buf.push(Complex::zero());
                nest(depth - 1);
            });
        }
        nest(MAX_POOLED_BUFFERS + 3);
        assert!(pooled_buffer_count() <= MAX_POOLED_BUFFERS);
    }

    #[test]
    fn pool_is_per_thread() {
        clear_scratch();
        with_scratch::<f64, _>(|buf| buf.push(Complex::zero()));
        assert!(pooled_buffer_count() >= 1);
        let counts = std::thread::spawn(|| {
            let before = pooled_buffer_count();
            with_scratch::<f64, _>(|buf| buf.push(Complex::zero()));
            (before, pooled_buffer_count())
        })
        .join()
        .expect("worker thread");
        assert_eq!(counts, (0, 1));
    }
}
