//! Order-preserving scoped-thread `map`, kept only for the frozen
//! repository benchmark.
//!
//! Nothing in the workspace calls this module: the simulation runs on
//! one thread (DESIGN.md §4). The standalone `benchmark/` package, which
//! a code PR may not edit, still pins [`set_workers`]`(1)` before its
//! runs and probes [`map`] for two `trace`-only metrics
//! (`faas.par.map.overhead_us`, `faas.par.steady_speedup_w2`). The
//! benchmark-only follow-up that drops those two metrics and the pins
//! deletes this file.
//!
//! [`map`] fans a slice of jobs out across OS threads
//! (`std::thread::scope`) as contiguous chunks, one chunk per worker,
//! and concatenates the per-chunk results **in chunk order** — which is
//! submission order — so the caller observes a `Vec<R>` identical to
//! `items.iter().map(f)` at any worker count. The count is 1 until
//! [`set_workers`] says otherwise; no environment variable or host
//! property is read.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the worker count.
pub const MAX_WORKERS: usize = 64;

static WORKERS: AtomicUsize = AtomicUsize::new(1);

// Marks threads that are themselves pool workers so nested `map` calls
// degrade to serial instead of multiplying threads.
thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Current worker count. Always >= 1; 1 means every [`map`] call runs
/// serially on the caller's thread.
pub fn workers() -> usize {
    WORKERS.load(Ordering::Relaxed)
}

/// Sets the worker count process-wide (clamped to `1..=MAX_WORKERS`).
/// [`map`] returns the same `Vec` at any count, so racing this against
/// concurrent calls changes wall clock only, never output.
pub fn set_workers(n: usize) {
    WORKERS.store(n.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// Maps `f` over `items`, fanning contiguous chunks out across up to
/// [`workers`]`()` scoped threads, and returns the results **in
/// submission order** — bit-for-bit identical to a serial
/// `items.iter().map(f).collect()`.
///
/// Runs serially (no threads spawned) when the pool is sized 1, when
/// `items.len() < min_parallel`, or when called from inside another
/// `map` job (nested parallelism would oversubscribe without adding
/// determinism risk — results are order-merged either way).
///
/// `min_parallel` is the caller's amortisation threshold: thread spawn
/// costs ~tens of microseconds, so batches whose total work is smaller
/// than `workers * spawn_cost` should stay serial.
pub fn map<T, R, F>(items: &[T], min_parallel: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let w = workers().min(items.len());
    if w <= 1 || items.len() < min_parallel || IN_WORKER.with(|c| c.get()) {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(w);
    let mut per_chunk: Vec<Vec<R>> = Vec::with_capacity(w);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    c.iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            // Re-raise worker panics on the caller thread so `should_panic`
            // tests and assertion failures behave as in the serial path.
            match h.join() {
                Ok(v) => per_chunk.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for v in per_chunk {
        out.extend(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let saved = workers();
        set_workers(n);
        let r = f();
        set_workers(saved);
        r
    }

    #[test]
    fn map_matches_serial_at_every_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for w in [1, 2, 3, 4, 8] {
            let got = with_workers(w, || map(&items, 0, |x| x.wrapping_mul(31) ^ 7));
            assert_eq!(got, expect, "workers={w}");
        }
    }

    #[test]
    fn map_preserves_submission_order_not_completion_order() {
        // Early items sleep longest: if results were merged by completion
        // order the output would be reversed.
        let items: Vec<u64> = (0..8).collect();
        let got = with_workers(4, || {
            map(&items, 0, |&x| {
                std::thread::sleep(std::time::Duration::from_millis(8 - x));
                x
            })
        });
        assert_eq!(got, items);
    }

    #[test]
    fn min_parallel_below_threshold_stays_serial_and_identical() {
        let items: Vec<u32> = (0..10).collect();
        let got = with_workers(8, || map(&items, 64, |x| x + 1));
        assert_eq!(got, (1..=10).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_and_single_item_batches() {
        let empty: Vec<u8> = vec![];
        assert!(with_workers(4, || map(&empty, 0, |x| *x)).is_empty());
        assert_eq!(with_workers(4, || map(&[9u8], 0, |x| *x)), vec![9]);
    }

    #[test]
    fn nested_map_degrades_to_serial() {
        let outer: Vec<u32> = (0..4).collect();
        let got = with_workers(4, || {
            map(&outer, 0, |&i| {
                let inner: Vec<u32> = (0..4).map(|j| i * 4 + j).collect();
                // Inner call must not spawn w^2 threads; it still must
                // return submission-order results.
                map(&inner, 0, |x| x * 2)
            })
        });
        let expect: Vec<Vec<u32>> = (0..4)
            .map(|i| (0..4).map(|j| (i * 4 + j) * 2).collect())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<u32> = (0..100).collect();
        let res = std::panic::catch_unwind(|| {
            with_workers(4, || {
                map(&items, 0, |&x| {
                    assert!(x != 57, "boom");
                    x
                })
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn set_workers_clamps() {
        with_workers(1, || {
            set_workers(0);
            assert_eq!(workers(), 1);
            set_workers(10_000);
            assert_eq!(workers(), MAX_WORKERS);
        });
    }
}
