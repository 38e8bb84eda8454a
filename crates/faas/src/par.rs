//! Deterministic worker-pool parallelism for pure-compute job batches.
//!
//! Some of DRAMS's hot work is embarrassingly parallel: Schnorr
//! `batch_verify` chunks, transaction-id and Merkle level hashing in
//! block verification, and the Analyser's per-group DecisionVerifier
//! re-evaluation and per-block audit are all pure functions of their
//! inputs. The DES event loop and every service handler, however, are
//! single-threaded by design — byte-identical replay is the invariant
//! every oracle in this repo is built on.
//!
//! This module squares the two: [`map`] fans a slice of jobs out across
//! OS threads (`std::thread::scope`, zero dependencies) as contiguous
//! chunks, one chunk per worker, and concatenates the per-chunk results
//! **in chunk order** — which is submission order. The caller observes a
//! `Vec<R>` that is bit-for-bit identical to `items.iter().map(f)`, no
//! matter how many workers ran. `DRAMS_WORKERS=1` therefore produces the
//! same bytes as `DRAMS_WORKERS=8`, and every parallel call site (the
//! four lanes of DESIGN.md §4) stays inside the deterministic-replay
//! contract (DESIGN.md invariant 8).
//!
//! Worker count resolution, in priority order:
//! 1. [`set_workers`] — in-process override used by experiment sweeps and
//!    the worker-count determinism oracles;
//! 2. the `DRAMS_WORKERS` environment variable;
//! 3. `std::thread::available_parallelism()`, capped at 8.
//!
//! Jobs must be pure: they run off the event loop thread, so touching
//! shared mutable state (beyond internally synchronised counters such as
//! the PDP cache atomics) would reintroduce scheduling nondeterminism.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the worker count, however configured.
pub const MAX_WORKERS: usize = 64;

/// Sentinel meaning "not resolved yet" in [`WORKERS`].
const UNSET: usize = 0;

/// Resolved worker count; 0 until first use.
static WORKERS: AtomicUsize = AtomicUsize::new(UNSET);

// Marks threads that are themselves pool workers so nested `map` calls
// degrade to serial instead of multiplying threads.
thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn clamp(n: usize) -> usize {
    n.clamp(1, MAX_WORKERS)
}

fn resolve_default() -> usize {
    if let Ok(v) = std::env::var("DRAMS_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return clamp(n);
        }
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Leave headroom past 8 on big hosts only via DRAMS_WORKERS; the hot
    // paths here stop scaling long before that.
    clamp(hw.min(8))
}

/// Current worker count (resolving `DRAMS_WORKERS` / host parallelism on
/// first use). Always >= 1; 1 means every [`map`] call runs serially on
/// the caller's thread.
pub fn workers() -> usize {
    let w = WORKERS.load(Ordering::Relaxed);
    if w != UNSET {
        return w;
    }
    let resolved = resolve_default();
    // Racing first calls resolve to the same value, so the winner of the
    // store does not matter.
    WORKERS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the worker count process-wide (clamped to `1..=MAX_WORKERS`).
///
/// Used by experiment sweeps (E15 runs the same workload at 1/2/4/8) and
/// the determinism oracles. Because every parallel call site is
/// byte-identical at any worker count, racing this against concurrent
/// work changes wall clock only, never output.
pub fn set_workers(n: usize) {
    WORKERS.store(clamp(n), Ordering::Relaxed);
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
/// than `workers * spawn_cost` should stay serial. Each call site picks
/// its own floor (documented in DESIGN.md's job-lane taxonomy).
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

/// Splits `0..len` into the same contiguous chunk ranges [`map`] uses,
/// for callers that need to know chunk boundaries (e.g. mapping a
/// per-chunk error index back to a global submission index).
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let w = workers.clamp(1, MAX_WORKERS).min(len.max(1));
    let chunk = len.div_ceil(w).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
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
    fn chunk_ranges_cover_exactly_and_match_map_chunks() {
        for len in [0usize, 1, 7, 64, 1000] {
            for w in [1usize, 2, 4, 8] {
                let ranges = chunk_ranges(len, w);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= w.max(1));
            }
        }
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
