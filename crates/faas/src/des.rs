//! A small deterministic discrete-event simulation engine.
//!
//! Virtual time is measured in microseconds. Events are totally ordered by
//! `(time, insertion sequence)`, so runs are reproducible given a seed —
//! every latency/throughput number in the DRAMS experiments comes out of
//! this engine and is exactly repeatable.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in microseconds.
pub type SimTime = u64;

/// One microsecond.
pub const MICRO: SimTime = 1;
/// One millisecond in [`SimTime`] units.
pub const MILLIS: SimTime = 1_000;
/// One second in [`SimTime`] units.
pub const SECONDS: SimTime = 1_000_000;

/// A deterministic event queue over an application-defined event type.
///
/// # Example
///
/// ```
/// use drams_faas::des::{EventQueue, MILLIS};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut q = EventQueue::new();
/// q.schedule(2 * MILLIS, Ev::Pong);
/// q.schedule(1 * MILLIS, Ev::Ping);
/// assert_eq!(q.pop().unwrap().1, Ev::Ping);
/// assert_eq!(q.now(), MILLIS);
/// assert_eq!(q.pop().unwrap().1, Ev::Pong);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    slots: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Schedules `event` at an absolute virtual time (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(event);
                i
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the next event, advancing virtual time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        self.now = at;
        let event = self.slots[slot].take().expect("slot filled when scheduled");
        self.free.push(slot);
        Some((at, event))
    }

    /// Pops the next event only if it fires at or before `horizon`.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Number of buckets in the delivery-attempt histogram: bucket `i`
/// counts messages that needed `i + 1` delivery attempts; the last
/// bucket aggregates everything at or beyond `ATTEMPT_BUCKETS`.
pub const ATTEMPT_BUCKETS: usize = 8;

/// Immutable summary of a latency series, for services and reports that
/// log several percentiles without needing `&mut` access.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsReport {
    /// Number of samples.
    pub count: usize,
    /// Mean in [`SimTime`] units.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: SimTime,
    /// 95th percentile.
    pub p95: SimTime,
    /// 99th percentile.
    pub p99: SimTime,
    /// Largest sample.
    pub max: SimTime,
    /// Total retries (delivery attempts beyond the first) across all
    /// messages whose attempt counts were recorded.
    pub retries: u64,
    /// Delivery-attempt histogram; see [`ATTEMPT_BUCKETS`].
    pub attempts: [u64; ATTEMPT_BUCKETS],
}

/// Online mean/percentile accumulator for latency series.
///
/// Stores all samples (experiments are bounded), so percentiles are exact.
/// Percentile queries take `&self`: the sort happens lazily at most once
/// per batch of recordings, behind a cached `sorted` flag.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: RefCell<Vec<SimTime>>,
    sorted: Cell<bool>,
    retries: u64,
    attempts: [u64; ATTEMPT_BUCKETS],
}

impl LatencyStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimTime) {
        self.samples.get_mut().push(sample);
        self.sorted.set(false);
    }

    /// Records how many delivery attempts one message needed (1 = no
    /// retry). Feeds the retry total and attempt histogram in
    /// [`StatsReport`], alongside — but independent of — the latency
    /// samples.
    pub fn record_attempts(&mut self, attempts: u32) {
        let attempts = attempts.max(1);
        self.retries += u64::from(attempts - 1);
        self.attempts[(attempts as usize - 1).min(ATTEMPT_BUCKETS - 1)] += 1;
    }

    /// Total retries recorded via [`record_attempts`](Self::record_attempts).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// True when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    /// Mean in [`SimTime`] units (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }

    fn ensure_sorted(&self) {
        if !self.sorted.get() {
            self.samples.borrow_mut().sort_unstable();
            self.sorted.set(true);
        }
    }

    /// Exact percentile (`p` in 0..=100); 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> SimTime {
        self.ensure_sorted();
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0;
        }
        // Nearest-rank percentile: the smallest value with at least p% of
        // samples at or below it.
        let n = samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        samples[rank.saturating_sub(1).min(n - 1)]
    }

    /// Maximum sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> SimTime {
        self.samples.borrow().iter().copied().max().unwrap_or(0)
    }

    /// Immutable snapshot of the whole series (one sort, all quantiles).
    #[must_use]
    pub fn report(&self) -> StatsReport {
        StatsReport {
            count: self.len(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: self.max(),
            retries: self.retries,
            attempts: self.attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        q.schedule(10, "b");
        q.schedule(10, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop().unwrap(), (10, 1));
        assert_eq!(q.pop().unwrap(), (20, 2));
        assert_eq!(q.pop().unwrap(), (30, 3));
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        // schedule is relative to the new now
        q.schedule(5, ());
        assert_eq!(q.pop().unwrap().0, 10);
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(100, "later");
        assert!(q.pop_before(50).is_none());
        assert_eq!(q.pop_before(100).unwrap().1, "later");
    }

    #[test]
    fn schedule_at_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10, "first");
        q.pop();
        q.schedule_at(3, "past"); // in the past: clamped to now = 10
        assert_eq!(q.pop().unwrap().0, 10);
    }

    #[test]
    fn slot_reuse_does_not_corrupt() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(i, i);
        }
        for _ in 0..50 {
            q.pop();
        }
        for i in 100..200 {
            q.schedule_at(i, i);
        }
        let mut last = 0;
        while let Some((t, v)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(t, v);
        }
    }

    #[test]
    fn latency_stats_percentiles() {
        let mut s = LatencyStats::new();
        for v in 1..=100u64 {
            s.record(v);
        }
        assert_eq!(s.len(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.max(), 100);
    }

    #[test]
    fn latency_stats_empty_is_zeroes() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0);
        assert_eq!(s.max(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn percentile_is_immutable_and_record_resorts() {
        let mut s = LatencyStats::new();
        for v in [30u64, 10, 20] {
            s.record(v);
        }
        // Multiple percentile queries through a shared reference.
        let shared: &LatencyStats = &s;
        assert_eq!(shared.percentile(50.0), 20);
        assert_eq!(shared.percentile(100.0), 30);
        // Recording after a sorted query invalidates the cache.
        s.record(5);
        assert_eq!(s.percentile(0.0), 5);
    }

    #[test]
    fn report_snapshot_matches_point_queries() {
        let mut s = LatencyStats::new();
        for v in 1..=200u64 {
            s.record(v);
        }
        let r = s.report();
        assert_eq!(r.count, 200);
        assert_eq!(r.p50, s.percentile(50.0));
        assert_eq!(r.p95, s.percentile(95.0));
        assert_eq!(r.p99, s.percentile(99.0));
        assert_eq!(r.max, 200);
        assert!((r.mean - s.mean()).abs() < 1e-9);
    }

    #[test]
    fn record_attempts_builds_retry_totals_and_histogram() {
        let mut s = LatencyStats::new();
        s.record_attempts(1); // no retry
        s.record_attempts(1);
        s.record_attempts(3); // two retries
        s.record_attempts(20); // clamps into the last bucket
        assert_eq!(s.retries(), 2 + 19);
        let r = s.report();
        assert_eq!(r.retries, 21);
        assert_eq!(r.attempts[0], 2);
        assert_eq!(r.attempts[2], 1);
        assert_eq!(r.attempts[ATTEMPT_BUCKETS - 1], 1);
        // Attempt counts are independent of latency samples.
        assert_eq!(r.count, 0);
    }
}
