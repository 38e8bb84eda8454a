//! A small deterministic discrete-event simulation engine.
//!
//! Virtual time is measured in microseconds. Events are totally ordered by
//! `(time, insertion sequence)`, so runs are reproducible given a seed —
//! every latency/throughput number in the DRAMS experiments comes out of
//! this engine and is exactly repeatable.
//!
//! Besides the raw [`EventQueue`], the module offers an actor-style layer:
//! a [`SimService`] handles one typed event at a time and emits follow-up
//! events through an [`Outbox`]; a [`ServiceRuntime`] owns the services
//! and routes every popped event to exactly one of them. Services share no
//! state except an application-defined context, so a simulation is the sum
//! of its services plus the typed events on the wire between them.

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

/// Follow-up events emitted by a [`SimService`] while handling one event,
/// plus the service's view of the run's soft deadline.
///
/// The deadline models drain phases: once a source of load decides the run
/// should wind down, it sets the deadline and periodic services stop
/// rescheduling their ticks past it.
#[derive(Debug)]
pub struct Outbox<M> {
    emitted: Vec<(SimTime, M)>,
    deadline: Option<SimTime>,
}

impl<M> Outbox<M> {
    fn new(deadline: Option<SimTime>) -> Self {
        Outbox {
            emitted: Vec::new(),
            deadline,
        }
    }

    /// Emits `msg` to fire `delay` after the event being handled.
    ///
    /// Emissions keep their order: two messages emitted with equal target
    /// times are delivered in emission order (the queue's FIFO tie-break).
    pub fn emit(&mut self, delay: SimTime, msg: M) {
        self.emitted.push((delay, msg));
    }

    /// The run's current soft deadline, if one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// Sets the run's soft deadline (e.g. when the workload is exhausted
    /// and the run should drain). An earlier existing deadline wins.
    pub fn set_deadline(&mut self, at: SimTime) {
        self.deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
    }

    /// Whether a periodic service should reschedule its tick: true until
    /// the deadline (if any) has passed.
    #[must_use]
    pub fn within_deadline(&self, now: SimTime) -> bool {
        self.deadline.is_none_or(|d| now <= d)
    }
}

/// An actor in a [`ServiceRuntime`]: handles one typed event at a time
/// and communicates with other services only by emitting further events.
///
/// `C` is the shared simulation context (measurement sinks, substrate
/// resources); everything *between* services travels as an `M`.
pub trait SimService<M, C> {
    /// Handles one event addressed to this service.
    fn handle(&mut self, now: SimTime, msg: M, ctx: &mut C, out: &mut Outbox<M>);
}

/// A network shim interposed between a dispatch's emissions and the
/// event queue. It is called once per handled event with the shared
/// context, the current virtual time, the dispatch's whole outbox —
/// `(delay, msg)` pairs in emission order — and a sink. For each
/// emission it pushes zero or more `(delay, msg)` deliveries into the
/// sink (zero = dropped, two = duplicated, altered delays = network
/// delay/reorder), and the runtime schedules the sink in order. Seeing
/// the whole outbox at once is what lets a wire transport carry a
/// dispatch's frames as one batch. The fault plane plugs in here — see
/// [`crate::fault`].
pub type NetShim<M, C> = Box<dyn FnMut(&mut C, SimTime, Vec<(SimTime, M)>, &mut Vec<(SimTime, M)>)>;

/// Owns a set of [`SimService`]s and a routing function, and drives them
/// from one deterministic [`EventQueue`].
///
/// Every message type maps to exactly one service (the router returns the
/// service's registration index), so the event taxonomy *is* the service
/// graph: an edge exists where one service emits a message routed to
/// another.
pub struct ServiceRuntime<M, C> {
    queue: EventQueue<M>,
    services: Vec<Box<dyn SimService<M, C>>>,
    router: fn(&M) -> usize,
    deadline: Option<SimTime>,
    net_shim: Option<NetShim<M, C>>,
    shim_buf: Vec<(SimTime, M)>,
}

impl<M, C> std::fmt::Debug for ServiceRuntime<M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRuntime")
            .field("services", &self.services.len())
            .field("pending", &self.queue.len())
            .field("deadline", &self.deadline)
            .field("net_shim", &self.net_shim.is_some())
            .finish()
    }
}

impl<M, C> ServiceRuntime<M, C> {
    /// Creates an empty runtime with the given message router.
    #[must_use]
    pub fn new(router: fn(&M) -> usize) -> Self {
        ServiceRuntime {
            queue: EventQueue::new(),
            services: Vec::new(),
            router,
            deadline: None,
            net_shim: None,
            shim_buf: Vec::new(),
        }
    }

    /// Installs a [`NetShim`] through which every *service-emitted*
    /// message passes before being scheduled. Initial events injected via
    /// [`schedule`](Self::schedule)/[`schedule_at`](Self::schedule_at)
    /// bypass the shim (they model local bootstrap, not network traffic).
    pub fn set_net_shim(&mut self, shim: NetShim<M, C>) {
        self.net_shim = Some(shim);
    }

    /// Registers a service, returning the index the router must use to
    /// address it.
    pub fn register(&mut self, service: Box<dyn SimService<M, C>>) -> usize {
        self.services.push(service);
        self.services.len() - 1
    }

    /// Schedules an initial event `delay` after the current virtual time.
    pub fn schedule(&mut self, delay: SimTime, msg: M) {
        self.queue.schedule(delay, msg);
    }

    /// Schedules an initial event at an absolute virtual time.
    pub fn schedule_at(&mut self, at: SimTime, msg: M) {
        self.queue.schedule_at(at, msg);
    }

    /// Runs until the queue drains, `horizon` passes, or a service-set
    /// deadline passes. Returns the virtual time of the last handled
    /// event.
    ///
    /// # Panics
    ///
    /// Panics when the router returns an index with no registered service
    /// — a routing-table bug, not a recoverable condition.
    pub fn run(&mut self, ctx: &mut C, horizon: SimTime) -> SimTime {
        let mut finished_at = 0;
        while let Some((now, msg)) = self.queue.pop() {
            if now > horizon || self.deadline.is_some_and(|d| now > d) {
                break;
            }
            let target = (self.router)(&msg);
            assert!(
                target < self.services.len(),
                "router addressed service {target} but only {} are registered",
                self.services.len()
            );
            self.dispatch(target, now, msg, ctx);
            finished_at = now;
        }
        finished_at
    }

    /// Handles one routed event: outbox, handler, net shim, scheduling.
    fn dispatch(&mut self, target: usize, now: SimTime, msg: M, ctx: &mut C) {
        let mut out = Outbox::new(self.deadline);
        self.services[target].handle(now, msg, ctx, &mut out);
        self.deadline = out.deadline;
        match self.net_shim.as_mut() {
            Some(shim) => {
                shim(ctx, now, out.emitted, &mut self.shim_buf);
                for (delay, msg) in self.shim_buf.drain(..) {
                    self.queue.schedule(delay, msg);
                }
            }
            None => {
                for (delay, msg) in out.emitted {
                    self.queue.schedule(delay, msg);
                }
            }
        }
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

    /// The delivery-attempt histogram; see [`ATTEMPT_BUCKETS`].
    #[must_use]
    pub fn attempts_histogram(&self) -> [u64; ATTEMPT_BUCKETS] {
        self.attempts
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

    // --- service runtime -------------------------------------------------

    /// Two-service ping/pong over the runtime: each message carries the
    /// sender's log so the test can assert exact interleaving.
    #[derive(Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        log: Vec<(SimTime, u32)>,
    }

    impl SimService<Msg, Vec<String>> for Pinger {
        fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Vec<String>, out: &mut Outbox<Msg>) {
            if let Msg::Pong(n) = msg {
                self.log.push((now, n));
                ctx.push(format!("pong {n} at {now}"));
                if n < 3 {
                    out.emit(10, Msg::Ping(n + 1));
                }
            }
        }
    }

    struct Ponger;

    impl SimService<Msg, Vec<String>> for Ponger {
        fn handle(
            &mut self,
            _now: SimTime,
            msg: Msg,
            ctx: &mut Vec<String>,
            out: &mut Outbox<Msg>,
        ) {
            if let Msg::Ping(n) = msg {
                ctx.push(format!("ping {n}"));
                out.emit(5, Msg::Pong(n));
            }
        }
    }

    fn route(msg: &Msg) -> usize {
        match msg {
            Msg::Pong(_) => 0,
            Msg::Ping(_) => 1,
        }
    }

    #[test]
    fn services_exchange_typed_events() {
        let mut rt: ServiceRuntime<Msg, Vec<String>> = ServiceRuntime::new(route);
        let pinger = rt.register(Box::new(Pinger { log: Vec::new() }));
        assert_eq!(pinger, 0);
        rt.register(Box::new(Ponger));
        rt.schedule(0, Msg::Ping(1));
        let mut ctx = Vec::new();
        let finished = rt.run(&mut ctx, 1_000);
        assert_eq!(
            ctx,
            [
                "ping 1",
                "pong 1 at 5",
                "ping 2",
                "pong 2 at 20",
                "ping 3",
                "pong 3 at 35"
            ]
        );
        assert_eq!(finished, 35);
    }

    #[test]
    fn equal_timestamp_events_dispatch_in_emission_order() {
        // One service fans out three zero-delay events to another; the
        // receiver must see them in emission order — the FIFO tie-break
        // holds across services, not just within one queue user.
        struct Fan;
        struct Sink;
        impl SimService<Msg, Vec<String>> for Fan {
            fn handle(
                &mut self,
                _n: SimTime,
                _m: Msg,
                _c: &mut Vec<String>,
                out: &mut Outbox<Msg>,
            ) {
                out.emit(0, Msg::Ping(1));
                out.emit(0, Msg::Ping(2));
                out.emit(0, Msg::Ping(3));
            }
        }
        impl SimService<Msg, Vec<String>> for Sink {
            fn handle(
                &mut self,
                now: SimTime,
                m: Msg,
                ctx: &mut Vec<String>,
                _o: &mut Outbox<Msg>,
            ) {
                if let Msg::Ping(n) = m {
                    ctx.push(format!("{n}@{now}"));
                }
            }
        }
        let mut rt: ServiceRuntime<Msg, Vec<String>> = ServiceRuntime::new(route);
        rt.register(Box::new(Fan)); // index 0: receives Pong
        rt.register(Box::new(Sink)); // index 1: receives Ping
        rt.schedule(7, Msg::Pong(0));
        let mut ctx = Vec::new();
        rt.run(&mut ctx, 1_000);
        assert_eq!(ctx, ["1@7", "2@7", "3@7"]);
    }

    #[test]
    fn deadline_stops_the_run_and_earlier_deadline_wins() {
        struct Stopper;
        impl SimService<Msg, Vec<String>> for Stopper {
            fn handle(
                &mut self,
                now: SimTime,
                m: Msg,
                ctx: &mut Vec<String>,
                out: &mut Outbox<Msg>,
            ) {
                if let Msg::Ping(n) = m {
                    ctx.push(format!("{n}"));
                    if n == 1 {
                        out.set_deadline(now + 20);
                        out.set_deadline(now + 50); // later: must not extend
                        assert_eq!(out.deadline(), Some(now + 20));
                    }
                    if out.within_deadline(now) {
                        out.emit(15, Msg::Ping(n + 1));
                    }
                }
            }
        }
        let mut rt: ServiceRuntime<Msg, Vec<String>> = ServiceRuntime::new(|_| 0);
        rt.register(Box::new(Stopper));
        rt.schedule(0, Msg::Ping(1));
        let mut ctx = Vec::new();
        // Pings at 0, 15, 30… — deadline 20 admits the ping at 15, then
        // the one at 30 pops past the deadline and the run stops.
        rt.run(&mut ctx, 1_000);
        assert_eq!(ctx, ["1", "2"]);
    }

    #[test]
    fn record_attempts_builds_retry_totals_and_histogram() {
        let mut s = LatencyStats::new();
        s.record_attempts(1); // no retry
        s.record_attempts(1);
        s.record_attempts(3); // two retries
        s.record_attempts(20); // clamps into the last bucket
        assert_eq!(s.retries(), 2 + 19);
        let hist = s.attempts_histogram();
        assert_eq!(hist[0], 2);
        assert_eq!(hist[2], 1);
        assert_eq!(hist[ATTEMPT_BUCKETS - 1], 1);
        let r = s.report();
        assert_eq!(r.retries, 21);
        assert_eq!(r.attempts, hist);
        // Attempt counts are independent of latency samples.
        assert_eq!(r.count, 0);
    }

    #[test]
    fn net_shim_can_drop_duplicate_and_delay_emissions() {
        // Pinger emits Ping(n); the shim drops Ping(2), duplicates
        // Ping(1) and delays Ping(3) by 100. Initial schedule() calls
        // bypass the shim entirely.
        struct Echo;
        impl SimService<Msg, Vec<String>> for Echo {
            fn handle(
                &mut self,
                now: SimTime,
                m: Msg,
                ctx: &mut Vec<String>,
                out: &mut Outbox<Msg>,
            ) {
                match m {
                    Msg::Pong(n) => out.emit(10, Msg::Ping(n)),
                    Msg::Ping(n) => ctx.push(format!("{n}@{now}")),
                }
            }
        }
        let mut rt: ServiceRuntime<Msg, Vec<String>> = ServiceRuntime::new(|_| 0);
        rt.register(Box::new(Echo));
        rt.set_net_shim(Box::new(|_ctx, _now, outbox, sink| {
            for (delay, msg) in outbox {
                match msg {
                    Msg::Ping(1) => {
                        sink.push((delay, Msg::Ping(1)));
                        sink.push((delay, Msg::Ping(1)));
                    }
                    Msg::Ping(2) => {}
                    Msg::Ping(3) => sink.push((delay + 100, Msg::Ping(3))),
                    other => sink.push((delay, other)),
                }
            }
        }));
        // A Ping injected directly must NOT pass through the shim.
        rt.schedule(0, Msg::Ping(2));
        rt.schedule(0, Msg::Pong(1));
        rt.schedule(0, Msg::Pong(2));
        rt.schedule(0, Msg::Pong(3));
        let mut ctx = Vec::new();
        rt.run(&mut ctx, 1_000);
        assert_eq!(ctx, ["2@0", "1@10", "1@10", "3@110"]);
    }

    #[test]
    fn net_shim_sees_each_dispatch_outbox_once_in_emission_order() {
        // Fan answers Pong(n) with three Pings at falling delays. The
        // shim is called once per handled event — with an empty outbox
        // when the handler emitted nothing — and sees the emissions in
        // emission order, not delivery order.
        struct Fan;
        impl SimService<Msg, Vec<String>> for Fan {
            fn handle(
                &mut self,
                now: SimTime,
                m: Msg,
                ctx: &mut Vec<String>,
                out: &mut Outbox<Msg>,
            ) {
                match m {
                    Msg::Pong(n) => {
                        for k in 1..=3 {
                            out.emit(40 - 10 * SimTime::from(k), Msg::Ping(10 * n + k));
                        }
                    }
                    Msg::Ping(n) => ctx.push(format!("{n}@{now}")),
                }
            }
        }
        let mut rt: ServiceRuntime<Msg, Vec<String>> = ServiceRuntime::new(|_| 0);
        rt.register(Box::new(Fan));
        rt.set_net_shim(Box::new(|ctx, now, outbox, sink| {
            let seen: Vec<String> = outbox.iter().map(|(d, m)| format!("{m:?}+{d}")).collect();
            ctx.push(format!("shim@{now}: [{}]", seen.join(", ")));
            sink.extend(outbox);
        }));
        rt.schedule(0, Msg::Pong(1));
        rt.schedule(5, Msg::Pong(2));
        let mut ctx = Vec::new();
        rt.run(&mut ctx, 1_000);
        assert_eq!(
            ctx,
            [
                "shim@0: [Ping(11)+30, Ping(12)+20, Ping(13)+10]",
                "shim@5: [Ping(21)+30, Ping(22)+20, Ping(23)+10]",
                "13@10",
                "shim@10: []",
                "23@15",
                "shim@15: []",
                "12@20",
                "shim@20: []",
                "22@25",
                "shim@25: []",
                "11@30",
                "shim@30: []",
                "21@35",
                "shim@35: []",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "router addressed service")]
    fn routing_to_unregistered_service_panics() {
        let mut rt: ServiceRuntime<Msg, Vec<String>> = ServiceRuntime::new(|_| 5);
        rt.register(Box::new(Ponger));
        rt.schedule(0, Msg::Ping(1));
        rt.run(&mut Vec::new(), 100);
    }
}
