//! The typed events between services, and the one loop that delivers
//! each to the service that owns it.

use super::analyser::AnalyserService;
use super::chain::ChainService;
use super::controller::Controller;
use super::ctx::Ctx;
use super::li::LiService;
use super::pdp::PdpService;
use super::pep::PepService;
use super::wire::net_shim;
use super::workload::WorkloadSource;
use crate::logent::{LogEntry, ProbeId};
use drams_faas::des::{EventQueue, SimTime};
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_faas::prp::PolicyVersion;
use drams_faas::transport::WireRole;
use drams_policy::attr::Request;
use drams_policy::policy::PolicySet;

/// Policy-administration actions routed to the PDP service (which owns
/// the PRP).
#[derive(Debug, Clone)]
pub(super) enum PolicyAdmin {
    Publish(PolicySet),
    Rollback(u64),
}

/// The typed events on the wire between services. `Clone` is what a
/// fault-plane duplicate delivery is made of.
#[derive(Debug, Clone)]
pub(super) enum Msg {
    // → workload source
    Arrival,
    // → PEP service
    Intercept {
        tenant: usize,
        service: String,
        request: Request,
    },
    /// A decision coming back from PDP slot `slot` (the sender matters
    /// to the fault plane's link matching and the breaker bookkeeping).
    PepReceive {
        slot: usize,
        env: ResponseEnvelope,
    },
    /// Retransmission timer for attempt `attempt` of an in-flight
    /// request; a no-op when the response already arrived.
    PepRetry {
        correlation: CorrelationId,
        attempt: u32,
    },
    ProvisionPep {
        tenant: usize,
    },
    // → PDP service
    PdpReceive {
        slot: usize,
        env: RequestEnvelope,
    },
    PolicyAdmin(PolicyAdmin),
    SilencePdp {
        slot: usize,
        until: SimTime,
    },
    // → LI service
    LiDeliver {
        li: usize,
        entry: LogEntry,
    },
    LiFlushTick {
        li: usize,
    },
    StallLi {
        li: usize,
        until: SimTime,
    },
    ProvisionLi {
        li: usize,
    },
    // → chain service
    MineTick,
    /// Degraded-mode retune: point the epoch sweep at a new group
    /// timeout (widened across a disruption window, restored after it).
    SetTimeout {
        timeout: SimTime,
    },
    // → analyser service
    AnalyserTick,
    /// The PRP's newly active version, shared (two reference counts), so
    /// the Analyser authorises it without copying or recompiling it.
    AnalyserPolicy(PolicyVersion),
    ProvisionProbeKey {
        probe: ProbeId,
    },
    /// → the service that owns `role`: its process dies and restarts
    /// from the durable state it owns.
    Crash(WireRole),
    // → scenario controller
    Script(usize),
    ActivateTenant {
        tenant: usize,
    },
}

/// Follow-up events emitted while handling one event, plus the run's
/// soft deadline.
///
/// The deadline models drain phases: once the workload decides the run
/// should wind down, it sets the deadline and periodic services stop
/// rescheduling their ticks past it.
#[derive(Default)]
pub(super) struct Outbox {
    emitted: Vec<(SimTime, Msg)>,
    deadline: Option<SimTime>,
}

impl Outbox {
    /// Emits `msg` to fire `delay` after the event being handled. Two
    /// emissions with equal target times pop in emission order (the
    /// queue's FIFO tie-break).
    pub(super) fn emit(&mut self, delay: SimTime, msg: Msg) {
        self.emitted.push((delay, msg));
    }

    /// Sets the run's soft deadline. An earlier existing deadline wins.
    pub(super) fn set_deadline(&mut self, at: SimTime) {
        self.deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
    }

    /// True until the deadline (if any) has passed: whether a periodic
    /// service reschedules its tick, and whether the run goes on.
    pub(super) fn within_deadline(&self, now: SimTime) -> bool {
        self.deadline.is_none_or(|d| now <= d)
    }

    /// Moves the emissions into `queue`, in emission order.
    fn flush(&mut self, queue: &mut EventQueue<Msg>) {
        for (delay, msg) in self.emitted.drain(..) {
            queue.schedule(delay, msg);
        }
    }
}

/// Figure 1's services and the event queue between them. The `match` in
/// [`dispatch`](Self::dispatch) is the service graph: an edge exists
/// where one service emits a message another one owns.
pub(super) struct Services {
    pub(super) workload: WorkloadSource,
    pub(super) pep: PepService,
    pub(super) pdp: PdpService,
    pub(super) li: LiService,
    pub(super) chain: ChainService,
    pub(super) analyser: AnalyserService,
    pub(super) controller: Controller,
    pub(super) queue: EventQueue<Msg>,
}

impl Services {
    /// Runs until the queue drains, `horizon` passes, or the drain
    /// deadline passes. Returns the virtual time of the last handled
    /// event. Every emission crosses [`net_shim`] on its way into the
    /// queue; events scheduled on `queue` before the run are bootstrap,
    /// not link traffic, and do not.
    pub(super) fn run(&mut self, ctx: &mut Ctx<'_>, horizon: SimTime) -> SimTime {
        let mut out = Outbox::default();
        let mut shim_buf = Vec::new();
        let mut finished_at = 0;
        while let Some((now, msg)) = self.queue.pop() {
            if now > horizon || !out.within_deadline(now) {
                break;
            }
            self.dispatch(now, msg, ctx, &mut out);
            net_shim(ctx, now, &mut out.emitted, &mut shim_buf);
            out.flush(&mut self.queue);
            finished_at = now;
        }
        finished_at
    }

    /// Hands one popped event to the service that owns it.
    fn dispatch(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_>, out: &mut Outbox) {
        match msg {
            Msg::Arrival => self.workload.handle(now, ctx, out),
            Msg::Intercept { .. }
            | Msg::PepReceive { .. }
            | Msg::PepRetry { .. }
            | Msg::ProvisionPep { .. } => self.pep.handle(now, msg, ctx, out),
            Msg::PdpReceive { .. } | Msg::PolicyAdmin(_) | Msg::SilencePdp { .. } => {
                self.pdp.handle(now, msg, ctx, out);
            }
            Msg::LiDeliver { .. }
            | Msg::LiFlushTick { .. }
            | Msg::StallLi { .. }
            | Msg::ProvisionLi { .. } => self.li.handle(now, msg, ctx, out),
            Msg::MineTick | Msg::SetTimeout { .. } => self.chain.handle(now, msg, ctx, out),
            Msg::AnalyserTick | Msg::AnalyserPolicy(_) | Msg::ProvisionProbeKey { .. } => {
                self.analyser.handle(now, msg, ctx, out);
            }
            Msg::Crash(role) => {
                // A wire backend tears down the role's endpoint; the next
                // frame to it connects to the restarted one.
                ctx.transport.restart(role).expect("transport restart");
                match role {
                    WireRole::Pdp { slot } => self.pdp.crash_restart(slot as usize),
                    WireRole::Li { index } => self.li.crash_restart(index as usize),
                    WireRole::Chain => self.chain.crash_restart(ctx),
                    WireRole::Analyser => self.analyser.analyser.crash_restart(),
                    WireRole::Pep => unreachable!("no scripted crash targets the PEPs"),
                }
                .expect("crash restart from durable state");
                ctx.report.crash_restarts += 1;
            }
            Msg::Script(_) | Msg::ActivateTenant { .. } => {
                self.controller.handle(now, msg, ctx, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_stops_the_run_and_earlier_deadline_wins() {
        // A tick every 15, handled the way a periodic service does and
        // popped the way `Services::run` does. The first tick sets the
        // deadline to 20, then tries 50: the earlier one wins, so the
        // tick at 15 is handled and the one at 30 pops past the deadline.
        let mut queue = EventQueue::new();
        queue.schedule(0, Msg::MineTick);
        let mut out = Outbox::default();
        let mut handled = Vec::new();
        while let Some((now, _)) = queue.pop() {
            if !out.within_deadline(now) {
                break;
            }
            if handled.is_empty() {
                out.set_deadline(now + 20);
                out.set_deadline(now + 50);
                assert_eq!(out.deadline, Some(20));
            }
            handled.push(now);
            if out.within_deadline(now) {
                out.emit(15, Msg::MineTick);
            }
            out.flush(&mut queue);
        }
        assert_eq!(handled, [0, 15]);
        // Past the deadline a tick no longer reschedules.
        assert!(!out.within_deadline(30));
    }

    #[test]
    fn equal_timestamp_events_dispatch_in_emission_order() {
        let mut queue = EventQueue::new();
        queue.schedule(7, Msg::MineTick);
        let (now, _) = queue.pop().expect("the tick");
        let mut out = Outbox::default();
        for li in 1..=3 {
            out.emit(0, Msg::LiFlushTick { li });
        }
        out.flush(&mut queue);
        let order: Vec<(SimTime, usize)> = std::iter::from_fn(|| queue.pop())
            .map(|(at, msg)| match msg {
                Msg::LiFlushTick { li } => (at, li),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, [(now, 1), (now, 2), (now, 3)]);
    }
}
