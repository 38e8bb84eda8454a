//! The workload source: Poisson arrivals, phase by phase, and the drain
//! deadline that winds a run down.

use super::ctx::Ctx;
use super::msg::Msg;
use super::pep::RETRY_BUDGET;
use super::spec::{LoadProfile, Phase};
use drams_faas::des::{Outbox, SimService, SimTime, SECONDS};
use drams_faas::workload::{PoissonArrivals, RequestGenerator, Zipf};
use rand::Rng;

/// Issues the Poisson workload, phase by phase, and declares the drain
/// deadline when the request budget is exhausted.
pub(super) struct WorkloadSource {
    pub(super) total_requests: u64,
    pub(super) base_rate: f64,
    pub(super) phases: Vec<Phase>,
    /// The (clamped) overload model: diurnal/spike rate multipliers.
    pub(super) load: LoadProfile,
    /// Zipf tenant-rank sampler over the virtual population; `None`
    /// keeps the pre-profile uniform pick on the workload stream.
    pub(super) zipf: Option<Zipf>,
    pub(super) generator: RequestGenerator,
    /// Latest scripted `TenantJoin` time, if any: while one is still
    /// ahead, an empty tenant set may refill and the source keeps
    /// idling; with none ahead it declares the drain instead of
    /// grinding to the horizon.
    pub(super) last_join_at: Option<SimTime>,
    // drain-deadline margin inputs
    pub(super) group_timeout: SimTime,
    pub(super) block_interval: SimTime,
    pub(super) analyser_poll_interval: SimTime,
    /// Earliest time the drain deadline may anchor at when a fault plan
    /// is declared: the run must outlive the last disruption window's
    /// settle-and-restore so widened sweeps still run (and real attacks
    /// mounted under faults still surface). Zero without a plan.
    pub(super) fault_floor: SimTime,
}

impl WorkloadSource {
    fn rate_at(&self, now: SimTime) -> f64 {
        let base = self
            .phases
            .iter()
            .rev()
            .find(|p| p.start <= now)
            .map_or(self.base_rate, |p| p.rate_per_sec);
        self.load.effective_rate(base, now)
    }

    fn drain_margin(&self) -> SimTime {
        // The retry budget comes first: the last-issued request may
        // spend all of it before abandoning, and the sweep that turns
        // the abandonment into `MissingLog` alerts runs after that.
        RETRY_BUDGET
            + self.group_timeout
            + 6 * self.block_interval
            + 4 * self.analyser_poll_interval
            + SECONDS
    }
}

impl<'a> SimService<Msg, Ctx<'a>> for WorkloadSource {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        debug_assert!(matches!(msg, Msg::Arrival));
        if ctx.report.requests_issued >= self.total_requests {
            return; // workload exhausted; nothing to reschedule
        }
        if ctx.active_tenants.is_empty() {
            if self.last_join_at.is_some_and(|t| t >= now) {
                // All tenants departed but a scripted join is still
                // ahead: idle on a slow self-tick until it lands (the
                // controller cannot reschedule us).
                out.emit(SECONDS, Msg::Arrival);
            } else {
                // Nobody left and nobody coming: wind the run down
                // instead of grinding empty ticks to the horizon.
                out.set_deadline(now.max(self.fault_floor) + self.drain_margin());
            }
            return;
        }
        ctx.report.requests_issued += 1;
        let pick = match &self.zipf {
            // Population model: a Zipf-ranked virtual tenant, folded
            // onto the deployed active set. Drawn from its own stream so
            // profile-less runs never see the difference.
            Some(zipf) => zipf.sample(&mut ctx.rngs.population) % ctx.active_tenants.len(),
            None => ctx.rngs.workload.gen_range(0..ctx.active_tenants.len()),
        };
        let tenant = ctx.active_tenants[pick];
        let services = &ctx.tenants[tenant].spec.services;
        let service = services[ctx.rngs.workload.gen_range(0..services.len().max(1))].clone();
        let request = self.generator.next_request();
        out.emit(
            0,
            Msg::Intercept {
                tenant,
                service,
                request,
            },
        );
        if ctx.report.requests_issued < self.total_requests {
            let arrivals = PoissonArrivals::with_rate_per_sec(self.rate_at(now));
            out.emit(arrivals.next_gap(&mut ctx.rngs.workload), Msg::Arrival);
        } else {
            out.set_deadline(now.max(self.fault_floor) + self.drain_margin());
        }
    }
}
