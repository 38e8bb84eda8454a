//! The tenant-edge PEPs with their probes: admission control, the
//! retry/backoff schedule and the per-slot circuit breaker.

use super::ctx::Ctx;
use super::msg::Msg;
use super::spec::probe_mac_key;
use crate::logent::{ObservationPoint, ProbeId};
use crate::probe::Probe;
use drams_crypto::aead::SymmetricKey;
use drams_faas::des::{Outbox, SimService, SimTime, MILLIS, SECONDS};
use drams_faas::msg::{CorrelationId, RequestEnvelope};
use drams_faas::pep::{EnforcementBias, Pep};
use rand::Rng;
use std::collections::HashMap;

/// First retransmission timeout of a PEP request (well above any
/// round-trip the latency models can produce).
const RETRY_BASE: SimTime = 100 * MILLIS;
/// Exponential backoff ceiling between retransmissions.
const RETRY_CAP: SimTime = 2 * SECONDS;
/// Delivery attempts before the PEP abandons a request for good; the
/// schedule `100ms·2^n` capped at [`RETRY_CAP`] makes this a retry
/// budget of roughly nine seconds — any outage shorter than that is
/// masked, anything longer is a real, monitorable loss.
const MAX_ATTEMPTS: u32 = 8;
/// Worst-case wall time from a request's first send to its abandonment:
/// the first timer is `RETRY_BASE` flat, then each retry waits
/// `backoff + jitter` with `jitter ≤ backoff/4`, so
/// `0.1 + 1.25·(0.2+0.4+0.8+1.6+2+2+2) ≈ 11.35s`. The drain deadline
/// must outlive this or abandonments (and their alerts) are cut off.
pub(super) const RETRY_BUDGET: SimTime = 12 * SECONDS;
/// Consecutive timeouts on one PDP slot before its circuit breaker
/// opens and the PEP fails over to a healthy slot.
const BREAKER_THRESHOLD: u32 = 3;
/// How long an open breaker refuses traffic before letting one
/// half-open probe through.
const BREAKER_COOLDOWN: SimTime = SECONDS;

/// Client-side circuit breaker for one PDP slot (kept at the PEP layer:
/// the caller decides where to send, the callee may be unreachable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Breaker {
    /// Healthy; `failures` consecutive timeouts so far.
    Closed { failures: u32 },
    /// Tripped; refuses traffic until the cooldown elapses.
    Open { until: SimTime },
    /// One probe request is testing the slot; its fate decides.
    HalfOpen,
}

impl Breaker {
    /// A response came back from the slot.
    fn on_success(&mut self) {
        *self = Breaker::Closed { failures: 0 };
    }

    /// An attempt to the slot timed out. Returns `true` when this
    /// failure trips the breaker open.
    fn on_failure(&mut self, now: SimTime) -> bool {
        match *self {
            Breaker::Closed { failures } if failures + 1 >= BREAKER_THRESHOLD => {
                *self = Breaker::Open {
                    until: now + BREAKER_COOLDOWN,
                };
                true
            }
            Breaker::Closed { failures } => {
                *self = Breaker::Closed {
                    failures: failures + 1,
                };
                false
            }
            Breaker::HalfOpen => {
                // The probe failed: straight back to open.
                *self = Breaker::Open {
                    until: now + BREAKER_COOLDOWN,
                };
                false
            }
            Breaker::Open { .. } => false,
        }
    }
}

/// One in-flight (unanswered, unabandoned) PEP request.
#[derive(Debug)]
pub(super) struct Inflight {
    /// The envelope exactly as first sent (post any in-transit
    /// tampering): retransmissions are byte-identical, so re-observation
    /// digests stay idempotent.
    env: RequestEnvelope,
    tenant: usize,
    /// The slot every attempt goes to, chosen once at intercept time
    /// (retries are slot-sticky — see the `PepRetry` arm).
    sent_slot: usize,
    attempts: u32,
}

/// The tenant-edge PEPs and their probes.
pub(super) struct PepService {
    pub(super) peps: Vec<Pep>,
    pub(super) probes: Vec<Probe>,
    pub(super) bias: EnforcementBias,
    pub(super) key: SymmetricKey,
    /// Requests awaiting a decision, with their retry state.
    pub(super) inflight: HashMap<CorrelationId, Inflight>,
    /// One circuit breaker per PDP slot, shared by all PEPs (the
    /// per-cloud reachability view of the tenant edge).
    pub(super) breakers: Vec<Breaker>,
    /// Admission-control cap on `inflight` (`usize::MAX` = unbounded).
    /// At the cap new arrivals are shed *before* any interception or
    /// probe observation — a shed request produces no evidence and opens
    /// no decision group, so overload degrades availability, never
    /// detection. Admitted requests always carry full evidence.
    pub(super) inflight_cap: usize,
}

/// The wait before retransmission number `attempt` (2 = first retry)
/// times out: capped exponential backoff, before jitter.
fn backoff(attempt: u32) -> SimTime {
    (RETRY_BASE << (attempt - 1)).min(RETRY_CAP)
}

impl PepService {
    /// Picks the slot for a *new* interception: the home slot while its
    /// breaker is closed (or due a half-open probe), otherwise the first
    /// healthy other slot — the failover path. Called only at intercept
    /// time: in-flight requests retry slot-sticky so that exactly one
    /// PDP ever decides a correlation. With a single (central) slot this
    /// always returns `home`.
    fn pick_slot(breakers: &mut [Breaker], home: usize, now: SimTime) -> usize {
        match breakers[home] {
            Breaker::Closed { .. } => home,
            Breaker::Open { until } if now >= until => {
                breakers[home] = Breaker::HalfOpen;
                home
            }
            _ => (1..breakers.len())
                .map(|d| (home + d) % breakers.len())
                .find(|&s| matches!(breakers[s], Breaker::Closed { .. }))
                .unwrap_or(home),
        }
    }
}

impl<'a> SimService<Msg, Ctx<'a>> for PepService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Intercept {
                tenant,
                service,
                request,
            } => {
                // Admission control: at the in-flight cap the request is
                // shed before the PEP ever sees it — no interception, no
                // observation, no group. Between the soft watermark
                // (3/4 cap) and the cap it is admitted but flagged as a
                // degraded admission.
                if self.inflight.len() >= self.inflight_cap {
                    ctx.report.requests_shed += 1;
                    return;
                }
                if self.inflight.len() >= self.inflight_cap - self.inflight_cap / 4 {
                    ctx.report.degraded_admissions += 1;
                }
                let mut env = self.peps[tenant].intercept(service, request, now);
                ctx.issued_at_by_corr.insert(env.correlation, now);
                if ctx.monitoring {
                    let entry = self.probes[tenant].observe_request(
                        ObservationPoint::PepRequest,
                        &env,
                        now,
                    );
                    let li = ctx.li_of_tenant[tenant];
                    ctx.deliver_to_li(out, li, entry, now);
                }
                if ctx.adversary.tamper_request_in_transit(&mut env, now) {
                    ctx.truth.tampered_requests.push(env.correlation);
                }
                let home = ctx.pdp_slot_of_tenant[tenant];
                let slot = Self::pick_slot(&mut self.breakers, home, now);
                self.inflight.insert(
                    env.correlation,
                    Inflight {
                        env: env.clone(),
                        tenant,
                        sent_slot: slot,
                        attempts: 1,
                    },
                );
                ctx.report.peak.pep_inflight =
                    ctx.report.peak.pep_inflight.max(self.inflight.len() as u64);
                let correlation = env.correlation;
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(latency, Msg::PdpReceive { slot, env });
                out.emit(
                    RETRY_BASE,
                    Msg::PepRetry {
                        correlation,
                        attempt: 1,
                    },
                );
            }
            Msg::PepReceive { slot, env } => {
                let Some(tenant) = self.peps.iter().position(|p| p.id() == env.pep) else {
                    return;
                };
                let Some(enforcement) = self.peps[tenant].enforce(&env) else {
                    return; // duplicate, late-after-abandon, or forged
                };
                self.breakers[slot].on_success();
                let inflight = self.inflight.remove(&env.correlation);
                let mut granted = enforcement.granted;
                if ctx.adversary.flip_enforcement(&mut granted, now) {
                    ctx.truth.flipped_enforcements.push(env.correlation);
                }
                ctx.report.requests_completed += 1;
                if granted {
                    ctx.report.granted += 1;
                } else {
                    ctx.report.refused += 1;
                }
                if let Some(issued) = ctx.issued_at_by_corr.get(&env.correlation) {
                    ctx.report.e2e_latency.record(now - issued);
                    if inflight.is_some() && slot != ctx.pdp_slot_of_tenant[tenant] {
                        // Answered by a slot the breaker diverted to.
                        ctx.report.failovers += 1;
                        ctx.report.failover_e2e.record(now - issued);
                    }
                }
                if let Some(inf) = &inflight {
                    ctx.report.e2e_latency.record_attempts(inf.attempts);
                }
                if ctx.monitoring {
                    let entry = self.probes[tenant].observe_pep_response(&env, granted, now);
                    let li = ctx.li_of_tenant[tenant];
                    ctx.deliver_to_li(out, li, entry, now);
                }
            }
            Msg::PepRetry {
                correlation,
                attempt,
            } => {
                let Some(inf) = self.inflight.get(&correlation) else {
                    return; // answered (or abandoned) in the meantime
                };
                if inf.attempts != attempt {
                    return; // stale timer of an earlier attempt
                }
                // This attempt timed out: charge the slot it went to.
                let (tenant, failed_slot, attempts) = (inf.tenant, inf.sent_slot, inf.attempts);
                if self.breakers[failed_slot].on_failure(now) {
                    ctx.report.breaker_trips += 1;
                }
                if attempts >= MAX_ATTEMPTS {
                    // Deadline budget exhausted: give up for good. A
                    // response limping in later is treated as stale.
                    self.inflight.remove(&correlation);
                    self.peps[tenant].abandon(correlation);
                    ctx.report.requests_dropped += 1;
                    return;
                }
                // Retries are slot-sticky: an in-flight correlation is
                // never replayed against a different PDP, so exactly one
                // authority ever decides it and the contract's
                // one-observation-per-point keying stays collision-free.
                // The breaker steers *new* interceptions away instead.
                let slot = failed_slot;
                let inf = self
                    .inflight
                    .get_mut(&correlation)
                    .expect("checked above; no removal in between");
                inf.attempts += 1;
                let env = inf.env.clone();
                let attempt = inf.attempts;
                ctx.report.retries_total += 1;
                // Capped exponential backoff with deterministic jitter
                // (its own stream: fault-free runs never draw from it).
                let wait = backoff(attempt);
                let jitter = ctx.rngs.retry.gen_range(0..=wait / 4);
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(latency, Msg::PdpReceive { slot, env });
                out.emit(
                    wait + jitter,
                    Msg::PepRetry {
                        correlation,
                        attempt,
                    },
                );
            }
            Msg::ProvisionPep { tenant } => {
                let spec = &ctx.tenants[tenant].spec;
                debug_assert_eq!(tenant, self.peps.len(), "peps provision in tenant order");
                self.peps.push(Pep::new(spec.pep, spec.id, self.bias));
                let probe_id = ProbeId(tenant as u32 + 1);
                self.probes.push(Probe::new(
                    probe_id,
                    self.key.clone(),
                    probe_mac_key(probe_id),
                ));
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOSED: Breaker = Breaker::Closed { failures: 0 };
    const FAR: Breaker = Breaker::Open {
        until: SimTime::MAX,
    };

    #[test]
    fn breaker_trips_once_cools_down_probes_and_resets() {
        let mut b = [CLOSED];
        // Consecutive timeouts trip it; only the tripping one reports.
        let trips: Vec<bool> = (1..=BREAKER_THRESHOLD)
            .map(|_| b[0].on_failure(10))
            .collect();
        let expected: Vec<bool> = (1..=BREAKER_THRESHOLD)
            .map(|n| n == BREAKER_THRESHOLD)
            .collect();
        assert_eq!(trips, expected);
        let open = Breaker::Open {
            until: 10 + BREAKER_COOLDOWN,
        };
        assert_eq!(b[0], open);
        // A straggler timing out while open neither re-trips nor
        // extends the cooldown.
        assert!(!b[0].on_failure(20));
        assert_eq!(b[0], open);
        // Before the cooldown the slot stays open...
        PepService::pick_slot(&mut b, 0, 10 + BREAKER_COOLDOWN - 1);
        assert_eq!(b[0], open);
        // ...at it, the next interception is the half-open probe.
        assert_eq!(PepService::pick_slot(&mut b, 0, 10 + BREAKER_COOLDOWN), 0);
        assert_eq!(b[0], Breaker::HalfOpen);
        // A failed probe re-opens without counting a second trip.
        let again = 20 + BREAKER_COOLDOWN;
        assert!(!b[0].on_failure(again));
        assert_eq!(
            b[0],
            Breaker::Open {
                until: again + BREAKER_COOLDOWN
            }
        );
        // A response closes it, and resets the consecutive count.
        b[0].on_success();
        assert_eq!(b[0], CLOSED);
        for _ in 1..BREAKER_THRESHOLD {
            assert!(!b[0].on_failure(0));
        }
        b[0].on_success();
        assert!(!b[0].on_failure(0), "the count restarted from zero");
    }

    #[test]
    fn pick_slot_fails_over_in_ring_order_from_home() {
        // Home closed: no diversion, whatever the others do.
        assert_eq!(PepService::pick_slot(&mut [FAR, FAR, CLOSED, FAR], 2, 0), 2);
        // Home open: the first closed slot in (home + d) % n order.
        assert_eq!(
            PepService::pick_slot(&mut [CLOSED, CLOSED, FAR, CLOSED], 2, 0),
            3
        );
        assert_eq!(
            PepService::pick_slot(&mut [CLOSED, CLOSED, FAR, FAR], 2, 0),
            0
        );
        assert_eq!(PepService::pick_slot(&mut [FAR, CLOSED, FAR, FAR], 2, 0), 1);
        // A half-open home is busy with its probe: others take the load,
        // and a half-open other is not a failover target.
        let half = Breaker::HalfOpen;
        assert_eq!(
            PepService::pick_slot(&mut [CLOSED, CLOSED, half, half], 2, 0),
            0
        );
        // Nobody healthy: stay home rather than pick an arbitrary victim.
        assert_eq!(PepService::pick_slot(&mut [FAR, FAR, FAR, FAR], 2, 0), 2);
        // The single (central) slot is always home, tripped or not.
        assert_eq!(PepService::pick_slot(&mut [CLOSED], 0, 0), 0);
        let mut central = [FAR];
        assert_eq!(PepService::pick_slot(&mut central, 0, 0), 0);
        assert_eq!(central, [FAR]);
    }

    #[test]
    fn retry_budget_covers_the_worst_case_backoff_schedule() {
        // The first timer is RETRY_BASE flat; retransmissions 2..=MAX
        // each wait their backoff plus at most a quarter of it in jitter.
        let worst: SimTime = RETRY_BASE
            + (2..=MAX_ATTEMPTS)
                .map(|attempt| backoff(attempt) + backoff(attempt) / 4)
                .sum::<SimTime>();
        assert!(
            worst < RETRY_BUDGET,
            "worst case {worst} µs must fit RETRY_BUDGET {RETRY_BUDGET} µs"
        );
        assert_eq!(backoff(2), 2 * RETRY_BASE, "the schedule doubles...");
        assert_eq!(backoff(MAX_ATTEMPTS), RETRY_CAP, "...up to the cap");
    }
}
