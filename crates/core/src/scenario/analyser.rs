//! The Analyser as a service: periodic chain polls, durable checkpoints,
//! the release of the node's event log, provisioning and
//! policy-administration notifications.

use super::ctx::Ctx;
use super::msg::{Msg, Outbox};
use super::spec::probe_mac_key;
use crate::analyser::Analyser;
use drams_faas::des::SimTime;

/// The Analyser as a service: periodic chain polls, plus provisioning
/// and policy-administration notifications.
pub(super) struct AnalyserService {
    pub(super) analyser: Analyser,
    pub(super) poll_interval: SimTime,
}

impl AnalyserService {
    pub(super) fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_>, out: &mut Outbox) {
        match msg {
            Msg::AnalyserTick => {
                let _ = self.analyser.poll(&mut ctx.node, now);
                // The poll's progress becomes durable before anything
                // else observes it: a crash after this point resumes
                // here, never re-checks, never re-alerts.
                self.analyser.checkpoint().expect("analyser checkpoint");
                // The event log's two readers are this Analyser and the
                // chain service's harvest: release what both have passed.
                // After the checkpoint, so a restarted Analyser never
                // resumes below the released prefix.
                ctx.node
                    .release_events(self.analyser.unread_events().min(ctx.event_cursor));
                ctx.report.peak.analyser_pending_retire = ctx
                    .report
                    .peak
                    .analyser_pending_retire
                    .max(self.analyser.pending_retirements() as u64);
                ctx.report.peak.policy_history = ctx
                    .report
                    .peak
                    .policy_history
                    .max(self.analyser.policy_history_len() as u64);
                if out.within_deadline(now) {
                    out.emit(self.poll_interval, Msg::AnalyserTick);
                }
            }
            Msg::AnalyserPolicy(version) => {
                self.analyser.publish_prepared(version.prepared, now);
                // Authorisation state must be durable before the crash
                // window, not just at the next poll.
                self.analyser.checkpoint().expect("analyser checkpoint");
            }
            Msg::ProvisionProbeKey { probe } => {
                self.analyser
                    .register_probe_key(probe, probe_mac_key(probe));
                self.analyser.checkpoint().expect("analyser checkpoint");
            }
            _ => unreachable!("misrouted event"),
        }
    }
}
