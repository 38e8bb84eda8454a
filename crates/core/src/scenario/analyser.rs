//! The Analyser as a service: periodic chain polls, durable checkpoints,
//! provisioning and policy-administration notifications.

use super::ctx::Ctx;
use super::msg::Msg;
use super::spec::probe_mac_key;
use crate::analyser::Analyser;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{Outbox, SimService, SimTime};
use drams_faas::transport::WireRole;

/// The Analyser as a service: periodic chain polls, plus provisioning
/// and policy-administration notifications.
pub(super) struct AnalyserService {
    pub(super) analyser: Analyser,
    pub(super) poll_interval: SimTime,
    /// The federation key, re-provisioned to a restarted Analyser (in a
    /// real deployment it would come back from the tenant TPMs).
    pub(super) key: SymmetricKey,
}

impl<'a> SimService<Msg, Ctx<'a>> for AnalyserService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::AnalyserTick => {
                let _ = self.analyser.poll(&mut ctx.node, now);
                // The poll's progress becomes durable before anything
                // else observes it: a crash after this point resumes
                // here, never re-checks, never re-alerts.
                self.analyser.checkpoint().expect("analyser checkpoint");
                ctx.report.groups_retired = self.analyser.groups_retired();
                ctx.report.policy_history_retired = self.analyser.policy_history_retired();
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
            Msg::AnalyserPolicy(policy) => {
                self.analyser.publish_authorised_policy(policy, now);
                // Authorisation state must be durable before the crash
                // window, not just at the next poll.
                self.analyser.checkpoint().expect("analyser checkpoint");
            }
            Msg::ProvisionProbeKey { probe } => {
                self.analyser
                    .register_probe_key(probe, probe_mac_key(probe));
                self.analyser.checkpoint().expect("analyser checkpoint");
            }
            Msg::CrashAnalyser => {
                ctx.transport
                    .restart(WireRole::Analyser)
                    .expect("transport restart");
                // The Analyser process dies; its checkpoint store
                // survives. Recovery resumes the cursors and the
                // authorised-policy history — no re-scan, no re-alert.
                let store = self
                    .analyser
                    .detach_checkpoint()
                    .expect("analyser checkpoint attached");
                self.analyser = Analyser::recover(
                    self.key.clone(),
                    Keypair::from_seed(b"drams-analyser"),
                    store,
                )
                .expect("analyser recovery");
                ctx.report.crash_restarts += 1;
            }
            _ => unreachable!("misrouted event"),
        }
    }
}
