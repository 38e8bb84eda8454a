//! The typed events between services, and the service address table.

use crate::logent::{LogEntry, ProbeId};
use drams_faas::des::SimTime;
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_faas::prp::PolicyVersion;
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
    CrashPdp {
        slot: usize,
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
    CrashLi {
        li: usize,
    },
    // → chain service
    MineTick,
    CrashChain,
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
    CrashAnalyser,
    // → scenario controller
    Script(usize),
    ActivateTenant {
        tenant: usize,
    },
}

// Service registration indices; the router below is the service graph's
// address table.
pub(super) const SVC_WORKLOAD: usize = 0;
const SVC_PEP: usize = 1;
const SVC_PDP: usize = 2;
const SVC_LI: usize = 3;
const SVC_CHAIN: usize = 4;
const SVC_ANALYSER: usize = 5;
const SVC_CONTROLLER: usize = 6;

pub(super) fn route(msg: &Msg) -> usize {
    match msg {
        Msg::Arrival => SVC_WORKLOAD,
        Msg::Intercept { .. }
        | Msg::PepReceive { .. }
        | Msg::PepRetry { .. }
        | Msg::ProvisionPep { .. } => SVC_PEP,
        Msg::PdpReceive { .. }
        | Msg::PolicyAdmin(_)
        | Msg::SilencePdp { .. }
        | Msg::CrashPdp { .. } => SVC_PDP,
        Msg::LiDeliver { .. }
        | Msg::LiFlushTick { .. }
        | Msg::StallLi { .. }
        | Msg::ProvisionLi { .. }
        | Msg::CrashLi { .. } => SVC_LI,
        Msg::MineTick | Msg::CrashChain | Msg::SetTimeout { .. } => SVC_CHAIN,
        Msg::AnalyserTick
        | Msg::AnalyserPolicy(_)
        | Msg::ProvisionProbeKey { .. }
        | Msg::CrashAnalyser => SVC_ANALYSER,
        Msg::Script(_) | Msg::ActivateTenant { .. } => SVC_CONTROLLER,
    }
}
