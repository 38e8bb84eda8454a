//! The shared simulation context: the one thing every service may touch
//! besides its own state and its outbox.

use super::msg::{Msg, Outbox};
use super::spec::RngStreams;
use crate::adversary::Adversary;
use crate::logent::LogEntry;
use crate::monitor::{GroundTruth, MonitorReport};
use drams_chain::node::Node;
use drams_faas::des::{SimTime, MILLIS};
use drams_faas::fault::{FaultPlane, Site};
use drams_faas::model::{LatencyModel, TenantSpec};
use drams_faas::msg::CorrelationId;
use drams_faas::transport::Transport;
use drams_store::Wal;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Any component to its local Logging Interface.
const TO_LI: LatencyModel = LatencyModel {
    base: MILLIS / 4,
    jitter: MILLIS / 10,
};

/// One tenant's runtime state.
#[derive(Debug)]
pub(super) struct TenantRuntime {
    pub(super) spec: TenantSpec,
    /// The LI its probe observations go to.
    pub(super) li: usize,
    /// The PDP slot its PEP asks first.
    pub(super) pdp_slot: usize,
    /// Set on `TenantLeave`; a pending activation (join settle time)
    /// must not resurrect a tenant that departed in the meantime.
    pub(super) departed: bool,
}

/// The shared simulation context: measurement sinks, ground truth, the
/// chain substrate and the routing tables that the controller maintains.
pub(super) struct Ctx<'a> {
    pub(super) node: Node,
    /// The node's write-ahead journal, shared with the `WalJournal`
    /// attached to `node` — kept here so a `CrashRestart` of the chain
    /// service can replay it into the restarted node.
    pub(super) node_wal: Rc<RefCell<Wal>>,
    /// The chain service's harvest position in the node's event log. The
    /// Analyser service reads it too: the log is released only below
    /// both readers' positions.
    pub(super) event_cursor: usize,
    pub(super) report: MonitorReport,
    pub(super) truth: GroundTruth,
    pub(super) adversary: &'a mut dyn Adversary,
    pub(super) rngs: RngStreams,
    pub(super) monitoring: bool,
    /// PEP → PDP link latency (it depends on the PDP placement).
    pub(super) pep_pdp: LatencyModel,
    pub(super) tenants: Vec<TenantRuntime>,
    /// Indices into `tenants` the workload currently targets.
    pub(super) active_tenants: Vec<usize>,
    /// Cloud id → PDP slot (all clouds map to slot 0 under central
    /// placement).
    pub(super) pdp_slot_of_cloud: BTreeMap<u32, usize>,
    /// Correlation → virtual issue time of each request issued while
    /// monitoring is on and not yet retired on-chain: an alert's
    /// detection latency is read from it, and the chain service drops an
    /// entry once a mined `retire_groups` call names its group.
    pub(super) issued_at_by_corr: HashMap<CorrelationId, SimTime>,
    /// The deterministic per-link fault model every wire message crosses
    /// (a no-op with an empty plan).
    pub(super) fault_plane: FaultPlane,
    /// PDP slot → the site it is deployed in.
    pub(super) slot_site: Vec<Site>,
    /// LI index → the site it is deployed in.
    pub(super) li_site: Vec<Site>,
    /// The carrier for wire messages (`DesTransport` or a real socket
    /// backend); crash restarts notify it so wire backends reconnect.
    pub(super) transport: &'a mut dyn Transport,
    /// Strictly increasing frame sequence number (wire backends only).
    pub(super) wire_seq: u64,
}

impl Ctx<'_> {
    /// Applies the adversary's log-plane hooks and, if the entry
    /// survives, schedules its delivery to `li`.
    pub(super) fn deliver_to_li(
        &mut self,
        out: &mut Outbox,
        li: usize,
        mut entry: LogEntry,
        now: SimTime,
    ) {
        if self.adversary.drop_log(&entry, now) {
            self.truth
                .dropped_logs
                .push((entry.correlation, entry.point));
            return;
        }
        if self.adversary.replay_log(&mut entry, now) {
            self.truth
                .replayed_logs
                .push((entry.correlation, entry.point));
        }
        if self.adversary.tamper_log(&mut entry, now) {
            self.truth
                .tampered_logs
                .push((entry.correlation, entry.point));
        }
        let latency = TO_LI.sample(&mut self.rngs.net);
        out.emit(latency, Msg::LiDeliver { li, entry });
    }
}
