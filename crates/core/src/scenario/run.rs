//! Assembly: builds the Figure-1 deployment a [`ScenarioSpec`] declares,
//! schedules the bootstrap events and runs.

use super::analyser::AnalyserService;
use super::chain::ChainService;
use super::controller::Controller;
use super::ctx::{Ctx, TenantRuntime};
use super::li::LiService;
use super::msg::{Msg, Services};
use super::pdp::{PdpService, PdpSlot};
use super::pep::{Breaker, PepService};
use super::spec::{
    probe_mac_key, stream_rng, PdpPlacement, RngStreams, ScenarioSpec, ScriptedAction,
    FAULT_SETTLE, PDP_PROBE_BASE,
};
use super::workload::WorkloadSource;
use crate::adversary::Adversary;
use crate::analyser::Analyser;
use crate::contract::{MonitorContract, MONITOR_CONTRACT};
use crate::li::mem_wal;
use crate::logent::ProbeId;
use crate::monitor::{GroundTruth, MonitorReport};
use crate::probe::Probe;
use drams_chain::chain::ChainConfig;
use drams_chain::node::Node;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{EventQueue, SimTime, MILLIS, SECONDS};
use drams_faas::fault::{FaultPlan, FaultPlane, Site};
use drams_faas::model::{CloudId, LatencyModel};
use drams_faas::pep::Pep;
use drams_faas::prp::Prp;
use drams_faas::transport::{DesTransport, Transport};
use drams_faas::workload::{PoissonArrivals, RequestGenerator, Vocabulary, Zipf};
use drams_store::persist::WalJournal;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// Hard virtual-time stop of every run.
pub(super) const HORIZON: SimTime = 600 * SECONDS;

/// A hop inside one tenant: a PEP to its per-cloud PDP.
const INTRA_TENANT: LatencyModel = LatencyModel {
    base: MILLIS / 2,
    jitter: MILLIS / 4,
};
/// A member tenant to the infrastructure tenant: a PEP to the central PDP.
const TENANT_TO_INFRA: LatencyModel = LatencyModel {
    base: 5 * MILLIS,
    jitter: 2 * MILLIS,
};

/// The degraded-mode schedule for a fault plan: one
/// `(widen_at, restore_at, widened_timeout)` triple per merged
/// disruption window. Widening starts a full base timeout plus settle
/// *before* the window so no group already in flight can be swept under
/// the old timeout while its evidence is stuck behind the fault, and the
/// widened value keeps every such group alive until a settle past the
/// heal. Windows are merged with a `base + 2·settle` bridge so
/// consecutive widen/restore pairs never interleave.
fn degraded_windows(plan: &FaultPlan, base_timeout: SimTime) -> Vec<(SimTime, SimTime, SimTime)> {
    plan.disruption_windows(base_timeout + 2 * FAULT_SETTLE)
        .into_iter()
        .map(|(from, until)| {
            let widen_at = from.saturating_sub(base_timeout + FAULT_SETTLE);
            let restore_at = until + FAULT_SETTLE;
            (widen_at, restore_at, (restore_at - widen_at) + base_timeout)
        })
        .collect()
}

/// Runs one scenario end to end.
///
/// # Panics
///
/// Panics on internal invariant violations (the chain rejecting its own
/// miner's block, the script addressing a tenant/cloud/version that does
/// not exist), which indicate bugs rather than recoverable errors.
pub fn run_scenario<A: Adversary>(
    spec: &ScenarioSpec,
    adversary: &mut A,
) -> (MonitorReport, GroundTruth) {
    run_scenario_with_transport(spec, adversary, &mut DesTransport)
}

/// Runs one scenario over an explicit transport backend.
///
/// Under [`DesTransport`] this is exactly [`run_scenario`]. Under a
/// wire backend (`drams_net::TcpTransport`) every federation-crossing
/// message is framed, sent to the destination role's validating echo
/// endpoint (one synchronous batch per dispatch), and scheduled from
/// the bytes that came back — while the DES remains the single logical
/// clock, so the two backends are comparable event for event.
/// Invariant 9: the wire format is observationally invisible — same
/// spec, same alerts, same ground truth, byte for byte.
///
/// # Panics
///
/// Panics on internal invariant violations (see [`run_scenario`]) and
/// on wire-transport failures that survive the transport's own
/// reconnect policy: a transport that cannot deliver is a harness
/// failure, not a scenario outcome.
pub fn run_scenario_with_transport<A: Adversary>(
    spec: &ScenarioSpec,
    adversary: &mut A,
    transport: &mut dyn Transport,
) -> (MonitorReport, GroundTruth) {
    let config = &spec.config;
    // Pathological overload knobs are clamped once, up front; the
    // default profile passes through unchanged.
    let load = spec.load.clamped();
    let mut report = MonitorReport::default();
    let mut truth = GroundTruth::default();
    report.policy_activations = 1;

    // --- access control plane -------------------------------------------
    let tenant_count = config.federation.tenant_count().max(1);
    let peps: Vec<Pep> = config
        .federation
        .tenants
        .iter()
        .map(|t| Pep::new(t.pep, t.id, config.bias))
        .collect();
    let swapped = adversary.swap_policy(&config.policy);
    truth.policy_swapped = swapped.is_some();
    // The PRP stores (and pre-compiles) the policy the PDPs actually
    // serve — deliberately the *active* policy, not the authorised one:
    // the paper's swap-policy threat is an unauthorised substitution at
    // the PRP, and the Analyser detects it from its own independent
    // authorised copy. It compiles the spec's policy from a borrow, so the
    // policy base is never copied.
    let prp = match swapped {
        Some(policy) => Prp::new(policy),
        None => Prp::new(&config.policy),
    };

    // PDP slots: one central instance, or one per member cloud.
    let key = SymmetricKey::from_bytes([42; 32]);
    let mut probe_mac_keys: BTreeMap<ProbeId, [u8; 32]> = BTreeMap::new();
    let mut slots: Vec<PdpSlot> = Vec::new();
    let mut slot_site: Vec<Site> = Vec::new();
    let mut deploy_pdp = |probe_id: ProbeId, site: Site| {
        probe_mac_keys.insert(probe_id, probe_mac_key(probe_id));
        let pdp = prp.active().pdp();
        slots.push(PdpSlot::new(
            probe_id,
            &key,
            pdp,
            load.idempotency_retention,
        ));
        slot_site.push(site);
    };
    let clouds: BTreeSet<u32> = config
        .federation
        .tenants
        .iter()
        .map(|t| t.cloud.0)
        .collect();
    let pdp_slot_of_cloud: BTreeMap<u32, usize> = match spec.placement {
        PdpPlacement::Central => {
            deploy_pdp(ProbeId(0), Site::Infra);
            clouds.into_iter().map(|cloud| (cloud, 0)).collect()
        }
        PdpPlacement::PerCloud => clouds
            .into_iter()
            .enumerate()
            .map(|(slot, cloud)| {
                deploy_pdp(ProbeId(PDP_PROBE_BASE + cloud), Site::Cloud(CloudId(cloud)));
                (cloud, slot)
            })
            .collect(),
    };
    let slot_count = slots.len();

    // --- monitoring plane -------------------------------------------------
    let pep_probes: Vec<Probe> = (0..tenant_count)
        .map(|i| {
            let id = ProbeId(i as u32 + 1);
            probe_mac_keys.insert(id, probe_mac_key(id));
            Probe::new(id, key.clone(), probe_mac_key(id))
        })
        .collect();

    // One LI per member tenant + one in the infrastructure tenant.
    let infra_li = tenant_count;
    let li_service = LiService::new(
        tenant_count + 1,
        config.li_flush_interval,
        config.li_batch_size,
        load.li_resident_cap as usize,
        key.clone(),
    );

    // --- chain -------------------------------------------------------------
    let admin = Keypair::from_seed(b"drams-admin");
    let analyser_kp = Keypair::from_seed(b"drams-analyser");
    let chain_config = ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        max_block_txs: 4096,
        // The threat model includes a Byzantine chain node that accepts
        // blocks carrying forged transaction signatures, so the simulated
        // node's import path does not verify them — log non-repudiation
        // rests on the Analyser's independent signature audit, which is
        // the paper's trust assumption anyway.
        verify_signatures: false,
        ..ChainConfig::default()
    };
    // The node journals write-ahead into a shared WAL (in-memory medium,
    // synced per record) from the very first transaction, so a scripted
    // `CrashRestart` of the chain service can rebuild chain, contract
    // state and mempool at any point of the run.
    let node_wal = Rc::new(RefCell::new(mem_wal(256)));
    let mut node = Node::new(chain_config.clone());
    node.register_contract(Box::new(MonitorContract));
    node.set_journal(Box::new(WalJournal::new(node_wal.clone())));
    if config.monitoring_enabled {
        node.submit_call(
            &admin,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(config.group_timeout, analyser_kp.public().fingerprint()),
        )
        .expect("init submission");
        node.mine_block(0).expect("genesis follow-up");
    }
    let event_cursor = node.events().len();
    // Unswapped, the PRP's version 0 *is* the authorised policy, compiled
    // once and shared; swapped, the Analyser compiles its own copy.
    let mut analyser = if truth.policy_swapped {
        Analyser::new(&config.policy, key.clone(), analyser_kp, probe_mac_keys)
    } else {
        Analyser::from_prepared(
            prp.active().prepared.clone(),
            key.clone(),
            analyser_kp,
            probe_mac_keys,
        )
    };
    // The scenario runtime's chain is mined by a single honest node, so
    // any sibling block means a rewritten history or an equivocating
    // miner — turn the sweep on (the alerted-fork set rides in the
    // checkpoint, so a recovered Analyser does not re-alert known forks).
    // These settings are provisioned, not checkpointed: a crash restart
    // keeps them.
    analyser.enable_fork_detection();
    analyser.set_enforcement_bias(config.bias);
    if load.analyser_retire_lag > 0 {
        // Windowed group retirement: evidence of verified groups is
        // pruned from contract storage once the replay window closes.
        analyser.enable_group_retirement(load.analyser_retire_lag);
    }
    if load.policy_history_retention > 0 {
        // Bounded authorised-policy history: superseded versions older
        // than the horizon (referenced to the oldest unretired group)
        // are dropped.
        analyser.enable_history_retention(load.policy_history_retention);
    }
    // The baseline a crash at any later point resumes from.
    analyser.checkpoint().expect("analyser checkpoint");

    // --- context -----------------------------------------------------------
    let pep_pdp = match spec.placement {
        PdpPlacement::Central => TENANT_TO_INFRA,
        // Per-cloud PDPs sit one local hop away from their PEPs.
        PdpPlacement::PerCloud => INTRA_TENANT,
    };
    let mut ctx = Ctx {
        node,
        node_wal,
        event_cursor,
        report,
        truth,
        adversary,
        rngs: RngStreams::new(config.seed),
        monitoring: config.monitoring_enabled,
        pep_pdp,
        tenants: config
            .federation
            .tenants
            .iter()
            .enumerate()
            .map(|(li, t)| TenantRuntime {
                spec: t.clone(),
                li,
                pdp_slot: pdp_slot_of_cloud[&t.cloud.0],
                departed: false,
            })
            .collect(),
        active_tenants: (0..tenant_count).collect(),
        pdp_slot_of_cloud,
        issued_at_by_corr: HashMap::new(),
        fault_plane: FaultPlane::new(spec.faults.clone(), stream_rng(config.seed, "faults")),
        slot_site,
        // LIs sit at [tenants 0..n, infra at n]; a tenant-less config
        // still provisions LI 0, which then shares the infra site.
        li_site: (0..tenant_count)
            .map(|i| {
                config
                    .federation
                    .tenants
                    .get(i)
                    .map_or(Site::Infra, |t| Site::Cloud(t.cloud))
            })
            .chain(std::iter::once(Site::Infra))
            .collect(),
        transport,
        wire_seq: 0,
    };

    // --- services ----------------------------------------------------------
    // Degraded-mode schedule: while a disruption window is near, the
    // epoch sweep runs with a widened group timeout (monitoring off =
    // nothing to retune).
    let degraded = if config.monitoring_enabled {
        degraded_windows(&spec.faults, config.group_timeout)
    } else {
        Vec::new()
    };
    let mut services = Services {
        workload: WorkloadSource {
            total_requests: config.total_requests,
            base_rate: config.request_rate_per_sec,
            phases: spec.phases.clone(),
            zipf: (load.population > 0)
                .then(|| Zipf::new(load.population as usize, load.zipf_exponent)),
            load: load.clone(),
            generator: RequestGenerator::new(Vocabulary::default(), 1.1, config.seed ^ 0x9e37),
            last_join_at: spec
                .script
                .iter()
                .filter_map(|a| match a {
                    ScriptedAction::TenantJoin { at, .. } => Some(*at),
                    _ => None,
                })
                .max(),
            group_timeout: config.group_timeout,
            block_interval: config.block_interval,
            analyser_poll_interval: config.analyser_poll_interval,
            fault_floor: degraded
                .iter()
                .map(|&(_, restore_at, _)| restore_at)
                .max()
                .unwrap_or(0),
        },
        pep: PepService {
            peps,
            probes: pep_probes,
            bias: config.bias,
            key: key.clone(),
            inflight: HashMap::new(),
            breakers: vec![Breaker::Closed { failures: 0 }; slot_count],
            inflight_cap: if load.pep_inflight_cap > 0 {
                load.pep_inflight_cap as usize
            } else {
                usize::MAX
            },
        },
        pdp: PdpService {
            prp,
            slots,
            infra_li,
            key: key.clone(),
        },
        li: li_service,
        chain: ChainService {
            admin,
            epoch_blocks: config.epoch_blocks,
            block_interval: config.block_interval,
            chain_config,
            compact_interval: load.chain_compact_interval,
            journal_base: 0,
        },
        analyser: AnalyserService {
            analyser,
            poll_interval: config.analyser_poll_interval,
        },
        controller: Controller {
            script: spec.script.iter().cloned().map(Some).collect(),
            placement: spec.placement,
            infra_li,
        },
        queue: EventQueue::new(),
    };

    // --- initial events ----------------------------------------------------
    let queue = &mut services.queue;
    let arrivals = PoissonArrivals::with_rate_per_sec(
        load.effective_rate(
            spec.phases
                .first()
                .filter(|p| p.start == 0)
                .map_or(config.request_rate_per_sec, |p| p.rate_per_sec),
            0,
        ),
    );
    queue.schedule(arrivals.next_gap(&mut ctx.rngs.workload), Msg::Arrival);
    if config.monitoring_enabled {
        queue.schedule(config.block_interval, Msg::MineTick);
        for li in 0..=tenant_count {
            queue.schedule(config.li_flush_interval, Msg::LiFlushTick { li });
        }
        if config.analyser_enabled {
            queue.schedule(config.analyser_poll_interval, Msg::AnalyserTick);
        }
    }
    for (i, action) in spec.script.iter().enumerate() {
        queue.schedule_at(action.at(), Msg::Script(i));
    }
    for &(widen_at, restore_at, widened) in &degraded {
        queue.schedule_at(widen_at, Msg::SetTimeout { timeout: widened });
        queue.schedule_at(
            restore_at,
            Msg::SetTimeout {
                timeout: config.group_timeout,
            },
        );
    }

    // --- run ---------------------------------------------------------------
    let finished_at = services.run(&mut ctx, HORIZON);
    ctx.report.finished_at = finished_at;
    ctx.report.ledger = ctx.node.chain().tip_hash();
    let analyser = &services.analyser.analyser;
    ctx.report.groups_retired = analyser.groups_retired();
    ctx.report.faults = ctx.fault_plane.stats();
    #[cfg(test)]
    record_held_at_end(&ctx);
    (ctx.report, ctx.truth)
}

#[cfg(test)]
thread_local! {
    /// What the last run on this thread held when it ended: the
    /// correlations with an issue time, and those whose group has a
    /// `grp/` record in contract storage, each sorted.
    pub(super) static HELD_AT_END: RefCell<[Vec<u64>; 2]> = RefCell::default();
}

#[cfg(test)]
fn record_held_at_end(ctx: &Ctx<'_>) {
    let mut issued: Vec<u64> = ctx.issued_at_by_corr.keys().map(|c| c.0).collect();
    issued.sort_unstable();
    let groups = ctx
        .node
        .host()
        .storage_of(MONITOR_CONTRACT)
        .map_or_else(Vec::new, |s| {
            s.scan_prefix(b"grp/")
                .map(|(k, _)| u64::from_be_bytes(k[4..12].try_into().expect("grp/ + 8 bytes")))
                .collect()
        });
    HELD_AT_END.set([issued, groups]);
}
