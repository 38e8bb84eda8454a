//! Assembly: builds the Figure-1 deployment a [`ScenarioSpec`] declares,
//! registers the services, schedules the bootstrap events and runs.

use super::analyser::AnalyserService;
use super::chain::ChainService;
use super::controller::Controller;
use super::ctx::{mem_wal, Ctx, TenantRuntime};
use super::li::LiService;
use super::msg::{route, Msg, SVC_WORKLOAD};
use super::pdp::{PdpService, PdpSlot};
use super::pep::{Breaker, PepService};
use super::spec::{
    probe_mac_key, stream_rng, PdpPlacement, RngStreams, ScenarioSpec, ScriptedAction,
    FAULT_SETTLE, PDP_PROBE_BASE,
};
use super::wire::net_shim;
use super::workload::WorkloadSource;
use crate::adversary::Adversary;
use crate::analyser::Analyser;
use crate::contract::{MonitorContract, MONITOR_CONTRACT};
use crate::logent::ProbeId;
use crate::monitor::{GroundTruth, MonitorReport};
use crate::probe::Probe;
use drams_chain::chain::ChainConfig;
use drams_chain::node::Node;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{ServiceRuntime, SimTime};
use drams_faas::fault::{FaultPlan, FaultPlane, Site};
use drams_faas::model::CloudId;
use drams_faas::pep::Pep;
use drams_faas::prp::Prp;
use drams_faas::transport::{DesTransport, Transport};
use drams_faas::workload::{PoissonArrivals, RequestGenerator, Vocabulary, Zipf};
use drams_store::persist::WalJournal;
use drams_store::{MemBackend, SnapshotStore};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

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
/// endpoint with a synchronous round-trip, and scheduled from the bytes
/// that came back — while the DES remains the single logical clock, so
/// the two backends are comparable event for event. Invariant 9: the
/// wire format is observationally invisible — same spec, same alerts,
/// same ground truth, byte for byte.
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
    let authorised = config.policy.clone();
    let active_policy = match adversary.swap_policy(&authorised) {
        Some(swapped) => {
            truth.policy_swapped = true;
            swapped
        }
        None => authorised.clone(),
    };
    // The PRP stores (and pre-compiles) the policy the PDPs actually
    // serve — deliberately the *active* policy, not the authorised one:
    // the paper's swap-policy threat is an unauthorised substitution at
    // the PRP, and the Analyser detects it from its own independent
    // authorised copy.
    let prp = Prp::new(active_policy);

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
    let mut analyser = Analyser::new(authorised, key.clone(), analyser_kp, probe_mac_keys);
    // The scenario runtime's chain is mined by a single honest node, so
    // any sibling block means a rewritten history or an equivocating
    // miner — turn the sweep on (the flag and the alerted-fork set ride
    // in the checkpoint, so a recovered Analyser keeps it without
    // re-alerting known forks). Enabled before the first checkpoint.
    analyser.enable_fork_detection();
    if load.analyser_retire_lag > 0 {
        // Windowed group retirement: evidence of verified groups is
        // pruned from contract storage once the replay window closes.
        // Enabled before the first checkpoint so the lag (and the
        // pending window) ride in every recovery.
        analyser.enable_group_retirement(load.analyser_retire_lag);
    }
    if load.policy_history_retention > 0 {
        // Bounded authorised-policy history: superseded versions older
        // than the horizon (referenced to the oldest unretired group)
        // are dropped. Enabled before the first checkpoint so the
        // horizon rides in every recovery.
        analyser.enable_history_retention(load.policy_history_retention);
    }
    analyser
        .attach_checkpoint(SnapshotStore::new(Box::new(MemBackend::new())))
        .expect("analyser checkpoint");

    // --- context -----------------------------------------------------------
    let pep_pdp = match spec.placement {
        PdpPlacement::Central => config.federation.tenant_to_infra,
        // Per-cloud PDPs sit one local hop away from their PEPs.
        PdpPlacement::PerCloud => config.federation.intra_tenant,
    };
    let mut ctx = Ctx {
        node,
        node_wal,
        report,
        truth,
        adversary,
        rngs: RngStreams::new(config.seed),
        monitoring: config.monitoring_enabled,
        to_li: config.federation.to_logging_interface,
        pep_pdp,
        tenants: config
            .federation
            .tenants
            .iter()
            .map(|t| TenantRuntime {
                spec: t.clone(),
                departed: false,
            })
            .collect(),
        active_tenants: (0..tenant_count).collect(),
        li_of_tenant: (0..tenant_count).collect(),
        pdp_slot_of_tenant: config
            .federation
            .tenants
            .iter()
            .map(|t| pdp_slot_of_cloud[&t.cloud.0])
            .collect(),
        pdp_slot_of_cloud,
        issued_at_by_corr: HashMap::new(),
        tx_entry_times: HashMap::new(),
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
    let mut rt: ServiceRuntime<Msg, Ctx<'_>> = ServiceRuntime::new(route);
    let registered = rt.register(Box::new(WorkloadSource {
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
    }));
    debug_assert_eq!(registered, SVC_WORKLOAD);
    rt.register(Box::new(PepService {
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
    }));
    rt.register(Box::new(PdpService {
        prp,
        slots,
        infra_li,
        key: key.clone(),
    }));
    rt.register(Box::new(li_service));
    rt.register(Box::new(ChainService {
        admin,
        epoch_blocks: config.epoch_blocks,
        block_interval: config.block_interval,
        event_cursor,
        chain_config,
        compact_interval: load.chain_compact_interval,
        journal_base: 0,
    }));
    rt.register(Box::new(AnalyserService {
        analyser,
        poll_interval: config.analyser_poll_interval,
        key: key.clone(),
    }));
    rt.register(Box::new(Controller {
        script: spec.script.clone(),
        placement: spec.placement,
        infra_li,
    }));

    // --- fault plane and wire transport ------------------------------------
    // With a declared plan, every wire message (request, response, log
    // delivery) crosses the fault plane on its way into the event queue;
    // with a wire transport attached, every surviving delivery then
    // crosses the real socket to its destination endpoint. Initial
    // schedules below bypass both by design — they are bootstrap
    // bookkeeping, not link traffic. An empty plan under the DES backend
    // installs no shim, so canonical runs take the exact
    // pre-fault-plane path.
    if !spec.faults.is_empty() || ctx.transport.is_wire() {
        rt.set_net_shim(Box::new(net_shim));
    }

    // --- initial events ----------------------------------------------------
    let arrivals = PoissonArrivals::with_rate_per_sec(
        load.effective_rate(
            spec.phases
                .first()
                .filter(|p| p.start == 0)
                .map_or(config.request_rate_per_sec, |p| p.rate_per_sec),
            0,
        ),
    );
    rt.schedule(arrivals.next_gap(&mut ctx.rngs.workload), Msg::Arrival);
    if config.monitoring_enabled {
        rt.schedule(config.block_interval, Msg::MineTick);
        for li in 0..=tenant_count {
            rt.schedule(config.li_flush_interval, Msg::LiFlushTick { li });
        }
        if config.analyser_enabled {
            rt.schedule(config.analyser_poll_interval, Msg::AnalyserTick);
        }
    }
    for (i, action) in spec.script.iter().enumerate() {
        rt.schedule_at(action.at(), Msg::Script(i));
    }
    for &(widen_at, restore_at, widened) in &degraded {
        rt.schedule_at(widen_at, Msg::SetTimeout { timeout: widened });
        rt.schedule_at(
            restore_at,
            Msg::SetTimeout {
                timeout: config.group_timeout,
            },
        );
    }

    // --- run ---------------------------------------------------------------
    let finished_at = rt.run(&mut ctx, config.horizon);
    ctx.report.finished_at = finished_at;
    ctx.report.faults = ctx.fault_plane.stats();
    (ctx.report, ctx.truth)
}
