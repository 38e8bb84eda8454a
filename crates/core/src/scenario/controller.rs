//! The scenario controller: executes the script — policy administration,
//! tenant churn, fault windows and Byzantine chain actions — by
//! decomposing each action into provisioning events for the services.

use super::ctx::{Ctx, TenantRuntime};
use super::msg::{Msg, Outbox, PolicyAdmin};
use super::spec::{CrashTarget, PdpPlacement, ScriptedAction};
use crate::contract::MONITOR_CONTRACT;
use crate::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_chain::block::{Block, BlockHash};
use drams_chain::tx::Transaction;
use drams_crypto::codec::{Decode, Reader};
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{SimTime, MILLIS};
use drams_faas::fault::Site;
use drams_faas::model::{CloudId, PepId, TenantId, TenantSpec};
use drams_faas::msg::CorrelationId;
use rand::Rng;

/// The `(correlation, point)` pairs a log-carrying transaction would have
/// committed — the ground-truth labelling for a withheld commit.
fn logged_entry_keys(tx: &Transaction) -> Vec<(CorrelationId, ObservationPoint)> {
    let mut out = Vec::new();
    if tx.method != "store_log_batch" {
        return out;
    }
    let mut r = Reader::new(&tx.payload);
    if let Ok(n) = r.get_varint() {
        for _ in 0..n {
            match LogEntry::decode(&mut r) {
                Ok(e) => out.push((e.correlation, e.point)),
                Err(_) => break,
            }
        }
    }
    out
}

/// Executes the scenario script: policy administration, tenant churn and
/// fault windows, decomposed into the provisioning events above.
pub(super) struct Controller {
    /// The script, each action taken out when it fires: a publish hands
    /// its policy on by value instead of copying the policy base.
    pub(super) script: Vec<Option<ScriptedAction>>,
    pub(super) placement: PdpPlacement,
    pub(super) infra_li: usize,
}

impl Controller {
    fn pdp_slot_for(&self, ctx: &Ctx<'_>, cloud: CloudId) -> usize {
        match self.placement {
            PdpPlacement::Central => 0,
            PdpPlacement::PerCloud => *ctx
                .pdp_slot_of_cloud
                .get(&cloud.0)
                .expect("script addresses an existing cloud"),
        }
    }

    /// The LI a script action addresses by tenant
    /// ([`TenantId::INFRASTRUCTURE`] = the infra LI).
    fn li_for(&self, ctx: &Ctx<'_>, tenant: TenantId) -> usize {
        if tenant.is_infrastructure() {
            return self.infra_li;
        }
        let idx = ctx
            .tenants
            .iter()
            .position(|t| t.spec.id == tenant)
            .expect("script addresses an existing tenant's LI");
        ctx.li_of_tenant[idx]
    }
}

/// Mines an attacker's block on `parent` (an imported block), at the
/// height and difficulty the chain demands there.
fn mine_on(ctx: &Ctx<'_>, parent: BlockHash, txs: Vec<Transaction>, timestamp: SimTime) -> Block {
    let chain = ctx.node.chain();
    let height = chain.block(&parent).expect("imported parent").header.height + 1;
    let bits = chain
        .required_difficulty(&parent)
        .expect("parent difficulty");
    Block::mine(parent, height, txs, timestamp, bits)
}

impl Controller {
    pub(super) fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_>, out: &mut Outbox) {
        match msg {
            Msg::Script(i) => match self.script[i]
                .take()
                .expect("a scripted action fires once: scheduled at bootstrap, never on the wire")
            {
                ScriptedAction::PublishPolicy { policy, .. } => {
                    out.emit(0, Msg::PolicyAdmin(PolicyAdmin::Publish(policy)));
                }
                ScriptedAction::RollbackPolicy { version, .. } => {
                    out.emit(0, Msg::PolicyAdmin(PolicyAdmin::Rollback(version)));
                }
                ScriptedAction::TenantJoin {
                    cloud, services, ..
                } => {
                    let id = ctx.tenants.iter().map(|t| t.spec.id.0).max().unwrap_or(0) + 1;
                    let tenant = ctx.tenants.len();
                    ctx.tenants.push(TenantRuntime {
                        spec: TenantSpec {
                            id: TenantId(id),
                            cloud,
                            pep: PepId(id),
                            services: (0..services.max(1))
                                .map(|s| format!("svc-{id}-{s}"))
                                .collect(),
                        },
                        departed: false,
                    });
                    // LIs sit at [members 0..n, infra at n, joined at
                    // n+1…], so a joined tenant's LI index is tenant+1.
                    let li = tenant + 1;
                    debug_assert!(li > self.infra_li);
                    ctx.li_of_tenant.push(li);
                    debug_assert_eq!(ctx.li_site.len(), li);
                    ctx.li_site.push(Site::Cloud(cloud));
                    let slot = self.pdp_slot_for(ctx, cloud);
                    ctx.pdp_slot_of_tenant.push(slot);
                    out.emit(0, Msg::ProvisionPep { tenant });
                    out.emit(0, Msg::ProvisionLi { li });
                    out.emit(
                        0,
                        Msg::ProvisionProbeKey {
                            probe: ProbeId(tenant as u32 + 1),
                        },
                    );
                    // The tenant takes a short, churn-stream-jittered
                    // settle time before the workload targets it.
                    let settle = ctx.rngs.churn.gen_range(0..=MILLIS);
                    out.emit(settle, Msg::ActivateTenant { tenant });
                }
                ScriptedAction::TenantLeave { tenant, .. } => {
                    if let Some(idx) = ctx.tenants.iter().position(|t| t.spec.id == tenant) {
                        ctx.tenants[idx].departed = true;
                        ctx.active_tenants.retain(|&t| t != idx);
                    }
                }
                ScriptedAction::StallLi { until, tenant, .. } => {
                    let li = self.li_for(ctx, tenant);
                    out.emit(0, Msg::StallLi { li, until });
                }
                ScriptedAction::SilencePdp { until, cloud, .. } => {
                    let slot = self.pdp_slot_for(ctx, cloud);
                    out.emit(0, Msg::SilencePdp { slot, until });
                }
                ScriptedAction::CrashRestart { target, .. } => match target {
                    CrashTarget::ChainNode => out.emit(0, Msg::CrashChain),
                    CrashTarget::Analyser => out.emit(0, Msg::CrashAnalyser),
                    CrashTarget::Li(tenant) => {
                        let li = self.li_for(ctx, tenant);
                        out.emit(0, Msg::CrashLi { li });
                    }
                    CrashTarget::Pdp(cloud) => {
                        let slot = self.pdp_slot_for(ctx, cloud);
                        out.emit(0, Msg::CrashPdp { slot });
                    }
                },
                ScriptedAction::ForkChain { depth, .. } => {
                    let tip_height = ctx.node.chain().tip_header().height;
                    let depth = depth.min(tip_height);
                    if depth == 0 {
                        return; // nothing above genesis to rewrite — no attack mounted
                    }
                    let start = tip_height - depth + 1;
                    let originals: Vec<Block> = (start..=tip_height)
                        .map(|h| {
                            ctx.node
                                .chain()
                                .block_at_height(h)
                                .expect("main-chain height")
                                .clone()
                        })
                        .collect();
                    // Re-mine the suffix on a side branch: same transactions
                    // and timestamps (so the contract re-executes to
                    // byte-identical events after the reorg), different nonce
                    // (so the rewritten blocks hash differently).
                    let mut parent = originals[0].header.parent;
                    let mut last_ts = 0;
                    for orig in originals {
                        let mut block = orig;
                        block.header.parent = parent;
                        block.header.nonce = block.header.nonce.wrapping_add(1);
                        while !block.header.meets_difficulty() {
                            block.header.nonce = block.header.nonce.wrapping_add(1);
                        }
                        parent = block.hash();
                        last_ts = block.header.timestamp_ms;
                        ctx.node.receive_block(block).expect("side-branch import");
                    }
                    // One extra empty block out-works the honest chain and
                    // forces the reorg.
                    let extra = mine_on(ctx, parent, Vec::new(), last_ts + 1);
                    ctx.node.receive_block(extra).expect("fork reorg import");
                    ctx.truth.chain_forks += 1;
                }
                ScriptedAction::EquivocateBlock { .. } => {
                    let tip = ctx.node.chain().tip_hash();
                    let first = mine_on(ctx, tip, Vec::new(), now);
                    let second = mine_on(ctx, tip, Vec::new(), now + 1);
                    ctx.node.receive_block(first).expect("equivocation import");
                    ctx.node
                        .receive_block(second)
                        .expect("equivocation sibling import");
                    ctx.truth.equivocations += 1;
                }
                ScriptedAction::InvalidSignatureBlock { .. } => {
                    // A correctly signed transaction whose payload is altered
                    // after signing: structurally valid, id consistent, but
                    // the signature no longer verifies. The simulated node
                    // skips import-time signature checks (the Byzantine
                    // premise); the Analyser's independent audit must not.
                    let forger = Keypair::from_seed(b"drams-byzantine-miner");
                    let mut body = Transaction::new_signed(&forger, 0, "bogus", "noop", Vec::new())
                        .into_body();
                    body.payload = b"forged".to_vec();
                    let tx = Transaction::from_body(body);
                    let block = mine_on(ctx, ctx.node.chain().tip_hash(), vec![tx], now);
                    ctx.node
                        .receive_block(block)
                        .expect("byzantine block import");
                    ctx.truth.invalid_sig_blocks += 1;
                }
                ScriptedAction::WithholdTx { .. } => {
                    // Withhold the *youngest* (highest-nonce) pending log
                    // transaction of the first LI with commits in flight.
                    // Its nonce slot is the sender's next to be reused, so
                    // the withhold suppresses exactly the entries the
                    // transaction carries. Withholding an older-nonce
                    // transaction would additionally wedge every
                    // later-nonce commit of that account (LIs are
                    // fire-and-forget and never repair a nonce gap) — a
                    // consequential cascade the ground truth could not
                    // label entry-by-entry.
                    let is_log_tx = |tx: &&Transaction| {
                        tx.contract == MONITOR_CONTRACT && tx.method == "store_log_batch"
                    };
                    let sender = ctx
                        .node
                        .pending_transactions()
                        .find(is_log_tx)
                        .map(Transaction::sender_address);
                    let target = sender.and_then(|address| {
                        ctx.node
                            .pending_transactions()
                            .filter(is_log_tx)
                            .filter(|tx| tx.sender_address() == address)
                            .max_by_key(|tx| tx.nonce)
                            .map(Transaction::id)
                    });
                    if let Some(id) = target {
                        if let Some(tx) = ctx.node.withhold_transaction(&id) {
                            ctx.truth.withheld_logs.extend(logged_entry_keys(&tx));
                        }
                    }
                }
            },
            Msg::ActivateTenant { tenant } => {
                if !ctx.tenants[tenant].departed {
                    ctx.active_tenants.push(tenant);
                }
            }
            _ => unreachable!("misrouted event"),
        }
    }
}
