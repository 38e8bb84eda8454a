//! The chain node as a service: mining cadence, epoch sweep, alert
//! harvest, journal compaction and crash recovery.

use super::ctx::Ctx;
use super::msg::Msg;
use crate::alert::Alert;
use crate::contract::{MonitorContract, GROUP_COMPLETE_EVENT, MONITOR_CONTRACT};
use drams_chain::chain::ChainConfig;
use drams_crypto::codec::Decode;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{Outbox, SimService, SimTime};
use drams_faas::transport::WireRole;
use drams_store::persist::{compact_node_journal, recover_node, WalJournal};

/// The chain node: mines on a cadence, submits the epoch sweep, and
/// harvests committed contract events into the report.
pub(super) struct ChainService {
    pub(super) admin: Keypair,
    pub(super) epoch_blocks: u64,
    pub(super) block_interval: SimTime,
    pub(super) event_cursor: usize,
    /// The chain configuration of the deployment — a crashed node is
    /// rebuilt with the same parameters before the journal replays.
    pub(super) chain_config: ChainConfig,
    /// Compact the write-ahead journal every this many blocks (0 = off).
    pub(super) compact_interval: u64,
    /// Journal sequence the last compaction snapshot covers; the live
    /// record count is `next_seq - journal_base`.
    pub(super) journal_base: u64,
}

impl<'a> SimService<Msg, Ctx<'a>> for ChainService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        if let Msg::SetTimeout { timeout } = msg {
            // Degraded mode: retune the epoch sweep's group timeout
            // on-chain (widened across a disruption window so transient
            // faults don't masquerade as withheld logs, restored after
            // the settle). Commits with the next mined block.
            ctx.node
                .submit_call(
                    &self.admin,
                    MONITOR_CONTRACT,
                    "set_timeout",
                    MonitorContract::set_timeout_payload(timeout),
                )
                .expect("set_timeout submission");
            ctx.report.timeout_retunes += 1;
            return;
        }
        if matches!(msg, Msg::CrashChain) {
            ctx.transport
                .restart(WireRole::Chain)
                .expect("transport restart");
            // The node process dies: chain, contract state and mempool
            // are gone; the write-ahead journal survives. Replaying it
            // reconstructs all three exactly, and the recovered node
            // resumes journaling on the same log.
            ctx.node_wal
                .borrow_mut()
                .simulate_crash()
                .expect("node wal recovery");
            let mut node = recover_node(
                &ctx.node_wal.borrow(),
                self.chain_config.clone(),
                vec![Box::new(MonitorContract)],
            )
            .expect("chain node recovery");
            node.set_journal(Box::new(WalJournal::new(ctx.node_wal.clone())));
            ctx.node = node;
            ctx.report.crash_restarts += 1;
            return;
        }
        debug_assert!(matches!(msg, Msg::MineTick));
        let next_height = ctx.node.chain().tip_header().height + 1;
        if self.epoch_blocks > 0 && next_height % self.epoch_blocks == 0 {
            ctx.node
                .submit_call(&self.admin, MONITOR_CONTRACT, "advance_epoch", vec![])
                .expect("epoch submission");
        }
        ctx.report.max_mempool = ctx.report.max_mempool.max(ctx.node.mempool_len());
        let block = ctx.node.mine_block(now).expect("mining");
        ctx.report.blocks_mined += 1;
        ctx.report.txs_committed += block.transactions.len() as u64;
        for tx in &block.transactions {
            if let Some(times) = ctx.tx_entry_times.remove(&tx.id()) {
                for t in times {
                    ctx.report.log_commit_latency.record(now.saturating_sub(t));
                    ctx.report.entries_logged += 1;
                }
            }
        }
        // Harvest newly committed contract events.
        let (events, cursor) = ctx.node.events_since(self.event_cursor);
        let new_alerts: Vec<Alert> = events
            .iter()
            .filter(|e| e.name.starts_with("alert."))
            .filter_map(|e| Alert::from_canonical_bytes(&e.data).ok())
            .collect();
        ctx.report.groups_completed += events
            .iter()
            .filter(|e| e.name == GROUP_COMPLETE_EVENT)
            .count() as u64;
        self.event_cursor = cursor;
        for mut alert in new_alerts {
            if let Some(issued) = ctx.issued_at_by_corr.get(&alert.correlation) {
                ctx.report
                    .detection_latency
                    .record(now.saturating_sub(*issued));
            }
            // Detection time on the wall: when the block carrying the
            // alert was committed.
            alert.detected_at = now;
            ctx.report.alerts.push(alert);
        }
        // Capacity gauges: live journal records and contract-storage
        // keys, sampled once per block (pure reads — no RNG, no state).
        let live_records = ctx
            .node_wal
            .borrow()
            .next_seq()
            .saturating_sub(self.journal_base);
        ctx.report.peak.chain_journal_records =
            ctx.report.peak.chain_journal_records.max(live_records);
        if let Some(storage) = ctx.node.host().storage_of(MONITOR_CONTRACT) {
            ctx.report.peak.contract_storage =
                ctx.report.peak.contract_storage.max(storage.len() as u64);
        }
        if self.compact_interval > 0 && next_height % self.compact_interval == 0 {
            // Bounded-journal mode: fold everything mined so far into a
            // snapshot and drop the sealed segments. Recovery replays
            // snapshot-then-tail and reconstructs the same node.
            compact_node_journal(&mut ctx.node_wal.borrow_mut()).expect("chain journal compaction");
            self.journal_base = ctx.node_wal.borrow().next_seq();
            ctx.report.journal_compactions += 1;
        }
        if out.within_deadline(now) {
            out.emit(self.block_interval, Msg::MineTick);
        }
    }
}
