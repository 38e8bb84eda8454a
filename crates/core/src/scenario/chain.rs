//! The chain node as a service: mining cadence, epoch sweep, alert
//! harvest and crash recovery.

use super::ctx::Ctx;
use super::msg::{Msg, Outbox};
use crate::alert::Alert;
use crate::contract::{
    read_batch, read_retired, MonitorContract, GROUP_COMPLETE_EVENT, MONITOR_CONTRACT,
};
use drams_chain::chain::ChainConfig;
use drams_crypto::codec::Decode;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::SimTime;
use drams_store::persist::{recover_node, WalJournal};
use drams_store::StoreError;
use std::sync::Arc;

/// The chain node: mines on a cadence, submits the epoch sweep, and
/// harvests committed contract events into the report.
pub(super) struct ChainService {
    pub(super) admin: Keypair,
    pub(super) epoch_blocks: u64,
    pub(super) block_interval: SimTime,
    /// The chain configuration of the deployment — a crashed node is
    /// rebuilt with the same parameters before the journal replays.
    pub(super) chain_config: ChainConfig,
}

impl ChainService {
    /// The node process dies: chain, contract state and mempool are gone;
    /// the write-ahead journal survives. Replaying it reconstructs all
    /// three exactly, and the recovered node resumes journaling on the
    /// same log. (The node is rebuilt, not restarted in place:
    /// `drams-chain` does not know the store its journal lives in.)
    pub(super) fn crash_restart(&self, ctx: &mut Ctx<'_>) -> Result<(), StoreError> {
        ctx.node_wal.borrow_mut().simulate_crash()?;
        let mut node = recover_node(
            &ctx.node_wal.borrow(),
            self.chain_config.clone(),
            vec![Box::new(MonitorContract)],
        )?;
        node.set_journal(Box::new(WalJournal::new(ctx.node_wal.clone())));
        ctx.node = node;
        Ok(())
    }

    pub(super) fn handle(&self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_>, out: &mut Outbox) {
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
        debug_assert!(matches!(msg, Msg::MineTick));
        let next_height = ctx.node.chain().tip_header().height + 1;
        if self.epoch_blocks > 0 && next_height.is_multiple_of(self.epoch_blocks) {
            ctx.node
                .submit_call(&self.admin, MONITOR_CONTRACT, "advance_epoch", vec![])
                .expect("epoch submission");
        }
        ctx.report.max_mempool = ctx.report.max_mempool.max(ctx.node.mempool_len());
        let block = ctx.node.mine_block(now).expect("mining");
        ctx.report.blocks_mined += 1;
        ctx.report.txs_committed += block.transactions.len() as u64;
        // Each entry an LI batch in this block carries is logged now,
        // `now - observed_at` after its probe saw it. The block's
        // retirements are read once its alerts are recorded.
        let mut retirements = Vec::new();
        for tx in &block.transactions {
            if tx.contract != MONITOR_CONTRACT {
                continue;
            }
            match tx.method.as_str() {
                // Only the LIs submit batches, and theirs always read.
                "store_log_batch" => {
                    let _ = read_batch(&tx.payload, |entry, _| {
                        ctx.report
                            .log_commit_latency
                            .record(now.saturating_sub(entry.observed_at));
                        ctx.report.entries_logged += 1;
                        Ok(())
                    });
                }
                "retire_groups" => retirements.push(Arc::clone(&tx.payload)),
                _ => {}
            }
        }
        // Harvest newly committed contract events.
        let (events, cursor) = ctx.node.events_since(ctx.event_cursor);
        let new_alerts: Vec<Alert> = events
            .iter()
            .filter(|e| e.name.starts_with("alert."))
            .filter_map(|e| Alert::from_canonical_bytes(&e.data).ok())
            .collect();
        ctx.report.groups_completed += events
            .iter()
            .filter(|e| e.name == GROUP_COMPLETE_EVENT)
            .count() as u64;
        ctx.event_cursor = cursor;
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
        // A retired group raises no further alert: a late duplicate below
        // its PEP's mark is a no-op, and the Analyser's reports precede
        // its retirements by nonce. So its issue time, needed only for an
        // alert's detection latency, goes with the block that retires it.
        for payload in retirements {
            let _ = read_retired(&payload, |corr| {
                ctx.issued_at_by_corr.remove(&corr);
                Ok(())
            });
        }
        // Capacity gauges: journal records and contract-storage keys,
        // sampled once per block (pure reads — no RNG, no state).
        let journal_records = ctx.node_wal.borrow().next_seq();
        ctx.report.peak.chain_journal_records =
            ctx.report.peak.chain_journal_records.max(journal_records);
        if let Some(storage) = ctx.node.host().storage_of(MONITOR_CONTRACT) {
            ctx.report.peak.contract_storage =
                ctx.report.peak.contract_storage.max(storage.len() as u64);
        }
        if out.within_deadline(now) {
            out.emit(self.block_interval, Msg::MineTick);
        }
    }
}
