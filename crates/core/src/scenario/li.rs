//! The per-tenant Logging Interfaces: stall windows, chain-link spill and
//! replay, crash recovery from the backlog WAL.

use super::ctx::Ctx;
use super::msg::{Msg, Outbox};
use crate::li::LoggingInterface;
use crate::logent::LogEntry;
use drams_crypto::aead::SymmetricKey;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::SimTime;
use drams_faas::fault::Site;
use drams_store::StoreError;

/// One Logging Interface with its simulation-side bookkeeping.
struct LiSlot {
    li: LoggingInterface,
    /// Entries queued in process memory while the LI is stalled.
    backlog: Vec<LogEntry>,
    stalled_until: SimTime,
    /// When the LI last lost its chain link (for recovery latency).
    offline_since: SimTime,
}

/// The per-tenant Logging Interfaces (plus the infrastructure LI).
pub(super) struct LiService {
    slots: Vec<LiSlot>,
    flush_interval: SimTime,
    batch_size: usize,
    key: SymmetricKey,
}

impl LiService {
    /// `count` LIs named `li-0..`, each writing ahead to the backlog WAL
    /// it owns.
    pub(super) fn new(
        count: usize,
        flush_interval: SimTime,
        batch_size: usize,
        key: SymmetricKey,
    ) -> Self {
        let mut service = LiService {
            slots: Vec::new(),
            flush_interval,
            batch_size,
            key,
        };
        for _ in 0..count {
            service.push_li();
        }
        service
    }

    fn push_li(&mut self) {
        let name = format!("li-{}", self.slots.len());
        let li = LoggingInterface::new(
            name.clone(),
            self.key.clone(),
            Keypair::from_seed(name.as_bytes()),
            self.batch_size,
        );
        self.slots.push(LiSlot {
            li,
            backlog: Vec::new(),
            stalled_until: 0,
            offline_since: 0,
        });
    }

    /// LI `li`'s process dies and restarts from its backlog WAL (see
    /// [`LoggingInterface::crash_restart`]). Entries queued at a
    /// *stalled* LI live only in the process and were never acknowledged
    /// into the WAL, so a crash during a stall window honestly loses
    /// them — the monitor then surfaces the loss as `MissingLog` alerts.
    pub(super) fn crash_restart(&mut self, li: usize) -> Result<(), StoreError> {
        let slot = &mut self.slots[li];
        slot.li.crash_restart()?;
        slot.backlog.clear();
        Ok(())
    }

    /// Reconciles the LI's offline flag with the fault plane's current
    /// partition state of its chain link. Going offline starts the spill
    /// clock; coming back counts the spilled backlog as replayed and
    /// records the outage length (the next flush tick drains it).
    fn sync_chain_link(&mut self, li: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let site = ctx.li_site[li];
        let cut = site != Site::Infra && ctx.fault_plane.partitioned(now, site, Site::Infra);
        let slot = &mut self.slots[li];
        let was = slot.li.is_offline();
        if cut && !was {
            slot.li.set_offline(true);
            slot.offline_since = now;
        } else if !cut && was {
            slot.li.set_offline(false);
            ctx.report.li_replayed += slot.li.buffered() as u64;
            ctx.report.spill_recovery.record(now - slot.offline_since);
        }
    }

    fn store(&mut self, li: usize, entry: LogEntry, ctx: &mut Ctx<'_>) {
        let slot = &mut self.slots[li];
        slot.li.store(entry, &mut ctx.node).expect("li submission");
        if slot.li.is_offline() {
            ctx.report.li_spilled += 1;
        }
        ctx.report.max_mempool = ctx.report.max_mempool.max(ctx.node.mempool_len());
        ctx.report.peak.li_resident = ctx.report.peak.li_resident.max(slot.li.buffered() as u64);
    }

    fn drain_backlog(&mut self, li: usize, ctx: &mut Ctx<'_>) {
        let backlog = std::mem::take(&mut self.slots[li].backlog);
        for entry in backlog {
            self.store(li, entry, ctx);
        }
    }

    pub(super) fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_>, out: &mut Outbox) {
        match msg {
            Msg::LiDeliver { li, entry } => {
                if now < self.slots[li].stalled_until {
                    self.slots[li].backlog.push(entry);
                    return;
                }
                self.sync_chain_link(li, now, ctx);
                self.drain_backlog(li, ctx);
                self.store(li, entry, ctx);
            }
            Msg::LiFlushTick { li } => {
                self.sync_chain_link(li, now, ctx);
                if now >= self.slots[li].stalled_until {
                    self.drain_backlog(li, ctx);
                    self.slots[li].li.flush(&mut ctx.node).expect("li flush");
                }
                ctx.report.max_mempool = ctx.report.max_mempool.max(ctx.node.mempool_len());
                if out.within_deadline(now) {
                    out.emit(self.flush_interval, Msg::LiFlushTick { li });
                }
            }
            Msg::StallLi { li, until } => {
                self.slots[li].stalled_until = until;
            }
            Msg::ProvisionLi { li } => {
                debug_assert_eq!(li, self.slots.len(), "lis provision in index order");
                self.push_li();
                out.emit(self.flush_interval, Msg::LiFlushTick { li });
            }
            _ => unreachable!("misrouted event"),
        }
    }
}
