//! The DRAMS monitor smart contract.
//!
//! Paper §II: the blockchain stores and compares logs "using expressly
//! devised algorithms, thus to mitigate threat that modifies access
//! control decisions or responses." This contract implements those
//! algorithms:
//!
//! 1. **Pairwise digest matching** — the PEP-side and PDP-side digests of
//!    the same request (and of the same response) must be equal; a
//!    mismatch raises `RequestTampering` / `ResponseTampering` on-chain.
//! 2. **Completeness with epoch timeout** — all four observations must
//!    arrive before the group's deadline; `advance_epoch` sweeps expired
//!    groups and raises `MissingLog` for suppressed observations. Each
//!    PEP numbers its requests densely, so an entry numbered past its
//!    PEP's mark opens an empty group for every number it skipped (the
//!    gap rule): a request whose every observation was suppressed times
//!    out like any other. Every number below its PEP's mark therefore
//!    has a `grp/` record until `retire_groups` deletes it, so a number
//!    below the mark with no record is retired.
//! 3. **Conflict detection** — re-submission of an observation with
//!    different content raises `ConflictingObservation`.
//! 4. **Violation reports** — the (authorised) Analyser reports its
//!    `PolicyViolation` / `EnforcementMismatch` / `MonitorCompromise`
//!    findings on-chain, making them non-repudiable: each is a signed
//!    `report_violation` transaction in a block and an `alert.*` event.
//!    The contract stores nothing for it; nothing would read a copy.
//!
//! Every node runs this contract on every entry, so the per-entry path
//! copies nothing, not even what it keeps. Entries are decoded as
//! `LogEntryRef`s, borrowing their ciphertext from the payload; the
//! value stored for an entry is its exact span of the payload, which the
//! canonical codec makes equal to its re-encoding, stored as a span of
//! the transaction's own payload buffer
//! (`ExecutionContext::store_payload_span`) rather than a copy: the
//! entry's bytes are held once, by the block, and a stored entry pins its
//! transaction's payload until `retire_groups` removes it; the duplicate and
//! sibling checks read a stored entry's digest in place
//! (`LogEntry::stored_digest`); and storage keys are fixed-size arrays
//! built on the stack (`ent/` + correlation + point, `grp/` +
//! correlation, `open/` + correlation, `seq/` + PEP id), which contract
//! storage holds inline.

use crate::alert::{Alert, AlertKind};
use crate::logent::{LogEntry, LogEntryRef, ObservationPoint};
use drams_chain::contract::{ExecutionContext, SmartContract};
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::sha256::Digest;
use drams_faas::model::PepId;
use drams_faas::msg::CorrelationId;
use std::ops::Range;

/// The contract's registry name.
pub const MONITOR_CONTRACT: &str = "drams-monitor";

/// Event emitted when a group has all four observations.
pub(crate) const GROUP_COMPLETE_EVENT: &str = "group.complete";

/// The monitor contract (stateless logic; state lives in contract
/// storage so reorg re-execution is deterministic).
#[derive(Debug, Default)]
pub struct MonitorContract;

/// The most numbers one entry may skip past its PEP's mark. An entry
/// that jumps further opens no placeholder groups and raises one
/// `MonitorCompromise`, one per entry (a forged complete group raises
/// four): the contract cannot check probe MACs, so a forged number must
/// not make it open millions of groups.
const MAX_GAP: u64 = 1_024;

#[derive(Debug, Clone, Copy, PartialEq)]
struct GroupState {
    first_seen: u64,
    mask: u8,
    closed: bool,
}

impl GroupState {
    fn encode(self) -> Vec<u8> {
        let mut w = Writer::with_capacity(10);
        w.put_u64(self.first_seen);
        w.put_u8(self.mask);
        w.put_bool(self.closed);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let state = GroupState {
            first_seen: r.get_u64().map_err(|e| e.to_string())?,
            mask: r.get_u8().map_err(|e| e.to_string())?,
            closed: r.get_bool().map_err(|e| e.to_string())?,
        };
        r.finish().map_err(|e| e.to_string())?;
        Ok(state)
    }

    fn is_complete(self) -> bool {
        self.mask == 0b1111
    }
}

/// `tag` followed by `id` big-endian, in a stack buffer of `N` bytes.
fn tagged_key<const N: usize>(tag: &[u8], id: u64) -> [u8; N] {
    let mut k = [0u8; N];
    k[..tag.len()].copy_from_slice(tag);
    k[tag.len()..tag.len() + 8].copy_from_slice(&id.to_be_bytes());
    k
}

/// Where one observation of a group is stored: `ent/`, the correlation
/// id and the point's code.
pub(crate) fn entry_key(correlation: CorrelationId, point: ObservationPoint) -> [u8; 13] {
    let mut k = tagged_key(b"ent/", correlation.0);
    k[12] = point.code();
    k
}

fn group_key(correlation: CorrelationId) -> [u8; 12] {
    tagged_key(b"grp/", correlation.0)
}

fn open_key(correlation: CorrelationId) -> [u8; 13] {
    tagged_key(b"open/", correlation.0)
}

/// Where a PEP's mark is stored: the number its next request should
/// carry, one past the highest the contract has seen.
fn mark_key(pep: PepId) -> [u8; 12] {
    tagged_key(b"seq/", u64::from(pep.0))
}

impl MonitorContract {
    /// Encodes the `init` payload.
    #[must_use]
    pub fn init_payload(timeout_us: u64, analyser: Digest) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(timeout_us);
        analyser.encode(&mut w);
        w.into_bytes()
    }

    fn handle_init(ctx: &mut ExecutionContext<'_>, payload: &[u8]) -> Result<(), String> {
        if ctx.storage.get(b"cfg/timeout").is_some() {
            return Err("already initialised".into());
        }
        let mut r = Reader::new(payload);
        let timeout = r.get_u64().map_err(|e| e.to_string())?;
        let analyser = Digest::decode(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        ctx.storage
            .insert(b"cfg/timeout", timeout.to_be_bytes().to_vec());
        ctx.storage
            .insert(b"cfg/analyser", analyser.as_bytes().to_vec());
        // The initialising sender becomes the contract admin — the only
        // party allowed to retune the epoch timeout later (degraded-mode
        // widening during declared fault windows).
        let admin = ctx.sender_address();
        ctx.storage.insert(b"cfg/admin", admin.as_bytes().to_vec());
        Ok(())
    }

    /// Errs unless the call's sender is the `role` whose address the
    /// contract stored under `cfg_key` when it was initialised.
    fn check_sender(ctx: &ExecutionContext<'_>, cfg_key: &[u8], role: &str) -> Result<(), String> {
        let party = ctx.storage.get(cfg_key).ok_or("not initialised")?;
        if ctx.sender_address().as_bytes().as_slice() != party {
            return Err(format!("sender is not the {role}"));
        }
        Ok(())
    }

    /// Builds the payload for the `set_timeout` method.
    #[must_use]
    pub(crate) fn set_timeout_payload(timeout_us: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(timeout_us);
        w.into_bytes()
    }

    fn handle_set_timeout(ctx: &mut ExecutionContext<'_>, payload: &[u8]) -> Result<(), String> {
        Self::check_sender(ctx, b"cfg/admin", "contract admin")?;
        let mut r = Reader::new(payload);
        let timeout = r.get_u64().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        if timeout == 0 {
            return Err("timeout must be positive".into());
        }
        ctx.storage
            .insert(b"cfg/timeout", timeout.to_be_bytes().to_vec());
        Ok(())
    }

    fn emit_alert(ctx: &mut ExecutionContext<'_>, alert: &Alert) {
        ctx.emit(alert.kind.event_name(), alert.to_canonical_bytes());
    }

    /// Stores one observation and runs the checks it completes. `span` is
    /// where the entry's canonical encoding lies in the call's payload.
    fn store_entry(
        ctx: &mut ExecutionContext<'_>,
        entry: &LogEntryRef<'_>,
        span: Range<usize>,
    ) -> Result<(), String> {
        let now = ctx.timestamp_ms;
        let (pep, n) = entry.correlation.pep_number();
        let mark = match ctx.storage.get(&mark_key(pep)) {
            Some(bytes) => u64::from_be_bytes(
                bytes
                    .try_into()
                    .map_err(|_| format!("mark of pep {} is not 8 bytes", pep.0))?,
            ),
            None => 0,
        };
        let gkey = group_key(entry.correlation);
        let stored_group = ctx.storage.get(&gkey).map(GroupState::decode).transpose()?;
        // Below the mark, no record means retired: the group went through
        // every check and was pruned, so a late duplicate is a no-op.
        if stored_group.is_none() && n < mark {
            return Ok(());
        }
        let ekey = entry_key(entry.correlation, entry.point);
        if let Some(existing) = ctx.storage.get(&ekey) {
            let stored = LogEntry::stored_digest(existing).map_err(|e| e.to_string())?;
            if stored != entry.digest {
                Self::emit_alert(
                    ctx,
                    &Alert::new(
                        AlertKind::ConflictingObservation { point: entry.point },
                        entry.correlation,
                        now,
                        format!(
                            "point {} resubmitted with digest {} (stored {})",
                            entry.point, entry.digest, stored
                        ),
                    ),
                );
            }
            // First write wins either way: the chain's history is
            // append-only evidence.
            return Ok(());
        }
        ctx.store_payload_span(&ekey, span);
        Self::advance_mark(ctx, entry.correlation, mark)?;

        let mut group = stored_group.unwrap_or_else(|| Self::open_group(ctx, entry.correlation));
        group.mask |= entry.point.bit();

        // Checks 1 and 2: the request digests (PEP sent, PDP received) and
        // the response digests (PDP sent, PEP received) must match. An
        // observation is stored once, so each pair is compared once: when
        // its second half arrives.
        let (sender, receiver, kind, from, to) = match entry.point {
            ObservationPoint::PepRequest | ObservationPoint::PdpRequest => (
                ObservationPoint::PepRequest,
                ObservationPoint::PdpRequest,
                AlertKind::RequestTampering,
                "pep",
                "pdp",
            ),
            ObservationPoint::PdpResponse | ObservationPoint::PepResponse => (
                ObservationPoint::PdpResponse,
                ObservationPoint::PepResponse,
                AlertKind::ResponseTampering,
                "pdp",
                "pep",
            ),
        };
        let sibling = if entry.point == sender {
            receiver
        } else {
            sender
        };
        if group.mask & sibling.bit() != 0 {
            let stored = Self::stored_digest(ctx, entry.correlation, sibling)?;
            let (sent, received) = if entry.point == sender {
                (entry.digest, stored)
            } else {
                (stored, entry.digest)
            };
            if sent != received {
                Self::emit_alert(
                    ctx,
                    &Alert::new(
                        kind,
                        entry.correlation,
                        now,
                        format!("{from} sent {sent} but {to} received {received}"),
                    ),
                );
            }
        }

        // Check 3: completeness.
        if group.is_complete() && !group.closed {
            group.closed = true;
            ctx.storage.remove(&open_key(entry.correlation));
            ctx.emit(
                GROUP_COMPLETE_EVENT,
                entry.correlation.0.to_be_bytes().to_vec(),
            );
        }
        ctx.storage.insert(&gkey, group.encode());
        Ok(())
    }

    /// An empty group for `correlation`, first seen now, registered
    /// with the epoch sweep. The caller stores it.
    fn open_group(ctx: &mut ExecutionContext<'_>, correlation: CorrelationId) -> GroupState {
        ctx.storage.insert(&open_key(correlation), Vec::new());
        GroupState {
            first_seen: ctx.timestamp_ms,
            mask: 0,
            closed: false,
        }
    }

    /// The gap rule. A PEP numbers its requests densely from 0
    /// ([`CorrelationId::numbered`]), so when `correlation` lies past
    /// its PEP's mark, no entry of any number it skipped has arrived:
    /// each of those without a group gets an empty one, which the epoch
    /// sweep turns into `MissingLog` for all four points unless its
    /// entries arrive late and fill it. An entry that jumps more than
    /// [`MAX_GAP`] numbers raises one `MonitorCompromise` instead, one
    /// per entry, and leaves the mark where it was. `mark` is the stored
    /// mark, which the caller has read.
    fn advance_mark(
        ctx: &mut ExecutionContext<'_>,
        correlation: CorrelationId,
        mark: u64,
    ) -> Result<(), String> {
        let (pep, n) = correlation.pep_number();
        if n < mark {
            return Ok(());
        }
        if n - mark > MAX_GAP {
            let detail = format!("number {n} skips {} past the mark {mark}", n - mark);
            let now = ctx.timestamp_ms;
            let alert = Alert::new(AlertKind::MonitorCompromise, correlation, now, detail);
            Self::emit_alert(ctx, &alert);
            return Ok(());
        }
        for skipped in (mark..n).map(|k| CorrelationId::numbered(pep, k)) {
            let gkey = group_key(skipped);
            if ctx.storage.get(&gkey).is_none() {
                let group = Self::open_group(ctx, skipped);
                ctx.storage.insert(&gkey, group.encode());
            }
        }
        ctx.storage
            .insert(&mark_key(pep), (n + 1).to_be_bytes().to_vec());
        Ok(())
    }

    /// The digest of a stored observation, read in place.
    fn stored_digest(
        ctx: &ExecutionContext<'_>,
        correlation: CorrelationId,
        point: ObservationPoint,
    ) -> Result<Digest, String> {
        let bytes = ctx
            .storage
            .get(&entry_key(correlation, point))
            .ok_or_else(|| format!("entry {correlation}/{point} missing"))?;
        LogEntry::stored_digest(bytes).map_err(|e| e.to_string())
    }

    fn handle_advance_epoch(ctx: &mut ExecutionContext<'_>) -> Result<(), String> {
        let timeout = match ctx.storage.get(b"cfg/timeout") {
            Some(bytes) if bytes.len() == 8 => {
                u64::from_be_bytes(bytes.try_into().expect("length checked"))
            }
            _ => return Err("not initialised".into()),
        };
        let now = ctx.timestamp_ms;
        // Collect expired open groups first (cannot mutate while scanning).
        let expired: Vec<CorrelationId> = ctx
            .storage
            .scan_prefix(b"open/")
            .filter_map(|(key, _)| {
                let raw: [u8; 8] = key[5..13].try_into().ok()?;
                Some(CorrelationId(u64::from_be_bytes(raw)))
            })
            .filter(|corr| {
                ctx.storage
                    .get(&group_key(*corr))
                    .and_then(|b| GroupState::decode(b).ok())
                    .map(|g| g.first_seen.saturating_add(timeout) <= now)
                    .unwrap_or(false)
            })
            .collect();
        for corr in expired {
            let gkey = group_key(corr);
            let mut group =
                GroupState::decode(ctx.storage.get(&gkey).expect("scanned group exists"))?;
            for point in ObservationPoint::ALL {
                if group.mask & point.bit() == 0 {
                    Self::emit_alert(
                        ctx,
                        &Alert::new(
                            AlertKind::MissingLog { point },
                            corr,
                            now,
                            format!("observation {point} absent after {timeout}µs"),
                        ),
                    );
                }
            }
            group.closed = true;
            ctx.storage.remove(&open_key(corr));
            ctx.storage.insert(&gkey, group.encode());
        }
        Ok(())
    }

    /// Builds the payload for the `retire_groups` method.
    #[must_use]
    pub(crate) fn retire_groups_payload(correlations: &[CorrelationId]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(correlations.len() as u64);
        for corr in correlations {
            w.put_u64(corr.0);
        }
        w.into_bytes()
    }

    /// Deletes the closed groups the Analyser has finished verifying:
    /// their `grp/` record and their `ent/` entries. Analyser-gated: only
    /// the party that consumes the evidence may declare it consumed.
    /// Groups that are missing (already retired among them) or still
    /// open are skipped — retirement must be idempotent under reorg
    /// re-execution.
    fn handle_retire_groups(ctx: &mut ExecutionContext<'_>, payload: &[u8]) -> Result<(), String> {
        Self::check_sender(ctx, b"cfg/analyser", "authorised analyser")?;
        read_retired(payload, |corr| {
            let gkey = group_key(corr);
            let Some(bytes) = ctx.storage.get(&gkey) else {
                return Ok(());
            };
            if !GroupState::decode(bytes)?.closed {
                return Ok(());
            }
            for point in ObservationPoint::ALL {
                ctx.storage.remove(&entry_key(corr, point));
            }
            ctx.storage.remove(&gkey);
            Ok(())
        })
    }

    fn handle_report_violation(
        ctx: &mut ExecutionContext<'_>,
        payload: &[u8],
    ) -> Result<(), String> {
        Self::check_sender(ctx, b"cfg/analyser", "authorised analyser")?;
        let alert = Alert::from_canonical_bytes(payload).map_err(|e| e.to_string())?;
        Self::emit_alert(ctx, &alert);
        Ok(())
    }
}

impl SmartContract for MonitorContract {
    fn name(&self) -> &'static str {
        MONITOR_CONTRACT
    }

    fn execute(
        &self,
        ctx: &mut ExecutionContext<'_>,
        method: &str,
        payload: &[u8],
    ) -> Result<(), String> {
        match method {
            "init" => Self::handle_init(ctx, payload),
            "store_log_batch" => {
                read_batch(payload, |entry, span| Self::store_entry(ctx, &entry, span))
            }
            "advance_epoch" => Self::handle_advance_epoch(ctx),
            "set_timeout" => Self::handle_set_timeout(ctx, payload),
            "report_violation" => Self::handle_report_violation(ctx, payload),
            "retire_groups" => Self::handle_retire_groups(ctx, payload),
            other => Err(format!("unknown method `{other}`")),
        }
    }
}

/// Encodes a batch of entries for `store_log_batch`: their count, then
/// each entry's canonical encoding.
#[must_use]
pub fn encode_batch(entries: &[LogEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_varint(entries.len() as u64);
    for e in entries {
        e.encode(&mut w);
    }
    w.into_bytes()
}

/// Reads a `store_log_batch` payload: a count, then that many entries,
/// then nothing. Each entry goes to `visit` in order, as a
/// [`LogEntryRef`] with its span of the payload: the range of `payload`
/// its canonical encoding occupies. The first malformed entry, trailing
/// bytes or error from `visit` ends the walk and is returned; the
/// entries before it were visited.
///
/// # Errors
///
/// The codec error, as text, when the payload is malformed; whatever
/// `visit` returns.
pub(crate) fn read_batch<'a>(
    payload: &'a [u8],
    mut visit: impl FnMut(LogEntryRef<'a>, Range<usize>) -> Result<(), String>,
) -> Result<(), String> {
    let mut r = Reader::new(payload);
    let n = r.get_varint().map_err(|e| e.to_string())?;
    for _ in 0..n {
        let (entry, bytes) = LogEntryRef::decode_spanned(&mut r).map_err(|e| e.to_string())?;
        let end = payload.len() - r.remaining();
        visit(entry, end - bytes.len()..end)?;
    }
    r.finish().map_err(|e| e.to_string())
}

/// Reads a `retire_groups` payload: a count, then that many correlation
/// ids, then nothing. Each id goes to `visit` in order; the first
/// malformed id, trailing bytes or error from `visit` ends the walk and
/// is returned.
///
/// # Errors
///
/// The codec error, as text, when the payload is malformed; whatever
/// `visit` returns.
pub(crate) fn read_retired(
    payload: &[u8],
    mut visit: impl FnMut(CorrelationId) -> Result<(), String>,
) -> Result<(), String> {
    let mut r = Reader::new(payload);
    let n = r.get_varint().map_err(|e| e.to_string())?;
    for _ in 0..n {
        visit(CorrelationId(r.get_u64().map_err(|e| e.to_string())?))?;
    }
    r.finish().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logent::ProbeId;
    use drams_chain::chain::ChainConfig;
    use drams_chain::node::Node;
    use drams_chain::tx::TxId;
    use drams_crypto::aead::{seal, SymmetricKey};
    use drams_crypto::schnorr::Keypair;

    fn test_node() -> (Node, Keypair, Keypair) {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(MonitorContract));
        let li = Keypair::from_seed(b"li");
        let analyser = Keypair::from_seed(b"analyser");
        let payload = MonitorContract::init_payload(10_000, analyser.public().fingerprint());
        node.submit_call(&li, MONITOR_CONTRACT, "init", payload)
            .unwrap();
        node.mine_block(0).unwrap();
        (node, li, analyser)
    }

    fn entry(corr: u64, point: ObservationPoint, digest: &[u8], at: u64) -> LogEntry {
        let key = SymmetricKey::from_bytes([1; 32]);
        let sealed = seal(&key, [0; 12], b"", b"payload");
        let mut e = LogEntry {
            correlation: CorrelationId(corr),
            point,
            probe: ProbeId(1),
            digest: Digest::of(digest),
            policy_version: None,
            observed_at: at,
            sealed_payload: sealed,
            probe_mac: Digest::ZERO,
        };
        e.probe_mac = e.compute_mac(&[7; 32]);
        e
    }

    fn submit_entry(node: &mut Node, li: &Keypair, e: &LogEntry) {
        node.submit_call(
            li,
            MONITOR_CONTRACT,
            "store_log_batch",
            encode_batch(std::slice::from_ref(e)),
        )
        .unwrap();
    }

    /// Whether transaction `id` executed and failed: its `tx.failed` event.
    fn failed(node: &Node, id: &TxId) -> bool {
        node.events()
            .iter()
            .any(|ev| ev.name == "tx.failed" && ev.tx_id == *id)
    }

    fn alert_events(node: &Node) -> Vec<Alert> {
        node.events()
            .iter()
            .filter(|ev| ev.name.starts_with("alert."))
            .map(|ev| Alert::from_canonical_bytes(&ev.data).unwrap())
            .collect()
    }

    #[test]
    fn matching_group_completes_without_alerts() {
        let (mut node, li, _) = test_node();
        for point in ObservationPoint::ALL {
            let d: &[u8] = if point.code() < 2 { b"req" } else { b"resp" };
            submit_entry(&mut node, &li, &entry(1, point, d, 100));
        }
        node.mine_block(1_000).unwrap();
        assert!(alert_events(&node).is_empty());
        assert!(node.events().iter().any(|e| e.name == GROUP_COMPLETE_EVENT));
    }

    #[test]
    fn request_mismatch_raises_alert() {
        let (mut node, li, _) = test_node();
        submit_entry(
            &mut node,
            &li,
            &entry(2, ObservationPoint::PepRequest, b"original", 100),
        );
        submit_entry(
            &mut node,
            &li,
            &entry(2, ObservationPoint::PdpRequest, b"tampered", 120),
        );
        node.mine_block(1_000).unwrap();
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::RequestTampering);
        assert_eq!(alerts[0].correlation, CorrelationId(2));
    }

    #[test]
    fn response_mismatch_raises_alert() {
        let (mut node, li, _) = test_node();
        submit_entry(
            &mut node,
            &li,
            &entry(3, ObservationPoint::PdpResponse, b"permit", 100),
        );
        submit_entry(
            &mut node,
            &li,
            &entry(3, ObservationPoint::PepResponse, b"deny!", 110),
        );
        node.mine_block(1_000).unwrap();
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::ResponseTampering);
    }

    #[test]
    fn missing_log_detected_after_timeout() {
        let (mut node, li, _) = test_node();
        // Only 3 of 4 observations arrive, of PEP 0's first request (a
        // later number alone would also time out the numbers before it).
        for point in [
            ObservationPoint::PepRequest,
            ObservationPoint::PdpRequest,
            ObservationPoint::PdpResponse,
        ] {
            submit_entry(&mut node, &li, &entry(0, point, b"x", 100));
        }
        node.mine_block(1_000).unwrap();
        // Epoch before the timeout: no alert yet.
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(5_000).unwrap();
        assert!(alert_events(&node).is_empty());
        // Epoch after the timeout: MissingLog for the PEP response.
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(20_000).unwrap();
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].kind,
            AlertKind::MissingLog {
                point: ObservationPoint::PepResponse
            }
        );
    }

    #[test]
    fn conflicting_resubmission_raises_alert() {
        let (mut node, li, _) = test_node();
        submit_entry(
            &mut node,
            &li,
            &entry(5, ObservationPoint::PepRequest, b"v1", 100),
        );
        node.mine_block(1_000).unwrap();
        // identical resubmission: idempotent, no alert
        submit_entry(
            &mut node,
            &li,
            &entry(5, ObservationPoint::PepRequest, b"v1", 100),
        );
        // different digest: conflict
        submit_entry(
            &mut node,
            &li,
            &entry(5, ObservationPoint::PepRequest, b"v2", 130),
        );
        node.mine_block(2_000).unwrap();
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].kind,
            AlertKind::ConflictingObservation {
                point: ObservationPoint::PepRequest
            }
        );
    }

    #[test]
    fn batch_submission_equals_singles() {
        let (mut node, li, _) = test_node();
        let entries: Vec<LogEntry> = ObservationPoint::ALL
            .iter()
            .map(|p| {
                let d: &[u8] = if p.code() < 2 { b"req" } else { b"resp" };
                entry(6, *p, d, 100)
            })
            .collect();
        node.submit_call(
            &li,
            MONITOR_CONTRACT,
            "store_log_batch",
            encode_batch(&entries),
        )
        .unwrap();
        node.mine_block(1_000).unwrap();
        assert!(node.events().iter().any(|e| e.name == GROUP_COMPLETE_EVENT));
        assert!(alert_events(&node).is_empty());
    }

    /// Every arrival order of a group's four observations, honest and with
    /// either or both digest pairs tampered: each pair is judged exactly
    /// once — by the arrival that completes it — and the group closes on
    /// the fourth arrival. The transcript digest (every event's name and
    /// bytes, then the stored group and entry records) was pinned on the
    /// implementation that re-ran both checks on every arrival.
    #[test]
    fn digest_checks_fire_once_in_every_arrival_order() {
        use ObservationPoint::{PdpRequest, PdpResponse, PepRequest, PepResponse};
        let (mut node, li, _) = test_node();
        let mut orders = Vec::new();
        for a in 0..4 {
            for b in (0..4).filter(|b| *b != a) {
                for c in (0..4).filter(|c| *c != a && *c != b) {
                    orders.push([a, b, c, 6 - a - b - c].map(|i| ObservationPoint::ALL[i]));
                }
            }
        }
        assert_eq!(orders.len(), 24);
        let mut transcript = drams_crypto::sha256::Sha256::new();
        let mut corr = 100;
        for order in &orders {
            for (bad_request, bad_response) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                corr += 1;
                let first_event = node.events().len();
                let mut expected = Vec::new();
                for (i, point) in order.iter().enumerate() {
                    let digest: &[u8] = match point {
                        PepRequest => b"req",
                        PdpRequest if bad_request => b"req, rewritten",
                        PdpRequest => b"req",
                        PdpResponse => b"resp",
                        PepResponse if bad_response => b"resp, rewritten",
                        PepResponse => b"resp",
                    };
                    submit_entry(&mut node, &li, &entry(corr, *point, digest, 100 + i as u64));
                    let (sibling, bad, alert) = match point {
                        PepRequest => (PdpRequest, bad_request, "alert.request_tampering"),
                        PdpRequest => (PepRequest, bad_request, "alert.request_tampering"),
                        PdpResponse => (PepResponse, bad_response, "alert.response_tampering"),
                        PepResponse => (PdpResponse, bad_response, "alert.response_tampering"),
                    };
                    if bad && order[..i].contains(&sibling) {
                        expected.push(alert);
                    }
                }
                expected.push(GROUP_COMPLETE_EVENT);
                node.mine_block(corr).unwrap();
                let events = &node.events()[first_event..];
                let names: Vec<&str> = events.iter().map(|e| e.name).collect();
                assert_eq!(names, expected, "order {order:?}");
                for event in events {
                    transcript.update(event.name.as_bytes());
                    transcript.update(&event.data);
                }
                let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
                transcript.update(storage.get(&group_key(CorrelationId(corr))).unwrap());
                for point in ObservationPoint::ALL {
                    transcript.update(storage.get(&entry_key(CorrelationId(corr), point)).unwrap());
                }
            }
        }
        assert_eq!(
            transcript.finalize().to_hex(),
            "e38d99eeea429d4c7cd3af401832af6e93c5c11a24b78b48d9eded2837344f13"
        );
    }

    #[test]
    fn report_violation_requires_authorised_sender() {
        let (mut node, li, analyser) = test_node();
        let alert = Alert::new(
            AlertKind::PolicyViolation,
            CorrelationId(7),
            500,
            "lying pdp",
        );
        // Unauthorised sender (the LI) is rejected at execution.
        let id = node
            .submit_call(
                &li,
                MONITOR_CONTRACT,
                "report_violation",
                alert.to_canonical_bytes(),
            )
            .unwrap();
        node.mine_block(1_000).unwrap();
        assert!(failed(&node, &id));
        assert!(alert_events(&node).is_empty());
        // The analyser succeeds.
        node.submit_call(
            &analyser,
            MONITOR_CONTRACT,
            "report_violation",
            alert.to_canonical_bytes(),
        )
        .unwrap();
        node.mine_block(2_000).unwrap();
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::PolicyViolation);
    }

    #[test]
    fn a_reported_violation_stores_nothing() {
        let (mut node, _, analyser) = test_node();
        let keys = |node: &Node| node.host().storage_of(MONITOR_CONTRACT).unwrap().len();
        let before = keys(&node);
        for corr in 0..3 {
            let alert = Alert::new(AlertKind::PolicyViolation, CorrelationId(corr), 500, "x");
            node.submit_call(
                &analyser,
                MONITOR_CONTRACT,
                "report_violation",
                alert.to_canonical_bytes(),
            )
            .unwrap();
        }
        node.mine_block(1_000).unwrap();
        // The alert is on chain as its transaction and its event.
        assert_eq!(alert_events(&node).len(), 3);
        assert_eq!(keys(&node), before);
    }

    #[test]
    fn set_timeout_widens_the_sweep_and_is_admin_gated() {
        let (mut node, li, analyser) = test_node(); // li initialised → li is admin
                                                    // Open a group with one entry at t=100; base timeout is 10_000.
        submit_entry(
            &mut node,
            &li,
            &entry(9, ObservationPoint::PepRequest, b"x", 100),
        );
        node.mine_block(1_000).unwrap();
        // A non-admin (the analyser) may not retune the timeout.
        let id = node
            .submit_call(
                &analyser,
                MONITOR_CONTRACT,
                "set_timeout",
                MonitorContract::set_timeout_payload(1_000_000),
            )
            .unwrap();
        node.mine_block(2_000).unwrap();
        assert!(failed(&node, &id));
        // The admin widens the timeout; the sweep at 50_000 (far past the
        // base deadline 100 + 10_000) must now stay silent.
        node.submit_call(
            &li,
            MONITOR_CONTRACT,
            "set_timeout",
            MonitorContract::set_timeout_payload(1_000_000),
        )
        .unwrap();
        node.mine_block(3_000).unwrap();
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(50_000).unwrap();
        assert!(alert_events(&node).is_empty(), "widened timeout held");
        // Restoring the base timeout re-arms the sweep: the group is now
        // long past first_seen + 10_000 and must alert.
        node.submit_call(
            &li,
            MONITOR_CONTRACT,
            "set_timeout",
            MonitorContract::set_timeout_payload(10_000),
        )
        .unwrap();
        node.mine_block(51_000).unwrap();
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(52_000).unwrap();
        let alerts = alert_events(&node);
        assert!(!alerts.is_empty(), "restored timeout sweeps the group");
        assert!(alerts
            .iter()
            .all(|a| matches!(a.kind, AlertKind::MissingLog { .. })));
    }

    #[test]
    fn set_timeout_rejects_zero_and_garbage() {
        let (mut node, li, _) = test_node();
        for payload in [MonitorContract::set_timeout_payload(0), vec![1, 2, 3]] {
            let id = node
                .submit_call(&li, MONITOR_CONTRACT, "set_timeout", payload)
                .unwrap();
            node.mine_block(1_000).unwrap();
            assert!(failed(&node, &id));
        }
    }

    #[test]
    fn retire_groups_deletes_closed_groups_and_ignores_late_duplicates() {
        let (mut node, li, analyser) = test_node();
        for point in ObservationPoint::ALL {
            let d: &[u8] = if point.code() < 2 { b"req" } else { b"resp" };
            submit_entry(&mut node, &li, &entry(0, point, d, 100));
        }
        node.mine_block(1_000).unwrap();
        let entries_before = node
            .host()
            .storage_of(MONITOR_CONTRACT)
            .unwrap()
            .scan_prefix(b"ent/")
            .count();
        assert_eq!(entries_before, 4);

        // Only the analyser may retire.
        let id = node
            .submit_call(
                &li,
                MONITOR_CONTRACT,
                "retire_groups",
                MonitorContract::retire_groups_payload(&[CorrelationId(0)]),
            )
            .unwrap();
        node.mine_block(2_000).unwrap();
        assert!(failed(&node, &id));

        node.submit_call(
            &analyser,
            MONITOR_CONTRACT,
            "retire_groups",
            MonitorContract::retire_groups_payload(&[CorrelationId(0)]),
        )
        .unwrap();
        node.mine_block(3_000).unwrap();
        let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0, "evidence pruned");
        assert_eq!(storage.scan_prefix(b"grp/").count(), 0, "record deleted");

        // A late duplicate of retired evidence (below the mark, no
        // record) is ignored: no reopened group, no MissingLog at the
        // next sweep.
        submit_entry(
            &mut node,
            &li,
            &entry(0, ObservationPoint::PepRequest, b"req", 100),
        );
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(60_000).unwrap();
        assert!(alert_events(&node).is_empty());
        let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0);
        assert_eq!(storage.scan_prefix(b"grp/").count(), 0);
        assert_eq!(storage.scan_prefix(b"open/").count(), 0);
    }

    #[test]
    fn retire_groups_skips_open_and_unknown_groups() {
        let (mut node, li, analyser) = test_node();
        // An open group: one observation only.
        submit_entry(
            &mut node,
            &li,
            &entry(21, ObservationPoint::PepRequest, b"x", 100),
        );
        node.mine_block(1_000).unwrap();
        node.submit_call(
            &analyser,
            MONITOR_CONTRACT,
            "retire_groups",
            MonitorContract::retire_groups_payload(&[CorrelationId(21), CorrelationId(999)]),
        )
        .unwrap();
        node.mine_block(2_000).unwrap();
        let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(
            storage.scan_prefix(b"ent/").count(),
            1,
            "open groups keep their evidence"
        );
        // The open group still times out into MissingLog alerts.
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(60_000).unwrap();
        assert!(!alert_events(&node).is_empty());
    }

    /// Correlation `n` of PEP 1.
    fn numbered(n: u64) -> u64 {
        CorrelationId::numbered(PepId(1), n).0
    }

    /// All four observations of correlation `corr`, honest, in one block
    /// mined at `at`.
    fn submit_group(node: &mut Node, li: &Keypair, corr: u64, at: u64) {
        for point in ObservationPoint::ALL {
            let d: &[u8] = if point.code() < 2 { b"req" } else { b"resp" };
            submit_entry(node, li, &entry(corr, point, d, at));
        }
        node.mine_block(at).unwrap();
    }

    fn advance_epoch(node: &mut Node, li: &Keypair, at: u64) {
        node.submit_call(li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(at).unwrap();
    }

    fn retire(node: &mut Node, analyser: &Keypair, numbers: &[u64], at: u64) {
        let correlations: Vec<CorrelationId> = numbers
            .iter()
            .map(|n| CorrelationId(numbered(*n)))
            .collect();
        let payload = MonitorContract::retire_groups_payload(&correlations);
        node.submit_call(analyser, MONITOR_CONTRACT, "retire_groups", payload)
            .unwrap();
        node.mine_block(at).unwrap();
    }

    /// Retired groups leave no key behind: the contract's storage after
    /// retiring every group of a run does not depend on how many there
    /// were.
    #[test]
    fn retired_storage_does_not_grow_with_the_run() {
        let keys_after = |groups: u64| {
            let (mut node, li, analyser) = test_node();
            for n in 0..groups {
                submit_group(&mut node, &li, numbered(n), 1_000 + n);
            }
            let numbers: Vec<u64> = (0..groups).collect();
            retire(&mut node, &analyser, &numbers, 2_000);
            advance_epoch(&mut node, &li, 60_000);
            assert!(alert_events(&node).is_empty());
            node.host().storage_of(MONITOR_CONTRACT).unwrap().len()
        };
        assert_eq!(keys_after(8), keys_after(16));
    }

    /// A complete group forged more than `MAX_GAP` past the mark, then
    /// retired, leaves nothing that hides its number: when the honest
    /// PEP reaches that number, its group is stored, judged and closed.
    #[test]
    fn a_retired_forged_jump_does_not_swallow_the_honest_group() {
        use ObservationPoint::PepResponse;
        let (mut node, li, analyser) = test_node();
        submit_group(&mut node, &li, numbered(0), 1_000);
        let forged = 1 + MAX_GAP + 1;
        submit_group(&mut node, &li, numbered(forged), 2_000);
        retire(&mut node, &analyser, &[forged], 3_000);
        let compromise = |node: &Node| {
            alert_events(node)
                .into_iter()
                .partition::<Vec<Alert>, _>(|a| a.kind == AlertKind::MonitorCompromise)
        };
        assert_eq!(compromise(&node).0.len(), 4, "one per forged entry");

        // The honest PEP reaches the forged number; the response of that
        // last request is rewritten on its way to the PEP.
        let honest: Vec<LogEntry> = (1..=forged)
            .flat_map(|n| {
                ObservationPoint::ALL.map(|point| {
                    let d: &[u8] = match point {
                        PepResponse if n == forged => b"resp, rewritten",
                        _ if point.code() < 2 => b"req",
                        _ => b"resp",
                    };
                    entry(numbered(n), point, d, 4_000)
                })
            })
            .collect();
        for batch in honest.chunks(256) {
            let payload = encode_batch(batch);
            node.submit_call(&li, MONITOR_CONTRACT, "store_log_batch", payload)
                .unwrap();
        }
        node.mine_block(4_000).unwrap();
        advance_epoch(&mut node, &li, 60_000);

        let (compromises, judged) = compromise(&node);
        assert_eq!(compromises.len(), 4, "the honest numbers raise none");
        let judged: Vec<(AlertKind, CorrelationId)> = judged
            .into_iter()
            .map(|a| (a.kind, a.correlation))
            .collect();
        let forged_corr = CorrelationId(numbered(forged));
        assert_eq!(judged, [(AlertKind::ResponseTampering, forged_corr)]);
        let completions = node
            .events()
            .iter()
            .filter(|ev| ev.name == GROUP_COMPLETE_EVENT && ev.data == forged_corr.0.to_be_bytes())
            .count();
        assert_eq!(completions, 2, "the forged group, then the honest one");
    }

    #[test]
    fn gap_rule_times_out_a_request_with_no_entries() {
        let (mut node, li, _) = test_node();
        submit_group(&mut node, &li, numbered(0), 1_000);
        submit_group(&mut node, &li, numbered(2), 2_000);
        advance_epoch(&mut node, &li, 5_000);
        assert!(alert_events(&node).is_empty(), "not before the timeout");
        advance_epoch(&mut node, &li, 20_000);
        let alerts = alert_events(&node);
        let points: Vec<AlertKind> = ObservationPoint::ALL
            .map(|point| AlertKind::MissingLog { point })
            .to_vec();
        let kinds: Vec<AlertKind> = alerts.iter().map(|a| a.kind.clone()).collect();
        assert_eq!(kinds, points);
        assert!(alerts
            .iter()
            .all(|a| a.correlation == CorrelationId(numbered(1))));
    }

    #[test]
    fn gap_rule_is_silent_when_entries_arrive_out_of_order() {
        let (mut node, li, _) = test_node();
        for (n, at) in [(2, 1_000), (1, 2_000), (0, 3_000)] {
            submit_group(&mut node, &li, numbered(n), at);
        }
        advance_epoch(&mut node, &li, 60_000);
        assert!(alert_events(&node).is_empty());
        let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"open/").count(), 0);
        assert_eq!(storage.scan_prefix(b"grp/").count(), 3);
    }

    #[test]
    fn gap_rule_raises_one_alert_per_entry_past_the_cap() {
        let (mut node, li, _) = test_node();
        submit_group(&mut node, &li, numbered(0), 1_000);
        let keys = |node: &Node| node.host().storage_of(MONITOR_CONTRACT).unwrap().len();
        let before = keys(&node);
        let forged = entry(
            numbered(1 << 39),
            ObservationPoint::PepRequest,
            b"req",
            2_000,
        );
        submit_entry(&mut node, &li, &forged);
        node.mine_block(2_000).unwrap();
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::MonitorCompromise);
        assert_eq!(alerts[0].correlation, forged.correlation);
        // The entry, its group and its sweep registration; no placeholder.
        assert!(
            keys(&node) - before <= 3,
            "{} keys added",
            keys(&node) - before
        );
        // The mark did not move: the next honest number is still judged
        // against it, and the forged entry alone times out.
        submit_group(&mut node, &li, numbered(1), 3_000);
        advance_epoch(&mut node, &li, 60_000);
        let alerts = alert_events(&node);
        let compromises = alerts
            .iter()
            .filter(|a| a.kind == AlertKind::MonitorCompromise)
            .count();
        assert_eq!(compromises, 1);
        assert!(alerts.iter().all(|a| a.correlation == forged.correlation));
    }

    /// The residual case DESIGN §3 states: the last request a PEP issued
    /// before it went silent has no later number to expose it, so losing
    /// all four of its observations raises nothing until that PEP's next
    /// request is logged; then the sweep after it times the gap out.
    #[test]
    fn gap_rule_cannot_see_a_silent_peps_last_request() {
        let (mut node, li, _) = test_node();
        submit_group(&mut node, &li, numbered(0), 1_000);
        submit_group(&mut node, &li, numbered(1), 2_000);
        // Number 2 is issued and every observation of it is dropped.
        advance_epoch(&mut node, &li, 60_000);
        assert!(alert_events(&node).is_empty(), "the tail is not seen");
        submit_group(&mut node, &li, numbered(3), 61_000);
        advance_epoch(&mut node, &li, 80_000);
        let alerts = alert_events(&node);
        assert_eq!(alerts.len(), 4);
        assert!(alerts
            .iter()
            .all(|a| a.correlation == CorrelationId(numbered(2))
                && matches!(a.kind, AlertKind::MissingLog { .. })));
    }

    #[test]
    fn double_init_fails() {
        let (mut node, li, analyser) = test_node();
        let id = node
            .submit_call(
                &li,
                MONITOR_CONTRACT,
                "init",
                MonitorContract::init_payload(5_000, analyser.public().fingerprint()),
            )
            .unwrap();
        node.mine_block(1_000).unwrap();
        assert!(failed(&node, &id));
    }
}
