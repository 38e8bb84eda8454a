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
//!    groups and raises `MissingLog` for suppressed observations.
//! 3. **Conflict detection** — re-submission of an observation with
//!    different content raises `ConflictingObservation`.
//! 4. **Violation registry** — the (authorised) Analyser records its
//!    `PolicyViolation` / `EnforcementMismatch` / `MonitorCompromise`
//!    findings on-chain, making them non-repudiable.

use crate::alert::{Alert, AlertKind};
use crate::logent::{LogEntry, ObservationPoint};
use drams_chain::contract::{ExecutionContext, SmartContract};
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::sha256::Digest;
use drams_faas::msg::CorrelationId;

/// The contract's registry name.
pub const MONITOR_CONTRACT: &str = "drams-monitor";

/// Event emitted when a group has all four observations.
pub const GROUP_COMPLETE_EVENT: &str = "group.complete";

/// The monitor contract (stateless logic; state lives in contract
/// storage so reorg re-execution is deterministic).
#[derive(Debug, Default)]
pub struct MonitorContract;

#[derive(Debug, Clone, Copy, PartialEq)]
struct GroupState {
    first_seen: u64,
    mask: u8,
    flags: u8,
}

const FLAG_CLOSED: u8 = 1;
const FLAG_REQ_ALERTED: u8 = 2;
const FLAG_RESP_ALERTED: u8 = 4;
/// The group's four log entries were pruned by `retire_groups` after the
/// Analyser finished with them. The group record itself stays behind as
/// a tombstone so late duplicates of retired evidence are ignored
/// instead of reopening the group (which would raise false MissingLog
/// alerts at the next epoch sweep).
const FLAG_RETIRED: u8 = 8;

impl GroupState {
    fn encode(self) -> Vec<u8> {
        let mut w = Writer::with_capacity(10);
        w.put_u64(self.first_seen);
        w.put_u8(self.mask);
        w.put_u8(self.flags);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let state = GroupState {
            first_seen: r.get_u64().map_err(|e| e.to_string())?,
            mask: r.get_u8().map_err(|e| e.to_string())?,
            flags: r.get_u8().map_err(|e| e.to_string())?,
        };
        r.finish().map_err(|e| e.to_string())?;
        Ok(state)
    }

    fn is_complete(self) -> bool {
        self.mask == 0b1111
    }
}

fn entry_key(correlation: CorrelationId, point: ObservationPoint) -> Vec<u8> {
    let mut k = Vec::with_capacity(16);
    k.extend_from_slice(b"ent/");
    k.extend_from_slice(&correlation.0.to_be_bytes());
    k.push(point.code());
    k
}

fn group_key(correlation: CorrelationId) -> Vec<u8> {
    let mut k = Vec::with_capacity(12);
    k.extend_from_slice(b"grp/");
    k.extend_from_slice(&correlation.0.to_be_bytes());
    k
}

fn open_key(correlation: CorrelationId) -> Vec<u8> {
    let mut k = Vec::with_capacity(13);
    k.extend_from_slice(b"open/");
    k.extend_from_slice(&correlation.0.to_be_bytes());
    k
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
            .insert(b"cfg/timeout".to_vec(), timeout.to_be_bytes().to_vec());
        ctx.storage
            .insert(b"cfg/analyser".to_vec(), analyser.as_bytes().to_vec());
        // The initialising sender becomes the contract admin — the only
        // party allowed to retune the epoch timeout later (degraded-mode
        // widening during declared fault windows).
        ctx.storage.insert(
            b"cfg/admin".to_vec(),
            ctx.sender_address().as_bytes().to_vec(),
        );
        Ok(())
    }

    /// Builds the payload for the `set_timeout` method.
    #[must_use]
    pub fn set_timeout_payload(timeout_us: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(timeout_us);
        w.into_bytes()
    }

    fn handle_set_timeout(ctx: &mut ExecutionContext<'_>, payload: &[u8]) -> Result<(), String> {
        let admin = ctx
            .storage
            .get(b"cfg/admin")
            .cloned()
            .ok_or("not initialised")?;
        if ctx.sender_address().as_bytes().as_slice() != admin.as_slice() {
            return Err("sender is not the contract admin".into());
        }
        let mut r = Reader::new(payload);
        let timeout = r.get_u64().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        if timeout == 0 {
            return Err("timeout must be positive".into());
        }
        ctx.storage
            .insert(b"cfg/timeout".to_vec(), timeout.to_be_bytes().to_vec());
        Ok(())
    }

    fn emit_alert(ctx: &mut ExecutionContext<'_>, alert: &Alert) {
        ctx.emit(alert.kind.event_name(), alert.to_canonical_bytes());
    }

    fn store_entry(ctx: &mut ExecutionContext<'_>, entry: &LogEntry) -> Result<(), String> {
        let now = ctx.timestamp_ms;
        // A retired group already went through every check and had its
        // evidence pruned; late duplicates are idempotent no-ops.
        if let Some(bytes) = ctx.storage.get(&group_key(entry.correlation)) {
            if GroupState::decode(bytes)?.flags & FLAG_RETIRED != 0 {
                return Ok(());
            }
        }
        let ekey = entry_key(entry.correlation, entry.point);
        if let Some(existing_bytes) = ctx.storage.get(&ekey).cloned() {
            let existing =
                LogEntry::from_canonical_bytes(&existing_bytes).map_err(|e| e.to_string())?;
            if existing.digest != entry.digest {
                Self::emit_alert(
                    ctx,
                    &Alert::new(
                        AlertKind::ConflictingObservation { point: entry.point },
                        entry.correlation,
                        now,
                        format!(
                            "point {} resubmitted with digest {} (stored {})",
                            entry.point, entry.digest, existing.digest
                        ),
                    ),
                );
            }
            // First write wins either way: the chain's history is
            // append-only evidence.
            return Ok(());
        }
        ctx.storage.insert(ekey, entry.to_canonical_bytes());

        let gkey = group_key(entry.correlation);
        let mut group = match ctx.storage.get(&gkey) {
            Some(bytes) => GroupState::decode(bytes)?,
            None => {
                ctx.storage.insert(open_key(entry.correlation), Vec::new());
                GroupState {
                    first_seen: now,
                    mask: 0,
                    flags: 0,
                }
            }
        };
        group.mask |= entry.point.bit();

        // Checks 1 and 2: the request digests (PEP sent, PDP received) and
        // the response digests (PDP sent, PEP received) must match. An
        // observation is stored once, so each pair is compared once: when
        // its second half arrives.
        let (sender, receiver, flag, kind, from, to) = match entry.point {
            ObservationPoint::PepRequest | ObservationPoint::PdpRequest => (
                ObservationPoint::PepRequest,
                ObservationPoint::PdpRequest,
                FLAG_REQ_ALERTED,
                AlertKind::RequestTampering,
                "pep",
                "pdp",
            ),
            ObservationPoint::PdpResponse | ObservationPoint::PepResponse => (
                ObservationPoint::PdpResponse,
                ObservationPoint::PepResponse,
                FLAG_RESP_ALERTED,
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
            let stored = Self::load_entry(ctx, entry.correlation, sibling)?.digest;
            let (sent, received) = if entry.point == sender {
                (entry.digest, stored)
            } else {
                (stored, entry.digest)
            };
            if sent != received {
                group.flags |= flag;
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
        if group.is_complete() && group.flags & FLAG_CLOSED == 0 {
            group.flags |= FLAG_CLOSED;
            ctx.storage.remove(&open_key(entry.correlation));
            let mut w = Writer::new();
            w.put_u64(entry.correlation.0);
            ctx.emit(GROUP_COMPLETE_EVENT, w.into_bytes());
        }
        ctx.storage.insert(gkey, group.encode());
        Ok(())
    }

    fn load_entry(
        ctx: &ExecutionContext<'_>,
        correlation: CorrelationId,
        point: ObservationPoint,
    ) -> Result<LogEntry, String> {
        let bytes = ctx
            .storage
            .get(&entry_key(correlation, point))
            .ok_or_else(|| format!("entry {correlation}/{point} missing"))?;
        LogEntry::from_canonical_bytes(bytes).map_err(|e| e.to_string())
    }

    fn handle_advance_epoch(ctx: &mut ExecutionContext<'_>) -> Result<(), String> {
        let timeout = match ctx.storage.get(b"cfg/timeout") {
            Some(bytes) if bytes.len() == 8 => {
                u64::from_be_bytes(bytes.as_slice().try_into().expect("length checked"))
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
            group.flags |= FLAG_CLOSED;
            ctx.storage.remove(&open_key(corr));
            ctx.storage.insert(gkey, group.encode());
        }
        Ok(())
    }

    /// Builds the payload for the `retire_groups` method.
    #[must_use]
    pub fn retire_groups_payload(correlations: &[CorrelationId]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(correlations.len() as u64);
        for corr in correlations {
            w.put_u64(corr.0);
        }
        w.into_bytes()
    }

    /// Prunes the bulk evidence (`ent/` entries) of closed groups the
    /// Analyser has finished verifying, leaving a tombstoned group record
    /// behind. Analyser-gated: only the party that consumes the evidence
    /// may declare it consumed. Groups that are missing, still open or
    /// already retired are skipped — retirement must be idempotent under
    /// reorg re-execution.
    fn handle_retire_groups(ctx: &mut ExecutionContext<'_>, payload: &[u8]) -> Result<(), String> {
        let authorised = ctx
            .storage
            .get(b"cfg/analyser")
            .cloned()
            .ok_or("not initialised")?;
        if ctx.sender_address().as_bytes().as_slice() != authorised.as_slice() {
            return Err("sender is not the authorised analyser".into());
        }
        let mut r = Reader::new(payload);
        let n = r.get_varint().map_err(|e| e.to_string())?;
        for _ in 0..n {
            let corr = CorrelationId(r.get_u64().map_err(|e| e.to_string())?);
            let gkey = group_key(corr);
            let Some(bytes) = ctx.storage.get(&gkey) else {
                continue;
            };
            let mut group = GroupState::decode(bytes)?;
            if group.flags & FLAG_CLOSED == 0 || group.flags & FLAG_RETIRED != 0 {
                continue;
            }
            for point in ObservationPoint::ALL {
                ctx.storage.remove(&entry_key(corr, point));
            }
            group.flags |= FLAG_RETIRED;
            ctx.storage.insert(gkey, group.encode());
        }
        r.finish().map_err(|e| e.to_string())?;
        Ok(())
    }

    fn handle_report_violation(
        ctx: &mut ExecutionContext<'_>,
        payload: &[u8],
    ) -> Result<(), String> {
        let authorised = ctx
            .storage
            .get(b"cfg/analyser")
            .cloned()
            .ok_or("not initialised")?;
        if ctx.sender_address().as_bytes().as_slice() != authorised.as_slice() {
            return Err("sender is not the authorised analyser".into());
        }
        let alert = Alert::from_canonical_bytes(payload).map_err(|e| e.to_string())?;
        // Persist under a sequence number for auditability.
        let seq = ctx.storage.scan_prefix(b"alert/").count() as u64;
        let mut key = b"alert/".to_vec();
        key.extend_from_slice(&seq.to_be_bytes());
        ctx.storage.insert(key, payload.to_vec());
        Self::emit_alert(ctx, &alert);
        Ok(())
    }
}

impl SmartContract for MonitorContract {
    fn name(&self) -> &str {
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
            "store_log" => {
                let entry = LogEntry::from_canonical_bytes(payload).map_err(|e| e.to_string())?;
                Self::store_entry(ctx, &entry)
            }
            "store_log_batch" => {
                let mut r = Reader::new(payload);
                let n = r.get_varint().map_err(|e| e.to_string())? as usize;
                for _ in 0..n {
                    let entry = LogEntry::decode(&mut r).map_err(|e| e.to_string())?;
                    Self::store_entry(ctx, &entry)?;
                }
                r.finish().map_err(|e| e.to_string())?;
                Ok(())
            }
            "advance_epoch" => Self::handle_advance_epoch(ctx),
            "set_timeout" => Self::handle_set_timeout(ctx, payload),
            "report_violation" => Self::handle_report_violation(ctx, payload),
            "retire_groups" => Self::handle_retire_groups(ctx, payload),
            other => Err(format!("unknown method `{other}`")),
        }
    }
}

/// Encodes a batch of entries for `store_log_batch` into `w`, so callers
/// with a size estimate can pre-allocate (see
/// [`crate::li::LoggingInterface::flush`]).
pub fn encode_batch_into(entries: &[LogEntry], w: &mut Writer) {
    w.put_varint(entries.len() as u64);
    for e in entries {
        e.encode(w);
    }
}

/// Encodes a batch of entries for `store_log_batch`.
#[must_use]
pub fn encode_batch(entries: &[LogEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_batch_into(entries, &mut w);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logent::ProbeId;
    use drams_chain::chain::ChainConfig;
    use drams_chain::node::Node;
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
        node.submit_call(li, MONITOR_CONTRACT, "store_log", e.to_canonical_bytes())
            .unwrap();
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
        // Only 3 of 4 observations arrive.
        for point in [
            ObservationPoint::PepRequest,
            ObservationPoint::PdpRequest,
            ObservationPoint::PdpResponse,
        ] {
            submit_entry(&mut node, &li, &entry(4, point, b"x", 100));
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
                let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
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
            "40cb1f73ebf598581e9817ffd553e14c3412937bcd27d3822ea9d4cbb5d98266"
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
        assert!(matches!(
            node.receipt(&id).unwrap().1,
            drams_chain::contract::TxStatus::Failed(_)
        ));
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
        assert!(matches!(
            node.receipt(&id).unwrap().1,
            drams_chain::contract::TxStatus::Failed(_)
        ));
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
            assert!(matches!(
                node.receipt(&id).unwrap().1,
                drams_chain::contract::TxStatus::Failed(_)
            ));
        }
    }

    #[test]
    fn retire_groups_prunes_closed_evidence_and_tombstones_the_group() {
        let (mut node, li, analyser) = test_node();
        for point in ObservationPoint::ALL {
            let d: &[u8] = if point.code() < 2 { b"req" } else { b"resp" };
            submit_entry(&mut node, &li, &entry(20, point, d, 100));
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
                MonitorContract::retire_groups_payload(&[CorrelationId(20)]),
            )
            .unwrap();
        node.mine_block(2_000).unwrap();
        assert!(matches!(
            node.receipt(&id).unwrap().1,
            drams_chain::contract::TxStatus::Failed(_)
        ));

        node.submit_call(
            &analyser,
            MONITOR_CONTRACT,
            "retire_groups",
            MonitorContract::retire_groups_payload(&[CorrelationId(20)]),
        )
        .unwrap();
        node.mine_block(3_000).unwrap();
        let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0, "evidence pruned");
        assert_eq!(storage.scan_prefix(b"grp/").count(), 1, "tombstone stays");

        // A late duplicate of retired evidence is ignored: no reopened
        // group, no MissingLog at the next sweep.
        submit_entry(
            &mut node,
            &li,
            &entry(20, ObservationPoint::PepRequest, b"req", 100),
        );
        node.submit_call(&li, MONITOR_CONTRACT, "advance_epoch", vec![])
            .unwrap();
        node.mine_block(60_000).unwrap();
        assert!(alert_events(&node).is_empty());
        let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
        assert_eq!(storage.scan_prefix(b"ent/").count(), 0);
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
        assert!(matches!(
            node.receipt(&id).unwrap().1,
            drams_chain::contract::TxStatus::Failed(_)
        ));
    }
}
