//! Federation links: which messages cross between sites, under which
//! frame kind, and what the fault plane and a wire transport do to them
//! on the way into the event queue. Nothing outside this file knows.

use super::ctx::Ctx;
use super::msg::Msg;
use crate::logent::{LogEntry, ProbeId};
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_faas::des::SimTime;
use drams_faas::fault::Site;
use drams_faas::model::TenantSpec;
use drams_faas::msg::{RequestEnvelope, ResponseEnvelope};
use drams_faas::transport::{TransportError, WireFrame, WireRole};

// Frame kinds for the messages a wire transport carries (kind 0 is the
// transport-level ping).
const KIND_PDP_RECEIVE: u8 = 1;
const KIND_PEP_RECEIVE: u8 = 2;
const KIND_LI_DELIVER: u8 = 3;
const KIND_PROVISION_PROBE_KEY: u8 = 4;

/// Serialises a message for the wire, if it is one of the
/// federation-crossing kinds: the three link messages the fault plane
/// classifies (request, response, log delivery) plus the Analyser's
/// probe-key provisioning on tenant joins. Local self-ticks, scripted
/// control and crash events stay inside the driver process.
fn wire_encode(msg: &Msg) -> Option<(WireRole, u8, Vec<u8>)> {
    let mut w = Writer::new();
    match msg {
        Msg::PdpReceive { slot, env } => {
            w.put_u32(*slot as u32);
            env.encode(&mut w);
            Some((
                WireRole::Pdp { slot: *slot as u32 },
                KIND_PDP_RECEIVE,
                w.into_bytes(),
            ))
        }
        Msg::PepReceive { slot, env } => {
            w.put_u32(*slot as u32);
            env.encode(&mut w);
            Some((WireRole::Pep, KIND_PEP_RECEIVE, w.into_bytes()))
        }
        Msg::LiDeliver { li, entry } => {
            w.put_u32(*li as u32);
            entry.encode(&mut w);
            Some((
                WireRole::Li { index: *li as u32 },
                KIND_LI_DELIVER,
                w.into_bytes(),
            ))
        }
        Msg::ProvisionProbeKey { probe } => {
            w.put_u32(probe.0);
            Some((WireRole::Analyser, KIND_PROVISION_PROBE_KEY, w.into_bytes()))
        }
        _ => None,
    }
}

/// Rebuilds the message a frame carries. The scheduler consumes exactly
/// this — whatever came back off the wire, not the emission that went in.
fn wire_decode(frame: &WireFrame) -> Result<Msg, TransportError> {
    let mut r = Reader::new(&frame.payload);
    let malformed = |e: drams_crypto::CryptoError| TransportError::Malformed(e.to_string());
    let msg = match frame.kind {
        KIND_PDP_RECEIVE => Msg::PdpReceive {
            slot: r.get_u32().map_err(malformed)? as usize,
            env: RequestEnvelope::decode(&mut r).map_err(malformed)?,
        },
        KIND_PEP_RECEIVE => Msg::PepReceive {
            slot: r.get_u32().map_err(malformed)? as usize,
            env: ResponseEnvelope::decode(&mut r).map_err(malformed)?,
        },
        KIND_LI_DELIVER => Msg::LiDeliver {
            li: r.get_u32().map_err(malformed)? as usize,
            entry: LogEntry::decode(&mut r).map_err(malformed)?,
        },
        KIND_PROVISION_PROBE_KEY => Msg::ProvisionProbeKey {
            probe: ProbeId(r.get_u32().map_err(malformed)?),
        },
        other => {
            return Err(TransportError::Malformed(format!(
                "unknown frame kind {other}"
            )))
        }
    };
    r.finish().map_err(malformed)?;
    Ok(msg)
}

/// The site of the tenant edge (PEP and probe) that `is_edge` picks out.
fn edge_site(ctx: &Ctx<'_>, is_edge: impl Fn(&TenantSpec) -> bool) -> Site {
    let tenant = ctx.tenants.iter().find(|t| is_edge(&t.spec));
    tenant.map_or(Site::Infra, |t| Site::Cloud(t.spec.cloud))
}

/// The `(from, to, allow_drop)` link a message travels, for the three
/// messages the fault plane classifies — `None` for everything when no
/// plan is declared, so a fault-free run never consults the plane (nor
/// draws from its RNG stream) whatever transport is attached.
fn fault_link(ctx: &Ctx<'_>, msg: &Msg) -> Option<(Site, Site, bool)> {
    if ctx.fault_plane.plan().is_empty() {
        return None;
    }
    match msg {
        Msg::PdpReceive { slot, env } => {
            let edge = edge_site(ctx, |t| t.id == env.tenant);
            Some((edge, ctx.slot_site[*slot], true))
        }
        Msg::PepReceive { slot, env } => {
            let edge = edge_site(ctx, |t| t.pep == env.pep);
            Some((ctx.slot_site[*slot], edge, true))
        }
        // Probe→LI links are intra-site and carry evidence: the fault
        // plane may delay, duplicate or reorder them but never silently
        // destroy them — evidence loss must stay an adversary
        // capability, not a network artefact.
        Msg::LiDeliver { li, .. } => Some((ctx.li_site[*li], ctx.li_site[*li], false)),
        _ => None,
    }
}

/// Pushes one delivery into the scheduler's buffer, carrying it through
/// the wire transport first when one is attached: the message is framed
/// (with the scheduler's delay riding in the frame), round-tripped
/// through the destination service's socket endpoint, and re-decoded
/// from the bytes that came back. Under
/// [`DesTransport`](drams_faas::transport::DesTransport) this is a plain
/// push — the conformance oracle's path.
fn deliver(ctx: &mut Ctx<'_>, delay: SimTime, msg: Msg, buf: &mut Vec<(SimTime, Msg)>) {
    if !ctx.transport.is_wire() {
        buf.push((delay, msg));
        return;
    }
    let Some((role, kind, payload)) = wire_encode(&msg) else {
        buf.push((delay, msg));
        return;
    };
    ctx.wire_seq += 1;
    let frame = WireFrame {
        role,
        kind,
        seq: ctx.wire_seq,
        delay,
        payload,
    };
    let echo = ctx
        .transport
        .roundtrip(frame)
        .expect("wire transport round-trip");
    let decoded = wire_decode(&echo).expect("echoed frame decodes");
    buf.push((echo.delay, decoded));
}

/// The [`NetShim`](drams_faas::des::NetShim) of a run with a fault plan
/// or a wire transport: every link message crosses the fault plane, and
/// every surviving delivery then crosses the transport. Non-link
/// messages pass straight through; wire-encodable ones (probe-key
/// provisioning) still cross the transport.
pub(super) fn net_shim(
    ctx: &mut Ctx<'_>,
    now: SimTime,
    delay: SimTime,
    msg: Msg,
    buf: &mut Vec<(SimTime, Msg)>,
) {
    let Some((from, to, allow_drop)) = fault_link(ctx, &msg) else {
        deliver(ctx, delay, msg, buf);
        return;
    };
    let fates = ctx.fault_plane.deliveries(now, from, to, allow_drop);
    let Some((last, rest)) = fates.split_last() else {
        return; // dropped (or partitioned away)
    };
    for extra in rest {
        deliver(ctx, delay + extra, msg.clone(), buf);
    }
    deliver(ctx, delay + last, msg, buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logent::ObservationPoint;
    use crate::probe::Probe;
    use crate::scenario::msg::PolicyAdmin;
    use crate::scenario::probe_mac_key;
    use drams_crypto::aead::SymmetricKey;
    use drams_faas::model::{PepId, TenantId};
    use drams_faas::msg::CorrelationId;
    use drams_policy::attr::Request;
    use drams_policy::decision::{ExtDecision, Response};

    fn request_env() -> RequestEnvelope {
        RequestEnvelope {
            correlation: CorrelationId(7),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc-1-0".to_string(),
            request: Request::new(),
            issued_at: 11,
        }
    }

    fn response_env() -> ResponseEnvelope {
        ResponseEnvelope {
            correlation: CorrelationId(7),
            pep: PepId(1),
            response: Response::new(ExtDecision::Permit, Vec::new()),
            policy_version: drams_crypto::sha256::Digest::of(b"v0"),
            decided_at: 13,
        }
    }

    fn wire_msgs() -> Vec<Msg> {
        let probe = ProbeId(1);
        let entry = Probe::new(
            probe,
            SymmetricKey::from_bytes([42; 32]),
            probe_mac_key(probe),
        )
        .observe_request(ObservationPoint::PepRequest, &request_env(), 12);
        vec![
            Msg::PdpReceive {
                slot: 2,
                env: request_env(),
            },
            Msg::PepReceive {
                slot: 2,
                env: response_env(),
            },
            Msg::LiDeliver { li: 3, entry },
            Msg::ProvisionProbeKey { probe },
        ]
    }

    fn frame(role: WireRole, kind: u8, payload: Vec<u8>) -> WireFrame {
        WireFrame {
            role,
            kind,
            seq: 1,
            delay: 5,
            payload,
        }
    }

    #[test]
    fn the_four_wire_kinds_round_trip_to_the_same_bytes() {
        let mut kinds = Vec::new();
        for msg in wire_msgs() {
            let (role, kind, payload) = wire_encode(&msg).expect("wire kind");
            let decoded = wire_decode(&frame(role, kind, payload.clone())).expect("decodes");
            assert_eq!(
                wire_encode(&decoded),
                Some((role, kind, payload)),
                "{msg:?}"
            );
            kinds.push(kind);
        }
        assert_eq!(
            kinds,
            [
                KIND_PDP_RECEIVE,
                KIND_PEP_RECEIVE,
                KIND_LI_DELIVER,
                KIND_PROVISION_PROBE_KEY
            ]
        );
    }

    #[test]
    fn local_messages_are_not_wire_encodable() {
        let env = request_env();
        let locals = [
            Msg::Arrival,
            Msg::Intercept {
                tenant: 0,
                service: env.service.clone(),
                request: env.request.clone(),
            },
            Msg::PepRetry {
                correlation: env.correlation,
                attempt: 1,
            },
            Msg::ProvisionPep { tenant: 0 },
            Msg::PolicyAdmin(PolicyAdmin::Rollback(0)),
            Msg::SilencePdp { slot: 0, until: 1 },
            Msg::CrashPdp { slot: 0 },
            Msg::LiFlushTick { li: 0 },
            Msg::StallLi { li: 0, until: 1 },
            Msg::ProvisionLi { li: 0 },
            Msg::CrashLi { li: 0 },
            Msg::MineTick,
            Msg::CrashChain,
            Msg::SetTimeout { timeout: 1 },
            Msg::AnalyserTick,
            Msg::AnalyserPolicy(
                drams_faas::prp::Prp::new(crate::monitor::default_policy())
                    .active()
                    .clone(),
            ),
            Msg::CrashAnalyser,
            Msg::Script(0),
            Msg::ActivateTenant { tenant: 0 },
        ];
        for msg in &locals {
            assert!(wire_encode(msg).is_none(), "{msg:?}");
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let (role, kind, payload) = wire_encode(&wire_msgs()[0]).expect("wire kind");
        let mut trailing = payload.clone();
        trailing.push(0);
        for (what, bad) in [
            ("unknown kind", frame(role, 9, payload.clone())),
            ("short payload", frame(role, kind, payload[..6].to_vec())),
            ("trailing bytes", frame(role, kind, trailing)),
        ] {
            assert!(
                matches!(wire_decode(&bad), Err(TransportError::Malformed(_))),
                "{what}"
            );
        }
    }
}
