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
/// messages the fault plane classifies, and `None` for every other one.
fn fault_link(ctx: &Ctx<'_>, msg: &Msg) -> Option<(Site, Site, bool)> {
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

/// Carries the wire-encodable deliveries among `deliveries` across the
/// wire transport as one batch and puts each one's echo in its place:
/// every such message is framed (with the scheduler's delay riding in
/// the frame) and numbered in order, the batch is round-tripped through
/// the destination services' socket endpoints, and each message is
/// re-decoded from the bytes that came back. Local messages keep their
/// places, so the scheduler sees the original order.
fn carry_batch(ctx: &mut Ctx<'_>, deliveries: &mut [(SimTime, Msg)]) {
    let mut frames = Vec::new();
    let mut places = Vec::new();
    for (place, (delay, msg)) in deliveries.iter().enumerate() {
        if let Some((role, kind, payload)) = wire_encode(msg) {
            ctx.wire_seq += 1;
            frames.push(WireFrame {
                role,
                kind,
                seq: ctx.wire_seq,
                delay: *delay,
                payload,
            });
            places.push(place);
        }
    }
    if frames.is_empty() {
        return;
    }
    let echoes = ctx
        .transport
        .roundtrip_batch(frames)
        .expect("wire transport round-trip");
    assert_eq!(echoes.len(), places.len(), "one echo per frame");
    for (place, echo) in places.into_iter().zip(echoes) {
        let decoded = wire_decode(&echo).expect("echoed frame decodes");
        deliveries[place] = (echo.delay, decoded);
    }
}

/// What every emission of a run crosses on its way into the event
/// queue. It takes one dispatch's outbox: under a declared plan every
/// link message first crosses the fault plane, in emission order (so
/// the plane's RNG draws do not depend on the transport), and non-link
/// messages pass straight through; an empty plan is never consulted and
/// never draws from its RNG stream. Then, with a wire transport
/// attached, every wire-encodable delivery — probe-key provisioning
/// included — crosses the transport in one batch. Under
/// [`DesTransport`](drams_faas::transport::DesTransport) that step is
/// skipped: the conformance oracle's path. The deliveries are left in
/// `outbox`, in the order the queue schedules them; `buf` is scratch
/// and is left empty.
pub(super) fn net_shim(
    ctx: &mut Ctx<'_>,
    now: SimTime,
    outbox: &mut Vec<(SimTime, Msg)>,
    buf: &mut Vec<(SimTime, Msg)>,
) {
    if !ctx.fault_plane.plan().is_empty() {
        for (delay, msg) in outbox.drain(..) {
            let Some((from, to, allow_drop)) = fault_link(ctx, &msg) else {
                buf.push((delay, msg));
                continue;
            };
            let fates = ctx.fault_plane.deliveries(now, from, to, allow_drop);
            let Some((last, rest)) = fates.split_last() else {
                continue; // dropped (or partitioned away)
            };
            for extra in rest {
                buf.push((delay + extra, msg.clone()));
            }
            buf.push((delay + last, msg));
        }
        std::mem::swap(outbox, buf);
    }
    if ctx.transport.is_wire() {
        carry_batch(ctx, outbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoAdversary;
    use crate::logent::ObservationPoint;
    use crate::monitor::{first_divergence, MonitorConfig, MonitorReport};
    use crate::probe::Probe;
    use crate::scenario::msg::PolicyAdmin;
    use crate::scenario::{probe_mac_key, run_scenario, run_scenario_with_transport, ScenarioSpec};
    use drams_crypto::aead::SymmetricKey;
    use drams_faas::des::MILLIS;
    use drams_faas::fault::{FaultPlan, LinkFault};
    use drams_faas::model::{PepId, TenantId};
    use drams_faas::msg::CorrelationId;
    use drams_net::{NetStats, TcpTransport};
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
            Msg::Crash(WireRole::Pdp { slot: 0 }),
            Msg::LiFlushTick { li: 0 },
            Msg::StallLi { li: 0, until: 1 },
            Msg::ProvisionLi { li: 0 },
            Msg::Crash(WireRole::Li { index: 0 }),
            Msg::MineTick,
            Msg::Crash(WireRole::Chain),
            Msg::SetTimeout { timeout: 1 },
            Msg::AnalyserTick,
            Msg::AnalyserPolicy(
                drams_faas::prp::Prp::new(crate::monitor::default_policy())
                    .active()
                    .clone(),
            ),
            Msg::Crash(WireRole::Analyser),
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

    /// Runs `spec` over the DES and over loopback TCP, asserts the twins
    /// are byte-identical, and returns the TCP run's report and wire
    /// counters.
    fn tcp_twin(spec: &ScenarioSpec) -> (MonitorReport, NetStats) {
        let (des, des_truth) = run_scenario(spec, &mut NoAdversary);
        let mut transport = TcpTransport::loopback();
        let (tcp, tcp_truth) = run_scenario_with_transport(spec, &mut NoAdversary, &mut transport);
        assert_eq!(
            first_divergence(&des, &des_truth, &tcp, &tcp_truth),
            None,
            "{}",
            spec.name
        );
        (tcp, transport.stats())
    }

    fn spec(name: &str, faults: FaultPlan) -> ScenarioSpec {
        let config = MonitorConfig {
            total_requests: 40,
            request_rate_per_sec: 100.0,
            ..MonitorConfig::default()
        };
        ScenarioSpec {
            name: name.to_string(),
            faults,
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// Each request's six frames travel in three batches, one per
    /// dispatch that emits them: PEP intercept (a log delivery and the
    /// request), PDP receive (two log deliveries and the response) and
    /// PEP receive (a log delivery).
    #[test]
    fn steady_state_over_tcp_sends_one_batch_per_dispatch() {
        let (report, stats) = tcp_twin(&spec("steady_state", FaultPlan::default()));
        assert_eq!(report.requests_completed, 40);
        assert_eq!((stats.frames, stats.batches), (240, 120));
    }

    /// Fault-plane duplicates of one emission ride in the same batch,
    /// each under its own seq, and the run still matches its DES twin.
    #[test]
    fn a_lossy_plan_batches_duplicates_and_matches_the_des_twin() {
        let faults = FaultPlan {
            links: vec![LinkFault {
                drop_permille: 100,
                duplicate_permille: 300,
                reorder_permille: 200,
                reorder_spread: 5 * MILLIS,
                active_from: 0,
                active_until: 1500 * MILLIS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        };
        let (report, stats) = tcp_twin(&spec("lossy_batches", faults));
        assert!(report.faults.duplicated > 0, "the plan must duplicate");
        assert!(stats.frames > 2 * stats.batches, "{stats:?}");
    }
}
