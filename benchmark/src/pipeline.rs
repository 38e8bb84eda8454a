//! Figure 1 recomposed from the crates' public functions, in request
//! order, with a span around every call into a layer.
//!
//! `run_scenario` is a closed box: its services are private and talk
//! through a DES. This driver calls the same public building blocks in
//! the order a request meets them —
//!
//! ```text
//! RequestGenerator::next_request → Pep::intercept → Probe::observe_request
//!   → [wire] → Probe::observe_request → Pdp::evaluate
//!   → Probe::observe_pdp_response → PDP journal append → [wire]
//!   → Pep::enforce → Probe::observe_pep_response
//! each entry → [wire] → LoggingInterface::store        (backlog WAL, batch 8)
//! every block interval: LI flush ticks, epoch sweep, Node::mine_block
//!   (WalJournal, MonitorContract, verify_signatures off, difficulty 0),
//!   then Analyser::poll + checkpoint twice
//! after the last request: the drain — the same rounds with no arrivals,
//!   for as long as `run_scenario` keeps ticking
//! ```
//!
//! — so the per-layer cost of a monitored request can be read from
//! outside, before any tracing exists inside the program. What it cannot
//! see (the DES queue, `Msg` routing and cloning, retry timers, report
//! bookkeeping) is exactly `runtime.residual_us_per_request`.

use crate::span;
use crate::spans::{Span, Tracer};
use crate::workloads::Carrier;
use drams_chain::block::Block;
use drams_chain::chain::ChainConfig;
use drams_chain::node::Node;
use drams_core::analyser::Analyser;
use drams_core::contract::{MonitorContract, MONITOR_CONTRACT};
use drams_core::li::LoggingInterface;
use drams_core::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_core::probe::Probe;
use drams_core::scenario::{
    probe_mac_key, PdpPlacement, ScenarioSpec, FAULT_SETTLE, MIN_RETENTION, PDP_PROBE_BASE,
};
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{SimTime, SECONDS};
use drams_faas::msg::{RequestEnvelope, ResponseEnvelope};
use drams_faas::pep::Pep;
use drams_faas::prp::Prp;
use drams_faas::transport::{Transport, WireFrame, WireRole};
use drams_faas::workload::{RequestGenerator, Vocabulary};
use drams_net::TcpTransport;
use drams_policy::pdp::Pdp;
use drams_store::persist::WalJournal;
use drams_store::{Durability, MemBackend, SnapshotStore, Wal, WalConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

/// Span names, in pipeline order. Each yields `S.calls_per_request`,
/// `S.us_per_call` and `S.us_per_request`.
pub const SPAN_NAMES: [&str; 14] = [
    "faas.workload.next_request",
    "faas.pep.intercept",
    "core.probe.observe",
    "net.wire.deliver",
    "policy.pdp.evaluate",
    "store.pdp_journal.append",
    "faas.pep.enforce",
    "core.li.store",
    "core.li.flush",
    "chain.node.submit_call",
    "chain.node.mine_block",
    "store.journal.compact",
    "core.analyser.poll",
    "core.analyser.checkpoint",
];

/// Parent spans: one per request and one per block round. Their self
/// time is this driver's own bookkeeping.
pub const REQUEST_SPAN: &str = "pipeline.request";
/// See [`REQUEST_SPAN`].
pub const ROUND_SPAN: &str = "pipeline.block_round";

/// Real inputs kept from a pipeline run for the leaf timings.
pub struct Captured {
    /// The first log entries the probes produced.
    pub entries: Vec<LogEntry>,
    /// The first request envelopes.
    pub requests: Vec<RequestEnvelope>,
    /// Every block of the main chain above genesis, oldest first.
    pub blocks: Vec<Block>,
    /// The node's write-ahead journal, as the run left it.
    pub node_wal: Rc<RefCell<Wal>>,
    /// The chain configuration the node ran with.
    pub chain_config: ChainConfig,
    /// Main-chain tip after the run.
    pub tip: drams_chain::block::BlockHash,
}

/// How many entries / envelopes [`Captured`] keeps.
const CAPTURE_LIMIT: usize = 256;

/// What one pipeline run measured.
pub struct PipelineRun {
    /// Host wall-clock seconds for the whole run (set-up excluded).
    pub wall_s: f64,
    /// Requests driven through.
    pub requests: u64,
    /// Recorded spans (empty when tracing was off).
    pub spans: Vec<Span>,
    /// Groups the Analyser checked.
    pub checked_groups: u64,
    /// Alerts raised (poll return values plus `alert.*` contract events).
    pub alerts: u64,
    /// Groups the Analyser retired.
    pub groups_retired: u64,
    /// Σ `Block::wire_len` over those blocks.
    pub chain_bytes: u64,
    /// Keys in the monitor contract's storage at the end.
    pub storage_keys: u64,
    /// PDP decision-cache hits, summed over PDPs.
    pub cache_hits: u64,
    /// PDP decision-cache misses, summed over PDPs.
    pub cache_misses: u64,
    /// Inputs for the leaf timings (`None` unless asked for).
    pub captured: Option<Captured>,
}

/// A fresh in-memory WAL, synced per record, as every scenario service
/// opens its own.
pub fn mem_wal(segment_records: usize) -> Wal {
    Wal::open(
        Box::new(MemBackend::new()),
        WalConfig {
            segment_records,
            durability: Durability::Flushed,
        },
    )
    .expect("fresh in-memory wal")
}

/// Block rounds `run_scenario` keeps ticking after its last arrival: its
/// drain margin (retry budget + group timeout + 6 blocks + 4 polls + 1 s)
/// in block intervals.
fn drain_rounds(spec: &ScenarioSpec) -> u64 {
    let c = &spec.config;
    let retry_budget = MIN_RETENTION - FAULT_SETTLE;
    let margin = retry_budget
        + c.group_timeout
        + 6 * c.block_interval
        + 4 * c.analyser_poll_interval
        + SECONDS;
    margin / c.block_interval.max(1)
}

/// Carries one wire message the way the scenario runtime's `deliver`
/// does: encode, frame, round-trip the destination's socket, decode what
/// came back.
struct Wire {
    transport: Option<TcpTransport>,
    seq: u64,
}

impl Wire {
    fn carry<T: Encode + Decode>(
        &mut self,
        tracer: &mut Tracer,
        corr: u64,
        role: WireRole,
        kind: u8,
        index: u32,
        msg: T,
    ) -> T {
        let Some(transport) = &mut self.transport else {
            return msg;
        };
        self.seq += 1;
        let seq = self.seq;
        span!(tracer, "net.wire.deliver", corr, {
            let mut w = Writer::new();
            w.put_u32(index);
            msg.encode(&mut w);
            let frame = WireFrame {
                role,
                kind,
                seq,
                delay: 0,
                payload: w.into_bytes(),
            };
            let echo = transport.roundtrip(frame).expect("loopback round-trip");
            let mut r = Reader::new(&echo.payload);
            r.get_u32().expect("echoed index");
            T::decode(&mut r).expect("echoed message decodes")
        })
    }
}

/// Drives `spec`'s shape — federation, PDP placement, policy, monitoring
/// switch, request count, arrival rate, block cadence, LI batch size,
/// group retirement, journal compaction and (for [`Carrier::TcpLoopback`])
/// the wire — through the recomposed pipeline.
///
/// `requests` overrides the spec's request count and `per_block_factor`
/// multiplies its requests-per-block (for `pipeline.scale3x_ratio`);
/// `trace` records spans, `capture` keeps inputs for the leaf timings.
///
/// # Panics
///
/// Panics when a layer refuses its own pipeline's input — a bug, not a
/// measurement.
#[allow(clippy::too_many_lines)]
pub fn run(
    spec: &ScenarioSpec,
    carrier: Carrier,
    requests: u64,
    per_block_factor: u64,
    trace: bool,
    capture: bool,
) -> PipelineRun {
    let mut recorder = Tracer::new(trace);
    let tracer = &mut recorder;
    let c = &spec.config;
    let monitoring = c.monitoring_enabled;
    let tenants = &c.federation.tenants;
    let tenant_count = tenants.len().max(1);
    let key = SymmetricKey::from_bytes([42; 32]);

    // --- access control plane (as run_scenario builds it) -----------------
    let mut peps: Vec<Pep> = tenants
        .iter()
        .map(|t| Pep::new(t.pep, t.id, c.bias))
        .collect();
    let prp = Prp::new(c.policy.clone());
    let mut probe_mac_keys: BTreeMap<ProbeId, [u8; 32]> = BTreeMap::new();
    let clouds: BTreeSet<u32> = tenants.iter().map(|t| t.cloud.0).collect();
    let pdp_probe_ids: Vec<ProbeId> = match spec.placement {
        PdpPlacement::Central => vec![ProbeId(0)],
        PdpPlacement::PerCloud => clouds.iter().map(|c| ProbeId(PDP_PROBE_BASE + c)).collect(),
    };
    let slot_of_tenant: Vec<usize> = tenants
        .iter()
        .map(|t| match spec.placement {
            PdpPlacement::Central => 0,
            PdpPlacement::PerCloud => clouds
                .iter()
                .position(|c| *c == t.cloud.0)
                .expect("tenant cloud is in the cloud set"),
        })
        .collect();
    let pdps: Vec<Pdp> = pdp_probe_ids.iter().map(|_| prp.active().pdp()).collect();
    let mut pdp_journals: Vec<Wal> = pdp_probe_ids.iter().map(|_| mem_wal(64)).collect();
    let mut pdp_probes: Vec<Probe> = pdp_probe_ids
        .iter()
        .map(|&id| {
            probe_mac_keys.insert(id, probe_mac_key(id));
            Probe::new(id, key.clone(), probe_mac_key(id))
        })
        .collect();

    // --- monitoring plane ---------------------------------------------------
    let mut pep_probes: Vec<Probe> = (0..tenant_count)
        .map(|i| {
            let id = ProbeId(u32::try_from(i).expect("few tenants") + 1);
            probe_mac_keys.insert(id, probe_mac_key(id));
            Probe::new(id, key.clone(), probe_mac_key(id))
        })
        .collect();
    let infra_li = tenant_count;
    let mut lis: Vec<LoggingInterface> = (0..=tenant_count)
        .map(|i| {
            let name = format!("li-{i}");
            let mut li = LoggingInterface::new(
                name.clone(),
                key.clone(),
                Keypair::from_seed(name.as_bytes()),
                c.li_batch_size,
            );
            li.attach_backlog(mem_wal(64));
            if spec.load.li_resident_cap > 0 {
                li.set_resident_cap(spec.load.li_resident_cap as usize);
            }
            li
        })
        .collect();

    // --- chain and Analyser ---------------------------------------------------
    let admin = Keypair::from_seed(b"drams-admin");
    let analyser_kp = Keypair::from_seed(b"drams-analyser");
    let chain_config = ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        max_block_txs: 4096,
        verify_signatures: false,
        ..ChainConfig::default()
    };
    let node_wal = Rc::new(RefCell::new(mem_wal(256)));
    let mut node = Node::new(chain_config.clone());
    node.register_contract(Box::new(MonitorContract));
    node.set_journal(Box::new(WalJournal::new(node_wal.clone())));
    if monitoring {
        node.submit_call(
            &admin,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(c.group_timeout, analyser_kp.public().fingerprint()),
        )
        .expect("init submission");
        node.mine_block(0).expect("init block");
    }
    let init_height = node.chain().tip_header().height;
    let event_base = node.events().len();
    let load = spec.load.clamped();
    let mut analyser = Analyser::new(c.policy.clone(), key.clone(), analyser_kp, probe_mac_keys);
    analyser.enable_fork_detection();
    if load.analyser_retire_lag > 0 {
        analyser.enable_group_retirement(load.analyser_retire_lag);
    }
    if load.policy_history_retention > 0 {
        analyser.enable_history_retention(load.policy_history_retention);
    }
    analyser
        .attach_checkpoint(SnapshotStore::new(Box::new(MemBackend::new())))
        .expect("analyser checkpoint");

    // --- the run ----------------------------------------------------------------
    let mut wire = Wire {
        transport: (carrier == Carrier::TcpLoopback).then(TcpTransport::loopback),
        seq: 0,
    };
    let mut generator = RequestGenerator::new(Vocabulary::default(), 1.1, c.seed ^ 0x9e37);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let per_block =
        ((c.request_rate_per_sec * c.block_interval as f64 / SECONDS as f64).round() as u64).max(1)
            * per_block_factor;
    let ticks_per_block = (c.block_interval / c.li_flush_interval.max(1)).max(1);
    let per_tick = per_block.div_ceil(ticks_per_block);
    let mut captured_entries: Vec<LogEntry> = Vec::new();
    let mut captured_requests: Vec<RequestEnvelope> = Vec::new();
    let mut alerts = 0u64;
    let mut now: SimTime;
    let mut issued = 0u64;
    let total_rounds = requests.div_ceil(per_block) + drain_rounds(spec);
    let li_role = |li: usize| WireRole::Li {
        index: u32::try_from(li).expect("few LIs"),
    };

    let start = Instant::now();
    for round in 1..=total_rounds {
        let round_end = round * c.block_interval;
        for tick in 0..ticks_per_block {
            let batch = per_tick.min(requests - issued);
            for i in 0..batch {
                // Arrivals spread evenly over the tick.
                now = round_end - c.block_interval
                    + tick * c.li_flush_interval
                    + i * c.li_flush_interval / per_tick.max(1);
                let tenant =
                    usize::try_from(issued).expect("request count fits usize") % tenant_count;
                let slot = slot_of_tenant.get(tenant).copied().unwrap_or(0);
                let slot_u32 = u32::try_from(slot).expect("few PDPs");
                let request_span = tracer.enter(REQUEST_SPAN, issued);
                let request = span!(tracer, "faas.workload.next_request", issued, {
                    generator.next_request()
                });
                let service = tenants
                    .get(tenant)
                    .and_then(|t| t.services.first())
                    .cloned()
                    .unwrap_or_default();
                let env = span!(tracer, "faas.pep.intercept", issued, {
                    peps[tenant].intercept(service, request, now)
                });
                let corr = env.correlation.0;
                let mut entries: [Option<(usize, LogEntry)>; 4] = [None, None, None, None];
                if monitoring {
                    entries[0] = Some((
                        tenant,
                        span!(tracer, "core.probe.observe", corr, {
                            pep_probes[tenant].observe_request(
                                ObservationPoint::PepRequest,
                                &env,
                                now,
                            )
                        }),
                    ));
                }
                let env = wire.carry(
                    tracer,
                    corr,
                    WireRole::Pdp { slot: slot_u32 },
                    1,
                    slot_u32,
                    env,
                );
                if monitoring {
                    entries[1] = Some((
                        infra_li,
                        span!(tracer, "core.probe.observe", corr, {
                            pdp_probes[slot].observe_request(
                                ObservationPoint::PdpRequest,
                                &env,
                                now,
                            )
                        }),
                    ));
                }
                let response = span!(tracer, "policy.pdp.evaluate", corr, {
                    pdps[slot].evaluate(&env.request)
                });
                let resp_env = ResponseEnvelope {
                    correlation: env.correlation,
                    pep: env.pep,
                    response,
                    policy_version: pdps[slot].policy_version(),
                    decided_at: now,
                };
                if monitoring {
                    entries[2] = Some((
                        infra_li,
                        span!(tracer, "core.probe.observe", corr, {
                            pdp_probes[slot].observe_pdp_response(&resp_env, now)
                        }),
                    ));
                }
                span!(tracer, "store.pdp_journal.append", corr, {
                    // The record PdpSlot journals: tag, correlation, the
                    // as-sent response.
                    let mut rec = vec![1u8];
                    rec.extend_from_slice(&corr.to_be_bytes());
                    rec.extend_from_slice(&resp_env.to_canonical_bytes());
                    pdp_journals[slot].append(&rec).expect("pdp journal append");
                });
                let resp_env = wire.carry(tracer, corr, WireRole::Pep, 2, slot_u32, resp_env);
                let enforcement = span!(tracer, "faas.pep.enforce", corr, {
                    peps[tenant].enforce(&resp_env)
                })
                .expect("response correlates with the pending request");
                if monitoring {
                    entries[3] = Some((
                        tenant,
                        span!(tracer, "core.probe.observe", corr, {
                            pep_probes[tenant].observe_pep_response(
                                &resp_env,
                                enforcement.granted,
                                now,
                            )
                        }),
                    ));
                }
                if capture && captured_requests.len() < CAPTURE_LIMIT {
                    captured_requests.push(env);
                }
                for (li, entry) in entries.into_iter().flatten() {
                    if capture && captured_entries.len() < CAPTURE_LIMIT {
                        captured_entries.push(entry.clone());
                    }
                    let li_u32 = u32::try_from(li).expect("few LIs");
                    let entry = wire.carry(tracer, corr, li_role(li), 3, li_u32, entry);
                    span!(tracer, "core.li.store", corr, {
                        lis[li].store(entry, &mut node).expect("li submission")
                    });
                }
                tracer.exit(request_span);
                issued += 1;
            }
            if monitoring {
                // The LiFlushTick of every LI.
                for li in &mut lis {
                    span!(tracer, "core.li.flush", 0, {
                        li.flush(&mut node).expect("li flush")
                    });
                }
            }
        }
        if !monitoring {
            if issued == requests {
                break; // nothing ticks during the drain with monitoring off
            }
            continue;
        }
        // The MineTick, then two AnalyserTicks.
        now = round_end;
        let round_span = tracer.enter(ROUND_SPAN, 0);
        let next_height = node.chain().tip_header().height + 1;
        if c.epoch_blocks > 0 && next_height.is_multiple_of(c.epoch_blocks) {
            span!(tracer, "chain.node.submit_call", 0, {
                node.submit_call(&admin, MONITOR_CONTRACT, "advance_epoch", vec![])
                    .expect("epoch submission")
            });
        }
        span!(tracer, "chain.node.mine_block", 0, {
            node.mine_block(now).expect("mining")
        });
        if load.chain_compact_interval > 0
            && next_height.is_multiple_of(load.chain_compact_interval)
        {
            span!(tracer, "store.journal.compact", 0, {
                drams_store::persist::compact_node_journal(&mut node_wal.borrow_mut())
                    .expect("chain journal compaction")
            });
        }
        if c.analyser_enabled {
            for poll_at in [now, now + c.analyser_poll_interval] {
                alerts += span!(tracer, "core.analyser.poll", 0, {
                    analyser.poll(&mut node, poll_at)
                })
                .len() as u64;
                span!(tracer, "core.analyser.checkpoint", 0, {
                    analyser.checkpoint().expect("analyser checkpoint")
                });
            }
        }
        tracer.exit(round_span);
    }
    let wall_s = start.elapsed().as_secs_f64();

    // --- counts ---------------------------------------------------------------------
    alerts += node.events()[event_base..]
        .iter()
        .filter(|e| e.name.starts_with("alert."))
        .count() as u64;
    let chain = node.chain();
    let mut blocks: Vec<Block> = Vec::new();
    let mut cursor = chain.tip_hash();
    while let Some(block) = chain.block(&cursor) {
        if block.header.height <= init_height {
            break;
        }
        blocks.push(block.clone());
        cursor = block.header.parent;
    }
    blocks.reverse();
    let (cache_hits, cache_misses) = pdps
        .iter()
        .map(Pdp::cache_stats)
        .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm));
    PipelineRun {
        wall_s,
        requests,
        spans: recorder.into_spans(),
        checked_groups: analyser.checked_groups(),
        alerts,
        groups_retired: analyser.groups_retired(),
        chain_bytes: blocks.iter().map(|b| b.wire_len() as u64).sum(),
        storage_keys: node
            .host()
            .storage_of(MONITOR_CONTRACT)
            .map_or(0, |s| s.len() as u64),
        cache_hits,
        cache_misses,
        captured: capture.then(|| Captured {
            entries: captured_entries,
            requests: captured_requests,
            tip: chain.tip_hash(),
            blocks,
            node_wal: node_wal.clone(),
            chain_config,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Carrier, WORKLOADS};

    fn smoke(name: &str) -> PipelineRun {
        let w = by_name(name).expect("known workload");
        let spec = w.spec(7, 200.0 / w.requests as f64);
        assert_eq!(spec.config.total_requests, 200);
        // The socket path is exercised by the tcp_loopback workload smoke;
        // here every shape runs in-process.
        run(&spec, Carrier::Des, 200, 1, true, true)
    }

    #[test]
    fn analyser_checks_every_group_and_raises_nothing_on_every_shape() {
        for w in &WORKLOADS {
            let run = smoke(w.name);
            let monitored = w.name != "monitoring_off";
            assert_eq!(run.alerts, 0, "{}", w.name);
            assert_eq!(
                run.checked_groups,
                if monitored { 200 } else { 0 },
                "{}",
                w.name
            );
            let totals = crate::spans::totals_by_name(&run.spans);
            assert_eq!(totals[REQUEST_SPAN].calls, 200, "{}", w.name);
            assert_eq!(totals["policy.pdp.evaluate"].calls, 200, "{}", w.name);
            assert_eq!(
                totals.get("core.probe.observe").map_or(0, |t| t.calls),
                if monitored { 800 } else { 0 },
                "{}",
                w.name
            );
            assert_eq!(
                totals.get("core.li.store").map_or(0, |t| t.calls),
                if monitored { 800 } else { 0 },
                "{}",
                w.name
            );
            assert!(
                totals
                    .keys()
                    .all(|n| SPAN_NAMES.contains(n) || *n == REQUEST_SPAN || *n == ROUND_SPAN),
                "{}: unknown span name",
                w.name
            );
        }
    }

    #[test]
    fn steady_shape_counts_and_capture() {
        let run = smoke("steady");
        // 200 requests at 1000 req/s = one 500-request block period, then
        // the drain: 19 s of 500 ms rounds.
        let captured = run.captured.expect("capture requested");
        assert_eq!(captured.blocks.len(), 1 + 38);
        assert_eq!(captured.entries.len(), CAPTURE_LIMIT);
        assert_eq!(captured.requests.len(), 200);
        assert_eq!(captured.blocks.last().map(Block::hash), Some(captured.tip));
        // 800 entries in batches of at most 8.
        let txs: usize = captured.blocks.iter().map(|b| b.transactions.len()).sum();
        assert!(txs >= 100, "txs {txs}");
        assert!(run.chain_bytes > 0 && run.storage_keys > 0);
        assert_eq!(run.cache_hits + run.cache_misses, 200);
    }

    #[test]
    fn flash_shape_retires_groups_during_the_drain() {
        let run = smoke("flash_crowd");
        assert_eq!(run.groups_retired, 200);
    }

    #[test]
    fn tcp_carrier_round_trips_six_frames_per_request() {
        let w = by_name("tcp_loopback").expect("known workload");
        let spec = w.spec(7, 50.0 / w.requests as f64);
        let run = run(&spec, Carrier::TcpLoopback, 50, 1, true, false);
        let totals = crate::spans::totals_by_name(&run.spans);
        assert_eq!(totals["net.wire.deliver"].calls, 300);
        assert_eq!(run.checked_groups, 50);
        assert_eq!(run.alerts, 0);
    }
}
