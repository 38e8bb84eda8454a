//! The event-driven scenario runtime: Figure 1 as a graph of services.
//!
//! The monolithic monitor loop is decomposed into actor-style
//! [`SimService`]s on the deterministic DES
//! ([`drams_faas::des::ServiceRuntime`]): a workload source, the PEPs
//! with their probes, one-or-more PDPs (central in the infrastructure
//! tenant, or one per member cloud), the per-tenant Logging Interfaces,
//! the chain node with its contract sweep, the Analyser, and a scenario
//! controller. Services share nothing but the simulation context
//! ([`measurement sinks`](crate::monitor::MonitorReport) and the chain
//! substrate); everything between them travels as a typed scheduled
//! event (the private `Msg` enum below).
//!
//! On top of the services sits the declarative [`ScenarioSpec`] layer:
//! phased arrival rates, mid-run policy publication/rollback through the
//! PRP, tenant join/leave churn, per-cloud PDP placement and scripted
//! fault windows (a stalled LI, a silent PDP). The canonical scenario —
//! no phases, central PDP, empty script — reproduces the classic
//! [`run_monitor`](crate::monitor::run_monitor) deployment exactly.
//!
//! A declared [`FaultPlan`] additionally interposes a deterministic
//! [`FaultPlane`] between every service outbox and the event queue:
//! per-link drop / duplicate / reorder / delay faults and timed
//! partitions between named sites. The protocol is robust against it —
//! PEPs retry with capped exponential backoff and fail over through a
//! per-cloud circuit breaker, PDPs answer retransmissions from a
//! journaled decision cache, LIs spill their backlog to the WAL while
//! the chain is unreachable and replay on heal, and the epoch sweep is
//! retuned to a widened group timeout across each disruption window so
//! transient faults never surface as `MissingLog` false positives.
//!
//! # Event taxonomy (service graph)
//!
//! ```text
//! Workload --Intercept--> PEPs --PdpReceive--> PDPs
//!    ^                     ^  \                 |  \
//!    |          PepReceive-+   +--LiDeliver--+  |   +--LiDeliver--+
//!  Arrival                                   v  v                 v
//! Controller --Script/Activate...-->       LIs --(chain submit)--> [node]
//!     |\--PolicyAdmin/SilencePdp--> PDPs    ^
//!     |\--StallLi/ProvisionLi-----> LIs     +--LiFlushTick (self)
//!     |\--ProvisionPep------------> PEPs
//!      \--ProvisionProbeKey/AnalyserPolicy--> Analyser --AnalyserTick (self)
//! Chain --MineTick (self)--> [mines, sweeps epochs, harvests alerts]
//! ```

use crate::adversary::Adversary;
use crate::alert::Alert;
use crate::analyser::Analyser;
use crate::contract::{MonitorContract, GROUP_COMPLETE_EVENT, MONITOR_CONTRACT};
use crate::li::LoggingInterface;
use crate::logent::{LogEntry, ObservationPoint, ProbeId};
use crate::monitor::{GroundTruth, MonitorConfig, MonitorReport};
use crate::probe::Probe;
use drams_chain::block::Block;
use drams_chain::chain::ChainConfig;
use drams_chain::node::Node;
use drams_chain::tx::{Transaction, TxId};
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::schnorr::Keypair;
use drams_crypto::sha256::Digest;
use drams_faas::des::{Outbox, ServiceRuntime, SimService, SimTime, MILLIS, SECONDS};
use drams_faas::fault::{FaultPlan, FaultPlane, Site};
use drams_faas::model::{CloudId, LatencyModel, PepId, TenantId, TenantSpec};
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_faas::pep::Pep;
use drams_faas::prp::Prp;
use drams_faas::transport::{DesTransport, Transport, TransportError, WireFrame, WireRole};
use drams_faas::workload::{PoissonArrivals, RequestGenerator, Vocabulary, Zipf};
use drams_policy::attr::Request;
use drams_policy::policy::PolicySet;
use drams_store::persist::{compact_node_journal, recover_node, WalJournal};
use drams_store::{Durability, MemBackend, SnapshotStore, Wal, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

/// Probe ids `>= PDP_PROBE_BASE` belong to per-cloud PDP probes; member
/// PEP probes count up from 1 and the central PDP probe is 0, as in the
/// classic deployment.
pub const PDP_PROBE_BASE: u32 = 0x8000_0000;

// ---------------------------------------------------------------------------
// Named RNG streams
// ---------------------------------------------------------------------------

/// Derives a named, independent RNG stream from the master seed.
///
/// Each simulation component draws from its own stream, so adding a
/// scenario component (or making one draw more often) no longer perturbs
/// every other component's sequence — scenarios stay comparable across
/// variations.
#[must_use]
pub fn stream_rng(master_seed: u64, name: &str) -> StdRng {
    let digest = Digest::of_parts(&[
        b"drams-rng-stream",
        &master_seed.to_be_bytes(),
        name.as_bytes(),
    ]);
    let mut word = [0u8; 8];
    word.copy_from_slice(&digest.as_bytes()[..8]);
    StdRng::seed_from_u64(u64::from_be_bytes(word))
}

/// The per-component streams of one run.
#[derive(Debug)]
pub struct RngStreams {
    /// Arrival gaps, tenant/service selection (the request generator has
    /// its own seed, as before).
    pub workload: StdRng,
    /// Network link latency sampling.
    pub net: StdRng,
    /// Churn timing jitter (tenant join settle time).
    pub churn: StdRng,
    /// Retry backoff jitter. Drawn from only when a retransmission
    /// actually happens, so fault-free runs leave the stream untouched
    /// and stay byte-comparable with pre-fault-plane baselines.
    pub retry: StdRng,
    /// Zipf tenant-rank sampling of the population model. Drawn from
    /// only when a [`LoadProfile`] declares a population, so profile-less
    /// runs leave every other stream's sequence untouched.
    pub population: StdRng,
}

impl RngStreams {
    /// Builds all streams from the master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        RngStreams {
            workload: stream_rng(master_seed, "workload"),
            net: stream_rng(master_seed, "net"),
            churn: stream_rng(master_seed, "churn"),
            retry: stream_rng(master_seed, "retry"),
            population: stream_rng(master_seed, "population"),
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness knobs
// ---------------------------------------------------------------------------

/// First retransmission timeout of a PEP request (well above any
/// round-trip the latency models can produce).
const RETRY_BASE: SimTime = 100 * MILLIS;
/// Exponential backoff ceiling between retransmissions.
const RETRY_CAP: SimTime = 2 * SECONDS;
/// Delivery attempts before the PEP abandons a request for good; the
/// schedule `100ms·2^n` capped at [`RETRY_CAP`] makes this a retry
/// budget of roughly nine seconds — any outage shorter than that is
/// masked, anything longer is a real, monitorable loss.
const MAX_ATTEMPTS: u32 = 8;
/// Worst-case wall time from a request's first send to its abandonment:
/// the first timer is `RETRY_BASE` flat, then each retry waits
/// `backoff + jitter` with `jitter ≤ backoff/4`, so
/// `0.1 + 1.25·(0.2+0.4+0.8+1.6+2+2+2) ≈ 11.35s`. The drain deadline
/// must outlive this or abandonments (and their alerts) are cut off.
const RETRY_BUDGET: SimTime = 12 * SECONDS;
/// Consecutive timeouts on one PDP slot before its circuit breaker
/// opens and the PEP fails over to a healthy slot.
const BREAKER_THRESHOLD: u32 = 3;
/// How long an open breaker refuses traffic before letting one
/// half-open probe through.
const BREAKER_COOLDOWN: SimTime = SECONDS;
/// Settling margin around a declared disruption window: retransmissions
/// queued at the end of a window need `RETRY_CAP` plus commit latency to
/// land, so degraded-mode timeouts stay widened this long past the heal.
pub const FAULT_SETTLE: SimTime = 4 * SECONDS;

/// The MAC key a probe obtains from its tenant TPM at provisioning time
/// (deterministic per probe id, so the Analyser can be provisioned with
/// the same key).
#[must_use]
pub fn probe_mac_key(id: ProbeId) -> [u8; 32] {
    *Digest::of_parts(&[b"probe-mac", &id.0.to_be_bytes()]).as_bytes()
}

// ---------------------------------------------------------------------------
// Overload / population model
// ---------------------------------------------------------------------------

/// Hard ceiling on any effective arrival rate: beyond this the DES would
/// grind through sub-microsecond gaps without modelling anything new.
pub const MAX_REQUEST_RATE: f64 = 50_000.0;
/// Floor for a declared arrival rate: a pathological rate (zero,
/// negative, NaN, infinite) clamps here instead of panicking the Poisson
/// sampler or freezing virtual time.
pub const MIN_REQUEST_RATE: f64 = 0.05;
/// Largest modelled tenant population.
pub const MAX_POPULATION: u32 = 1_000_000;
/// Largest diurnal/spike multiplier, in permille (×100).
pub const MAX_LOAD_MULTIPLIER_PERMILLE: u32 = 100_000;
/// Evictions of the PDP idempotency cache accumulated before its journal
/// is compacted (snapshot of the live window + prune of sealed segments).
const PDP_COMPACT_EVICTIONS: u64 = 256;
/// Floor for any retention/retirement window a [`LoadProfile`] declares:
/// the full retry budget plus the fault settle margin. No retransmission,
/// fault-plane duplicate or post-heal replay can arrive later than this,
/// so state aged out past the floor can never be asked for again —
/// eviction stays invisible to the protocol.
pub const MIN_RETENTION: SimTime = RETRY_BUDGET + FAULT_SETTLE;

/// Clamps a declared Poisson rate into the sane band. Finite in-range
/// rates pass through untouched, so profile-less runs are byte-identical
/// to pre-clamp baselines.
#[must_use]
pub fn clamp_rate(rate_per_sec: f64) -> f64 {
    if rate_per_sec.is_finite() && rate_per_sec > 0.0 {
        rate_per_sec.clamp(MIN_REQUEST_RATE, MAX_REQUEST_RATE)
    } else {
        MIN_REQUEST_RATE
    }
}

/// One band of the diurnal schedule: from `start`, the phased base rate
/// is multiplied by `multiplier_permille`/1000 (1000 = ×1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiurnalBand {
    /// Virtual time the band begins (it lasts until the next band).
    pub start: SimTime,
    /// Rate multiplier in permille.
    pub multiplier_permille: u32,
}

/// A flash-crowd spike layered on top of the diurnal schedule: between
/// `from` and `until`, the rate is additionally multiplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowd {
    /// Spike start.
    pub from: SimTime,
    /// Spike end (exclusive).
    pub until: SimTime,
    /// Rate multiplier in permille.
    pub multiplier_permille: u32,
}

/// The population/overload model of a scenario: Zipf-skewed traffic over
/// a (virtual) tenant population, diurnal rate schedules, flash-crowd
/// spikes, and the capacity knobs of every bounded state pool. The
/// default (empty) profile changes **nothing** — runs without one take
/// the exact pre-profile code paths and stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Virtual tenant-population size the Zipf sampler ranks over; the
    /// sampled rank maps onto the deployed tenants modulo the active
    /// set. 0 = population model off (uniform tenant pick, as before).
    pub population: u32,
    /// Zipf skew exponent (0 = uniform; ~1 is the classic web skew).
    pub zipf_exponent: f64,
    /// Diurnal rate schedule, sorted by start (empty = flat).
    pub diurnal: Vec<DiurnalBand>,
    /// Flash-crowd spikes layered on the schedule.
    pub spikes: Vec<FlashCrowd>,
    /// Admission-control cap on in-flight PEP requests; past it new
    /// arrivals are shed with a typed outcome. 0 = unbounded.
    pub pep_inflight_cap: u32,
    /// High-water mark for LI in-memory buffers; past it entries spill
    /// to the backlog WAL. 0 = unbounded.
    pub li_resident_cap: u32,
    /// Retention window of the PDP's journaled idempotency cache;
    /// entries older than this are evicted and the journal compacted.
    /// 0 = keep forever. Clamped up to [`MIN_RETENTION`].
    pub idempotency_retention: SimTime,
    /// How long after a group's verification the Analyser retires it
    /// (prunes its evidence from contract storage). 0 = never. Clamped
    /// up to [`MIN_RETENTION`].
    pub analyser_retire_lag: SimTime,
    /// How long a superseded authorised-policy version outlives its
    /// retirement before the Analyser drops it from the verification
    /// history. 0 = keep forever. Clamped up to [`MIN_RETENTION`].
    pub policy_history_retention: SimTime,
    /// Compact the chain node's write-ahead journal every this many
    /// blocks (snapshot + prune). 0 = never.
    pub chain_compact_interval: u64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            population: 0,
            zipf_exponent: 1.0,
            diurnal: Vec::new(),
            spikes: Vec::new(),
            pep_inflight_cap: 0,
            li_resident_cap: 0,
            idempotency_retention: 0,
            analyser_retire_lag: 0,
            policy_history_retention: 0,
            chain_compact_interval: 0,
        }
    }
}

impl LoadProfile {
    /// Whether the profile is the default no-op.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == LoadProfile::default()
    }

    /// Validates and clamps every knob into its sane band: pathological
    /// populations, exponents and multipliers are bounded, and any
    /// declared retention/retirement window is floored at
    /// [`MIN_RETENTION`] so eviction can never race the retry budget.
    #[must_use]
    pub fn clamped(&self) -> Self {
        let clamp_mult = |m: u32| -> u32 { m.clamp(1, MAX_LOAD_MULTIPLIER_PERMILLE) };
        LoadProfile {
            population: self.population.min(MAX_POPULATION),
            zipf_exponent: if self.zipf_exponent.is_finite() {
                self.zipf_exponent.clamp(0.0, 8.0)
            } else {
                1.0
            },
            diurnal: self
                .diurnal
                .iter()
                .map(|b| DiurnalBand {
                    start: b.start,
                    multiplier_permille: clamp_mult(b.multiplier_permille),
                })
                .collect(),
            spikes: self
                .spikes
                .iter()
                .map(|s| FlashCrowd {
                    from: s.from,
                    until: s.until.max(s.from),
                    multiplier_permille: clamp_mult(s.multiplier_permille),
                })
                .collect(),
            pep_inflight_cap: self.pep_inflight_cap,
            li_resident_cap: self.li_resident_cap,
            idempotency_retention: if self.idempotency_retention > 0 {
                self.idempotency_retention.max(MIN_RETENTION)
            } else {
                0
            },
            analyser_retire_lag: if self.analyser_retire_lag > 0 {
                self.analyser_retire_lag.max(MIN_RETENTION)
            } else {
                0
            },
            policy_history_retention: if self.policy_history_retention > 0 {
                self.policy_history_retention.max(MIN_RETENTION)
            } else {
                0
            },
            chain_compact_interval: self.chain_compact_interval,
        }
    }

    /// The combined diurnal × spike multiplier at `now`, in permille².
    fn multiplier_at(&self, now: SimTime) -> (u64, u64) {
        let diurnal = self
            .diurnal
            .iter()
            .rev()
            .find(|b| b.start <= now)
            .map_or(1000, |b| u64::from(b.multiplier_permille));
        let spike = self
            .spikes
            .iter()
            .filter(|s| s.from <= now && now < s.until)
            .map(|s| u64::from(s.multiplier_permille))
            .max()
            .unwrap_or(1000);
        (diurnal, spike)
    }

    /// The effective arrival rate at `now` for a phased base rate:
    /// base × diurnal × spike, clamped into the sane band.
    #[must_use]
    pub fn effective_rate(&self, base_rate: f64, now: SimTime) -> f64 {
        let (diurnal, spike) = self.multiplier_at(now);
        #[allow(clippy::cast_precision_loss)]
        clamp_rate(base_rate * (diurnal as f64 / 1000.0) * (spike as f64 / 1000.0))
    }
}

// ---------------------------------------------------------------------------
// Scenario specification
// ---------------------------------------------------------------------------

/// One workload phase: from `start`, requests arrive at `rate_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Virtual time the phase begins.
    pub start: SimTime,
    /// Poisson arrival rate while the phase is active.
    pub rate_per_sec: f64,
}

/// Where access decisions are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdpPlacement {
    /// One PDP in the infrastructure tenant (the classic deployment);
    /// PEPs reach it over the federation link.
    Central,
    /// One PDP per member cloud (the paper's Figure-1 federation:
    /// decisions are taken where the requests originate); PEPs reach
    /// their cloud's PDP over the local link.
    PerCloud,
}

/// A scripted, virtually-timed scenario action.
#[derive(Debug, Clone)]
pub enum ScriptedAction {
    /// Legitimate policy administration: publish a new version through
    /// the PRP; every PDP switches to it and the Analyser authorises it.
    PublishPolicy {
        /// When to publish.
        at: SimTime,
        /// The new policy.
        policy: PolicySet,
    },
    /// Legitimate rollback: re-activate a previously published version.
    RollbackPolicy {
        /// When to roll back.
        at: SimTime,
        /// The PRP version number to restore (0 = initial).
        version: u64,
    },
    /// A new tenant joins a member cloud: PEP, probe and LI are
    /// provisioned, the Analyser learns the probe key, then the workload
    /// starts routing requests to it.
    TenantJoin {
        /// When the join begins.
        at: SimTime,
        /// The cloud the tenant joins.
        cloud: CloudId,
        /// Services hosted by the new tenant.
        services: u32,
    },
    /// A tenant leaves gracefully: the workload stops targeting it
    /// immediately; its PEP and LI stay alive to drain in-flight work.
    TenantLeave {
        /// When the leave takes effect.
        at: SimTime,
        /// The departing tenant.
        tenant: TenantId,
    },
    /// Fault window: the tenant's Logging Interface stops submitting;
    /// observations buffer and drain when the window closes.
    StallLi {
        /// Window start.
        at: SimTime,
        /// Window end.
        until: SimTime,
        /// Whose LI ([`TenantId::INFRASTRUCTURE`] = the infra LI).
        tenant: TenantId,
    },
    /// Fault window: a PDP goes silent — requests routed to it are
    /// neither observed nor answered.
    SilencePdp {
        /// Window start.
        at: SimTime,
        /// Window end.
        until: SimTime,
        /// Which cloud's PDP (any value selects the central PDP under
        /// [`PdpPlacement::Central`]).
        cloud: CloudId,
    },
    /// Fault: a monitoring-plane service crashes, losing all in-memory
    /// state, and restarts from its durable store (the chain node's
    /// write-ahead journal, the LI's backlog WAL, the Analyser's
    /// verification checkpoint). The E11 acceptance bar is that the run
    /// then proceeds **byte-identically** to the uninterrupted run —
    /// recovery loses nothing and repeats nothing.
    CrashRestart {
        /// When the crash-and-restart happens (the restart is modelled
        /// as instantaneous in virtual time; events in flight to the
        /// service are delivered to the recovered instance).
        at: SimTime,
        /// Which service crashes.
        target: CrashTarget,
    },
    /// Chain attack: a hostile miner re-mines the top `depth` blocks of
    /// the main chain on a side branch (same transactions, shifted
    /// timestamps) and extends it by one empty block, forcing a reorg of
    /// the honest node. Contract state replays identically, so the
    /// monitoring pipeline keeps running — only the Analyser's
    /// sibling-block sweep can tell the history was rewritten.
    ForkChain {
        /// When the rewrite lands.
        at: SimTime,
        /// How many tip blocks the attacker rewrites (clamped to the
        /// blocks above genesis).
        depth: u64,
    },
    /// Byzantine chain node: mines **two** sibling blocks at the same
    /// height on the same parent (different timestamps) and feeds both
    /// to the network. One becomes a stale sibling — equivocation that
    /// the Analyser's sibling-block sweep must flag.
    EquivocateBlock {
        /// When the equivocation happens.
        at: SimTime,
    },
    /// Byzantine chain node: injects a structurally valid,
    /// sufficiently-worked block that carries a transaction with a
    /// forged signature. A node that skips signature verification
    /// accepts it; the Analyser's independent audit must flag it.
    InvalidSignatureBlock {
        /// When the block is injected.
        at: SimTime,
    },
    /// Byzantine chain node: silently discards one pending log
    /// transaction from its mempool (a withheld commit) — the youngest
    /// one of its Logging Interface, so the freed nonce slot is simply
    /// reused by the LI's next flush. The entries the withheld
    /// transaction carried never reach the chain, so the contract's
    /// epoch sweep must raise `MissingLog` for each of them, and
    /// nothing else may be disturbed.
    WithholdTx {
        /// When the transaction is discarded.
        at: SimTime,
    },
}

/// The service a [`ScriptedAction::CrashRestart`] kills and restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    /// The blockchain node: chain, contract state and mempool are
    /// rebuilt by replaying its write-ahead journal.
    ChainNode,
    /// A tenant's Logging Interface ([`TenantId::INFRASTRUCTURE`] = the
    /// infra LI): the unflushed batch backlog is recovered from its WAL.
    Li(TenantId),
    /// The Analyser: resumes from its verification checkpoint without
    /// re-scanning the chain or re-raising alerts.
    Analyser,
    /// A cloud's PDP (any value selects the central PDP under
    /// [`PdpPlacement::Central`]): the engine is rebuilt from the PRP's
    /// durable active policy and the as-sent decision cache plus any
    /// standing silence window replay from the slot's write-ahead
    /// journal, so a retransmission answered after the restart is
    /// byte-identical to one answered before it.
    Pdp(CloudId),
}

impl ScriptedAction {
    /// The virtual time the action fires.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            ScriptedAction::PublishPolicy { at, .. }
            | ScriptedAction::RollbackPolicy { at, .. }
            | ScriptedAction::TenantJoin { at, .. }
            | ScriptedAction::TenantLeave { at, .. }
            | ScriptedAction::StallLi { at, .. }
            | ScriptedAction::SilencePdp { at, .. }
            | ScriptedAction::CrashRestart { at, .. }
            | ScriptedAction::ForkChain { at, .. }
            | ScriptedAction::EquivocateBlock { at }
            | ScriptedAction::InvalidSignatureBlock { at }
            | ScriptedAction::WithholdTx { at } => *at,
        }
    }
}

/// A declarative end-to-end scenario: base deployment knobs plus phased
/// load, PDP placement and a script of timed actions.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (tables, trajectory files).
    pub name: String,
    /// The base deployment knobs.
    pub config: MonitorConfig,
    /// Workload phases, sorted by start time. Empty = constant
    /// `config.request_rate_per_sec`.
    pub phases: Vec<Phase>,
    /// Where decisions are taken.
    pub placement: PdpPlacement,
    /// Timed scenario actions.
    pub script: Vec<ScriptedAction>,
    /// The deterministic network fault plan (empty = perfect network).
    pub faults: FaultPlan,
    /// The population/overload model (empty = no overload machinery).
    pub load: LoadProfile,
}

impl ScenarioSpec {
    /// The canonical scenario: exactly the classic fixed-topology
    /// single-PDP run of [`crate::monitor::run_monitor`].
    #[must_use]
    pub fn canonical(config: &MonitorConfig) -> Self {
        ScenarioSpec {
            name: "canonical".to_string(),
            config: config.clone(),
            phases: Vec::new(),
            placement: PdpPlacement::Central,
            script: Vec::new(),
            faults: FaultPlan::default(),
            load: LoadProfile::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Policy-administration actions routed to the PDP service (which owns
/// the PRP).
#[derive(Debug)]
enum PolicyAdmin {
    Publish(PolicySet),
    Rollback(u64),
}

/// The typed events on the wire between services.
#[derive(Debug)]
enum Msg {
    // → workload source
    Arrival,
    // → PEP service
    Intercept {
        tenant: usize,
        service: String,
        request: Request,
    },
    /// A decision coming back from PDP slot `slot` (the sender matters
    /// to the fault plane's link matching and the breaker bookkeeping).
    PepReceive {
        slot: usize,
        env: ResponseEnvelope,
    },
    /// Retransmission timer for attempt `attempt` of an in-flight
    /// request; a no-op when the response already arrived.
    PepRetry {
        correlation: CorrelationId,
        attempt: u32,
    },
    ProvisionPep {
        tenant: usize,
    },
    // → PDP service
    PdpReceive {
        slot: usize,
        env: RequestEnvelope,
    },
    PolicyAdmin(PolicyAdmin),
    SilencePdp {
        slot: usize,
        until: SimTime,
    },
    CrashPdp {
        slot: usize,
    },
    // → LI service
    LiDeliver {
        li: usize,
        entry: LogEntry,
    },
    LiFlushTick {
        li: usize,
    },
    StallLi {
        li: usize,
        until: SimTime,
    },
    ProvisionLi {
        li: usize,
    },
    CrashLi {
        li: usize,
    },
    // → chain service
    MineTick,
    CrashChain,
    /// Degraded-mode retune: point the epoch sweep at a new group
    /// timeout (widened across a disruption window, restored after it).
    SetTimeout {
        timeout: SimTime,
    },
    // → analyser service
    AnalyserTick,
    AnalyserPolicy(PolicySet),
    ProvisionProbeKey {
        probe: ProbeId,
    },
    CrashAnalyser,
    // → scenario controller
    Script(usize),
    ActivateTenant {
        tenant: usize,
    },
}

// Service registration indices; the router below is the service graph's
// address table.
const SVC_WORKLOAD: usize = 0;
const SVC_PEP: usize = 1;
const SVC_PDP: usize = 2;
const SVC_LI: usize = 3;
const SVC_CHAIN: usize = 4;
const SVC_ANALYSER: usize = 5;
const SVC_CONTROLLER: usize = 6;

fn route(msg: &Msg) -> usize {
    match msg {
        Msg::Arrival => SVC_WORKLOAD,
        Msg::Intercept { .. }
        | Msg::PepReceive { .. }
        | Msg::PepRetry { .. }
        | Msg::ProvisionPep { .. } => SVC_PEP,
        Msg::PdpReceive { .. }
        | Msg::PolicyAdmin(_)
        | Msg::SilencePdp { .. }
        | Msg::CrashPdp { .. } => SVC_PDP,
        Msg::LiDeliver { .. }
        | Msg::LiFlushTick { .. }
        | Msg::StallLi { .. }
        | Msg::ProvisionLi { .. }
        | Msg::CrashLi { .. } => SVC_LI,
        Msg::MineTick | Msg::CrashChain | Msg::SetTimeout { .. } => SVC_CHAIN,
        Msg::AnalyserTick
        | Msg::AnalyserPolicy(_)
        | Msg::ProvisionProbeKey { .. }
        | Msg::CrashAnalyser => SVC_ANALYSER,
        Msg::Script(_) | Msg::ActivateTenant { .. } => SVC_CONTROLLER,
    }
}

/// Rebuilds a wire message for an extra (duplicated) delivery. Only the
/// three link-crossing messages the fault plane classifies ever need it.
fn clone_faulted(msg: &Msg) -> Msg {
    match msg {
        Msg::PdpReceive { slot, env } => Msg::PdpReceive {
            slot: *slot,
            env: env.clone(),
        },
        Msg::PepReceive { slot, env } => Msg::PepReceive {
            slot: *slot,
            env: env.clone(),
        },
        Msg::LiDeliver { li, entry } => Msg::LiDeliver {
            li: *li,
            entry: entry.clone(),
        },
        _ => unreachable!("only wire messages cross the fault plane"),
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

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

/// Pushes one delivery into the scheduler's buffer, carrying it through
/// the wire transport first when one is attached: the message is framed
/// (with the scheduler's delay riding in the frame), round-tripped
/// through the destination service's socket endpoint, and re-decoded
/// from the bytes that came back. Under [`DesTransport`] this is a plain
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

// ---------------------------------------------------------------------------
// Shared context
// ---------------------------------------------------------------------------

/// One tenant's runtime state.
#[derive(Debug)]
struct TenantRuntime {
    spec: TenantSpec,
    active: bool,
    /// Set on `TenantLeave`; a pending activation (join settle time)
    /// must not resurrect a tenant that departed in the meantime.
    departed: bool,
}

/// The shared simulation context: measurement sinks, ground truth, the
/// chain substrate and the routing tables that the controller maintains.
struct Ctx<'a> {
    node: Node,
    /// The node's write-ahead journal, shared with the [`WalJournal`]
    /// attached to `node` — kept here so a `CrashRestart` of the chain
    /// service can replay it into the restarted node.
    node_wal: Rc<RefCell<Wal>>,
    report: MonitorReport,
    truth: GroundTruth,
    adversary: &'a mut dyn Adversary,
    rngs: RngStreams,
    monitoring: bool,
    /// Link latency models (from the federation spec).
    to_li: LatencyModel,
    pep_pdp: LatencyModel,
    tenants: Vec<TenantRuntime>,
    /// Indices into `tenants` the workload currently targets.
    active_tenants: Vec<usize>,
    /// Tenant index → LI index.
    li_of_tenant: Vec<usize>,
    /// Tenant index → PDP slot.
    pdp_slot_of_tenant: Vec<usize>,
    /// Cloud id → PDP slot (all clouds map to slot 0 under central
    /// placement).
    pdp_slot_of_cloud: BTreeMap<u32, usize>,
    issued_at_by_corr: HashMap<CorrelationId, SimTime>,
    tx_entry_times: HashMap<TxId, Vec<SimTime>>,
    /// The deterministic per-link fault model every wire message crosses
    /// (a no-op with an empty plan).
    fault_plane: FaultPlane,
    /// PDP slot → the site it is deployed in.
    slot_site: Vec<Site>,
    /// LI index → the site it is deployed in.
    li_site: Vec<Site>,
    /// The carrier for wire messages ([`DesTransport`] or a real socket
    /// backend); crash restarts notify it so wire backends reconnect.
    transport: &'a mut dyn Transport,
    /// Strictly increasing frame sequence number (wire backends only).
    wire_seq: u64,
}

impl Ctx<'_> {
    /// The site a tenant's edge (PEP and probe) lives in.
    fn site_of_tenant(&self, tenant: TenantId) -> Site {
        self.tenants
            .iter()
            .find(|t| t.spec.id == tenant)
            .map_or(Site::Infra, |t| Site::Cloud(t.spec.cloud))
    }

    /// The site a PEP lives in (for routing responses through the fault
    /// plane).
    fn site_of_pep(&self, pep: PepId) -> Site {
        self.tenants
            .iter()
            .find(|t| t.spec.pep == pep)
            .map_or(Site::Infra, |t| Site::Cloud(t.spec.cloud))
    }

    /// Applies the adversary's log-plane hooks and, if the entry
    /// survives, schedules its delivery to `li`.
    fn deliver_to_li(
        &mut self,
        out: &mut Outbox<Msg>,
        li: usize,
        mut entry: LogEntry,
        now: SimTime,
    ) {
        if self.adversary.drop_log(&entry, now) {
            self.truth
                .dropped_logs
                .push((entry.correlation, entry.point));
            return;
        }
        if self.adversary.replay_log(&mut entry, now) {
            self.truth
                .replayed_logs
                .push((entry.correlation, entry.point));
        }
        if self.adversary.tamper_log(&mut entry, now) {
            self.truth
                .tampered_logs
                .push((entry.correlation, entry.point));
        }
        let latency = self.to_li.sample(&mut self.rngs.net);
        out.emit(latency, Msg::LiDeliver { li, entry });
    }
}

/// The `(correlation, point)` pairs a log-carrying transaction would have
/// committed — the ground-truth labelling for a withheld commit.
fn logged_entry_keys(tx: &Transaction) -> Vec<(CorrelationId, ObservationPoint)> {
    let mut out = Vec::new();
    match tx.method.as_str() {
        "store_log" => {
            if let Ok(entry) = LogEntry::from_canonical_bytes(&tx.payload) {
                out.push((entry.correlation, entry.point));
            }
        }
        "store_log_batch" => {
            let mut r = Reader::new(&tx.payload);
            if let Ok(n) = r.get_varint() {
                for _ in 0..n {
                    match LogEntry::decode(&mut r) {
                        Ok(e) => out.push((e.correlation, e.point)),
                        Err(_) => break,
                    }
                }
            }
        }
        _ => {}
    }
    out
}

fn assign_tx_times(
    pending: &mut Vec<SimTime>,
    ids: &[TxId],
    tx_entry_times: &mut HashMap<TxId, Vec<SimTime>>,
) {
    if ids.is_empty() || pending.is_empty() {
        return;
    }
    if ids.len() == 1 {
        tx_entry_times.entry(ids[0]).or_default().append(pending);
    } else {
        // one tx per entry, in order
        for (id, t) in ids.iter().zip(pending.drain(..)) {
            tx_entry_times.entry(*id).or_default().push(t);
        }
        pending.clear();
    }
}

// ---------------------------------------------------------------------------
// Services
// ---------------------------------------------------------------------------

/// Issues the Poisson workload, phase by phase, and declares the drain
/// deadline when the request budget is exhausted.
struct WorkloadSource {
    total_requests: u64,
    base_rate: f64,
    phases: Vec<Phase>,
    /// The (clamped) overload model: diurnal/spike rate multipliers.
    load: LoadProfile,
    /// Zipf tenant-rank sampler over the virtual population; `None`
    /// keeps the pre-profile uniform pick on the workload stream.
    zipf: Option<Zipf>,
    generator: RequestGenerator,
    /// Latest scripted `TenantJoin` time, if any: while one is still
    /// ahead, an empty tenant set may refill and the source keeps
    /// idling; with none ahead it declares the drain instead of
    /// grinding to the horizon.
    last_join_at: Option<SimTime>,
    // drain-deadline margin inputs
    group_timeout: SimTime,
    block_interval: SimTime,
    analyser_poll_interval: SimTime,
    /// Earliest time the drain deadline may anchor at when a fault plan
    /// is declared: the run must outlive the last disruption window's
    /// settle-and-restore so widened sweeps still run (and real attacks
    /// mounted under faults still surface). Zero without a plan.
    fault_floor: SimTime,
}

impl WorkloadSource {
    fn rate_at(&self, now: SimTime) -> f64 {
        let base = self
            .phases
            .iter()
            .rev()
            .find(|p| p.start <= now)
            .map_or(self.base_rate, |p| p.rate_per_sec);
        self.load.effective_rate(base, now)
    }

    fn drain_margin(&self) -> SimTime {
        // The retry budget comes first: the last-issued request may
        // spend all of it before abandoning, and the sweep that turns
        // the abandonment into `MissingLog` alerts runs after that.
        RETRY_BUDGET
            + self.group_timeout
            + 6 * self.block_interval
            + 4 * self.analyser_poll_interval
            + SECONDS
    }
}

impl<'a> SimService<Msg, Ctx<'a>> for WorkloadSource {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        debug_assert!(matches!(msg, Msg::Arrival));
        if ctx.report.requests_issued >= self.total_requests {
            return; // workload exhausted; nothing to reschedule
        }
        if ctx.active_tenants.is_empty() {
            if self.last_join_at.is_some_and(|t| t >= now) {
                // All tenants departed but a scripted join is still
                // ahead: idle on a slow self-tick until it lands (the
                // controller cannot reschedule us).
                out.emit(SECONDS, Msg::Arrival);
            } else {
                // Nobody left and nobody coming: wind the run down
                // instead of grinding empty ticks to the horizon.
                out.set_deadline(now.max(self.fault_floor) + self.drain_margin());
            }
            return;
        }
        ctx.report.requests_issued += 1;
        let pick = match &self.zipf {
            // Population model: a Zipf-ranked virtual tenant, folded
            // onto the deployed active set. Drawn from its own stream so
            // profile-less runs never see the difference.
            Some(zipf) => zipf.sample(&mut ctx.rngs.population) % ctx.active_tenants.len(),
            None => ctx.rngs.workload.gen_range(0..ctx.active_tenants.len()),
        };
        let tenant = ctx.active_tenants[pick];
        let services = &ctx.tenants[tenant].spec.services;
        let service = services[ctx.rngs.workload.gen_range(0..services.len().max(1))].clone();
        let request = self.generator.next_request();
        out.emit(
            0,
            Msg::Intercept {
                tenant,
                service,
                request,
            },
        );
        if ctx.report.requests_issued < self.total_requests {
            let arrivals = PoissonArrivals::with_rate_per_sec(self.rate_at(now));
            out.emit(arrivals.next_gap(&mut ctx.rngs.workload), Msg::Arrival);
        } else {
            out.set_deadline(now.max(self.fault_floor) + self.drain_margin());
        }
    }
}

/// Client-side circuit breaker for one PDP slot (kept at the PEP layer:
/// the caller decides where to send, the callee may be unreachable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Healthy; `failures` consecutive timeouts so far.
    Closed { failures: u32 },
    /// Tripped; refuses traffic until the cooldown elapses.
    Open { until: SimTime },
    /// One probe request is testing the slot; its fate decides.
    HalfOpen,
}

impl Breaker {
    /// A response came back from the slot.
    fn on_success(&mut self) {
        *self = Breaker::Closed { failures: 0 };
    }

    /// An attempt to the slot timed out. Returns `true` when this
    /// failure trips the breaker open.
    fn on_failure(&mut self, now: SimTime) -> bool {
        match *self {
            Breaker::Closed { failures } if failures + 1 >= BREAKER_THRESHOLD => {
                *self = Breaker::Open {
                    until: now + BREAKER_COOLDOWN,
                };
                true
            }
            Breaker::Closed { failures } => {
                *self = Breaker::Closed {
                    failures: failures + 1,
                };
                false
            }
            Breaker::HalfOpen => {
                // The probe failed: straight back to open.
                *self = Breaker::Open {
                    until: now + BREAKER_COOLDOWN,
                };
                false
            }
            Breaker::Open { .. } => false,
        }
    }
}

/// One in-flight (unanswered, unabandoned) PEP request.
#[derive(Debug)]
struct Inflight {
    /// The envelope exactly as first sent (post any in-transit
    /// tampering): retransmissions are byte-identical, so re-observation
    /// digests stay idempotent.
    env: RequestEnvelope,
    tenant: usize,
    /// The slot every attempt goes to, chosen once at intercept time
    /// (retries are slot-sticky — see the `PepRetry` arm).
    sent_slot: usize,
    attempts: u32,
}

/// The tenant-edge PEPs and their probes.
struct PepService {
    peps: Vec<Pep>,
    probes: Vec<Probe>,
    bias: drams_faas::pep::EnforcementBias,
    key: SymmetricKey,
    /// Requests awaiting a decision, with their retry state.
    inflight: HashMap<CorrelationId, Inflight>,
    /// One circuit breaker per PDP slot, shared by all PEPs (the
    /// per-cloud reachability view of the tenant edge).
    breakers: Vec<Breaker>,
    /// Admission-control cap on `inflight` (`usize::MAX` = unbounded).
    /// At the cap new arrivals are shed *before* any interception or
    /// probe observation — a shed request produces no evidence and opens
    /// no decision group, so overload degrades availability, never
    /// detection. Admitted requests always carry full evidence.
    inflight_cap: usize,
}

impl PepService {
    /// Picks the slot for a *new* interception: the home slot while its
    /// breaker is closed (or due a half-open probe), otherwise the first
    /// healthy other slot — the failover path. Called only at intercept
    /// time: in-flight requests retry slot-sticky so that exactly one
    /// PDP ever decides a correlation. With a single (central) slot this
    /// always returns `home`.
    fn pick_slot(breakers: &mut [Breaker], home: usize, now: SimTime) -> usize {
        match breakers[home] {
            Breaker::Closed { .. } => home,
            Breaker::Open { until } if now >= until => {
                breakers[home] = Breaker::HalfOpen;
                home
            }
            _ => (1..breakers.len())
                .map(|d| (home + d) % breakers.len())
                .find(|&s| matches!(breakers[s], Breaker::Closed { .. }))
                .unwrap_or(home),
        }
    }
}

impl<'a> SimService<Msg, Ctx<'a>> for PepService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Intercept {
                tenant,
                service,
                request,
            } => {
                // Admission control: at the in-flight cap the request is
                // shed before the PEP ever sees it — no interception, no
                // observation, no group. Between the soft watermark
                // (3/4 cap) and the cap it is admitted but flagged as a
                // degraded admission.
                if self.inflight.len() >= self.inflight_cap {
                    ctx.report.requests_shed += 1;
                    return;
                }
                if self.inflight.len() >= self.inflight_cap - self.inflight_cap / 4 {
                    ctx.report.degraded_admissions += 1;
                }
                let mut env = self.peps[tenant].intercept(service, request, now);
                ctx.issued_at_by_corr.insert(env.correlation, now);
                if ctx.monitoring {
                    let entry = self.probes[tenant].observe_request(
                        ObservationPoint::PepRequest,
                        &env,
                        now,
                    );
                    let li = ctx.li_of_tenant[tenant];
                    ctx.deliver_to_li(out, li, entry, now);
                }
                if ctx.adversary.tamper_request_in_transit(&mut env, now) {
                    ctx.truth.tampered_requests.push(env.correlation);
                }
                let home = ctx.pdp_slot_of_tenant[tenant];
                let slot = Self::pick_slot(&mut self.breakers, home, now);
                self.inflight.insert(
                    env.correlation,
                    Inflight {
                        env: env.clone(),
                        tenant,
                        sent_slot: slot,
                        attempts: 1,
                    },
                );
                ctx.report.peak.pep_inflight =
                    ctx.report.peak.pep_inflight.max(self.inflight.len() as u64);
                let correlation = env.correlation;
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(latency, Msg::PdpReceive { slot, env });
                out.emit(
                    RETRY_BASE,
                    Msg::PepRetry {
                        correlation,
                        attempt: 1,
                    },
                );
            }
            Msg::PepReceive { slot, env } => {
                let Some(tenant) = self.peps.iter().position(|p| p.id() == env.pep) else {
                    return;
                };
                let Some(enforcement) = self.peps[tenant].enforce(&env) else {
                    return; // duplicate, late-after-abandon, or forged
                };
                self.breakers[slot].on_success();
                let inflight = self.inflight.remove(&env.correlation);
                let mut granted = enforcement.granted;
                if ctx.adversary.flip_enforcement(&mut granted, now) {
                    ctx.truth.flipped_enforcements.push(env.correlation);
                }
                ctx.report.requests_completed += 1;
                if granted {
                    ctx.report.granted += 1;
                } else {
                    ctx.report.refused += 1;
                }
                if let Some(issued) = ctx.issued_at_by_corr.get(&env.correlation) {
                    ctx.report.e2e_latency.record(now - issued);
                    if inflight.is_some() && slot != ctx.pdp_slot_of_tenant[tenant] {
                        // Answered by a slot the breaker diverted to.
                        ctx.report.failovers += 1;
                        ctx.report.failover_e2e.record(now - issued);
                    }
                }
                if let Some(inf) = &inflight {
                    ctx.report.e2e_latency.record_attempts(inf.attempts);
                }
                if ctx.monitoring {
                    let entry = self.probes[tenant].observe_pep_response(&env, granted, now);
                    let li = ctx.li_of_tenant[tenant];
                    ctx.deliver_to_li(out, li, entry, now);
                }
            }
            Msg::PepRetry {
                correlation,
                attempt,
            } => {
                let Some(inf) = self.inflight.get(&correlation) else {
                    return; // answered (or abandoned) in the meantime
                };
                if inf.attempts != attempt {
                    return; // stale timer of an earlier attempt
                }
                // This attempt timed out: charge the slot it went to.
                let (tenant, failed_slot, attempts) = (inf.tenant, inf.sent_slot, inf.attempts);
                if self.breakers[failed_slot].on_failure(now) {
                    ctx.report.breaker_trips += 1;
                }
                if attempts >= MAX_ATTEMPTS {
                    // Deadline budget exhausted: give up for good. A
                    // response limping in later is treated as stale.
                    self.inflight.remove(&correlation);
                    self.peps[tenant].abandon(correlation);
                    ctx.report.requests_dropped += 1;
                    return;
                }
                // Retries are slot-sticky: an in-flight correlation is
                // never replayed against a different PDP, so exactly one
                // authority ever decides it and the contract's
                // one-observation-per-point keying stays collision-free.
                // The breaker steers *new* interceptions away instead.
                let slot = failed_slot;
                let inf = self
                    .inflight
                    .get_mut(&correlation)
                    .expect("checked above; no removal in between");
                inf.attempts += 1;
                let env = inf.env.clone();
                let attempt = inf.attempts;
                ctx.report.retries_total += 1;
                // Capped exponential backoff with deterministic jitter
                // (its own stream: fault-free runs never draw from it).
                let backoff = (RETRY_BASE << (attempt - 1)).min(RETRY_CAP);
                let jitter = ctx.rngs.retry.gen_range(0..=backoff / 4);
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(latency, Msg::PdpReceive { slot, env });
                out.emit(
                    backoff + jitter,
                    Msg::PepRetry {
                        correlation,
                        attempt,
                    },
                );
            }
            Msg::ProvisionPep { tenant } => {
                let spec = &ctx.tenants[tenant].spec;
                debug_assert_eq!(tenant, self.peps.len(), "peps provision in tenant order");
                self.peps.push(Pep::new(spec.pep, spec.id, self.bias));
                let probe_id = ProbeId(tenant as u32 + 1);
                self.probes.push(Probe::new(
                    probe_id,
                    self.key.clone(),
                    probe_mac_key(probe_id),
                ));
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

/// One PDP instance (central, or one per member cloud) with its probe.
struct PdpSlot {
    pdp: drams_policy::pdp::Pdp,
    probe: Probe,
    probe_id: ProbeId,
    silenced_until: SimTime,
    /// As-sent responses by correlation: a retransmitted or duplicated
    /// request is answered byte-identically (re-deciding would stamp a
    /// new `decided_at`, change the response digest and trip the
    /// Analyser's conflicting-observation check), without re-observing
    /// or re-running adversary hooks.
    decided: HashMap<CorrelationId, ResponseEnvelope>,
    /// Decisions in `decided_at` order, for retention-window eviction
    /// (kept in lockstep with `decided`).
    decided_order: VecDeque<(SimTime, CorrelationId)>,
    /// Retention window of the idempotency cache: entries older than
    /// this are evicted — provably safe past [`MIN_RETENTION`], since no
    /// retransmission can arrive after the retry budget. 0 = keep all.
    retention: SimTime,
    /// Evictions since the journal was last compacted.
    evictions_since_compact: u64,
    /// Write-ahead journal of the decision cache and any standing
    /// silence window, so a crashed PDP restarts idempotent. Under a
    /// retention window it is periodically compacted: a snapshot of the
    /// live entries replaces the evicted prefix.
    journal: Wal,
}

/// PDP journal record: a cached as-sent decision.
const PDP_JOURNAL_DECIDED: u8 = 1;
/// PDP journal record: a standing silence window.
const PDP_JOURNAL_SILENCE: u8 = 2;

impl PdpSlot {
    fn new(
        probe_id: ProbeId,
        key: &SymmetricKey,
        pdp: drams_policy::pdp::Pdp,
        retention: SimTime,
    ) -> Self {
        let journal = Wal::open(
            Box::new(MemBackend::new()),
            WalConfig {
                segment_records: 64,
                durability: Durability::Flushed,
            },
        )
        .expect("fresh in-memory wal");
        PdpSlot {
            pdp,
            probe: Probe::new(probe_id, key.clone(), probe_mac_key(probe_id)),
            probe_id,
            silenced_until: 0,
            decided: HashMap::new(),
            decided_order: VecDeque::new(),
            retention,
            evictions_since_compact: 0,
            journal,
        }
    }

    /// Ages out idempotency entries whose retention window has closed
    /// and compacts the journal once enough have gone. Returns how many
    /// were evicted.
    fn evict_expired(&mut self, now: SimTime) -> u64 {
        if self.retention == 0 {
            return 0;
        }
        let mut evicted = 0;
        while let Some(&(decided_at, corr)) = self.decided_order.front() {
            if decided_at.saturating_add(self.retention) > now {
                break;
            }
            self.decided_order.pop_front();
            self.decided.remove(&corr);
            evicted += 1;
        }
        self.evictions_since_compact += evicted;
        if self.evictions_since_compact >= PDP_COMPACT_EVICTIONS {
            self.compact_journal();
        }
        evicted
    }

    /// Rewrites the journal as one snapshot of the live window plus an
    /// empty tail: recovery replays exactly the un-evicted entries, so a
    /// crashed PDP is byte-equivalent to an uncrashed one.
    fn compact_journal(&mut self) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.silenced_until.to_be_bytes());
        payload.extend_from_slice(&(self.decided_order.len() as u64).to_be_bytes());
        for &(_, corr) in &self.decided_order {
            let env = &self.decided[&corr];
            let bytes = env.to_canonical_bytes();
            payload.extend_from_slice(
                &u32::try_from(bytes.len())
                    .expect("envelope fits u32")
                    .to_be_bytes(),
            );
            payload.extend_from_slice(&bytes);
        }
        let upto = self.journal.next_seq();
        self.journal
            .write_snapshot(upto, &payload)
            .expect("pdp journal snapshot");
        self.journal.prune_through(upto).expect("pdp journal prune");
        self.evictions_since_compact = 0;
    }

    /// Restores the decision cache from a compaction snapshot payload.
    fn restore_snapshot(&mut self, payload: &[u8]) {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&payload[..8]);
        self.silenced_until = SimTime::from_be_bytes(buf);
        buf.copy_from_slice(&payload[8..16]);
        let n = u64::from_be_bytes(buf);
        let mut at = 16;
        for _ in 0..n {
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&payload[at..at + 4]);
            let len = u32::from_be_bytes(len4) as usize;
            at += 4;
            let env = ResponseEnvelope::from_canonical_bytes(&payload[at..at + len])
                .expect("snapshotted response decodes");
            at += len;
            self.decided_order
                .push_back((env.decided_at, env.correlation));
            self.decided.insert(env.correlation, env);
        }
    }

    fn journal_decision(&mut self, env: &ResponseEnvelope) {
        let mut rec = vec![PDP_JOURNAL_DECIDED];
        rec.extend_from_slice(&env.correlation.0.to_be_bytes());
        rec.extend_from_slice(&env.to_canonical_bytes());
        self.journal.append(&rec).expect("pdp journal append");
    }

    fn journal_silence(&mut self, until: SimTime) {
        let mut rec = vec![PDP_JOURNAL_SILENCE];
        rec.extend_from_slice(&until.to_be_bytes());
        self.journal.append(&rec).expect("pdp journal append");
    }

    /// Kills the slot's process state and rebuilds it: the engine from
    /// the PRP's durable active policy, the decision cache and silence
    /// window from the journal, the probe from its TPM-provisioned key.
    fn crash_restart(&mut self, key: &SymmetricKey, active: drams_policy::pdp::Pdp) {
        self.journal.simulate_crash().expect("pdp journal recovery");
        self.pdp = active;
        self.probe = Probe::new(self.probe_id, key.clone(), probe_mac_key(self.probe_id));
        self.silenced_until = 0;
        self.decided.clear();
        self.decided_order.clear();
        let base = match self.journal.read_snapshot().expect("pdp snapshot read") {
            Some((seq, payload)) => {
                self.restore_snapshot(&payload);
                seq
            }
            None => 0,
        };
        for (_, rec) in self.journal.replay_from(base).expect("pdp journal replay") {
            match rec.split_first() {
                Some((&PDP_JOURNAL_DECIDED, rest)) if rest.len() > 8 => {
                    let mut corr = [0u8; 8];
                    corr.copy_from_slice(&rest[..8]);
                    let env = ResponseEnvelope::from_canonical_bytes(&rest[8..])
                        .expect("journaled response decodes");
                    self.decided_order
                        .push_back((env.decided_at, env.correlation));
                    self.decided
                        .insert(CorrelationId(u64::from_be_bytes(corr)), env);
                }
                Some((&PDP_JOURNAL_SILENCE, rest)) if rest.len() == 8 => {
                    let mut until = [0u8; 8];
                    until.copy_from_slice(rest);
                    self.silenced_until = SimTime::from_be_bytes(until);
                }
                _ => unreachable!("unknown pdp journal record"),
            }
        }
    }
}

/// The decision plane: the PRP (version store) plus the deployed PDPs.
struct PdpService {
    prp: Prp,
    slots: Vec<PdpSlot>,
    infra_li: usize,
    key: SymmetricKey,
    /// Decisions computed by [`SimService::prepare_batch`] ahead of the
    /// serial handler pass, keyed by (slot, correlation). The handler
    /// consumes its entry (or evaluates inline when the message was not
    /// part of a prepared batch).
    prepared: HashMap<(usize, CorrelationId), drams_policy::decision::Response>,
}

impl<'a> SimService<Msg, Ctx<'a>> for PdpService {
    fn lane_of(&self, msg: &Msg) -> Option<u64> {
        // Per-cloud compute lanes: same-timestamp deliveries to distinct
        // PDP slots are independent (each slot owns its policy engine,
        // cache and probe), so the runtime may batch them for
        // `prepare_batch`. Everything else stays strictly serial.
        match msg {
            Msg::PdpReceive { slot, .. } => Some(*slot as u64),
            _ => None,
        }
    }

    fn prepare_batch(&mut self, now: SimTime, msgs: &[&Msg], _ctx: &mut Ctx<'a>) {
        // Evaluate the batch's policy decisions in parallel, one job per
        // distinct slot. Eligibility mirrors the handler exactly: a
        // silenced PDP never evaluates, and a cached correlation is
        // answered from the idempotency cache. Slots are pairwise
        // distinct within a batch (lane contract), so no two jobs touch
        // the same engine and the per-slot cache trajectory is identical
        // to the serial order. Decisions are pure in `now` and the
        // request, so precomputing here is handler-order invisible.
        let jobs: Vec<(
            usize,
            CorrelationId,
            &drams_policy::pdp::Pdp,
            &RequestEnvelope,
        )> = msgs
            .iter()
            .filter_map(|m| match m {
                Msg::PdpReceive { slot, env }
                    if now >= self.slots[*slot].silenced_until
                        && !self.slots[*slot].decided.contains_key(&env.correlation) =>
                {
                    Some((*slot, env.correlation, &self.slots[*slot].pdp, env))
                }
                _ => None,
            })
            .collect();
        let responses =
            drams_faas::par::map(&jobs, 2, |&(_, _, pdp, env)| pdp.evaluate(&env.request));
        for ((slot, corr, _, _), response) in jobs.into_iter().zip(responses) {
            self.prepared.insert((slot, corr), response);
        }
    }

    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::PdpReceive { slot, env } => {
                let prepared = self.prepared.remove(&(slot, env.correlation));
                let s = &mut self.slots[slot];
                if now < s.silenced_until {
                    // Fault window: a silent PDP neither observes nor
                    // answers — the PEP's retry budget decides whether
                    // the request survives the outage.
                    return;
                }
                if let Some(cached) = s.decided.get(&env.correlation) {
                    // Retransmission (or fault-plane duplicate) of an
                    // answered request: resend the as-sent response
                    // byte-identically. No re-observation, no adversary
                    // hooks — the originals already ran.
                    let resp_env = cached.clone();
                    let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                    out.emit(
                        latency,
                        Msg::PepReceive {
                            slot,
                            env: resp_env,
                        },
                    );
                    return;
                }
                if ctx.monitoring {
                    let entry = s
                        .probe
                        .observe_request(ObservationPoint::PdpRequest, &env, now);
                    ctx.deliver_to_li(out, self.infra_li, entry, now);
                }
                let response = prepared.unwrap_or_else(|| s.pdp.evaluate(&env.request));
                let mut resp_env = ResponseEnvelope {
                    correlation: env.correlation,
                    pep: env.pep,
                    response,
                    policy_version: s.pdp.policy_version(),
                    decided_at: now,
                };
                if ctx.adversary.corrupt_pdp_decision(&mut resp_env, now) {
                    ctx.truth.corrupted_decisions.push(resp_env.correlation);
                }
                if ctx.monitoring {
                    let entry = s.probe.observe_pdp_response(&resp_env, now);
                    ctx.deliver_to_li(out, self.infra_li, entry, now);
                }
                if ctx.adversary.tamper_response_in_transit(&mut resp_env, now) {
                    ctx.truth.tampered_responses.push(resp_env.correlation);
                }
                s.decided_order.push_back((now, env.correlation));
                s.decided.insert(env.correlation, resp_env.clone());
                s.journal_decision(&resp_env);
                ctx.report.idempotency_evictions += s.evict_expired(now);
                ctx.report.peak.pdp_idempotency =
                    ctx.report.peak.pdp_idempotency.max(s.decided.len() as u64);
                ctx.report.peak.pdp_decision_cache = ctx
                    .report
                    .peak
                    .pdp_decision_cache
                    .max(s.pdp.cache_len() as u64);
                let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                out.emit(
                    latency,
                    Msg::PepReceive {
                        slot,
                        env: resp_env,
                    },
                );
                ctx.report.decision_cache_evictions =
                    self.slots.iter().map(|sl| sl.pdp.cache_evictions()).sum();
            }
            Msg::PolicyAdmin(action) => {
                match action {
                    PolicyAdmin::Publish(policy) => {
                        self.prp.publish(policy);
                    }
                    PolicyAdmin::Rollback(version) => {
                        // Rollback is modelled as re-publishing the old
                        // content: the digest (and thus the version the
                        // probes log) is the old one again.
                        let old = self
                            .prp
                            .version(version)
                            .expect("script rolls back to a published version")
                            .policy
                            .clone();
                        self.prp.publish(old);
                    }
                }
                let active = self.prp.active();
                for slot in &mut self.slots {
                    slot.pdp = active.pdp();
                }
                ctx.report.policy_activations += 1;
                out.emit(0, Msg::AnalyserPolicy(active.policy.clone()));
            }
            Msg::SilencePdp { slot, until } => {
                self.slots[slot].silenced_until = until;
                self.slots[slot].journal_silence(until);
            }
            Msg::CrashPdp { slot } => {
                let active = self.prp.active().pdp();
                self.slots[slot].crash_restart(&self.key, active);
                // A wire backend tears down this slot's endpoint; the
                // next framed request reconnects to the restarted one.
                ctx.transport
                    .restart(WireRole::Pdp { slot: slot as u32 })
                    .expect("transport restart");
                ctx.report.crash_restarts += 1;
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

/// The per-tenant Logging Interfaces (plus the infrastructure LI).
struct LiService {
    lis: Vec<LoggingInterface>,
    pending: Vec<Vec<SimTime>>,
    backlog: Vec<Vec<LogEntry>>,
    stalled_until: Vec<SimTime>,
    /// When the LI last lost its chain link (for recovery latency).
    offline_since: Vec<SimTime>,
    flush_interval: SimTime,
    batch_size: usize,
    /// High-water mark for LI in-memory buffers (0 = unbounded); past it
    /// entries live in the backlog WAL only until the next flush.
    resident_cap: usize,
    key: SymmetricKey,
}

impl LiService {
    /// The durable-backlog WAL every LI writes ahead to (in-memory
    /// medium inside the simulation, flushed record-by-record so a crash
    /// loses nothing the LI acknowledged).
    fn backlog_wal() -> Wal {
        Wal::open(
            Box::new(MemBackend::new()),
            WalConfig {
                segment_records: 64,
                durability: Durability::Flushed,
            },
        )
        .expect("fresh in-memory wal")
    }

    fn push_li(&mut self, name: &str) {
        let mut li = LoggingInterface::new(
            name.to_string(),
            self.key.clone(),
            Keypair::from_seed(name.as_bytes()),
            self.batch_size,
        );
        li.attach_backlog(Self::backlog_wal());
        if self.resident_cap > 0 {
            li.set_resident_cap(self.resident_cap);
        }
        self.lis.push(li);
        self.pending.push(Vec::new());
        self.backlog.push(Vec::new());
        self.stalled_until.push(0);
        self.offline_since.push(0);
    }

    /// Reconciles the LI's offline flag with the fault plane's current
    /// partition state of its chain link. Going offline starts the spill
    /// clock; coming back counts the spilled backlog as replayed and
    /// records the outage length (the next flush tick drains it).
    fn sync_chain_link(&mut self, li: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let site = ctx.li_site[li];
        let cut = site != Site::Infra && ctx.fault_plane.partitioned(now, site, Site::Infra);
        let was = self.lis[li].is_offline();
        if cut && !was {
            self.lis[li].set_offline(true);
            self.offline_since[li] = now;
        } else if !cut && was {
            self.lis[li].set_offline(false);
            let backlog = self.lis[li].buffered() as u64;
            ctx.report.li_replayed += backlog;
            ctx.report
                .spill_recovery
                .record(now - self.offline_since[li]);
        }
    }

    fn store(&mut self, li: usize, entry: LogEntry, ctx: &mut Ctx<'_>) {
        self.pending[li].push(entry.observed_at);
        let ids = self.lis[li]
            .store(entry, &mut ctx.node)
            .expect("li submission");
        if self.lis[li].is_offline() {
            ctx.report.li_spilled += 1;
        }
        assign_tx_times(&mut self.pending[li], &ids, &mut ctx.tx_entry_times);
        ctx.report.max_mempool = ctx.report.max_mempool.max(ctx.node.mempool_len());
        ctx.report.peak.li_resident = ctx
            .report
            .peak
            .li_resident
            .max(self.lis[li].buffered_entries().len() as u64);
    }

    fn drain_backlog(&mut self, li: usize, ctx: &mut Ctx<'_>) {
        let backlog = std::mem::take(&mut self.backlog[li]);
        for entry in backlog {
            self.store(li, entry, ctx);
        }
    }
}

impl<'a> SimService<Msg, Ctx<'a>> for LiService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::LiDeliver { li, entry } => {
                if now < self.stalled_until[li] {
                    self.backlog[li].push(entry);
                    return;
                }
                self.sync_chain_link(li, now, ctx);
                self.drain_backlog(li, ctx);
                self.store(li, entry, ctx);
            }
            Msg::LiFlushTick { li } => {
                self.sync_chain_link(li, now, ctx);
                if now >= self.stalled_until[li] {
                    self.drain_backlog(li, ctx);
                    let ids = self.lis[li].flush(&mut ctx.node).expect("li flush");
                    assign_tx_times(&mut self.pending[li], &ids, &mut ctx.tx_entry_times);
                }
                ctx.report.max_mempool = ctx.report.max_mempool.max(ctx.node.mempool_len());
                if out.within_deadline(now) {
                    out.emit(self.flush_interval, Msg::LiFlushTick { li });
                }
            }
            Msg::StallLi { li, until } => {
                self.stalled_until[li] = until;
            }
            Msg::ProvisionLi { li } => {
                debug_assert_eq!(li, self.lis.len(), "lis provision in index order");
                self.push_li(&format!("li-{li}"));
                out.emit(self.flush_interval, Msg::LiFlushTick { li });
            }
            Msg::CrashLi { li } => {
                ctx.transport
                    .restart(WireRole::Li { index: li as u32 })
                    .expect("transport restart");
                // The LI process dies: its buffer is gone, its WAL — on
                // durable storage — survives (with whatever a power cut
                // preserves under the configured durability). Entries
                // queued at a *stalled* LI live only in the process and
                // were never acknowledged into the WAL, so a crash
                // during a stall window honestly loses them — the
                // monitor then surfaces the loss as MissingLog alerts.
                self.backlog[li].clear();
                let mut wal = self.lis[li].detach_backlog().expect("li backlog attached");
                wal.simulate_crash().expect("li wal recovery");
                let name = format!("li-{li}");
                self.lis[li] = LoggingInterface::recover(
                    name.clone(),
                    self.key.clone(),
                    Keypair::from_seed(name.as_bytes()),
                    self.batch_size,
                    wal,
                )
                .expect("li recovery");
                // Measurement bookkeeping: the pending observation times
                // are a pure function of the recovered buffer.
                self.pending[li] = self.lis[li]
                    .buffered_entries()
                    .iter()
                    .map(|e| e.observed_at)
                    .collect();
                ctx.report.crash_restarts += 1;
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

/// The chain node: mines on a cadence, submits the epoch sweep, and
/// harvests committed contract events into the report.
struct ChainService {
    admin: Keypair,
    epoch_blocks: u64,
    block_interval: SimTime,
    event_cursor: usize,
    /// The chain configuration of the deployment — a crashed node is
    /// rebuilt with the same parameters before the journal replays.
    chain_config: ChainConfig,
    /// Compact the write-ahead journal every this many blocks (0 = off).
    compact_interval: u64,
    /// Journal sequence the last compaction snapshot covers; the live
    /// record count is `next_seq - journal_base`.
    journal_base: u64,
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

/// The Analyser as a service: periodic chain polls, plus provisioning
/// and policy-administration notifications.
struct AnalyserService {
    analyser: Analyser,
    poll_interval: SimTime,
    /// The federation key, re-provisioned to a restarted Analyser (in a
    /// real deployment it would come back from the tenant TPMs).
    key: SymmetricKey,
}

impl<'a> SimService<Msg, Ctx<'a>> for AnalyserService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::AnalyserTick => {
                let _ = self.analyser.poll(&mut ctx.node, now);
                // The poll's progress becomes durable before anything
                // else observes it: a crash after this point resumes
                // here, never re-checks, never re-alerts.
                self.analyser.checkpoint().expect("analyser checkpoint");
                ctx.report.groups_retired = self.analyser.groups_retired();
                ctx.report.policy_history_retired = self.analyser.policy_history_retired();
                ctx.report.peak.analyser_pending_retire = ctx
                    .report
                    .peak
                    .analyser_pending_retire
                    .max(self.analyser.pending_retirements() as u64);
                ctx.report.peak.policy_history = ctx
                    .report
                    .peak
                    .policy_history
                    .max(self.analyser.policy_history_len() as u64);
                if out.within_deadline(now) {
                    out.emit(self.poll_interval, Msg::AnalyserTick);
                }
            }
            Msg::AnalyserPolicy(policy) => {
                self.analyser.publish_authorised_policy(policy, now);
                // Authorisation state must be durable before the crash
                // window, not just at the next poll.
                self.analyser.checkpoint().expect("analyser checkpoint");
            }
            Msg::ProvisionProbeKey { probe } => {
                self.analyser
                    .register_probe_key(probe, probe_mac_key(probe));
                self.analyser.checkpoint().expect("analyser checkpoint");
            }
            Msg::CrashAnalyser => {
                ctx.transport
                    .restart(WireRole::Analyser)
                    .expect("transport restart");
                // The Analyser process dies; its checkpoint store
                // survives. Recovery resumes the cursors and the
                // authorised-policy history — no re-scan, no re-alert.
                let store = self
                    .analyser
                    .detach_checkpoint()
                    .expect("analyser checkpoint attached");
                self.analyser = Analyser::recover(
                    self.key.clone(),
                    Keypair::from_seed(b"drams-analyser"),
                    store,
                )
                .expect("analyser recovery");
                ctx.report.crash_restarts += 1;
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

/// Executes the scenario script: policy administration, tenant churn and
/// fault windows, decomposed into the provisioning events above.
struct Controller {
    script: Vec<ScriptedAction>,
    placement: PdpPlacement,
    infra_li: usize,
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
}

impl<'a> SimService<Msg, Ctx<'a>> for Controller {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Script(i) => match self.script[i].clone() {
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
                            pep: drams_faas::model::PepId(id),
                            services: (0..services.max(1))
                                .map(|s| format!("svc-{id}-{s}"))
                                .collect(),
                        },
                        active: false,
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
                    let settle = ctx.rngs.churn.gen_range(0..=drams_faas::des::MILLIS);
                    out.emit(settle, Msg::ActivateTenant { tenant });
                }
                ScriptedAction::TenantLeave { tenant, .. } => {
                    if let Some(idx) = ctx.tenants.iter().position(|t| t.spec.id == tenant) {
                        ctx.tenants[idx].active = false;
                        ctx.tenants[idx].departed = true;
                        ctx.active_tenants.retain(|&t| t != idx);
                    }
                }
                ScriptedAction::StallLi { until, tenant, .. } => {
                    let li = if tenant.is_infrastructure() {
                        self.infra_li
                    } else {
                        let idx = ctx
                            .tenants
                            .iter()
                            .position(|t| t.spec.id == tenant)
                            .expect("script stalls an existing tenant's LI");
                        ctx.li_of_tenant[idx]
                    };
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
                        let li = if tenant.is_infrastructure() {
                            self.infra_li
                        } else {
                            let idx = ctx
                                .tenants
                                .iter()
                                .position(|t| t.spec.id == tenant)
                                .expect("script crashes an existing tenant's LI");
                            ctx.li_of_tenant[idx]
                        };
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
                    let bits = ctx
                        .node
                        .chain()
                        .required_difficulty(&parent)
                        .expect("side-branch difficulty");
                    let extra = Block::mine(parent, tip_height + 1, Vec::new(), last_ts + 1, bits);
                    ctx.node.receive_block(extra).expect("fork reorg import");
                    ctx.truth.chain_forks += 1;
                }
                ScriptedAction::EquivocateBlock { .. } => {
                    let parent = ctx.node.chain().tip_hash();
                    let height = ctx.node.chain().tip_header().height + 1;
                    let bits = ctx
                        .node
                        .chain()
                        .required_difficulty(&parent)
                        .expect("tip difficulty");
                    let first = Block::mine(parent, height, Vec::new(), now, bits);
                    let second = Block::mine(parent, height, Vec::new(), now + 1, bits);
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
                    let parent = ctx.node.chain().tip_hash();
                    let height = ctx.node.chain().tip_header().height + 1;
                    let bits = ctx
                        .node
                        .chain()
                        .required_difficulty(&parent)
                        .expect("tip difficulty");
                    let block = Block::mine(parent, height, vec![tx], now, bits);
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
                    let is_log_tx = |tx: &&drams_chain::tx::Transaction| {
                        tx.contract == MONITOR_CONTRACT
                            && (tx.method == "store_log" || tx.method == "store_log_batch")
                    };
                    let sender = ctx
                        .node
                        .pending_transactions()
                        .find(is_log_tx)
                        .map(drams_chain::tx::Transaction::sender_address);
                    let target = sender.and_then(|address| {
                        ctx.node
                            .pending_transactions()
                            .filter(is_log_tx)
                            .filter(|tx| tx.sender_address() == address)
                            .max_by_key(|tx| tx.nonce)
                            .map(drams_chain::tx::Transaction::id)
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
                    ctx.tenants[tenant].active = true;
                    ctx.active_tenants.push(tenant);
                }
            }
            _ => unreachable!("misrouted event"),
        }
    }
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

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
/// message is framed, carried through the destination service's socket
/// endpoint with a synchronous round-trip, and scheduled from the bytes
/// that came back — while the DES remains the single logical clock, so
/// the two backends are comparable event for event. Invariant 9: the
/// transport choice is observationally invisible — same spec, same
/// alerts, same ground truth, byte for byte.
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
    let mut pdp_slot_of_cloud: BTreeMap<u32, usize> = BTreeMap::new();
    let mut slots: Vec<PdpSlot> = Vec::new();
    let mut slot_site: Vec<Site> = Vec::new();
    match spec.placement {
        PdpPlacement::Central => {
            let probe_id = ProbeId(0);
            probe_mac_keys.insert(probe_id, probe_mac_key(probe_id));
            slots.push(PdpSlot::new(
                probe_id,
                &key,
                prp.active().pdp(),
                load.idempotency_retention,
            ));
            slot_site.push(Site::Infra);
            for t in &config.federation.tenants {
                pdp_slot_of_cloud.entry(t.cloud.0).or_insert(0);
            }
        }
        PdpPlacement::PerCloud => {
            let clouds: BTreeSet<u32> = config
                .federation
                .tenants
                .iter()
                .map(|t| t.cloud.0)
                .collect();
            for cloud in clouds {
                let probe_id = ProbeId(PDP_PROBE_BASE + cloud);
                probe_mac_keys.insert(probe_id, probe_mac_key(probe_id));
                pdp_slot_of_cloud.insert(cloud, slots.len());
                slots.push(PdpSlot::new(
                    probe_id,
                    &key,
                    prp.active().pdp(),
                    load.idempotency_retention,
                ));
                slot_site.push(Site::Cloud(CloudId(cloud)));
            }
        }
    }
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
    let mut li_service = LiService {
        lis: Vec::new(),
        pending: Vec::new(),
        backlog: Vec::new(),
        stalled_until: Vec::new(),
        offline_since: Vec::new(),
        flush_interval: config.li_flush_interval,
        batch_size: config.li_batch_size,
        resident_cap: load.li_resident_cap as usize,
        key: key.clone(),
    };
    for i in 0..=tenant_count {
        li_service.push_li(&format!("li-{i}"));
    }

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
    let node_wal = Rc::new(RefCell::new(
        Wal::open(
            Box::new(MemBackend::new()),
            WalConfig {
                segment_records: 256,
                durability: Durability::Flushed,
            },
        )
        .expect("fresh in-memory wal"),
    ));
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
                active: true,
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
        prepared: HashMap::new(),
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
        rt.set_net_shim(Box::new(|ctx: &mut Ctx<'_>, now, delay, msg, buf| {
            let class = match &msg {
                Msg::PdpReceive { slot, env } => {
                    Some((ctx.site_of_tenant(env.tenant), ctx.slot_site[*slot], true))
                }
                Msg::PepReceive { slot, env } => {
                    Some((ctx.slot_site[*slot], ctx.site_of_pep(env.pep), true))
                }
                // Probe→LI links are intra-site and carry evidence: the
                // fault plane may delay, duplicate or reorder them but
                // never silently destroy them — evidence loss must stay
                // an adversary capability, not a network artefact.
                Msg::LiDeliver { li, .. } => Some((ctx.li_site[*li], ctx.li_site[*li], false)),
                _ => None,
            };
            let Some((from, to, allow_drop)) = class else {
                // Not a fault-plane link; non-wire messages pass
                // straight through, wire-encodable ones (probe-key
                // provisioning) still cross the transport.
                deliver(ctx, delay, msg, buf);
                return;
            };
            // The fault plane draws from its RNG stream only when a
            // plan is declared, so attaching a wire transport to a
            // fault-free spec perturbs nothing.
            let fates = if ctx.fault_plane.plan().is_empty() {
                vec![0]
            } else {
                ctx.fault_plane.deliveries(now, from, to, allow_drop)
            };
            let Some((last, rest)) = fates.split_last() else {
                return; // dropped (or partitioned away)
            };
            for extra in rest {
                let dup = clone_faulted(&msg);
                deliver(ctx, delay + extra, dup, buf);
            }
            deliver(ctx, delay + last, msg, buf);
        }));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoAdversary;
    use drams_faas::des::MILLIS;
    use drams_faas::model::FederationSpec;
    use rand::RngCore;

    fn base_config() -> MonitorConfig {
        MonitorConfig {
            total_requests: 40,
            request_rate_per_sec: 100.0,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn named_streams_are_deterministic_and_distinct() {
        let mut a = stream_rng(7, "workload");
        let mut b = stream_rng(7, "workload");
        let mut c = stream_rng(7, "churn");
        let mut d = stream_rng(8, "workload");
        let a_seq: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let b_seq: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(a_seq, b_seq, "same seed + name = same stream");
        assert_ne!(a_seq[0], c.next_u64(), "names separate streams");
        assert_ne!(a_seq[0], d.next_u64(), "seeds separate streams");
    }

    #[test]
    fn cross_stream_draws_do_not_perturb_each_other() {
        // Interleaving draws from one stream must not change another's
        // sequence — the property the per-component split buys.
        let mut workload = stream_rng(7, "workload");
        let mut churn = stream_rng(7, "churn");
        let mut interleaved = Vec::new();
        for _ in 0..8 {
            interleaved.push(workload.next_u64());
            let _ = churn.next_u64(); // extra churn draws
            let _ = churn.next_u64();
        }
        let mut isolated_stream = stream_rng(7, "workload");
        let isolated: Vec<u64> = (0..8).map(|_| isolated_stream.next_u64()).collect();
        assert_eq!(interleaved, isolated);
    }

    #[test]
    fn canonical_scenario_matches_run_monitor() {
        let config = base_config();
        let (a, ta) = crate::monitor::run_monitor(&config, &mut NoAdversary);
        let (b, tb) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
        assert_eq!(a.requests_completed, b.requests_completed);
        assert_eq!(a.entries_logged, b.entries_logged);
        assert_eq!(a.groups_completed, b.groups_completed);
        assert_eq!(a.alerts.len(), b.alerts.len());
        assert_eq!(a.e2e_latency.mean(), b.e2e_latency.mean());
        assert_eq!(ta, tb);
    }

    #[test]
    fn per_cloud_placement_serves_all_requests_clean() {
        let spec = ScenarioSpec {
            placement: PdpPlacement::PerCloud,
            ..ScenarioSpec::canonical(&base_config())
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(report.requests_completed, 40);
        assert_eq!(report.groups_completed, 40);
        assert_eq!(report.entries_logged, 160);
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
    }

    #[test]
    fn per_cloud_pdps_cut_decision_latency() {
        let config = base_config();
        let (central, _) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
        let spec = ScenarioSpec {
            placement: PdpPlacement::PerCloud,
            ..ScenarioSpec::canonical(&config)
        };
        let (local, _) = run_scenario(&spec, &mut NoAdversary);
        assert!(
            local.e2e_latency.mean() < central.e2e_latency.mean(),
            "local {} vs central {}",
            local.e2e_latency.mean(),
            central.e2e_latency.mean()
        );
    }

    #[test]
    fn policy_churn_is_not_flagged_as_attack() {
        let mut config = base_config();
        config.total_requests = 80;
        let stricter = PolicySet::builder(
            "strict-root",
            drams_policy::combining::CombiningAlg::DenyUnlessPermit,
        )
        .policy(
            drams_policy::policy::Policy::builder(
                "doctors-only",
                drams_policy::combining::CombiningAlg::PermitOverrides,
            )
            .rule(
                drams_policy::rule::Rule::builder(
                    "doctors",
                    drams_policy::decision::Effect::Permit,
                )
                .target(drams_policy::target::Target::expr(
                    drams_policy::expr::Expr::equal(
                        drams_policy::expr::Expr::attr(drams_policy::attr::AttributeId::new(
                            drams_policy::attr::Category::Subject,
                            "role",
                        )),
                        drams_policy::expr::Expr::lit("doctor"),
                    ),
                ))
                .build(),
            )
            .build(),
        )
        .build();
        let spec = ScenarioSpec {
            script: vec![
                ScriptedAction::PublishPolicy {
                    at: 200 * MILLIS,
                    policy: stricter,
                },
                ScriptedAction::RollbackPolicy {
                    at: 500 * MILLIS,
                    version: 0,
                },
            ],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(report.requests_completed, 80);
        assert_eq!(report.groups_completed, 80);
        assert_eq!(report.policy_activations, 3, "initial + publish + rollback");
        assert_eq!(truth.total_attacks(), 0);
        assert!(
            report.alerts.is_empty(),
            "legitimate churn must not alert: {:?}",
            report.alerts
        );
    }

    #[test]
    fn tenant_churn_keeps_the_run_clean() {
        let mut config = base_config();
        config.total_requests = 80;
        let spec = ScenarioSpec {
            script: vec![
                ScriptedAction::TenantJoin {
                    at: 150 * MILLIS,
                    cloud: CloudId(0),
                    services: 2,
                },
                ScriptedAction::TenantLeave {
                    at: 450 * MILLIS,
                    tenant: TenantId(2),
                },
            ],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(report.requests_completed, 80);
        assert_eq!(report.groups_completed, 80);
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
    }

    #[test]
    fn stalled_li_raises_missing_log_alerts() {
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            script: vec![ScriptedAction::StallLi {
                at: 0,
                until: 30 * SECONDS, // far beyond the drain deadline
                tenant: TenantId(1),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0, "a fault is not an attack");
        assert!(
            report
                .alerts
                .iter()
                .any(|a| matches!(a.kind, crate::alert::AlertKind::MissingLog { .. })),
            "a stalled LI must surface as missing observations: {:?}",
            report.alerts
        );
        assert!(report.groups_completed < 60);
    }

    #[test]
    fn short_pdp_silence_is_masked_by_retries() {
        // A sub-second outage sits well inside the PEP's retry budget:
        // every request completes on a retransmission and nothing alerts.
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            script: vec![ScriptedAction::SilencePdp {
                at: 0,
                until: 150 * MILLIS,
                cloud: CloudId(0),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0);
        assert_eq!(report.requests_completed, 60);
        assert_eq!(report.requests_dropped, 0);
        assert!(report.retries_total > 0, "the outage must cost retries");
        assert_eq!(report.e2e_latency.report().retries, report.retries_total);
        assert!(
            report.e2e_latency.report().attempts[1] > 0,
            "some requests must have completed on their second attempt"
        );
        assert!(
            report.alerts.is_empty(),
            "a retried-through fault must not alert: {:?}",
            report.alerts
        );
    }

    #[test]
    fn persistent_pdp_silence_abandons_requests_and_times_out() {
        // An outage longer than the whole retry budget: the PEP gives up
        // after MAX_ATTEMPTS and the on-chain sweep surfaces the stuck
        // groups as MissingLog.
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            script: vec![ScriptedAction::SilencePdp {
                at: 0,
                until: 60 * SECONDS,
                cloud: CloudId(0),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, _) = run_scenario(&spec, &mut NoAdversary);
        assert!(report.requests_dropped > 0);
        assert_eq!(
            report.requests_completed + report.requests_dropped,
            60,
            "every request either completes or is abandoned after its budget"
        );
        assert!(report.retries_total > 0);
        assert!(!report.alerts.is_empty());
        assert!(report
            .alerts
            .iter()
            .all(|a| matches!(a.kind, crate::alert::AlertKind::MissingLog { .. })));
    }

    #[test]
    fn phased_load_changes_arrival_density() {
        let mut config = base_config();
        config.total_requests = 200;
        config.request_rate_per_sec = 50.0;
        let burst = ScenarioSpec {
            phases: vec![
                Phase {
                    start: 0,
                    rate_per_sec: 50.0,
                },
                Phase {
                    start: 500 * MILLIS,
                    rate_per_sec: 1000.0,
                },
            ],
            ..ScenarioSpec::canonical(&config)
        };
        let (bursty, _) = run_scenario(&burst, &mut NoAdversary);
        let (flat, _) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
        assert_eq!(bursty.requests_completed, 200);
        assert!(
            bursty.finished_at < flat.finished_at,
            "the burst phase must finish the budget sooner: {} vs {}",
            bursty.finished_at,
            flat.finished_at
        );
    }

    #[test]
    fn scheduling_an_out_of_window_action_does_not_perturb_the_run() {
        // Cross-component determinism at scenario level: a scripted
        // action that never fires (far beyond the horizon) must leave
        // every draw of every other component untouched.
        let mut config = base_config();
        config.horizon = 30 * SECONDS;
        let canonical = ScenarioSpec::canonical(&config);
        let spec = ScenarioSpec {
            script: vec![ScriptedAction::TenantJoin {
                at: config.horizon + SECONDS,
                cloud: CloudId(0),
                services: 1,
            }],
            ..canonical.clone()
        };
        let (a, ta) = run_scenario(&canonical, &mut NoAdversary);
        let (b, tb) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(a.requests_completed, b.requests_completed);
        assert_eq!(a.e2e_latency.mean(), b.e2e_latency.mean());
        assert_eq!(a.log_commit_latency.mean(), b.log_commit_latency.mean());
        assert_eq!(a.txs_committed, b.txs_committed);
        assert_eq!(ta, tb);
    }

    #[test]
    fn leave_during_join_settle_does_not_resurrect_the_tenant() {
        // A tenant that departs between its join and the end of the join
        // settle window must not re-enter the workload rotation when the
        // pending activation fires.
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            script: vec![
                ScriptedAction::TenantJoin {
                    at: 100 * MILLIS,
                    cloud: CloudId(0),
                    services: 1,
                },
                // Default federation has tenants 1..=4, so the joiner is
                // TenantId(5); it leaves at the same instant it joins —
                // before the churn-jittered activation can land.
                ScriptedAction::TenantLeave {
                    at: 100 * MILLIS,
                    tenant: TenantId(5),
                },
            ],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(report.requests_completed, 60);
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
    }

    #[test]
    fn run_winds_down_when_every_tenant_departs_for_good() {
        let mut config = base_config();
        config.total_requests = 1_000_000; // never exhausted
        let leave_all: Vec<ScriptedAction> = config
            .federation
            .tenants
            .iter()
            .map(|t| ScriptedAction::TenantLeave {
                at: 300 * MILLIS,
                tenant: t.id,
            })
            .collect();
        let spec = ScenarioSpec {
            script: leave_all,
            ..ScenarioSpec::canonical(&config)
        };
        let (report, _) = run_scenario(&spec, &mut NoAdversary);
        assert!(report.requests_issued > 0);
        assert!(
            report.finished_at < 30 * SECONDS,
            "an emptied federation must drain, not grind to the {}s horizon              (finished at {})",
            config.horizon / SECONDS,
            report.finished_at
        );
    }

    #[test]
    fn crash_restarts_are_byte_identical_to_the_uninterrupted_run() {
        use drams_crypto::codec::Encode;
        let mut config = base_config();
        config.total_requests = 60;
        let (clean, clean_truth) =
            run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
        for target in [
            CrashTarget::ChainNode,
            CrashTarget::Li(TenantId(1)),
            CrashTarget::Li(TenantId::INFRASTRUCTURE),
            CrashTarget::Analyser,
            CrashTarget::Pdp(CloudId(0)),
        ] {
            let spec = ScenarioSpec {
                script: vec![ScriptedAction::CrashRestart {
                    at: 250 * MILLIS,
                    target,
                }],
                ..ScenarioSpec::canonical(&config)
            };
            let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
            assert_eq!(crashed.crash_restarts, 1, "{target:?}");
            assert_eq!(clean_truth, crashed_truth, "{target:?}");
            assert_eq!(
                clean.requests_completed, crashed.requests_completed,
                "{target:?}"
            );
            assert_eq!(clean.entries_logged, crashed.entries_logged, "{target:?}");
            assert_eq!(
                clean.groups_completed, crashed.groups_completed,
                "{target:?}"
            );
            assert_eq!(clean.txs_committed, crashed.txs_committed, "{target:?}");
            assert_eq!(clean.finished_at, crashed.finished_at, "{target:?}");
            let a: Vec<Vec<u8>> = clean
                .alerts
                .iter()
                .map(Encode::to_canonical_bytes)
                .collect();
            let b: Vec<Vec<u8>> = crashed
                .alerts
                .iter()
                .map(Encode::to_canonical_bytes)
                .collect();
            assert_eq!(a, b, "{target:?}: recovery must lose and repeat nothing");
        }
    }

    #[test]
    fn li_crash_during_a_stall_loses_queued_entries_and_alerts() {
        // Entries delivered to a *stalled* LI queue in process memory
        // and are never WAL-acknowledged; a crash during the stall
        // loses them, and the monitor must surface that as MissingLog
        // alerts rather than silently resurrecting the data.
        let mut config = base_config();
        config.total_requests = 60;
        config.group_timeout = 2 * SECONDS;
        let spec = ScenarioSpec {
            script: vec![
                ScriptedAction::StallLi {
                    at: 0,
                    until: 600 * MILLIS,
                    tenant: TenantId(1),
                },
                ScriptedAction::CrashRestart {
                    at: 300 * MILLIS, // mid-stall, with entries queued
                    target: CrashTarget::Li(TenantId(1)),
                },
            ],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0, "a fault is not an attack");
        assert_eq!(report.crash_restarts, 1);
        assert!(
            report
                .alerts
                .iter()
                .any(|a| matches!(a.kind, crate::alert::AlertKind::MissingLog { .. })),
            "lost stalled entries must surface as MissingLog: {:?}",
            report.alerts
        );
        assert!(report.groups_completed < report.requests_completed);
    }

    #[test]
    fn chain_crash_with_pending_mempool_recovers_the_backlog() {
        // Crash the node right before a mine tick: whatever the LIs
        // submitted since the last block sits in the mempool and must
        // come back from the journal, or groups would be lost for good.
        let mut config = base_config();
        config.total_requests = 80;
        config.request_rate_per_sec = 400.0; // dense traffic between blocks
        let spec = ScenarioSpec {
            script: vec![ScriptedAction::CrashRestart {
                at: 499 * MILLIS, // one tick before the 500 ms block
                target: CrashTarget::ChainNode,
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0);
        assert_eq!(report.requests_completed, 80);
        assert_eq!(report.groups_completed, 80, "no group may be lost");
        assert_eq!(report.entries_logged, 320);
        assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
    }

    #[test]
    fn lossy_link_is_masked_by_retries_without_false_alerts() {
        // A 20%-drop window across every link: retransmissions push all
        // requests through, the sweep runs widened across the window,
        // and an honest run stays alert-free.
        use drams_faas::fault::LinkFault;
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            faults: FaultPlan {
                links: vec![LinkFault {
                    drop_permille: 200,
                    active_from: 0,
                    active_until: 2 * SECONDS,
                    ..LinkFault::default()
                }],
                partitions: Vec::new(),
            },
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0);
        assert_eq!(report.requests_completed, 60, "retries mask the loss");
        assert_eq!(report.requests_dropped, 0);
        assert!(report.faults.dropped > 0, "the plan must actually bite");
        assert!(report.retries_total > 0);
        assert_eq!(report.timeout_retunes, 2, "one widen + one restore");
        assert_eq!(report.groups_completed, 60);
        assert!(
            report.alerts.is_empty(),
            "faults are not attacks: {:?}",
            report.alerts
        );
    }

    #[test]
    fn partition_spills_li_backlog_and_replays_on_heal() {
        // Cloud 0 loses the infrastructure for a second: its PEPs retry
        // their way through, its LIs spill to the WAL and replay on
        // heal; nothing is lost, nothing alerts.
        use drams_faas::fault::PartitionWindow;
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            faults: FaultPlan {
                links: Vec::new(),
                partitions: vec![PartitionWindow {
                    a: Site::Cloud(CloudId(0)),
                    b: Site::Infra,
                    from: 200 * MILLIS,
                    until: 1200 * MILLIS,
                }],
            },
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0);
        assert_eq!(report.requests_completed, 60);
        assert!(report.faults.partition_blocked > 0);
        assert!(report.li_spilled > 0, "cloud-0 LIs must have spilled");
        assert!(report.li_replayed > 0, "the spill must replay on heal");
        assert!(report.spill_recovery.report().count > 0);
        assert_eq!(report.groups_completed, 60, "no observation may be lost");
        assert!(
            report.alerts.is_empty(),
            "a healed partition must not alert: {:?}",
            report.alerts
        );
    }

    #[test]
    fn pdp_outage_fails_over_to_a_healthy_cloud() {
        // Per-cloud placement: cloud 0's PDP goes dark, the breaker
        // trips after three timeouts and *new* interceptions complete on
        // cloud 1's PDP instead; the few in-flight stragglers retry
        // slot-sticky and land once the outage (shorter than the group
        // timeout) ends, so nothing alerts.
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            placement: PdpPlacement::PerCloud,
            script: vec![ScriptedAction::SilencePdp {
                at: 0,
                until: 1500 * MILLIS,
                cloud: CloudId(0),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0);
        assert_eq!(report.requests_completed, 60, "failover serves them all");
        assert_eq!(report.requests_dropped, 0);
        assert!(report.breaker_trips > 0, "the breaker must have tripped");
        assert!(report.failovers > 0, "requests must have failed over");
        assert!(report.failover_e2e.report().count > 0);
        assert_eq!(report.failover_e2e.report().count as u64, report.failovers);
        assert!(
            report.alerts.is_empty(),
            "failover keeps the pipeline observable: {:?}",
            report.alerts
        );
    }

    #[test]
    fn pdp_crash_under_duplicating_faults_stays_twin_identical() {
        // The journaled decision cache is what makes a crashed PDP
        // idempotent: under a duplicating/reordering fault plan, the
        // crashed run must match the uninterrupted one byte for byte
        // (a lost cache would re-decide a retransmission, stamp a new
        // `decided_at` and trip the digest cross-check).
        use drams_crypto::codec::Encode;
        use drams_faas::fault::LinkFault;
        let mut config = base_config();
        config.total_requests = 60;
        let faults = FaultPlan {
            links: vec![LinkFault {
                duplicate_permille: 300,
                reorder_permille: 200,
                reorder_spread: 5 * MILLIS,
                active_from: 0,
                active_until: 1500 * MILLIS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        };
        let clean_spec = ScenarioSpec {
            faults: faults.clone(),
            ..ScenarioSpec::canonical(&config)
        };
        let crashed_spec = ScenarioSpec {
            script: vec![ScriptedAction::CrashRestart {
                at: 250 * MILLIS,
                target: CrashTarget::Pdp(CloudId(0)),
            }],
            ..clean_spec.clone()
        };
        let (clean, clean_truth) = run_scenario(&clean_spec, &mut NoAdversary);
        let (crashed, crashed_truth) = run_scenario(&crashed_spec, &mut NoAdversary);
        assert!(clean.faults.duplicated > 0, "the plan must actually bite");
        assert_eq!(crashed.crash_restarts, 1);
        assert_eq!(clean_truth, crashed_truth);
        assert_eq!(clean.requests_completed, crashed.requests_completed);
        assert_eq!(clean.entries_logged, crashed.entries_logged);
        assert_eq!(clean.groups_completed, crashed.groups_completed);
        assert_eq!(clean.txs_committed, crashed.txs_committed);
        assert_eq!(clean.finished_at, crashed.finished_at);
        let a: Vec<Vec<u8>> = clean
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        let b: Vec<Vec<u8>> = crashed
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        assert_eq!(a, b, "recovery must lose and repeat nothing");
    }

    #[test]
    fn attacks_are_still_detected_under_faults() {
        // The robustness bar from the threat matrix: a log-dropping
        // adversary mounted *during* a lossy window must still be
        // detected once the degraded-mode timeout restores.
        use drams_faas::fault::LinkFault;
        let mut config = base_config();
        config.total_requests = 60;
        let spec = ScenarioSpec {
            faults: FaultPlan {
                links: vec![LinkFault {
                    drop_permille: 150,
                    active_from: 0,
                    active_until: 1500 * MILLIS,
                    ..LinkFault::default()
                }],
                partitions: Vec::new(),
            },
            ..ScenarioSpec::canonical(&config)
        };
        struct EveryNthLogDropper {
            seen: u64,
        }
        impl crate::adversary::Adversary for EveryNthLogDropper {
            fn drop_log(&mut self, _entry: &crate::logent::LogEntry, now: SimTime) -> bool {
                if now >= 1500 * MILLIS {
                    return false; // attack only inside the fault window
                }
                self.seen += 1;
                self.seen % 9 == 0
            }
        }
        let mut adversary = EveryNthLogDropper { seen: 0 };
        let (report, truth) = run_scenario(&spec, &mut adversary);
        assert!(!truth.dropped_logs.is_empty(), "the attack must have fired");
        for (corr, point) in &truth.dropped_logs {
            assert!(
                report.alerts.iter().any(|a| {
                    a.correlation == *corr
                        && matches!(&a.kind,
                            crate::alert::AlertKind::MissingLog { point: p } if p == point)
                }),
                "dropped ({corr:?}, {point:?}) must alert even under faults"
            );
        }
        let truly_attacked: std::collections::HashSet<_> =
            truth.dropped_logs.iter().map(|(c, _)| *c).collect();
        for a in &report.alerts {
            assert!(
                truly_attacked.contains(&a.correlation),
                "no fault-induced false positive allowed: {a:?}"
            );
        }
    }

    #[test]
    fn federation_scales_with_per_cloud_pdps() {
        let config = MonitorConfig {
            federation: FederationSpec::symmetric(4, 1, 2),
            total_requests: 60,
            request_rate_per_sec: 150.0,
            ..MonitorConfig::default()
        };
        let spec = ScenarioSpec {
            placement: PdpPlacement::PerCloud,
            ..ScenarioSpec::canonical(&config)
        };
        let (report, _) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(report.requests_completed, 60);
        assert_eq!(report.groups_completed, 60);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn clamp_rate_bounds_pathological_rates() {
        assert_eq!(clamp_rate(f64::INFINITY), MIN_REQUEST_RATE);
        assert_eq!(clamp_rate(f64::NAN), MIN_REQUEST_RATE);
        assert_eq!(clamp_rate(f64::NEG_INFINITY), MIN_REQUEST_RATE);
        assert_eq!(clamp_rate(-3.0), MIN_REQUEST_RATE);
        assert_eq!(clamp_rate(0.0), MIN_REQUEST_RATE);
        assert_eq!(clamp_rate(1e18), MAX_REQUEST_RATE);
        assert_eq!(clamp_rate(0.001), MIN_REQUEST_RATE);
        assert_eq!(clamp_rate(100.0), 100.0, "sane rates pass untouched");
    }

    #[test]
    fn load_profile_clamping_floors_retention_and_caps_population() {
        let wild = LoadProfile {
            population: 50_000_000,
            zipf_exponent: f64::NAN,
            diurnal: vec![DiurnalBand {
                start: 0,
                multiplier_permille: 0,
            }],
            spikes: vec![FlashCrowd {
                from: 5 * SECONDS,
                until: SECONDS, // inverted window
                multiplier_permille: 9_999_999,
            }],
            pep_inflight_cap: 4,
            li_resident_cap: 4,
            idempotency_retention: 1,    // below the safety floor
            analyser_retire_lag: 1,      // below the safety floor
            policy_history_retention: 1, // below the safety floor
            chain_compact_interval: 8,
        };
        let sane = wild.clamped();
        assert_eq!(sane.population, MAX_POPULATION);
        assert!(sane.zipf_exponent.is_finite());
        assert!(sane.diurnal[0].multiplier_permille >= 1);
        assert!(sane.spikes[0].until >= sane.spikes[0].from);
        assert!(sane.spikes[0].multiplier_permille <= MAX_LOAD_MULTIPLIER_PERMILLE);
        assert_eq!(
            sane.idempotency_retention, MIN_RETENTION,
            "retention below the retry budget would break idempotency"
        );
        assert_eq!(sane.analyser_retire_lag, MIN_RETENTION);
        assert_eq!(sane.policy_history_retention, MIN_RETENTION);
        // Zero stays zero: the feature stays off rather than being
        // silently enabled at the floor.
        let off = LoadProfile::default().clamped();
        assert_eq!(off.idempotency_retention, 0);
        assert_eq!(off.analyser_retire_lag, 0);
        assert_eq!(off.policy_history_retention, 0);
    }

    #[test]
    fn diurnal_bands_and_flash_crowds_multiply_the_rate() {
        let load = LoadProfile {
            diurnal: vec![
                DiurnalBand {
                    start: 0,
                    multiplier_permille: 500,
                },
                DiurnalBand {
                    start: 2 * SECONDS,
                    multiplier_permille: 2000,
                },
            ],
            spikes: vec![FlashCrowd {
                from: 3 * SECONDS,
                until: 4 * SECONDS,
                multiplier_permille: 3000,
            }],
            ..LoadProfile::default()
        };
        assert_eq!(load.multiplier_at(0), (500, 1000));
        assert_eq!(load.multiplier_at(SECONDS), (500, 1000));
        assert_eq!(load.multiplier_at(2 * SECONDS), (2000, 1000));
        assert_eq!(load.multiplier_at(3 * SECONDS + MILLIS), (2000, 3000));
        assert_eq!(load.multiplier_at(5 * SECONDS), (2000, 1000));
        assert_eq!(load.effective_rate(100.0, 0), 50.0);
        assert_eq!(load.effective_rate(100.0, 3 * SECONDS + MILLIS), 600.0);
        // A default profile is the identity on any sane rate.
        let unit = LoadProfile::default();
        assert_eq!(unit.multiplier_at(7 * SECONDS), (1000, 1000));
        assert_eq!(unit.effective_rate(250.0, 7 * SECONDS), 250.0);
    }

    #[test]
    fn pathological_rates_still_terminate() {
        // An infinite base rate and a NaN phase must clamp rather than
        // hang the Poisson sampler or divide the gap to zero forever.
        let mut config = base_config();
        config.total_requests = 8;
        config.request_rate_per_sec = f64::INFINITY;
        let spec = ScenarioSpec {
            phases: vec![Phase {
                start: 50 * MILLIS,
                rate_per_sec: f64::NAN,
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(report.requests_issued, 8);
        assert_eq!(report.requests_completed, 8);
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
        assert!(report.finished_at < config.horizon);
    }

    #[test]
    fn honest_overload_sheds_without_false_alerts() {
        // A Zipf-skewed flash crowd slams a PEP capped at 8 in-flight
        // requests: the overflow is shed *before* interception, so no
        // group ever opens for a shed request and an honest run stays
        // alert-free; every bounded buffer must respect its cap.
        let mut config = base_config();
        config.total_requests = 300;
        config.request_rate_per_sec = 3000.0;
        let spec = ScenarioSpec {
            load: LoadProfile {
                population: 800,
                zipf_exponent: 1.1,
                spikes: vec![FlashCrowd {
                    from: 0,
                    until: SECONDS,
                    multiplier_permille: 3000,
                }],
                pep_inflight_cap: 8,
                li_resident_cap: 4,
                ..LoadProfile::default()
            },
            ..ScenarioSpec::canonical(&config)
        };
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.requests_shed > 0, "the cap must have bitten");
        assert!(report.degraded_admissions > 0, "watermark must trip first");
        assert_eq!(
            report.requests_completed,
            report.requests_issued - report.requests_shed,
            "every admitted request completes, every shed one vanishes"
        );
        assert!(report.peak.pep_inflight <= 8, "{:?}", report.peak);
        assert!(report.peak.li_resident <= 4, "{:?}", report.peak);
        assert!(
            report.alerts.is_empty(),
            "shedding is not an attack: {:?}",
            report.alerts
        );
    }

    #[test]
    fn idempotency_eviction_is_invisible_under_retransmission() {
        // Satellite property: evicting journaled decisions older than
        // the retention floor must never change an idempotent
        // retransmission answer — a duplicating/reordering fault plan
        // exercises the cache all run long, and the capped run must be
        // byte-identical to its unbounded twin while actually evicting.
        use drams_crypto::codec::Encode;
        use drams_faas::fault::LinkFault;
        let mut config = base_config();
        config.total_requests = 110;
        config.request_rate_per_sec = 5.0; // ~22 s of arrivals, past the floor
        let faults = FaultPlan {
            links: vec![LinkFault {
                duplicate_permille: 300,
                reorder_permille: 200,
                reorder_spread: 5 * MILLIS,
                active_from: 0,
                active_until: 25 * SECONDS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        };
        let unbounded_spec = ScenarioSpec {
            faults: faults.clone(),
            ..ScenarioSpec::canonical(&config)
        };
        let capped_spec = ScenarioSpec {
            load: LoadProfile {
                idempotency_retention: MIN_RETENTION,
                ..LoadProfile::default()
            },
            ..unbounded_spec.clone()
        };
        let (unbounded, unbounded_truth) = run_scenario(&unbounded_spec, &mut NoAdversary);
        let (capped, capped_truth) = run_scenario(&capped_spec, &mut NoAdversary);
        assert!(unbounded.faults.duplicated > 0, "the plan must bite");
        assert!(capped.idempotency_evictions > 0, "eviction must happen");
        assert!(
            capped.peak.pdp_idempotency < unbounded.peak.pdp_idempotency,
            "capped {} vs unbounded {}",
            capped.peak.pdp_idempotency,
            unbounded.peak.pdp_idempotency
        );
        assert_eq!(unbounded_truth, capped_truth);
        assert_eq!(unbounded.requests_completed, capped.requests_completed);
        assert_eq!(unbounded.entries_logged, capped.entries_logged);
        assert_eq!(unbounded.groups_completed, capped.groups_completed);
        assert_eq!(unbounded.txs_committed, capped.txs_committed);
        assert_eq!(unbounded.finished_at, capped.finished_at);
        let a: Vec<Vec<u8>> = unbounded
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        let b: Vec<Vec<u8>> = capped
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        assert_eq!(a, b, "eviction may never change an answered decision");
    }

    #[test]
    fn analyser_retirement_never_drops_or_repeats_an_alert() {
        // Satellite property: pruning closed decision groups from
        // contract storage (after the retirement lag) must not lose or
        // duplicate any alert. A stalled LI plants genuine MissingLog
        // alerts; the retired run must report the same alert bytes as
        // its unpruned twin while measurably shrinking storage.
        use drams_crypto::codec::Encode;
        let mut config = base_config();
        config.total_requests = 140;
        config.request_rate_per_sec = 6.0; // ~23 s: traffic outlives the lag
        let base_spec = ScenarioSpec {
            script: vec![ScriptedAction::StallLi {
                at: 200 * MILLIS,
                until: 6 * SECONDS, // outlives the sweep of early groups
                tenant: TenantId(1),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let retired_spec = ScenarioSpec {
            load: LoadProfile {
                analyser_retire_lag: MIN_RETENTION,
                ..LoadProfile::default()
            },
            ..base_spec.clone()
        };
        let (unpruned, unpruned_truth) = run_scenario(&base_spec, &mut NoAdversary);
        let (retired, retired_truth) = run_scenario(&retired_spec, &mut NoAdversary);
        assert!(
            !unpruned.alerts.is_empty(),
            "the stall must raise real alerts"
        );
        assert!(retired.groups_retired > 0, "retirement must happen");
        assert_eq!(unpruned_truth, retired_truth);
        assert_eq!(unpruned.requests_completed, retired.requests_completed);
        assert_eq!(unpruned.entries_logged, retired.entries_logged);
        assert_eq!(unpruned.groups_completed, retired.groups_completed);
        let a: Vec<Vec<u8>> = unpruned
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        let b: Vec<Vec<u8>> = retired
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        assert_eq!(a, b, "pruning may never drop or repeat an alert");
        assert!(
            retired.peak.contract_storage < unpruned.peak.contract_storage,
            "retired {} vs unpruned {}",
            retired.peak.contract_storage,
            unpruned.peak.contract_storage
        );
    }

    #[test]
    fn chain_compaction_bounds_journal_growth_without_changing_the_run() {
        // Snapshot-and-prune of the chain node's journal every N blocks
        // must leave the run's observable behaviour untouched while
        // keeping the live journal window bounded.
        let mut config = base_config();
        config.total_requests = 80;
        let plain_spec = ScenarioSpec::canonical(&config);
        let compacted_spec = ScenarioSpec {
            load: LoadProfile {
                chain_compact_interval: 4,
                ..LoadProfile::default()
            },
            ..plain_spec.clone()
        };
        let (plain, plain_truth) = run_scenario(&plain_spec, &mut NoAdversary);
        let (compacted, compacted_truth) = run_scenario(&compacted_spec, &mut NoAdversary);
        assert!(compacted.journal_compactions > 0);
        assert_eq!(plain_truth, compacted_truth);
        assert_eq!(plain.requests_completed, compacted.requests_completed);
        assert_eq!(plain.groups_completed, compacted.groups_completed);
        assert_eq!(plain.txs_committed, compacted.txs_committed);
        assert_eq!(plain.finished_at, compacted.finished_at);
        assert!(
            compacted.peak.chain_journal_records < plain.peak.chain_journal_records,
            "compacted {} vs plain {}",
            compacted.peak.chain_journal_records,
            plain.peak.chain_journal_records
        );
    }
}
