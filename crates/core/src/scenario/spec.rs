//! The declarative layer: what a scenario *is* — deployment identity
//! (probe ids and keys, named RNG streams), the population/overload
//! model and the script of timed actions. No service logic lives here.

use super::pep::RETRY_BUDGET;
use crate::logent::ProbeId;
use crate::monitor::MonitorConfig;
use drams_crypto::sha256::Digest;
use drams_faas::des::{SimTime, SECONDS};
use drams_faas::fault::FaultPlan;
use drams_faas::model::{CloudId, TenantId};
use drams_policy::policy::PolicySet;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        // Zero stays zero: the feature stays off rather than being
        // silently enabled at the floor.
        let floored = |window: SimTime| {
            if window > 0 {
                window.max(MIN_RETENTION)
            } else {
                0
            }
        };
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
            idempotency_retention: floored(self.idempotency_retention),
            analyser_retire_lag: floored(self.analyser_retire_lag),
            policy_history_retention: floored(self.policy_history_retention),
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

#[cfg(test)]
mod tests {
    use super::*;
    use drams_faas::des::MILLIS;

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
}
