//! Adversarial scenario fuzzer for the DRAMS monitoring pipeline.
//!
//! A deterministic, seed-driven generator of random [`ScenarioSpec`]s —
//! phased Poisson load, tenant churn, policy publish/rollback, windowed
//! attack campaigns over the full nine-threat catalogue, Byzantine
//! chain-node behaviour and crash-restart points — checked end to end
//! against a three-part ground-truth oracle:
//!
//! 1. **Every injected attack is detected.** Campaign threats are scored
//!    through [`drams_attack::score()`]; chain-level attacks (forks,
//!    equivocation, forged-signature blocks, withheld commits) through
//!    [`drams_attack::chain_attack_score`].
//! 2. **Every honest run is alert-free.** Churn, bursts, policy flips
//!    and crashes are legitimate operations; any alert is a false
//!    positive and an oracle violation.
//! 3. **Every crashed run is byte-identical to its uninterrupted twin**
//!    (the E11 recovery bar, here enforced under adversarial load too).
//!
//! Oracle-violating cases are [shrunk](shrink::shrink) to a minimal
//! reproduction and printed as compilable Rust
//! ([`shrink::render_rust`]).
//!
//! [`ScenarioSpec`]: drams_core::scenario::ScenarioSpec

#![forbid(unsafe_code)]

pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::{generate, strict_policy, AttackPlan, ChainAttackKind, FuzzCase, COVERAGE_PRELUDE};
pub use oracle::{run_case, strip_crashes, CaseOutcome};
pub use shrink::{render_rust, shrink};
