//! Formally-grounded policy analysis for DRAMS.
//!
//! Implements the analysis framework the paper's Analyser builds on
//! (ref \[8\], Margheri et al. — FACPL): policies are compiled to constraint
//! formulas, a small DPLL+theory solver decides satisfiability and produces
//! concrete witness requests, and a set of property checks (completeness,
//! conflicts, dead rules, equivalence, change impact) sit on top. This is
//! the offline half: the live Analyser never runs the solver, and its
//! runtime decision-verification oracle lives beside the PDP in
//! `drams_policy::verify`.
//!
//! * [`constraint`] — formula language + policy→formula compilation.
//! * [`types`] — attribute type inference for the solver's theories.
//! * [`solver`] — DPLL over comparison atoms with witness construction.
//! * [`properties`] — offline policy properties with witnesses.
//! * [`verify`] — `drams_policy::verify`, re-exported at its earlier path.
//!
//! # Example: completeness with a replayable witness
//!
//! ```
//! use drams_analysis::properties::{completeness, Completeness};
//! use drams_policy::{parser::parse_policy_set, decision::Decision};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = parse_policy_set(r#"
//!   policyset root { deny-overrides
//!     policy p { permit-overrides
//!       rule allow (permit) { target: equal(subject.role, "doctor") }
//!     }
//!   }
//! "#)?;
//! match completeness(&set)? {
//!     Completeness::Incomplete { witness } => {
//!         // the witness really does fall through the policy
//!         assert_eq!(set.evaluate(&witness).0.to_decision(), Decision::NotApplicable);
//!     }
//!     Completeness::Complete => unreachable!("non-doctors are unhandled"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod constraint;
pub mod properties;
pub mod solver;
pub mod types;

pub use constraint::Formula;
pub use drams_policy::verify;
pub use properties::{
    can_deny, can_permit, change_impact, completeness, conflicts, dead_rules, equivalent,
    Completeness, Conflict, Equivalence,
};
pub use solver::satisfiable;
