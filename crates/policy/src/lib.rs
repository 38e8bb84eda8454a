//! XACML 3.0–style access-control policy engine (FACPL-flavoured).
//!
//! This crate implements the access-control system that DRAMS (Ferdous et
//! al., ICDCS 2017) monitors: the paper's FaaS federation enforces XACML
//! policies through a central PDP and distributed PEPs, and the DRAMS
//! Analyser re-evaluates logged decisions against the *formal semantics* of
//! those policies (ref \[8\] — Margheri et al.'s FACPL framework). Both the
//! PDP and the Analyser in this workspace evaluate policies with the code
//! in this crate, but from independently-stored policy copies — which is
//! exactly what lets the Analyser detect a lying PDP.
//!
//! # Structure
//!
//! * [`attr`] — categories, attribute ids/values, requests (bag semantics).
//! * [`expr`] — the expression language for targets and conditions.
//! * [`target`] — applicability targets (`Match`/`NoMatch`/`Indeterminate`).
//! * [`rule`] — rules (effect + target + condition + obligations).
//! * [`policy`] — policies and policy sets.
//! * [`combining`] — the six XACML 3.0 combining algorithms with extended
//!   `Indeterminate` semantics.
//! * [`decision`] — decisions, obligations, responses.
//! * [`compiled`] — the compiled engine: interned attributes, arena
//!   expressions, prepared requests and target-indexed policy sets. The
//!   tree-walking evaluators above remain the reference semantics; the
//!   compiled engine is property-tested equivalent and is what the PDP
//!   and the Analyser actually run.
//! * [`pdp`] — the Policy Decision Point (compiled engine + decision
//!   cache).
//! * [`parser`] — a FACPL-like text syntax plus pretty-printer.
//!
//! # Example
//!
//! ```
//! use drams_policy::prelude::*;
//! use drams_policy::{parser::parse_policy_set, pdp::Pdp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = parse_policy_set(r#"
//!   policyset root { deny-overrides
//!     policy p { permit-overrides
//!       rule allow (permit) { target: equal(subject.role, "doctor") }
//!     }
//!   }
//! "#)?;
//! let pdp = Pdp::new(set);
//! let req = Request::builder().subject("role", "doctor").build();
//! assert!(pdp.evaluate(&req).is_permit());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod attr;
pub mod combining;
pub mod compiled;
pub mod decision;
pub mod expr;
pub mod parser;
pub mod pdp;
pub mod policy;
pub mod rule;
pub mod target;

/// Convenient glob-import of the types needed to build and evaluate
/// policies.
pub mod prelude {
    pub use crate::attr::{AttributeId, AttributeValue, Category, Request};
    pub use crate::combining::CombiningAlg;
    pub use crate::compiled::PreparedPolicySet;
    pub use crate::decision::{Decision, Effect, ExtDecision, Obligation, Response};
    pub use crate::expr::{Expr, Func};
    pub use crate::pdp::Pdp;
    pub use crate::policy::{Policy, PolicyChild, PolicySet};
    pub use crate::rule::Rule;
    pub use crate::target::Target;
}
