//! Formal policy properties: completeness, conflicts, dead rules,
//! equivalence and change impact.
//!
//! These are the offline analyses of the FACPL framework (paper ref \[8\])
//! that the DRAMS Analyser builds on. Every property that fails comes with
//! a concrete *witness request* demonstrating the failure, which can be
//! replayed against the runtime engine.

use crate::constraint::{
    compile_policy_set, compile_rule, compile_target, AnalysisError, Formula, SymbolicDecision,
};
use crate::solver::solve;
use drams_policy::attr::Request;
use drams_policy::combining::CombiningAlg;
use drams_policy::policy::{Policy, PolicySet};

/// Outcome of the completeness check.
#[derive(Debug, Clone, PartialEq)]
pub enum Completeness {
    /// Every (complete, well-typed) request receives Permit or Deny.
    Complete,
    /// Some request falls through; here is one.
    Incomplete {
        /// A request that receives neither Permit nor Deny.
        witness: Request,
    },
}

impl Completeness {
    /// True when the policy is complete.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// Checks whether every request gets a definitive decision.
///
/// # Errors
///
/// [`AnalysisError`] when the policy is outside the analysable fragment.
pub fn completeness(set: &PolicySet) -> Result<Completeness, AnalysisError> {
    let sym = compile_policy_set(set)?;
    match solve(&sym.gap())? {
        None => Ok(Completeness::Complete),
        Some(model) => Ok(Completeness::Incomplete {
            witness: model.to_request(),
        }),
    }
}

/// A detected permit/deny conflict inside a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Conflict {
    /// Id of a permit rule that fires.
    pub permit_rule: String,
    /// Id of a deny rule that fires on the same request.
    pub deny_rule: String,
    /// A request on which both fire.
    pub witness: Request,
}

/// Finds all pairs of (permit, deny) rules of `policy` that can fire on
/// the same request (the combining algorithm then arbitrates — this check
/// surfaces where that arbitration actually matters).
///
/// # Errors
///
/// [`AnalysisError`] when outside the analysable fragment.
pub fn conflicts(policy: &Policy) -> Result<Vec<Conflict>, AnalysisError> {
    let ptarget = compile_target(&policy.target)?;
    let compiled: Vec<(String, SymbolicDecision)> = policy
        .rules
        .iter()
        .map(|r| Ok((r.id.clone(), compile_rule(r)?)))
        .collect::<Result<_, AnalysisError>>()?;
    let mut out = Vec::new();
    for (pi, psym) in &compiled {
        if psym.permit == Formula::False {
            continue;
        }
        for (di, dsym) in &compiled {
            if dsym.deny == Formula::False {
                continue;
            }
            let both = Formula::and(vec![
                ptarget.clone(),
                psym.permit.clone(),
                dsym.deny.clone(),
            ]);
            if let Some(model) = solve(&both)? {
                out.push(Conflict {
                    permit_rule: pi.clone(),
                    deny_rule: di.clone(),
                    witness: model.to_request(),
                });
            }
        }
    }
    Ok(out)
}

/// Finds rules that can never fire under their policy's algorithm
/// (dead-rule detection).
///
/// # Errors
///
/// [`AnalysisError`] when outside the analysable fragment.
pub fn dead_rules(policy: &Policy) -> Result<Vec<String>, AnalysisError> {
    let ptarget = compile_target(&policy.target)?;
    let compiled: Vec<SymbolicDecision> = policy
        .rules
        .iter()
        .map(compile_rule)
        .collect::<Result<_, _>>()?;
    let mut dead = Vec::new();
    for (i, rule) in policy.rules.iter().enumerate() {
        let fires = Formula::or(vec![compiled[i].permit.clone(), compiled[i].deny.clone()]);
        let mut parts = vec![ptarget.clone(), fires];
        if policy.algorithm == CombiningAlg::FirstApplicable {
            // Under first-applicable an earlier decisive rule shadows later
            // ones; a rule is dead if it can never be the first to fire.
            for earlier in &compiled[..i] {
                parts.push(Formula::not(Formula::or(vec![
                    earlier.permit.clone(),
                    earlier.deny.clone(),
                ])));
            }
        }
        if solve(&Formula::and(parts))?.is_none() {
            dead.push(rule.id.clone());
        }
    }
    Ok(dead)
}

/// Result of comparing two policies.
#[derive(Debug, Clone, PartialEq)]
pub enum Equivalence {
    /// The two policies decide every request identically.
    Equivalent,
    /// They differ; here is a distinguishing request.
    Different {
        /// A request the two policies decide differently.
        witness: Request,
    },
}

/// Decides whether two policy sets produce identical decisions on every
/// complete request.
///
/// # Errors
///
/// [`AnalysisError`] when either policy is outside the fragment.
pub fn equivalent(a: &PolicySet, b: &PolicySet) -> Result<Equivalence, AnalysisError> {
    let sa = compile_policy_set(a)?;
    let sb = compile_policy_set(b)?;
    let diff = Formula::or(vec![
        xor(sa.permit.clone(), sb.permit.clone()),
        xor(sa.deny.clone(), sb.deny.clone()),
    ]);
    match solve(&diff)? {
        None => Ok(Equivalence::Equivalent),
        Some(model) => Ok(Equivalence::Different {
            witness: model.to_request(),
        }),
    }
}

/// The semantic impact of replacing `old` with `new`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChangeImpact {
    /// A request newly permitted (was not Permit, now is).
    pub now_permitted: Option<Request>,
    /// A request newly denied.
    pub now_denied: Option<Request>,
    /// A request that lost its Permit.
    pub lost_permit: Option<Request>,
    /// A request that lost its Deny.
    pub lost_deny: Option<Request>,
}

impl ChangeImpact {
    /// True when the change is semantically invisible.
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        self.now_permitted.is_none()
            && self.now_denied.is_none()
            && self.lost_permit.is_none()
            && self.lost_deny.is_none()
    }
}

/// Computes witnesses for each direction of semantic drift between two
/// policy versions — the analysis a policy administrator runs before
/// deploying a change (and that the Analyser runs when it detects an
/// unauthorised policy swap, to report *what* the swap changed).
///
/// # Errors
///
/// [`AnalysisError`] when either version is outside the fragment.
pub fn change_impact(old: &PolicySet, new: &PolicySet) -> Result<ChangeImpact, AnalysisError> {
    let so = compile_policy_set(old)?;
    let sn = compile_policy_set(new)?;
    let witness = |f: Formula| -> Result<Option<Request>, AnalysisError> {
        Ok(solve(&f)?.map(|m| m.to_request()))
    };
    Ok(ChangeImpact {
        now_permitted: witness(Formula::and(vec![
            Formula::not(so.permit.clone()),
            sn.permit.clone(),
        ]))?,
        now_denied: witness(Formula::and(vec![
            Formula::not(so.deny.clone()),
            sn.deny.clone(),
        ]))?,
        lost_permit: witness(Formula::and(vec![
            so.permit.clone(),
            Formula::not(sn.permit.clone()),
        ]))?,
        lost_deny: witness(Formula::and(vec![so.deny, Formula::not(sn.deny)]))?,
    })
}

/// Symbolically checks whether a policy can ever Permit (useful as a
/// sanity check on generated policies).
///
/// # Errors
///
/// [`AnalysisError`] when outside the fragment.
pub fn can_permit(set: &PolicySet) -> Result<Option<Request>, AnalysisError> {
    let sym = compile_policy_set(set)?;
    Ok(solve(&sym.permit)?.map(|m| m.to_request()))
}

/// Symbolically checks whether a policy can ever Deny.
///
/// # Errors
///
/// [`AnalysisError`] when outside the fragment.
pub fn can_deny(set: &PolicySet) -> Result<Option<Request>, AnalysisError> {
    let sym = compile_policy_set(set)?;
    Ok(solve(&sym.deny)?.map(|m| m.to_request()))
}

fn xor(a: Formula, b: Formula) -> Formula {
    Formula::or(vec![
        Formula::and(vec![a.clone(), Formula::not(b.clone())]),
        Formula::and(vec![Formula::not(a), b]),
    ])
}

/// Re-exported symbolic compilation entry point for policies (paired with
/// [`compile_policy_set`] from the constraint module).
pub use crate::constraint::compile_policy_set as symbolic_semantics;

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::attr::{AttributeId, Category};
    use drams_policy::decision::{Decision, Effect};
    use drams_policy::expr::{Expr, Func};
    use drams_policy::policy::{Policy, PolicyChild, PolicySet};
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    fn role_eq(v: &str) -> Expr {
        Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "role")),
            Expr::lit(v),
        )
    }

    fn hour_lt(v: i64) -> Expr {
        Expr::Apply(
            Func::Less,
            vec![
                Expr::attr(AttributeId::new(Category::Environment, "hour")),
                Expr::lit(v),
            ],
        )
    }

    fn incomplete_set() -> PolicySet {
        // Only doctors are handled at all.
        PolicySet::builder("root", CombiningAlg::DenyOverrides)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .target(Target::expr(role_eq("doctor")))
                    .rule(Rule::always("allow", Effect::Permit))
                    .build(),
            )
            .build()
    }

    fn complete_set() -> PolicySet {
        PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .target(Target::expr(role_eq("doctor")))
                    .rule(Rule::always("allow", Effect::Permit))
                    .build(),
            )
            .build()
    }

    #[test]
    fn detects_incompleteness_with_valid_witness() {
        let result = completeness(&incomplete_set()).unwrap();
        match result {
            Completeness::Incomplete { witness } => {
                // Replay the witness on the concrete engine: it must indeed
                // fall through.
                let (d, _) = incomplete_set().evaluate(&witness);
                assert_eq!(d.to_decision(), Decision::NotApplicable);
            }
            Completeness::Complete => panic!("expected incomplete"),
        }
    }

    #[test]
    fn deny_unless_permit_root_is_complete() {
        assert!(completeness(&complete_set()).unwrap().is_complete());
    }

    #[test]
    fn conflict_detection_finds_overlap() {
        let policy = Policy::builder("p", CombiningAlg::DenyOverrides)
            .rule(
                Rule::builder("allow-day", Effect::Permit)
                    .condition(hour_lt(18))
                    .build(),
            )
            .rule(
                Rule::builder("deny-early", Effect::Deny)
                    .condition(hour_lt(9))
                    .build(),
            )
            .build();
        let found = conflicts(&policy).unwrap();
        assert_eq!(found.len(), 1);
        let c = &found[0];
        assert_eq!(c.permit_rule, "allow-day");
        assert_eq!(c.deny_rule, "deny-early");
        // witness hour must be < 9 (both rules fire)
        let hour = c.witness.bag(Category::Environment, "hour")[0]
            .as_f64()
            .unwrap();
        assert!(hour < 9.0);
    }

    #[test]
    fn disjoint_rules_have_no_conflicts() {
        let policy = Policy::builder("p", CombiningAlg::DenyOverrides)
            .rule(
                Rule::builder("allow", Effect::Permit)
                    .target(Target::expr(role_eq("doctor")))
                    .build(),
            )
            .rule(
                Rule::builder("deny", Effect::Deny)
                    .target(Target::expr(role_eq("intern")))
                    .build(),
            )
            .build();
        assert!(conflicts(&policy).unwrap().is_empty());
    }

    #[test]
    fn dead_rule_detection() {
        let policy = Policy::builder("p", CombiningAlg::FirstApplicable)
            .rule(Rule::always("catch-all", Effect::Deny))
            .rule(
                Rule::builder("never-reached", Effect::Permit)
                    .target(Target::expr(role_eq("doctor")))
                    .build(),
            )
            .build();
        assert_eq!(dead_rules(&policy).unwrap(), vec!["never-reached"]);
        // Under deny-overrides the same rule is live.
        let mut p2 = policy;
        p2.algorithm = CombiningAlg::DenyOverrides;
        assert!(dead_rules(&p2).unwrap().is_empty());
    }

    #[test]
    fn contradictory_condition_is_dead_everywhere() {
        let policy = Policy::builder("p", CombiningAlg::DenyOverrides)
            .rule(
                Rule::builder("impossible", Effect::Permit)
                    .condition(Expr::and(vec![hour_lt(5), Expr::not(hour_lt(10))]))
                    .build(),
            )
            .build();
        assert_eq!(dead_rules(&policy).unwrap(), vec!["impossible"]);
    }

    #[test]
    fn equivalence_of_identical_policies() {
        assert_eq!(
            equivalent(&complete_set(), &complete_set()).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn inequivalence_has_replayable_witness() {
        let a = complete_set();
        let mut b = complete_set();
        // Change the role the policy targets.
        if let PolicyChild::Policy(p) = &mut b.children[0] {
            p.target = Target::expr(role_eq("nurse"));
        }
        match equivalent(&a, &b).unwrap() {
            Equivalence::Different { witness } => {
                let da = a.evaluate(&witness).0.to_decision();
                let db = b.evaluate(&witness).0.to_decision();
                assert_ne!(da, db, "witness must distinguish: {witness:?}");
            }
            Equivalence::Equivalent => panic!("expected difference"),
        }
    }

    #[test]
    fn change_impact_directions() {
        let old = complete_set();
        let mut new = complete_set();
        if let PolicyChild::Policy(p) = &mut new.children[0] {
            // Narrow the permit with a condition: some requests lose Permit.
            p.rules[0] = Rule::builder("allow", Effect::Permit)
                .condition(hour_lt(18))
                .build();
        }
        let impact = change_impact(&old, &new).unwrap();
        assert!(!impact.is_neutral());
        // Losing a permit under deny-unless-permit means gaining a deny.
        let lost = impact.lost_permit.expect("some request lost permit");
        assert_eq!(old.evaluate(&lost).0.to_decision(), Decision::Permit);
        assert_ne!(new.evaluate(&lost).0.to_decision(), Decision::Permit);
        assert!(impact.now_denied.is_some());
        assert!(impact.now_permitted.is_none());
    }

    #[test]
    fn neutral_change_is_detected() {
        let old = complete_set();
        let mut new = complete_set();
        new.id = "renamed".into(); // ids don't affect semantics
        assert!(change_impact(&old, &new).unwrap().is_neutral());
    }

    #[test]
    fn can_permit_and_deny_witnesses_replay() {
        let set = complete_set();
        let p = can_permit(&set).unwrap().expect("permits doctors");
        assert_eq!(set.evaluate(&p).0.to_decision(), Decision::Permit);
        let d = can_deny(&set).unwrap().expect("denies others");
        assert_eq!(set.evaluate(&d).0.to_decision(), Decision::Deny);
    }
}
