//! XACML 3.0 combining algorithms over extended decisions.
//!
//! Implements the six standard algorithms with the *extended Indeterminate*
//! semantics of XACML 3.0 Appendix C. The Analyser re-evaluates logged
//! decisions with exactly these tables, so fidelity here is what makes the
//! "altered evaluation process" detection of the paper meaningful.

use crate::attr::Request;
use crate::decision::{Effect, ExtDecision, Obligation};
use crate::target::MatchResult;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A combining algorithm identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CombiningAlg {
    /// Deny wins over everything (XACML C.2).
    DenyOverrides,
    /// Permit wins over everything (XACML C.4).
    PermitOverrides,
    /// First child with a definitive decision wins (XACML C.8).
    FirstApplicable,
    /// Exactly one child may be applicable (XACML C.9).
    OnlyOneApplicable,
    /// Any permit → Permit, otherwise Deny; never NA/Indeterminate (C.6).
    DenyUnlessPermit,
    /// Any deny → Deny, otherwise Permit; never NA/Indeterminate (C.7).
    PermitUnlessDeny,
}

impl CombiningAlg {
    /// All six algorithms.
    pub const ALL: [CombiningAlg; 6] = [
        CombiningAlg::DenyOverrides,
        CombiningAlg::PermitOverrides,
        CombiningAlg::FirstApplicable,
        CombiningAlg::OnlyOneApplicable,
        CombiningAlg::DenyUnlessPermit,
        CombiningAlg::PermitUnlessDeny,
    ];

    /// Canonical textual name, used by the parser.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CombiningAlg::DenyOverrides => "deny-overrides",
            CombiningAlg::PermitOverrides => "permit-overrides",
            CombiningAlg::FirstApplicable => "first-applicable",
            CombiningAlg::OnlyOneApplicable => "only-one-applicable",
            CombiningAlg::DenyUnlessPermit => "deny-unless-permit",
            CombiningAlg::PermitUnlessDeny => "permit-unless-deny",
        }
    }

    /// Looks an algorithm up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<CombiningAlg> {
        CombiningAlg::ALL.iter().copied().find(|a| a.name() == name)
    }
}

impl fmt::Display for CombiningAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Encode for CombiningAlg {
    fn encode(&self, w: &mut Writer) {
        let code = CombiningAlg::ALL
            .iter()
            .position(|a| a == self)
            .expect("algorithm in ALL") as u8;
        w.put_u8(code);
    }
}

impl Decode for CombiningAlg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let code = r.get_u8()?;
        CombiningAlg::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| CryptoError::Malformed(format!("combining alg code {code}")))
    }
}

/// Anything a combining algorithm can combine: rules, policies, policy
/// sets. Applicability (target only) and full evaluation are separated
/// because `only-one-applicable` needs the former without the latter.
pub trait Combinable {
    /// Target-only applicability check.
    fn applicability(&self, request: &Request) -> MatchResult;
    /// Full evaluation: extended decision plus contributed obligations.
    fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>);
}

/// Combines children under `alg` for `request`.
///
/// Obligations are accumulated from every child whose decision equals the
/// combined decision (XACML §7.18); indeterminate outcomes carry none.
pub fn combine<C: Combinable>(
    alg: CombiningAlg,
    children: &[C],
    request: &Request,
) -> (ExtDecision, Vec<Obligation>) {
    combine_with(
        alg,
        children.len(),
        &mut |i| children[i].applicability(request),
        &mut |i| children[i].evaluate(request),
        // The reference interpreter visits every child.
        &mut |_, _| true,
    )
}

/// Index-based combining core, generic over the obligation representation.
///
/// This is the single implementation of the six algorithms' truth tables.
/// The tree-walking interpreter instantiates it with owned
/// [`Obligation`]s; the compiled engine (`crate::compiled`) instantiates
/// it with borrowed `&Obligation`s over its target-indexed candidate
/// lists. `applicability(i)`/`evaluate(i)` address the `i`-th child in
/// document order.
///
/// `may_oblige(i, effect)` answers "can child `i` return obligations
/// together with the decision `effect`?" and is what makes the early exit
/// of deny-/permit-overrides exact: once a child has returned the
/// overriding decision the result is `(winner, winner_obligations)`
/// whatever the remaining children return, so a remaining child can only
/// matter by *adding obligations for the winning effect* — and one that
/// cannot is not evaluated. Answering `true` is always correct (the child
/// is evaluated as before), which is what the interpreter does to stay
/// the every-child reference; the compiled engine answers from a
/// per-child flag worked out at compile time. While no child has returned
/// the winner — in particular whenever the combined decision is the
/// loser, Indeterminate or NotApplicable — every child is evaluated, so
/// that worst case is unchanged. `first-applicable`, `only-one-applicable`
/// and the two `unless` algorithms never consult it: they already stop at
/// the first child that settles the decision.
pub(crate) fn combine_with<Ob, A, E, M>(
    alg: CombiningAlg,
    n: usize,
    applicability: &mut A,
    evaluate: &mut E,
    may_oblige: &mut M,
) -> (ExtDecision, Vec<Ob>)
where
    A: FnMut(usize) -> MatchResult,
    E: FnMut(usize) -> (ExtDecision, Vec<Ob>),
    M: FnMut(usize, Effect) -> bool,
{
    match alg {
        CombiningAlg::DenyOverrides => overrides(n, evaluate, ExtDecision::Deny, &mut |i| {
            may_oblige(i, Effect::Deny)
        }),
        CombiningAlg::PermitOverrides => overrides(n, evaluate, ExtDecision::Permit, &mut |i| {
            may_oblige(i, Effect::Permit)
        }),
        CombiningAlg::FirstApplicable => first_applicable(n, evaluate),
        CombiningAlg::OnlyOneApplicable => only_one_applicable(n, applicability, evaluate),
        CombiningAlg::DenyUnlessPermit => {
            unless(n, evaluate, ExtDecision::Permit, ExtDecision::Deny)
        }
        CombiningAlg::PermitUnlessDeny => {
            unless(n, evaluate, ExtDecision::Deny, ExtDecision::Permit)
        }
    }
}

/// Shared implementation of deny-overrides / permit-overrides.
///
/// `winner` is the overriding decision (Deny for deny-overrides). The
/// extended-indeterminate table is XACML 3.0 C.2/C.4 with the roles of
/// D and P swapped for permit-overrides. `may_oblige(i)` is
/// [`combine_with`]'s predicate fixed to the winning effect.
fn overrides<Ob, E, M>(
    n: usize,
    evaluate: &mut E,
    winner: ExtDecision,
    may_oblige: &mut M,
) -> (ExtDecision, Vec<Ob>)
where
    E: FnMut(usize) -> (ExtDecision, Vec<Ob>),
    M: FnMut(usize) -> bool,
{
    let loser = match winner {
        ExtDecision::Deny => ExtDecision::Permit,
        _ => ExtDecision::Deny,
    };
    let (ind_winner, ind_loser) = match winner {
        ExtDecision::Deny => (ExtDecision::IndeterminateD, ExtDecision::IndeterminateP),
        _ => (ExtDecision::IndeterminateP, ExtDecision::IndeterminateD),
    };

    let mut saw_winner = false;
    let mut saw_loser = false;
    let mut saw_ind_winner = false;
    let mut saw_ind_loser = false;
    let mut saw_ind_dp = false;
    let mut winner_obligations = Vec::new();
    let mut loser_obligations = Vec::new();

    for i in 0..n {
        // With the winner seen, the flags below can no longer change the
        // result; only more winner obligations can.
        if saw_winner && !may_oblige(i) {
            continue;
        }
        let (d, obs) = evaluate(i);
        if d == winner {
            saw_winner = true;
            winner_obligations.extend(obs);
        } else if d == loser {
            saw_loser = true;
            loser_obligations.extend(obs);
        } else if d == ind_winner {
            saw_ind_winner = true;
        } else if d == ind_loser {
            saw_ind_loser = true;
        } else if d == ExtDecision::IndeterminateDP {
            saw_ind_dp = true;
        }
    }

    if saw_winner {
        return (winner, winner_obligations);
    }
    if saw_ind_dp {
        return (ExtDecision::IndeterminateDP, Vec::new());
    }
    if saw_ind_winner && (saw_ind_loser || saw_loser) {
        return (ExtDecision::IndeterminateDP, Vec::new());
    }
    if saw_ind_winner {
        return (ind_winner, Vec::new());
    }
    if saw_loser {
        return (loser, loser_obligations);
    }
    if saw_ind_loser {
        return (ind_loser, Vec::new());
    }
    (ExtDecision::NotApplicable, Vec::new())
}

fn first_applicable<Ob, E: FnMut(usize) -> (ExtDecision, Vec<Ob>)>(
    n: usize,
    evaluate: &mut E,
) -> (ExtDecision, Vec<Ob>) {
    for i in 0..n {
        let (d, obs) = evaluate(i);
        match d {
            ExtDecision::Permit | ExtDecision::Deny => return (d, obs),
            ExtDecision::NotApplicable => continue,
            ind => return (ind, Vec::new()),
        }
    }
    (ExtDecision::NotApplicable, Vec::new())
}

fn only_one_applicable<Ob, A, E>(
    n: usize,
    applicability: &mut A,
    evaluate: &mut E,
) -> (ExtDecision, Vec<Ob>)
where
    A: FnMut(usize) -> MatchResult,
    E: FnMut(usize) -> (ExtDecision, Vec<Ob>),
{
    let mut applicable: Option<usize> = None;
    for i in 0..n {
        match applicability(i) {
            MatchResult::Indeterminate => return (ExtDecision::IndeterminateDP, Vec::new()),
            MatchResult::Match => {
                if applicable.is_some() {
                    return (ExtDecision::IndeterminateDP, Vec::new());
                }
                applicable = Some(i);
            }
            MatchResult::NoMatch => {}
        }
    }
    match applicable {
        Some(i) => evaluate(i),
        None => (ExtDecision::NotApplicable, Vec::new()),
    }
}

/// deny-unless-permit / permit-unless-deny: `sought` short-circuits,
/// anything else collapses to `fallback`.
fn unless<Ob, E: FnMut(usize) -> (ExtDecision, Vec<Ob>)>(
    n: usize,
    evaluate: &mut E,
    sought: ExtDecision,
    fallback: ExtDecision,
) -> (ExtDecision, Vec<Ob>) {
    let mut fallback_obligations = Vec::new();
    for i in 0..n {
        let (d, obs) = evaluate(i);
        if d == sought {
            return (sought, obs);
        }
        if d == fallback {
            fallback_obligations.extend(obs);
        }
    }
    (fallback, fallback_obligations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Effect;
    use ExtDecision as D;

    /// A stub child with a fixed outcome.
    struct Fixed {
        decision: D,
        applicability: MatchResult,
        obligation: Option<&'static str>,
    }

    impl Fixed {
        fn new(decision: D) -> Self {
            let applicability = match decision {
                D::NotApplicable => MatchResult::NoMatch,
                _ => MatchResult::Match,
            };
            Fixed {
                decision,
                applicability,
                obligation: None,
            }
        }

        fn with_obligation(mut self, id: &'static str) -> Self {
            self.obligation = Some(id);
            self
        }

        fn indeterminate_target(mut self) -> Self {
            self.applicability = MatchResult::Indeterminate;
            self
        }
    }

    impl Combinable for Fixed {
        fn applicability(&self, _request: &Request) -> MatchResult {
            self.applicability
        }
        fn evaluate(&self, _request: &Request) -> (D, Vec<Obligation>) {
            let obs = self
                .obligation
                .map(|id| {
                    let effect = match self.decision {
                        D::Permit => Effect::Permit,
                        _ => Effect::Deny,
                    };
                    vec![Obligation::new(id, effect)]
                })
                .unwrap_or_default();
            (self.decision, obs)
        }
    }

    fn run(alg: CombiningAlg, decisions: &[D]) -> D {
        let children: Vec<Fixed> = decisions.iter().map(|d| Fixed::new(*d)).collect();
        combine(alg, &children, &Request::new()).0
    }

    // --- deny-overrides truth table (XACML C.2) ---

    #[test]
    fn deny_overrides_table() {
        use CombiningAlg::DenyOverrides as A;
        assert_eq!(run(A, &[D::Permit, D::Deny]), D::Deny);
        assert_eq!(run(A, &[D::Deny, D::IndeterminateDP]), D::Deny);
        assert_eq!(run(A, &[D::Permit, D::Permit]), D::Permit);
        assert_eq!(run(A, &[D::NotApplicable]), D::NotApplicable);
        assert_eq!(run(A, &[]), D::NotApplicable);
        assert_eq!(run(A, &[D::IndeterminateDP, D::Permit]), D::IndeterminateDP);
        // IndD + Permit → IndDP
        assert_eq!(run(A, &[D::IndeterminateD, D::Permit]), D::IndeterminateDP);
        // IndD + IndP → IndDP
        assert_eq!(
            run(A, &[D::IndeterminateD, D::IndeterminateP]),
            D::IndeterminateDP
        );
        // IndD alone → IndD
        assert_eq!(
            run(A, &[D::IndeterminateD, D::NotApplicable]),
            D::IndeterminateD
        );
        // Permit + IndP → Permit
        assert_eq!(run(A, &[D::Permit, D::IndeterminateP]), D::Permit);
        // IndP alone → IndP
        assert_eq!(run(A, &[D::IndeterminateP]), D::IndeterminateP);
    }

    #[test]
    fn permit_overrides_table_is_dual() {
        use CombiningAlg::PermitOverrides as A;
        assert_eq!(run(A, &[D::Permit, D::Deny]), D::Permit);
        assert_eq!(run(A, &[D::Deny, D::Deny]), D::Deny);
        assert_eq!(run(A, &[D::IndeterminateP, D::Deny]), D::IndeterminateDP);
        assert_eq!(
            run(A, &[D::IndeterminateP, D::IndeterminateD]),
            D::IndeterminateDP
        );
        assert_eq!(run(A, &[D::IndeterminateP]), D::IndeterminateP);
        assert_eq!(run(A, &[D::Deny, D::IndeterminateD]), D::Deny);
        assert_eq!(run(A, &[D::IndeterminateD]), D::IndeterminateD);
        assert_eq!(run(A, &[]), D::NotApplicable);
    }

    #[test]
    fn first_applicable_short_circuits() {
        use CombiningAlg::FirstApplicable as A;
        assert_eq!(run(A, &[D::NotApplicable, D::Deny, D::Permit]), D::Deny);
        assert_eq!(run(A, &[D::Permit, D::Deny]), D::Permit);
        assert_eq!(run(A, &[D::NotApplicable]), D::NotApplicable);
        assert_eq!(run(A, &[D::IndeterminateP, D::Deny]), D::IndeterminateP);
    }

    #[test]
    fn only_one_applicable_cases() {
        use CombiningAlg::OnlyOneApplicable as A;
        // exactly one applicable → its decision
        assert_eq!(run(A, &[D::NotApplicable, D::Deny]), D::Deny);
        assert_eq!(run(A, &[D::Permit, D::NotApplicable]), D::Permit);
        // two applicable → IndDP
        assert_eq!(run(A, &[D::Permit, D::Deny]), D::IndeterminateDP);
        // none applicable → NA
        assert_eq!(
            run(A, &[D::NotApplicable, D::NotApplicable]),
            D::NotApplicable
        );
        // indeterminate target → IndDP
        let children = vec![Fixed::new(D::Permit).indeterminate_target()];
        assert_eq!(combine(A, &children, &Request::new()).0, D::IndeterminateDP);
    }

    #[test]
    fn deny_unless_permit_never_indeterminate() {
        use CombiningAlg::DenyUnlessPermit as A;
        assert_eq!(run(A, &[D::IndeterminateDP]), D::Deny);
        assert_eq!(run(A, &[D::NotApplicable]), D::Deny);
        assert_eq!(run(A, &[D::Deny, D::Permit]), D::Permit);
        assert_eq!(run(A, &[]), D::Deny);
    }

    #[test]
    fn permit_unless_deny_never_indeterminate() {
        use CombiningAlg::PermitUnlessDeny as A;
        assert_eq!(run(A, &[D::IndeterminateDP]), D::Permit);
        assert_eq!(run(A, &[D::Deny, D::Permit]), D::Deny);
        assert_eq!(run(A, &[]), D::Permit);
    }

    #[test]
    fn obligations_follow_the_decision() {
        let children = vec![
            Fixed::new(D::Permit).with_obligation("log-permit"),
            Fixed::new(D::Deny).with_obligation("log-deny"),
            Fixed::new(D::Permit).with_obligation("notify"),
        ];
        let (d, obs) = combine(CombiningAlg::DenyOverrides, &children, &Request::new());
        assert_eq!(d, D::Deny);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].id, "log-deny");

        let (d, obs) = combine(CombiningAlg::PermitOverrides, &children, &Request::new());
        assert_eq!(d, D::Permit);
        let ids: Vec<&str> = obs.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, vec!["log-permit", "notify"]);
    }

    /// Runs `alg` over fixed `decisions` through [`combine_with`] and
    /// returns the combined decision with the indices it evaluated.
    fn evaluated(
        alg: CombiningAlg,
        decisions: &[D],
        mut may_oblige: impl FnMut(usize, Effect) -> bool,
    ) -> (D, Vec<usize>) {
        let mut seen = Vec::new();
        let (d, _) = combine_with::<Obligation, _, _, _>(
            alg,
            decisions.len(),
            &mut |_| MatchResult::Match,
            &mut |i| {
                seen.push(i);
                (decisions[i], Vec::new())
            },
            &mut may_oblige,
        );
        (d, seen)
    }

    #[test]
    fn overrides_skip_only_after_the_winner_and_only_what_cannot_oblige() {
        let decisions = [D::Permit, D::Deny, D::IndeterminateDP, D::Deny, D::Permit];
        // Child 3 can still add Deny obligations; 2 and 4 cannot.
        let (d, seen) = evaluated(CombiningAlg::DenyOverrides, &decisions, |i, effect| {
            assert_eq!(effect, Effect::Deny, "asked about the winning effect");
            i == 3
        });
        assert_eq!((d, seen), (D::Deny, vec![0, 1, 3]));
        // Answering `true` (the interpreter) evaluates every child.
        let (d, seen) = evaluated(CombiningAlg::DenyOverrides, &decisions, |_, _| true);
        assert_eq!((d, seen), (D::Deny, vec![0, 1, 2, 3, 4]));
        // No winner among the children: the predicate is never the
        // reason a child is skipped.
        let no_winner = [D::Deny, D::IndeterminateP, D::Deny];
        let (d, seen) = evaluated(CombiningAlg::PermitOverrides, &no_winner, |_, _| false);
        assert_eq!((d, seen), (D::IndeterminateDP, vec![0, 1, 2]));
    }

    #[test]
    fn indeterminate_outcomes_carry_no_obligations() {
        let children = vec![
            Fixed::new(D::IndeterminateD).with_obligation("x"),
            Fixed::new(D::Permit).with_obligation("y"),
        ];
        let (d, obs) = combine(CombiningAlg::DenyOverrides, &children, &Request::new());
        assert_eq!(d, D::IndeterminateDP);
        assert!(obs.is_empty());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in CombiningAlg::ALL {
            assert_eq!(CombiningAlg::by_name(alg.name()), Some(alg));
        }
        assert_eq!(CombiningAlg::by_name("nope"), None);
    }

    #[test]
    fn codec_round_trip() {
        use drams_crypto::codec::{Decode, Encode};
        for alg in CombiningAlg::ALL {
            let bytes = alg.to_canonical_bytes();
            assert_eq!(CombiningAlg::from_canonical_bytes(&bytes).unwrap(), alg);
        }
    }
}
