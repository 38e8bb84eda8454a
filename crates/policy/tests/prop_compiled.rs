//! Equivalence property suite: the compiled engine (`drams_policy::compiled`)
//! must agree with the tree-walking reference interpreter on *arbitrary*
//! policies and requests — including the ugly corners the workload
//! generator's analysable fragment never produces: missing attributes,
//! multi-valued bags (singleton-coercion type errors), cross-type
//! comparisons, wrong arities, nested sets under all six combining
//! algorithms, and obligation ordering.
//!
//! The generators below are deliberately *not* the `drams-faas` workload
//! generators: they sample outside the analysable fragment so that every
//! `Indeterminate` flavour and `EvalError` path is exercised, and they
//! bias targets towards the single-attribute-equality shape so the
//! compiled engine's target index is on the hot path of the test, not
//! just its residual fallback.

use drams_policy::compiled::PreparedPolicySet;
use drams_policy::decision::{Effect, ExtDecision, Obligation};
use drams_policy::policy::{Policy, PolicySet};
use drams_policy::prelude::*;
use drams_policy::rule::Rule;
use drams_policy::target::Target;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 5] = ["role", "type", "id", "hour", "tags"];
const STRINGS: [&str; 5] = ["doctor", "nurse", "record", "read", "icu"];

fn rand_category(rng: &mut StdRng) -> Category {
    Category::ALL[rng.gen_range(0..Category::ALL.len())]
}

fn rand_attr_id(rng: &mut StdRng) -> AttributeId {
    AttributeId::new(rand_category(rng), NAMES[rng.gen_range(0..NAMES.len())])
}

fn rand_value(rng: &mut StdRng) -> AttributeValue {
    match rng.gen_range(0..5) {
        0 => AttributeValue::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_string()),
        1 => AttributeValue::Int(rng.gen_range(-2..4)),
        2 => AttributeValue::Double(rng.gen_range(-1.0..3.0)),
        3 => AttributeValue::Double(0.0), // exercises the -0.0/0.0 key path
        _ => AttributeValue::Bool(rng.gen_bool(0.5)),
    }
}

fn rand_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.35) {
        return if rng.gen_bool(0.5) {
            Expr::Lit(rand_value(rng))
        } else {
            Expr::Attr(rand_attr_id(rng))
        };
    }
    let func = Func::ALL[rng.gen_range(0..Func::ALL.len())];
    let arity = match func {
        Func::Not | Func::Size => 1,
        Func::And | Func::Or => rng.gen_range(1..4),
        _ => 2,
    };
    // 10% wrong arity: arity errors must map to the same Indeterminate
    // flavours in both engines.
    let arity = if rng.gen_bool(0.1) { arity + 1 } else { arity };
    let args = (0..arity).map(|_| rand_expr(rng, depth - 1)).collect();
    Expr::Apply(func, args)
}

fn rand_target(rng: &mut StdRng) -> Target {
    if rng.gen_bool(0.25) {
        return Target::Any;
    }
    let clauses = (0..rng.gen_range(1..3))
        .map(|_| {
            (0..rng.gen_range(1..3))
                .map(|_| {
                    if rng.gen_bool(0.6) {
                        // the indexable shape: a single equal(attr, lit)
                        vec![Expr::equal(
                            Expr::Attr(rand_attr_id(rng)),
                            Expr::Lit(rand_value(rng)),
                        )]
                    } else {
                        (0..rng.gen_range(1..3))
                            .map(|_| rand_expr(rng, 2))
                            .collect()
                    }
                })
                .collect()
        })
        .collect();
    Target::Clauses(clauses)
}

fn rand_effect(rng: &mut StdRng) -> Effect {
    if rng.gen_bool(0.5) {
        Effect::Permit
    } else {
        Effect::Deny
    }
}

fn rand_obligations(rng: &mut StdRng, tag: &str) -> Vec<Obligation> {
    (0..rng.gen_range(0..3))
        .map(|i| Obligation::new(format!("{tag}-ob{i}"), rand_effect(rng)))
        .collect()
}

fn rand_alg(rng: &mut StdRng) -> CombiningAlg {
    CombiningAlg::ALL[rng.gen_range(0..CombiningAlg::ALL.len())]
}

fn rand_rule(rng: &mut StdRng, id: String) -> Rule {
    let mut builder = Rule::builder(id.clone(), rand_effect(rng)).target(rand_target(rng));
    if rng.gen_bool(0.5) {
        builder = builder.condition(rand_expr(rng, 2));
    }
    for o in rand_obligations(rng, &id) {
        builder = builder.obligation(o);
    }
    builder.build()
}

/// Child counts are bimodal: mostly narrow nodes (below the compiled
/// engine's MIN_INDEXED_CHILDREN threshold, evaluated without an index)
/// with a fat tail of wide nodes that activate the target index — both
/// paths must stay equivalent.
fn rand_child_count(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.3) {
        rng.gen_range(8..14)
    } else {
        rng.gen_range(0..5)
    }
}

fn rand_policy(rng: &mut StdRng, id: String) -> Policy {
    let mut builder = Policy::builder(id.clone(), rand_alg(rng)).target(rand_target(rng));
    for r in 0..rand_child_count(rng) {
        builder = builder.rule(rand_rule(rng, format!("{id}-r{r}")));
    }
    for o in rand_obligations(rng, &id) {
        builder = builder.obligation(o);
    }
    builder.build()
}

fn rand_set(rng: &mut StdRng, id: String, depth: u32) -> PolicySet {
    let mut builder = PolicySet::builder(id.clone(), rand_alg(rng)).target(rand_target(rng));
    for c in 0..rand_child_count(rng) {
        if depth > 0 && rng.gen_bool(0.25) {
            builder = builder.set(rand_set(rng, format!("{id}-s{c}"), depth - 1));
        } else {
            builder = builder.policy(rand_policy(rng, format!("{id}-p{c}")));
        }
    }
    for o in rand_obligations(rng, &id) {
        builder = builder.obligation(o);
    }
    builder.build()
}

fn rand_request(rng: &mut StdRng) -> Request {
    let mut request = Request::new();
    // 0..6 draws over a shared small vocabulary: repeats create
    // multi-valued bags, omissions create missing attributes.
    for _ in 0..rng.gen_range(0..6) {
        let id = rand_attr_id(rng);
        request.add(id.category, id.name, rand_value(rng));
    }
    request
}

fn assert_engines_agree(
    set: &PolicySet,
    prepared: &PreparedPolicySet,
    request: &Request,
) -> Result<(), TestCaseError> {
    let (d_ref, o_ref) = set.evaluate(request);
    let (d_compiled, o_compiled) = prepared.evaluate(request);
    prop_assert_eq!(
        d_ref,
        d_compiled,
        "decision diverged on {:?} for {:?}",
        request,
        set
    );
    prop_assert_eq!(
        o_ref,
        o_compiled,
        "obligations diverged on {:?} for {:?}",
        request,
        set
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The core equivalence property: over randomized policies (all six
    /// combining algorithms, nested sets, conditions, obligations) and
    /// randomized requests (missing attributes, multi-valued bags, mixed
    /// types), the compiled engine returns exactly the interpreter's
    /// extended decision and obligation list.
    #[test]
    fn compiled_engine_matches_interpreter(
        policy_seed in 0u64..1_000_000,
        request_seed in 0u64..1_000_000,
    ) {
        let mut prng = StdRng::seed_from_u64(policy_seed);
        let set = rand_set(&mut prng, "root".to_string(), 2);
        let prepared = PreparedPolicySet::compile(&set);
        let mut rrng = StdRng::seed_from_u64(request_seed);
        for _ in 0..4 {
            assert_engines_agree(&set, &prepared, &rand_request(&mut rrng))?;
        }
        // The empty request maximises missing-attribute Indeterminates.
        assert_engines_agree(&set, &prepared, &Request::new())?;
    }
}

// ---- targeted corner cases (named, deterministic) --------------------------

fn eq(cat: Category, name: &str, val: impl Into<AttributeValue>) -> Expr {
    Expr::equal(Expr::attr(AttributeId::new(cat, name)), Expr::lit(val))
}

fn check(set: &PolicySet, request: &Request) {
    let prepared = PreparedPolicySet::compile(set);
    assert_eq!(
        set.evaluate(request),
        prepared.evaluate(request),
        "engines diverged on {request:?}"
    );
}

#[test]
fn missing_attribute_indeterminate_flavours_agree() {
    // Rule targets reference an attribute the request lacks: the rule
    // must go Indeterminate{P}/Indeterminate{D} by its effect, and the
    // combining algorithms must propagate the flavour identically.
    for alg in CombiningAlg::ALL {
        for effect in [Effect::Permit, Effect::Deny] {
            let set = PolicySet::builder("root", alg)
                .policy(
                    Policy::builder("p", CombiningAlg::DenyOverrides)
                        .rule(
                            Rule::builder("r", effect)
                                .target(Target::expr(eq(Category::Resource, "ghost", "x")))
                                .build(),
                        )
                        .build(),
                )
                .build();
            let request = Request::builder().subject("role", "doctor").build();
            let (d, _) = set.evaluate(&request);
            if alg == CombiningAlg::DenyOverrides && effect == Effect::Deny {
                assert_eq!(
                    d,
                    ExtDecision::IndeterminateD,
                    "sanity: flavour reaches root"
                );
            }
            check(&set, &request);
        }
    }
}

#[test]
fn multi_valued_bag_type_mismatch_agrees() {
    // equal() over a two-valued bag fails singleton coercion — a
    // TypeMismatch, not a NoMatch. The index must keep the policy as a
    // candidate and both engines must go Indeterminate the same way.
    let set = PolicySet::builder("root", CombiningAlg::PermitOverrides)
        .policy(
            Policy::builder("p", CombiningAlg::PermitOverrides)
                .target(Target::expr(eq(Category::Resource, "type", "record")))
                .rule(Rule::always("r", Effect::Permit))
                .build(),
        )
        .build();
    let request = Request::builder()
        .resource("type", "record")
        .resource("type", "image")
        .build();
    let (d, _) = set.evaluate(&request);
    assert_eq!(d, ExtDecision::IndeterminateP, "sanity: bag>1 is an error");
    check(&set, &request);
}

#[test]
fn cross_type_comparison_errors_agree() {
    // less("abc", 3) is a TypeMismatch → condition error → rule
    // Indeterminate by effect.
    let set = PolicySet::builder("root", CombiningAlg::DenyOverrides)
        .policy(
            Policy::builder("p", CombiningAlg::PermitOverrides)
                .rule(
                    Rule::builder("r", Effect::Permit)
                        .condition(Expr::Apply(
                            Func::Less,
                            vec![
                                Expr::attr(AttributeId::new(Category::Subject, "role")),
                                Expr::lit(3i64),
                            ],
                        ))
                        .build(),
                )
                .build(),
        )
        .build();
    let request = Request::builder().subject("role", "doctor").build();
    let (d, _) = set.evaluate(&request);
    assert_eq!(
        d,
        ExtDecision::IndeterminateP,
        "sanity: type error surfaces"
    );
    check(&set, &request);
}

/// The compiled engine keeps one literal per distinct value, told apart
/// by variant and exact bits or bytes. `AttributeValue`'s `==` coerces:
/// `Int(1) == Double(1.0)` and `0.0 == -0.0`. Yet `Int(1)` and
/// `Double(1.0)` add differently (integer addition wraps), so a literal
/// table deduped through `==` would hand one policy the other's
/// literal. Ten policies clear the compiled engine's
/// `MIN_INDEXED_CHILDREN` (8), so the root carries a target index over
/// the equality guards. The mix covers `Less` and `Equal` with either
/// operand first, two type-mismatched comparisons, and the string
/// `"record"` in targets and conditions alike.
#[test]
fn literals_equal_under_coercion_stay_distinct() {
    let attr = |cat, name: &str| Expr::attr(AttributeId::new(cat, name));
    let hour = || attr(Category::Environment, "hour");
    let level = || attr(Category::Environment, "level");
    let less = |a: Expr, b: Expr| Expr::Apply(Func::Less, vec![a, b]);
    let wraps = |one: AttributeValue| {
        less(
            Expr::Apply(Func::Add, vec![hour(), Expr::Lit(one)]),
            Expr::lit(0i64),
        )
    };
    let record = || Target::expr(eq(Category::Resource, "type", "record"));
    let cases: Vec<(Target, Effect, Expr)> = vec![
        (record(), Effect::Permit, wraps(AttributeValue::Int(1))),
        (record(), Effect::Deny, wraps(AttributeValue::Double(1.0))),
        (
            Target::expr(eq(Category::Environment, "hour", 1i64)),
            Effect::Permit,
            less(hour(), Expr::lit(1.0)),
        ),
        (
            Target::expr(eq(Category::Environment, "hour", 1.0)),
            Effect::Deny,
            less(Expr::lit(1i64), hour()),
        ),
        (
            Target::expr(eq(Category::Environment, "level", 0.0)),
            Effect::Permit,
            less(Expr::lit(-0.0), level()),
        ),
        (
            Target::expr(eq(Category::Environment, "level", -0.0)),
            Effect::Deny,
            eq(Category::Environment, "level", 0.0),
        ),
        (
            Target::expr(eq(Category::Subject, "role", "record")),
            Effect::Permit,
            eq(Category::Resource, "type", "record"),
        ),
        (
            Target::expr(eq(Category::Resource, "type", "image")),
            Effect::Deny,
            less(attr(Category::Resource, "type"), Expr::lit(1i64)),
        ),
        (
            Target::Any,
            Effect::Permit,
            less(hour(), Expr::lit("record")),
        ),
        (
            record(),
            Effect::Deny,
            less(attr(Category::Subject, "role"), Expr::lit("record")),
        ),
    ];
    let set_under = |alg| {
        let mut root = PolicySet::builder("root", alg);
        for (i, (target, effect, condition)) in cases.iter().enumerate() {
            let rule = Rule::builder(format!("r{i}"), *effect)
                .condition(condition.clone())
                .obligation(Obligation::new(format!("ob{i}"), *effect))
                .build();
            let policy = Policy::builder(format!("p{i}"), CombiningAlg::PermitOverrides)
                .target(target.clone())
                .rule(rule);
            root = root.policy(policy.build());
        }
        root.build()
    };
    let hours = [
        AttributeValue::Int(i64::MAX),
        AttributeValue::Int(1),
        AttributeValue::Double(1.0),
        AttributeValue::Int(0),
        AttributeValue::Double(0.5),
    ];
    let levels = [
        Some(AttributeValue::Double(0.0)),
        Some(AttributeValue::Double(-0.0)),
        Some(AttributeValue::Int(0)),
        None,
    ];
    let mut requests = Vec::new();
    for hour in &hours {
        for level in &levels {
            for rtype in ["record", "image"] {
                for role in ["record", "doctor"] {
                    let mut request = Request::builder()
                        .environment("hour", hour.clone())
                        .resource("type", rtype)
                        .subject("role", role)
                        .build();
                    if let Some(level) = level {
                        request.add(Category::Environment, "level", level.clone());
                    }
                    requests.push(request);
                }
            }
        }
    }
    // Sanity: on the overflowing hour the two additions disagree — the
    // Int one wraps below 0, the Double one does not (with no level, no
    // other policy can return Deny).
    let overflow = Request::builder()
        .environment("hour", i64::MAX)
        .resource("type", "record")
        .subject("role", "record")
        .build();
    let (_, obligations) = set_under(CombiningAlg::PermitOverrides).evaluate(&overflow);
    assert!(ids(&obligations).contains(&"ob0"), "sanity: Int(1) wraps");
    let (d, _) = set_under(CombiningAlg::DenyOverrides).evaluate(&overflow);
    assert_ne!(d, ExtDecision::Deny, "sanity: Double(1.0) does not");
    for alg in CombiningAlg::ALL {
        let set = set_under(alg);
        let prepared = PreparedPolicySet::compile(&set);
        for request in &requests {
            assert_eq!(
                set.evaluate(request),
                prepared.evaluate(request),
                "engines diverged under {alg:?} on {request:?}"
            );
        }
    }
}

#[test]
fn first_applicable_order_is_preserved_across_index_skips() {
    // Three policies guarded on resource.type plus an unguarded one in
    // the middle: first-applicable must see survivors in document order,
    // not index order.
    let mut root = PolicySet::builder("root", CombiningAlg::FirstApplicable);
    root = root.policy(
        Policy::builder("p0", CombiningAlg::PermitOverrides)
            .target(Target::expr(eq(Category::Resource, "type", "image")))
            .rule(Rule::always("r0", Effect::Permit))
            .build(),
    );
    root = root.policy(
        Policy::builder("p1-unguarded", CombiningAlg::PermitOverrides)
            .target(Target::expr(Expr::Apply(
                Func::Greater,
                vec![
                    Expr::attr(AttributeId::new(Category::Environment, "hour")),
                    Expr::lit(20i64),
                ],
            )))
            .rule(Rule::always("r1", Effect::Deny))
            .build(),
    );
    root = root.policy(
        Policy::builder("p2", CombiningAlg::PermitOverrides)
            .target(Target::expr(eq(Category::Resource, "type", "record")))
            .rule(Rule::always("r2", Effect::Permit))
            .build(),
    );
    // Pad with guarded non-matching policies so the node clears the
    // index threshold and the skips actually happen.
    for i in 3..10 {
        root = root.policy(
            Policy::builder(format!("pad{i}"), CombiningAlg::PermitOverrides)
                .target(Target::expr(eq(Category::Resource, "type", "image")))
                .rule(Rule::always(format!("rp{i}"), Effect::Permit))
                .build(),
        );
    }
    let set = root.build();
    // hour=21 makes the unguarded middle policy fire first even though
    // the guarded p2 also matches.
    let request = Request::builder()
        .resource("type", "record")
        .environment("hour", 21i64)
        .build();
    let (d, _) = set.evaluate(&request);
    assert_eq!(d, ExtDecision::Deny, "sanity: document order decides");
    check(&set, &request);
    // hour=8: middle policy NoMatch, p2 decides.
    let request = Request::builder()
        .resource("type", "record")
        .environment("hour", 8i64)
        .build();
    assert_eq!(set.evaluate(&request).0, ExtDecision::Permit);
    check(&set, &request);
}

#[test]
fn only_one_applicable_counts_skipped_children_correctly() {
    // only-one-applicable: two guarded policies share a resource type →
    // IndeterminateDP; distinct types → the single applicable decides.
    let set = PolicySet::builder("root", CombiningAlg::OnlyOneApplicable)
        .policy(
            Policy::builder("a", CombiningAlg::PermitOverrides)
                .target(Target::expr(eq(Category::Resource, "type", "record")))
                .rule(Rule::always("ra", Effect::Permit))
                .build(),
        )
        .policy(
            Policy::builder("b", CombiningAlg::PermitOverrides)
                .target(Target::expr(eq(Category::Resource, "type", "record")))
                .rule(Rule::always("rb", Effect::Deny))
                .build(),
        )
        .policy(
            Policy::builder("c", CombiningAlg::PermitOverrides)
                .target(Target::expr(eq(Category::Resource, "type", "image")))
                .rule(Rule::always("rc", Effect::Deny))
                .build(),
        );
    // Pad past the index threshold with never-matching guarded policies.
    let set = (3..10)
        .fold(set, |b, i| {
            b.policy(
                Policy::builder(format!("pad{i}"), CombiningAlg::PermitOverrides)
                    .target(Target::expr(eq(Category::Resource, "type", "report")))
                    .rule(Rule::always(format!("rp{i}"), Effect::Permit))
                    .build(),
            )
        })
        .build();
    let record = Request::builder().resource("type", "record").build();
    assert_eq!(set.evaluate(&record).0, ExtDecision::IndeterminateDP);
    check(&set, &record);
    let image = Request::builder().resource("type", "image").build();
    assert_eq!(set.evaluate(&image).0, ExtDecision::Deny);
    check(&set, &image);
    // Missing resource.type: guarded targets are Indeterminate → IndDP.
    let empty = Request::new();
    assert_eq!(set.evaluate(&empty).0, ExtDecision::IndeterminateDP);
    check(&set, &empty);
}

// ---- the overrides early exit (named, deterministic) ------------------------
//
// Once a deny-/permit-overrides node has seen its overriding decision the
// compiled engine evaluates only the later children that can still add
// obligations for that decision. These cases pin what that must not
// change; how many children it visits is pinned inside the crate
// (`compiled::tests`), where the counter lives.

fn decision_of(effect: Effect) -> ExtDecision {
    match effect {
        Effect::Permit => ExtDecision::Permit,
        Effect::Deny => ExtDecision::Deny,
    }
}

fn overrides_with(winner: Effect) -> CombiningAlg {
    match winner {
        Effect::Permit => CombiningAlg::PermitOverrides,
        Effect::Deny => CombiningAlg::DenyOverrides,
    }
}

/// A policy whose single unconditional rule returns `effect`.
fn always(id: &str, effect: Effect) -> drams_policy::policy::PolicyBuilder {
    Policy::builder(id, CombiningAlg::FirstApplicable).rule(Rule::always(format!("{id}-r"), effect))
}

fn ids(obligations: &[Obligation]) -> Vec<&str> {
    obligations.iter().map(|o| o.id.as_str()).collect()
}

#[test]
fn late_obligations_are_collected_in_document_order_after_an_early_winner() {
    for winner in [Effect::Permit, Effect::Deny] {
        let loser = winner.opposite();
        let set = PolicySet::builder("root", overrides_with(winner))
            .policy(always("early-winner", winner).build())
            .policy(always("loser-between", loser).build())
            // ...an obligation on a late *rule*,
            .policy(
                Policy::builder("late-rule", CombiningAlg::FirstApplicable)
                    .rule(
                        Rule::builder("late-rule-r", winner)
                            .obligation(Obligation::new("on-rule", winner))
                            .build(),
                    )
                    .build(),
            )
            .policy(always("winner-with-nothing-to-add", winner).build())
            // ...on a late *policy*,
            .policy(
                always("late-policy", winner)
                    .obligation(Obligation::new("on-policy", winner))
                    .build(),
            )
            // ...and on a late *nested set*, two levels down and on the set.
            .set(
                PolicySet::builder("late-set", overrides_with(winner))
                    .policy(always("inner-early", winner).build())
                    .policy(
                        always("inner-late", winner)
                            .obligation(Obligation::new("on-inner-policy", winner))
                            .build(),
                    )
                    .obligation(Obligation::new("on-set", winner))
                    .build(),
            )
            .obligation(Obligation::new("on-root", winner))
            .build();
        let request = Request::new();
        let (d, obligations) = PreparedPolicySet::compile(&set).evaluate(&request);
        assert_eq!(d, decision_of(winner), "{winner}");
        assert_eq!(
            ids(&obligations),
            [
                "on-rule",
                "on-policy",
                "on-inner-policy",
                "on-set",
                "on-root"
            ],
            "{winner}"
        );
        check(&set, &request);
    }
}

#[test]
fn an_obligation_for_the_losing_effect_does_not_keep_a_child_alive() {
    for winner in [Effect::Permit, Effect::Deny] {
        let loser = winner.opposite();
        let set = PolicySet::builder("root", overrides_with(winner))
            .policy(always("early-winner", winner).build())
            // A losing child whose obligation fires on its own (losing)
            // decision, and a winning child carrying one that fires only
            // on the losing decision: neither can reach the result.
            .policy(
                always("late-loser", loser)
                    .obligation(Obligation::new("for-the-loser", loser))
                    .build(),
            )
            .policy(
                always("late-winner", winner)
                    .obligation(Obligation::new("fires-on-the-other-effect", loser))
                    .build(),
            )
            .build();
        let request = Request::new();
        let (d, obligations) = PreparedPolicySet::compile(&set).evaluate(&request);
        assert_eq!(d, decision_of(winner));
        assert!(obligations.is_empty(), "{obligations:?}");
        check(&set, &request);
    }
}

#[test]
fn indeterminate_target_parent_reports_the_right_flavour_after_an_early_winner() {
    // The set's target names an attribute the request lacks, so its
    // children only decide the flavour: an early winner fixes it, and
    // the later children — a loser, an error, an obligation-bearing
    // winner — must not move it.
    for winner in [Effect::Permit, Effect::Deny] {
        let inner = PolicySet::builder("guarded", overrides_with(winner))
            .target(Target::expr(eq(Category::Resource, "ghost", "x")))
            .policy(always("early-winner", winner).build())
            .policy(always("late-loser", winner.opposite()).build())
            .policy(
                Policy::builder("late-error", CombiningAlg::DenyOverrides)
                    .rule(
                        Rule::builder("late-error-r", winner.opposite())
                            .target(Target::expr(eq(Category::Subject, "ghost", "y")))
                            .build(),
                    )
                    .build(),
            )
            .policy(
                always("late-winner", winner)
                    .obligation(Obligation::new("dropped-with-the-flavour", winner))
                    .build(),
            )
            .build();
        let set = PolicySet::builder("root", CombiningAlg::DenyOverrides)
            .set(inner)
            .build();
        let request = Request::builder().subject("role", "doctor").build();
        let (d, obligations) = PreparedPolicySet::compile(&set).evaluate(&request);
        assert_eq!(d, ExtDecision::indeterminate_for(winner));
        assert!(obligations.is_empty());
        check(&set, &request);
    }
}
