//! Workload and policy generators for the experiments.
//!
//! * [`PoissonArrivals`] — exponential inter-arrival times for request
//!   load generation.
//! * [`Zipf`] — skewed popularity over services/subjects (real access
//!   workloads are never uniform).
//! * [`RequestGenerator`] — draws realistic access requests over a fixed
//!   attribute vocabulary.
//! * [`PolicyGenerator`] — draws random policies *within the analysable
//!   fragment*, parameterised by policy count and rules per policy, used
//!   by the PDP-scaling experiment (E5) and by property-based tests that
//!   cross-validate the symbolic analyser against the concrete engine.

use crate::des::SimTime;
use drams_policy::attr::{AttributeId, Category, Request};
use drams_policy::combining::CombiningAlg;
use drams_policy::decision::Effect;
use drams_policy::expr::{Expr, Func};
use drams_policy::policy::{Policy, PolicySet};
use drams_policy::rule::Rule;
use drams_policy::target::Target;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exponential inter-arrival sampler (a Poisson arrival process).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    mean_interarrival: f64,
}

impl PoissonArrivals {
    /// Creates a process with `rate_per_sec` arrivals per virtual second.
    ///
    /// # Panics
    ///
    /// Panics when the rate is not strictly positive.
    #[must_use]
    pub fn with_rate_per_sec(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        PoissonArrivals {
            mean_interarrival: 1_000_000.0 / rate_per_sec,
        }
    }

    /// Samples the next inter-arrival gap.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let u: f64 = rng.gen_range(1e-12..1.0);
        (-u.ln() * self.mean_interarrival).ceil() as SimTime
    }
}

/// Zipf-distributed index sampler over `n` items with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with skew `s` (s = 0 is uniform).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `s < 0`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Samples a 0-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The attribute vocabulary the generators draw from. Requests and
/// policies share it, so generated requests actually exercise generated
/// policies.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// Subject roles.
    pub roles: Vec<String>,
    /// Action identifiers.
    pub actions: Vec<String>,
    /// Resource types.
    pub resource_types: Vec<String>,
    /// Environment hour range (0..24 by default).
    pub hours: std::ops::Range<i64>,
}

impl Default for Vocabulary {
    fn default() -> Self {
        Vocabulary {
            roles: ["doctor", "nurse", "researcher", "admin", "auditor"]
                .map(String::from)
                .to_vec(),
            actions: ["read", "write", "delete", "share"]
                .map(String::from)
                .to_vec(),
            resource_types: ["record", "image", "prescription", "report"]
                .map(String::from)
                .to_vec(),
            hours: 0..24,
        }
    }
}

/// Draws access requests over a [`Vocabulary`] with Zipf-skewed role and
/// resource popularity.
#[derive(Debug)]
pub struct RequestGenerator {
    vocab: Vocabulary,
    role_dist: Zipf,
    type_dist: Zipf,
    rng: StdRng,
}

impl RequestGenerator {
    /// Creates a generator with skew `s` and a deterministic seed.
    #[must_use]
    pub fn new(vocab: Vocabulary, skew: f64, seed: u64) -> Self {
        let role_dist = Zipf::new(vocab.roles.len(), skew);
        let type_dist = Zipf::new(vocab.resource_types.len(), skew);
        RequestGenerator {
            vocab,
            role_dist,
            type_dist,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one complete request (every vocabulary attribute present —
    /// the shape the analyser's complete-request assumption describes).
    pub fn next_request(&mut self) -> Request {
        let role = &self.vocab.roles[self.role_dist.sample(&mut self.rng)];
        let action_idx = self.rng.gen_range(0..self.vocab.actions.len());
        let action = &self.vocab.actions[action_idx];
        let rtype = &self.vocab.resource_types[self.type_dist.sample(&mut self.rng)];
        let hour = self.rng.gen_range(self.vocab.hours.clone());
        Request::builder()
            .subject("role", role.as_str())
            .action("id", action.as_str())
            .resource("type", rtype.as_str())
            .environment("hour", hour)
            .build()
    }
}

/// Parameters for [`PolicyGenerator`].
#[derive(Debug, Clone)]
pub struct PolicyShape {
    /// Number of leaf policies under the root.
    pub policies: usize,
    /// Rules per policy.
    pub rules_per_policy: usize,
    /// Root combining algorithm.
    pub root_algorithm: CombiningAlg,
    /// Per-policy combining algorithm.
    pub policy_algorithm: CombiningAlg,
}

impl Default for PolicyShape {
    fn default() -> Self {
        PolicyShape {
            policies: 10,
            rules_per_policy: 5,
            root_algorithm: CombiningAlg::DenyOverrides,
            policy_algorithm: CombiningAlg::PermitOverrides,
        }
    }
}

/// Draws random policies in the analysable fragment over a
/// [`Vocabulary`].
#[derive(Debug)]
pub struct PolicyGenerator {
    vocab: Vocabulary,
    rng: StdRng,
}

impl PolicyGenerator {
    /// Creates a generator with a deterministic seed.
    #[must_use]
    pub fn new(vocab: Vocabulary, seed: u64) -> Self {
        PolicyGenerator {
            vocab,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn attr(category: Category, name: &str) -> Expr {
        Expr::attr(AttributeId::new(category, name))
    }

    fn random_match(&mut self) -> Expr {
        match self.rng.gen_range(0..4) {
            0 => {
                let role = self.vocab.roles[self.rng.gen_range(0..self.vocab.roles.len())].clone();
                Expr::equal(Self::attr(Category::Subject, "role"), Expr::lit(role))
            }
            1 => {
                let action =
                    self.vocab.actions[self.rng.gen_range(0..self.vocab.actions.len())].clone();
                Expr::equal(Self::attr(Category::Action, "id"), Expr::lit(action))
            }
            2 => {
                let rtype = self.vocab.resource_types
                    [self.rng.gen_range(0..self.vocab.resource_types.len())]
                .clone();
                Expr::equal(Self::attr(Category::Resource, "type"), Expr::lit(rtype))
            }
            _ => {
                let bound = self
                    .rng
                    .gen_range(self.vocab.hours.start + 1..self.vocab.hours.end);
                let op = if self.rng.gen_bool(0.5) {
                    Func::Less
                } else {
                    Func::GreaterEq
                };
                Expr::Apply(
                    op,
                    vec![Self::attr(Category::Environment, "hour"), Expr::lit(bound)],
                )
            }
        }
    }

    fn random_rule(&mut self, id: String) -> Rule {
        let effect = if self.rng.gen_bool(0.7) {
            Effect::Permit
        } else {
            Effect::Deny
        };
        let mut builder = Rule::builder(id, effect).target(Target::expr(self.random_match()));
        if self.rng.gen_bool(0.5) {
            let condition = if self.rng.gen_bool(0.5) {
                self.random_match()
            } else {
                Expr::and(vec![self.random_match(), self.random_match()])
            };
            builder = builder.condition(condition);
        }
        builder.build()
    }

    /// Draws one policy set of the requested shape. A final catch-all deny
    /// rule is appended to the last policy so generated policies are
    /// complete under the root algorithm.
    pub fn next_policy_set(&mut self, shape: &PolicyShape) -> PolicySet {
        let mut root = PolicySet::builder("generated-root", shape.root_algorithm);
        for p in 0..shape.policies {
            let mut policy = Policy::builder(format!("policy-{p}"), shape.policy_algorithm);
            // Target the policy at one resource type, so policies partition
            // the space roughly like real federations do.
            let rtype = self.vocab.resource_types[p % self.vocab.resource_types.len()].clone();
            policy = policy.target(Target::expr(Expr::equal(
                Self::attr(Category::Resource, "type"),
                Expr::lit(rtype),
            )));
            for r in 0..shape.rules_per_policy {
                policy = policy.rule(self.random_rule(format!("rule-{p}-{r}")));
            }
            if p == shape.policies - 1 {
                policy = policy.rule(Rule::always("catch-all-deny", Effect::Deny));
            }
            root = root.policy(policy.build());
        }
        root.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_matches_rate() {
        let arrivals = PoissonArrivals::with_rate_per_sec(100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| arrivals.next_gap(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        // expected 10_000 µs; allow 3% tolerance
        assert!((mean - 10_000.0).abs() < 300.0, "mean {mean}");
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[4], "counts {counts:?}");
        assert!(counts[0] > counts[9] * 3, "counts {counts:?}");
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((4_000..6_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn requests_cover_vocabulary() {
        let mut gen = RequestGenerator::new(Vocabulary::default(), 1.0, 4);
        for _ in 0..50 {
            let req = gen.next_request();
            assert_eq!(req.bag(Category::Subject, "role").len(), 1);
            assert_eq!(req.bag(Category::Action, "id").len(), 1);
            assert_eq!(req.bag(Category::Resource, "type").len(), 1);
            assert_eq!(req.bag(Category::Environment, "hour").len(), 1);
        }
    }

    #[test]
    fn generated_policies_have_requested_shape() {
        let mut gen = PolicyGenerator::new(Vocabulary::default(), 5);
        let shape = PolicyShape {
            policies: 7,
            rules_per_policy: 3,
            ..PolicyShape::default()
        };
        let set = gen.next_policy_set(&shape);
        assert_eq!(set.children.len(), 7);
        // last policy has the extra catch-all rule
        assert_eq!(set.rule_count(), 7 * 3 + 1);
    }

    #[test]
    fn generated_policies_are_analysable() {
        let mut gen = PolicyGenerator::new(Vocabulary::default(), 6);
        let set = gen.next_policy_set(&PolicyShape::default());
        // The whole point of the generator: its output stays inside the
        // analysable fragment.
        drams_analysis::constraint::compile_policy_set(&set).expect("analysable");
    }

    #[test]
    fn symbolic_witnesses_replay_concretely() {
        // The cross-validation loop: a permit witness found by the solver
        // must evaluate to Permit in the concrete engine, across seeds.
        use drams_policy::decision::Decision;
        for seed in 0..8 {
            let mut gen = PolicyGenerator::new(Vocabulary::default(), seed);
            let set = gen.next_policy_set(&PolicyShape {
                policies: 3,
                rules_per_policy: 3,
                ..PolicyShape::default()
            });
            if let Some(witness) = drams_analysis::can_permit(&set).expect("analysable") {
                let (d, _) = set.evaluate(&witness);
                assert_eq!(
                    d.to_decision(),
                    Decision::Permit,
                    "seed {seed}: witness {witness:?} policy {set:?}"
                );
            }
            if let Some(witness) = drams_analysis::can_deny(&set).expect("analysable") {
                let (d, _) = set.evaluate(&witness);
                assert_eq!(d.to_decision(), Decision::Deny, "seed {seed}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = RequestGenerator::new(Vocabulary::default(), 1.0, 9);
        let mut b = RequestGenerator::new(Vocabulary::default(), 1.0, 9);
        for _ in 0..10 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::with_rate_per_sec(0.0);
    }
}
