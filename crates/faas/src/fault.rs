//! Deterministic per-link network fault plane.
//!
//! The DES delivers every message perfectly and instantly-in-order; this
//! module makes the network lossy *on purpose* while keeping runs
//! byte-replayable. A [`FaultPlane`] sits between what a service emits
//! and the [`EventQueue`](crate::des::EventQueue) (the scenario loop's
//! net shim calls it): for every message on a configured link it decides
//! a fate — drop, duplicate, reorder (a bounded extra delay), or a fixed
//! plus jittered delay — and timed [`PartitionWindow`]s cut a pair of
//! sites off from each other entirely.
//!
//! Determinism contract: the plane draws from its own RNG **only** for
//! messages that match an active [`LinkFault`], and always in the same
//! order (drop, duplicate, reorder, then per-copy jitter). Messages on
//! unconfigured or inactive links consume zero randomness, so adding a
//! fault window to one link never perturbs traffic on another, and two
//! runs with the same seed and the same [`FaultPlan`] see byte-identical
//! fault sequences.

use crate::des::SimTime;
use crate::model::CloudId;
use rand::rngs::StdRng;
use rand::Rng;

/// Logical endpoint of a federation link: a member cloud or the jointly
/// owned infrastructure tenant (home of the central PDP, the PRP, the
/// infrastructure Logging Interface, the chain and the Analyser).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// A member cloud.
    Cloud(CloudId),
    /// The infrastructure tenant.
    Infra,
}

/// Fault specification for one (directed) link, active inside a time
/// window. `None` endpoints are wildcards. Probabilities are in permille
/// so specs stay integer-only and canonically comparable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFault {
    /// Sending site (`None` matches any sender).
    pub from: Option<Site>,
    /// Receiving site (`None` matches any receiver).
    pub to: Option<Site>,
    /// Probability (‰) that a message is dropped outright.
    pub drop_permille: u32,
    /// Probability (‰) that a message is delivered twice.
    pub duplicate_permille: u32,
    /// Probability (‰) that a message is reordered: it picks up an extra
    /// uniform delay in `0..=reorder_spread`, letting later sends overtake.
    pub reorder_permille: u32,
    /// Maximum extra delay a reordered message picks up.
    pub reorder_spread: SimTime,
    /// Fixed extra delay added to every matched message.
    pub delay: SimTime,
    /// Uniform jitter in `0..=jitter` added on top of `delay`, drawn
    /// independently per delivered copy.
    pub jitter: SimTime,
    /// Window start (inclusive).
    pub active_from: SimTime,
    /// Window end (exclusive).
    pub active_until: SimTime,
}

impl LinkFault {
    fn matches(&self, now: SimTime, from: Site, to: Site) -> bool {
        now >= self.active_from
            && now < self.active_until
            && self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
    }

    /// Whether this spec can make messages vanish (drives degraded-mode
    /// timeout widening: only message loss threatens epoch deadlines).
    #[must_use]
    fn is_lossy(&self) -> bool {
        self.drop_permille > 0
    }
}

/// A timed partition between two sites: while active, **no** message
/// crosses the pair in either direction (matching is unordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One side of the cut.
    pub a: Site,
    /// The other side.
    pub b: Site,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive) — the heal time.
    pub until: SimTime,
}

impl PartitionWindow {
    fn cuts(&self, now: SimTime, x: Site, y: Site) -> bool {
        now >= self.from
            && now < self.until
            && ((self.a == x && self.b == y) || (self.a == y && self.b == x))
    }
}

/// Declarative fault schedule for one scenario run: link faults plus
/// partitions. An empty plan (the default) is a perfect network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Per-link fault specs; the **first** matching active spec applies.
    pub links: Vec<LinkFault>,
    /// Timed partitions.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.partitions.is_empty()
    }

    /// Merged *disruption* windows: the time ranges during which messages
    /// can be lost (lossy links or partitions). Windows overlapping or
    /// within `settle` of each other merge, so a consumer scheduling a
    /// degraded mode per window never restores inside a follow-on window.
    /// Returned sorted and disjoint.
    #[must_use]
    pub fn disruption_windows(&self, settle: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut raw: Vec<(SimTime, SimTime)> = self
            .links
            .iter()
            .filter(|l| l.is_lossy() && l.active_until > l.active_from)
            .map(|l| (l.active_from, l.active_until))
            .chain(
                self.partitions
                    .iter()
                    .filter(|p| p.until > p.from)
                    .map(|p| (p.from, p.until)),
            )
            .collect();
        raw.sort_unstable();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        for (f, u) in raw {
            match merged.last_mut() {
                Some((_, end)) if f <= end.saturating_add(settle) => *end = (*end).max(u),
                _ => merged.push((f, u)),
            }
        }
        merged
    }
}

/// Counters of what the plane actually did to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Messages dropped by a lossy link.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages given a reordering delay.
    pub reordered: u64,
    /// Messages given a fixed/jittered delay (> 0).
    pub delayed: u64,
    /// Messages swallowed by an active partition.
    pub partition_blocked: u64,
}

/// The runtime half: a [`FaultPlan`] plus its dedicated RNG stream and
/// counters. One instance serves a whole scenario run.
#[derive(Debug)]
pub struct FaultPlane {
    plan: FaultPlan,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultPlane {
    /// Builds a plane over `plan`, drawing from `rng` (callers pass a
    /// dedicated named stream so fault draws never perturb other streams).
    #[must_use]
    pub fn new(plan: FaultPlan, rng: StdRng) -> Self {
        FaultPlane {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The plan this plane executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the plane has done so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `a` and `b` are cut off from each other at `now`. Draws no
    /// randomness.
    #[must_use]
    pub fn partitioned(&self, now: SimTime, a: Site, b: Site) -> bool {
        a != b && self.plan.partitions.iter().any(|p| p.cuts(now, a, b))
    }

    /// Decides the fate of one message sent from `from` to `to` at `now`:
    /// returns the extra delays of every delivered copy (empty = the
    /// message is lost). `allow_drop = false` is for links whose protocol
    /// has no retransmission (e.g. probe→LI evidence delivery): drop and
    /// partition verdicts degrade to plain delivery so evidence is never
    /// silently destroyed by the *fault* plane (adversaries destroying
    /// evidence is the attack layer's job, and must stay detectable).
    ///
    /// RNG discipline: messages on unmatched/inactive links draw nothing;
    /// matched messages draw in a fixed order (drop, duplicate, reorder,
    /// per-copy jitter).
    pub fn deliveries(
        &mut self,
        now: SimTime,
        from: Site,
        to: Site,
        allow_drop: bool,
    ) -> Vec<SimTime> {
        if self.partitioned(now, from, to) {
            if allow_drop {
                self.stats.partition_blocked += 1;
                return Vec::new();
            }
            // No-retransmit link inside a partition: deliver unharmed.
            return vec![0];
        }
        let Some(link) = self
            .plan
            .links
            .iter()
            .find(|l| l.matches(now, from, to))
            .cloned()
        else {
            return vec![0];
        };
        // Drawn for determinism even when the link may not lose this
        // message, which then falls through to plain (possibly delayed)
        // delivery.
        if link.drop_permille > 0
            && self.rng.gen_range(0u32..1000) < link.drop_permille
            && allow_drop
        {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let copies = if link.duplicate_permille > 0
            && self.rng.gen_range(0u32..1000) < link.duplicate_permille
        {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let reorder_extra = if link.reorder_permille > 0
            && self.rng.gen_range(0u32..1000) < link.reorder_permille
        {
            self.stats.reordered += 1;
            if link.reorder_spread > 0 {
                self.rng.gen_range(0..=link.reorder_spread)
            } else {
                0
            }
        } else {
            0
        };
        let mut delays = Vec::with_capacity(copies);
        for _ in 0..copies {
            let jitter = if link.jitter > 0 {
                self.rng.gen_range(0..=link.jitter)
            } else {
                0
            };
            let extra = link.delay + jitter + reorder_extra;
            if extra > 0 {
                self.stats.delayed += 1;
            }
            delays.push(extra);
        }
        delays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{MILLIS, SECONDS};
    use rand::SeedableRng;

    const A: Site = Site::Cloud(CloudId(1));
    const B: Site = Site::Cloud(CloudId(2));

    fn plane(plan: FaultPlan) -> FaultPlane {
        FaultPlane::new(plan, StdRng::seed_from_u64(42))
    }

    #[test]
    fn empty_plan_is_a_perfect_network() {
        let mut p = plane(FaultPlan::default());
        for t in [0, MILLIS, SECONDS] {
            assert_eq!(p.deliveries(t, A, Site::Infra, true), vec![0]);
        }
        assert!(!p.partitioned(0, A, Site::Infra));
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn unmatched_links_draw_no_randomness() {
        // Two planes with the same seed: one sees only unmatched traffic
        // first, the other goes straight to the matched link. The fates
        // on the matched link must be identical — proof the unmatched
        // messages consumed zero randomness.
        let plan = FaultPlan {
            links: vec![LinkFault {
                from: Some(A),
                to: Some(Site::Infra),
                drop_permille: 500,
                jitter: 2 * MILLIS,
                active_from: 0,
                active_until: SECONDS,
                ..LinkFault::default()
            }],
            partitions: vec![],
        };
        let mut quiet = plane(plan.clone());
        let mut noisy = plane(plan);
        for _ in 0..100 {
            assert_eq!(noisy.deliveries(10, B, A, true), vec![0]); // unmatched
        }
        let a: Vec<_> = (0..50)
            .map(|_| quiet.deliveries(10, A, Site::Infra, true))
            .collect();
        let b: Vec<_> = (0..50)
            .map(|_| noisy.deliveries(10, A, Site::Infra, true))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn drop_and_duplicate_fates_occur_and_are_deterministic() {
        let plan = FaultPlan {
            links: vec![LinkFault {
                drop_permille: 300,
                duplicate_permille: 300,
                active_from: 0,
                active_until: SECONDS,
                ..LinkFault::default()
            }],
            partitions: vec![],
        };
        let run = |seed: u64| -> Vec<Vec<SimTime>> {
            let mut p = FaultPlane::new(FaultPlan { ..plan.clone() }, StdRng::seed_from_u64(seed));
            (0..200).map(|_| p.deliveries(5, A, B, true)).collect()
        };
        let first = run(7);
        assert_eq!(first, run(7), "same seed, same fates");
        let dropped = first.iter().filter(|d| d.is_empty()).count();
        let duplicated = first.iter().filter(|d| d.len() == 2).count();
        assert!(dropped > 20, "expected drops, got {dropped}");
        assert!(duplicated > 20, "expected duplicates, got {duplicated}");
    }

    #[test]
    fn window_bounds_are_inclusive_exclusive() {
        let plan = FaultPlan {
            links: vec![LinkFault {
                drop_permille: 1000,
                active_from: 100,
                active_until: 200,
                ..LinkFault::default()
            }],
            partitions: vec![],
        };
        let mut p = plane(plan);
        assert_eq!(p.deliveries(99, A, B, true), vec![0]);
        assert!(p.deliveries(100, A, B, true).is_empty());
        assert!(p.deliveries(199, A, B, true).is_empty());
        assert_eq!(p.deliveries(200, A, B, true), vec![0]);
        assert_eq!(p.stats().dropped, 2);
    }

    #[test]
    fn delay_and_jitter_are_bounded() {
        let plan = FaultPlan {
            links: vec![LinkFault {
                delay: 3 * MILLIS,
                jitter: MILLIS,
                active_from: 0,
                active_until: SECONDS,
                ..LinkFault::default()
            }],
            partitions: vec![],
        };
        let mut p = plane(plan);
        for _ in 0..100 {
            let d = p.deliveries(0, A, B, true);
            assert_eq!(d.len(), 1);
            assert!((3 * MILLIS..=4 * MILLIS).contains(&d[0]), "delay {}", d[0]);
        }
        assert_eq!(p.stats().delayed, 100);
    }

    #[test]
    fn partitions_match_unordered_and_heal() {
        let plan = FaultPlan {
            links: vec![],
            partitions: vec![PartitionWindow {
                a: A,
                b: Site::Infra,
                from: 10,
                until: 50,
            }],
        };
        let mut p = plane(plan);
        assert!(p.partitioned(10, A, Site::Infra));
        assert!(p.partitioned(49, Site::Infra, A), "unordered match");
        assert!(!p.partitioned(50, A, Site::Infra), "healed");
        assert!(!p.partitioned(20, B, Site::Infra), "other pair unaffected");
        assert!(p.deliveries(20, A, Site::Infra, true).is_empty());
        assert_eq!(p.stats().partition_blocked, 1);
    }

    #[test]
    fn no_retransmit_links_are_never_starved() {
        // allow_drop = false: drops and partitions degrade to delivery.
        let plan = FaultPlan {
            links: vec![LinkFault {
                drop_permille: 1000,
                active_from: 0,
                active_until: SECONDS,
                ..LinkFault::default()
            }],
            partitions: vec![PartitionWindow {
                a: A,
                b: Site::Infra,
                from: 0,
                until: SECONDS,
            }],
        };
        let mut p = plane(plan);
        for _ in 0..50 {
            assert!(!p.deliveries(5, A, B, false).is_empty());
            assert!(!p.deliveries(5, A, Site::Infra, false).is_empty());
        }
        assert_eq!(p.stats().dropped, 0);
        assert_eq!(p.stats().partition_blocked, 0);
    }

    #[test]
    fn first_matching_link_wins() {
        let plan = FaultPlan {
            links: vec![
                LinkFault {
                    from: Some(A),
                    drop_permille: 1000,
                    active_from: 0,
                    active_until: SECONDS,
                    ..LinkFault::default()
                },
                LinkFault {
                    delay: 9 * MILLIS,
                    active_from: 0,
                    active_until: SECONDS,
                    ..LinkFault::default()
                },
            ],
            partitions: vec![],
        };
        let mut p = plane(plan);
        assert!(p.deliveries(1, A, B, true).is_empty(), "first spec: drop");
        assert_eq!(
            p.deliveries(1, B, A, true),
            vec![9 * MILLIS],
            "fallback spec"
        );
    }

    #[test]
    fn disruption_windows_merge_lossy_links_and_partitions() {
        let plan = FaultPlan {
            links: vec![
                // Lossy: contributes a window.
                LinkFault {
                    drop_permille: 100,
                    active_from: 100,
                    active_until: 200,
                    ..LinkFault::default()
                },
                // Delay-only: no loss, no disruption window.
                LinkFault {
                    delay: MILLIS,
                    active_from: 5_000,
                    active_until: 9_000,
                    ..LinkFault::default()
                },
            ],
            partitions: vec![
                PartitionWindow {
                    a: A,
                    b: B,
                    from: 180,
                    until: 400,
                },
                PartitionWindow {
                    a: A,
                    b: Site::Infra,
                    from: 1_000,
                    until: 1_100,
                },
            ],
        };
        // settle 50: [100,200] and [180,400] overlap → merge; [1000,1100]
        // stays separate (gap 600 > 50); the delay-only link is ignored.
        assert_eq!(
            plan.disruption_windows(50),
            vec![(100, 400), (1_000, 1_100)]
        );
        // settle large enough to bridge the gap → one window.
        assert_eq!(plan.disruption_windows(700), vec![(100, 1_100)]);
        assert!(!plan.is_empty());
        assert!(FaultPlan::default().is_empty());
    }
}
