//! Attacker fork analysis: the integrity guarantee of tunable PoW.
//!
//! Paper §III: a private chain with lightweight PoW keeps storage latency
//! low, "however, due to the limited size of the network and a possibly
//! lightweight PoW, this solution does not ensure strong integrity
//! guarantees." This module quantifies that trade-off: the probability
//! that an attacker controlling a fraction `q` of the hashrate rewrites a
//! log entry buried under `z` confirmations — computed with Nakamoto's
//! analytic formula, and with a Monte Carlo random walk that estimates
//! the gambler's-ruin catch-up race from `z + 1` blocks behind. The race
//! ignores the blocks the attacker mines while the entry gathers its `z`
//! confirmations, so it is a lower bound on Nakamoto's value, and it is
//! checked against its own closed form ([`catch_up_probability`]), not
//! against Nakamoto's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nakamoto's attacker-success probability (bitcoin.pdf §11): the chance
/// an attacker with hashrate share `q` ever overtakes the honest chain
/// when the target transaction has `z` confirmations.
///
/// Returns 1.0 whenever `q >= 0.5`.
///
/// # Panics
///
/// Panics if `q` is not within `[0, 1]`.
#[must_use]
pub fn nakamoto_success_probability(q: f64, z: u32) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    if q >= 0.5 {
        return 1.0;
    }
    if q == 0.0 {
        return 0.0;
    }
    let p = 1.0 - q;
    let lambda = z as f64 * (q / p);
    let mut sum = 1.0;
    let mut poisson = (-lambda).exp();
    for k in 0..=z {
        if k > 0 {
            poisson *= lambda / k as f64;
        }
        sum -= poisson * (1.0 - (q / p).powi((z - k) as i32));
    }
    sum.clamp(0.0, 1.0)
}

/// Closed-form gambler's-ruin catch-up probability: an attacker currently
/// `deficit` blocks behind ever *closes the gap* (Satoshi's `q_z =
/// (q/p)^z` convention), with per-step win probability `q`.
///
/// # Panics
///
/// Panics if `q` is not within `[0, 1]`.
#[must_use]
pub fn catch_up_probability(q: f64, deficit: u32) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    if q >= 0.5 {
        return 1.0;
    }
    if q == 0.0 {
        return 0.0;
    }
    let ratio = q / (1.0 - q);
    ratio.powi(deficit as i32)
}

/// Monte Carlo estimate of the catch-up probability via an explicit
/// attacker-vs-honest block race.
///
/// Each trial runs the random walk until the attacker gets ahead
/// (success) or falls `cutoff` blocks behind (counted as failure — the
/// truncation error is `≤ (q/p)^cutoff`).
///
/// # Panics
///
/// Panics if `q` is not within `[0, 1]` or `trials == 0`.
#[must_use]
pub fn simulate_catch_up(q: f64, deficit: u32, trials: u32, seed: u64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    assert!(trials > 0, "need at least one trial");
    if q == 0.0 {
        return 0.0;
    }
    if deficit == 0 {
        return 1.0;
    }
    let cutoff = deficit as i64 + 80;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut successes = 0u32;
    for _ in 0..trials {
        let mut behind = deficit as i64;
        loop {
            if rng.gen_bool(q) {
                behind -= 1;
            } else {
                behind += 1;
            }
            if behind == 0 {
                successes += 1;
                break;
            }
            if behind > cutoff {
                break;
            }
        }
    }
    successes as f64 / trials as f64
}

/// One row of the integrity-guarantee table of experiment E2: for a given
/// attacker share and confirmation depth, the probability a committed log
/// entry can still be rewritten.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityPoint {
    /// Attacker hashrate share.
    pub attacker_share: f64,
    /// Confirmations of the log entry.
    pub confirmations: u32,
    /// Analytic rewrite probability (Nakamoto).
    pub rewrite_probability: f64,
    /// Closed-form catch-up probability from `confirmations + 1` blocks
    /// behind ([`catch_up_probability`]); a lower bound on
    /// `rewrite_probability`.
    pub catch_up_probability: f64,
    /// Monte Carlo estimate of `catch_up_probability`: the simulated race
    /// from `confirmations + 1` blocks behind, not Nakamoto's value.
    pub simulated_probability: f64,
}

/// Sweeps attacker shares × confirmation depths for experiment E2.
#[must_use]
pub fn integrity_sweep(
    shares: &[f64],
    confirmations: &[u32],
    trials: u32,
    seed: u64,
) -> Vec<IntegrityPoint> {
    let mut out = Vec::new();
    for (i, &q) in shares.iter().enumerate() {
        for (j, &z) in confirmations.iter().enumerate() {
            out.push(IntegrityPoint {
                attacker_share: q,
                confirmations: z,
                rewrite_probability: nakamoto_success_probability(q, z),
                catch_up_probability: catch_up_probability(q, z + 1),
                simulated_probability: simulate_catch_up(
                    q,
                    z + 1,
                    trials,
                    seed.wrapping_add((i * 1_000 + j) as u64),
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nakamoto_reference_values() {
        // Values from bitcoin.pdf §11 (q = 0.1).
        assert!((nakamoto_success_probability(0.1, 0) - 1.0).abs() < 1e-9);
        assert!((nakamoto_success_probability(0.1, 1) - 0.2045873).abs() < 1e-4);
        assert!((nakamoto_success_probability(0.1, 5) - 0.0009137).abs() < 1e-5);
        assert!((nakamoto_success_probability(0.1, 10) - 0.0000012).abs() < 1e-6);
        // q = 0.3 values.
        assert!((nakamoto_success_probability(0.3, 5) - 0.1773523).abs() < 1e-4);
        assert!((nakamoto_success_probability(0.3, 10) - 0.0416605).abs() < 1e-4);
    }

    #[test]
    fn majority_attacker_always_wins() {
        assert_eq!(nakamoto_success_probability(0.5, 10), 1.0);
        assert_eq!(nakamoto_success_probability(0.7, 50), 1.0);
        assert_eq!(catch_up_probability(0.6, 100), 1.0);
    }

    #[test]
    fn zero_attacker_never_wins() {
        assert_eq!(nakamoto_success_probability(0.0, 1), 0.0);
        assert_eq!(catch_up_probability(0.0, 1), 0.0);
        assert_eq!(simulate_catch_up(0.0, 1, 10, 1), 0.0);
    }

    #[test]
    fn probability_decreases_with_confirmations() {
        let mut last = 1.0;
        for z in [1, 2, 4, 8, 16] {
            let p = nakamoto_success_probability(0.25, z);
            assert!(p < last, "z={z}: {p} !< {last}");
            last = p;
        }
    }

    #[test]
    fn probability_increases_with_attacker_share() {
        let mut last = 0.0;
        for q in [0.05, 0.15, 0.25, 0.35, 0.45] {
            let p = nakamoto_success_probability(q, 6);
            assert!(p > last, "q={q}: {p} !> {last}");
            last = p;
        }
    }

    #[test]
    fn monte_carlo_matches_gamblers_ruin() {
        for (q, deficit) in [(0.2, 2u32), (0.3, 3), (0.4, 2)] {
            let analytic = catch_up_probability(q, deficit);
            let simulated = simulate_catch_up(q, deficit, 40_000, 99);
            assert!(
                (analytic - simulated).abs() < 0.01,
                "q={q} z={deficit}: analytic {analytic} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn integrity_sweep_shape() {
        let points = integrity_sweep(&[0.1, 0.3], &[1, 6], 2_000, 5);
        assert_eq!(points.len(), 4);
        // More confirmations → lower rewrite probability at equal share.
        assert!(points[0].rewrite_probability > points[1].rewrite_probability);
        // Higher share → higher rewrite probability at equal confirmations.
        assert!(points[2].rewrite_probability > points[0].rewrite_probability);
        // The race from z + 1 behind ignores the attacker's progress
        // during the z confirmations: a lower bound on Nakamoto's value.
        for point in &points {
            assert!(point.catch_up_probability < point.rewrite_probability);
        }
    }

    #[test]
    #[should_panic(expected = "q must be a probability")]
    fn invalid_share_panics() {
        let _ = nakamoto_success_probability(1.5, 1);
    }
}
