//! Epidemic-spreading theory of §3.1 and the rumor experiment of
//! Figure 3-1.
//!
//! In the classic randomized-gossip model over a fully connected
//! population, every informed node passes the rumor to one uniformly
//! random node per round. The number of informed nodes `I(t)` is tightly
//! approximated by the deterministic recurrence (**Equation 1**):
//!
//! ```text
//! I(t+1) = n − (n − I(t)) · e^(−I(t)/n),   I(0) = 1
//! ```
//!
//! and the number of rounds until everyone is informed is
//! `S_n = log2 n + ln n + O(1)` (Pittel, 1987). This module provides the
//! recurrence, the `S_n` estimate, and a Monte-Carlo simulation of the
//! rumor process for Figure 3-1's 1000-node curve.
//!
//! # Examples
//!
//! ```
//! use stochastic_noc::spread;
//!
//! let curve = spread::deterministic_curve(1000, 20);
//! // Less than 20 rounds reach all 1000 nodes:
//! assert!(curve.last().copied().unwrap() > 999.0);
//! assert!(spread::rounds_to_inform_all(1000) < 20.0);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iterates Equation 1 for `rounds` rounds, returning
/// `[I(0), I(1), …, I(rounds)]` (length `rounds + 1`).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn deterministic_curve(n: usize, rounds: usize) -> Vec<f64> {
    assert!(n > 0, "population must be positive");
    let n_f = n as f64;
    let mut curve = Vec::with_capacity(rounds + 1);
    let mut informed = 1.0_f64;
    curve.push(informed);
    for _ in 0..rounds {
        informed = n_f - (n_f - informed) * (-informed / n_f).exp();
        curve.push(informed);
    }
    curve
}

/// The `S_n ≈ log2 n + ln n` estimate of the rounds needed to inform the
/// whole population.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn rounds_to_inform_all(n: usize) -> f64 {
    assert!(n > 0, "population must be positive");
    let n_f = n as f64;
    n_f.log2() + n_f.ln()
}

/// Simulates the classic rumor process on a fully connected population:
/// each informed node passes the rumor to one uniformly random node per
/// round. Returns the informed count after each round (`[I(0), …]`,
/// length `rounds + 1`).
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// use stochastic_noc::spread;
///
/// let curve = spread::simulate_rumor(1000, 20, 7);
/// assert_eq!(curve[0], 1);
/// assert!(curve.windows(2).all(|w| w[1] >= w[0]), "monotone growth");
/// ```
#[expect(
    clippy::disallowed_methods,
    reason = "self-contained analytic-validation Monte Carlo with its own caller-provided seed; no engine or tape involved"
)]
pub fn simulate_rumor(n: usize, rounds: usize, seed: u64) -> Vec<usize> {
    assert!(n > 0, "population must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut informed = vec![false; n];
    informed[0] = true;
    let mut count = 1usize;
    let mut curve = Vec::with_capacity(rounds + 1);
    curve.push(count);
    for _ in 0..rounds {
        let holders: Vec<usize> = (0..n).filter(|&i| informed[i]).collect();
        for _ in holders {
            let target = rng.gen_range(0..n);
            if !informed[target] {
                informed[target] = true;
                count += 1;
            }
        }
        curve.push(count);
    }
    curve
}

/// Number of simulated rounds until all `n` nodes are informed (capped at
/// `max_rounds`; returns `None` if the cap is hit first).
pub fn simulated_rounds_to_inform_all(n: usize, max_rounds: usize, seed: u64) -> Option<usize> {
    let curve = simulate_rumor(n, max_rounds, seed);
    curve.iter().position(|&c| c == n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recurrence_starts_at_one_and_is_monotone() {
        let curve = deterministic_curve(1000, 25);
        assert_eq!(curve[0], 1.0);
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
        assert!(curve.iter().all(|&c| c <= 1000.0));
    }

    #[test]
    fn thousand_nodes_reached_in_under_20_rounds() {
        // Figure 3-1: "in less than 20 rounds, as many as 1000 nodes can
        // be reached".
        let curve = deterministic_curve(1000, 20);
        assert!(
            curve[20] > 999.0,
            "deterministic curve reached {} of 1000",
            curve[20]
        );
        let sim = simulate_rumor(1000, 20, 3);
        assert!(sim[20] >= 995, "simulated spread reached {}", sim[20]);
    }

    #[test]
    fn growth_is_initially_exponential() {
        // Early phase: I(t) roughly doubles each round (growth factor
        // close to 2 while I << n).
        let curve = deterministic_curve(100_000, 10);
        for t in 1..8 {
            let factor = curve[t + 1] / curve[t];
            assert!(
                (1.8..=2.0).contains(&factor),
                "round {t} growth factor {factor}"
            );
        }
    }

    #[test]
    fn s_n_estimate_matches_pittel() {
        // S_1000 ~ log2(1000) + ln(1000) ~ 9.97 + 6.91 ~ 16.9
        let s = rounds_to_inform_all(1000);
        assert!((16.0..18.0).contains(&s), "S_1000 = {s}");
    }

    #[test]
    fn simulation_tracks_the_recurrence() {
        let n = 2000;
        let rounds = 18;
        let det = deterministic_curve(n, rounds);
        // Average several seeds to tame variance.
        let seeds = 5;
        let mut avg = vec![0.0; rounds + 1];
        for seed in 0..seeds {
            let sim = simulate_rumor(n, rounds, seed);
            for (a, s) in avg.iter_mut().zip(&sim) {
                *a += *s as f64 / seeds as f64;
            }
        }
        for t in 0..=rounds {
            let rel = (avg[t] - det[t]).abs() / det[t].max(1.0);
            assert!(
                rel < 0.25,
                "round {t}: sim {:.1} vs theory {:.1}",
                avg[t],
                det[t]
            );
        }
    }

    #[test]
    fn simulated_completion_time_near_estimate() {
        let n = 500;
        let estimate = rounds_to_inform_all(n);
        let got = simulated_rounds_to_inform_all(n, 100, 11)
            .expect("500 nodes informed within 100 rounds") as f64;
        assert!(
            (got - estimate).abs() < 8.0,
            "simulated {got} vs estimate {estimate}"
        );
    }

    #[test]
    fn single_node_population_is_trivially_informed() {
        assert_eq!(simulate_rumor(1, 5, 0), vec![1; 6]);
        assert_eq!(deterministic_curve(1, 3)[0], 1.0);
        assert_eq!(simulated_rounds_to_inform_all(1, 5, 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        let _ = deterministic_curve(0, 5);
    }
}
