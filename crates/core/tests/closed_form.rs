//! The engine against arithmetic it did not write: a 1×2 grid, one
//! message 0 → 1, and a 1×3 line, one message 0 → 2; `σ_synch = 0`.
//!
//! **1×2.**
//! From PAPER.md §3.2 (Fig 3-4: TTL, per-link forwarding probability
//! `p`, CRC-gated receive) and the fault model of §2, with nothing taken
//! from engine code: each round the one copy of the message is offered
//! to the one link with probability `p`, survives the wire with
//! probability `1 − p_upset` (a scrambled frame fails its CRC) and the
//! receiver's buffer with probability `1 − p_overflow`, all independent
//! round to round. So one round succeeds with
//!
//! ```text
//! q = p · (1 − p_upset) · (1 − p_overflow)
//! ```
//!
//! and over `k` forward opportunities the message is delivered with
//! probability `1 − (1 − q)^k`, at latency `j` with probability
//! `q · (1 − q)^(j−1)` for `j` in `1..=k` (geometric, truncated).
//!
//! **The convention this test found:** a message injected with TTL `t`
//! is aged before its first forward, so `k = t − 1`, not `t`.
//!
//! **1×3, two hops under flooding** (`p = 1`, upsets only, `s = 1 −
//! p_upset`). Tile 0 offers the message to tile 1 at each of its `t − 1`
//! opportunities, and each frame survives with probability `s`, so tile
//! 1 first hears at opportunity `j` with probability `s(1 − s)^(j−1)`.
//! The copy it hears has been aged `j` times and, by the same
//! convention, is aged once more before tile 1's first forward: tile 1
//! has `k(j) = t − 1 − j` opportunities of its own towards tile 2, each
//! surviving with probability `s`. Later copies from tile 0 (and tile
//! 1's echoes back to it) are duplicates and change nothing. So
//!
//! ```text
//! delivery = Σ_{j=1}^{t−1} s(1 − s)^(j−1) · (1 − (1 − s)^(t−1−j))
//! ```
//!
//! (`k = t − j` and `k = t − 2 − j` miss it by 0.08 to 0.6 at the points
//! below, far outside the intervals.) This is the path on which a frame
//! is encoded only because an upset asks for its bytes.
//!
//! Tolerances are binomial intervals from the trial count, `z = 4.5`
//! standard errors (two-sided tail 6.8·10⁻⁶ per check, ≈ 10⁻⁴ over the
//! 18 checks here) — never a hand-tuned epsilon. A scrambled frame
//! slips past the default 16-bit CRC ≈ 2⁻¹⁶ of the time: 1.5·10⁻⁵,
//! against a narrowest interval below of ± 7·10⁻³.

use noc_fabric::{NodeId, Topology};
use noc_faults::FaultModel;
use stochastic_noc::seed::derive_trial_seed;
use stochastic_noc::{SimulationBuilder, StochasticConfig};

const TRIALS: u64 = 20_000;
const Z: f64 = 4.5;

/// `observed` successes in `TRIALS` trials are within `Z` standard
/// errors of a binomial with success probability `expected`.
fn assert_binomial(what: &str, observed: u64, expected: f64) {
    let n = TRIALS as f64;
    let share = observed as f64 / n;
    let half_width = Z * (expected * (1.0 - expected) / n).sqrt();
    assert!(
        (share - expected).abs() <= half_width,
        "{what}: observed {share:.4}, closed form {expected:.4} ± {half_width:.4}"
    );
}

fn check(base_seed: u64, p: f64, ttl: u8, p_upset: f64, p_overflow: f64) {
    let model = FaultModel::builder()
        .p_upset(p_upset)
        .p_overflow(p_overflow)
        .build()
        .expect("probabilities in [0, 1]");
    let opportunities = usize::from(ttl) - 1;
    let mut at_latency = vec![0u64; opportunities + 1];
    let mut delivered = 0u64;
    for trial in 0..TRIALS {
        let mut sim = SimulationBuilder::new(Topology::grid(1, 2))
            .config(StochasticConfig::new(p, ttl).expect("p in (0, 1]"))
            .fault_model(model)
            .seed(derive_trial_seed(base_seed, trial))
            .build();
        let id = sim.inject(NodeId(0), NodeId(1), vec![0xA5; 8]);
        if let Some(latency) = sim.run().latency(id) {
            delivered += 1;
            at_latency[usize::try_from(latency).expect("a latency within the TTL")] += 1;
        }
    }
    let q = p * (1.0 - p_upset) * (1.0 - p_overflow);
    let point = format!("p={p} ttl={ttl} p_upset={p_upset} p_overflow={p_overflow}");
    assert_binomial(
        &format!("{point}: delivery"),
        delivered,
        1.0 - (1.0 - q).powi(i32::from(ttl) - 1),
    );
    assert_eq!(at_latency[0], 0, "{point}: no delivery in zero rounds");
    for (j, &count) in at_latency.iter().enumerate().skip(1) {
        assert_binomial(
            &format!("{point}: latency {j}"),
            count,
            q * (1.0 - q).powi(j as i32 - 1),
        );
    }
}

#[test]
fn fault_free_delivery_and_latency_are_geometric_in_p() {
    check(0x1F2, 0.5, 4, 0.0, 0.0);
}

#[test]
fn upsets_thin_each_rounds_success() {
    check(0x2F2, 0.5, 6, 0.3, 0.0);
}

#[test]
fn upset_and_overflow_together_multiply() {
    check(0x3F2, 0.7, 5, 0.2, 0.25);
}

/// The 1×3 line of the header: flooding, upsets only.
fn check_two_hops(base_seed: u64, ttl: u8, p_upset: f64) {
    let model = FaultModel::builder()
        .p_upset(p_upset)
        .build()
        .expect("probability in [0, 1]");
    let mut delivered = 0u64;
    for trial in 0..TRIALS {
        let mut sim = SimulationBuilder::new(Topology::grid(1, 3))
            .config(StochasticConfig::flooding(ttl))
            .fault_model(model)
            .seed(derive_trial_seed(base_seed, trial))
            .build();
        let id = sim.inject(NodeId(0), NodeId(2), vec![0xA5; 8]);
        delivered += u64::from(sim.run().delivered(id));
    }
    let s = 1.0 - p_upset;
    let t = i32::from(ttl);
    let expected: f64 = (1..t)
        .map(|j| s * (1.0 - s).powi(j - 1) * (1.0 - (1.0 - s).powi(t - 1 - j)))
        .sum();
    assert_binomial(
        &format!("1x3 ttl={ttl} p_upset={p_upset}: delivery"),
        delivered,
        expected,
    );
}

#[test]
fn two_hops_under_upsets_follow_the_first_hearing_sum() {
    check_two_hops(0x4F2, 4, 0.3);
    check_two_hops(0x5F2, 6, 0.5);
    check_two_hops(0x6F2, 5, 0.7);
}
