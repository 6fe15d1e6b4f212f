//! The engine on the fully connected fabric against an exact chain, from
//! PAPER.md §3.2 alone, with nothing taken from engine code.
//!
//! **The chain.** On `K_n` every tile links to every other. Under Fig 3-4
//! each tile that holds the message offers it, every round, to each of
//! its `n − 1` output links, each independently with probability `p`; a
//! fault-free frame sent in round `r` is received in round `r + 1`, and
//! the receiver forwards it in that round. So if `I_r` tiles hold the
//! message after round `r`, each of the `n − I_r` others hears it in
//! round `r + 1` with probability `1 − (1 − q)^I_r`, independently:
//!
//! ```text
//! I_0 = 1,   I_{r+1} = I_r + Binomial(n − I_r, 1 − (1 − q)^I_r)
//! ```
//!
//! with `q = p` fault-free and `q = p · (1 − p_upset)` under upsets (a
//! scrambled frame fails its CRC; the default 16-bit CRC lets ≈ 2⁻¹⁶ of
//! them through, which the tolerances below dwarf). `T`, the round that
//! covers the fabric, is the first `r` with `I_r = n`. The chain's
//! distribution is computed exactly, round by round, with each binomial
//! term in log space.
//!
//! **The round convention.** The engine's round `r` is the one
//! [`RoundStats::round`](stochastic_noc::RoundStats) reports: a tile
//! first informed in executed round `r` has latency `r`. With one message
//! and a TTL far above `T`, `RoundStats::live_messages` after round `r` is
//! `I_r`.
//!
//! **Tolerances.** Each check is a normal interval of `Z` standard errors
//! around the chain's value, the standard error taken from the chain's
//! exact moments and the trial count: `√(Var/N)` for a mean,
//! `√((μ₄ − σ⁴)/N)` for a sample variance. `Z = 4.5` puts each check's
//! two-sided tail at 6.8·10⁻⁶, ≈ 1.3·10⁻³ over the 187 checks of the four
//! cases (every round until the chain covers the fabric with probability
//! 1 − 10⁻¹²). The seeds are fixed, so a run that passes passes every
//! time; the 1.3·10⁻³ is what a fresh seed would risk.

use noc_fabric::{NodeId, Topology};
use noc_faults::FaultModel;
use stochastic_noc::seed::derive_trial_seed;
use stochastic_noc::{SimulationBuilder, StochasticConfig};

const Z: f64 = 4.5;
const TTL: u8 = 255;

/// What the chain says of one fabric: `T`'s mean, variance and fourth
/// central moment, and `I_r`'s mean and variance for every round until
/// the fabric is covered with probability 1 − 10⁻¹².
struct Chain {
    mean_t: f64,
    var_t: f64,
    mu4_t: f64,
    /// `(E[I_r], Var[I_r])`, by round `r`.
    informed: Vec<(f64, f64)>,
}

impl Chain {
    fn new(n: usize, q: f64) -> Self {
        // ln k!, for the binomial coefficients.
        let mut ln_fact = vec![0.0f64; n + 1];
        for k in 1..=n {
            ln_fact[k] = ln_fact[k - 1] + (k as f64).ln();
        }
        let ln_miss = (1.0 - q).ln();
        let mut dist = vec![0.0f64; n + 1];
        dist[1] = 1.0;
        let mut covered = vec![0.0f64];
        let mut informed = vec![(1.0, 0.0)];
        while 1.0 - covered[covered.len() - 1] > 1e-12 {
            let mut next = vec![0.0f64; n + 1];
            next[n] = dist[n];
            for i in 1..n {
                if dist[i] == 0.0 {
                    continue;
                }
                // A tile not yet informed stays so with (1 − q)^i.
                let ln_stay = i as f64 * ln_miss;
                let ln_hear = (-ln_stay.exp_m1()).ln();
                let m = n - i;
                for k in 0..=m {
                    let ln_choose = ln_fact[m] - ln_fact[k] - ln_fact[m - k];
                    let ln_pmf = ln_choose + k as f64 * ln_hear + (m - k) as f64 * ln_stay;
                    next[i + k] += dist[i] * ln_pmf.exp();
                }
            }
            dist = next;
            let mean: f64 = dist.iter().enumerate().map(|(i, p)| i as f64 * p).sum();
            let var = dist
                .iter()
                .enumerate()
                .map(|(i, p)| (i as f64 - mean).powi(2) * p)
                .sum();
            informed.push((mean, var));
            covered.push(dist[n]);
        }
        // P(T = r) = P(I_r = n) − P(I_{r−1} = n).
        let pmf: Vec<f64> = (0..covered.len())
            .map(|r| covered[r] - if r == 0 { 0.0 } else { covered[r - 1] })
            .collect();
        let moment = |f: &dyn Fn(f64) -> f64| -> f64 {
            pmf.iter().enumerate().map(|(r, p)| f(r as f64) * p).sum()
        };
        let mean_t = moment(&|r| r);
        Chain {
            mean_t,
            var_t: moment(&|r| (r - mean_t).powi(2)),
            mu4_t: moment(&|r| (r - mean_t).powi(4)),
            informed,
        }
    }
}

/// `I_r` by round of one engine trial on `K_n`, up to the round that
/// covers the fabric.
fn engine_trial(n: usize, p: f64, p_upset: f64, seed: u64) -> Vec<usize> {
    let model = FaultModel::builder()
        .p_upset(p_upset)
        .build()
        .expect("a probability");
    let mut sim = SimulationBuilder::new(Topology::fully_connected(n))
        .config(StochasticConfig::new(p, TTL).expect("p in (0, 1]"))
        .fault_model(model)
        .seed(seed)
        .build();
    sim.inject(NodeId(0), NodeId(n - 1), b"rumor".to_vec());
    let mut informed = Vec::new();
    while informed.last() != Some(&n) {
        let stats = sim.step();
        assert_eq!(stats.round as usize, informed.len(), "rounds run from 0");
        assert!(stats.round < u64::from(TTL) / 2, "no coverage in time");
        informed.push(stats.live_messages as usize);
    }
    informed
}

/// `observed` is within `Z` standard errors `se` of the chain's `exact`.
fn assert_within(what: &str, observed: f64, exact: f64, se: f64) {
    assert!(
        (observed - exact).abs() <= Z * se,
        "{what}: engine {observed:.4}, chain {exact:.4} ± {:.4}",
        Z * se
    );
}

/// Runs `trials` engine trials on `K_n` and holds their `T` mean and
/// variance and their per-round mean of `I_r` to the chain.
fn check(n: usize, p_upset: f64, trials: u64, base_seed: u64) {
    let p = 1.0 / (n - 1) as f64;
    let chain = Chain::new(n, p * (1.0 - p_upset));
    let runs: Vec<Vec<usize>> = (0..trials)
        .map(|trial| engine_trial(n, p, p_upset, derive_trial_seed(base_seed, trial)))
        .collect();
    let count = trials as f64;
    let t: Vec<f64> = runs.iter().map(|run| (run.len() - 1) as f64).collect();
    let mean_t = t.iter().sum::<f64>() / count;
    let var_t = t.iter().map(|t| (t - mean_t).powi(2)).sum::<f64>() / (count - 1.0);
    let case = format!("K_{n}, p_upset {p_upset}");
    assert_within(
        &format!("{case}: E[T]"),
        mean_t,
        chain.mean_t,
        (chain.var_t / count).sqrt(),
    );
    assert_within(
        &format!("{case}: Var[T]"),
        var_t,
        chain.var_t,
        ((chain.mu4_t - chain.var_t.powi(2)) / count).sqrt(),
    );
    for (r, &(mean, var)) in chain.informed.iter().enumerate() {
        // A trial covered before round r holds n from then on.
        let at_r = runs
            .iter()
            .map(|run| run.get(r).copied().unwrap_or(n) as f64);
        let observed = at_r.sum::<f64>() / count;
        if var == 0.0 {
            assert_eq!(observed, mean, "{case}: E[I_{r}] is certain");
        } else {
            assert_within(
                &format!("{case}: E[I_{r}]"),
                observed,
                mean,
                (var / count).sqrt(),
            );
        }
    }
}

#[test]
fn k20_matches_the_chain() {
    check(20, 0.0, 4_000, 0xE01_0020);
}

#[test]
fn k100_matches_the_chain() {
    check(100, 0.0, 600, 0xE01_0100);
}

#[test]
fn k20_under_upsets_matches_the_chain_at_the_surviving_rate() {
    check(20, 0.3, 4_000, 0xE01_1020);
}

/// Too slow for a debug engine; CI's determinism job runs it under
/// `--release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug engine trial on K_1000 is too slow"
)]
fn k1000_matches_the_chain() {
    check(1_000, 0.0, 200, 0xE01_1000);
}
