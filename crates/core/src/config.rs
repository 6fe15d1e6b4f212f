//! Protocol parameters of the stochastic communication scheme.

use std::error::Error;
use std::fmt;

/// Tunable parameters of the gossip protocol.
///
/// The two knobs the paper exposes to designers are
///
/// * `forward_probability` (`p`) — the probability that a buffered message
///   is transmitted over each output link in a round. `p = 1` degenerates
///   into deterministic flooding (latency-optimal, energy-worst); lowering
///   `p` trades latency for energy.
/// * `default_ttl` — the time-to-live assigned to messages at creation,
///   bounding the number of retransmission rounds and hence the bandwidth
///   and energy spent per message.
///
/// `max_rounds` is a simulation-side budget: the engine gives up after
/// that many rounds if the application has not completed (the paper's
/// "encoding cannot finish" outcomes).
///
/// # Examples
///
/// ```
/// use stochastic_noc::StochasticConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = StochasticConfig::new(0.5, 12)?;
/// assert_eq!(config.forward_probability, 0.5);
/// let flooding = StochasticConfig::flooding(12);
/// assert_eq!(flooding.forward_probability, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticConfig {
    /// Probability `p` of forwarding a buffered message over a link.
    pub forward_probability: f64,
    /// TTL assigned to messages at creation (rounds the message survives).
    pub default_ttl: u8,
    /// Simulation round budget.
    pub max_rounds: u64,
    /// Early spread termination: once a message reaches its destination,
    /// every buffered copy is garbage-collected at the next round.
    ///
    /// §3.2.2 of the paper notes that "the spread could be terminated
    /// even earlier in order to reduce the number of messages transmitted
    /// in the network"; this flag implements that idea as an idealized
    /// oracle (the simulator knows the instant of delivery). Defaults to
    /// `false` — plain TTL-bounded gossip.
    pub terminate_on_delivery: bool,
}

/// Error returned for out-of-range protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidConfig {
    /// Description of the violated constraint.
    pub reason: String,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid protocol config: {}", self.reason)
    }
}

impl Error for InvalidConfig {}

impl StochasticConfig {
    /// Default round budget.
    pub const DEFAULT_MAX_ROUNDS: u64 = 1_000;

    /// Creates a configuration with the given forwarding probability and
    /// TTL.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `p` is outside `[0, 1]` or the TTL is
    /// zero.
    pub fn new(forward_probability: f64, default_ttl: u8) -> Result<Self, InvalidConfig> {
        let config = Self {
            forward_probability,
            default_ttl,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            terminate_on_delivery: false,
        };
        config.validate()?;
        Ok(config)
    }

    /// The deterministic flooding configuration (`p = 1`): every tile
    /// always sends to all its neighbours. Latency-optimal — the hop count
    /// equals the Manhattan distance — but maximally expensive in
    /// bandwidth and energy.
    pub fn flooding(default_ttl: u8) -> Self {
        Self {
            forward_probability: 1.0,
            default_ttl: default_ttl.max(1),
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            terminate_on_delivery: false,
        }
    }

    /// Returns a copy with a different round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Returns a copy with early spread termination switched on or off.
    pub fn with_termination(mut self, terminate_on_delivery: bool) -> Self {
        self.terminate_on_delivery = terminate_on_delivery;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] describing the violation.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if !(0.0..=1.0).contains(&self.forward_probability) || self.forward_probability.is_nan() {
            return Err(InvalidConfig {
                reason: format!(
                    "forward probability {} not in [0, 1]",
                    self.forward_probability
                ),
            });
        }
        if self.default_ttl == 0 {
            return Err(InvalidConfig {
                reason: "ttl must be at least 1 (a 0-ttl message dies at creation)".to_string(),
            });
        }
        if self.max_rounds == 0 {
            return Err(InvalidConfig {
                reason: "round budget must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for StochasticConfig {
    /// `p = 0.5`, TTL 16: the mid-point configuration the paper's case
    /// studies recommend as near-latency-optimal at roughly half the
    /// flooding energy.
    fn default() -> Self {
        Self {
            forward_probability: 0.5,
            default_ttl: 16,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            terminate_on_delivery: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs_pass() {
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            StochasticConfig::new(p, 10).unwrap();
        }
    }

    #[test]
    fn out_of_range_probability_fails() {
        assert!(StochasticConfig::new(1.01, 10).is_err());
        assert!(StochasticConfig::new(-0.1, 10).is_err());
        assert!(StochasticConfig::new(f64::NAN, 10).is_err());
    }

    #[test]
    fn zero_ttl_fails() {
        let err = StochasticConfig::new(0.5, 0).unwrap_err();
        assert!(err.to_string().contains("ttl"));
    }

    #[test]
    fn zero_round_budget_fails() {
        let c = StochasticConfig::default().with_max_rounds(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn flooding_is_p_one() {
        let c = StochasticConfig::flooding(8);
        assert_eq!(c.forward_probability, 1.0);
        assert_eq!(c.default_ttl, 8);
        c.validate().unwrap();
        // Degenerate ttl input is clamped:
        assert_eq!(StochasticConfig::flooding(0).default_ttl, 1);
    }

    #[test]
    fn default_is_the_paper_midpoint() {
        let c = StochasticConfig::default();
        assert_eq!(c.forward_probability, 0.5);
        c.validate().unwrap();
    }
}
