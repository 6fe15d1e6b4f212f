//! The five-parameter DSM fault model and its builder.

use std::error::Error;
use std::fmt;

use crate::error_vector::ErrorModel;

/// How buffer overflow losses are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowMode {
    /// Each received packet is independently dropped with `p_overflow`
    /// (the sweep axis used by the paper's MP3 experiments).
    #[default]
    Probabilistic,
    /// Receive buffers have the given finite capacity (in packets); on
    /// overflow the *oldest* buffered packet is dropped first, exactly as
    /// described in §4.2.
    Structural {
        /// Buffer capacity in packets.
        capacity: usize,
    },
}

/// The stochastic failure model of Chapter 2.
///
/// Construct via [`FaultModel::builder`]; [`FaultModel::none`] is the
/// fault-free configuration. All probabilities are validated to lie in
/// `[0, 1]` and `sigma_synch` (expressed as a fraction of the round
/// duration `T_R`) must be finite and non-negative.
///
/// # Examples
///
/// ```
/// use noc_faults::FaultModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = FaultModel::builder()
///     .p_tiles(0.05)
///     .p_links(0.02)
///     .p_upset(0.3)
///     .p_overflow(0.1)
///     .sigma_synch(0.2)
///     .build()?;
/// assert_eq!(model.p_upset, 0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultModel {
    /// Probability that a tile is affected by a crash failure.
    pub p_tiles: f64,
    /// Probability that a link is affected by a crash failure.
    pub p_links: f64,
    /// Probability that a packet is scrambled by a data upset per link
    /// traversal.
    pub p_upset: f64,
    /// Probability that a packet is dropped because of buffer overflow.
    pub p_overflow: f64,
    /// Standard deviation of the round duration, as a fraction of `T_R`.
    pub sigma_synch: f64,
    /// Which analytical model generates upset error vectors.
    pub error_model: ErrorModel,
    /// How overflow losses are applied.
    pub overflow_mode: OverflowMode,
}

/// Error returned when a fault-model parameter is out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFaultModel {
    /// Name of the offending parameter.
    pub parameter: &'static str,
    /// Human-readable description of the violation.
    pub reason: String,
}

impl fmt::Display for InvalidFaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault model: {} {}", self.parameter, self.reason)
    }
}

impl Error for InvalidFaultModel {}

impl FaultModel {
    /// The fault-free model (all probabilities zero).
    pub fn none() -> Self {
        Self::default()
    }

    /// Starts building a model.
    pub fn builder() -> FaultModelBuilder {
        FaultModelBuilder::new()
    }

    /// True if every failure probability is zero and clocks are ideal.
    pub fn is_fault_free(&self) -> bool {
        self.p_tiles == 0.0
            && self.p_links == 0.0
            && self.p_upset == 0.0
            && self.p_overflow == 0.0
            && self.sigma_synch == 0.0
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFaultModel`] naming the first out-of-range
    /// parameter.
    pub fn validate(&self) -> Result<(), InvalidFaultModel> {
        let probs = [
            ("p_tiles", self.p_tiles),
            ("p_links", self.p_links),
            ("p_upset", self.p_upset),
            ("p_overflow", self.p_overflow),
        ];
        for (name, v) in probs {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(InvalidFaultModel {
                    parameter: name,
                    reason: format!("= {v} is not a probability in [0, 1]"),
                });
            }
        }
        // An infinite σ makes every round's skew infinite or, times a
        // zero draw, NaN: no round duration at all.
        if !(self.sigma_synch >= 0.0 && self.sigma_synch.is_finite()) {
            return Err(InvalidFaultModel {
                parameter: "sigma_synch",
                reason: format!("= {} must be finite and non-negative", self.sigma_synch),
            });
        }
        if let OverflowMode::Structural { capacity } = self.overflow_mode {
            if capacity == 0 {
                return Err(InvalidFaultModel {
                    parameter: "overflow_mode",
                    reason: "structural buffer capacity must be at least 1".to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`FaultModel`].
///
/// All parameters default to the fault-free values.
#[derive(Debug, Clone, Default)]
pub struct FaultModelBuilder {
    model: FaultModel,
}

impl FaultModelBuilder {
    /// Creates a builder with all parameters at their fault-free defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tile crash probability.
    pub fn p_tiles(mut self, p: f64) -> Self {
        self.model.p_tiles = p;
        self
    }

    /// Sets the link crash probability.
    pub fn p_links(mut self, p: f64) -> Self {
        self.model.p_links = p;
        self
    }

    /// Sets the per-traversal data-upset probability.
    pub fn p_upset(mut self, p: f64) -> Self {
        self.model.p_upset = p;
        self
    }

    /// Sets the buffer-overflow drop probability.
    pub fn p_overflow(mut self, p: f64) -> Self {
        self.model.p_overflow = p;
        self
    }

    /// Sets the synchronization-error standard deviation (fraction of
    /// `T_R`).
    pub fn sigma_synch(mut self, sigma: f64) -> Self {
        self.model.sigma_synch = sigma;
        self
    }

    /// Selects the analytical error-vector model for upsets.
    pub fn error_model(mut self, model: ErrorModel) -> Self {
        self.model.error_model = model;
        self
    }

    /// Selects how overflow losses are applied.
    pub fn overflow_mode(mut self, mode: OverflowMode) -> Self {
        self.model.overflow_mode = mode;
        self
    }

    /// Validates and returns the model.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFaultModel`] if any parameter is out of range.
    pub fn build(self) -> Result<FaultModel, InvalidFaultModel> {
        self.model.validate()?;
        Ok(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_fault_free() {
        let m = FaultModel::none();
        assert!(m.is_fault_free());
        m.validate().unwrap();
    }

    #[test]
    fn builder_sets_every_field() {
        let m = FaultModel::builder()
            .p_tiles(0.1)
            .p_links(0.2)
            .p_upset(0.3)
            .p_overflow(0.4)
            .sigma_synch(0.5)
            .error_model(ErrorModel::RandomBitError)
            .overflow_mode(OverflowMode::Structural { capacity: 8 })
            .build()
            .unwrap();
        assert_eq!(m.p_tiles, 0.1);
        assert_eq!(m.p_links, 0.2);
        assert_eq!(m.p_upset, 0.3);
        assert_eq!(m.p_overflow, 0.4);
        assert_eq!(m.sigma_synch, 0.5);
        assert_eq!(m.error_model, ErrorModel::RandomBitError);
        assert_eq!(m.overflow_mode, OverflowMode::Structural { capacity: 8 });
        assert!(!m.is_fault_free());
    }

    #[test]
    fn out_of_range_probability_is_rejected() {
        let err = FaultModel::builder().p_upset(1.5).build().unwrap_err();
        assert_eq!(err.parameter, "p_upset");
        assert!(err.to_string().contains("p_upset"));
    }

    #[test]
    fn negative_sigma_is_rejected() {
        let err = FaultModel::builder().sigma_synch(-0.1).build().unwrap_err();
        assert_eq!(err.parameter, "sigma_synch");
    }

    #[test]
    fn non_finite_sigma_is_rejected() {
        for sigma in [f64::INFINITY, f64::NAN] {
            let err = FaultModel::builder()
                .sigma_synch(sigma)
                .build()
                .unwrap_err();
            assert_eq!(err.parameter, "sigma_synch", "sigma {sigma}");
        }
    }

    #[test]
    fn nan_probability_is_rejected() {
        let err = FaultModel::builder().p_tiles(f64::NAN).build().unwrap_err();
        assert_eq!(err.parameter, "p_tiles");
    }

    #[test]
    fn zero_capacity_structural_buffer_is_rejected() {
        let err = FaultModel::builder()
            .overflow_mode(OverflowMode::Structural { capacity: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err.parameter, "overflow_mode");
    }

    #[test]
    fn boundary_probabilities_are_accepted() {
        FaultModel::builder()
            .p_upset(1.0)
            .p_overflow(0.0)
            .build()
            .unwrap();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn every_in_range_model_validates(
                pt in 0.0f64..=1.0,
                pl in 0.0f64..=1.0,
                pu in 0.0f64..=1.0,
                po in 0.0f64..=1.0,
                sg in 0.0f64..10.0,
            ) {
                let model = FaultModel::builder()
                    .p_tiles(pt)
                    .p_links(pl)
                    .p_upset(pu)
                    .p_overflow(po)
                    .sigma_synch(sg)
                    .build();
                prop_assert!(model.is_ok());
            }

            #[test]
            fn out_of_range_probabilities_never_validate(
                excess in 1.0f64..100.0,
            ) {
                let p = 1.0 + excess * f64::EPSILON.max(1e-9) + excess;
                prop_assert!(FaultModel::builder().p_upset(p).build().is_err());
                prop_assert!(FaultModel::builder().p_tiles(-p).build().is_err());
            }

            #[test]
            fn is_fault_free_iff_all_zero(
                pu in 0.0f64..=1.0,
            ) {
                let m = FaultModel::builder().p_upset(pu).build().unwrap();
                prop_assert_eq!(m.is_fault_free(), pu == 0.0);
            }
        }
    }
}
