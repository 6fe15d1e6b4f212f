//! Technology library: per-bit energies and link frequencies.

use crate::units::{Hertz, Joules};

/// Electrical parameters of an interconnect in a given technology node.
///
/// The two built-in constants are the 0.25 µm extraction points reported in
/// §4.1.4 of the paper, where the bus length equals the side of the
/// tile-based grid and a NoC link spans a single tile.
///
/// # Examples
///
/// ```
/// use noc_energy::TechnologyLibrary;
///
/// let bus = TechnologyLibrary::BUS_0_25UM;
/// let link = TechnologyLibrary::NOC_LINK_0_25UM;
/// // NoC links are shorter, hence faster and cheaper per bit:
/// assert!(link.max_frequency.hertz() > bus.max_frequency.hertz());
/// assert!(link.energy_per_bit.joules() < bus.energy_per_bit.joules());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyLibrary {
    /// Descriptive name of the extraction point.
    pub name: &'static str,
    /// Maximum working frequency of the interconnect.
    pub max_frequency: Hertz,
    /// Energy dissipated per transmitted bit.
    pub energy_per_bit: Joules,
}

impl TechnologyLibrary {
    /// Shared bus spanning the grid side, 0.25 µm: 43 MHz, 21.6e-10 J/bit.
    pub const BUS_0_25UM: TechnologyLibrary = TechnologyLibrary {
        name: "shared bus, 0.25um",
        max_frequency: Hertz(43.0e6),
        energy_per_bit: Joules(21.6e-10),
    };

    /// Single-tile NoC link, 0.25 µm: 381 MHz, 2.4e-10 J/bit.
    pub const NOC_LINK_0_25UM: TechnologyLibrary = TechnologyLibrary {
        name: "NoC link, 0.25um",
        max_frequency: Hertz(381.0e6),
        energy_per_bit: Joules(2.4e-10),
    };

    /// Creates a custom technology point.
    ///
    /// # Panics
    ///
    /// Panics if the frequency or per-bit energy is not strictly positive.
    pub fn new(name: &'static str, max_frequency: Hertz, energy_per_bit: Joules) -> Self {
        assert!(
            max_frequency.hertz() > 0.0,
            "link frequency must be positive"
        );
        assert!(
            energy_per_bit.joules() > 0.0,
            "per-bit energy must be positive"
        );
        Self {
            name,
            max_frequency,
            energy_per_bit,
        }
    }

    /// Ratio of this technology's per-bit energy to another's.
    pub fn energy_ratio(&self, other: &TechnologyLibrary) -> f64 {
        self.energy_per_bit.joules() / other.energy_per_bit.joules()
    }

    /// Ratio of this technology's frequency to another's.
    pub fn frequency_ratio(&self, other: &TechnologyLibrary) -> f64 {
        self.max_frequency.hertz() / other.max_frequency.hertz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_extraction_points() {
        assert_eq!(TechnologyLibrary::BUS_0_25UM.max_frequency, Hertz(43e6));
        assert_eq!(
            TechnologyLibrary::BUS_0_25UM.energy_per_bit,
            Joules(21.6e-10)
        );
        assert_eq!(
            TechnologyLibrary::NOC_LINK_0_25UM.max_frequency,
            Hertz(381e6)
        );
        assert_eq!(
            TechnologyLibrary::NOC_LINK_0_25UM.energy_per_bit,
            Joules(2.4e-10)
        );
    }

    #[test]
    fn link_is_an_order_of_magnitude_cheaper_per_bit() {
        let r = TechnologyLibrary::BUS_0_25UM.energy_ratio(&TechnologyLibrary::NOC_LINK_0_25UM);
        assert!((r - 9.0).abs() < 0.01, "21.6 / 2.4 = 9, got {r}");
    }

    #[test]
    fn link_is_roughly_nine_times_faster() {
        let r = TechnologyLibrary::NOC_LINK_0_25UM.frequency_ratio(&TechnologyLibrary::BUS_0_25UM);
        assert!((r - 381.0 / 43.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = TechnologyLibrary::new("bad", Hertz(0.0), Joules(1e-10));
    }

    #[test]
    #[should_panic(expected = "energy must be positive")]
    fn zero_energy_rejected() {
        let _ = TechnologyLibrary::new("bad", Hertz(1e6), Joules(0.0));
    }
}
