//! Running energy/traffic accounting for a simulation.

use crate::metrics::{communication_energy, energy_delay_product, EnergyDelay};
use crate::tech::TechnologyLibrary;
use crate::units::{Bits, Joules, Seconds};

/// Accumulates packet transmissions during a simulation and converts them
/// into energy figures on demand.
///
/// Every call to [`EnergyAccount::record_transmission`] corresponds to one
/// packet crossing one link (the switching activity that Equation 3
/// charges for).
///
/// # Examples
///
/// ```
/// use noc_energy::{Bits, EnergyAccount, TechnologyLibrary};
///
/// let mut account = EnergyAccount::new(TechnologyLibrary::NOC_LINK_0_25UM);
/// account.record_transmission(Bits(64));
/// account.record_transmission(Bits(128));
/// assert_eq!(account.transmissions(), 2);
/// assert_eq!(account.total_bits(), Bits(192));
/// assert!(account.total_energy().joules() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAccount {
    tech: TechnologyLibrary,
    transmissions: u64,
    total_bits: Bits,
}

impl EnergyAccount {
    /// Creates an empty account charging at the given technology's rates.
    pub fn new(tech: TechnologyLibrary) -> Self {
        Self {
            tech,
            transmissions: 0,
            total_bits: Bits(0),
        }
    }

    /// The technology point used for conversion.
    pub fn technology(&self) -> &TechnologyLibrary {
        &self.tech
    }

    /// Records one packet of `size` crossing one link.
    pub fn record_transmission(&mut self, size: Bits) {
        self.transmissions += 1;
        self.total_bits += size;
    }

    /// Records `count` identical transmissions at once.
    pub fn record_transmissions(&mut self, count: u64, size: Bits) {
        self.transmissions += count;
        self.total_bits += Bits(size.bits() * count);
    }

    /// Total number of link traversals recorded.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Total bits moved across links.
    pub fn total_bits(&self) -> Bits {
        self.total_bits
    }

    /// Total energy under Equation 3 (exact, using the true bit total
    /// rather than an average packet size).
    pub fn total_energy(&self) -> Joules {
        communication_energy(self.total_bits.bits(), Bits(1), self.tech.energy_per_bit)
    }

    /// Energy per transmitted bit — constant by construction, but useful
    /// when comparing accounts with different technologies.
    pub fn energy_per_bit(&self) -> Joules {
        self.tech.energy_per_bit
    }

    /// Energy×delay product for a run that took `elapsed` wall-clock
    /// (simulated) time.
    pub fn energy_delay(&self, elapsed: Seconds) -> EnergyDelay {
        energy_delay_product(self.total_energy(), elapsed)
    }

    /// Merges another account's traffic into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two accounts use different technologies (their
    /// energies would not be comparable).
    pub fn merge(&mut self, other: &EnergyAccount) {
        assert_eq!(
            self.tech, other.tech,
            "cannot merge accounts with different technologies"
        );
        self.transmissions += other.transmissions;
        self.total_bits += other.total_bits;
    }

    /// Resets the counters, keeping the technology.
    pub fn reset(&mut self) {
        self.transmissions = 0;
        self.total_bits = Bits(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> EnergyAccount {
        EnergyAccount::new(TechnologyLibrary::NOC_LINK_0_25UM)
    }

    #[test]
    fn empty_account_has_zero_energy() {
        let a = account();
        assert_eq!(a.transmissions(), 0);
        assert_eq!(a.total_energy(), Joules::ZERO);
    }

    #[test]
    fn batch_and_single_recording_agree() {
        let mut a = account();
        let mut b = account();
        for _ in 0..5 {
            a.record_transmission(Bits(64));
        }
        b.record_transmissions(5, Bits(64));
        assert_eq!(a, b);
    }

    #[test]
    fn energy_matches_equation_3() {
        let mut a = account();
        a.record_transmissions(1000, Bits(64));
        let expect = 1000.0 * 64.0 * 2.4e-10;
        assert!((a.total_energy().joules() - expect).abs() < 1e-15);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = account();
        a.record_transmission(Bits(8));
        let mut b = account();
        b.record_transmission(Bits(16));
        a.merge(&b);
        assert_eq!(a.transmissions(), 2);
        assert_eq!(a.total_bits(), Bits(24));
    }

    #[test]
    #[should_panic(expected = "different technologies")]
    fn merging_across_technologies_panics() {
        let mut a = account();
        let b = EnergyAccount::new(TechnologyLibrary::BUS_0_25UM);
        a.merge(&b);
    }

    #[test]
    fn reset_clears_counters_only() {
        let mut a = account();
        a.record_transmission(Bits(64));
        a.reset();
        assert_eq!(a.transmissions(), 0);
        assert_eq!(a.technology(), &TechnologyLibrary::NOC_LINK_0_25UM);
    }

    #[test]
    fn energy_delay_is_monotone_in_time() {
        let mut a = account();
        a.record_transmissions(10, Bits(64));
        let fast = a.energy_delay(Seconds::new(1e-6));
        let slow = a.energy_delay(Seconds::new(2e-6));
        assert!(slow.joule_seconds() > fast.joule_seconds());
    }
}
