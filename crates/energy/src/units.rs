//! Newtype units so energies, times, frequencies and sizes cannot be mixed.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An energy in joules.
///
/// # Examples
///
/// ```
/// use noc_energy::Joules;
///
/// let a = Joules::new(1.0);
/// let b = Joules::new(2.0);
/// assert_eq!((a + b).joules(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

/// A duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

/// A frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(pub f64);

/// A data size in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(pub u64);

impl Joules {
    /// Creates an energy value.
    pub fn new(joules: f64) -> Self {
        Self(joules)
    }

    /// The raw value in joules.
    pub fn joules(self) -> f64 {
        self.0
    }

    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);
}

impl Seconds {
    /// Creates a duration.
    pub fn new(seconds: f64) -> Self {
        Self(seconds)
    }

    /// The raw value in seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The value expressed in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl Hertz {
    /// Creates a frequency.
    pub fn new(hertz: f64) -> Self {
        Self(hertz)
    }

    /// Convenience constructor from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// The raw value in hertz.
    pub fn hertz(self) -> f64 {
        self.0
    }

    /// The corresponding clock period.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    pub fn period(self) -> Seconds {
        assert!(self.0 > 0.0, "period of a non-positive frequency");
        Seconds(1.0 / self.0)
    }
}

impl Bits {
    /// Creates a size from a bit count.
    pub fn new(bits: u64) -> Self {
        Self(bits)
    }

    /// Creates a size from a byte count.
    pub fn from_bytes(bytes: u64) -> Self {
        Self(bytes * 8)
    }

    /// The raw bit count.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The size in whole bytes, rounding up.
    pub fn bytes_ceil(self) -> u64 {
        self.0.div_ceil(8)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    fn div(self, rhs: f64) -> Joules {
        Joules(self.0 / rhs)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |acc, j| acc + j)
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Add for Bits {
    type Output = Bits;
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        iter.fold(Bits(0), |acc, b| acc + b)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4e} J", self.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4e} s", self.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2} MHz", self.0 / 1e6)
        } else {
            write!(f, "{:.2} Hz", self.0)
        }
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joules_arithmetic() {
        let e = Joules::new(2.0) + Joules::new(3.0) - Joules::new(1.0);
        assert_eq!(e, Joules::new(4.0));
        assert_eq!(e * 2.0, Joules::new(8.0));
        assert_eq!(e / 2.0, Joules::new(2.0));
    }

    #[test]
    fn joules_sum() {
        let total: Joules = (1..=4).map(|i| Joules::new(i as f64)).sum();
        assert_eq!(total, Joules::new(10.0));
    }

    #[test]
    fn hertz_period() {
        let f = Hertz::from_mhz(100.0);
        assert!((f.period().seconds() - 1e-8).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "non-positive frequency")]
    fn zero_frequency_has_no_period() {
        let _ = Hertz::new(0.0).period();
    }

    #[test]
    fn bits_conversions() {
        assert_eq!(Bits::from_bytes(3), Bits(24));
        assert_eq!(Bits(9).bytes_ceil(), 2);
        assert_eq!(Bits(16).bytes_ceil(), 2);
        let total: Bits = [Bits(8), Bits(16)].into_iter().sum();
        assert_eq!(total, Bits(24));
    }

    #[test]
    fn seconds_micros() {
        assert!((Seconds::new(2.5e-6).micros() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Hertz::from_mhz(43.0).to_string(), "43.00 MHz");
        assert_eq!(Bits(64).to_string(), "64 bits");
        assert!(Joules::new(2.4e-10).to_string().contains('J'));
        assert!(Seconds::new(1e-6).to_string().contains('s'));
    }
}
