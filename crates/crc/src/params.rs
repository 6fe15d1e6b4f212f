//! CRC parameter sets (Rocksoft^tm model).

use std::fmt;

/// A complete description of a CRC variant in the classic Rocksoft model.
///
/// `width` must be in `1..=64`. The polynomial is given in normal (MSB-first)
/// notation with the implicit leading `x^width` term omitted, e.g. the
/// CCITT polynomial `x^16 + x^12 + x^5 + 1` is `0x1021`.
///
/// # Examples
///
/// ```
/// use noc_crc::CrcParams;
///
/// let p = CrcParams::CRC16_CCITT;
/// assert_eq!(p.width, 16);
/// assert_eq!(p.poly, 0x1021);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcParams {
    /// Human-readable catalogue name.
    pub name: &'static str,
    /// CRC width in bits (1..=64).
    pub width: u32,
    /// Generator polynomial, normal representation.
    pub poly: u64,
    /// Initial shift-register contents.
    pub init: u64,
    /// Whether input bytes are processed LSB-first.
    pub reflect_in: bool,
    /// Whether the final register is bit-reflected before the XOR-out.
    pub reflect_out: bool,
    /// Value XORed onto the register to produce the final checksum.
    pub xor_out: u64,
}

impl CrcParams {
    /// CRC-5/USB: tiny CRC used in USB token packets; exercises `width < 8`.
    pub const CRC5_USB: CrcParams = CrcParams {
        name: "CRC-5/USB",
        width: 5,
        poly: 0x05,
        init: 0x1F,
        reflect_in: true,
        reflect_out: true,
        xor_out: 0x1F,
    };

    /// CRC-8/ATM HEC (catalogue name CRC-8/I-432-1), used in ATM cell
    /// headers — the paper explicitly cites the ATM layer as prior art.
    pub const CRC8_ATM: CrcParams = CrcParams {
        name: "CRC-8/ATM",
        width: 8,
        poly: 0x07,
        init: 0x00,
        reflect_in: false,
        reflect_out: false,
        xor_out: 0x55,
    };

    /// CRC-16/CCITT-FALSE: the default on-chip packet CRC in this library.
    pub const CRC16_CCITT: CrcParams = CrcParams {
        name: "CRC-16/CCITT-FALSE",
        width: 16,
        poly: 0x1021,
        init: 0xFFFF,
        reflect_in: false,
        reflect_out: false,
        xor_out: 0x0000,
    };

    /// CRC-16/ARC (the classic "IBM" CRC-16).
    pub const CRC16_IBM: CrcParams = CrcParams {
        name: "CRC-16/ARC",
        width: 16,
        poly: 0x8005,
        init: 0x0000,
        reflect_in: true,
        reflect_out: true,
        xor_out: 0x0000,
    };

    /// CRC-32 (IEEE 802.3), as used by Ethernet.
    pub const CRC32: CrcParams = CrcParams {
        name: "CRC-32",
        width: 32,
        poly: 0x04C1_1DB7,
        init: 0xFFFF_FFFF,
        reflect_in: true,
        reflect_out: true,
        xor_out: 0xFFFF_FFFF,
    };

    /// All built-in parameter sets, handy for sweeping tests.
    pub const ALL: &'static [CrcParams] = &[
        Self::CRC5_USB,
        Self::CRC8_ATM,
        Self::CRC16_CCITT,
        Self::CRC16_IBM,
        Self::CRC32,
    ];

    /// Bit mask covering exactly `width` bits.
    #[inline]
    pub fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Number of whole bytes needed to store the checksum on the wire.
    #[inline]
    pub fn tag_bytes(&self) -> usize {
        self.width.div_ceil(8) as usize
    }

    /// Validates the invariants of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant: a zero or too-large
    /// `width`, or `poly`/`init`/`xor_out` with bits above `width`.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 || self.width > 64 {
            return Err(format!("width {} outside 1..=64", self.width));
        }
        let m = self.mask();
        for (label, v) in [
            ("poly", self.poly),
            ("init", self.init),
            ("xor_out", self.xor_out),
        ] {
            if v & !m != 0 {
                return Err(format!("{label} {v:#x} exceeds width {}", self.width));
            }
        }
        if self.poly & 1 == 0 {
            return Err("polynomial must have its x^0 term set".to_string());
        }
        Ok(())
    }
}

/// Full-width sets for the tests: at 64 bits the working register fills
/// the eight leading bytes the slice kernel folds it into, so no alignment
/// shift hides a mistake.
#[cfg(test)]
impl CrcParams {
    /// CRC-64/XZ (reflected); check value `0x995DC9BBDF1939FA`.
    pub(crate) const CRC64_XZ: CrcParams = CrcParams {
        name: "CRC-64/XZ",
        width: 64,
        poly: 0x42F0_E1EB_A9EA_3693,
        init: u64::MAX,
        reflect_in: true,
        reflect_out: true,
        xor_out: u64::MAX,
    };

    /// CRC-64/ECMA-182 (MSB-first); check value `0x6C40DF5F0B497347`.
    pub(crate) const CRC64_ECMA_182: CrcParams = CrcParams {
        name: "CRC-64/ECMA-182",
        width: 64,
        poly: 0x42F0_E1EB_A9EA_3693,
        init: 0,
        reflect_in: false,
        reflect_out: false,
        xor_out: 0,
    };

    /// Input lengths `0..=SWEEP_MAX_LEN` put every tail of 0–15 bytes
    /// (with and without the eight-byte step) after 0–4 sixteen-byte
    /// steps of the slice kernel.
    pub(crate) const SWEEP_MAX_LEN: usize = 4 * 16 + 15;

    /// [`CrcParams::ALL`] plus the two 64-bit sets.
    pub(crate) fn sweep() -> impl Iterator<Item = CrcParams> {
        Self::ALL
            .iter()
            .copied()
            .chain([Self::CRC64_XZ, Self::CRC64_ECMA_182])
    }
}

impl fmt::Display for CrcParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (poly {:#x}, width {})",
            self.name, self.poly, self.width
        )
    }
}

/// Reflects the low `width` bits of `value` (bit 0 swaps with bit
/// width-1); `width` is in `1..=64`.
#[inline]
pub(crate) fn reflect(value: u64, width: u32) -> u64 {
    value.reverse_bits() >> (64 - width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_are_correct() {
        assert_eq!(CrcParams::CRC5_USB.mask(), 0b1_1111);
        assert_eq!(CrcParams::CRC16_CCITT.mask(), 0xFFFF);
        assert_eq!(CrcParams::CRC32.mask(), 0xFFFF_FFFF);
    }

    #[test]
    fn tag_bytes_round_up() {
        assert_eq!(CrcParams::CRC5_USB.tag_bytes(), 1);
        assert_eq!(CrcParams::CRC16_CCITT.tag_bytes(), 2);
        assert_eq!(CrcParams::CRC32.tag_bytes(), 4);
    }

    #[test]
    fn builtin_params_validate() {
        for p in CrcParams::ALL {
            p.validate().expect("builtin parameter set must be valid");
        }
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = CrcParams::CRC8_ATM;
        p.width = 0;
        assert!(p.validate().is_err());

        let mut p = CrcParams::CRC8_ATM;
        p.poly = 0x1FF;
        assert!(p.validate().is_err());

        let mut p = CrcParams::CRC8_ATM;
        p.poly = 0x06; // even polynomial
        assert!(p.validate().is_err());
    }

    #[test]
    fn reflect_is_an_involution() {
        for v in [0u64, 1, 0xAB, 0x1234, 0xDEAD_BEEF] {
            for w in [5u32, 8, 16, 32] {
                let masked = v & ((1 << w) - 1);
                assert_eq!(reflect(reflect(masked, w), w), masked);
            }
        }
    }

    #[test]
    fn reflect_known_values() {
        assert_eq!(reflect(0b0000_0001, 8), 0b1000_0000);
        assert_eq!(reflect(0b1100_0000, 8), 0b0000_0011);
        assert_eq!(reflect(0x1, 16), 0x8000);
    }

    #[test]
    fn display_mentions_name_and_width() {
        let s = CrcParams::CRC32.to_string();
        assert!(s.contains("CRC-32"));
        assert!(s.contains("32"));
    }
}
