//! Cyclic redundancy check codecs for on-chip packet protection.
//!
//! The stochastic communication protocol (Dumitraş & Mărculescu, DATE 2003)
//! relies on an *error-detection / multiple-transmissions* scheme: every
//! packet is protected by a CRC, and a receiving tile silently discards any
//! packet whose CRC check fails, counting on redundant gossip transmissions
//! to deliver another clean copy. The paper notes that "CRC encoders and
//! decoders are easy to implement in hardware, as they only require one
//! shift register"; [`BitwiseCrc`] models exactly that linear-feedback shift
//! register, while [`TableCrc`] is the software equivalent that every
//! encode and verify of the simulator runs: a slice-by-16 kernel folding
//! sixteen input bytes per step (the two are proven equivalent by tests at
//! every block and tail length).
//!
//! # Examples
//!
//! ```
//! use noc_crc::{CrcAlgorithm, CrcParams, TableCrc};
//!
//! let crc = TableCrc::new(CrcParams::CRC16_CCITT);
//! let tag = crc.checksum(b"123456789");
//! assert_eq!(tag, 0x29B1); // published check value for CRC-16/CCITT-FALSE
//! ```
//!
//! Attaching and verifying a CRC on a payload:
//!
//! ```
//! use noc_crc::{CrcParams, PacketCodec};
//!
//! let codec = PacketCodec::new(CrcParams::CRC32);
//! let framed = codec.encode(b"on-chip gossip");
//! assert!(codec.verify(&framed));
//!
//! let mut corrupted = framed.clone();
//! corrupted[3] ^= 0x40; // single-bit upset
//! assert!(!codec.verify(&corrupted));
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

mod analysis;
mod bitwise;
mod codec;
mod params;
mod table;

pub use analysis::{burst_detection_exhaustive, undetected_fraction, BurstReport};
pub use bitwise::{BitwiseCrc, CrcState};
pub use codec::{DecodeError, PacketCodec};
pub use params::CrcParams;
pub use table::TableCrc;

/// A CRC implementation over a fixed parameter set.
///
/// Both the hardware-faithful [`BitwiseCrc`] and the table-driven [`TableCrc`]
/// implement this trait, so higher layers can be generic over the codec
/// style.
pub trait CrcAlgorithm {
    /// The parameter set (polynomial, width, reflection, ...) in use.
    fn params(&self) -> &CrcParams;

    /// Computes the CRC of `data` in one shot.
    fn checksum(&self, data: &[u8]) -> u64;

    /// Width of the CRC in bits (1..=64).
    fn width(&self) -> u32 {
        self.params().width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published check values (`checksum(b"123456789")`) from the canonical
    /// CRC catalogue.
    const CHECKS: &[(CrcParams, u64)] = &[
        (CrcParams::CRC8_ATM, 0xA1),
        (CrcParams::CRC16_CCITT, 0x29B1),
        (CrcParams::CRC16_IBM, 0xBB3D),
        (CrcParams::CRC32, 0xCBF43926),
        (CrcParams::CRC5_USB, 0x19),
        (CrcParams::CRC64_XZ, 0x995D_C9BB_DF19_39FA),
        (CrcParams::CRC64_ECMA_182, 0x6C40_DF5F_0B49_7347),
    ];

    #[test]
    fn table_matches_catalogue_check_values() {
        for &(params, expect) in CHECKS {
            let crc = TableCrc::new(params);
            assert_eq!(
                crc.checksum(b"123456789"),
                expect,
                "catalogue mismatch for {}",
                params.name
            );
        }
    }

    #[test]
    fn bitwise_matches_catalogue_check_values() {
        for &(params, expect) in CHECKS {
            let crc = BitwiseCrc::new(params);
            assert_eq!(
                crc.checksum(b"123456789"),
                expect,
                "catalogue mismatch for {}",
                params.name
            );
        }
    }

    #[test]
    fn empty_input_is_well_defined() {
        for &(params, _) in CHECKS {
            let bitwise = BitwiseCrc::new(params);
            let table = TableCrc::new(params);
            assert_eq!(bitwise.checksum(&[]), table.checksum(&[]));
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        let algos: Vec<Box<dyn CrcAlgorithm>> = vec![
            Box::new(BitwiseCrc::new(CrcParams::CRC16_CCITT)),
            Box::new(TableCrc::new(CrcParams::CRC16_CCITT)),
        ];
        let a = algos[0].checksum(b"gossip");
        let b = algos[1].checksum(b"gossip");
        assert_eq!(a, b);
        assert_eq!(algos[0].width(), 16);
    }
}
