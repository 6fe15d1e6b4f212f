//! Table-driven (slice-by-8) CRC computation.

use std::fmt;

use crate::params::{reflect, CrcParams};
use crate::CrcAlgorithm;

/// Input bytes folded per step of the slice kernel, and the number of
/// 256-entry tables it reads.
const SLICES: usize = 8;

/// A slice-by-8 CRC engine: eight precomputed 256-entry tables fold one
/// 64-bit word of input per step through eight independent lookups; a
/// byte-at-a-time loop over the first table finishes the last 0–7 bytes.
///
/// Functionally identical to [`crate::BitwiseCrc`] (this equivalence is
/// enforced by property tests at every tail length, for reflected and
/// MSB-first sets from 5 to 64 bits wide), so simulation inner loops use
/// this type. Measured on 1 KiB of CRC-16/CCITT on the repository's
/// 2-core benchmark host (`crc.table_ns_per_byte`, EXPERIMENTS.md "PR
/// 17"): 0.86 ns per byte, against 11.4 ns per byte bit-serial (13x) and
/// 3.2 ns per byte for the byte-at-a-time loop this kernel replaced
/// (3.7x).
///
/// # Examples
///
/// ```
/// use noc_crc::{CrcAlgorithm, CrcParams, TableCrc};
///
/// let crc = TableCrc::new(CrcParams::CRC32);
/// assert_eq!(crc.checksum(b"123456789"), 0xCBF43926);
/// ```
#[derive(Clone)]
pub struct TableCrc {
    params: CrcParams,
    /// `tables[0]` is the classic byte table; `tables[k][i]` is
    /// `tables[k - 1][i]` advanced by one zero byte, i.e. the register
    /// left by byte `i` followed by `k` zero bytes.
    tables: Box<[[u64; 256]; SLICES]>,
}

impl TableCrc {
    /// Creates an engine for the given parameter set, precomputing the
    /// byte table and the seven tables derived from it (16 KiB in all).
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`CrcParams::validate`].
    pub fn new(params: CrcParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid CRC parameters: {e}"));
        let mut tables = Box::new([[0u64; 256]; SLICES]);
        let width = params.width;
        // For widths below 8 the table operates on a register shifted up to
        // at least 8 bits so byte-wise processing stays uniform.
        let shift_width = width.max(8);
        let shift_mask = shift_mask(shift_width);
        let top = 1u64 << (shift_width - 1);
        let poly_shifted = params.poly << (shift_width - width);
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let byte = if params.reflect_in {
                reflect(i as u64, 8)
            } else {
                i as u64
            };
            let mut reg = byte << (shift_width - 8);
            for _ in 0..8 {
                if reg & top != 0 {
                    reg = (reg << 1) ^ poly_shifted;
                } else {
                    reg <<= 1;
                }
                reg &= shift_mask;
            }
            if params.reflect_in {
                reg = reflect(reg, shift_width);
            }
            *slot = reg;
        }
        for k in 1..SLICES {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = if params.reflect_in {
                    (prev >> 8) ^ tables[0][(prev & 0xFF) as usize]
                } else {
                    ((prev << 8) & shift_mask) ^ tables[0][(prev >> (shift_width - 8)) as usize]
                };
            }
        }
        Self { params, tables }
    }

    /// Read-only access to the precomputed byte table (for
    /// hardware-generation style use cases such as emitting a ROM image).
    pub fn table(&self) -> &[u64; 256] {
        &self.tables[0]
    }
}

/// Renders the parameter set and the byte table, which determine the
/// other seven. The simulator's checkpoint config digest hashes this text
/// through its codec, so it stays what a one-table engine printed.
impl fmt::Debug for TableCrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableCrc")
            .field("params", &self.params)
            .field("table", self.table())
            .finish()
    }
}

/// Bit mask covering the `shift_width`-bit working register.
fn shift_mask(shift_width: u32) -> u64 {
    if shift_width == 64 {
        u64::MAX
    } else {
        (1u64 << shift_width) - 1
    }
}

/// Advances eight bytes at once: `word[0]` is the byte the stream would
/// have fed first, so it is followed by seven more and takes the table
/// advanced by seven zero bytes. The register is at most 64 bits wide, so
/// XORed onto the leading bytes of `word` it is consumed whole here; the
/// lookups those bytes index come last in the chain, the others can be
/// issued before the previous step's register is known.
#[inline(always)]
fn fold(t: &[[u64; 256]; SLICES], word: [u8; SLICES]) -> u64 {
    t[0][word[7] as usize]
        ^ t[1][word[6] as usize]
        ^ t[2][word[5] as usize]
        ^ t[3][word[4] as usize]
        ^ t[4][word[3] as usize]
        ^ t[5][word[2] as usize]
        ^ t[6][word[1] as usize]
        ^ t[7][word[0] as usize]
}

impl CrcAlgorithm for TableCrc {
    fn params(&self) -> &CrcParams {
        &self.params
    }

    fn checksum(&self, data: &[u8]) -> u64 {
        let p = &self.params;
        let width = p.width;
        let shift_width = width.max(8);
        let shift_mask = shift_mask(shift_width);
        let t = &*self.tables;
        let (words, tail) = data.as_chunks::<SLICES>();
        // Work in the shifted register domain.
        let mut reg = (p.init & p.mask()) << (shift_width - width);
        if p.reflect_in {
            // LSB-first: the register's low byte meets the first input
            // byte, which a little-endian load puts in the low byte.
            reg = reflect(reg, shift_width);
            for word in words {
                reg = fold(t, (reg ^ u64::from_le_bytes(*word)).to_le_bytes());
            }
            for &b in tail {
                let idx = ((reg ^ b as u64) & 0xFF) as usize;
                reg = (reg >> 8) ^ t[0][idx];
            }
            reg = reflect(reg, shift_width);
        } else {
            // MSB-first: the register's top byte meets the first input
            // byte, which a big-endian load puts in the top byte.
            let align = 64 - shift_width;
            for word in words {
                reg = fold(
                    t,
                    ((reg << align) ^ u64::from_be_bytes(*word)).to_be_bytes(),
                );
            }
            for &b in tail {
                let idx = (((reg >> (shift_width - 8)) ^ b as u64) & 0xFF) as usize;
                reg = ((reg << 8) & shift_mask) ^ t[0][idx];
            }
        }
        let mut out = reg >> (shift_width - width);
        if p.reflect_out {
            out = reflect(out, width);
        }
        (out ^ p.xor_out) & p.mask()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitwiseCrc;
    use proptest::prelude::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 151 + 43) as u8).collect()
    }

    /// The first sweep length at which `table` disagrees with the
    /// bit-serial oracle.
    fn first_mismatch(table: &TableCrc) -> Option<usize> {
        let oracle = BitwiseCrc::new(*table.params());
        (0..=CrcParams::SWEEP_MAX_LEN).find(|&len| {
            let data = pattern(len);
            table.checksum(&data) != oracle.checksum(&data)
        })
    }

    #[test]
    fn table_has_identity_entry() {
        let crc = TableCrc::new(CrcParams::CRC16_CCITT);
        assert_eq!(
            crc.table()[0],
            0,
            "processing a zero byte from a zero register stays zero"
        );
    }

    #[test]
    fn slice_kernel_equals_bitwise_at_every_word_and_tail_length() {
        for params in CrcParams::sweep() {
            assert_eq!(
                first_mismatch(&TableCrc::new(params)),
                None,
                "{}",
                params.name
            );
        }
    }

    #[test]
    fn breaking_any_one_derived_table_fails_the_sweep() {
        for params in CrcParams::sweep() {
            for k in 1..SLICES {
                let mut broken = TableCrc::new(params);
                for entry in broken.tables[k].iter_mut() {
                    *entry ^= 1;
                }
                assert_eq!(
                    first_mismatch(&broken),
                    Some(SLICES),
                    "{}: table {k} is not covered",
                    params.name
                );
            }
        }
    }

    proptest! {
        #[test]
        fn table_equals_bitwise(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            for params in CrcParams::sweep() {
                let t = TableCrc::new(params);
                let b = BitwiseCrc::new(params);
                prop_assert_eq!(
                    t.checksum(&data),
                    b.checksum(&data),
                    "mismatch for {}", params.name
                );
            }
        }

        #[test]
        fn checksum_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let t = TableCrc::new(CrcParams::CRC32);
            prop_assert_eq!(t.checksum(&data), t.checksum(&data));
        }

        #[test]
        fn appending_own_crc_yields_constant_residue(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            // For non-reflected CRCs with xor_out == 0, re-checksumming
            // message||crc gives 0 (the classic receiver-side check).
            let params = CrcParams::CRC16_CCITT;
            let t = TableCrc::new(params);
            let tag = t.checksum(&data);
            let mut framed = data.clone();
            framed.extend_from_slice(&tag.to_be_bytes()[6..]);
            prop_assert_eq!(t.checksum(&framed), 0);
        }
    }
}
