//! Table-driven (slice-by-16) CRC computation.

use std::fmt;
use std::sync::Arc;

use crate::params::{reflect, CrcParams};
use crate::CrcAlgorithm;

/// Input bytes folded per step of the kernel, and the number of 256-entry
/// tables it reads.
const SLICES: usize = 16;

/// `tables[0]` is the classic byte table; `tables[k][i]` is
/// `tables[k - 1][i]` advanced by one zero byte, i.e. the register left by
/// byte `i` followed by `k` zero bytes.
type Tables = [[u64; 256]; SLICES];

/// A slice-by-16 CRC engine: sixteen precomputed 256-entry tables fold
/// sixteen input bytes per step through sixteen independent lookups.
/// Only the lookups of the bytes the register overlaps wait for the
/// previous step; the rest are issued before it. One eight-byte step and
/// a byte-at-a-time loop over the first table finish the last 0–15 bytes.
///
/// Functionally identical to [`crate::BitwiseCrc`] (this equivalence is
/// enforced by tests at every block and tail length, for reflected and
/// MSB-first sets from 5 to 64 bits wide), so simulation inner loops use
/// this type. Clones share the tables.
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
    tables: Arc<Tables>,
}

impl TableCrc {
    /// Creates an engine for the given parameter set, precomputing the
    /// byte table and the fifteen tables derived from it (32 KiB in all).
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
        Self {
            params,
            tables: Arc::from(tables),
        }
    }

    /// Read-only access to the precomputed byte table (for
    /// hardware-generation style use cases such as emitting a ROM image).
    pub fn table(&self) -> &[u64; 256] {
        &self.tables[0]
    }

    /// Runs the shifted-domain register `reg` over `data` with the kernel
    /// whose `R` leading bytes of each block meet the register.
    #[inline]
    fn fold_all<const R: usize>(&self, reg: u64, data: &[u8]) -> u64 {
        let shift_width = self.params.width.max(8);
        if self.params.reflect_in {
            let reg =
                fold_stream::<R, true>(&self.tables, reflect(reg, shift_width), data, shift_width);
            reflect(reg, shift_width)
        } else {
            fold_stream::<R, false>(&self.tables, reg, data, shift_width)
        }
    }
}

/// Renders the parameter set and the byte table, which determine the
/// other fifteen. The simulator's checkpoint config digest hashes this text
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

/// Advances `N` bytes at once (`N` is 16 or 8): `block[j]` is followed by
/// `N - 1 - j` more bytes, so it indexes the table advanced by that many
/// zero bytes. `lead` is the register's bytes in the order the stream
/// meets them; it is at most 64 bits wide, so XORed onto the first `R`
/// bytes of the block it is consumed whole here. The other `N - R`
/// lookups do not depend on it: they are issued first and XOR-reduced as
/// a tree, and only the `R` lookups the register reaches wait for the
/// previous step.
#[inline(always)]
fn fold<const N: usize, const R: usize>(t: &Tables, block: &[u8; N], lead: [u8; 8]) -> u64 {
    let mut far = [0u64; N];
    for j in R..N {
        far[j] = t[N - 1 - j][block[j] as usize];
    }
    let mut half = N;
    while half > 1 {
        half /= 2;
        for j in 0..half {
            far[j] ^= far[j + half];
        }
    }
    let mut near = 0;
    for j in 0..R {
        near ^= t[N - 1 - j][(block[j] ^ lead[j]) as usize];
    }
    far[0] ^ near
}

/// The one kernel: sixteen-byte steps, then at most one eight-byte step,
/// then 0–7 single bytes through the byte table. `reg` is the working
/// register of `shift_width` bits, bit-reflected when `REFLECTED`.
#[inline(always)]
fn fold_stream<const R: usize, const REFLECTED: bool>(
    t: &Tables,
    mut reg: u64,
    data: &[u8],
    shift_width: u32,
) -> u64 {
    // LSB-first: the register's low byte meets the first input byte.
    // MSB-first: its top byte does, once aligned to the top of the word.
    let align = 64 - shift_width;
    let lead = |reg: u64| {
        if REFLECTED {
            reg.to_le_bytes()
        } else {
            (reg << align).to_be_bytes()
        }
    };
    let (blocks, rest) = data.as_chunks::<SLICES>();
    for block in blocks {
        reg = fold::<SLICES, R>(t, block, lead(reg));
    }
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        reg = fold::<8, R>(t, word, lead(reg));
    }
    for &b in tail {
        reg = if REFLECTED {
            (reg >> 8) ^ t[0][((reg ^ b as u64) & 0xFF) as usize]
        } else {
            let idx = ((reg >> (shift_width - 8)) ^ b as u64) & 0xFF;
            ((reg << 8) & shift_mask(shift_width)) ^ t[0][idx as usize]
        };
    }
    reg
}

impl TableCrc {
    /// The CRC of `data` from a zero register and without the XOR-out:
    /// the linear part of [`CrcAlgorithm::checksum`]. For equal-length
    /// `a` and `b`, `checksum(a ⊕ b) = checksum(a) ⊕ linear_checksum(b)`,
    /// so whether a CRC check survives an error vector depends on the
    /// vector alone.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_crc::{CrcAlgorithm, CrcParams, TableCrc};
    ///
    /// let crc = TableCrc::new(CrcParams::CRC32);
    /// let (a, b) = (b"stochastic", b"\x01\0\0\0\0\0\0\0\x80\0");
    /// let sum: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
    /// assert_eq!(crc.checksum(&sum), crc.checksum(a) ^ crc.linear_checksum(b));
    /// ```
    pub fn linear_checksum(&self, data: &[u8]) -> u64 {
        self.register(0, data) & self.params.mask()
    }

    /// Runs the register from `init` over `data` and reflects the result
    /// as the parameter set asks, before any XOR-out.
    fn register(&self, init: u64, data: &[u8]) -> u64 {
        let p = &self.params;
        let width = p.width;
        let shift_width = width.max(8);
        // Work in the shifted register domain.
        let reg = (init & p.mask()) << (shift_width - width);
        // The register spans this many leading bytes of a block, rounded
        // up to a kernel that exists.
        let reg = match shift_width.div_ceil(8) {
            1 => self.fold_all::<1>(reg, data),
            2 => self.fold_all::<2>(reg, data),
            3 | 4 => self.fold_all::<4>(reg, data),
            _ => self.fold_all::<8>(reg, data),
        };
        let out = reg >> (shift_width - width);
        if p.reflect_out {
            reflect(out, width)
        } else {
            out
        }
    }
}

impl CrcAlgorithm for TableCrc {
    fn params(&self) -> &CrcParams {
        &self.params
    }

    fn checksum(&self, data: &[u8]) -> u64 {
        let p = &self.params;
        (self.register(p.init, data) ^ p.xor_out) & p.mask()
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

    /// A fig4-8 frame body, and the largest body the wire format carries
    /// (a 65 535-byte payload behind the 15-byte header).
    #[test]
    fn slice_kernel_equals_bitwise_on_long_frames() {
        for len in [530, 65_550] {
            let data = pattern(len);
            for params in CrcParams::sweep() {
                assert_eq!(
                    TableCrc::new(params).checksum(&data),
                    BitwiseCrc::new(params).checksum(&data),
                    "{}, {len} bytes",
                    params.name
                );
            }
        }
    }

    /// Tables 1–7 are first read by the eight-byte step (length 8), tables
    /// 8–15 by the first sixteen-byte step (length 16).
    #[test]
    fn breaking_any_one_derived_table_fails_the_sweep() {
        for params in CrcParams::sweep() {
            for k in 1..SLICES {
                let mut broken = TableCrc::new(params);
                for entry in Arc::make_mut(&mut broken.tables)[k].iter_mut() {
                    *entry ^= 1;
                }
                let reached_at = if k < 8 { 8 } else { SLICES };
                assert_eq!(
                    first_mismatch(&broken),
                    Some(reached_at),
                    "{}: table {k} is not covered",
                    params.name
                );
            }
        }
    }

    #[test]
    fn clones_share_the_tables() {
        let crc = TableCrc::new(CrcParams::CRC16_CCITT);
        assert!(Arc::ptr_eq(&crc.tables, &crc.clone().tables));
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
